//! Live progress monitoring — the `pegasus-status` equivalent.
//!
//! [`StatusMonitor`] keeps running counts and renders the familiar
//! one-line status (`%done  queued/running/done/failed`);
//! [`TimelineMonitor`] records a full event timeline suitable for
//! Gantt rendering and concurrency analysis (how many jobs were in
//! flight at any simulated/real moment). Both are [`EventSink`]s, so
//! they fold a recorded stream exactly as they fold a live one.

use crate::events::{EventSink, WorkflowEvent};
use crate::symbols::Name;

/// Running counters and a status line.
#[derive(Debug, Default, Clone)]
pub struct StatusMonitor {
    /// Total jobs expected (set at construction).
    pub(crate) total: usize,
    /// Attempts currently in flight.
    pub(crate) in_flight: usize,
    /// Jobs completed successfully.
    pub done: usize,
    /// Attempts that failed (retries count individually).
    pub failed_attempts: usize,
    /// `(in flight, done, failed attempts)` after each state change:
    /// what its status line renders, kept instead of the line.
    changes: Vec<(usize, usize, usize)>,
}

impl StatusMonitor {
    /// Creates a monitor expecting `total` jobs.
    pub fn new(total: usize) -> Self {
        StatusMonitor {
            total,
            ..Default::default()
        }
    }

    /// Percent of jobs completed once `done` have.
    fn percent(&self, done: usize) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * done as f64 / self.total as f64
        }
    }

    /// The `pegasus-status`-style one-liner.
    pub fn status_line(&self) -> String {
        self.line((self.in_flight, self.done, self.failed_attempts))
    }

    /// The status line after each state change, one per submission and
    /// termination (for tests/UIs), rendered as it is read.
    pub fn history(&self) -> impl ExactSizeIterator<Item = String> + '_ {
        self.changes.iter().map(|&change| self.line(change))
    }

    fn line(&self, (in_flight, done, failed): (usize, usize, usize)) -> String {
        format!(
            "{:>5.1}% done | {in_flight} running | {done}/{} jobs | {failed} failed attempts",
            self.percent(done),
            self.total,
        )
    }
}

impl EventSink for StatusMonitor {
    fn event(&mut self, ev: &WorkflowEvent) {
        if let WorkflowEvent::Submitted { .. } = ev {
            self.in_flight += 1;
        } else if let Some(end) = ev.termination() {
            self.in_flight = self.in_flight.saturating_sub(1);
            match end.failure {
                None => self.done += 1,
                Some(_) => self.failed_attempts += 1,
            }
        } else {
            return;
        }
        (self.changes).push((self.in_flight, self.done, self.failed_attempts));
    }
}

/// One row of the execution timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Job display name.
    pub(crate) name: Name,
    /// Transformation name.
    pub(crate) transformation: Name,
    /// Attempt number.
    pub(crate) attempt: u32,
    /// Execution start (slot acquired).
    pub(crate) start: f64,
    /// Termination time.
    pub(crate) end: f64,
    /// Whether the attempt succeeded.
    pub(crate) succeeded: bool,
}

/// Records every attempt's execution interval.
#[derive(Debug, Default, Clone)]
pub struct TimelineMonitor {
    /// Completed attempt intervals, in completion order.
    pub entries: Vec<TimelineEntry>,
    /// `(name, transformation)` per job of the current run's manifest.
    jobs: Vec<(Name, Name)>,
}

impl TimelineMonitor {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum number of simultaneously executing attempts — the
    /// realised concurrency of the run.
    pub fn peak_concurrency(&self) -> usize {
        let mut points: Vec<(f64, i32, ())> = (self.entries.iter())
            .flat_map(|e| [(e.start, 1, ()), (e.end, -1, ())])
            .collect();
        sweep(&mut points).fold(0, |peak, (running, _)| peak.max(running)) as usize
    }

    /// Renders the timeline as CSV (`name,transformation,attempt,start,end,succeeded`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,transformation,attempt,start_s,end_s,succeeded\n");
        for e in &self.entries {
            out.push_str(&crate::csv::csv_row(&[
                e.name.as_str(),
                e.transformation.as_str(),
                &e.attempt.to_string(),
                &format!("{:.3}", e.start),
                &format!("{:.3}", e.end),
                &e.succeeded.to_string(),
            ]));
        }
        out
    }
}

impl EventSink for TimelineMonitor {
    fn event(&mut self, ev: &WorkflowEvent) {
        if let WorkflowEvent::WorkflowStarted { .. } = ev {
            // A further run on the same sink brings its own manifest.
            self.jobs.clear();
        } else if let WorkflowEvent::JobDeclared {
            name,
            transformation,
            ..
        } = ev
        {
            self.jobs.push((name.clone(), transformation.clone()));
        } else if let Some(end) = ev.termination() {
            // An attempt of a job the manifest never declared has no
            // name to file it under.
            if let Some((name, transformation)) = self.jobs.get(end.job.idx()) {
                self.entries.push(TimelineEntry {
                    name: name.clone(),
                    transformation: transformation.clone(),
                    attempt: end.attempt,
                    start: end.times.started,
                    end: end.times.finished,
                    succeeded: end.failure.is_none(),
                });
            }
        }
    }
}

/// The one concurrency sweep over attempt intervals, each given as a
/// `(time, +1, tag)` start and a `(time, -1, tag)` end: the steps in
/// time order, each with the count in flight after it. At equal
/// instants ends go before starts, because the simulator hands a freed
/// slot to the next attempt at the same clock; a NaN time sorts after
/// every number instead of panicking the sort.
pub(crate) fn sweep<'a, T>(
    points: &'a mut [(f64, i32, T)],
) -> impl Iterator<Item = (i64, &'a (f64, i32, T))> + 'a {
    points.sort_by(|a, b| {
        (a.0.partial_cmp(&b.0))
            .unwrap_or_else(|| a.0.is_nan().cmp(&b.0.is_nan()))
            .then(a.1.cmp(&b.1))
    });
    points.iter().scan(0i64, |running, point| {
        *running += i64::from(point.1);
        Some((*running, point))
    })
}

/// Fans one event stream out to several sinks, in push order, a whole
/// batch to each sink before the next.
#[derive(Default)]
pub struct MultiMonitor<'a> {
    sinks: Vec<&'a mut dyn EventSink>,
}

impl<'a> MultiMonitor<'a> {
    /// Creates an empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink to the fan-out.
    pub fn push(&mut self, sink: &'a mut dyn EventSink) {
        self.sinks.push(sink);
    }
}

impl EventSink for MultiMonitor<'_> {
    fn event(&mut self, ev: &WorkflowEvent) {
        self.events(std::slice::from_ref(ev));
    }

    fn events(&mut self, batch: &[WorkflowEvent]) {
        self.sinks.iter_mut().for_each(|sink| sink.events(batch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::log;

    /// Feeds `sink` the events of an event-log text.
    fn feed(sink: &mut dyn EventSink, text: &str) {
        for ev in log::parse(text).expect("test logs parse") {
            sink.event(&ev);
        }
    }

    /// The terminal line of attempt 0 of job `id` running over
    /// `[start, end]` with no queue wait or install phase.
    fn ran(id: usize, start: f64, end: f64, ok: bool) -> String {
        let (head, detail) = if ok {
            ("completed", "")
        } else {
            ("failed reason=error", " detail=x")
        };
        format!(
            "{head} job={id} attempt=0 submitted={start} started={start} \
             install-done={start} finished={end}{detail}\n"
        )
    }

    const RETRY: &str = "retry-scheduled time=0 job=0 next-attempt=1 backoff=2.5 \
                         reason=preempted detail=preempted\n";

    #[test]
    fn status_counts_and_percentages() {
        let mut m = StatusMonitor::new(4);
        assert_eq!(m.percent(m.done), 0.0);
        feed(&mut m, "submitted time=0 job=0 attempt=0\n");
        feed(&mut m, "submitted time=0 job=1 attempt=0\n");
        assert_eq!(m.in_flight, 2);
        feed(&mut m, &ran(0, 0.0, 5.0, true));
        assert_eq!(m.done, 1);
        assert_eq!(m.in_flight, 1);
        assert_eq!(m.percent(m.done), 25.0);
        feed(&mut m, &ran(1, 0.0, 5.0, false));
        assert_eq!(m.failed_attempts, 1);
        assert!(m.status_line().contains("25.0% done"));
        let history: Vec<String> = m.history().collect();
        assert_eq!(history.len(), 4);
        assert_eq!(
            history[1],
            "  0.0% done | 2 running | 0/4 jobs | 0 failed attempts"
        );
        assert_eq!(history[3], m.status_line());
    }

    #[test]
    fn retry_events_leave_the_status_alone() {
        let mut m = StatusMonitor::new(2);
        feed(&mut m, &[RETRY, RETRY].concat());
        assert_eq!(m.in_flight, 0);
        assert_eq!(m.history().len(), 0);
    }

    #[test]
    fn empty_status_is_100_percent() {
        assert_eq!(StatusMonitor::new(0).percent(0), 100.0);
    }

    /// A timeline that knows jobs 0..3 as a, b, c and saw `attempts`.
    fn timeline(attempts: &[String]) -> TimelineMonitor {
        let mut t = TimelineMonitor::new();
        for (id, name) in ["a", "b", "c"].iter().enumerate() {
            let line = format!("job id={id} kind=compute transformation=t name={name}\n");
            feed(&mut t, &line);
        }
        feed(&mut t, &attempts.concat());
        t
    }

    #[test]
    fn timeline_records_intervals_and_concurrency() {
        let t = timeline(&[
            ran(0, 0.0, 10.0, true),
            ran(1, 2.0, 8.0, true),
            ran(2, 10.0, 15.0, true),
            // No name to file an undeclared job's attempt under.
            ran(7, 0.0, 99.0, true),
        ]);
        assert_eq!(t.entries.len(), 3);
        assert_eq!(t.peak_concurrency(), 2);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("a,t,0,0.000,10.000,true"));
    }

    #[test]
    fn touching_intervals_do_not_double_count() {
        let t = timeline(&[ran(0, 0.0, 10.0, true), ran(1, 10.0, 20.0, true)]);
        assert_eq!(t.peak_concurrency(), 1);
    }

    #[test]
    fn empty_timeline_has_zero_peak() {
        assert_eq!(TimelineMonitor::new().peak_concurrency(), 0);
    }

    #[test]
    fn zero_job_workflow_finishes_at_100_percent() {
        use crate::engine::scripted::ScriptedBackend;
        use crate::engine::{Engine, EngineConfig};
        use crate::planner::ExecutableWorkflow;

        let wf = ExecutableWorkflow {
            name: "empty".into(),
            site: "test".into(),
            jobs: vec![],
            edges: vec![],
        };
        let mut m = StatusMonitor::new(wf.jobs.len());
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &wf,
            &EngineConfig::default(),
            &mut m,
        );
        assert!(run.succeeded());
        assert_eq!(m.percent(m.done), 100.0);
        assert_eq!(m.in_flight, 0);
        // No state changes → no history entries, but the status line
        // still renders sensibly.
        assert_eq!(m.history().len(), 0);
        assert!(
            m.status_line().contains("100.0% done"),
            "{}",
            m.status_line()
        );
        assert!(m.status_line().contains("0/0 jobs"), "{}", m.status_line());
    }

    #[test]
    fn peak_concurrency_breaks_simultaneous_ties() {
        // Three intervals share t = 5 as both an end and two starts:
        // the ending attempt must not be counted alongside them.
        let t = timeline(&[
            ran(0, 0.0, 5.0, true),
            ran(1, 5.0, 10.0, true),
            ran(2, 5.0, 10.0, true),
        ]);
        assert_eq!(t.peak_concurrency(), 2);

        // Identical intervals all count simultaneously...
        let same: Vec<String> = (0..3).map(|id| ran(id, 0.0, 5.0, true)).collect();
        assert_eq!(timeline(&same).peak_concurrency(), 3);

        // ...including zero-width ones, where the start still sorts
        // after the end at the same instant (net zero, peak from the
        // longer-lived neighbour only).
        let t = timeline(&[ran(0, 5.0, 5.0, true), ran(1, 0.0, 10.0, true)]);
        assert_eq!(t.peak_concurrency(), 1);
    }

    #[test]
    fn a_nan_time_sorts_last_instead_of_panicking() {
        // The log refuses `nan`, so the NaN arrives as an event built
        // in memory: attempt b ends at NaN, and its end sorts after
        // every number.
        let mut t = timeline(&[ran(0, 0.0, 10.0, true)]);
        let mut evs = log::parse(&ran(1, 2.0, 4.0, true)).expect("test logs parse");
        if let WorkflowEvent::Completed { times, .. } = &mut evs[0] {
            times.finished = f64::NAN;
        }
        t.event(&evs[0]);
        assert_eq!(t.peak_concurrency(), 2);
    }

    /// One submission, one retry, one completion, then the trailer.
    fn one_job_stream() -> String {
        let head = "job id=0 kind=compute transformation=t name=a\n\
                    submitted time=0 job=0 attempt=0\n";
        let done = ran(0, 0.0, 3.0, true);
        format!("{head}{RETRY}{done}workflow-finished time=3 wall-time=3 succeeded=true\n")
    }

    #[test]
    fn multi_monitor_preserves_push_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Tagged(&'static str, Rc<RefCell<Vec<String>>>);
        impl EventSink for Tagged {
            fn event(&mut self, ev: &WorkflowEvent) {
                let log = log::write(std::slice::from_ref(ev));
                let line = log.lines().nth(1).expect("one event line");
                let keyword = line.split(' ').next().expect("a keyword");
                self.1.borrow_mut().push(format!("{}:{keyword}", self.0));
            }
        }

        let tape = Rc::new(RefCell::new(Vec::new()));
        let mut first = Tagged("first", Rc::clone(&tape));
        let mut second = Tagged("second", Rc::clone(&tape));
        {
            let mut multi = MultiMonitor::new();
            multi.push(&mut first);
            multi.push(&mut second);
            feed(&mut multi, &one_job_stream());
        }
        let want: Vec<String> = [
            "job",
            "submitted",
            "retry-scheduled",
            "completed",
            "workflow-finished",
        ]
        .iter()
        .flat_map(|k| [format!("first:{k}"), format!("second:{k}")])
        .collect();
        assert_eq!(*tape.borrow(), want);
    }

    #[test]
    fn multi_monitor_fans_out() {
        let mut status = StatusMonitor::new(1);
        let mut timeline = TimelineMonitor::new();
        {
            let mut multi = MultiMonitor::new();
            multi.push(&mut status);
            multi.push(&mut timeline);
            feed(&mut multi, &one_job_stream());
        }
        assert_eq!(status.done, 1);
        assert_eq!(status.history().len(), 2);
        assert_eq!(timeline.entries.len(), 1);
    }
}
