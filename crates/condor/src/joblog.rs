//! The Condor user job log.
//!
//! HTCondor appends structured events (submit, execute, terminate,
//! abort) to a per-workflow "user log"; Pegasus's monitord tails that
//! file to populate its statistics database. This module provides the
//! equivalent: a [`JobLogMonitor`] that records events while the
//! engine runs (it is an [`EventSink`]) and a writer for the classic
//! text format. The tests hold a reader of that format, so every line
//! the writer emits is shown to read back as the event it came from.

use pegasus_wms::engine::FaultReason;
use pegasus_wms::events::{EventSink, WorkflowEvent};
use pegasus_wms::planner::ExecutableJob;
use pegasus_wms::symbols::{Name, NamePool};
use pegasus_wms::workflow::JobId;
use std::fmt::{self, Write as _};

/// Condor user-log event codes (the subset the WMS stack uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventCode {
    /// 000: job submitted.
    Submit,
    /// 001: job began executing.
    Execute,
    /// 004: job was evicted from its machine (preemption, blackout).
    Evicted,
    /// 005: job terminated (successfully).
    Terminated,
    /// 009: job aborted.
    Aborted,
}

impl EventCode {
    /// The three-digit code used in the text format.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            EventCode::Submit => "000",
            EventCode::Execute => "001",
            EventCode::Evicted => "004",
            EventCode::Terminated => "005",
            EventCode::Aborted => "009",
        }
    }

    /// What a live note of this code opens with; a failure's wire
    /// reason follows the last two.
    fn sentence(self) -> &'static str {
        match self {
            EventCode::Submit => "Job submitted from host submit.local",
            EventCode::Execute => "Job executing on host worker",
            EventCode::Terminated => "Job terminated. (return value 0)",
            EventCode::Evicted => "Job was evicted: ",
            EventCode::Aborted => "Job was aborted: ",
        }
    }
}

impl fmt::Display for EventCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One event in the user log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    /// Event type.
    pub code: EventCode,
    /// Job name (we use the planned job name as the cluster id).
    pub(crate) job: Name,
    /// Attempt number.
    pub(crate) attempt: u32,
    /// Backend timestamp in seconds.
    pub(crate) time: f64,
    /// Free-text note (return value, abort reason): one of a handful
    /// of sentences, so the events of a monitor share each distinct one.
    pub note: Name,
}

impl LogEvent {
    /// Renders the event in the Condor-ish banner format:
    ///
    /// ```text
    /// 005 (run_cap3_3.002) 1234.567 Job terminated. (return value 0)
    /// ...
    /// ```
    fn write_text(&self, out: &mut String) {
        let _ = write!(
            out,
            "{} ({}.{:03}) {:.3} {}\n...\n",
            self.code, self.job, self.attempt, self.time, self.note
        );
    }
}

/// Collects user-log events while a workflow runs.
#[derive(Debug, Default, Clone)]
pub struct JobLogMonitor {
    /// Events in arrival order.
    pub events: Vec<LogEvent>,
    /// Job names by id, from the current run's `JobDeclared` manifest.
    names: Vec<Name>,
    /// One handle per distinct note, and the buffer a note with a
    /// failure detail is put together in before it is looked up.
    notes: NamePool,
    scratch: String,
}

impl JobLogMonitor {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the user log offline from a provenance event stream —
    /// the same sequence a live run would have logged, derived
    /// entirely from `events`: job names come from the stream's own
    /// manifest, so `_jobs` is not consulted. Attempts of a job the
    /// stream never declared are left out.
    pub fn from_events(_jobs: &[ExecutableJob], events: &[WorkflowEvent]) -> JobLogMonitor {
        let mut log = JobLogMonitor::new();
        log.events(events);
        log
    }

    /// Logs one event; its note is the code's sentence, then `detail`.
    fn push(&mut self, code: EventCode, job: JobId, attempt: u32, time: f64, detail: &str) {
        if let Some(name) = self.names.get(job.idx()) {
            self.scratch.clear();
            self.scratch.push_str(code.sentence());
            self.scratch.push_str(detail);
            self.events.push(LogEvent {
                code,
                job: name.clone(),
                attempt,
                time,
                note: self.notes.share(&self.scratch),
            });
        }
    }

    /// Renders the whole log.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            ev.write_text(&mut out);
        }
        out
    }
}

impl EventSink for JobLogMonitor {
    fn event(&mut self, ev: &WorkflowEvent) {
        if let WorkflowEvent::WorkflowStarted { .. } = ev {
            // A further run on the same sink brings its own manifest.
            self.names.clear();
        } else if let WorkflowEvent::JobDeclared { name, .. } = ev {
            self.names.push(name.clone());
        } else if let WorkflowEvent::Submitted { job, attempt, time } = ev {
            self.push(EventCode::Submit, *job, *attempt, *time, "");
        } else if let Some(end) = ev.termination() {
            let (code, detail) = match end.failure {
                None => (EventCode::Terminated, ""),
                // Machine-initiated kills get the real Condor evicted
                // code; everything else stays an abort.
                Some((FaultReason::Preemption | FaultReason::Eviction, detail)) => {
                    (EventCode::Evicted, detail.as_str())
                }
                Some((_, detail)) => (EventCode::Aborted, detail.as_str()),
            };
            let (job, attempt, times) = (end.job, end.attempt, end.times);
            self.push(EventCode::Execute, job, attempt, times.started, "");
            self.push(code, job, attempt, times.finished, detail);
        }
    }
}

/// The reader of the text format: the inverse of
/// [`JobLogMonitor::to_text`], which the tests read its lines back with.
#[cfg(test)]
impl EventCode {
    /// Parses a three-digit code.
    fn from_code(code: &str) -> Option<EventCode> {
        match code {
            "000" => Some(EventCode::Submit),
            "001" => Some(EventCode::Execute),
            "004" => Some(EventCode::Evicted),
            "005" => Some(EventCode::Terminated),
            "009" => Some(EventCode::Aborted),
            _ => None,
        }
    }
}

#[cfg(test)]
impl LogEvent {
    /// Parses one banner line (the `...` terminator is handled by the
    /// log-level parser).
    fn parse_banner(line: &str) -> Option<LogEvent> {
        let mut rest = line.trim();
        let code = EventCode::from_code(rest.get(0..3)?)?;
        rest = rest.get(3..)?.trim_start();
        let open = rest.find('(')?;
        let close = rest.find(')')?;
        let id = &rest[open + 1..close];
        let (job, attempt) = id.rsplit_once('.')?;
        let attempt: u32 = attempt.parse().ok()?;
        rest = rest[close + 1..].trim_start();
        let (time_str, note) = rest.split_once(' ').unwrap_or((rest, ""));
        let time: f64 = time_str.parse().ok()?;
        Some(LogEvent {
            code,
            job: job.into(),
            attempt,
            time,
            note: note.into(),
        })
    }
}

#[cfg(test)]
impl JobLogMonitor {
    /// Parses a log text back into events (inverse of [`Self::to_text`]).
    fn parse(text: &str) -> Result<Vec<LogEvent>, String> {
        let mut out = Vec::new();
        for line in text.lines() {
            let t = line.trim();
            if t.is_empty() || t == "..." {
                continue;
            }
            match LogEvent::parse_banner(t) {
                Some(ev) => out.push(ev),
                None => return Err(format!("unparseable log line: {t:?}")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_wms::planner::JobKind;

    /// The log of job 0, declared as `name`, after the event-log lines
    /// of `text`.
    fn log_of(name: &str, text: &str) -> JobLogMonitor {
        let manifest = format!("job id=0 kind=compute transformation=t name={name}\n");
        let stream = pegasus_wms::events::log::parse(&(manifest + text)).expect("test logs parse");
        JobLogMonitor::from_events(&[], &stream)
    }

    /// The terminal line of an attempt of job 0 that began executing
    /// at `started`: `head` is `completed`, `failed reason=<r>` or
    /// `timed-out`, `detail` the wire reason of a failure.
    fn ran(head: &str, attempt: u32, started: f64, finished: f64, detail: &str) -> String {
        // A completed line has no detail field.
        let detail = match head {
            "completed" => String::new(),
            _ => format!(" detail={detail}"),
        };
        format!(
            "{head} job=0 attempt={attempt} submitted={} started={started} \
             install-done={started} finished={finished}{detail}\n",
            started - 1.0
        )
    }

    #[test]
    fn monitor_records_the_event_sequence() {
        let submit = "submitted time=5 job=0 attempt=0\n".to_string();
        let log = log_of("split", &(submit + &ran("completed", 0, 6.0, 16.0, "")));
        let codes: Vec<EventCode> = log.events.iter().map(|e| e.code).collect();
        assert_eq!(
            codes,
            vec![EventCode::Submit, EventCode::Execute, EventCode::Terminated]
        );
    }

    #[test]
    fn preemptions_become_evicted_events() {
        let text = ran("failed reason=preempted", 1, 0.0, 3.0, "preempted");
        let log = log_of("cap3", &text);
        assert_eq!(log.events[1].code, EventCode::Evicted);
        assert!(log.events[1].note.contains("preempted"));
    }

    #[test]
    fn non_machine_failures_stay_aborts() {
        let text = ran("failed reason=error", 0, 0.0, 3.0, "task panicked")
            + &ran("timed-out", 1, 3.0, 9.0, "timeout: exceeded 6s");
        let log = log_of("cap3", &text);
        assert_eq!(log.events[1].code, EventCode::Aborted);
        assert!(log.events[1].note.contains("task panicked"));
        assert_eq!(log.events[3].code, EventCode::Aborted);
    }

    #[test]
    fn evicted_events_round_trip() {
        let text = ran("failed reason=evicted", 0, 1.0, 4.0, "evicted:blackout");
        let log = log_of("b", &text);
        let text = log.to_text();
        assert!(text.contains("004 (b.000)"));
        let parsed = JobLogMonitor::parse(&text).unwrap();
        assert_eq!(parsed, log.events);
    }

    #[test]
    fn text_round_trip() {
        let submit = "submitted time=1.5 job=0 attempt=2\n".to_string();
        let log = log_of(
            "run_cap3_3",
            &(submit + &ran("completed", 2, 2.0, 12.25, "")),
        );
        let text = log.to_text();
        assert!(text.contains("000 (run_cap3_3.002) 1.500"));
        assert!(text.contains("005 (run_cap3_3.002) 12.250"));
        let parsed = JobLogMonitor::parse(&text).unwrap();
        assert_eq!(parsed, log.events);
    }

    #[test]
    fn job_names_with_dots_parse() {
        let ev = LogEvent {
            code: EventCode::Submit,
            job: "stage_in_alignments.out".into(),
            attempt: 0,
            time: 3.0,
            note: "x".into(),
        };
        let mut text = String::new();
        ev.write_text(&mut text);
        let back = LogEvent::parse_banner(text.lines().next().unwrap()).unwrap();
        assert_eq!(back.job, "stage_in_alignments.out");
        assert_eq!(back.attempt, 0);
    }

    #[test]
    fn garbage_lines_are_rejected() {
        assert!(JobLogMonitor::parse("wat\n").is_err());
        assert!(LogEvent::parse_banner("777 (a.000) 1.0 x").is_none());
        assert!(LogEvent::parse_banner("005 no-parens 1.0").is_none());
    }

    fn chain_workflow(
        workdir: &str,
    ) -> (
        pegasus_wms::planner::ExecutableWorkflow,
        crate::pool::LocalPool,
    ) {
        use pegasus_wms::planner::ExecutableWorkflow;
        let wf = ExecutableWorkflow {
            name: "w".into(),
            site: "local".into(),
            jobs: (0..3)
                .map(|i| ExecutableJob {
                    id: JobId::new(i),
                    name: format!("j{i}").into(),
                    transformation: "noop".into(),
                    kind: JobKind::Compute,
                    args: Default::default(),
                    runtime_hint: 0.0,
                    install_hint: 0.0,
                })
                .collect(),
            edges: vec![
                (JobId::new(0), JobId::new(1)),
                (JobId::new(1), JobId::new(2)),
            ],
        };
        let pool = crate::pool::LocalPool::new(
            crate::pool::PoolConfig {
                workers: 2,
                workdir: std::env::temp_dir().join(workdir),
                ..Default::default()
            },
            crate::pool::TaskRegistry::new(),
        );
        (wf, pool)
    }

    #[test]
    fn full_engine_run_produces_a_complete_log() {
        use pegasus_wms::engine::{Engine, EngineConfig};
        // Use the local pool for a real end-to-end log.
        let (wf, mut pool) = chain_workflow("joblog_test");
        let mut log = JobLogMonitor::new();
        let run = Engine::run(&mut pool, &wf, &EngineConfig::default(), &mut log);
        assert!(run.succeeded());
        // 3 submits + 3 executes + 3 terminations.
        assert_eq!(log.events.len(), 9);
        let reparsed = JobLogMonitor::parse(&log.to_text()).unwrap();
        assert_eq!(reparsed.len(), 9);
    }

    #[test]
    fn offline_replay_rebuilds_the_same_log() {
        use pegasus_wms::engine::{Engine, EngineConfig};
        let (wf, mut pool) = chain_workflow("joblog_replay_test");
        let mut log = JobLogMonitor::new();
        let run = Engine::run(&mut pool, &wf, &EngineConfig::default(), &mut log);
        assert!(run.succeeded());
        let offline = JobLogMonitor::from_events(&wf.jobs, &run.events);
        assert_eq!(offline.events, log.events);
        assert_eq!(offline.to_text(), log.to_text());

        // Hostile input must not panic: a job list shorter than the
        // stream's manifest changes nothing, and an attempt of a job
        // the stream never declared is left out of the log.
        let short = JobLogMonitor::from_events(&wf.jobs[..1], &run.events);
        assert_eq!(short.events, log.events);
        let mut hostile = run.events.clone();
        hostile.push(WorkflowEvent::Submitted {
            job: JobId::new(99),
            attempt: 0,
            time: 0.0,
        });
        hostile.retain(|ev| !matches!(ev, WorkflowEvent::WorkflowStarted { .. }));
        assert_eq!(JobLogMonitor::from_events(&[], &hostile).events, log.events);
    }
}
