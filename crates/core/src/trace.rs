//! End-to-end span tracing over the provenance stream.
//!
//! The paper's analysis is span-shaped: every per-task finding (Figs.
//! 7–8) is a statement about where *time intervals* went — queue
//! wait, install, kickstart, retry badput. This module makes those
//! intervals first-class: [`fold`] turns any [`WorkflowEvent`] stream
//! into a hierarchical span tree
//!
//! > workflow → job → attempt → queue-wait / install / kickstart
//!
//! with inter-attempt backoff gaps and failed-attempt badput marked,
//! keyed by a [`TraceId`] that follows one workflow from `pegasus
//! serve` socket admission through the journal and per-member event
//! logs to the final report.
//!
//! Two exporters render the tree:
//!
//! * [`render_chrome`] — Chrome Trace Event Format JSON, loadable in
//!   Perfetto / `chrome://tracing`. One process per workflow, one
//!   thread track per job, complete (`"X"`) events in simulated
//!   microseconds, deterministically ordered;
//! * [`render_text`] — a plain-text span tree for terminals.
//!
//! Both are pure functions of the job records the stream folds into,
//! so the tree of a live run ([`of_run`], `pegasus trace --site ...`)
//! and the offline fold of the written log ([`fold`],
//! `--from-events`) are byte-identical — the same discipline the
//! statistics, metrics, and breakdown surfaces follow.
//!
//! Trace ids travel *outside* the event grammar: a `# trace
//! id=<16-hex>` comment line after the event-log header
//! ([`render_log_header`]), which every existing parser skips, so
//! tagged logs stay readable by every older consumer byte-for-byte.

use crate::breakdown::{self, JobSpan};
use crate::engine::{FaultReason, JobTimes, WorkflowRun};
use crate::error::WmsError;
use crate::events::{self, WorkflowEvent};
use crate::planner::JobKind;
use crate::symbols::Name;
use crate::workflow::JobId;
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

/// The identity one workflow carries from submission to report: a
/// 64-bit id rendered as 16 lowercase hex digits (`w3c trace-id`
/// style, at the width a single-host system needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw 64-bit id.
    pub fn new(raw: u64) -> Self {
        TraceId(raw)
    }

    /// The raw 64-bit id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Derives the trace id of submission `index` under a daemon (or
    /// CLI) base seed: a splitmix-style mix, so ids spread over the
    /// full width, and a pure function of journaled facts, so crash
    /// recovery re-derives the identical id.
    pub fn derive(seed: u64, index: u64) -> Self {
        let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        TraceId(z ^ (z >> 31))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for TraceId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || s.len() > 16 {
            return Err(format!("bad trace id {s:?}: want 1-16 hex digits"));
        }
        u64::from_str_radix(s, 16)
            .map(TraceId)
            .map_err(|_| format!("bad trace id {s:?}: want hex digits"))
    }
}

/// Renders the event-log comment line carrying a trace id:
/// `# trace id=<16-hex>`. Written directly under the log header;
/// every event-log parser skips it as a comment.
pub fn render_log_comment(id: TraceId) -> String {
    format!("# trace id={id}")
}

/// Scans an event-log text for a `# trace id=...` comment and parses
/// the id. `None` when the log predates tracing (or the comment is
/// malformed — tolerated, since comments are non-normative).
pub fn trace_from_log(text: &str) -> Option<TraceId> {
    for line in text.lines() {
        let Some(comment) = line.trim().strip_prefix('#') else {
            continue;
        };
        if let Some(rest) = comment.trim().strip_prefix("trace ") {
            if let Some(hex) = rest.trim().strip_prefix("id=") {
                return hex.trim().parse().ok();
            }
        }
    }
    None
}

/// The full event-log header for a traced stream: the versioned log
/// header plus the trace comment, newline-terminated. Concatenating
/// this with [`events::log::append`] chunks yields a log whose
/// *events* are byte-identical to an untraced one.
pub fn render_log_header(id: TraceId) -> String {
    format!("{}\n{}\n", events::log::HEADER, render_log_comment(id))
}

/// One phase interval inside a successful or failed attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Phase label: `queue-wait`, `install`, or `kickstart`.
    pub label: &'static str,
    /// Interval start, backend seconds.
    pub start: f64,
    /// Interval end, backend seconds.
    pub end: f64,
}

/// How one attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt succeeded.
    Completed,
    /// The attempt failed; the string is the backend's wire-format
    /// reason (e.g. `preempted:storm`).
    Failed(Name),
    /// The attempt exceeded the per-attempt timeout.
    TimedOut(Name),
}

impl AttemptOutcome {
    /// A short display label for the outcome.
    pub fn label(&self) -> String {
        match self {
            AttemptOutcome::Completed => "completed".to_string(),
            AttemptOutcome::Failed(detail) => format!("failed({detail})"),
            AttemptOutcome::TimedOut(detail) => format!("timed-out({detail})"),
        }
    }
}

/// One attempt's span: release into the remote queue → terminal
/// event, with its phase children.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptSpan {
    /// Attempt number (0-based).
    pub attempt: u32,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// The attempt's full timestamps.
    pub times: JobTimes,
    /// Phase intervals inside the attempt, in time order.
    pub phases: Vec<Phase>,
}

impl AttemptSpan {
    /// `true` for failed/timed-out attempts — their whole interval is
    /// retry badput.
    pub fn badput(&self) -> bool {
        !matches!(self.outcome, AttemptOutcome::Completed)
    }
}

/// One job's track in the trace: its attempts plus the aggregated
/// phase summary from the breakdown fold.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Job index in the executable workflow (the track id).
    pub job: JobId,
    /// Display name.
    pub name: Name,
    /// Job role.
    pub kind: JobKind,
    /// Aggregated queue-wait/install/kickstart/post/badput summary —
    /// the same numbers `pegasus breakdown` reports for this job.
    pub summary: JobSpan,
    /// Attempt spans in submission order.
    pub attempts: Vec<AttemptSpan>,
}

/// A whole workflow's span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowTrace {
    /// The trace id, when the stream (or its log) carried one.
    pub trace: Option<TraceId>,
    /// Workflow name.
    pub name: String,
    /// Execution site handle.
    pub site: String,
    /// `true` when every job completed.
    pub succeeded: bool,
    /// Workflow start, backend seconds.
    pub start: f64,
    /// Workflow end, backend seconds.
    pub end: f64,
    /// Per-job tracks, in job-id order.
    pub jobs: Vec<JobTrace>,
}

fn attempt_span(attempt: usize, outcome: AttemptOutcome, times: &JobTimes) -> AttemptSpan {
    let mut phases = vec![Phase {
        label: "queue-wait",
        start: times.submitted,
        end: times.started,
    }];
    if times.install_done > times.started {
        phases.push(Phase {
            label: "install",
            start: times.started,
            end: times.install_done,
        });
    }
    phases.push(Phase {
        label: "kickstart",
        start: times.install_done,
        end: times.finished,
    });
    AttemptSpan {
        attempt: attempt as u32,
        outcome,
        times: *times,
        phases,
    }
}

/// The span tree of the run that started at `start`, from its records:
/// a job's failed attempts in order, then its successful one.
fn tree(run: &WorkflowRun, start: f64, trace: Option<TraceId>) -> WorkflowTrace {
    let jobs = run
        .records
        .iter()
        .zip(breakdown::job_spans(&run.records))
        .map(|(r, summary)| {
            let failed = r.failed_attempts.iter().zip(&r.failure_reasons);
            let mut attempts: Vec<AttemptSpan> = failed
                .zip(&r.failure_kinds)
                .enumerate()
                .map(|(i, ((times, detail), kind))| {
                    let outcome = match kind {
                        FaultReason::Timeout => AttemptOutcome::TimedOut(detail.clone()),
                        _ => AttemptOutcome::Failed(detail.clone()),
                    };
                    attempt_span(i, outcome, times)
                })
                .collect();
            if let Some(times) = &r.times {
                attempts.push(attempt_span(
                    attempts.len(),
                    AttemptOutcome::Completed,
                    times,
                ));
            }
            JobTrace {
                job: r.job,
                name: r.name.clone(),
                kind: r.kind,
                summary,
                attempts,
            }
        })
        .collect();
    WorkflowTrace {
        trace,
        name: run.name.clone(),
        site: run.site.clone(),
        succeeded: run.succeeded(),
        start,
        end: start + run.wall_time,
        jobs,
    }
}

/// The span tree of a run in hand, attributed to `trace`. Costs no
/// replay: every interval is already in the run's records.
pub fn of_run(run: &WorkflowRun, trace: Option<TraceId>) -> WorkflowTrace {
    tree(run, events::start_time(&run.events), trace)
}

/// Folds a recorded event stream into a [`WorkflowTrace`], attributing
/// it to `trace` (pass the id read from the log via
/// [`trace_from_log`], or the daemon's journaled id).
///
/// # Errors
/// Returns [`WmsError::EventLogParse`] when the stream is not a valid
/// engine emission (no header first, undeclared or out-of-order jobs).
pub fn fold(stream: &[WorkflowEvent], trace: Option<TraceId>) -> Result<WorkflowTrace, WmsError> {
    Ok(tree(
        &events::fold(stream)?,
        events::start_time(stream),
        trace,
    ))
}

/// Renders the plain-text span tree — the default `pegasus trace`
/// terminal view and the payload of the serve protocol's `trace`
/// verb. Deterministic: millisecond-precision intervals, jobs in
/// id order, attempts in submission order.
pub fn render_text(traces: &[WorkflowTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        let id = t
            .trace
            .map(|id| id.to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "trace {id} workflow {} site={} succeeded={} span=[{:.3}s..{:.3}s]",
            t.name, t.site, t.succeeded, t.start, t.end
        );
        for j in &t.jobs {
            let s = &j.summary;
            let _ = writeln!(
                out,
                "  job {} ({}) attempts={} total={:.3}s queue-wait={:.3}s install={:.3}s \
                 kickstart={:.3}s post={:.3}s badput={:.3}s",
                j.name,
                j.kind,
                s.attempts,
                s.total(),
                s.queue_wait,
                s.install,
                s.kickstart,
                s.post_overhead,
                s.retry_badput
            );
            for (i, a) in j.attempts.iter().enumerate() {
                if i > 0 {
                    let prev_end = j.attempts[i - 1].times.finished;
                    if a.times.submitted > prev_end {
                        let _ = writeln!(
                            out,
                            "    gap backoff/resubmit [{prev_end:.3}s..{:.3}s] {:.3}s",
                            a.times.submitted,
                            a.times.submitted - prev_end
                        );
                    }
                }
                let _ = writeln!(
                    out,
                    "    attempt {} {} [{:.3}s..{:.3}s]{}",
                    a.attempt,
                    a.outcome.label(),
                    a.times.submitted,
                    a.times.finished,
                    if a.badput() { " badput" } else { "" }
                );
                for p in &a.phases {
                    let _ = writeln!(
                        out,
                        "      {} [{:.3}s..{:.3}s] {:.3}s",
                        p.label,
                        p.start,
                        p.end,
                        p.end - p.start
                    );
                }
            }
        }
    }
    out
}

/// One event of the Chrome Trace Event Format export, pre-ordering.
/// Exposed so tests (and other consumers) can assert track structure
/// without parsing JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Category (`workflow`, `attempt`, `badput`, `phase`, `overhead`).
    pub cat: &'static str,
    /// Phase letter: `X` complete events, `M` metadata.
    pub ph: char,
    /// Timestamp in simulated microseconds (`X` only).
    pub ts: i64,
    /// Duration in simulated microseconds (`X` only).
    pub dur: i64,
    /// Process id: workflow index + 1.
    pub pid: usize,
    /// Thread id: 0 = workflow track, job index + 1 otherwise.
    pub tid: usize,
    /// Extra `args` fields, rendered in order.
    pub args: Vec<(&'static str, String)>,
}

fn us(seconds: f64) -> i64 {
    // Round once at the boundary: simulated seconds → integer µs is
    // the exactness Perfetto expects, and rounding is deterministic.
    (seconds * 1e6).round() as i64
}

/// Flattens span trees into the Chrome event list, deterministically
/// ordered: metadata first (process/thread naming), then complete
/// events sorted by `(pid, tid, ts, longest-duration-first)` so every
/// track's timestamps are monotone and parents precede children.
pub fn chrome_events(traces: &[WorkflowTrace]) -> Vec<ChromeEvent> {
    let mut meta = Vec::new();
    let mut spans = Vec::new();
    for (idx, t) in traces.iter().enumerate() {
        let pid = idx + 1;
        meta.push(ChromeEvent {
            name: "process_name".into(),
            cat: "__metadata",
            ph: 'M',
            ts: 0,
            dur: 0,
            pid,
            tid: 0,
            args: vec![("name", format!("{} @ {}", t.name, t.site))],
        });
        meta.push(ChromeEvent {
            name: "thread_name".into(),
            cat: "__metadata",
            ph: 'M',
            ts: 0,
            dur: 0,
            pid,
            tid: 0,
            args: vec![("name", "workflow".to_string())],
        });
        let mut wf_args = vec![("site", t.site.clone())];
        if let Some(id) = t.trace {
            wf_args.push(("trace", id.to_string()));
        }
        wf_args.push(("succeeded", t.succeeded.to_string()));
        spans.push(ChromeEvent {
            name: t.name.clone(),
            cat: "workflow",
            ph: 'X',
            ts: us(t.start),
            dur: us(t.end) - us(t.start),
            pid,
            tid: 0,
            args: wf_args,
        });
        for j in &t.jobs {
            let tid = j.job.idx() + 1;
            meta.push(ChromeEvent {
                name: "thread_name".into(),
                cat: "__metadata",
                ph: 'M',
                ts: 0,
                dur: 0,
                pid,
                tid,
                args: vec![("name", j.name.as_str().to_owned())],
            });
            for (i, a) in j.attempts.iter().enumerate() {
                if i > 0 {
                    let prev_end = j.attempts[i - 1].times.finished;
                    if a.times.submitted > prev_end {
                        spans.push(ChromeEvent {
                            name: "backoff".into(),
                            cat: "overhead",
                            ph: 'X',
                            ts: us(prev_end),
                            dur: us(a.times.submitted) - us(prev_end),
                            pid,
                            tid,
                            args: vec![],
                        });
                    }
                }
                spans.push(ChromeEvent {
                    name: format!("attempt {}", a.attempt),
                    cat: if a.badput() { "badput" } else { "attempt" },
                    ph: 'X',
                    ts: us(a.times.submitted),
                    dur: us(a.times.finished) - us(a.times.submitted),
                    pid,
                    tid,
                    args: vec![("outcome", a.outcome.label())],
                });
                for p in &a.phases {
                    spans.push(ChromeEvent {
                        name: p.label.into(),
                        cat: "phase",
                        ph: 'X',
                        ts: us(p.start),
                        dur: us(p.end) - us(p.start),
                        pid,
                        tid,
                        args: vec![],
                    });
                }
            }
        }
    }
    spans.sort_by(|a, b| {
        (a.pid, a.tid, a.ts, std::cmp::Reverse(a.dur)).cmp(&(
            b.pid,
            b.tid,
            b.ts,
            std::cmp::Reverse(b.dur),
        ))
    });
    meta.extend(spans);
    meta
}

/// The crate's one JSON string escaper (the Chrome export here, the
/// lint report in [`crate::lint`]).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders span trees as Chrome Trace Event Format JSON — the
/// `trace.json` Perfetto and `chrome://tracing` load. One event per
/// line (diff-friendly), `ts`/`dur` in simulated microseconds,
/// ordering per [`chrome_events`]. Hand-rolled JSON: the repo's
/// no-serde discipline.
pub fn render_chrome(traces: &[WorkflowTrace]) -> String {
    let events = chrome_events(traces);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":{},\"tid\":{}",
            json_escape(&ev.name),
            ev.cat,
            ev.ph,
            ev.pid,
            ev.tid
        );
        if ev.ph == 'X' {
            let _ = write!(out, ",\"ts\":{},\"dur\":{}", ev.ts, ev.dur);
        }
        if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":\"{}\"", json_escape(v));
            }
            out.push('}');
        }
        out.push('}');
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::scripted::ScriptedBackend;
    use crate::engine::{Engine, EngineConfig, RetryPolicy};
    use crate::planner::{ExecutableJob, ExecutableWorkflow};

    fn wf() -> ExecutableWorkflow {
        let job = |id: usize, name: &str, runtime: f64, install: f64| ExecutableJob {
            id: JobId::new(id),
            name: name.into(),
            transformation: name.into(),
            kind: JobKind::Compute,
            args: Default::default(),
            runtime_hint: runtime,
            install_hint: install,
        };
        ExecutableWorkflow {
            name: "mini_n2".into(),
            site: "test".into(),
            jobs: vec![job(0, "a", 10.0, 2.0), job(1, "b", 20.0, 0.0)],
            edges: vec![(JobId::new(0), JobId::new(1))],
        }
    }

    fn retried_run() -> crate::engine::WorkflowRun {
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("a".into(), 0));
        let cfg = EngineConfig::builder()
            .policy(RetryPolicy::exponential(3, 7.0))
            .build();
        let run = Engine::run(&mut be, &wf(), &cfg, &mut crate::engine::NoopMonitor);
        assert!(run.succeeded());
        run
    }

    #[test]
    fn trace_ids_render_and_parse() {
        let id = TraceId::new(0x0123_4567_89ab_cdef);
        assert_eq!(id.to_string(), "0123456789abcdef");
        assert_eq!("0123456789abcdef".parse::<TraceId>().unwrap(), id);
        assert_eq!("f".parse::<TraceId>().unwrap(), TraceId::new(0xf));
        assert!("".parse::<TraceId>().is_err());
        assert!("xyz".parse::<TraceId>().is_err());
        assert!("00112233445566778".parse::<TraceId>().is_err());
    }

    #[test]
    fn derive_is_stable_and_spreads() {
        let a = TraceId::derive(11, 0);
        let b = TraceId::derive(11, 1);
        let c = TraceId::derive(42, 0);
        assert_eq!(a, TraceId::derive(11, 0), "pure function of (seed, id)");
        assert_ne!(a, b);
        assert_ne!(a, c);
        // The mix scrambles even index 0 away from the raw seed.
        assert_ne!(a.raw(), 11);
    }

    #[test]
    fn log_comment_round_trips_and_parsers_skip_it() {
        let id = TraceId::derive(7, 3);
        let run = retried_run();
        let text = format!(
            "{}{}",
            render_log_header(id),
            events::log::append(&run.events)
        );
        assert_eq!(trace_from_log(&text), Some(id));
        let parsed = events::log::parse(&text).expect("comment lines are skipped");
        assert_eq!(parsed, run.events);
        assert_eq!(trace_from_log(&events::log::write(&run.events)), None);
    }

    #[test]
    fn fold_builds_attempts_gaps_and_phases() {
        let run = retried_run();
        let t = fold(&run.events, Some(TraceId::new(1))).unwrap();
        assert_eq!(t.name, "mini_n2");
        assert_eq!(t.site, "test");
        assert!(t.succeeded);
        assert_eq!(t.jobs.len(), 2);
        let a = &t.jobs[0];
        assert_eq!(a.attempts.len(), 2);
        assert!(a.attempts[0].badput());
        assert!(!a.attempts[1].badput());
        // The retried attempt has a backoff gap before it.
        assert!(a.attempts[1].times.submitted > a.attempts[0].times.finished);
        // Phases tile the successful attempt exactly.
        let ok = &a.attempts[1];
        assert_eq!(ok.phases.first().unwrap().start, ok.times.submitted);
        assert_eq!(ok.phases.last().unwrap().end, ok.times.finished);
        for w in ok.phases.windows(2) {
            assert_eq!(w[0].end, w[1].start, "phases tile without holes");
        }
        // Install phase appears only where the install hint was.
        assert!(ok.phases.iter().any(|p| p.label == "install"));
        let b_ok = &t.jobs[1].attempts[0];
        assert!(!b_ok.phases.iter().any(|p| p.label == "install"));
        // The summary matches the breakdown fold for the same stream.
        let spans = breakdown::job_spans(&run.records);
        assert_eq!(t.jobs[0].summary, spans[0]);
    }

    #[test]
    fn text_rendering_is_deterministic_and_structured() {
        let run = retried_run();
        let t = fold(&run.events, Some(TraceId::derive(11, 0))).unwrap();
        let text = render_text(std::slice::from_ref(&t));
        assert!(text.starts_with(&format!(
            "trace {} workflow mini_n2",
            TraceId::derive(11, 0)
        )));
        assert!(text.contains("attempt 0 failed("), "{text}");
        assert!(text.contains("badput"), "{text}");
        assert!(text.contains("gap backoff/resubmit"), "{text}");
        assert!(text.contains("queue-wait ["), "{text}");
        assert_eq!(text, render_text(std::slice::from_ref(&t)));
        // Untraced streams render a placeholder id.
        let untraced = fold(&run.events, None).unwrap();
        assert!(render_text(&[untraced]).starts_with("trace - workflow"));
    }

    #[test]
    fn chrome_tracks_are_monotone_and_nested() {
        let run = retried_run();
        let t = fold(&run.events, Some(TraceId::new(0xabc))).unwrap();
        let events = chrome_events(std::slice::from_ref(&t));
        // Metadata first, then per-track monotone timestamps.
        let first_x = events.iter().position(|e| e.ph == 'X').unwrap();
        assert!(events[..first_x].iter().all(|e| e.ph == 'M'));
        let xs: Vec<&ChromeEvent> = events[first_x..].iter().collect();
        assert!(xs.iter().all(|e| e.ph == 'X'));
        for w in xs.windows(2) {
            let (a, b) = (w[0], w[1]);
            if (a.pid, a.tid) == (b.pid, b.tid) {
                assert!(a.ts <= b.ts, "track ts monotone: {a:?} then {b:?}");
                if a.ts == b.ts {
                    assert!(a.dur >= b.dur, "parents precede children: {a:?} {b:?}");
                }
            }
        }
        // Every job track's events nest inside the workflow span.
        let wf_span = xs.iter().find(|e| e.cat == "workflow").unwrap();
        for e in &xs {
            assert!(e.ts >= wf_span.ts && e.ts + e.dur <= wf_span.ts + wf_span.dur);
        }
        // Durations are non-negative and µs-integral by construction.
        assert!(xs.iter().all(|e| e.dur >= 0));
    }

    #[test]
    fn chrome_json_is_balanced_and_stable() {
        let run = retried_run();
        let t = fold(&run.events, Some(TraceId::new(5))).unwrap();
        let json = render_chrome(std::slice::from_ref(&t));
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("]}\n"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json.contains("\"trace\":\"0000000000000005\""), "{json}");
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert_eq!(json, render_chrome(std::slice::from_ref(&t)));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
