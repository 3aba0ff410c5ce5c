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
//! Two exporters write the tree into any [`io::Write`] as they render
//! it, and gather it into a `String` as [`render_chrome`] and
//! [`render_text`]:
//!
//! * [`write_chrome`] — Chrome Trace Event Format JSON, loadable in
//!   Perfetto / `chrome://tracing`. One process per workflow, one
//!   thread track per job, complete (`"X"`) events in simulated
//!   microseconds, deterministically ordered;
//! * [`write_text`] — a plain-text span tree for terminals.
//!
//! Both are pure functions of the job records the stream folds into,
//! so the tree of a live run ([`of_run`], `pegasus trace --site ...`)
//! and the offline fold of the written log ([`fold`],
//! `--from-events`) are byte-identical — the same discipline the
//! statistics, metrics, and breakdown surfaces follow.
//!
//! Trace ids travel *outside* the event grammar: a `# trace
//! id=<16-hex>` comment line after the event-log header
//! ([`events::log::LogWriter`]), which every existing parser skips, so
//! tagged logs stay readable by every older consumer byte-for-byte;
//! [`events::log::read`] is the one place that reads it back.

use crate::breakdown::{self, JobSpan};
use crate::engine::{FaultReason, JobTimes, WorkflowRun};
use crate::error::WmsError;
use crate::events::{self, WorkflowEvent};
use crate::line::{push_i64, push_u64};
use crate::symbols::Name;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::ops::Range;
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

/// How one attempt ended. Displays as `completed`, `failed(<detail>)`
/// or `timed-out(<detail>)`.
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

impl fmt::Display for AttemptOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptOutcome::Completed => f.write_str("completed"),
            AttemptOutcome::Failed(detail) => write!(f, "failed({detail})"),
            AttemptOutcome::TimedOut(detail) => write!(f, "timed-out({detail})"),
        }
    }
}

/// One attempt's span: release into the remote queue → terminal
/// event. Its phase children are a function of `times`
/// ([`AttemptSpan::phases`]), so the span owns no heap of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptSpan {
    /// Attempt number (0-based).
    pub attempt: u32,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// The attempt's full timestamps.
    pub times: JobTimes,
}

impl AttemptSpan {
    /// `true` for failed/timed-out attempts — their whole interval is
    /// retry badput.
    pub(crate) fn badput(&self) -> bool {
        !matches!(self.outcome, AttemptOutcome::Completed)
    }

    /// Phase intervals inside the attempt, in time order and
    /// contiguous: `queue-wait`, `install` only when the attempt had
    /// an install phase, `kickstart`.
    pub fn phases(&self) -> impl Iterator<Item = Phase> {
        let t = self.times;
        [
            Some(("queue-wait", t.submitted, t.started)),
            (t.install_done > t.started).then_some(("install", t.started, t.install_done)),
            Some(("kickstart", t.install_done, t.finished)),
        ]
        .into_iter()
        .flatten()
        .map(|(label, start, end)| Phase { label, start, end })
    }
}

// ---------------------------------------------------------------------------
// Tracks
// ---------------------------------------------------------------------------

/// One job's track in the trace: the aggregated phase summary from
/// the breakdown fold, which names the job, and where its attempts lie
/// in the trace's attempt table.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Aggregated queue-wait/install/kickstart/post/badput summary —
    /// the same numbers `pegasus breakdown` reports for this job. Its
    /// `job` is the track id.
    pub summary: JobSpan,
    /// The job's attempt spans, a range of [`WorkflowTrace::attempts`]
    /// ([`WorkflowTrace::attempts_of`]).
    pub attempts: Range<u32>,
}

// ---------------------------------------------------------------------------
// Trees
// ---------------------------------------------------------------------------

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
    /// Every job's attempt spans, job after job, each job's in
    /// submission order: one table for the tree.
    pub attempts: Vec<AttemptSpan>,
}

impl WorkflowTrace {
    /// The attempt spans of `job`, one of this tree's tracks, in
    /// submission order.
    pub fn attempts_of(&self, job: &JobTrace) -> &[AttemptSpan] {
        let range = job.attempts.start as usize..job.attempts.end as usize;
        self.attempts.get(range).unwrap_or_default()
    }
}

/// The span tree of a run in hand, attributed to `trace`, from its
/// records: a job's failed attempts in order, then its successful one.
/// Costs no replay: every interval is already in the run's records.
pub fn of_run(run: &WorkflowRun, trace: Option<TraceId>) -> WorkflowTrace {
    let completed = run.records.iter().filter(|r| r.times.is_some()).count();
    let total = run.failures.len() + completed;
    // Every index below is at most `total`.
    assert!(
        u32::try_from(total).is_ok(),
        "a run holds fewer than 2^32 attempts"
    );
    let mut attempts = Vec::with_capacity(total);
    let jobs = (run.records.iter().zip(breakdown::job_spans(run)))
        .map(|(r, summary)| {
            let failed = run.failures(r).map(|f| match f.reason {
                FaultReason::Timeout => (AttemptOutcome::TimedOut(f.detail.clone()), f.times),
                _ => (AttemptOutcome::Failed(f.detail.clone()), f.times),
            });
            let completed = r.times.map(|times| (AttemptOutcome::Completed, times));
            let first = attempts.len() as u32;
            for (outcome, times) in failed.chain(completed) {
                let attempt = attempts.len() as u32 - first;
                attempts.push(AttemptSpan {
                    attempt,
                    outcome,
                    times,
                });
            }
            JobTrace {
                summary,
                attempts: first..attempts.len() as u32,
            }
        })
        .collect();
    WorkflowTrace {
        trace,
        name: run.name.clone(),
        site: run.site.clone(),
        succeeded: run.succeeded(),
        start: run.start,
        end: run.start + run.wall_time,
        jobs,
        attempts,
    }
}

/// Folds a recorded event stream into a [`WorkflowTrace`], attributing
/// it to `trace` (pass the id [`crate::events::log::read`] found in the
/// log, or the daemon's journaled id).
///
/// # Errors
/// Returns [`WmsError::Parse`] when the stream is not a valid
/// engine emission (no header first, undeclared or out-of-order jobs).
pub fn fold(stream: &[WorkflowEvent], trace: Option<TraceId>) -> Result<WorkflowTrace, WmsError> {
    Ok(of_run(&events::fed(stream).finish()?, trace))
}

/// Renders the plain-text span tree — the payload of the serve
/// protocol's `trace` verb; [`write_text`] into a `String`.
pub fn render_text(traces: &[WorkflowTrace]) -> String {
    gathered(|w| write_text(w, traces))
}

/// What `write` writes into a `Vec`, which takes every write, as the
/// `String` it is: the exporters write UTF-8.
fn gathered(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut bytes = Vec::new();
    write(&mut bytes).expect("a Vec takes every write");
    String::from_utf8(bytes).expect("the exporters write UTF-8")
}

/// Writes the plain-text span tree — the default `pegasus trace`
/// terminal view — into `w`, a workflow header or a job's lines at a
/// time. Deterministic: millisecond-precision intervals, jobs in id
/// order, attempts in submission order.
///
/// # Errors
/// The first error `w` returns; nothing is written after it.
pub fn write_text(w: &mut (impl io::Write + ?Sized), traces: &[WorkflowTrace]) -> io::Result<()> {
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
            w.write_all(out.as_bytes())?;
            out.clear();
            let s = &j.summary;
            let _ = writeln!(
                out,
                "  job {} ({}) attempts={} total={:.3}s queue-wait={:.3}s install={:.3}s \
                 kickstart={:.3}s post={:.3}s badput={:.3}s",
                s.name,
                s.kind,
                s.attempts,
                s.total(),
                s.queue_wait,
                s.install,
                s.kickstart,
                s.post_overhead,
                s.retry_badput
            );
            let attempts = t.attempts_of(j);
            for (i, a) in attempts.iter().enumerate() {
                if i > 0 {
                    let prev_end = attempts[i - 1].times.finished;
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
                    a.outcome,
                    a.times.submitted,
                    a.times.finished,
                    if a.badput() { " badput" } else { "" }
                );
                for p in a.phases() {
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
    w.write_all(out.as_bytes())
}

/// A name or `args` value of a [`ChromeEvent`], borrowed from the span
/// tree it describes; `Display` is the text the export escapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChromeText<'a> {
    /// The text itself.
    Str(&'a str),
    /// `attempt <n>`.
    Attempt(u32),
    /// `<workflow> @ <site>`, a process's display name.
    Process(&'a WorkflowTrace),
    /// A trace id, as its 16 hex digits.
    Trace(TraceId),
    /// An attempt's outcome.
    Outcome(&'a AttemptOutcome),
}

impl fmt::Display for ChromeText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChromeText::Str(s) => f.write_str(s),
            ChromeText::Attempt(n) => write!(f, "attempt {n}"),
            ChromeText::Process(t) => write!(f, "{} @ {}", t.name, t.site),
            ChromeText::Trace(id) => id.fmt(f),
            ChromeText::Outcome(outcome) => outcome.fmt(f),
        }
    }
}

/// One event of the Chrome Trace Event Format export. Exposed so tests
/// (and other consumers) can assert track structure without parsing
/// JSON.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChromeEvent<'a> {
    /// Event name.
    pub name: ChromeText<'a>,
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
    pub args: [Option<(&'static str, ChromeText<'a>)>; 3],
}

fn us(seconds: f64) -> i64 {
    // Round once at the boundary: simulated seconds → integer µs is
    // the exactness Perfetto expects, and rounding is deterministic.
    (seconds * 1e6).round() as i64
}

/// One job's complete events, in tree order, onto the end of `track`.
fn job_events<'a>(
    t: &'a WorkflowTrace,
    j: &JobTrace,
    pid: usize,
    track: &mut Vec<ChromeEvent<'a>>,
) {
    use ChromeText::{Attempt, Outcome, Str};
    let mut span = |name, cat, start: f64, end: f64, outcome: Option<&'a AttemptOutcome>| {
        track.push(ChromeEvent {
            name,
            cat,
            ph: 'X',
            ts: us(start),
            dur: us(end) - us(start),
            pid,
            tid: j.summary.job.idx() + 1,
            args: [outcome.map(|o| ("outcome", Outcome(o))), None, None],
        });
    };
    let mut prev_end = f64::INFINITY;
    for a in t.attempts_of(j) {
        let t = a.times;
        if t.submitted > prev_end {
            span(Str("backoff"), "overhead", prev_end, t.submitted, None);
        }
        prev_end = t.finished;
        let cat = if a.badput() { "badput" } else { "attempt" };
        let how = Some(&a.outcome);
        span(Attempt(a.attempt), cat, t.submitted, t.finished, how);
        for p in a.phases() {
            span(Str(p.label), "phase", p.start, p.end, None);
        }
    }
}

/// The one generator of the Chrome export: hands `emit` every event of
/// `traces` in export order — metadata first (process/thread naming,
/// in tree order), then complete events by `(pid, tid, ts,
/// longest-duration-first)`, so every track's timestamps are monotone
/// and parents precede children. That order is produced track by
/// track through one small reused buffer: `pid` follows the trace
/// index and the workflow span owns `tid` 0, so taking each trace's
/// tracks in `tid` order (jobs that share an id share a track, in tree
/// order) and stable-sorting each track by `(ts, longest first)` is
/// the stable sort of the whole run by the full key.
fn each_chrome_event<'a>(traces: &'a [WorkflowTrace], mut emit: impl FnMut(ChromeEvent<'a>)) {
    use ChromeText::{Process, Str, Trace};
    let meta = |name, pid, tid, label| ChromeEvent {
        name: Str(name),
        cat: "__metadata",
        ph: 'M',
        ts: 0,
        dur: 0,
        pid,
        tid,
        args: [Some(("name", label)), None, None],
    };
    for (idx, t) in traces.iter().enumerate() {
        emit(meta("process_name", idx + 1, 0, Process(t)));
        emit(meta("thread_name", idx + 1, 0, Str("workflow")));
        for j in &t.jobs {
            let tid = j.summary.job.idx() + 1;
            emit(meta("thread_name", idx + 1, tid, Str(&j.summary.name)));
        }
    }
    let (mut order, mut track) = (Vec::new(), Vec::new());
    for (idx, t) in traces.iter().enumerate() {
        emit(ChromeEvent {
            name: Str(&t.name),
            cat: "workflow",
            ph: 'X',
            ts: us(t.start),
            dur: us(t.end) - us(t.start),
            pid: idx + 1,
            tid: 0,
            args: [
                Some(("site", Str(&t.site))),
                t.trace.map(|id| ("trace", Trace(id))),
                Some(("succeeded", Str(if t.succeeded { "true" } else { "false" }))),
            ],
        });
        order.clear();
        order.extend(&t.jobs);
        order.sort_by_key(|j| j.summary.job);
        for jobs in order.chunk_by(|a, b| a.summary.job == b.summary.job) {
            for j in jobs {
                job_events(t, j, idx + 1, &mut track);
            }
            track.sort_by_key(|e| (e.ts, std::cmp::Reverse(e.dur)));
            track.drain(..).for_each(&mut emit);
        }
    }
}

/// Flattens span trees into the Chrome event list, in the order of the
/// export ([`render_chrome`] writes the same events without keeping
/// them).
pub fn chrome_events(traces: &[WorkflowTrace]) -> Vec<ChromeEvent<'_>> {
    let mut events = Vec::new();
    each_chrome_event(traces, |ev| events.push(ev));
    events
}

/// The crate's one JSON string escaper (the Chrome export here, the
/// lint report in [`crate::lint`]): writes `s` into `out` with `"`,
/// `\\` and control characters escaped, without the quotes.
pub(crate) fn write_json_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    JsonEscaper(out).write_str(s)
}

/// Escapes whatever is formatted into it; `write!(JsonEscaper(out),
/// "{x}")` is `write_json_str` of `x`'s `Display` text.
struct JsonEscaper<'w, W>(&'w mut W);

impl<W: fmt::Write> fmt::Write for JsonEscaper<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // All of them ASCII, so one is found at a character boundary.
        let special = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
        let mut rest = s;
        while let Some(at) = rest.bytes().position(special) {
            self.0.write_str(&rest[..at])?;
            match rest.as_bytes()[at] {
                b'"' => self.0.write_str("\\\"")?,
                b'\\' => self.0.write_str("\\\\")?,
                b'\n' => self.0.write_str("\\n")?,
                b'\r' => self.0.write_str("\\r")?,
                b'\t' => self.0.write_str("\\t")?,
                c => write!(self.0, "\\u{c:04x}")?,
            }
            rest = &rest[at + 1..];
        }
        self.0.write_str(rest)
    }
}

/// Renders span trees as Chrome Trace Event Format JSON — the
/// `trace.json` Perfetto and `chrome://tracing` load; [`write_chrome`]
/// into a `String`.
pub fn render_chrome(traces: &[WorkflowTrace]) -> String {
    gathered(|w| write_chrome(w, traces))
}

/// Writes span trees into `w` as Chrome Trace Event Format JSON. One
/// event per line (diff-friendly), `ts`/`dur` in simulated
/// microseconds, ordering per [`chrome_events`], each event written as
/// it is generated. Hand-rolled JSON: the repo's no-serde discipline.
///
/// # Errors
/// The first error `w` returns; nothing is written after it.
pub fn write_chrome(w: &mut (impl io::Write + ?Sized), traces: &[WorkflowTrace]) -> io::Result<()> {
    // Numbers go through `line`'s routines, and plain text straight
    // into the escaper: `core::fmt` formats only the composite texts.
    let escaped = |out: &mut String, text: &ChromeText<'_>| {
        let _ = match text {
            ChromeText::Str(s) => write_json_str(out, s),
            other => write!(JsonEscaper(out), "{other}"),
        };
    };
    let mut out = String::from("{\"traceEvents\":[");
    let mut sep = "\n";
    let mut result = Ok(());
    each_chrome_event(traces, |ev| {
        if result.is_err() {
            return;
        }
        out.push_str(sep);
        sep = ",\n";
        out.push_str("{\"name\":\"");
        escaped(&mut out, &ev.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(ev.cat);
        out.push_str("\",\"ph\":\"");
        out.push(ev.ph);
        out.push_str("\",\"pid\":");
        push_u64(&mut out, ev.pid as u64);
        out.push_str(",\"tid\":");
        push_u64(&mut out, ev.tid as u64);
        if ev.ph == 'X' {
            out.push_str(",\"ts\":");
            push_i64(&mut out, ev.ts);
            out.push_str(",\"dur\":");
            push_i64(&mut out, ev.dur);
        }
        for (i, (key, value)) in ev.args.iter().flatten().enumerate() {
            out.push_str(if i == 0 { ",\"args\":{\"" } else { ",\"" });
            out.push_str(key);
            out.push_str("\":\"");
            escaped(&mut out, value);
            out.push('"');
        }
        let any_args = ev.args.iter().any(Option::is_some);
        out.push_str(if any_args { "}}" } else { "}" });
        result = w.write_all(out.as_bytes());
        out.clear();
    });
    result?;
    out.push_str("\n]}\n");
    w.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::scripted::ScriptedBackend;
    use crate::engine::{Engine, EngineConfig, RetryPolicy};
    use crate::events::EventSink;
    use crate::planner::{ExecutableJob, ExecutableWorkflow, JobKind};
    use crate::workflow::JobId;

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
        assert_ne!(a, TraceId::new(11));
    }

    #[test]
    fn log_comment_round_trips_and_parsers_skip_it() {
        let id = TraceId::derive(7, 3);
        let run = retried_run();
        let mut bytes = Vec::new();
        let mut log = events::log::LogWriter::new(&mut bytes, Some(id)).unwrap();
        log.events(&run.events);
        assert!(log.error().is_none());
        let trace_of = |text: &str| events::log::read(text.as_bytes(), |_, _| {}).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(trace_of(&text), Ok(Some(id)));
        let parsed = events::log::parse(&text).expect("comment lines are skipped");
        assert_eq!(parsed, run.events);
        assert_eq!(trace_of(&events::log::write(&run.events)), Ok(None));
    }

    #[test]
    fn fold_builds_attempts_gaps_and_phases() {
        let run = retried_run();
        let t = fold(&run.events, Some(TraceId::new(1))).unwrap();
        assert_eq!(t.name, "mini_n2");
        assert_eq!(t.site, "test");
        assert!(t.succeeded);
        assert_eq!(t.jobs.len(), 2);
        let a = t.attempts_of(&t.jobs[0]);
        assert_eq!(a.len(), 2);
        assert!(a[0].badput());
        assert!(!a[1].badput());
        // The retried attempt has a backoff gap before it.
        assert!(a[1].times.submitted > a[0].times.finished);
        // Phases tile the successful attempt exactly.
        let ok = &a[1];
        let phases: Vec<_> = ok.phases().collect();
        assert_eq!(phases.first().unwrap().start, ok.times.submitted);
        assert_eq!(phases.last().unwrap().end, ok.times.finished);
        for w in phases.windows(2) {
            assert_eq!(w[0].end, w[1].start, "phases tile without holes");
        }
        // Install phase appears only where the install hint was.
        assert!(phases.iter().any(|p| p.label == "install"));
        let b_ok = &t.attempts_of(&t.jobs[1])[0];
        assert!(!b_ok.phases().any(|p| p.label == "install"));
        // The summary matches the breakdown fold for the same stream.
        let spans: Vec<_> = breakdown::job_spans(&run).collect();
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
        let mut out = String::new();
        write_json_str(&mut out, "a\"b\\c\nd\u{1}é").unwrap();
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001é");
    }
}
