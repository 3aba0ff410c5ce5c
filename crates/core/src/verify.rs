//! `pegasus verify`: the two-layer static analyzer behind the
//! provenance chain.
//!
//! Everything the paper reports — queue-wait, install, kickstart spans
//! — is folded out of event logs, and `pegasus serve` admits work that
//! later rounds execute unattended.  Neither consumer can afford to
//! *trust* its input, so this module proves two things before anything
//! downstream runs:
//!
//! **Layer 1 — temporal invariants (`E08xx`,
//! [`check_stream`]).**  A declarative invariant catalog
//! ([`CATALOG`]) over complete [`WorkflowEvent`] streams, in four
//! LTL-lite classes ([`TemporalClass`]): *always* (holds at every
//! event), *eventually-before-finish* (every obligation is discharged
//! by the trailer), *precedes* (B never appears without an earlier A),
//! and *never-after* (nothing follows the trailer).  The catalog
//! encodes exactly what the engine guarantees while emitting: every
//! submission reaches a terminal event, attempt numbers are dense and
//! strictly increasing, `install-started` precedes `started` on sites
//! with install overhead, concurrency never exceeds the site's slot
//! capacity (a time-ordered sweep over attempt intervals), retry gaps
//! respect the configured backoff/jitter envelope, nothing follows
//! `workflow-finished`, and the trailer's verdict matches the stream.
//!
//! Unlike the lenient event-stream *sanitizer* (`E07xx`,
//! [`crate::lint::check_events`]), which tolerates truncated logs so
//! rescue-from-log keeps working, the verifier enforces the
//! complete-log contract: a missing trailer is an error here.  Both
//! passes share one stream-ordering model,
//! [`WorkflowEvent::emission_time`], so they cannot drift.
//!
//! **Layer 2 — whole-plan dataflow (`E06xx`, [`check_plan`] /
//! [`check_ensemble_feasibility`]).**  Abstract interpretation over
//! the planned DAG: every consumed file must have a producer, a
//! stage-in, or a replica at the site; stage-outs must move real
//! products; stage-ins must feed someone; the peak resident file
//! footprint (computed over a topological schedule with
//! last-consumer-frees semantics) must fit the storage bound; and an
//! ensemble configuration must admit at least one member — a zero
//! quota is a deadlock, not a throttle.
//!
//! [`ShadowVerifier`] is the flag-gated live form: an
//! [`EventSink`] handed to `Engine::run` that replays the full
//! Layer-1 catalog over the stream the engine just emitted, so
//! `pegasus run --verify` asserts the invariants on every live run.

use crate::catalog::ReplicaCatalog;
use crate::engine::{FaultReason, JobTimes, RetryPolicy};
use crate::ensemble::EnsembleConfig;
use crate::error::Span;
use crate::events::{EventSink, WorkflowEvent};
use crate::lint::Diagnostic;
use crate::planner::{ExecutableWorkflow, JobKind};
use crate::trace::TraceId;
use crate::workflow::{AbstractWorkflow, JobId};
use std::collections::{BTreeMap, BTreeSet};

/// The LTL-lite shape of one invariant — the four temporal operators
/// the catalog needs (full LTL would be overkill for an append-only,
/// finite stream that always ends in a trailer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalClass {
    /// Holds at every event of the stream.
    Always,
    /// Every obligation opened mid-stream is discharged before (or
    /// at) the `workflow-finished` trailer.
    EventuallyBeforeFinish,
    /// An event kind never appears without its prerequisite earlier
    /// in the stream.
    Precedes,
    /// Nothing of the given kind appears after a closing event.
    NeverAfter,
}

/// One entry of the built-in invariant catalog: the diagnostic code it
/// reports under, its temporal class, and a one-line statement.
#[derive(Debug, Clone, Copy)]
pub struct InvariantSpec {
    /// The `E08xx` code this invariant reports under (registered in
    /// [`crate::lint::RULES`]).
    pub code: &'static str,
    /// Which temporal operator the invariant instantiates.
    pub class: TemporalClass,
    /// One-line statement of the invariant.
    pub summary: &'static str,
}

/// The built-in temporal invariant catalog, one entry per `E08xx`
/// rule.  [`check_stream`] implements exactly these; the registry
/// test pins the two lists to each other.
pub const CATALOG: &[InvariantSpec] = &[
    InvariantSpec {
        code: "E0801",
        class: TemporalClass::EventuallyBeforeFinish,
        summary: "on a succeeded run, every submitted attempt reaches a terminal event \
                  and every scheduled retry is resubmitted before workflow-finished",
    },
    InvariantSpec {
        code: "E0802",
        class: TemporalClass::Always,
        summary: "per job, submitted attempt numbers are dense and strictly increasing \
                  (0, 1, 2, ...)",
    },
    InvariantSpec {
        code: "E0803",
        class: TemporalClass::Precedes,
        summary: "per attempt, submitted precedes install-started precedes started \
                  precedes the terminal event, each at most once, and install-started \
                  appears exactly when the attempt had an install phase",
    },
    InvariantSpec {
        code: "E0804",
        class: TemporalClass::Always,
        summary: "at no instant do more attempts hold slots than the site's capacity \
                  (swept over [started, finished) intervals in time order)",
    },
    InvariantSpec {
        code: "E0805",
        class: TemporalClass::Precedes,
        summary: "every retry-scheduled follows a failed attempt at its finish time, \
                  every attempt > 0 follows its retry-scheduled, and the resubmission \
                  gap and backoff respect the configured backoff/jitter envelope",
    },
    InvariantSpec {
        code: "E0806",
        class: TemporalClass::NeverAfter,
        summary: "exactly one workflow-finished closes the stream, nothing follows it, \
                  and its verdict, wall time, and time bounds agree with the stream",
    },
    InvariantSpec {
        code: "E0807",
        class: TemporalClass::Precedes,
        summary: "the workflow-started header comes first, followed by a dense, \
                  complete job manifest; every event references a declared job",
    },
    InvariantSpec {
        code: "E0808",
        class: TemporalClass::Always,
        summary: "emission-ordered events are nondecreasing in time, attempt \
                  timestamps are internally ordered and agree with their phase \
                  events, and failure reasons match their detail strings",
    },
    InvariantSpec {
        code: "E0809",
        class: TemporalClass::Always,
        summary: "the event log's trace-id header matches the journaled submission",
    },
];

/// Options for [`check_stream`]: the context the stream alone does not
/// carry.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// The execution site's slot capacity; enables the `E0804`
    /// concurrency sweep when known.
    pub slot_capacity: Option<usize>,
    /// The retry policy the run was configured with; enables the
    /// `E0805` backoff/jitter envelope check when known.  The gap
    /// lower bound (resubmission no earlier than failure + backoff)
    /// is checked unconditionally.
    pub retry: Option<RetryPolicy>,
}

/// Tolerance for the inequality-shaped float checks (`>=` bounds that
/// the engine establishes by construction; equality-shaped checks are
/// exact because both sides are the same bits).
const TOL: f64 = 1e-9;

#[derive(Default)]
struct AttemptState {
    submitted: Option<(usize, f64)>,
    install: Option<(usize, f64)>,
    started: Option<(usize, f64)>,
    terminal: Option<usize>,
}

#[derive(Default)]
struct JobVState {
    attempts: BTreeMap<u32, AttemptState>,
    next_attempt: u32,
    skipped: bool,
    done: bool,
    /// next_attempt -> (line, time, backoff) of its retry-scheduled.
    retries: BTreeMap<u32, (usize, f64, f64)>,
    /// attempt -> finish time of its failed terminal.
    failures: BTreeMap<u32, f64>,
}

fn at(line: usize) -> Span {
    if line == 0 {
        Span::none()
    } else {
        Span::line(line)
    }
}

fn times_ordered(t: &JobTimes) -> bool {
    t.submitted <= t.started && t.started <= t.install_done && t.install_done <= t.finished
}

/// Layer 1: verifies one complete event stream against the full
/// temporal invariant catalog ([`CATALOG`]).
///
/// `events` pairs each event with its one-based line number in `file`
/// (from [`crate::events::log::parse_lines`]); streams built in memory
/// pass line 0.  Returns every violation as an `E08xx`
/// [`Diagnostic`]; an empty result means the stream is a plausible
/// engine emission under `opts`.
pub fn check_stream(
    events: &[(usize, WorkflowEvent)],
    file: &str,
    opts: &VerifyOptions,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if events.is_empty() {
        return vec![Diagnostic::new(
            "E0807",
            file,
            Span::none(),
            "stream contains no events (expected a workflow-started header)",
        )];
    }

    let mut header: Option<(usize, f64, usize)> = None; // line, time, jobs
    let mut decl_next = 0usize;
    let mut manifest_open = true;
    let mut finished: Option<(usize, f64, bool, f64)> = None; // line, time, ok, wall
    let mut after_finish_reported = false;
    let mut out_of_range_reported: BTreeSet<usize> = BTreeSet::new();
    let mut jobs: BTreeMap<usize, JobVState> = BTreeMap::new();
    let mut last_emitted = f64::NEG_INFINITY;
    // (time, delta, line) endpoints for the E0804 concurrency sweep.
    let mut intervals: Vec<(f64, i32, usize)> = Vec::new();

    for (idx, (line, ev)) in events.iter().enumerate() {
        let line = *line;

        if let Some(t) = ev.emission_time() {
            if t < last_emitted {
                diags.push(Diagnostic::new(
                    "E0808",
                    file,
                    at(line),
                    format!("emission-ordered event goes backwards in time: {t} after {last_emitted}"),
                ));
            }
            last_emitted = last_emitted.max(t);
        }
        if let Some((fline, _, _, _)) = finished {
            if !after_finish_reported {
                after_finish_reported = true;
                diags.push(
                    Diagnostic::new(
                        "E0806",
                        file,
                        at(line),
                        format!("event after workflow-finished (line {fline}): the run was closed"),
                    )
                    .with_help("a finished workflow emits nothing further"),
                );
            }
        }

        match ev {
            WorkflowEvent::WorkflowStarted { jobs: n, time, .. } => {
                if idx != 0 || header.is_some() {
                    diags.push(Diagnostic::new(
                        "E0807",
                        file,
                        at(line),
                        if header.is_some() {
                            "second workflow-started in one stream".to_string()
                        } else {
                            format!(
                                "workflow-started is event {} of the stream, not the first",
                                idx + 1
                            )
                        },
                    ));
                }
                if header.is_none() {
                    header = Some((line, *time, *n));
                }
                continue;
            }
            WorkflowEvent::JobDeclared { job, .. } => {
                if !manifest_open {
                    diags.push(Diagnostic::new(
                        "E0807",
                        file,
                        at(line),
                        format!("job {job} declared after lifecycle events began"),
                    ));
                } else if job.idx() != decl_next {
                    diags.push(Diagnostic::new(
                        "E0807",
                        file,
                        at(line),
                        format!(
                            "job declarations are not dense ascending: got id {job}, \
                             expected {decl_next}"
                        ),
                    ));
                }
                decl_next = decl_next.max(job.idx() + 1);
                continue;
            }
            WorkflowEvent::WorkflowFinished {
                succeeded,
                wall_time,
                time,
            } => {
                if finished.is_some() {
                    diags.push(Diagnostic::new(
                        "E0806",
                        file,
                        at(line),
                        "second workflow-finished in one stream",
                    ));
                } else {
                    finished = Some((line, *time, *succeeded, *wall_time));
                }
                continue;
            }
            _ => {}
        }

        // Everything below is a per-job lifecycle event.
        manifest_open = false;
        let job = match ev {
            WorkflowEvent::Skipped { job, .. }
            | WorkflowEvent::Submitted { job, .. }
            | WorkflowEvent::InstallStarted { job, .. }
            | WorkflowEvent::Started { job, .. }
            | WorkflowEvent::RetryScheduled { job, .. }
            | WorkflowEvent::Completed { job, .. }
            | WorkflowEvent::Failed { job, .. }
            | WorkflowEvent::TimedOut { job, .. } => *job,
            _ => unreachable!("framing events handled above"),
        };
        if job.idx() >= decl_next && out_of_range_reported.insert(job.idx()) {
            diags.push(Diagnostic::new(
                "E0807",
                file,
                at(line),
                format!("event references job id {job}, which the manifest never declared"),
            ));
        }
        let st = jobs.entry(job.idx()).or_default();

        match ev {
            WorkflowEvent::Skipped { time, .. } => {
                if st.skipped {
                    diags.push(Diagnostic::new(
                        "E0803",
                        file,
                        at(line),
                        format!("job {job} skipped twice"),
                    ));
                }
                if !st.attempts.is_empty() {
                    diags.push(Diagnostic::new(
                        "E0803",
                        file,
                        at(line),
                        format!("job {job} skipped after being submitted"),
                    ));
                }
                if let Some((_, start, _)) = header {
                    if *time != start {
                        diags.push(Diagnostic::new(
                            "E0808",
                            file,
                            at(line),
                            format!(
                                "job {job} skipped at {time}, but rescue skips happen at \
                                 the workflow start ({start})"
                            ),
                        ));
                    }
                }
                st.skipped = true;
                st.done = true;
            }
            WorkflowEvent::Submitted { attempt, time, .. } => {
                if st.skipped {
                    diags.push(Diagnostic::new(
                        "E0803",
                        file,
                        at(line),
                        format!("job {job} submitted after being skipped"),
                    ));
                }
                if *attempt != st.next_attempt {
                    diags.push(Diagnostic::new(
                        "E0802",
                        file,
                        at(line),
                        format!(
                            "job {job} submitted at attempt {attempt}, expected {} \
                             (attempts must be dense and strictly increasing)",
                            st.next_attempt
                        ),
                    ));
                }
                st.next_attempt = st.next_attempt.max(attempt + 1);
                if *attempt > 0 && !st.retries.contains_key(attempt) {
                    diags.push(Diagnostic::new(
                        "E0805",
                        file,
                        at(line),
                        format!(
                            "job {job} resubmitted at attempt {attempt} with no prior \
                             retry-scheduled next-attempt={attempt}"
                        ),
                    ));
                }
                let a = st.attempts.entry(*attempt).or_default();
                if a.submitted.is_none() {
                    a.submitted = Some((line, *time));
                }
            }
            WorkflowEvent::InstallStarted { attempt, time, .. } => {
                let a = st.attempts.entry(*attempt).or_default();
                if a.submitted.is_none() {
                    diags.push(Diagnostic::new(
                        "E0803",
                        file,
                        at(line),
                        format!("job {job} starts installing at attempt {attempt} before being submitted"),
                    ));
                }
                if a.started.is_some() {
                    diags.push(Diagnostic::new(
                        "E0803",
                        file,
                        at(line),
                        format!("job {job} attempt {attempt}: install-started after started"),
                    ));
                }
                if a.install.is_some() {
                    diags.push(Diagnostic::new(
                        "E0803",
                        file,
                        at(line),
                        format!("job {job} attempt {attempt} has two install-started events"),
                    ));
                } else {
                    a.install = Some((line, *time));
                }
            }
            WorkflowEvent::Started { attempt, time, .. } => {
                let a = st.attempts.entry(*attempt).or_default();
                if a.submitted.is_none() {
                    diags.push(Diagnostic::new(
                        "E0803",
                        file,
                        at(line),
                        format!("job {job} started at attempt {attempt} before being submitted"),
                    ));
                }
                if a.started.is_some() {
                    diags.push(Diagnostic::new(
                        "E0803",
                        file,
                        at(line),
                        format!("job {job} attempt {attempt} has two started events"),
                    ));
                } else {
                    a.started = Some((line, *time));
                }
            }
            WorkflowEvent::Completed { attempt, times, .. }
            | WorkflowEvent::Failed { attempt, times, .. }
            | WorkflowEvent::TimedOut { attempt, times, .. } => {
                check_terminal(&mut diags, file, line, ev, job, *attempt, times, st, opts);
                intervals.push((times.started, 1, line));
                intervals.push((times.finished, -1, line));
            }
            WorkflowEvent::RetryScheduled {
                next_attempt,
                backoff,
                reason,
                detail,
                time,
                ..
            } => {
                if FaultReason::classify(detail) != *reason {
                    diags.push(Diagnostic::new(
                        "E0808",
                        file,
                        at(line),
                        format!(
                            "job {job} retry reason {:?} does not match its detail {detail:?}",
                            reason
                        ),
                    ));
                }
                if !(backoff.is_finite() && *backoff >= 0.0) {
                    diags.push(Diagnostic::new(
                        "E0805",
                        file,
                        at(line),
                        format!("job {job} retry backoff {backoff} is not a finite nonnegative delay"),
                    ));
                }
                if *next_attempt == 0 {
                    diags.push(Diagnostic::new(
                        "E0805",
                        file,
                        at(line),
                        format!("job {job} schedules a retry to attempt 0, which is never a retry"),
                    ));
                } else {
                    match st.failures.get(&(next_attempt - 1)) {
                        None => diags.push(Diagnostic::new(
                            "E0805",
                            file,
                            at(line),
                            format!(
                                "job {job} schedules retry to attempt {next_attempt} with no \
                                 failed attempt {}",
                                next_attempt - 1
                            ),
                        )),
                        Some(fin) => {
                            if *time != *fin {
                                diags.push(Diagnostic::new(
                                    "E0805",
                                    file,
                                    at(line),
                                    format!(
                                        "job {job} retry scheduled at {time}, but the failed \
                                         attempt finished at {fin}"
                                    ),
                                ));
                            }
                        }
                    }
                }
                if let Some(policy) = &opts.retry {
                    check_envelope(&mut diags, file, line, job.idx(), *next_attempt, *backoff, policy);
                }
                if st.retries.contains_key(next_attempt) {
                    diags.push(Diagnostic::new(
                        "E0805",
                        file,
                        at(line),
                        format!("job {job} has two retry-scheduled events for attempt {next_attempt}"),
                    ));
                } else {
                    st.retries.insert(*next_attempt, (line, *time, *backoff));
                }
            }
            _ => unreachable!("handled above"),
        }
    }

    let Some((_, start, declared)) = header else {
        diags.push(Diagnostic::new(
            "E0807",
            file,
            at(events[0].0),
            "stream has no workflow-started header",
        ));
        return diags;
    };
    if decl_next != declared {
        diags.push(Diagnostic::new(
            "E0807",
            file,
            at(events[0].0),
            format!("manifest declares {decl_next} jobs, but workflow-started says {declared}"),
        ));
    }

    match finished {
        None => {
            let last = events.last().expect("nonempty").0;
            diags.push(
                Diagnostic::new(
                    "E0806",
                    file,
                    at(last),
                    "stream has no workflow-finished: verify requires complete logs",
                )
                .with_help(
                    "for crashed or still-running runs use `pegasus lint --events`, \
                     which accepts truncated streams",
                ),
            );
        }
        Some((fline, ftime, succeeded, wall)) => {
            if wall != ftime - start {
                diags.push(Diagnostic::new(
                    "E0806",
                    file,
                    at(fline),
                    format!(
                        "workflow-finished wall-time {wall} contradicts its bounds \
                         ({ftime} - {start} = {})",
                        ftime - start
                    ),
                ));
            }
            let all_done =
                (0..declared).all(|j| jobs.get(&j).is_some_and(|s| s.done));
            if succeeded != all_done {
                diags.push(Diagnostic::new(
                    "E0806",
                    file,
                    at(fline),
                    if succeeded {
                        "workflow-finished claims success, but not every job completed"
                            .to_string()
                    } else {
                        "workflow-finished claims failure, but every job completed".to_string()
                    },
                ));
            }
            // Time bounds: every emission lies inside [start, finish].
            for (line, ev) in events {
                if let Some(t) = ev.emission_time() {
                    if t < start || t > ftime {
                        diags.push(Diagnostic::new(
                            "E0806",
                            file,
                            at(*line),
                            format!("event at time {t} lies outside the run's [{start}, {ftime}] bounds"),
                        ));
                    }
                }
            }
            if succeeded {
                for (j, st) in &jobs {
                    for (attempt, a) in &st.attempts {
                        if let (Some((sline, _)), None) = (a.submitted, a.terminal) {
                            diags.push(Diagnostic::new(
                                "E0801",
                                file,
                                at(sline),
                                format!(
                                    "job {j} attempt {attempt} was submitted but never \
                                     reached a terminal event on a succeeded run"
                                ),
                            ));
                        }
                    }
                    for (next, (rline, _, _)) in &st.retries {
                        if st.attempts.get(next).is_none_or(|a| a.submitted.is_none()) {
                            diags.push(Diagnostic::new(
                                "E0801",
                                file,
                                at(*rline),
                                format!(
                                    "job {j} scheduled a retry to attempt {next} that was \
                                     never resubmitted on a succeeded run"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    if let Some(cap) = opts.slot_capacity {
        sweep_capacity(&mut diags, file, &mut intervals, cap);
    }

    diags
}

/// Terminal-event checks: phase precedence, timestamp agreement with
/// the retrospective phase events, reason classification, and the
/// retry gap lower bound.
#[allow(clippy::too_many_arguments)] // a private fold step over loop state
fn check_terminal(
    diags: &mut Vec<Diagnostic>,
    file: &str,
    line: usize,
    ev: &WorkflowEvent,
    job: JobId,
    attempt: u32,
    times: &JobTimes,
    st: &mut JobVState,
    _opts: &VerifyOptions,
) {
    let a = st.attempts.entry(attempt).or_default();
    if a.submitted.is_none() {
        diags.push(Diagnostic::new(
            "E0803",
            file,
            at(line),
            format!("job {job} reached a terminal event at attempt {attempt} before being submitted"),
        ));
    }
    if a.terminal.is_some() {
        diags.push(Diagnostic::new(
            "E0803",
            file,
            at(line),
            format!("job {job} has two terminal events for attempt {attempt}"),
        ));
    }
    a.terminal = Some(line);
    if !times_ordered(times) {
        diags.push(Diagnostic::new(
            "E0808",
            file,
            at(line),
            format!(
                "job {job} attempt {attempt} has unordered times \
                 (want submitted <= started <= install-done <= finished)"
            ),
        ));
    }
    // The phase events are synthesized from this terminal's own
    // timestamps, so the agreement is exact, bit for bit.
    match a.started {
        None => diags.push(Diagnostic::new(
            "E0803",
            file,
            at(line),
            format!("job {job} attempt {attempt} terminated without a started event"),
        )),
        Some((_, t)) if t != times.install_done => diags.push(Diagnostic::new(
            "E0808",
            file,
            at(line),
            format!(
                "job {job} attempt {attempt}: started was emitted at {t}, but the \
                 terminal records install-done={}",
                times.install_done
            ),
        )),
        Some(_) => {}
    }
    let has_install = times.install_done > times.started;
    match (has_install, a.install) {
        (true, None) => diags.push(Diagnostic::new(
            "E0803",
            file,
            at(line),
            format!(
                "job {job} attempt {attempt} had an install phase but no install-started \
                 event (install-started must precede started on sites with install overhead)"
            ),
        )),
        (false, Some((iline, _))) => diags.push(Diagnostic::new(
            "E0803",
            file,
            at(iline),
            format!(
                "job {job} attempt {attempt} emitted install-started, but the terminal \
                 records no install phase"
            ),
        )),
        (true, Some((_, t))) if t != times.started => diags.push(Diagnostic::new(
            "E0808",
            file,
            at(line),
            format!(
                "job {job} attempt {attempt}: install-started was emitted at {t}, but \
                 the terminal records started={}",
                times.started
            ),
        )),
        _ => {}
    }
    // The backend acquires work no earlier than it was handed it.
    if let Some((_, sub)) = a.submitted {
        if times.submitted + TOL < sub {
            diags.push(Diagnostic::new(
                "E0808",
                file,
                at(line),
                format!(
                    "job {job} attempt {attempt} records submitted={}, before its \
                     submitted event at {sub}",
                    times.submitted
                ),
            ));
        }
    }
    // Retry gap lower bound: the resubmission can be held by the
    // throttle but never runs before failure time + backoff.
    if let Some((_, rtime, backoff)) = st.retries.get(&attempt) {
        if times.submitted + TOL < rtime + backoff {
            diags.push(Diagnostic::new(
                "E0805",
                file,
                at(line),
                format!(
                    "job {job} attempt {attempt} ran at submitted={}, before its \
                     scheduled earliest time {} (retry at {rtime} + backoff {backoff})",
                    times.submitted,
                    rtime + backoff
                ),
            ));
        }
    }
    match ev {
        WorkflowEvent::Completed { .. } => st.done = true,
        WorkflowEvent::Failed { reason, detail, .. } => {
            if FaultReason::classify(detail) != *reason {
                diags.push(Diagnostic::new(
                    "E0808",
                    file,
                    at(line),
                    format!(
                        "job {job} failure reason {:?} does not match its detail {detail:?}",
                        reason
                    ),
                ));
            }
            st.failures.insert(attempt, times.finished);
        }
        WorkflowEvent::TimedOut { detail, .. } => {
            if FaultReason::classify(detail) != FaultReason::Timeout {
                diags.push(Diagnostic::new(
                    "E0808",
                    file,
                    at(line),
                    format!("job {job} timed out with non-timeout detail {detail:?}"),
                ));
            }
            st.failures.insert(attempt, times.finished);
        }
        _ => unreachable!("terminal events only"),
    }
}

/// The `E0805` backoff/jitter envelope: with the policy known, the
/// emitted backoff must lie inside `capped * [1 - jitter, 1 + jitter]`
/// where `capped = min(base * factor^(k-1), max_backoff)`.
fn check_envelope(
    diags: &mut Vec<Diagnostic>,
    file: &str,
    line: usize,
    job: usize,
    next_attempt: u32,
    backoff: f64,
    policy: &RetryPolicy,
) {
    if policy.base_backoff <= 0.0 {
        if backoff != 0.0 {
            diags.push(Diagnostic::new(
                "E0805",
                file,
                at(line),
                format!(
                    "job {job} retry backoff {backoff} under a policy with no backoff \
                     configured"
                ),
            ));
        }
        return;
    }
    let exponent = next_attempt.saturating_sub(1).min(1000) as i32;
    let capped = (policy.base_backoff * policy.backoff_factor.powi(exponent)).min(policy.max_backoff);
    let eps = TOL * capped.max(1.0);
    let lo = capped * (1.0 - policy.jitter) - eps;
    let hi = capped * (1.0 + policy.jitter) + eps;
    if !(backoff >= lo && backoff <= hi) {
        diags.push(Diagnostic::new(
            "E0805",
            file,
            at(line),
            format!(
                "job {job} retry backoff {backoff} outside the configured envelope \
                 [{lo}, {hi}] for attempt {next_attempt}"
            ),
        ));
    }
}

/// The `E0804` concurrency sweep: a time-ordered fold over the
/// per-attempt `[started, finished)` intervals, freeing before
/// acquiring at equal instants (the simulator hands a freed slot to
/// the next attempt at the same clock).
fn sweep_capacity(
    diags: &mut Vec<Diagnostic>,
    file: &str,
    intervals: &mut [(f64, i32, usize)],
    cap: usize,
) {
    if cap == 0 {
        return;
    }
    intervals.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let mut running = 0i64;
    for (time, delta, line) in intervals.iter() {
        running += i64::from(*delta);
        if running > cap as i64 {
            diags.push(Diagnostic::new(
                "E0804",
                file,
                at(*line),
                format!(
                    "{running} attempts hold slots at time {time}, exceeding the site's \
                     capacity of {cap}"
                ),
            ));
            return; // one violation pins the stream; avoid cascades
        }
    }
}

/// Options for [`check_plan`]'s resource checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataflowOptions {
    /// Peak resident file footprint the site can hold; enables the
    /// `W0604` storage sweep when known.
    pub storage_limit_bytes: Option<u64>,
}

/// Layer 2: whole-plan dataflow verification of a planned workflow.
///
/// Interprets the abstract workflow's file dataflow against the
/// executable plan: every consumed file must have a producer job, a
/// stage-in in the plan, or a replica at `site` (`E0601`); stage-outs
/// must move a produced file (`W0602`); stage-ins must feed a consumer
/// (`W0603`); and the peak resident footprint over a topological
/// schedule must fit `opts.storage_limit_bytes` (`W0604`).
///
/// Plans produced by [`crate::planner::plan`] with staging enabled are
/// clean by construction — this pass exists for hand-built, merged, or
/// corrupted plans, and as the serve admission gate.
pub fn check_plan(
    abstract_wf: &AbstractWorkflow,
    exec: &ExecutableWorkflow,
    replicas: &ReplicaCatalog,
    site: &str,
    file: &str,
    opts: &DataflowOptions,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    let mut produced: BTreeMap<&str, &str> = BTreeMap::new();
    let mut consumed: BTreeSet<&str> = BTreeSet::new();
    for j in &abstract_wf.jobs {
        for f in &j.outputs {
            produced.entry(&f.name).or_insert(&j.id);
        }
        for f in &j.inputs {
            consumed.insert(&f.name);
        }
    }
    let mut staged_in: BTreeMap<&str, &str> = BTreeMap::new();
    let mut staged_out: Vec<(&str, &str)> = Vec::new();
    for j in &exec.jobs {
        match j.kind {
            JobKind::StageIn => {
                if let Some(f) = j.args.first() {
                    staged_in.insert(f, &j.name);
                }
            }
            JobKind::StageOut => {
                if let Some(f) = j.args.first() {
                    staged_out.push((f, &j.name));
                }
            }
            _ => {}
        }
    }

    let mut flagged: BTreeSet<&str> = BTreeSet::new();
    for j in &abstract_wf.jobs {
        for f in &j.inputs {
            let name = f.name.as_str();
            if !produced.contains_key(name)
                && !staged_in.contains_key(name)
                && !replicas.has_replica(name, site)
                && flagged.insert(name)
            {
                diags.push(
                    Diagnostic::new(
                        "E0601",
                        file,
                        Span::none(),
                        format!(
                            "file \"{name}\" consumed by job \"{}\" has no producer, no \
                             stage-in, and no replica at site \"{site}\"",
                            j.id
                        ),
                    )
                    .with_help("add a stage-in job or register the file in the replica catalog"),
                );
            }
        }
    }
    for (f, job) in &staged_out {
        if !produced.contains_key(f) {
            diags.push(Diagnostic::new(
                "W0602",
                file,
                Span::none(),
                format!("stage-out job \"{job}\" transfers \"{f}\", which no job produces"),
            ));
        }
    }
    for (f, job) in &staged_in {
        if !consumed.contains(f) {
            diags.push(Diagnostic::new(
                "W0603",
                file,
                Span::none(),
                format!("stage-in job \"{job}\" transfers \"{f}\", which no job consumes"),
            ));
        }
    }

    if let Some(limit) = opts.storage_limit_bytes {
        if let Some((peak, at_job)) = peak_footprint(abstract_wf) {
            if peak > limit {
                diags.push(
                    Diagnostic::new(
                        "W0604",
                        file,
                        Span::none(),
                        format!(
                            "peak resident file footprint is {peak} bytes (at job \
                             \"{at_job}\"), exceeding the {limit}-byte storage bound"
                        ),
                    )
                    .with_help("add cleanup jobs or split the workflow"),
                );
            }
        }
    }

    diags
}

/// Peak resident footprint over a sequential topological schedule:
/// external inputs are resident from the start, outputs become
/// resident when produced, and a file is freed after its last
/// consumer runs (finals stay to the end).  Returns the peak and the
/// job at which it occurs; `None` when the workflow is cyclic (the
/// `E0103` lint owns that).
fn peak_footprint(wf: &AbstractWorkflow) -> Option<(u64, String)> {
    let order = wf.topological_order().ok()?;
    let mut pos = vec![0usize; wf.jobs.len()];
    for (i, j) in order.iter().enumerate() {
        pos[j.idx()] = i;
    }
    let mut sizes: BTreeMap<&str, u64> = BTreeMap::new();
    for j in &wf.jobs {
        for f in j.inputs.iter().chain(&j.outputs) {
            sizes.entry(&f.name).or_insert(f.size_bytes);
        }
    }
    let produced: BTreeSet<&str> = wf
        .jobs
        .iter()
        .flat_map(|j| j.outputs.iter().map(|f| f.name.as_str()))
        .collect();
    // Schedule position of each file's last consumer; files consumed
    // by nobody (final outputs) never appear and stay resident.
    let mut frees: Vec<Vec<&str>> = vec![Vec::new(); order.len()];
    {
        let mut last_use: BTreeMap<&str, usize> = BTreeMap::new();
        for (ji, j) in wf.jobs.iter().enumerate() {
            for f in &j.inputs {
                let e = last_use.entry(&f.name).or_insert(0);
                *e = (*e).max(pos[ji]);
            }
        }
        for (name, i) in last_use {
            frees[i].push(name);
        }
    }

    // External inputs are resident from the start (deduped by name).
    let mut resident: u64 = wf
        .jobs
        .iter()
        .flat_map(|j| j.inputs.iter())
        .filter(|f| !produced.contains(f.name.as_str()))
        .map(|f| (f.name.as_str(), f.size_bytes))
        .collect::<BTreeMap<_, _>>()
        .values()
        .sum();
    let mut peak = resident;
    let mut peak_at = String::from("<inputs>");
    for (i, jid) in order.iter().enumerate() {
        let j = &wf.jobs[jid.idx()];
        for f in &j.outputs {
            resident += sizes.get(f.name.as_str()).copied().unwrap_or(0);
        }
        if resident > peak {
            peak = resident;
            peak_at = j.id.clone();
        }
        for name in &frees[i] {
            resident = resident.saturating_sub(sizes.get(name).copied().unwrap_or(0));
        }
    }
    Some((peak, peak_at))
}

/// Layer 2: ensemble quota feasibility.
///
/// `members` pairs each member workflow's name with its maximum width
/// (parallelism).  A zero global slot budget, a zero per-tenant
/// in-flight quota, or a zero queued-submission quota admits nothing —
/// the ensemble deadlocks rather than throttles (`E0605`); a tenant
/// quota or slot budget below a member's width serializes that member
/// (`W0606`).
pub fn check_ensemble_feasibility(
    members: &[(String, usize)],
    config: &EnsembleConfig,
    file: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if config.slot_budget == Some(0) {
        diags.push(
            Diagnostic::new(
                "E0605",
                file,
                Span::none(),
                "global slot budget is 0: no member can ever submit a job",
            )
            .with_help("set --slots to at least 1, or omit it to use the site capacity"),
        );
    }
    if config.tenant_slots == Some(0) {
        diags.push(Diagnostic::new(
            "E0605",
            file,
            Span::none(),
            "per-tenant in-flight quota is 0: no tenant can ever run a job",
        ));
    }
    if config.tenant_active == Some(0) {
        diags.push(Diagnostic::new(
            "E0605",
            file,
            Span::none(),
            "per-tenant queued-submission quota is 0: every submission is rejected",
        ));
    }
    let width_caps = [
        ("tenant quota", config.tenant_slots),
        ("slot budget", config.slot_budget),
    ];
    for (what, cap) in width_caps {
        let Some(cap) = cap else { continue };
        if cap == 0 {
            continue; // already an E0605 above
        }
        for (name, width) in members {
            if cap < *width {
                diags.push(Diagnostic::new(
                    "W0606",
                    file,
                    Span::none(),
                    format!(
                        "{what} {cap} is below member \"{name}\"'s width {width}: \
                         the member serializes instead of running at full parallelism"
                    ),
                ));
            }
        }
    }
    diags
}

/// Layer 1, `E0809`: the event log's trace-id header against the
/// journaled submission identity.  `None` means the pair agrees.
pub fn check_trace_match(
    found: Option<TraceId>,
    expected: TraceId,
    file: &str,
) -> Option<Diagnostic> {
    match found {
        Some(id) if id == expected => None,
        Some(id) => Some(Diagnostic::new(
            "E0809",
            file,
            Span::none(),
            format!("event log carries trace id {id}, but the journal records {expected}"),
        )),
        None => Some(
            Diagnostic::new(
                "E0809",
                file,
                Span::none(),
                format!("event log has no trace header; the journal records {expected}"),
            )
            .with_help("member logs written by `pegasus serve` always carry `# trace id=...`"),
        ),
    }
}

/// The flag-gated live shadow monitor: an [`EventSink`] fed every
/// event the engine emits (hand it to `Engine::run`), which runs the
/// full Layer-1 catalog over the finished stream.
///
/// The sink records the stream as it arrives and verifies it when
/// [`ShadowVerifier::finish`] is called (or eagerly if events keep
/// arriving after a trailer — the one invariant worth asserting
/// mid-run).  Line numbers are absent on live streams, so diagnostics
/// carry the run label as their file and no span.
pub struct ShadowVerifier {
    label: String,
    opts: VerifyOptions,
    events: Vec<(usize, WorkflowEvent)>,
}

impl ShadowVerifier {
    /// A shadow verifier labelling its diagnostics with `label` (shown
    /// where a file name would be).
    pub fn new(label: impl Into<String>, opts: VerifyOptions) -> Self {
        ShadowVerifier {
            label: label.into(),
            opts,
            events: Vec::new(),
        }
    }

    /// Runs the full invariant catalog over everything observed so
    /// far and returns the violations.
    pub fn finish(&self) -> Vec<Diagnostic> {
        check_stream(&self.events, &self.label, &self.opts)
    }
}

impl EventSink for ShadowVerifier {
    fn event(&mut self, ev: &WorkflowEvent) {
        self.events.push((0, ev.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::paper_catalogs;
    use crate::engine::scripted::ScriptedBackend;
    use crate::engine::{Engine, EngineConfig, NoopMonitor, RetryPolicy};
    use crate::events::log;
    use crate::lint::{rule, RULES};
    use crate::planner::{plan, PlannerConfig};
    use crate::workflow::{Job, LogicalFile};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn verify_text(text: &str) -> Vec<Diagnostic> {
        check_stream(
            &log::parse_lines(text).unwrap(),
            "run.events",
            &VerifyOptions::default(),
        )
    }

    const CLEAN: &str = "\
workflow-started time=0 jobs=2 site=osg name=w
job id=0 kind=compute transformation=split name=a
job id=1 kind=compute transformation=split name=b
submitted time=0 job=0 attempt=0
submitted time=0 job=1 attempt=0
started time=2 job=1 attempt=0
completed job=1 attempt=0 submitted=0 started=2 install-done=2 finished=4
started time=1 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=1 install-done=1 finished=7
workflow-finished time=7 wall-time=7 succeeded=true
";

    #[test]
    fn catalog_matches_the_rule_registry() {
        for spec in CATALOG {
            let r = rule(spec.code).expect("catalog codes are registered");
            assert!(r.code.starts_with("E08"), "{}", r.code);
        }
        for r in RULES.iter().filter(|r| r.code.starts_with("E08")) {
            assert!(
                CATALOG.iter().any(|s| s.code == r.code),
                "{} missing from CATALOG",
                r.code
            );
        }
    }

    #[test]
    fn clean_streams_verify_clean() {
        assert!(verify_text(CLEAN).is_empty());
    }

    #[test]
    fn engine_streams_verify_clean_including_retries() {
        let wf = crate::synthetic::montage(6);
        let (sites, tc) = paper_catalogs();
        let exec = plan(
            &wf,
            &sites,
            &tc,
            &ReplicaCatalog::new(),
            &PlannerConfig::for_site("osg"),
        )
        .unwrap();
        let mut be = ScriptedBackend::new();
        let fail_name = exec
            .jobs
            .iter()
            .find(|j| matches!(j.kind, JobKind::Compute))
            .expect("montage has compute jobs")
            .name
            .clone();
        be.fail_plan.insert((fail_name, 0));
        let policy = RetryPolicy::exponential(3, 7.0).with_jitter(0.2);
        let cfg = EngineConfig::builder()
            .policy(policy.clone())
            .seed(11)
            .build();
        let run = Engine::run(&mut be, &exec, &cfg, &mut NoopMonitor);
        assert!(run.succeeded());
        let events: Vec<(usize, WorkflowEvent)> =
            run.events.iter().cloned().map(|e| (0, e)).collect();
        let opts = VerifyOptions {
            slot_capacity: None,
            retry: Some(policy),
        };
        let diags = check_stream(&events, "<live>", &opts);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dropped_terminal_is_unterminated() {
        let text = CLEAN.replace(
            "completed job=1 attempt=0 submitted=0 started=2 install-done=2 finished=4\n",
            "",
        );
        let diags = verify_text(&text);
        assert!(codes(&diags).contains(&"E0801"), "{diags:?}");
        assert!(codes(&diags).contains(&"E0806"), "{diags:?}");
    }

    #[test]
    fn attempt_regression_and_phase_precedence() {
        let dup = CLEAN.replace(
            "submitted time=0 job=1 attempt=0\n",
            "submitted time=0 job=1 attempt=0\nsubmitted time=0 job=1 attempt=0\n",
        );
        assert!(codes(&verify_text(&dup)).contains(&"E0802"));

        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=a
submitted time=0 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=1 install-done=1 finished=2
workflow-finished time=2 wall-time=2 succeeded=true
";
        assert!(codes(&verify_text(text)).contains(&"E0803"));
    }

    #[test]
    fn missing_install_phase_event_is_flagged() {
        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=a
submitted time=0 job=0 attempt=0
started time=3 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=1 install-done=3 finished=5
workflow-finished time=5 wall-time=5 succeeded=true
";
        // install-done (3) > started (1) means an install phase
        // happened, but no install-started event was emitted.
        assert!(codes(&verify_text(text)).contains(&"E0803"));
    }

    #[test]
    fn capacity_sweep_catches_oversubscription() {
        let events = log::parse_lines(CLEAN).unwrap();
        let opts = VerifyOptions {
            slot_capacity: Some(1),
            retry: None,
        };
        // Both jobs run concurrently in [2, 4): 2 slots needed.
        let diags = check_stream(&events, "run.events", &opts);
        assert_eq!(codes(&diags), ["E0804"]);
        let opts = VerifyOptions {
            slot_capacity: Some(2),
            retry: None,
        };
        assert!(check_stream(&events, "run.events", &opts).is_empty());
    }

    #[test]
    fn retry_envelope_violations_are_flagged() {
        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=a
submitted time=0 job=0 attempt=0
started time=1 job=0 attempt=0
failed job=0 attempt=0 reason=preempted submitted=0 started=1 install-done=1 finished=2 detail=preempted:storm
retry-scheduled time=2 job=0 next-attempt=1 backoff=10 reason=preempted detail=preempted:storm
submitted time=2 job=0 attempt=1
started time=4 job=0 attempt=1
completed job=0 attempt=1 submitted=3 started=4 install-done=4 finished=6
workflow-finished time=6 wall-time=6 succeeded=true
";
        // Resubmission ran at submitted=3 < retry time 2 + backoff 10.
        assert!(codes(&verify_text(text)).contains(&"E0805"), "{:?}", verify_text(text));

        // With the policy known, backoff 10 falls outside the
        // jitter-free envelope around base 7.
        let policy = RetryPolicy::exponential(3, 7.0);
        let events = log::parse_lines(text).unwrap();
        let opts = VerifyOptions {
            slot_capacity: None,
            retry: Some(policy),
        };
        let diags = check_stream(&events, "run.events", &opts);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "E0805" && d.message.contains("envelope")),
            "{diags:?}"
        );
    }

    #[test]
    fn finish_consistency_is_enforced() {
        let flipped = CLEAN.replace("succeeded=true", "succeeded=false");
        assert!(codes(&verify_text(&flipped)).contains(&"E0806"));
        let wall = CLEAN.replace("wall-time=7", "wall-time=8");
        assert!(codes(&verify_text(&wall)).contains(&"E0806"));
        let truncated = CLEAN.replace("workflow-finished time=7 wall-time=7 succeeded=true\n", "");
        assert!(codes(&verify_text(&truncated)).contains(&"E0806"));
    }

    #[test]
    fn manifest_framing_is_enforced() {
        let miscounted = CLEAN.replace("jobs=2", "jobs=3");
        assert!(codes(&verify_text(&miscounted)).contains(&"E0807"));
        let dropped_decl = CLEAN.replace("job id=0 kind=compute transformation=split name=a\n", "");
        assert!(codes(&verify_text(&dropped_decl)).contains(&"E0807"));
    }

    #[test]
    fn reason_detail_mismatch_is_flagged() {
        let text = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=a
submitted time=0 job=0 attempt=0
started time=1 job=0 attempt=0
failed job=0 attempt=0 reason=evicted submitted=0 started=1 install-done=1 finished=2 detail=preempted:storm
workflow-finished time=2 wall-time=2 succeeded=false
";
        assert!(codes(&verify_text(text)).contains(&"E0808"));
    }

    #[test]
    fn shadow_verifier_matches_offline_check() {
        let wf = crate::synthetic::montage(4);
        let (sites, tc) = paper_catalogs();
        let exec = plan(
            &wf,
            &sites,
            &tc,
            &ReplicaCatalog::new(),
            &PlannerConfig::for_site("sandhills"),
        )
        .unwrap();
        let mut shadow = ShadowVerifier::new("<live>", VerifyOptions::default());
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &exec,
            &EngineConfig::default(),
            &mut shadow,
        );
        assert!(run.succeeded());
        assert_eq!(shadow.events.len(), run.events.len(), "trailer included");
        assert!(shadow.finish().is_empty());
    }

    #[test]
    fn dataflow_pass_flags_hand_built_plans() {
        let mut wf = AbstractWorkflow::new("w");
        wf.add_job(
            Job::new("consume", "cat")
                .input(LogicalFile::sized("ghost.in", 10))
                .output(LogicalFile::sized("out.txt", 5)),
        )
        .unwrap();
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        let mut bare = PlannerConfig::for_site("sandhills");
        bare.stage_data = false;
        let exec = plan(&wf, &sites, &tc, &rc, &bare).unwrap();
        let diags = check_plan(&wf, &exec, &rc, "sandhills", "w.dax", &DataflowOptions::default());
        assert_eq!(codes(&diags), ["E0601"], "{diags:?}");

        // With staging enabled the planner discharges the obligation.
        let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
        let diags = check_plan(&wf, &exec, &rc, "sandhills", "w.dax", &DataflowOptions::default());
        assert!(diags.is_empty(), "{diags:?}");

        // A replica at the site discharges it, too.
        let mut rc = ReplicaCatalog::new();
        rc.register("ghost.in", "sandhills");
        let exec = plan(&wf, &sites, &tc, &rc, &bare).unwrap();
        let diags = check_plan(&wf, &exec, &rc, "sandhills", "w.dax", &DataflowOptions::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn storage_footprint_bound_is_swept() {
        let mut wf = AbstractWorkflow::new("w");
        wf.add_job(Job::new("make", "gen").output(LogicalFile::sized("big.bin", 1000)))
            .unwrap();
        wf.add_job(
            Job::new("use", "cat")
                .input(LogicalFile::sized("big.bin", 1000))
                .output(LogicalFile::sized("small.out", 10)),
        )
        .unwrap();
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
        let tight = DataflowOptions {
            storage_limit_bytes: Some(100),
        };
        let diags = check_plan(&wf, &exec, &rc, "sandhills", "w.dax", &tight);
        assert_eq!(codes(&diags), ["W0604"], "{diags:?}");
        let roomy = DataflowOptions {
            storage_limit_bytes: Some(10_000),
        };
        assert!(check_plan(&wf, &exec, &rc, "sandhills", "w.dax", &roomy).is_empty());
    }

    #[test]
    fn ensemble_feasibility_catches_zero_quotas() {
        let members = vec![("m0".to_string(), 4usize)];
        let dead = EnsembleConfig {
            slot_budget: Some(0),
            tenant_slots: Some(0),
            tenant_active: Some(0),
        };
        let diags = check_ensemble_feasibility(&members, &dead, "serve");
        assert_eq!(codes(&diags), ["E0605", "E0605", "E0605"]);

        let narrow = EnsembleConfig {
            slot_budget: Some(64),
            tenant_slots: Some(2),
            tenant_active: None,
        };
        let diags = check_ensemble_feasibility(&members, &narrow, "serve");
        assert_eq!(codes(&diags), ["W0606"]);

        let fine = EnsembleConfig {
            slot_budget: Some(64),
            tenant_slots: Some(8),
            tenant_active: Some(4),
        };
        assert!(check_ensemble_feasibility(&members, &fine, "serve").is_empty());
    }

    #[test]
    fn trace_mismatch_is_flagged() {
        let a = TraceId::new(0xabc);
        let b = TraceId::new(0xdef);
        assert!(check_trace_match(Some(a), a, "m0.events").is_none());
        assert_eq!(
            check_trace_match(Some(a), b, "m0.events").map(|d| d.code),
            Some("E0809")
        );
        assert_eq!(
            check_trace_match(None, b, "m0.events").map(|d| d.code),
            Some("E0809")
        );
    }
}
