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
//! [`check_stream`]).**  The invariant catalog over complete
//! [`WorkflowEvent`] streams is the `E08xx` rows of the lint rule
//! registry (`pegasus lint --list`), each an LTL-lite property:
//! *always* (holds at every event), *eventually-before-finish* (every
//! obligation is discharged by the trailer), *precedes* (B never
//! appears without an earlier A), or *never-after* (nothing follows
//! the trailer).  The catalog encodes exactly what the engine
//! guarantees while emitting: every
//! submission reaches a terminal event, attempt numbers are dense and
//! strictly increasing, `install-started` precedes `started` on sites
//! with install overhead, concurrency never exceeds the site's slot
//! capacity (a time-ordered sweep over attempt intervals), retry gaps
//! respect the configured backoff/jitter envelope, nothing follows
//! `workflow-finished`, and the trailer's verdict matches the stream.
//!
//! One walker, the [`StreamWalker`], is the only code that judges an
//! outside stream, each event against the record the lifecycle fold
//! keeps of its job, and each clause reports under one code wherever
//! it is asked.  Each clause it checks as an event
//! arrives looks only backwards, so those clauses hold on every prefix
//! of a valid stream: they are what [`crate::lint::check_events`]
//! reports, so that rescue-from-log keeps working on a truncated log.
//! The clauses that need the end of the stream — the trailer must
//! exist, a succeeded run leaves nothing open — are the complete-log
//! contract that only the verifier adds.
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
//! The [`StreamWalker`] is also the flag-gated live form: an
//! [`EventSink`] handed to `Engine::run`, fed event by event, so
//! `pegasus run --verify` asserts the invariants on every live run
//! without keeping the stream.

use crate::catalog::ReplicaCatalog;
use crate::engine::{FaultReason, JobRecord, JobState, RetryPolicy, WorkflowRun};
use crate::ensemble::EnsembleConfig;
use crate::error::Span;
use crate::events::{EventSink, Framing, Misframed, Termination, WorkflowEvent};
use crate::lint::Diagnostic;
use crate::monitor::sweep;
use crate::planner::{ExecutableWorkflow, JobKind};
use crate::trace::TraceId;
use crate::workflow::{AbstractWorkflow, Dataflow, FileId, JobId, Readers};

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

/// The category a `detail=` claims by the wire prefix it opens with;
/// text that opens with none of the five is a task's own, so `Other`.
/// Backends state the category, so nothing that produces a stream reads
/// a detail: this is the program's only reader of one, the judge of a
/// log from outside.
fn detail_reason(detail: &str) -> FaultReason {
    let claimed = FaultReason::WIRE
        .iter()
        .find(|(_, p)| detail.starts_with(p));
    claimed.map_or(FaultReason::Other, |(reason, _)| *reason)
}

/// Where the walker's findings go.
#[derive(Default)]
struct Findings {
    file: String,
    diags: Vec<Diagnostic>,
}

impl Findings {
    /// The one place a stream finding is built. `line` 0 (a stream
    /// built in memory) is the unknown span. Returns the finding so a
    /// caller can attach a `help`.
    fn flag(
        &mut self,
        code: &'static str,
        line: usize,
        message: impl Into<String>,
    ) -> &mut Diagnostic {
        let found = Diagnostic::new(code, self.file.as_str(), Span::line(line), message);
        self.diags.push(found);
        self.diags.last_mut().expect("just pushed")
    }
}

/// What judging a job needs beside its [`JobRecord`]. The engine runs
/// a job's attempts strictly one after another, so an event that names
/// any attempt but the one in flight is a violation where it stands.
#[derive(Default)]
struct Witness {
    last_time: f64,
    /// Line and time of the attempt in flight's `submitted` event.
    submitted: Option<(usize, f64)>,
    /// The attempt in flight's `install-started` and `started` times.
    install: Option<f64>,
    started: Option<f64>,
    /// Whether the attempt in flight has had its terminal event.
    terminal: bool,
    /// The last `retry-scheduled`: next attempt, line, time, backoff.
    retry: Option<(u32, usize, f64, f64)>,
}

impl Witness {
    /// Whether `attempt` is the one in flight, the last `rec` submitted.
    fn in_flight(&self, rec: &JobRecord, attempt: u32) -> bool {
        self.submitted.is_some() && rec.attempts == attempt.saturating_add(1)
    }
}

/// The one judge of event streams: the `E08xx` invariant catalog as an
/// incremental fold.
///
/// It judges each event against the job's [`JobRecord`], then advances
/// the record with the engine's own `WorkflowRun::apply`: the judge and
/// every fold read one lifecycle. A clause checked in
/// [`StreamWalker::event`] looks only backwards, so it holds on every
/// prefix of a valid stream; a clause checked in
/// [`StreamWalker::finish`] needs the end. [`check_stream`] is feed +
/// `finish`; [`crate::lint::check_events`] is feed +
/// [`crate::lint::prefix_findings`]; `pegasus verify` and `lint
/// --events` feed it as they read a log. As an [`EventSink`] it is the
/// flag-gated live shadow of `pegasus run --verify`: it judges each
/// event the engine emits, keeps the records, never the stream, and its
/// diagnostics carry the run's label and no line.
#[derive(Default)]
pub struct StreamWalker {
    out: Findings,
    opts: VerifyOptions,
    seen: usize,
    last_line: usize,
    framing: Framing,
    /// Line and job count of the header; its time is `run.start`.
    header: Option<(usize, usize)>,
    /// Set by the first event after the manifest, which is when the
    /// manifest's length is judged against the header's count.
    manifest_closed: bool,
    /// Line and verdict of the first trailer.
    trailer: Option<(usize, bool)>,
    last_emitted: f64,
    /// Every event the framing rule admits, folded by `apply`.
    run: WorkflowRun,
    /// One entry per record, indexed by job id.
    witnesses: Vec<Witness>,
    /// (time, delta, line) endpoints for the `E0804` sweep; collected
    /// only when the slot capacity is known.
    intervals: Vec<(f64, i32, usize)>,
}

impl StreamWalker {
    /// A walker reporting against `file`.
    pub fn new(file: impl Into<String>, opts: VerifyOptions) -> Self {
        StreamWalker {
            out: Findings {
                file: file.into(),
                ..Findings::default()
            },
            opts,
            last_emitted: f64::NEG_INFINITY,
            ..StreamWalker::default()
        }
    }

    /// True once a `workflow-finished` trailer has arrived.
    pub(crate) fn closed(&self) -> bool {
        self.trailer.is_some()
    }

    /// How many events it was fed.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The file the findings name, and the line of the last event fed
    /// (`None` before the first).
    pub(crate) fn position(&self) -> (&str, Option<usize>) {
        (&self.out.file, (self.seen > 0).then_some(self.last_line))
    }

    /// Judges one event against everything before it, then folds it.
    /// `line` is its one-based line, 0 for a stream built in memory.
    pub fn event(&mut self, line: usize, ev: &WorkflowEvent) {
        self.seen += 1;
        self.last_line = line;
        if let Some((fline, _)) = self.trailer {
            self.out.flag(
                "E0806",
                line,
                format!("event after workflow-finished (line {fline}): the run was closed"),
            );
        }
        if let Some(t) = ev.emission_time() {
            let last = self.last_emitted;
            if t < last {
                let message =
                    format!("emission-ordered event goes backwards in time: {t} after {last}");
                self.out.flag("E0808", line, message).help = Some(
                    "the engine emits these kinds in nondecreasing backend time; \
                     a reordered or merged log breaks replay assumptions"
                        .into(),
                );
            }
            // The run's [start, finish] bounds, judged as events
            // arrive: nothing is emitted before the header's time, and
            // the trailer is the latest emission.
            if let Some(start) = self.start().filter(|s| t < *s) {
                self.out.flag(
                    "E0806",
                    line,
                    format!("event at time {t} lies before the run's start at {start}"),
                );
            }
            if t < last && matches!(ev, WorkflowEvent::WorkflowFinished { .. }) {
                self.out.flag(
                    "E0806",
                    line,
                    format!("workflow-finished at time {t} lies before an emission at {last}"),
                );
            }
            self.last_emitted = last.max(t);
        }
        if let Err(breach) = self.framing.step(ev) {
            self.out.flag("E0807", line, breach.to_string());
            // A missing header takes nothing away from the event that
            // stands in its place; the other breaches leave no record
            // to judge the event against, or to advance.
            if breach != Misframed::NoHeader {
                return;
            }
        }
        self.judge(line, ev);
        self.run.apply(ev);
    }

    /// The header's time, once there is a header.
    fn start(&self) -> Option<f64> {
        self.header.map(|_| self.run.start)
    }

    /// The clauses of one admitted event, against the run before it.
    fn judge(&mut self, line: usize, ev: &WorkflowEvent) {
        match ev {
            WorkflowEvent::WorkflowStarted { jobs, .. } => {
                self.header = Some((line, *jobs as usize));
                // One witness for each record `apply` reserves.
                self.witnesses.reserve((*jobs as usize).min(1 << 20));
                return;
            }
            WorkflowEvent::JobDeclared { job, .. } => {
                if self.manifest_closed {
                    self.out.flag(
                        "E0807",
                        line,
                        format!("job {job} declared after lifecycle events began"),
                    );
                }
                self.witnesses.push(Witness::default());
                return;
            }
            _ => self.close_manifest(),
        }
        if let WorkflowEvent::WorkflowFinished {
            succeeded,
            wall_time,
            time,
        } = ev
        {
            // A second trailer is one more event after the first.
            if self.trailer.is_none() {
                self.trailer = Some((line, *succeeded));
                self.judge_trailer(line, *succeeded, *wall_time, *time);
            }
            return;
        }
        let Some(job) = ev.job() else { return };
        let start = self.start();
        // `Framing::step` admitted the id: it is below the number of
        // in-order declarations, each of which pushed one entry.
        let rec = &self.run.records[job.idx()];
        let w = &mut self.witnesses[job.idx()];
        let out = &mut self.out;
        let time = ev.time().unwrap_or(w.last_time);
        if time < w.last_time {
            out.flag(
                "E0808",
                line,
                format!(
                    "job {job} goes backwards in time: {time} after {}",
                    w.last_time
                ),
            );
        }
        w.last_time = w.last_time.max(time);

        match ev {
            WorkflowEvent::Skipped { time, .. } => {
                if rec.state == JobState::SkippedDone || rec.attempts > 0 {
                    out.flag(
                        "E0803",
                        line,
                        format!("job {job} skipped, but it was already skipped or submitted"),
                    );
                }
                if let Some(start) = start.filter(|s| time != s) {
                    out.flag(
                        "E0808",
                        line,
                        format!(
                            "job {job} skipped at {time}, but rescue skips happen at \
                             the workflow start ({start})"
                        ),
                    );
                }
            }
            WorkflowEvent::Submitted { attempt, time, .. } => {
                if rec.state == JobState::SkippedDone {
                    out.flag(
                        "E0803",
                        line,
                        format!("job {job} submitted after being skipped"),
                    );
                }
                if *attempt != rec.attempts {
                    out.flag(
                        "E0802",
                        line,
                        format!(
                            "job {job} submitted at attempt {attempt}, expected {} \
                             (attempts must be dense and strictly increasing)",
                            rec.attempts
                        ),
                    );
                }
                if w.submitted.is_some() && !w.terminal {
                    out.flag(
                        "E0802",
                        line,
                        format!(
                            "job {job} submitted at attempt {attempt} while attempt {} \
                             has no terminal event",
                            rec.attempts - 1
                        ),
                    );
                }
                if *attempt > 0 && w.retry.is_none_or(|r| r.0 != *attempt) {
                    out.flag(
                        "E0805",
                        line,
                        format!(
                            "job {job} resubmitted at attempt {attempt} with no prior \
                             retry-scheduled next-attempt={attempt}"
                        ),
                    );
                }
                w.submitted = Some((line, *time));
                (w.install, w.started, w.terminal) = (None, None, false);
            }
            WorkflowEvent::InstallStarted { attempt, time, .. }
            | WorkflowEvent::Started { attempt, time, .. } => {
                let install = matches!(ev, WorkflowEvent::InstallStarted { .. });
                let phase = if install {
                    "install-started"
                } else {
                    "started"
                };
                if !w.in_flight(rec, *attempt) {
                    out.flag(
                        "E0803",
                        line,
                        format!(
                            "job {job} has {phase} at attempt {attempt} before being submitted"
                        ),
                    );
                    return;
                }
                if install && w.started.is_some() {
                    out.flag(
                        "E0803",
                        line,
                        format!("job {job} attempt {attempt}: install-started after started"),
                    );
                }
                let slot = if install {
                    &mut w.install
                } else {
                    &mut w.started
                };
                if slot.replace(*time).is_some() {
                    out.flag(
                        "E0803",
                        line,
                        format!("job {job} attempt {attempt} has two {phase} events"),
                    );
                }
            }
            WorkflowEvent::RetryScheduled {
                next_attempt,
                backoff,
                reason,
                detail,
                time,
                ..
            } => {
                if detail_reason(detail) != *reason {
                    out.flag(
                        "E0808",
                        line,
                        format!(
                            "job {job} retry reason {reason:?} does not match its detail {detail:?}"
                        ),
                    );
                }
                if !(backoff.is_finite() && *backoff >= 0.0) {
                    out.flag(
                        "E0805",
                        line,
                        format!(
                            "job {job} retry backoff {backoff} is not a finite nonnegative delay"
                        ),
                    );
                }
                // A failure is retried once, by the `retry-scheduled`
                // that follows it (attempt 0 retries nothing: `None`).
                let (retried, failed) =
                    (next_attempt.checked_sub(1), rec.state == JobState::Failed);
                let failed = self.run.last_failure(rec).filter(|_| failed);
                match failed.filter(|f| Some(f.attempt) == retried) {
                    None => {
                        out.flag(
                            "E0805",
                            line,
                            format!(
                                "job {job} schedules a retry to attempt {next_attempt}, but \
                                 the attempt before it did not just fail"
                            ),
                        );
                    }
                    Some(f) if *time != f.times.finished => {
                        out.flag(
                            "E0805",
                            line,
                            format!(
                                "job {job} retry scheduled at {time}, but the failed \
                                 attempt finished at {}",
                                f.times.finished
                            ),
                        );
                    }
                    Some(_) => {}
                }
                if let Some(policy) = &self.opts.retry {
                    check_envelope(out, line, job, *next_attempt, *backoff, policy);
                }
                w.retry = Some((*next_attempt, line, *time, *backoff));
            }
            _ => {
                if let Some(end) = ev.termination() {
                    self.judge_terminal(line, &end);
                }
            }
        }
    }

    /// The manifest ends at the first event that is neither header
    /// nor declaration — that is when its length can be held against
    /// the header's count, so the count is judged on a prefix too.
    fn close_manifest(&mut self) {
        if std::mem::replace(&mut self.manifest_closed, true) {
            return;
        }
        let declared = self.run.records.len();
        if let Some((line, jobs)) = self.header.filter(|h| h.1 != declared) {
            self.out.flag(
                "E0807",
                line,
                format!("manifest declares {declared} jobs, but workflow-started says {jobs}"),
            );
        }
    }

    /// The trailer against the stream it closes: wall time and verdict.
    /// (Its time bounds are judged per event in [`Self::event`].)
    fn judge_trailer(&mut self, line: usize, succeeded: bool, wall: f64, time: f64) {
        if let Some(start) = self.start().filter(|s| wall != time - s) {
            self.out.flag(
                "E0806",
                line,
                format!(
                    "workflow-finished wall-time {wall} contradicts its bounds \
                     ({time} - {start} = {})",
                    time - start
                ),
            );
        }
        let completed = |r: &JobRecord| matches!(r.state, JobState::Done | JobState::SkippedDone);
        if succeeded != self.run.records.iter().all(completed) {
            self.out.flag(
                "E0806",
                line,
                if succeeded {
                    "workflow-finished claims success, but not every job completed"
                } else {
                    "workflow-finished claims failure, but every job completed"
                },
            );
        }
    }

    /// Terminal-event clauses: phase precedence, timestamp agreement
    /// with the retrospective phase events, reason classification, and
    /// the retry gap lower bound.
    fn judge_terminal(&mut self, line: usize, end: &Termination<'_>) {
        let Termination {
            job,
            attempt,
            times,
            failure,
        } = *end;
        let rec = &self.run.records[job.idx()];
        let w = &mut self.witnesses[job.idx()];
        let out = &mut self.out;
        let retry = w.retry.filter(|r| r.0 == attempt);
        let mut never_submitted = Witness::default();
        let a = if w.in_flight(rec, attempt) {
            w
        } else {
            out.flag(
                "E0803",
                line,
                format!(
                    "job {job} reached a terminal event at attempt {attempt} before being submitted"
                ),
            );
            &mut never_submitted
        };
        if std::mem::replace(&mut a.terminal, true) {
            out.flag(
                "E0803",
                line,
                format!("job {job} has two terminal events for attempt {attempt}"),
            );
        }
        if !times.ordered() {
            out.flag(
                "E0808",
                line,
                format!(
                    "job {job} attempt {attempt} has unordered times \
                     (want submitted <= started <= install-done <= finished)"
                ),
            );
        }
        // The phase events are synthesized from this terminal's own
        // timestamps, so they are a function of them and the
        // agreement is exact, bit for bit: `started` when the install
        // phase ended, `install-started` (only if there was an install
        // phase) when the slot was acquired.
        let installed = (times.install_done > times.started).then_some(times.started);
        for (phase, emitted, recorded) in [
            ("install-started", a.install, installed),
            ("started", a.started, Some(times.install_done)),
        ] {
            if emitted != recorded {
                let at = |t: Option<f64>| t.map_or("absent".into(), |t| format!("at {t}"));
                // A phase event missing or uncalled for breaks
                // precedence; one at the wrong time, consistency.
                let rule = if emitted.is_some() == recorded.is_some() {
                    "E0808"
                } else {
                    "E0803"
                };
                out.flag(
                    rule,
                    line,
                    format!(
                        "job {job} attempt {attempt}: the {phase} event is {}, but by the \
                         terminal event's times it should be {}",
                        at(emitted),
                        at(recorded)
                    ),
                );
            }
        }
        // The backend acquires work no earlier than it was handed it.
        if let Some((_, sub)) = a.submitted.filter(|s| times.submitted + TOL < s.1) {
            out.flag(
                "E0808",
                line,
                format!(
                    "job {job} attempt {attempt} records submitted={}, before its \
                     submitted event at {sub}",
                    times.submitted
                ),
            );
        }
        // Retry gap lower bound: the resubmission can be held by the
        // throttle but never runs before failure time + backoff.
        if let Some((_, _, rtime, backoff)) = retry.filter(|r| times.submitted + TOL < r.2 + r.3) {
            out.flag(
                "E0805",
                line,
                format!(
                    "job {job} attempt {attempt} ran at submitted={}, before its \
                     scheduled earliest time {} (retry at {rtime} + backoff {backoff})",
                    times.submitted,
                    rtime + backoff
                ),
            );
        }
        if let Some((reason, detail)) = failure.filter(|f| detail_reason(f.1) != f.0) {
            out.flag(
                "E0808",
                line,
                format!("job {job} failure reason {reason:?} does not match its detail {detail:?}"),
            );
        }
        if self.opts.slot_capacity.is_some() {
            self.intervals.push((times.started, 1, line));
            self.intervals.push((times.finished, -1, line));
        }
    }

    /// Everything found so far: the prefix-closed verdict, which is
    /// all `lint --events` reports. Only a stream with no events at
    /// all is judged here, because no event could carry the finding.
    pub(crate) fn findings(mut self) -> Vec<Diagnostic> {
        if self.seen == 0 {
            self.out.flag(
                "E0807",
                0,
                "stream contains no events (expected a workflow-started header)",
            );
        }
        self.out.diags
    }

    /// The complete-log contract: the prefix-closed findings plus what
    /// only the end of a stream can show — a manifest still open against
    /// the header's count, the missing trailer, the obligations a
    /// succeeded run leaves open (`E0801`), and the capacity sweep
    /// (`E0804`).
    pub fn finish(mut self) -> Vec<Diagnostic> {
        if self.seen == 0 {
            return self.findings();
        }
        self.close_manifest();
        match self.trailer {
            None => {
                let message = "stream has no workflow-finished: verify requires complete logs";
                self.out.flag("E0806", self.last_line, message).help = Some(
                    "for crashed or still-running runs use `pegasus lint --events`, \
                     which accepts truncated streams"
                        .into(),
                );
            }
            Some((_, true)) => {
                let jobs = self.run.records.iter().zip(&self.witnesses);
                for (j, (rec, w)) in jobs.enumerate() {
                    if let (Some((line, _)), false) = (w.submitted, w.terminal) {
                        self.out.flag(
                            "E0801",
                            line,
                            format!(
                                "job {j} attempt {} was submitted but never reached a \
                                 terminal event on a succeeded run",
                                rec.attempts - 1
                            ),
                        );
                    }
                    if let Some((next, line, ..)) = w.retry.filter(|r| r.0 >= rec.attempts) {
                        self.out.flag(
                            "E0801",
                            line,
                            format!(
                                "job {j} scheduled a retry to attempt {next} that was \
                                 never resubmitted on a succeeded run"
                            ),
                        );
                    }
                }
            }
            Some((_, false)) => {}
        }
        if let Some(cap) = self.opts.slot_capacity {
            sweep_capacity(&mut self.out, &mut self.intervals, cap);
        }
        self.findings()
    }
}

/// Layer 1: verifies one complete event stream against the full
/// temporal invariant catalog (the `E08xx` rules).
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
    let mut walker = StreamWalker::new(file, opts.clone());
    for (line, ev) in events {
        walker.event(*line, ev);
    }
    walker.finish()
}

/// The `E0805` backoff/jitter envelope: with the policy known, the
/// emitted backoff must lie inside `capped * [1 - jitter, 1 + jitter]`
/// where `capped` is [`RetryPolicy::capped_backoff`].
fn check_envelope(
    out: &mut Findings,
    line: usize,
    job: JobId,
    next_attempt: u32,
    backoff: f64,
    policy: &RetryPolicy,
) {
    if policy.base_backoff <= 0.0 {
        if backoff != 0.0 {
            out.flag(
                "E0805",
                line,
                format!(
                    "job {job} retry backoff {backoff} under a policy with no backoff \
                     configured"
                ),
            );
        }
        return;
    }
    let capped = policy.capped_backoff(next_attempt);
    let eps = TOL * capped.max(1.0);
    let lo = capped * (1.0 - policy.jitter) - eps;
    let hi = capped * (1.0 + policy.jitter) + eps;
    if !(backoff >= lo && backoff <= hi) {
        out.flag(
            "E0805",
            line,
            format!(
                "job {job} retry backoff {backoff} outside the configured envelope \
                 [{lo}, {hi}] for attempt {next_attempt}"
            ),
        );
    }
}

/// The `E0804` capacity check: the first step of the one concurrency
/// [`sweep`] over the per-attempt `[started, finished)` intervals that
/// holds more attempts than `cap` (under a capacity of 0, the first
/// attempt).
fn sweep_capacity(out: &mut Findings, intervals: &mut [(f64, i32, usize)], cap: usize) {
    // One violation pins the stream; avoid cascades.
    let over = sweep(intervals).find(|(running, _)| *running > cap as i64);
    if let Some((running, (time, _, line))) = over {
        out.flag(
            "E0804",
            *line,
            format!(
                "{running} attempts hold slots at time {time}, exceeding the site's \
                 capacity of {cap}"
            ),
        );
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

    let view = abstract_wf.dataflow();
    let files = abstract_wf.files();
    // A transfer job moves the file its one argument names; a name the
    // workflow does not hold is a file no job produces or consumes.
    let transfers = |kind: JobKind| {
        (exec.jobs.iter())
            .filter(move |j| j.kind == kind)
            .filter_map(|j| Some((j, j.args.first()?)))
            .map(|(j, f)| (j.name.as_str(), f.as_str(), files.get(f)))
    };
    let mut staged_in = vec![false; files.len()];
    for id in transfers(JobKind::StageIn).filter_map(|(_, _, id)| id) {
        staged_in[id.idx()] = true;
    }

    let mut flagged = vec![false; files.len()];
    for id in abstract_wf.job_ids() {
        for f in abstract_wf.inputs(id).iter() {
            let (name, i) = (f.name, f.file.idx());
            if view.producer[i].is_none()
                && !staged_in[i]
                && !replicas.has_replica(name, site)
                && !std::mem::replace(&mut flagged[i], true)
            {
                diags.push(
                    Diagnostic::new(
                        "E0601",
                        file,
                        Span::none(),
                        format!(
                            "file \"{name}\" consumed by job \"{}\" has no producer, no \
                             stage-in, and no replica at site \"{site}\"",
                            abstract_wf.job(id).id
                        ),
                    )
                    .with_help("add a stage-in job or register the file in the replica catalog"),
                );
            }
        }
    }
    for (job, f, id) in transfers(JobKind::StageOut) {
        if id.and_then(|id| view.producer[id.idx()]).is_none() {
            diags.push(Diagnostic::new(
                "W0602",
                file,
                Span::none(),
                format!("stage-out job \"{job}\" transfers \"{f}\", which no job produces"),
            ));
        }
    }
    for (job, f, id) in transfers(JobKind::StageIn) {
        if id.is_none_or(|id| view.readers[id.idx()] == Readers::Nobody) {
            diags.push(Diagnostic::new(
                "W0603",
                file,
                Span::none(),
                format!("stage-in job \"{job}\" transfers \"{f}\", which no job consumes"),
            ));
        }
    }

    if let Some(limit) = opts.storage_limit_bytes {
        if let Some((peak, at_job)) = peak_footprint(abstract_wf, &view) {
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
fn peak_footprint(wf: &AbstractWorkflow, view: &Dataflow) -> Option<(u64, String)> {
    let order = wf.order_of(view).ok()?;
    let mut pos = vec![0usize; wf.jobs.len()];
    for (i, j) in order.iter().enumerate() {
        pos[j.idx()] = i;
    }
    // By file: the size its first use declared, and the schedule
    // position of its last consumer — a file consumed by nobody (a
    // final output) stays resident.
    let files = wf.files().len();
    let mut size: Vec<Option<u64>> = vec![None; files];
    let mut last_use: Vec<Option<usize>> = vec![None; files];
    // External inputs are resident from the start, each at the size
    // its last consumer declared.
    let mut external = vec![0u64; files];
    for j in wf.job_ids() {
        for f in wf.inputs(j).iter() {
            let i = f.file.idx();
            size[i].get_or_insert(f.size_bytes);
            last_use[i] = last_use[i].max(Some(pos[j.idx()]));
            if view.producer[i].is_none() {
                external[i] = f.size_bytes;
            }
        }
        for f in wf.outputs(j).iter() {
            size[f.file.idx()].get_or_insert(f.size_bytes);
        }
    }
    let size = |f: FileId| size[f.idx()].unwrap_or(0);
    let mut freed_after = vec![0u64; order.len()];
    for (f, at) in last_use.iter().enumerate() {
        if let Some(at) = *at {
            freed_after[at] = freed_after[at].saturating_add(size(FileId::new(f)));
        }
    }

    let mut resident: u64 = external.iter().sum();
    let mut peak = resident;
    let mut peak_at = String::from("<inputs>");
    for (i, jid) in order.iter().enumerate() {
        for &f in wf.outputs(*jid).ids() {
            resident += size(f);
        }
        if resident > peak {
            peak = resident;
            peak_at = wf.job(*jid).id.to_string();
        }
        resident = resident.saturating_sub(freed_after[i]);
    }
    Some((peak, peak_at))
}

/// Layer 2: ensemble quota feasibility.
///
/// `members` pairs each member workflow's name with its maximum width
/// (parallelism).  A zero global slot budget or a zero per-tenant
/// in-flight quota admits nothing — the ensemble deadlocks rather
/// than throttles (`E0605`); a tenant quota or slot budget below a
/// member's width serializes that member (`W0606`).
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

impl EventSink for StreamWalker {
    fn event(&mut self, ev: &WorkflowEvent) {
        StreamWalker::event(self, 0, ev);
    }
}

#[cfg(test)]
mod oracle {
    //! The `E08xx` walker as it stood before it judged against the
    //! lifecycle fold's records: a per-job `JobState` and `Attempt` of its
    //! own. Kept as the oracle the record-backed walker must agree with,
    //! finding for finding, on every engine log under the mutation
    //! harness's edits.

    use super::{check_envelope, detail_reason, sweep_capacity, Findings, VerifyOptions, TOL};
    use crate::events::{Framing, Misframed, Termination, WorkflowEvent};
    use crate::lint::Diagnostic;

    /// The attempt a job has in flight: the last one submitted.
    #[derive(Default)]
    struct Attempt {
        number: u32,
        /// Line and time of the `submitted` event.
        submitted: Option<(usize, f64)>,
        install: Option<f64>,
        started: Option<f64>,
        terminal: bool,
    }

    /// Per-job walker state. The engine runs a job's attempts strictly one
    /// after another (terminal, `retry-scheduled`, next `submitted`), so
    /// the attempt in flight, the last failure and the last scheduled
    /// retry are all there is to remember; an event that names any other
    /// attempt is a violation where it stands.
    #[derive(Default)]
    struct JobState {
        next_attempt: u32,
        skipped: bool,
        done: bool,
        last_time: f64,
        attempt: Attempt,
        /// The last failed attempt and its finish time, until a
        /// `retry-scheduled` takes it.
        failed: Option<(u32, f64)>,
        /// The last `retry-scheduled`: next attempt, line, time, backoff.
        retry: Option<(u32, usize, f64, f64)>,
    }

    impl JobState {
        fn in_flight(&mut self, attempt: u32) -> Option<&mut Attempt> {
            let a = &mut self.attempt;
            (a.submitted.is_some() && a.number == attempt).then_some(a)
        }
    }

    /// The walker as it was: its own per-job state machine beside the
    /// lifecycle fold.
    #[derive(Default)]
    struct Walker {
        out: Findings,
        opts: VerifyOptions,
        seen: usize,
        last_line: usize,
        framing: Framing,
        /// Line, time and job count of the header.
        header: Option<(usize, f64, usize)>,
        /// Set by the first event after the manifest, which is when the
        /// manifest's length is judged against the header's count.
        manifest_closed: bool,
        /// Line and verdict of the first trailer.
        trailer: Option<(usize, bool)>,
        last_emitted: f64,
        /// One entry per declared job, indexed by job id.
        jobs: Vec<JobState>,
        done: usize,
        /// (time, delta, line) endpoints for the `E0804` sweep; collected
        /// only when the slot capacity is known.
        intervals: Vec<(f64, i32, usize)>,
    }

    impl Walker {
        /// A walker reporting against `file`.
        fn new(file: impl Into<String>, opts: VerifyOptions) -> Self {
            Walker {
                out: Findings {
                    file: file.into(),
                    ..Findings::default()
                },
                opts,
                last_emitted: f64::NEG_INFINITY,
                ..Walker::default()
            }
        }

        /// Judges one event against everything before it. `line` is its
        /// one-based line in the log, 0 for a stream built in memory.
        fn event(&mut self, line: usize, ev: &WorkflowEvent) {
            self.seen += 1;
            self.last_line = line;
            if let Some((fline, _)) = self.trailer {
                self.out.flag(
                    "E0806",
                    line,
                    format!("event after workflow-finished (line {fline}): the run was closed"),
                );
            }
            if let Some(t) = ev.emission_time() {
                let last = self.last_emitted;
                if t < last {
                    let message =
                        format!("emission-ordered event goes backwards in time: {t} after {last}");
                    self.out.flag("E0808", line, message).help = Some(
                        "the engine emits these kinds in nondecreasing backend time; \
                         a reordered or merged log breaks replay assumptions"
                            .into(),
                    );
                }
                // The run's [start, finish] bounds, judged as events
                // arrive: nothing is emitted before the header's time, and
                // the trailer is the latest emission.
                if let Some((_, start, _)) = self.header.filter(|h| t < h.1) {
                    self.out.flag(
                        "E0806",
                        line,
                        format!("event at time {t} lies before the run's start at {start}"),
                    );
                }
                if t < last && matches!(ev, WorkflowEvent::WorkflowFinished { .. }) {
                    self.out.flag(
                        "E0806",
                        line,
                        format!("workflow-finished at time {t} lies before an emission at {last}"),
                    );
                }
                self.last_emitted = last.max(t);
            }
            if let Err(breach) = self.framing.step(ev) {
                self.out.flag("E0807", line, breach.to_string());
                // A missing header takes nothing away from the event that
                // stands in its place; the other breaches leave no job
                // state to judge the event against.
                if breach != Misframed::NoHeader {
                    return;
                }
            }
            match ev {
                WorkflowEvent::WorkflowStarted { jobs, time, .. } => {
                    self.header = Some((line, *time, *jobs as usize));
                    return;
                }
                WorkflowEvent::JobDeclared { job, .. } => {
                    if self.manifest_closed {
                        self.out.flag(
                            "E0807",
                            line,
                            format!("job {job} declared after lifecycle events began"),
                        );
                    }
                    self.jobs.push(JobState::default());
                    return;
                }
                _ => self.close_manifest(),
            }
            if let WorkflowEvent::WorkflowFinished {
                succeeded,
                wall_time,
                time,
            } = ev
            {
                // A second trailer is one more event after the first.
                if self.trailer.is_none() {
                    self.trailer = Some((line, *succeeded));
                    self.judge_trailer(line, *succeeded, *wall_time, *time);
                }
                return;
            }
            let Some(job) = ev.job() else { return };
            // `Framing::step` admitted the id: it is below the number of
            // in-order declarations, each of which pushed one entry.
            let st = &mut self.jobs[job.idx()];
            let out = &mut self.out;
            let time = ev.time().unwrap_or(st.last_time);
            if time < st.last_time {
                out.flag(
                    "E0808",
                    line,
                    format!(
                        "job {job} goes backwards in time: {time} after {}",
                        st.last_time
                    ),
                );
            }
            st.last_time = st.last_time.max(time);

            match ev {
                WorkflowEvent::Skipped { time, .. } => {
                    if st.skipped || st.next_attempt > 0 {
                        out.flag(
                            "E0803",
                            line,
                            format!("job {job} skipped, but it was already skipped or submitted"),
                        );
                    }
                    if let Some((_, start, _)) = self.header.filter(|h| *time != h.1) {
                        out.flag(
                            "E0808",
                            line,
                            format!(
                                "job {job} skipped at {time}, but rescue skips happen at \
                                 the workflow start ({start})"
                            ),
                        );
                    }
                    st.skipped = true;
                    if !std::mem::replace(&mut st.done, true) {
                        self.done += 1;
                    }
                }
                WorkflowEvent::Submitted { attempt, time, .. } => {
                    if st.skipped {
                        out.flag(
                            "E0803",
                            line,
                            format!("job {job} submitted after being skipped"),
                        );
                    }
                    if *attempt != st.next_attempt {
                        out.flag(
                            "E0802",
                            line,
                            format!(
                                "job {job} submitted at attempt {attempt}, expected {} \
                                 (attempts must be dense and strictly increasing)",
                                st.next_attempt
                            ),
                        );
                    }
                    if st.attempt.submitted.is_some() && !st.attempt.terminal {
                        out.flag(
                            "E0802",
                            line,
                            format!(
                                "job {job} submitted at attempt {attempt} while attempt {} \
                                 has no terminal event",
                                st.attempt.number
                            ),
                        );
                    }
                    if *attempt > 0 && st.retry.is_none_or(|r| r.0 != *attempt) {
                        out.flag(
                            "E0805",
                            line,
                            format!(
                                "job {job} resubmitted at attempt {attempt} with no prior \
                                 retry-scheduled next-attempt={attempt}"
                            ),
                        );
                    }
                    st.next_attempt = st.next_attempt.max(attempt.saturating_add(1));
                    st.attempt = Attempt {
                        number: *attempt,
                        submitted: Some((line, *time)),
                        ..Attempt::default()
                    };
                }
                WorkflowEvent::InstallStarted { attempt, time, .. }
                | WorkflowEvent::Started { attempt, time, .. } => {
                    let install = matches!(ev, WorkflowEvent::InstallStarted { .. });
                    let phase = if install {
                        "install-started"
                    } else {
                        "started"
                    };
                    match st.in_flight(*attempt) {
                        None => {
                            out.flag(
                                "E0803",
                                line,
                                format!(
                                    "job {job} has {phase} at attempt {attempt} before being submitted"
                                ),
                            );
                        }
                        Some(a) => {
                            if install && a.started.is_some() {
                                out.flag(
                                    "E0803",
                                    line,
                                    format!(
                                        "job {job} attempt {attempt}: install-started after started"
                                    ),
                                );
                            }
                            let slot = if install {
                                &mut a.install
                            } else {
                                &mut a.started
                            };
                            if slot.replace(*time).is_some() {
                                out.flag(
                                    "E0803",
                                    line,
                                    format!("job {job} attempt {attempt} has two {phase} events"),
                                );
                            }
                        }
                    }
                }
                WorkflowEvent::RetryScheduled {
                    next_attempt,
                    backoff,
                    reason,
                    detail,
                    time,
                    ..
                } => {
                    if detail_reason(detail) != *reason {
                        out.flag(
                            "E0808",
                            line,
                            format!(
                                "job {job} retry reason {reason:?} does not match its detail {detail:?}"
                            ),
                        );
                    }
                    if !(backoff.is_finite() && *backoff >= 0.0) {
                        out.flag(
                            "E0805",
                            line,
                            format!(
                                "job {job} retry backoff {backoff} is not a finite nonnegative delay"
                            ),
                        );
                    }
                    // A failure is retried once, by the `retry-scheduled`
                    // that follows it (attempt 0 retries nothing: `None`).
                    let retried = next_attempt.checked_sub(1);
                    match st.failed.take().filter(|f| Some(f.0) == retried) {
                        None => {
                            out.flag(
                                "E0805",
                                line,
                                format!(
                                    "job {job} schedules a retry to attempt {next_attempt}, but \
                                     the attempt before it did not just fail"
                                ),
                            );
                        }
                        Some((_, fin)) if *time != fin => {
                            out.flag(
                                "E0805",
                                line,
                                format!(
                                    "job {job} retry scheduled at {time}, but the failed \
                                     attempt finished at {fin}"
                                ),
                            );
                        }
                        Some(_) => {}
                    }
                    if let Some(policy) = &self.opts.retry {
                        check_envelope(out, line, job, *next_attempt, *backoff, policy);
                    }
                    st.retry = Some((*next_attempt, line, *time, *backoff));
                }
                _ => {
                    if let Some(end) = ev.termination() {
                        self.judge_terminal(line, &end);
                    }
                }
            }
        }

        /// The manifest ends at the first event that is neither header
        /// nor declaration — that is when its length can be held against
        /// the header's count, so the count is judged on a prefix too.
        fn close_manifest(&mut self) {
            if std::mem::replace(&mut self.manifest_closed, true) {
                return;
            }
            let declared = self.jobs.len();
            if let Some((line, _, jobs)) = self.header.filter(|h| h.2 != declared) {
                self.out.flag(
                    "E0807",
                    line,
                    format!("manifest declares {declared} jobs, but workflow-started says {jobs}"),
                );
            }
        }

        /// The trailer against the stream it closes: wall time and verdict.
        /// (Its time bounds are judged per event in `Self::event`.)
        fn judge_trailer(&mut self, line: usize, succeeded: bool, wall: f64, time: f64) {
            if let Some((_, start, _)) = self.header.filter(|h| wall != time - h.1) {
                self.out.flag(
                    "E0806",
                    line,
                    format!(
                        "workflow-finished wall-time {wall} contradicts its bounds \
                         ({time} - {start} = {})",
                        time - start
                    ),
                );
            }
            if succeeded != (self.done == self.jobs.len()) {
                self.out.flag(
                    "E0806",
                    line,
                    if succeeded {
                        "workflow-finished claims success, but not every job completed"
                    } else {
                        "workflow-finished claims failure, but every job completed"
                    },
                );
            }
        }

        /// Terminal-event clauses: phase precedence, timestamp agreement
        /// with the retrospective phase events, reason classification, and
        /// the retry gap lower bound.
        fn judge_terminal(&mut self, line: usize, end: &Termination<'_>) {
            let Termination {
                job,
                attempt,
                times,
                failure,
            } = *end;
            let st = &mut self.jobs[job.idx()];
            let out = &mut self.out;
            let retry = st.retry.filter(|r| r.0 == attempt);
            match failure {
                None if !std::mem::replace(&mut st.done, true) => self.done += 1,
                None => {}
                Some(_) => st.failed = Some((attempt, times.finished)),
            }
            let mut never_submitted = Attempt::default();
            let a = st.in_flight(attempt).unwrap_or_else(|| {
                out.flag(
                    "E0803",
                    line,
                    format!(
                        "job {job} reached a terminal event at attempt {attempt} before being submitted"
                    ),
                );
                &mut never_submitted
            });
            if std::mem::replace(&mut a.terminal, true) {
                out.flag(
                    "E0803",
                    line,
                    format!("job {job} has two terminal events for attempt {attempt}"),
                );
            }
            if !times.ordered() {
                out.flag(
                    "E0808",
                    line,
                    format!(
                        "job {job} attempt {attempt} has unordered times \
                         (want submitted <= started <= install-done <= finished)"
                    ),
                );
            }
            // The phase events are synthesized from this terminal's own
            // timestamps, so they are a function of them and the
            // agreement is exact, bit for bit: `started` when the install
            // phase ended, `install-started` (only if there was an install
            // phase) when the slot was acquired.
            let installed = (times.install_done > times.started).then_some(times.started);
            for (phase, emitted, recorded) in [
                ("install-started", a.install, installed),
                ("started", a.started, Some(times.install_done)),
            ] {
                if emitted != recorded {
                    let at = |t: Option<f64>| t.map_or("absent".into(), |t| format!("at {t}"));
                    // A phase event missing or uncalled for breaks
                    // precedence; one at the wrong time, consistency.
                    let rule = if emitted.is_some() == recorded.is_some() {
                        "E0808"
                    } else {
                        "E0803"
                    };
                    out.flag(
                        rule,
                        line,
                        format!(
                            "job {job} attempt {attempt}: the {phase} event is {}, but by the \
                             terminal event's times it should be {}",
                            at(emitted),
                            at(recorded)
                        ),
                    );
                }
            }
            // The backend acquires work no earlier than it was handed it.
            if let Some((_, sub)) = a.submitted.filter(|s| times.submitted + TOL < s.1) {
                out.flag(
                    "E0808",
                    line,
                    format!(
                        "job {job} attempt {attempt} records submitted={}, before its \
                         submitted event at {sub}",
                        times.submitted
                    ),
                );
            }
            // Retry gap lower bound: the resubmission can be held by the
            // throttle but never runs before failure time + backoff.
            if let Some((_, _, rtime, backoff)) =
                retry.filter(|r| times.submitted + TOL < r.2 + r.3)
            {
                out.flag(
                    "E0805",
                    line,
                    format!(
                        "job {job} attempt {attempt} ran at submitted={}, before its \
                         scheduled earliest time {} (retry at {rtime} + backoff {backoff})",
                        times.submitted,
                        rtime + backoff
                    ),
                );
            }
            if let Some((reason, detail)) = failure.filter(|f| detail_reason(f.1) != f.0) {
                out.flag(
                    "E0808",
                    line,
                    format!(
                        "job {job} failure reason {reason:?} does not match its detail {detail:?}"
                    ),
                );
            }
            if self.opts.slot_capacity.is_some() {
                self.intervals.push((times.started, 1, line));
                self.intervals.push((times.finished, -1, line));
            }
        }

        /// Everything found so far: the prefix-closed verdict, which is
        /// all `lint --events` reports. Only a stream with no events at
        /// all is judged here, because no event could carry the finding.
        fn findings(mut self) -> Vec<Diagnostic> {
            if self.seen == 0 {
                self.out.flag(
                    "E0807",
                    0,
                    "stream contains no events (expected a workflow-started header)",
                );
            }
            self.out.diags
        }

        /// The complete-log contract: the prefix-closed findings plus what
        /// only the end of a stream can show — a manifest still open against
        /// the header's count, the missing trailer, the obligations a
        /// succeeded run leaves open (`E0801`), and the capacity sweep
        /// (`E0804`).
        fn finish(mut self) -> Vec<Diagnostic> {
            if self.seen == 0 {
                return self.findings();
            }
            self.close_manifest();
            match self.trailer {
                None => {
                    let message = "stream has no workflow-finished: verify requires complete logs";
                    self.out.flag("E0806", self.last_line, message).help = Some(
                        "for crashed or still-running runs use `pegasus lint --events`, \
                         which accepts truncated streams"
                            .into(),
                    );
                }
                Some((_, true)) => {
                    for (j, st) in self.jobs.iter().enumerate() {
                        let a = &st.attempt;
                        if let (Some((line, _)), false) = (a.submitted, a.terminal) {
                            self.out.flag(
                                "E0801",
                                line,
                                format!(
                                    "job {j} attempt {} was submitted but never reached a \
                                     terminal event on a succeeded run",
                                    a.number
                                ),
                            );
                        }
                        if let Some((next, line, ..)) = st.retry.filter(|r| r.0 >= st.next_attempt)
                        {
                            self.out.flag(
                                "E0801",
                                line,
                                format!(
                                    "job {j} scheduled a retry to attempt {next} that was \
                                     never resubmitted on a succeeded run"
                                ),
                            );
                        }
                    }
                }
                Some((_, false)) => {}
            }
            if let Some(cap) = self.opts.slot_capacity {
                sweep_capacity(&mut self.out, &mut self.intervals, cap);
            }
            self.findings()
        }
    }

    /// The mutation harness's field edit (`tests/verify_mutation.rs`):
    /// bump the attempt if the line has one, else shift its time by
    /// 1000 s, else bump the declared id, else flip the verdict.
    fn mutate_field(line: &str) -> String {
        let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
        for pass in 0..4 {
            for t in &mut toks {
                let bump = |key: &str| {
                    Some(format!(
                        "{key}{}",
                        t.strip_prefix(key)?.parse::<u32>().ok()? + 1
                    ))
                };
                let edited = match pass {
                    0 => bump("attempt=").or_else(|| bump("next-attempt=")),
                    1 => (t.strip_prefix("time=").and_then(|v| v.parse::<f64>().ok()))
                        .map(|x| format!("time={}", x + 1000.0)),
                    2 => bump("id="),
                    _ => t
                        .strip_prefix("succeeded=")
                        .map(|v| format!("succeeded={}", v != "true")),
                };
                if let Some(edited) = edited {
                    *t = edited;
                    return toks.join(" ");
                }
            }
        }
        panic!("no mutable field on line: {line}");
    }

    /// The harness's added field: at the end, or ahead of the `name=` /
    /// `detail=` that opens the line's free text.
    fn add_field(line: &str, field: &str) -> String {
        match [" name=", " detail="].iter().find_map(|t| line.find(t)) {
            Some(at) => format!("{} {field}{}", &line[..at], &line[at..]),
            None => format!("{line} {field}"),
        }
    }

    /// Both walkers over `text` as a verb reads it, under each of the four
    /// option sets: the same findings, in the same order, from `finish`
    /// and from `lint::prefix_findings`; and on a stream the lifecycle fold
    /// accepts, the walker's run is `replay`'s.
    fn agrees(text: &str, cap: usize) {
        use crate::engine::RetryPolicy;
        use crate::events::{log, replay};
        let mut events = Vec::new();
        let read =
            log::read(text.as_bytes(), |line, ev| events.push((line, ev))).expect("in memory");
        let walk = |opts: &VerifyOptions| {
            let mut new = super::StreamWalker::new("run.events", opts.clone());
            let mut old = Walker::new("run.events", opts.clone());
            for (line, ev) in &events {
                new.event(*line, ev);
                old.event(*line, ev);
            }
            (new, old)
        };
        let policy = RetryPolicy::exponential(3, 7.0);
        for (slot_capacity, retry) in [
            (None, None),
            (Some(cap), None),
            (None, Some(policy.clone())),
            (Some(cap), Some(policy)),
        ] {
            let opts = VerifyOptions {
                slot_capacity,
                retry,
            };
            let (new, old) = walk(&opts);
            assert_eq!(new.finish(), old.finish(), "{opts:?}\n{text}");
            let (new, old) = walk(&opts);
            let truncated = (old.seen > 0 && old.trailer.is_none()).then_some(old.last_line);
            let want = old.findings();
            let got = crate::lint::prefix_findings(new);
            assert_eq!(got[..want.len().min(got.len())], want[..], "{text}");
            let w0707 = got[want.len()..].iter().map(|d| (d.code, d.span.line));
            assert!(w0707.eq(truncated.map(|line| ("W0707", line))), "{text}");
        }
        let streamed: Vec<WorkflowEvent> = events.iter().map(|(_, ev)| ev.clone()).collect();
        let Ok(replayed) = read.and_then(|_| replay(&streamed)) else {
            return;
        };
        let mut run = walk(&VerifyOptions::default()).0.run;
        if !matches!(
            streamed.last(),
            Some(WorkflowEvent::WorkflowFinished { .. })
        ) {
            // `RunFold::finish`'s crash trailer.
            let last = streamed
                .iter()
                .filter_map(WorkflowEvent::time)
                .fold(0.0, f64::max);
            run.apply(&WorkflowEvent::WorkflowFinished {
                succeeded: false,
                wall_time: last - run.start,
                time: last,
            });
        }
        let replayed = crate::engine::WorkflowRun {
            events: Vec::new(),
            ..replayed
        };
        assert_eq!(run, replayed, "{text}");
    }

    /// Line `i` of `lines` under the harness's edit number `edit`:
    /// dropped, duplicated, swapped with the next line if that is an
    /// event too, one field mutated, a field no event has added, or the
    /// first field repeated.
    fn edited(lines: &[String], i: usize, edit: u8) -> String {
        let mut edited = lines.to_vec();
        match edit {
            0 => drop(edited.remove(i)),
            1 => edited.insert(i + 1, lines[i].clone()),
            2 if lines.get(i + 1).is_some_and(|l| !l.starts_with('#')) => edited.swap(i, i + 1),
            2 => {}
            3 => edited[i] = mutate_field(&lines[i]),
            4 => edited[i] = add_field(&lines[i], "x=1"),
            _ => {
                let first = lines[i].split_whitespace().nth(1);
                edited[i] = add_field(&lines[i], &format!("{}1", first.expect("a field")));
            }
        }
        edited.join("\n")
    }

    /// The event lines of a log.
    fn event_lines(lines: &[String]) -> Vec<usize> {
        (0..lines.len())
            .filter(|&i| !lines[i].starts_with('#'))
            .collect()
    }

    #[test]
    fn every_engine_log_as_written_is_judged_as_the_oracle_judged_it() {
        for lines in crate::events::tests::engine_logs() {
            agrees(&lines.join("\n"), 1);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(1000))]

        /// Every engine log under one of the harness's edits.
        #[test]
        fn the_record_backed_walker_finds_what_the_oracle_found(
            which in proptest::arbitrary::any::<usize>(),
            at in proptest::arbitrary::any::<usize>(),
            edit in 0u8..6,
            cap in 0usize..4,
        ) {
            let mut logs = crate::events::tests::engine_logs();
            let lines = logs.swap_remove(which % logs.len());
            let events = event_lines(&lines);
            agrees(&edited(&lines, events[at % events.len()], edit), cap);
        }
    }

    /// The proptest's domain walked whole: every edit of every event
    /// line of every engine log, under three slot capacities.
    #[test]
    #[ignore = "7,000 streams; run with -- --ignored"]
    fn every_single_edit_of_every_engine_log_is_judged_as_the_oracle_judged_it() {
        for lines in crate::events::tests::engine_logs() {
            for i in event_lines(&lines) {
                for edit in 0..6 {
                    let text = edited(&lines, i, edit);
                    for cap in [0, 1, 3] {
                        agrees(&text, cap);
                    }
                }
            }
        }
    }

    /// Where the record and the oracle's own state part: streams broken
    /// in two places or more, never by one of the harness's edits. Each
    /// still draws findings from both; the record-backed walker judges a
    /// submission against the one before it, and a skip, a retry or the
    /// trailer's verdict against the job's state as `replay` leaves it.
    #[test]
    fn a_stream_broken_twice_is_judged_against_the_record() {
        const HEAD: &str = "workflow-started time=0 jobs=1 site=osg name=w\n\
                            job id=0 kind=compute transformation=split name=a\n";
        const FAIL0: &str = "failed job=0 attempt=0 reason=preempted submitted=0 started=0 \
                             install-done=0 finished=2 detail=preempted:storm\n";
        let run = |attempt: &str| format!("submitted time=0 job=0 attempt={attempt}\n");
        let done = "completed job=0 attempt=0 submitted=0 started=0 install-done=0 finished=2\n";
        let retry = "retry-scheduled time=2 job=0 next-attempt=1 backoff=0 reason=preempted \
                     detail=preempted:storm\n";
        let finished = "workflow-finished time=2 wall-time=2 succeeded=true\n";
        let cases = [
            // Attempts 1, 0, 2: the third follows 0, not the highest.
            (
                [HEAD, &run("1"), &run("0"), done, &run("2"), finished].concat(),
                vec!["job 0 submitted at attempt 2, expected 1 (attempts must be dense and strictly increasing)"],
                vec![],
            ),
            // A completed attempt that then fails leaves the job failed.
            (
                [HEAD, &run("0"), done, FAIL0, finished].concat(),
                vec!["workflow-finished claims success, but not every job completed"],
                vec![],
            ),
            // A skipped job retried is unresolved again, not still skipped.
            (
                [HEAD, "skipped time=0 job=0\n", &run("0"), FAIL0, retry, &run("1")].concat(),
                vec![],
                vec!["job 0 submitted after being skipped"],
            ),
            // The record's count saturates at the largest attempt a log
            // can name.
            (
                [HEAD, &run("4294967295"), &run("0")].concat(),
                vec!["job 0 submitted at attempt 0 while attempt 4294967294 has no terminal event"],
                vec!["job 0 submitted at attempt 0 while attempt 4294967295 has no terminal event"],
            ),
        ];
        for (text, new_only, old_only) in cases {
            let events = crate::events::log::parse_lines(&text).expect("parses");
            let opts = VerifyOptions::default();
            let mut new = super::StreamWalker::new("run.events", opts.clone());
            let mut old = Walker::new("run.events", opts);
            for (line, ev) in &events {
                new.event(*line, ev);
                old.event(*line, ev);
            }
            let (new, old) = (new.finish(), old.finish());
            let only = |a: &[Diagnostic], b: &[Diagnostic]| -> Vec<String> {
                let found = |d: &Diagnostic| {
                    b.iter()
                        .any(|e| (e.span, &e.message) == (d.span, &d.message))
                };
                a.iter()
                    .filter(|d| !found(d))
                    .map(|d| d.message.clone())
                    .collect()
            };
            assert!(!new.is_empty() && !old.is_empty(), "{text}");
            assert_eq!(only(&new, &old), new_only, "{text}");
            assert_eq!(only(&old, &new), old_only, "{text}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::paper_catalogs;
    use crate::engine::scripted::ScriptedBackend;
    use crate::engine::{Engine, EngineConfig, NoopMonitor, RetryPolicy};
    use crate::events::log;
    use crate::lint::RULES;
    use crate::planner::{plan, PlannerConfig};
    use crate::workflow::declare_job;

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

    /// `CLEAN` with job 1's terminal event dropped.
    fn unterminated() -> String {
        CLEAN.replace(
            "completed job=1 attempt=0 submitted=0 started=2 install-done=2 finished=4\n",
            "",
        )
    }

    /// `CLEAN` with job 1's first attempt submitted twice.
    fn resubmitted() -> String {
        CLEAN.replace(
            "submitted time=0 job=1 attempt=0\n",
            "submitted time=0 job=1 attempt=0\nsubmitted time=0 job=1 attempt=0\n",
        )
    }

    /// An attempt that completes without having started.
    const NEVER_STARTED: &str = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=a
submitted time=0 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=1 install-done=1 finished=2
workflow-finished time=2 wall-time=2 succeeded=true
";

    /// A retry resubmitted before its backoff elapsed.
    const EARLY_RESUBMISSION: &str = "\
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

    /// A failure whose reason is not the one its detail opens with.
    const REASON_MISMATCH: &str = "\
workflow-started time=0 jobs=1 site=osg name=w
job id=0 kind=compute transformation=split name=a
submitted time=0 job=0 attempt=0
started time=1 job=0 attempt=0
failed job=0 attempt=0 reason=evicted submitted=0 started=1 install-done=1 finished=2 detail=preempted:storm
workflow-finished time=2 wall-time=2 succeeded=false
";

    /// The corrupted streams of this module's tests, together, raise
    /// every `E08xx` invariant the rule registry names: the registry
    /// holds no invariant that nothing checks.
    #[test]
    fn every_registered_invariant_is_raised_by_some_stream() {
        let one_slot = VerifyOptions {
            slot_capacity: Some(1),
            retry: None,
        };
        let default = VerifyOptions::default;
        let streams = [
            (unterminated(), default()),
            (resubmitted(), default()),
            (NEVER_STARTED.to_string(), default()),
            (CLEAN.to_string(), one_slot),
            (EARLY_RESUBMISSION.to_string(), default()),
            (CLEAN.replace("jobs=2", "jobs=3"), default()),
            (REASON_MISMATCH.to_string(), default()),
        ];
        let mut raised = std::collections::BTreeSet::new();
        for (text, opts) in &streams {
            let events = log::parse_lines(text).unwrap();
            raised.extend(codes(&check_stream(&events, "run.events", opts)));
        }
        raised.extend(check_trace_match(None, TraceId::new(1), "m0.events").map(|d| d.code));
        let registered = RULES
            .iter()
            .map(|r| r.code)
            .filter(|c| c.starts_with("E08"));
        assert_eq!(raised, registered.collect());
    }

    /// The walker reports under the `E08xx` codes alone, to `lint` as
    /// to `verify`: the `E07` range holds only what is raised outside
    /// it, the truncation warning and the parse failure.
    #[test]
    fn the_stream_range_holds_only_the_truncation_and_parse_rules() {
        let stream = RULES
            .iter()
            .map(|r| r.code)
            .filter(|c| c[1..].starts_with("07"));
        assert_eq!(stream.collect::<Vec<_>>(), ["W0707", "E0708"]);
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
        let diags = verify_text(&unterminated());
        assert!(codes(&diags).contains(&"E0801"), "{diags:?}");
        assert!(codes(&diags).contains(&"E0806"), "{diags:?}");
    }

    #[test]
    fn attempt_regression_and_phase_precedence() {
        assert!(codes(&verify_text(&resubmitted())).contains(&"E0802"));
        assert!(codes(&verify_text(NEVER_STARTED)).contains(&"E0803"));
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
        // A capacity of 0 holds no attempt: the first one is over it.
        let opts = VerifyOptions {
            slot_capacity: Some(0),
            retry: None,
        };
        let diags = check_stream(&events, "run.events", &opts);
        assert_eq!(codes(&diags), ["E0804"]);
        assert_eq!(diags[0].span.line, 9, "job 0's attempt starts first");
    }

    #[test]
    fn retry_envelope_violations_are_flagged() {
        let text = EARLY_RESUBMISSION;
        // Resubmission ran at submitted=3 < retry time 2 + backoff 10.
        assert!(
            codes(&verify_text(text)).contains(&"E0805"),
            "{:?}",
            verify_text(text)
        );

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
        assert!(codes(&verify_text(REASON_MISMATCH)).contains(&"E0808"));
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
        let mut shadow = StreamWalker::new("<live>", VerifyOptions::default());
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &exec,
            &EngineConfig::default(),
            &mut shadow,
        );
        assert!(run.succeeded());
        assert_eq!(shadow.seen(), run.events.len(), "trailer included");
        assert!(shadow.finish().is_empty());
    }

    #[test]
    fn dataflow_pass_flags_hand_built_plans() {
        let mut wf = AbstractWorkflow::new("w");
        declare_job(
            &mut wf,
            "consume",
            "cat",
            1.0,
            &[("ghost.in", 10)],
            &[("out.txt", 5)],
        );
        let (sites, tc) = paper_catalogs();
        let rc = ReplicaCatalog::new();
        let mut bare = PlannerConfig::for_site("sandhills");
        bare.stage_data = false;
        let exec = plan(&wf, &sites, &tc, &rc, &bare).unwrap();
        let diags = check_plan(
            &wf,
            &exec,
            &rc,
            "sandhills",
            "w.dax",
            &DataflowOptions::default(),
        );
        assert_eq!(codes(&diags), ["E0601"], "{diags:?}");

        // With staging enabled the planner discharges the obligation.
        let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
        let diags = check_plan(
            &wf,
            &exec,
            &rc,
            "sandhills",
            "w.dax",
            &DataflowOptions::default(),
        );
        assert!(diags.is_empty(), "{diags:?}");

        // A replica at the site discharges it, too.
        let mut rc = ReplicaCatalog::new();
        rc.register("ghost.in", "sandhills");
        let exec = plan(&wf, &sites, &tc, &rc, &bare).unwrap();
        let diags = check_plan(
            &wf,
            &exec,
            &rc,
            "sandhills",
            "w.dax",
            &DataflowOptions::default(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn storage_footprint_bound_is_swept() {
        let mut wf = AbstractWorkflow::new("w");
        let big = ("big.bin", 1000);
        declare_job(&mut wf, "make", "gen", 1.0, &[], &[big]);
        declare_job(&mut wf, "use", "cat", 1.0, &[big], &[("small.out", 10)]);
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
        };
        let diags = check_ensemble_feasibility(&members, &dead, "serve");
        assert_eq!(codes(&diags), ["E0605", "E0605"]);

        let narrow = EnsembleConfig {
            slot_budget: Some(64),
            tenant_slots: Some(2),
        };
        let diags = check_ensemble_feasibility(&members, &narrow, "serve");
        assert_eq!(codes(&diags), ["W0606"]);

        let fine = EnsembleConfig {
            slot_budget: Some(64),
            tenant_slots: Some(8),
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
