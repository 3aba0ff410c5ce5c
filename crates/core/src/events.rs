//! The event-sourced provenance core.
//!
//! Pegasus derives every number it reports from one provenance chain:
//! kickstart records are parsed by `pegasus-monitord` into a
//! statistics database that `pegasus-statistics` and
//! `pegasus-analyzer` later query offline. This module is that chain's
//! equivalent: the engine emits one typed, append-only
//! [`WorkflowEvent`] stream at every job state transition, and the
//! downstream layers — [`crate::monitor`], [`crate::statistics`],
//! [`crate::rescue`], [`crate::analyzer`], and the Condor job log —
//! are pure consumers of it:
//!
//! * the stream rides along on every [`WorkflowRun`] (its `events`
//!   field);
//! * [`replay`] folds a stream back into a full [`WorkflowRun`], so
//!   statistics, analysis, and rescue DAGs can be recomputed offline
//!   from a log alone;
//! * [`EventSink`] is the one observer hook: the engine hands every
//!   event to the sink it was given as it emits it, trailer included,
//!   so a sink fed a recorded stream sees exactly what it saw live;
//! * [`log`] is a line-oriented text format (one `keyword
//!   key=value...` line per event in the [`crate::line`] grammar, no
//!   serde) written whole by [`log::write`] (`pegasus run --events`)
//!   or as the run goes by the sink [`log::LogWriter`] (the daemon's
//!   member logs), and read back by `pegasus statistics
//!   --from-events` / `pegasus analyze --from-events`.
//!
//! Timestamps are backend seconds (simulated or real), exactly as the
//! engine observed them. Free-text fields (workflow and job names,
//! failure details) end their line and lose only a line break, which
//! is written as a space; the two names that sit mid-line, a site and
//! a transformation, are written as [`crate::line`] tokens and read
//! back whatever they hold.

use crate::engine::{
    FailedAttempt, FailureChain, FaultReason, JobRecord, JobState, JobTimes, WorkflowRun,
};
use crate::error::{Format, Span, WmsError};
use crate::planner::JobKind;
use crate::rescue::RescueDag;
use crate::symbols::Name;
use crate::workflow::JobId;

/// One entry of the append-only provenance stream.
///
/// The engine emits these in strict causal order: a
/// [`WorkflowStarted`] header, one [`JobDeclared`] per job (the
/// manifest replay needs to reconstruct jobs that never ran), then the
/// per-attempt lifecycle events, and finally one [`WorkflowFinished`]
/// trailer.
///
/// [`WorkflowStarted`]: WorkflowEvent::WorkflowStarted
/// [`JobDeclared`]: WorkflowEvent::JobDeclared
/// [`WorkflowFinished`]: WorkflowEvent::WorkflowFinished
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowEvent {
    /// The run began: the stream header carrying the workflow identity
    /// and its execution site (events after this one omit the site).
    WorkflowStarted {
        /// Workflow name.
        name: Name,
        /// Execution site handle.
        site: Name,
        /// Number of jobs in the executable workflow: a [`JobId`] is a
        /// `u32`, so no workflow has more.
        jobs: u32,
        /// Backend time at workflow start.
        time: f64,
    },
    /// The static description of one job — emitted for *every* job up
    /// front, so a replayed run has records even for jobs that never
    /// became ready.
    JobDeclared {
        /// Job index in the executable workflow.
        job: JobId,
        /// Display name (the planned job's handle, not a copy).
        name: Name,
        /// Transformation name (likewise shared).
        transformation: Name,
        /// Job role.
        kind: JobKind,
    },
    /// The job was skipped because a rescue DAG marked it done.
    Skipped {
        /// Which job.
        job: JobId,
        /// Backend time of the skip (the workflow start).
        time: f64,
    },
    /// An attempt was handed to the backend.
    Submitted {
        /// Which job.
        job: JobId,
        /// Which attempt (0-based).
        attempt: u32,
        /// Backend time of the submission.
        time: f64,
    },
    /// The attempt acquired a slot and began its download/install
    /// phase. Only emitted when the attempt had a non-empty install
    /// phase.
    InstallStarted {
        /// Which job.
        job: JobId,
        /// Which attempt (0-based).
        attempt: u32,
        /// Backend time the slot was acquired.
        time: f64,
    },
    /// The attempt began actual execution (its kickstart phase).
    Started {
        /// Which job.
        job: JobId,
        /// Which attempt (0-based).
        attempt: u32,
        /// Backend time execution began (== slot acquisition when
        /// there was no install phase).
        time: f64,
    },
    /// The attempt succeeded; the job is done.
    Completed {
        /// Which job.
        job: JobId,
        /// Which attempt (0-based).
        attempt: u32,
        /// Full timestamps of the successful attempt.
        times: JobTimes,
    },
    /// The attempt failed for a non-timeout reason.
    Failed {
        /// Which job.
        job: JobId,
        /// Which attempt (0-based).
        attempt: u32,
        /// Typed failure category.
        reason: FaultReason,
        /// The backend's full wire-format reason string (e.g.
        /// `"preempted:storm"`), shared with the retry it triggers and
        /// the job's record.
        detail: Name,
        /// Timestamps of the failed attempt, boxed: a fault-free run has
        /// no failures, and unboxed they would make every event 16
        /// bytes larger.
        times: Box<JobTimes>,
    },
    /// The attempt exceeded the retry policy's per-attempt wall-clock
    /// timeout (the typed category is always [`FaultReason::Timeout`]).
    TimedOut {
        /// Which job.
        job: JobId,
        /// Which attempt (0-based).
        attempt: u32,
        /// The backend's full wire-format reason string (e.g.
        /// `"timeout: exceeded 600s"`).
        detail: Name,
        /// Timestamps of the killed attempt, boxed as in `Failed`.
        times: Box<JobTimes>,
    },
    /// A failed attempt will be resubmitted after a backoff delay.
    RetryScheduled {
        /// Which job.
        job: JobId,
        /// The attempt number of the resubmission (0-based).
        next_attempt: u32,
        /// Backoff delay before the resubmission, in backend seconds.
        backoff: f64,
        /// Typed category of the failure being retried.
        reason: FaultReason,
        /// The failure's full wire-format reason string.
        detail: Name,
        /// Backend time the retry was scheduled.
        time: f64,
    },
    /// The run ended: the stream trailer.
    WorkflowFinished {
        /// `true` if every job completed.
        succeeded: bool,
        /// Workflow Wall Time, in backend seconds.
        wall_time: f64,
        /// Backend time at workflow end.
        time: f64,
    },
}

impl WorkflowEvent {
    /// The backend timestamp this event carries: the terminal events'
    /// `times.finished`, the explicit `time` elsewhere, and `None` for
    /// the timeless [`WorkflowEvent::JobDeclared`] manifest entries.
    pub(crate) fn time(&self) -> Option<f64> {
        match self {
            WorkflowEvent::WorkflowStarted { time, .. }
            | WorkflowEvent::Skipped { time, .. }
            | WorkflowEvent::Submitted { time, .. }
            | WorkflowEvent::InstallStarted { time, .. }
            | WorkflowEvent::Started { time, .. }
            | WorkflowEvent::RetryScheduled { time, .. }
            | WorkflowEvent::WorkflowFinished { time, .. } => Some(*time),
            WorkflowEvent::Completed { times, .. } => Some(times.finished),
            WorkflowEvent::Failed { times, .. } | WorkflowEvent::TimedOut { times, .. } => {
                Some(times.finished)
            }
            WorkflowEvent::JobDeclared { .. } => None,
        }
    }

    /// The stream-ordering model of the `E0808` emission-order clause:
    /// the backend time at which the engine *wrote* this event, for the
    /// kinds written in nondecreasing time order.
    ///
    /// Healthy engine streams are not globally monotone over every
    /// `time=` field: `InstallStarted` and `Started` are synthesized
    /// retrospectively when an attempt completes, carrying the
    /// attempt's earlier timestamps, so under parallel execution a
    /// later-finishing job's start legitimately appears after an
    /// earlier completion.  Those two kinds — and the timeless
    /// [`WorkflowEvent::JobDeclared`] manifest entries — return `None`
    /// and do not constrain stream order.  Terminal events order by
    /// their `times.finished`.
    pub(crate) fn emission_time(&self) -> Option<f64> {
        match self {
            WorkflowEvent::WorkflowStarted { time, .. }
            | WorkflowEvent::WorkflowFinished { time, .. }
            | WorkflowEvent::Skipped { time, .. }
            | WorkflowEvent::Submitted { time, .. }
            | WorkflowEvent::RetryScheduled { time, .. } => Some(*time),
            WorkflowEvent::Completed { times, .. } => Some(times.finished),
            WorkflowEvent::Failed { times, .. } | WorkflowEvent::TimedOut { times, .. } => {
                Some(times.finished)
            }
            WorkflowEvent::JobDeclared { .. }
            | WorkflowEvent::InstallStarted { .. }
            | WorkflowEvent::Started { .. } => None,
        }
    }

    /// How an attempt ended, when this is the event that ended it
    /// (`Completed`, `Failed` or `TimedOut`): the one place that knows
    /// a timed-out attempt is a failure of category
    /// [`FaultReason::Timeout`].
    pub fn termination(&self) -> Option<Termination<'_>> {
        let (job, attempt, times, failure) = match self {
            WorkflowEvent::Completed {
                job,
                attempt,
                times,
            } => (job, attempt, times, None),
            WorkflowEvent::Failed {
                job,
                attempt,
                reason,
                detail,
                times,
            } => (job, attempt, &**times, Some((*reason, detail))),
            WorkflowEvent::TimedOut {
                job,
                attempt,
                detail,
                times,
            } => {
                let failure = (FaultReason::Timeout, detail);
                (job, attempt, &**times, Some(failure))
            }
            _ => return None,
        };
        Some(Termination {
            job: *job,
            attempt: *attempt,
            times,
            failure,
        })
    }

    /// The job this event is about; `None` for the header and trailer.
    pub(crate) fn job(&self) -> Option<JobId> {
        match self {
            WorkflowEvent::JobDeclared { job, .. }
            | WorkflowEvent::Skipped { job, .. }
            | WorkflowEvent::Submitted { job, .. }
            | WorkflowEvent::InstallStarted { job, .. }
            | WorkflowEvent::Started { job, .. }
            | WorkflowEvent::Completed { job, .. }
            | WorkflowEvent::Failed { job, .. }
            | WorkflowEvent::TimedOut { job, .. }
            | WorkflowEvent::RetryScheduled { job, .. } => Some(*job),
            WorkflowEvent::WorkflowStarted { .. } | WorkflowEvent::WorkflowFinished { .. } => None,
        }
    }
}

/// The end of one attempt, as [`WorkflowEvent::termination`] reads it
/// off a terminal event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Termination<'a> {
    /// Which job.
    pub job: JobId,
    /// Which attempt (0-based).
    pub attempt: u32,
    /// The attempt's timestamps.
    pub times: &'a JobTimes,
    /// `None` when the attempt succeeded; otherwise the typed failure
    /// category and the backend's wire-format reason string.
    pub failure: Option<(FaultReason, &'a Name)>,
}

/// A consumer of the event stream — the only way to observe a run.
///
/// [`Engine::run`] hands its sink every event as it is emitted, from
/// the `WorkflowStarted` header and `JobDeclared` manifest through to
/// the `WorkflowFinished` trailer, so feeding a recorded stream back
/// through a sink reproduces exactly what it saw live. A sink that
/// needs job names, transformations or kinds takes them from the
/// manifest. Pass [`NoopMonitor`] when nothing listens.
///
/// [`Engine::run`]: crate::engine::Engine::run
/// [`NoopMonitor`]: crate::engine::NoopMonitor
pub trait EventSink {
    /// Consumes one event.
    fn event(&mut self, ev: &WorkflowEvent);

    /// Consumes the events one step of the run emitted, in order: how
    /// `Engine::run` hands them over. By default, one by one.
    fn events(&mut self, batch: &[WorkflowEvent]) {
        batch.iter().for_each(|ev| self.event(ev));
    }
}

/// One event's breach of the framing rule, as [`Framing::step`] names
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Misframed {
    /// The event arrived before any `WorkflowStarted` header.
    NoHeader,
    /// A `WorkflowStarted` header arrived after the stream's first.
    SecondHeader,
    /// A `JobDeclared` whose id is not the number of jobs declared
    /// before it.
    OutOfOrder {
        /// The declared id.
        job: JobId,
        /// The id the manifest's next entry must carry.
        expected: usize,
    },
    /// An event naming a job no earlier `JobDeclared` declared.
    Undeclared {
        /// The referenced id.
        job: JobId,
        /// How many jobs were declared before the event.
        declared: usize,
    },
}

impl std::fmt::Display for Misframed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Misframed::NoHeader => write!(f, "no workflow-started header opens the stream"),
            Misframed::SecondHeader => write!(f, "second workflow-started in one stream"),
            Misframed::OutOfOrder { job, expected } => {
                write!(f, "job {job} declared out of order (expected {expected})")
            }
            Misframed::Undeclared { job, declared } => {
                write!(
                    f,
                    "event references undeclared job {job} ({declared} declared)"
                )
            }
        }
    }
}

/// The framing rule every consumer of a stream indexes by, written
/// once: the `WorkflowStarted` header comes first and only once, jobs
/// are declared in id order, and every other event names a job
/// declared before it. [`RunFold`] holds the first breach; the
/// `E08xx` walker in [`crate::verify`] reports each one with its line.
#[derive(Debug, Default)]
pub(crate) struct Framing {
    header: Header,
    declared: usize,
}

#[derive(Debug, Default, PartialEq)]
enum Header {
    #[default]
    Awaited,
    /// Reported missing; a late header is still taken as the header.
    Missing,
    Seen,
}

impl Framing {
    /// Advances over one event. An event that breaches a manifest
    /// clause declares nothing; [`Misframed::NoHeader`] is returned
    /// once, for the first otherwise well-framed event ahead of the
    /// header, and that event still counts.
    pub(crate) fn step(&mut self, ev: &WorkflowEvent) -> Result<(), Misframed> {
        if matches!(ev, WorkflowEvent::WorkflowStarted { .. }) {
            return match std::mem::replace(&mut self.header, Header::Seen) {
                Header::Seen => Err(Misframed::SecondHeader),
                _ => Ok(()),
            };
        }
        let declared = self.declared;
        match ev.job() {
            Some(job) if matches!(ev, WorkflowEvent::JobDeclared { .. }) => {
                if job.idx() != declared {
                    let expected = declared;
                    return Err(Misframed::OutOfOrder { job, expected });
                }
                self.declared += 1;
            }
            Some(job) if job.idx() >= declared => {
                return Err(Misframed::Undeclared { job, declared });
            }
            _ => {}
        }
        if self.header == Header::Awaited {
            self.header = Header::Missing;
            return Err(Misframed::NoHeader);
        }
        Ok(())
    }
}

/// Checks a whole stream against the [`Framing`] rule.
///
/// # Errors
/// Returns [`WmsError::Parse`] naming the first violation.
pub(crate) fn validate(events: &[WorkflowEvent]) -> Result<(), WmsError> {
    let mut framing = Framing::default();
    let breach = events.iter().find_map(|ev| framing.step(ev).err());
    framing.verdict(breach)
}

impl Framing {
    /// The verdict on a stream whose first breach was `breach`: a stream
    /// with no header at all is one more. Framing is about the stream,
    /// wherever its events were read from, so the error has no span.
    fn verdict(&self, breach: Option<Misframed>) -> Result<(), WmsError> {
        let headless = (self.header != Header::Seen).then_some(Misframed::NoHeader);
        let error = |breach: Misframed| Format::EventLog.error(Span::none(), breach.to_string());
        breach
            .or(headless)
            .map_or(Ok(()), |breach| Err(error(breach)))
    }
}

impl WorkflowRun {
    /// The job-lifecycle state machine: advances every field but
    /// `events` by one event. The engine, [`replay`] and the `E08xx`
    /// walker each apply it, so the three agree by construction.
    ///
    /// # Panics
    /// Panics when `ev` names a job no earlier `JobDeclared` event
    /// declared: a stream from outside passes [`Framing`] first.
    pub(crate) fn apply(&mut self, ev: &WorkflowEvent) {
        if let Some(end) = ev.termination() {
            let rec = &mut self.records[end.job.idx()];
            match end.failure {
                None => {
                    rec.state = JobState::Done;
                    rec.times = Some(*end.times);
                }
                Some((reason, detail)) => {
                    rec.state = JobState::Failed;
                    let failure = FailedAttempt {
                        attempt: end.attempt,
                        times: *end.times,
                        reason,
                        detail: detail.clone(),
                    };
                    self.push_failure(end.job, failure);
                }
            }
            return;
        }
        match ev {
            WorkflowEvent::WorkflowStarted {
                name,
                site,
                jobs,
                time,
            } => {
                (self.name, self.site) = (name.to_string(), site.to_string());
                self.start = *time;
                // A header is believed up to 2^20 jobs.
                self.records.reserve((*jobs as usize).min(1 << 20));
            }
            WorkflowEvent::JobDeclared {
                name,
                transformation,
                kind,
                ..
            } => self.records.push(JobRecord {
                name: name.clone(),
                transformation: transformation.clone(),
                kind: *kind,
                state: JobState::Unready,
                attempts: 0,
                times: None,
                failures: FailureChain::NONE,
            }),
            WorkflowEvent::Skipped { job, .. } => {
                self.records[job.idx()].state = JobState::SkippedDone;
            }
            WorkflowEvent::Submitted { job, attempt, .. } => {
                self.records[job.idx()].attempts = attempt.saturating_add(1);
            }
            // The end of an attempt was folded above, through
            // `termination`.
            WorkflowEvent::InstallStarted { .. }
            | WorkflowEvent::Started { .. }
            | WorkflowEvent::Completed { .. }
            | WorkflowEvent::Failed { .. }
            | WorkflowEvent::TimedOut { .. } => {}
            WorkflowEvent::RetryScheduled { job, backoff, .. } => {
                self.backoff_wait += backoff;
                // The failure above was not terminal after all: until
                // the resubmission terminates, the job counts as not
                // yet resolved, which is also what a crash leaves
                // behind for in-flight retries.
                self.records[job.idx()].state = JobState::Unready;
            }
            WorkflowEvent::WorkflowFinished {
                succeeded,
                wall_time,
                ..
            } => {
                self.wall_time = *wall_time;
                self.succeeded = *succeeded;
            }
        }
    }
}

/// The lifecycle fold of a stream from outside, one event at a time:
/// the framing step, then the engine's own `apply`. Nothing after the
/// first breach is applied, so no stream reaches `apply`'s panic, and
/// [`RunFold::finish`] reports the breach once the stream has ended,
/// after anything its reader found.
#[derive(Debug, Default)]
pub struct RunFold {
    framing: Framing,
    breach: Option<Misframed>,
    run: WorkflowRun,
    /// The latest time of any event.
    last: f64,
    /// Whether the latest event was a trailer.
    closed: bool,
}

impl RunFold {
    /// Whether the stream so far ends with a `workflow-finished`
    /// trailer: a log without one is a run whose submit host died.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// The run the stream records. A stream cut before its trailer (a
    /// genuine submit-host crash, as opposed to the engine's scripted
    /// crash, which still writes the trailer) folds as a failed run
    /// that ended at its last event.
    ///
    /// # Errors
    /// Returns [`WmsError::Parse`] when the stream is not a valid
    /// engine emission: no `WorkflowStarted` header first, out-of-order
    /// job declarations, or lifecycle events referencing undeclared
    /// jobs.
    pub fn finish(mut self) -> Result<WorkflowRun, WmsError> {
        self.framing.verdict(self.breach)?;
        if !self.closed {
            self.run.apply(&WorkflowEvent::WorkflowFinished {
                succeeded: false,
                wall_time: self.last - self.run.start,
                time: self.last,
            });
        }
        Ok(self.run)
    }
}

impl EventSink for RunFold {
    fn event(&mut self, ev: &WorkflowEvent) {
        self.closed = matches!(ev, WorkflowEvent::WorkflowFinished { .. });
        self.last = ev.time().map_or(self.last, |time| self.last.max(time));
        if self.breach.is_none() {
            self.breach = self.framing.step(ev).err();
        }
        if self.breach.is_some() {
            return;
        }
        self.run.apply(ev);
    }
}

/// A [`RunFold`] fed a whole stream.
pub(crate) fn fed(events: &[WorkflowEvent]) -> RunFold {
    let mut fold = RunFold::default();
    events.iter().for_each(|ev| fold.event(ev));
    fold
}

/// Folds an event stream back into the [`WorkflowRun`] the engine
/// produced live — job records, failure table, backoff, wall time and
/// verdict are all reconstructed, so
/// [`crate::statistics::compute`], [`crate::analyzer::analyze`], and
/// rescue resubmission work from a log alone.
///
/// # Errors
/// Returns [`WmsError::Parse`] when [`RunFold::finish`] does.
pub fn replay(events: &[WorkflowEvent]) -> Result<WorkflowRun, WmsError> {
    let mut run = fed(events).finish()?;
    run.events = events.to_vec();
    Ok(run)
}

/// Rebuilds the rescue DAG of a failed (or crashed/truncated) run from
/// its event stream alone; `None` when the stream records a success.
///
/// # Errors
/// Returns [`WmsError::Parse`] when [`replay`] rejects the
/// stream.
pub fn rescue_from_events(events: &[WorkflowEvent]) -> Result<Option<RescueDag>, WmsError> {
    let run = fed(events).finish()?;
    Ok((!run.succeeded()).then(|| RescueDag::of(&run)))
}

pub mod log {
    //! The line-oriented event-log text format.
    //!
    //! One event per line, `keyword key=value ...`, read by the shared
    //! [`crate::line`] grammar: whitespace-separated `key=value`
    //! fields, `#` comments and blank lines skipped, an unknown or
    //! repeated field refused, parse errors carrying one-based line
    //! numbers. Free-text fields (`name=`, `detail=`) are always the
    //! last field of their line and consume the rest of it verbatim,
    //! so job names with spaces survive.
    //! Timestamps are written with Rust's shortest round-tripping
    //! float representation, so `parse(&write(events))` reproduces the
    //! stream exactly.

    use super::{EventSink, WorkflowEvent};
    use crate::engine::{FaultReason, JobTimes};
    use crate::error::{Format, WmsError};
    use crate::line::{Field, Fields, Line, Value, Writer};
    use crate::planner::JobKind;
    use crate::symbols::{Name, NamePool};
    use crate::trace::TraceId;
    use crate::workflow::JobId;
    use std::borrow::Cow;
    use std::io::{self, Read as _};

    /// The version-stamped comment heading every written log.
    pub(crate) const HEADER: &str = "# pegasus event log v1";

    /// Serializes an event stream to the text format, one line per
    /// event under a version-comment header.
    pub fn write(events: &[WorkflowEvent]) -> String {
        let mut out = header(None);
        render(&mut out, events);
        out
    }

    /// The header lines: [`HEADER`], then the `# trace id=<16-hex>`
    /// comment when the log carries an id. Every parser skips the
    /// comment, so a traced log's events are an untraced one's.
    fn header(trace: Option<TraceId>) -> String {
        match trace {
            Some(id) => format!("{HEADER}\n# trace id={id}\n"),
            None => format!("{HEADER}\n"),
        }
    }

    /// One [`Writer`], so one float memo, serves a whole call. A line
    /// of a fault-free log comes to 72 bytes, rounded up.
    fn render(out: &mut String, events: &[WorkflowEvent]) {
        out.reserve(72 * events.len());
        let w = &mut Writer::new(out);
        events.iter().for_each(|ev| write_event(w, ev));
    }

    /// The event log written as the run goes, [`write()`]'s bytes plus
    /// the trace comment: the header when it is made, then each batch
    /// it is handed as an [`EventSink`], passed to `out` with one
    /// `write_all`. The first failed write is kept, and nothing is
    /// written after it. A batch's text is dropped once written: the
    /// daemon holds one writer per member of a round.
    pub struct LogWriter<W: io::Write> {
        out: W,
        error: Option<io::Error>,
    }

    impl<W: io::Write> LogWriter<W> {
        /// Writes the header to `out`, with the trace comment when
        /// `trace` is given.
        ///
        /// # Errors
        /// The error of the header's write.
        pub fn new(mut out: W, trace: Option<TraceId>) -> io::Result<Self> {
            out.write_all(header(trace).as_bytes())?;
            Ok(LogWriter { out, error: None })
        }

        /// The first write that failed, if one has.
        pub fn error(&self) -> Option<&io::Error> {
            self.error.as_ref()
        }
    }

    impl<W: io::Write> EventSink for LogWriter<W> {
        fn event(&mut self, ev: &WorkflowEvent) {
            self.events(std::slice::from_ref(ev));
        }

        fn events(&mut self, batch: &[WorkflowEvent]) {
            if batch.is_empty() || self.error.is_some() {
                return;
            }
            let mut text = String::new();
            render(&mut text, batch);
            self.error = self.out.write_all(text.as_bytes()).err();
        }
    }

    type Out<'w, 'o> = &'w mut Writer<'o>;

    fn put_job<'w, 'o>(w: Out<'w, 'o>, key: &str, job: JobId) -> Out<'w, 'o> {
        w.u64(key, job.idx() as u64)
    }

    fn put_attempt<'w, 'o>(w: Out<'w, 'o>, job: JobId, attempt: u32) -> Out<'w, 'o> {
        put_job(w, "job", job).u64("attempt", attempt.into())
    }

    fn put_times<'w, 'o>(w: Out<'w, 'o>, t: &JobTimes) -> Out<'w, 'o> {
        w.f64("submitted", t.submitted)
            .f64("started", t.started)
            .f64("install-done", t.install_done)
            .f64("finished", t.finished)
    }

    fn write_event(w: &mut Writer<'_>, ev: &WorkflowEvent) {
        use WorkflowEvent as E;
        match ev {
            E::WorkflowStarted {
                name,
                site,
                jobs,
                time,
            } => w
                .kw("workflow-started")
                .f64("time", *time)
                .u64("jobs", (*jobs).into())
                .token("site", site)
                .tail("name", name),
            E::JobDeclared {
                job,
                name,
                transformation,
                kind,
            } => put_job(w.kw("job"), "id", *job)
                .word("kind", kind.as_str())
                .token("transformation", transformation)
                .tail("name", name),
            E::Skipped { job, time } => put_job(w.kw("skipped").f64("time", *time), "job", *job),
            E::Submitted { job, attempt, time }
            | E::InstallStarted { job, attempt, time }
            | E::Started { job, attempt, time } => {
                let keyword = match ev {
                    E::Submitted { .. } => "submitted",
                    E::InstallStarted { .. } => "install-started",
                    _ => "started",
                };
                put_attempt(w.kw(keyword).f64("time", *time), *job, *attempt)
            }
            E::Completed {
                job,
                attempt,
                times,
            } => put_times(put_attempt(w.kw("completed"), *job, *attempt), times),
            E::Failed {
                job,
                attempt,
                reason,
                detail,
                times,
            } => {
                let w = put_attempt(w.kw("failed"), *job, *attempt).word("reason", reason.prefix());
                put_times(w, times).tail("detail", detail)
            }
            E::TimedOut {
                job,
                attempt,
                detail,
                times,
            } => put_times(put_attempt(w.kw("timed-out"), *job, *attempt), times)
                .tail("detail", detail),
            E::RetryScheduled {
                job,
                next_attempt,
                backoff,
                reason,
                detail,
                time,
            } => put_job(w.kw("retry-scheduled").f64("time", *time), "job", *job)
                .u64("next-attempt", (*next_attempt).into())
                .f64("backoff", *backoff)
                .word("reason", reason.prefix())
                .tail("detail", detail),
            E::WorkflowFinished {
                succeeded,
                wall_time,
                time,
            } => w
                .kw("workflow-finished")
                .f64("time", *time)
                .f64("wall-time", *wall_time)
                .word("succeeded", if *succeeded { "true" } else { "false" }),
        }
        .end();
    }

    impl Value<'_> for FaultReason {
        const WHAT: &'static str = "fault reason";
        fn read(raw: &str) -> Option<Self> {
            FaultReason::from_prefix(raw)
        }
    }

    impl Value<'_> for JobKind {
        const WHAT: &'static str = "job kind";
        fn read(raw: &str) -> Option<Self> {
            Some(match raw {
                "create_dir" => JobKind::CreateDir,
                "stage_in" => JobKind::StageIn,
                "compute" => JobKind::Compute,
                "stage_out" => JobKind::StageOut,
                "cleanup" => JobKind::Cleanup,
                _ => return None,
            })
        }
    }

    fn job(f: &mut Fields<'_, '_>, key: &str) -> Result<JobId, WmsError> {
        f.get(key).map(JobId::new)
    }

    fn times(f: &mut Fields<'_, '_>) -> Result<JobTimes, WmsError> {
        Ok(JobTimes {
            submitted: f.get("submitted")?,
            started: f.get("started")?,
            install_done: f.get("install-done")?,
            finished: f.get("finished")?,
        })
    }

    /// Parses the text format back into an event stream.
    ///
    /// # Errors
    /// Returns [`WmsError::Parse`] with a one-based line
    /// number on unknown keywords and on missing, malformed, unknown
    /// or repeated fields.
    pub fn parse(text: &str) -> Result<Vec<WorkflowEvent>, WmsError> {
        let mut events = Vec::new();
        let mut reader = Reader::default();
        reader.lines(text, &mut |_, ev| {
            if let WorkflowEvent::WorkflowStarted { jobs, .. } = ev {
                // A job that ran left four events or more, and the
                // header and trailer are two more. The header is
                // believed only as far as the text is long.
                let expected = (jobs as usize).saturating_mul(4).saturating_add(2);
                events.reserve(expected.min(text.len() / 16));
            }
            events.push(ev);
        });
        reader.finish()?;
        Ok(events)
    }

    /// Like [`parse`], but pairs every event with the one-based line
    /// number it was read from, so the lint sanitizer can point its
    /// diagnostics at the offending line of the log file.
    ///
    /// # Errors
    /// Returns [`WmsError::Parse`] exactly as [`parse`] does.
    pub fn parse_lines(text: &str) -> Result<Vec<(usize, WorkflowEvent)>, WmsError> {
        let mut events = Vec::new();
        let mut reader = Reader::default();
        reader.lines(text, &mut |line, ev| events.push((line, ev)));
        reader.finish()?;
        Ok(events)
    }

    /// How many bytes [`read`] takes in before it parses the whole
    /// lines among them; a longer line widens it.
    const WINDOW: usize = 1 << 20;

    /// Reads an event log from `input` a window of whole lines at a
    /// time, handing `sink` what [`parse_lines`] finds in the whole
    /// text as it goes. Returns the id of the first `# trace id=`
    /// comment, wherever it stands (`None` when there is none, or it is
    /// malformed: comments are not normative).
    ///
    /// # Errors
    /// The outer error is the input's: a failed read, or bytes that are
    /// not UTF-8 anywhere in it, worded as `read_to_string` words it.
    /// The inner one is the log's first parse error.
    pub fn read(
        mut input: impl io::Read,
        mut sink: impl FnMut(usize, WorkflowEvent),
    ) -> io::Result<Result<Option<TraceId>, WmsError>> {
        let (mut reader, mut window) = (Reader::default(), Vec::with_capacity(WINDOW));
        loop {
            // Top the window up to its size, or widen it by as much again
            // when one line fills it. `read_to_end` writes into spare
            // capacity, so no window is ever zeroed first.
            let held = window.len();
            let room = if held < WINDOW { WINDOW - held } else { held };
            if (&mut input).take(room as u64).read_to_end(&mut window)? == 0 {
                break;
            }
            // Only the new bytes can hold a newline.
            if let Some(at) = window[held..].iter().rposition(|&b| b == b'\n') {
                reader.lines(utf8(&window[..held + at + 1])?, &mut sink);
                window.drain(..held + at + 1);
            }
        }
        reader.lines(utf8(&window)?, &mut sink);
        Ok(reader.finish())
    }

    fn utf8(bytes: &[u8]) -> io::Result<&str> {
        let invalid = "stream did not contain valid UTF-8";
        std::str::from_utf8(bytes).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, invalid))
    }

    /// What the reader carries from one run of whole lines to the next.
    #[derive(Default)]
    struct Reader {
        /// Lines read so far.
        lines: usize,
        /// Transformations and failure reasons repeat on most lines.
        pool: NamePool,
        /// What the first `# trace id=` comment said, once one came.
        trace: Option<Option<TraceId>>,
        /// The first parse error; nothing is parsed after it.
        error: Option<WmsError>,
    }

    impl Reader {
        /// Parses a run of whole lines, numbering on from the last.
        fn lines(&mut self, text: &str, sink: &mut impl FnMut(usize, WorkflowEvent)) {
            let mut fields = Vec::new();
            for raw in text.lines() {
                if self.error.is_some() {
                    return;
                }
                self.lines += 1;
                let line = Line::split(raw, self.lines);
                if line.is_skipped() {
                    self.trace = self.trace.or_else(|| trace_comment(line.text));
                    continue;
                }
                match parse_event(&line, &mut self.pool, &mut fields) {
                    Ok(ev) => sink(line.number, ev),
                    Err(e) => self.error = Some(e),
                }
            }
        }

        fn finish(self) -> Result<Option<TraceId>, WmsError> {
            self.error.map_or(Ok(self.trace.flatten()), Err)
        }
    }

    /// What a `# trace id=<hex>` comment says: `None` when the line is
    /// no such comment, `Some(None)` when its id is malformed.
    fn trace_comment(text: &str) -> Option<Option<TraceId>> {
        let rest = text
            .trim()
            .strip_prefix('#')?
            .trim()
            .strip_prefix("trace ")?;
        Some(rest.trim().strip_prefix("id=")?.trim().parse().ok())
    }

    /// Reads one event; `pool` shares the names that repeat and
    /// `fields` is the line's `key=value` buffer, reused, so reading an
    /// event allocates only the names it declares.
    fn parse_event<'a>(
        line: &Line<'a>,
        pool: &mut NamePool,
        fields: &mut Vec<Field<'a>>,
    ) -> Result<WorkflowEvent, WmsError> {
        // The free-text field that ends the line, where the event has
        // one.
        let tail = match line.keyword {
            "workflow-started" | "job" => Some("name"),
            "failed" | "timed-out" | "retry-scheduled" => Some("detail"),
            _ => None,
        };
        let f = &mut Fields::split(line.rest, tail, line.number, Format::EventLog, fields)?;
        // Fields are asked for in the order `write_event` writes them,
        // which is where the reader looks first.
        let event = match line.keyword {
            "workflow-started" => WorkflowEvent::WorkflowStarted {
                time: f.get("time")?,
                jobs: f.get("jobs")?,
                site: Name::from(&*f.get::<Cow<'_, str>>("site")?),
                name: Name::from(f.get::<&str>("name")?),
            },
            "job" => WorkflowEvent::JobDeclared {
                job: job(f, "id")?,
                kind: f.get("kind")?,
                transformation: pool.share(&f.get::<Cow<'_, str>>("transformation")?),
                name: Name::from(f.get::<&str>("name")?),
            },
            "skipped" => WorkflowEvent::Skipped {
                time: f.get("time")?,
                job: job(f, "job")?,
            },
            "submitted" => WorkflowEvent::Submitted {
                time: f.get("time")?,
                job: job(f, "job")?,
                attempt: f.get("attempt")?,
            },
            "install-started" => WorkflowEvent::InstallStarted {
                time: f.get("time")?,
                job: job(f, "job")?,
                attempt: f.get("attempt")?,
            },
            "started" => WorkflowEvent::Started {
                time: f.get("time")?,
                job: job(f, "job")?,
                attempt: f.get("attempt")?,
            },
            "completed" => WorkflowEvent::Completed {
                job: job(f, "job")?,
                attempt: f.get("attempt")?,
                times: times(f)?,
            },
            "failed" => WorkflowEvent::Failed {
                job: job(f, "job")?,
                attempt: f.get("attempt")?,
                reason: f.get("reason")?,
                times: Box::new(times(f)?),
                detail: pool.share(f.get("detail")?),
            },
            "timed-out" => WorkflowEvent::TimedOut {
                job: job(f, "job")?,
                attempt: f.get("attempt")?,
                times: Box::new(times(f)?),
                detail: pool.share(f.get("detail")?),
            },
            "retry-scheduled" => WorkflowEvent::RetryScheduled {
                time: f.get("time")?,
                job: job(f, "job")?,
                next_attempt: f.get("next-attempt")?,
                backoff: f.get("backoff")?,
                reason: f.get("reason")?,
                detail: pool.share(f.get("detail")?),
            },
            "workflow-finished" => WorkflowEvent::WorkflowFinished {
                time: f.get("time")?,
                wall_time: f.get("wall-time")?,
                succeeded: f.get("succeeded")?,
            },
            other => return Err(f.err(format!("unknown event keyword {other:?}"))),
        };
        f.finish()?;
        Ok(event)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::events::tests::every_variant;

        type Numbered = Vec<(usize, WorkflowEvent)>;

        /// The reader it replaced: [`crate::line::lines`] over the whole text,
        /// and the trace comment found by a scan of its own (the first
        /// `# trace id=` comment wins, a malformed one is `None`).
        /// Returns the events read before the first error, and the
        /// error or the trace id.
        fn oracle(text: &str) -> (Numbered, Result<Option<TraceId>, WmsError>) {
            let (mut events, mut pool, mut fields) = (Vec::new(), NamePool::default(), Vec::new());
            for line in crate::line::lines(text) {
                match parse_event(&line, &mut pool, &mut fields) {
                    Ok(ev) => events.push((line.number, ev)),
                    Err(e) => return (events, Err(e)),
                }
            }
            let comment = |line: &str| {
                let rest = line
                    .trim()
                    .strip_prefix('#')?
                    .trim()
                    .strip_prefix("trace ")?;
                Some(rest.trim().strip_prefix("id=")?.trim().parse().ok())
            };
            (events, Ok(text.lines().find_map(comment).flatten()))
        }

        /// An input that hands out 1..=`most` bytes per call, sizes
        /// drawn from `seed`, and now and then an interruption.
        struct Trickle<'a> {
            bytes: &'a [u8],
            seed: u64,
            most: usize,
        }

        impl io::Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.seed = self
                    .seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if self.seed >> 60 == 0 {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                let n = (1 + (self.seed >> 33) as usize % self.most)
                    .min(buf.len())
                    .min(self.bytes.len());
                buf[..n].copy_from_slice(&self.bytes[..n]);
                self.bytes = &self.bytes[n..];
                Ok(n)
            }
        }

        /// Reads `bytes` through a [`Trickle`] and checks it against the
        /// oracle: equal events and the equal trace id, or equal errors
        /// at equal spans, or the UTF-8 error when it is not text.
        fn agrees(bytes: &[u8], seed: u64, most: usize) {
            let mut got = Vec::new();
            let input = Trickle { bytes, seed, most };
            let read = read(input, |line, ev| got.push((line, ev)));
            let Ok(text) = std::str::from_utf8(bytes) else {
                let e = read.expect_err("not UTF-8");
                assert_eq!(
                    (e.kind(), e.to_string()),
                    (
                        io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8".into()
                    )
                );
                return;
            };
            let (want, verdict) = oracle(text);
            assert_eq!(read.expect("read"), verdict);
            assert_eq!(got, want);
            assert_eq!(parse_lines(text), verdict.map(|_| want));
        }

        /// The lines a generated log is made of: the events of every
        /// variant, comments, blank lines, trace comments well and badly
        /// formed, a name in several scripts, then two lines that do not
        /// parse and two that are not UTF-8.
        fn pieces() -> Vec<Vec<u8>> {
            let mut lines: Vec<Vec<u8>> = write(&every_variant())
                .lines()
                .map(|l| l.as_bytes().to_vec())
                .collect();
            for extra in [
                "# a comment",
                "",
                "   \t",
                "# trace id=00000000000000ab",
                "  #  trace  id=  cd  ",
                "# trace id=zz",
                "# trace",
                "job id=3 kind=compute transformation=t\\sx name=naïve 中文 😀 job",
                "frobnicate x=1",
                "submitted time=1 job=0",
            ] {
                lines.push(extra.as_bytes().to_vec());
            }
            lines.push(vec![b'#', b' ', 0xff, b'x']);
            lines.push("skipped time=0 job=0 \u{e9}".as_bytes()[..22].to_vec());
            lines
        }

        proptest::proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(2000))]

            /// Any cut of a log into reads reads as the whole text
            /// does: lines straddle reads and windows, CRLF or not, with
            /// or without a final newline.
            #[test]
            fn the_reader_agrees_with_the_line_reader_over_any_reads(
                picks in proptest::collection::vec(proptest::arbitrary::any::<u16>(), 0..40),
                seed in proptest::arbitrary::any::<u64>(),
                most in 1usize..64,
                crlf in proptest::arbitrary::any::<u64>(),
                final_newline in proptest::arbitrary::any::<bool>(),
            ) {
                // One pick in eight may fall on the last four pieces,
                // which do not parse or are not text.
                let pieces = pieces();
                let mut bytes = Vec::new();
                for (i, &pick) in picks.iter().enumerate() {
                    let among = if pick >= 0xe000 { pieces.len() } else { pieces.len() - 4 };
                    bytes.extend_from_slice(&pieces[pick as usize % among]);
                    if i + 1 < picks.len() || final_newline {
                        bytes.extend_from_slice(if crlf >> (i % 64) & 1 == 1 { b"\r\n" } else { b"\n" });
                    }
                }
                agrees(&bytes, seed, most);
            }
        }

        #[test]
        fn a_character_split_across_reads_parses_and_a_stray_byte_is_refused() {
            let line = "job id=0 kind=compute transformation=t name=中文 😀\n";
            for most in 1..8 {
                agrees(line.as_bytes(), 7, most);
                agrees(&[line.as_bytes(), &[0xe4, 0xb8, b'\n']].concat(), 7, most);
            }
            let mut one = Vec::new();
            let read = read(
                Trickle {
                    bytes: line.as_bytes(),
                    seed: 3,
                    most: 1,
                },
                |_, ev| one.push(ev),
            );
            assert_eq!(read.expect("text").map(|_| one.len()), Ok(1));
        }

        #[test]
        fn a_line_longer_than_the_window_and_a_log_of_several_windows_read_whole() {
            let long = format!(
                "job id=0 kind=compute transformation=t name={}\n",
                "x".repeat(WINDOW + WINDOW / 2)
            );
            let header = "workflow-started time=0 jobs=1 site=s name=w\n";
            let bytes = [header, &long, "# trace id=1\n", "skipped time=0 job=0"].concat();
            agrees(bytes.as_bytes(), 11, 1 << 16);
            agrees(bytes.as_bytes(), 5, usize::MAX);
            // Three windows of CRLF lines, whole, with a line that does
            // not parse or a byte that is not text in the last one, each
            // read in several cuts: lines straddle every window.
            let body = write(&every_variant()).replace('\n', "\r\n");
            let several = body.repeat(3 * WINDOW / body.len());
            let late = |tail: &[u8]| {
                let mut bytes = several.clone().into_bytes();
                bytes.splice(5 * WINDOW / 2..5 * WINDOW / 2, tail.iter().copied());
                bytes
            };
            for (seed, most) in [(13, 100_000), (17, usize::MAX), (19, 4_097), (23, 1 << 20)] {
                agrees(several.as_bytes(), seed, most);
                agrees(&late(b"\r\nfrobnicate\r\n"), seed, most);
                agrees(&late(&[0xff]), seed, most);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::scripted::ScriptedBackend;
    use crate::engine::{Engine, EngineConfig, RetryPolicy};
    use crate::planner::{ExecutableJob, ExecutableWorkflow};

    fn j(i: usize) -> JobId {
        JobId::new(i)
    }

    fn job(id: usize, name: &str, runtime: f64, install: f64) -> ExecutableJob {
        ExecutableJob {
            id: JobId::new(id),
            name: name.into(),
            transformation: name.split('_').next().unwrap_or(name).into(),
            kind: JobKind::Compute,
            args: Default::default(),
            runtime_hint: runtime,
            install_hint: install,
        }
    }

    fn chain() -> ExecutableWorkflow {
        ExecutableWorkflow {
            name: "chain".into(),
            site: "test".into(),
            jobs: vec![
                job(0, "a", 10.0, 0.0),
                job(1, "b", 20.0, 3.0),
                job(2, "c", 5.0, 0.0),
            ],
            edges: vec![(j(0), j(1)), (j(1), j(2))],
        }
    }

    pub(super) fn every_variant() -> Vec<WorkflowEvent> {
        let times = JobTimes {
            submitted: 1.25,
            started: 2.5,
            install_done: 4.75,
            finished: 10.125,
        };
        vec![
            WorkflowEvent::WorkflowStarted {
                name: "blast2cap3 n300".into(),
                site: "osg".into(),
                jobs: 3,
                time: 0.0,
            },
            WorkflowEvent::JobDeclared {
                job: j(0),
                name: "stage_in_my file.txt".into(),
                transformation: "transfer".into(),
                kind: JobKind::StageIn,
            },
            WorkflowEvent::JobDeclared {
                job: j(1),
                name: "run_cap3_0".into(),
                transformation: "cap3".into(),
                kind: JobKind::Compute,
            },
            WorkflowEvent::JobDeclared {
                job: j(2),
                name: "cleanup".into(),
                transformation: "rm".into(),
                kind: JobKind::Cleanup,
            },
            WorkflowEvent::Skipped {
                job: j(0),
                time: 0.0,
            },
            WorkflowEvent::Submitted {
                job: j(1),
                attempt: 0,
                time: 1.25,
            },
            WorkflowEvent::InstallStarted {
                job: j(1),
                attempt: 0,
                time: 2.5,
            },
            WorkflowEvent::Started {
                job: j(1),
                attempt: 0,
                time: 4.75,
            },
            WorkflowEvent::Failed {
                job: j(1),
                attempt: 0,
                reason: FaultReason::Preemption,
                detail: "preempted:storm".into(),
                times: Box::new(times),
            },
            WorkflowEvent::RetryScheduled {
                job: j(1),
                next_attempt: 1,
                backoff: 30.5,
                reason: FaultReason::Preemption,
                detail: "preempted:storm".into(),
                time: 10.125,
            },
            WorkflowEvent::Submitted {
                job: j(1),
                attempt: 1,
                time: 10.125,
            },
            WorkflowEvent::TimedOut {
                job: j(1),
                attempt: 1,
                detail: "timeout: exceeded 600s".into(),
                times: Box::new(times),
            },
            WorkflowEvent::Completed {
                job: j(1),
                attempt: 2,
                times,
            },
            WorkflowEvent::WorkflowFinished {
                succeeded: false,
                wall_time: 100.5,
                time: 100.5,
            },
        ]
    }

    #[test]
    fn log_round_trips_every_variant() {
        let events = every_variant();
        let text = log::write(&events);
        assert!(text.starts_with(log::HEADER));
        let back = log::parse(&text).expect("written logs parse");
        assert_eq!(back, events);
    }

    /// Keeps what it is handed, counts its `write_all` calls and
    /// refuses the one numbered by its third field (0: none).
    #[derive(Default)]
    struct Counted(Vec<u8>, usize, usize);
    impl std::io::Write for Counted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.1 += 1;
            if self.1 == self.2 {
                return Err(std::io::Error::other("refused"));
            }
            self.0.extend_from_slice(buf);
            Ok(())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn log_writer_writes_the_header_then_each_batch_with_one_write_all() {
        let events = every_variant();
        let body = &log::write(&events)[log::HEADER.len() + 1..];
        let id = crate::trace::TraceId::new(0xab);
        for (trace, head) in [
            (None, format!("{}\n", log::HEADER)),
            (
                Some(id),
                format!("{}\n# trace id=00000000000000ab\n", log::HEADER),
            ),
        ] {
            let mut out = Counted::default();
            let mut log = log::LogWriter::new(&mut out, trace).unwrap();
            log.events(&[]);
            events.chunks(3).for_each(|batch| log.events(batch));
            log.event(&events[0]);
            assert!(log.error().is_none());
            let one = &log::write(&events[..1])[log::HEADER.len() + 1..];
            let text = String::from_utf8(out.0).unwrap();
            assert_eq!(text, format!("{head}{body}{one}"));
            // The header, one per non-empty batch, one for the event.
            assert_eq!(out.1, 1 + events.len().div_ceil(3) + 1, "{trace:?}");
        }
        // A refused batch is kept, and nothing is handed on after it.
        let mut out = Counted(Vec::new(), 0, 2);
        let mut log = log::LogWriter::new(&mut out, None).unwrap();
        events.chunks(3).for_each(|batch| log.events(batch));
        log.event(&events[0]);
        let error = log.error().map(|e| e.to_string());
        assert_eq!(error.as_deref(), Some("refused"));
        assert_eq!((out.1, out.0.len()), (2, log::HEADER.len() + 1));
    }

    #[test]
    fn log_round_trips_awkward_floats() {
        let events = vec![WorkflowEvent::WorkflowFinished {
            succeeded: true,
            wall_time: 0.1 + 0.2, // not representable exactly
            time: 1e308,
        }];
        let back = log::parse(&log::write(&events)).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("frobnicate x=1\n", "unknown event keyword"),
            ("submitted time=1 job=0\n", "missing field attempt"),
            ("submitted time=x job=0 attempt=0\n", "bad number"),
            ("submitted time=1 job=0 attempt\n", "key=value"),
            (
                "failed job=0 attempt=0 reason=gremlins submitted=0 started=0 \
                 install-done=0 finished=0 detail=x\n",
                "bad fault reason \"gremlins\" for reason",
            ),
            (
                "job id=0 kind=wizard transformation=t name=n\n",
                "bad job kind \"wizard\" for kind",
            ),
            (
                "workflow-finished time=1 wall-time=1 succeeded=maybe\n",
                "bad boolean",
            ),
            ("skipped time=inf job=0\n", "bad number \"inf\" for time"),
        ];
        for (text, want) in cases {
            let err = log::parse(&format!("# comment\n\n{text}")).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("line 3") && msg.contains(want),
                "{text:?} -> {msg}"
            );
        }
    }

    #[test]
    fn a_job_count_no_job_id_can_reach_is_refused_at_its_line() {
        let header = |jobs: u64| {
            let line = format!("workflow-started time=0 jobs={jobs} site=s name=w");
            log::parse(&format!("{}\n{line}\n", log::HEADER))
        };
        let over = u64::from(u32::MAX) + 1;
        let want = Format::EventLog.at(2, format!("bad integer \"{over}\" for jobs"));
        assert_eq!(header(over).unwrap_err(), want);
        // The largest count a `JobId` allows still reads.
        assert!(matches!(
            &header(u32::MAX.into()).unwrap()[..],
            [WorkflowEvent::WorkflowStarted { jobs: u32::MAX, .. }]
        ));
    }

    #[test]
    fn unknown_and_repeated_fields_are_parse_errors_naming_line_and_key() {
        let times = "submitted=0 started=0 install-done=0 finished=1";
        for (text, want) in [
            (
                "submitted time=1 job=0 attempt=0 x=1\n".to_string(),
                "unknown field x",
            ),
            (
                "submitted time=1 job=0 attempt=0 job=9\n".into(),
                "repeated field job",
            ),
            // The error names the first field left unread: the stray
            // one, ahead of the repeat.
            (
                format!("completed job=0 bogus=1 job=999 attempt=0 {times}\n"),
                "unknown field bogus",
            ),
            (
                format!("failed job=0 attempt=0 reason=error {times} finished=2 detail=x\n"),
                "repeated field finished",
            ),
            (
                "workflow-started time=0 jobs=1 site=s site=t name=w\n".into(),
                "repeated field site",
            ),
        ] {
            let err = log::parse(&format!("{}\n{text}", log::HEADER)).unwrap_err();
            assert_eq!(err, Format::EventLog.at(2, want), "{text:?}");
        }
        // What follows a free-text field's `key=` is its value.
        let named = log::parse("job id=0 kind=compute transformation=t name=a b x=1 name=c\n");
        assert!(matches!(
            &named.unwrap()[..],
            [WorkflowEvent::JobDeclared { name, .. }] if name == "a b x=1 name=c"
        ));
    }

    #[test]
    fn replay_reconstructs_a_live_run_exactly() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        be.fail_plan.insert(("b".into(), 1));
        let cfg = EngineConfig::builder()
            .policy(RetryPolicy::exponential(3, 7.0))
            .build();
        let run = Engine::run(&mut be, &wf, &cfg, &mut crate::engine::NoopMonitor);
        assert!(run.succeeded());
        let replayed = replay(&run.events).expect("engine streams replay");
        assert_eq!(replayed, run);
    }

    #[test]
    fn a_fault_free_log_parses_into_a_stream_its_own_length() {
        let mut wf = chain();
        wf.jobs[1].install_hint = 0.0;
        let mut be = ScriptedBackend::new();
        let cfg = EngineConfig::default();
        let run = Engine::run(&mut be, &wf, &cfg, &mut crate::engine::NoopMonitor);
        assert_eq!(run.events.len(), 4 * wf.jobs.len() + 2);
        let parsed = log::parse(&log::write(&run.events)).unwrap();
        assert_eq!((parsed.len(), parsed.capacity()), (14, 14));
    }

    #[test]
    fn replay_reconstructs_failure_and_rescue() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        let run = Engine::run(
            &mut be,
            &wf,
            &EngineConfig::default(),
            &mut crate::engine::NoopMonitor,
        );
        assert!(!run.succeeded());
        let replayed = replay(&run.events).unwrap();
        assert_eq!(replayed, run);
        let rescue = rescue_from_events(&run.events)
            .unwrap()
            .expect("failed run");
        assert_eq!(rescue, RescueDag::of(&run));
    }

    /// A stream that runs past its trailer (`E0806`) folds as a run cut
    /// at its last event, so its rescue lists what was done by then,
    /// not what was done at the trailer.
    #[test]
    fn a_rescue_reflects_the_last_state_of_a_stream_past_its_trailer() {
        let text = "\
workflow-started time=0 jobs=2 site=osg name=w
job id=0 kind=compute transformation=split name=split
job id=1 kind=compute transformation=merge name=merge
submitted time=0 job=0 attempt=0
completed job=0 attempt=0 submitted=0 started=0 install-done=0 finished=1
workflow-finished time=1 wall-time=1 succeeded=false
submitted time=2 job=1 attempt=0
completed job=1 attempt=0 submitted=2 started=2 install-done=2 finished=3
";
        let events = log::parse(text).unwrap();
        let rescue = rescue_from_events(&events).unwrap().expect("unclosed");
        assert_eq!(rescue.done, vec!["split", "merge"]);
        assert_eq!(rescue, RescueDag::of(&replay(&events).unwrap()));
    }

    #[test]
    fn replay_handles_rescue_skips() {
        let wf = chain();
        let cfg = EngineConfig {
            skip_done: ["a".into()].into_iter().collect(),
            ..Default::default()
        };
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &wf,
            &cfg,
            &mut crate::engine::NoopMonitor,
        );
        let replayed = replay(&run.events).unwrap();
        assert_eq!(replayed, run);
        assert_eq!(replayed.records[0].state, JobState::SkippedDone);
    }

    #[test]
    fn truncated_stream_replays_as_a_crashed_run() {
        let wf = chain();
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &wf,
            &EngineConfig::default(),
            &mut crate::engine::NoopMonitor,
        );
        assert!(run.succeeded());
        // Chop the trailer off, as a real submit-host crash would.
        let truncated = &run.events[..run.events.len() - 1];
        let replayed = replay(truncated).unwrap();
        assert!(!replayed.succeeded());
        assert_eq!(replayed.wall_time, run.wall_time);
        assert_eq!(RescueDag::of(&replayed).done, vec!["a", "b", "c"]);
    }

    #[test]
    fn every_fold_rejects_malformed_streams() {
        const HEADER: &str = "workflow-started time=0 jobs=1 site=s name=w\n";
        const JOB0: &str = "job id=0 kind=compute transformation=t name=a\n";
        const JOB1: &str = "job id=1 kind=compute transformation=t name=b\n";
        const REF0: &str = "started time=0 job=0 attempt=0\n";
        const REF5: &str = "submitted time=0 job=5 attempt=0\n";
        assert!(replay(&[]).is_err());
        for (what, lines) in [
            ("undeclared job 5", [HEADER, JOB0, REF5]),
            ("job 1 declared out of order", [HEADER, JOB1, JOB0]),
            ("undeclared job 0", [HEADER, REF0, JOB0]),
            ("no workflow-started header", [JOB0, REF0, ""]),
            ("no workflow-started header", [JOB0, HEADER, REF0]),
        ] {
            let stream = log::parse(&lines.concat()).expect("hostile logs still parse");
            let mut registry = crate::metrics::MetricsRegistry::new();
            for err in [
                replay(&stream).expect_err(what),
                crate::breakdown::from_events(&stream).expect_err(what),
                crate::trace::fold(&stream, None).expect_err(what),
                crate::metrics::record_events(&mut registry, &stream).expect_err(what),
            ] {
                let framing = Format::EventLog.error(Span::none(), "");
                assert!(err.to_string().starts_with(&framing.to_string()), "{err}");
                assert!(err.to_string().contains(what), "{what}: {err}");
            }
            assert_eq!(registry.render(), "", "{what}: rejected before recording");
        }
    }

    #[test]
    fn a_sink_sees_the_recorded_stream_trailer_included() {
        #[derive(Default)]
        struct Tape(Vec<WorkflowEvent>);
        impl EventSink for Tape {
            fn event(&mut self, ev: &WorkflowEvent) {
                self.0.push(ev.clone());
            }
        }

        let wf = chain();
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        let cfg = EngineConfig::builder()
            .policy(RetryPolicy::exponential(2, 5.0))
            .build();
        let mut live = Tape::default();
        let run = Engine::run(&mut be, &wf, &cfg, &mut live);
        assert!(run.succeeded());
        assert_eq!(live.0, run.events);
    }

    /// The fold the streamed one replaced: the whole stream checked
    /// against the framing rule, then applied, then the crash trailer.
    fn oracle_fold(events: &[WorkflowEvent]) -> Result<WorkflowRun, WmsError> {
        validate(events)?;
        let mut run = WorkflowRun::default();
        events.iter().for_each(|ev| run.apply(ev));
        if !matches!(events.last(), Some(WorkflowEvent::WorkflowFinished { .. })) {
            let last = events
                .iter()
                .filter_map(WorkflowEvent::time)
                .fold(0.0, f64::max);
            let start = events.first().and_then(WorkflowEvent::time).unwrap_or(0.0);
            run.apply(&WorkflowEvent::WorkflowFinished {
                succeeded: false,
                wall_time: last - start,
                time: last,
            });
        }
        Ok(run)
    }

    /// The lines of six engine logs: retried to success, failed with a
    /// rescue, resumed past a skipped job, cut by the scripted
    /// submit-host crash of a fault plan, and the simulator's n = 10
    /// runs on both paper sites (OSG's with preemptions retried).
    pub(crate) fn engine_logs() -> Vec<Vec<String>> {
        let retried = EngineConfig::builder()
            .policy(RetryPolicy::exponential(3, 7.0))
            .build();
        let skipping = EngineConfig {
            skip_done: ["a".into()].into_iter().collect(),
            ..Default::default()
        };
        let crashing = EngineConfig::builder()
            .retries(2)
            .crash_after_events(2)
            .build();
        let configs = [
            (retried, 2),
            (EngineConfig::default(), 1),
            (skipping, 0),
            (crashing, 1),
        ];
        let lines = configs.into_iter().map(|(cfg, failures)| {
            let mut be = ScriptedBackend::new();
            (0..failures).for_each(|attempt| {
                be.fail_plan.insert(("b".into(), attempt));
            });
            let run = Engine::run(&mut be, &chain(), &cfg, &mut crate::engine::NoopMonitor);
            log::write(&run.events)
        });
        let simulated = [
            include_str!("../../../tests/fixtures/equivalence/sandhills_n10_s7.events"),
            include_str!("../../../tests/fixtures/equivalence/osg_n10_s7.events"),
        ];
        let logs = lines.chain(simulated.map(String::from));
        logs.map(|log| log.lines().map(String::from).collect())
            .collect()
    }

    /// The streamed fold of `text` against `replay(&parse(..)?)` and the
    /// oracle fold: the same run, or the same error, and no panic.
    fn streamed_agrees(text: &str) {
        let mut fold = RunFold::default();
        let read = log::read(text.as_bytes(), |_, ev| fold.event(&ev)).expect("text");
        let streamed = read.and_then(|_| fold.finish());
        let parsed = log::parse(text);
        let oracle = parsed.clone().and_then(|events| oracle_fold(&events));
        assert_eq!(streamed, oracle, "{text}");
        let replayed = parsed
            .and_then(|events| replay(&events))
            .map(|run| WorkflowRun {
                events: Vec::new(),
                ..run
            });
        assert_eq!(replayed, oracle, "{text}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(2000))]

        /// Engine logs with lines cut, dropped, repeated and moved, an
        /// undeclared job, declarations swapped and a second header
        /// fold, streamed, as the oracle folds them whole.
        #[test]
        fn the_streamed_fold_never_panics_and_agrees_with_the_oracle(
            which in proptest::arbitrary::any::<usize>(),
            edits in proptest::collection::vec(
                (0u8..7, proptest::arbitrary::any::<u16>(), proptest::arbitrary::any::<u16>()),
                0..4,
            ),
        ) {
            let mut logs = engine_logs();
            let mut lines = logs.swap_remove(which % logs.len());
            let header = lines[1].clone();
            for (kind, a, b) in edits {
                let (at, to) = (a as usize % (lines.len() + 1), b as usize % (lines.len() + 1));
                let line = lines.get(at.min(lines.len().saturating_sub(1))).cloned().unwrap_or_default();
                match kind {
                    0 => lines.truncate(at),
                    1 => lines.insert(at, format!("submitted time=5 job={} attempt=0", b % 8)),
                    2 => {
                        let jobs: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].starts_with("job ")).collect();
                        if jobs.len() > 1 {
                            lines.swap(jobs[a as usize % jobs.len()], jobs[b as usize % jobs.len()]);
                        }
                    }
                    3 => lines.insert(at, header.clone()),
                    4 if at < lines.len() => drop(lines.remove(at)),
                    5 => lines.insert(at, line),
                    _ if at < lines.len() => {
                        let moved = lines.remove(at);
                        lines.insert(to.min(lines.len()), moved);
                    }
                    _ => {}
                }
            }
            streamed_agrees(&lines.join("\n"));
        }
    }

    #[test]
    fn a_log_cut_at_every_line_folds_as_the_oracle_folds_it() {
        for lines in engine_logs() {
            for cut in 0..=lines.len() {
                streamed_agrees(&lines[..cut].join("\n"));
            }
        }
    }
}
