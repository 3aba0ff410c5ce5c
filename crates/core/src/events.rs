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
    FailedAttempt, FaultReason, JobRecord, JobState, JobTimes, WorkflowOutcome, WorkflowRun,
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
/// declared before it. [`validate`] stops at the first breach; the
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

/// Checks a whole stream against the [`Framing`] rule. Returns the
/// header's workflow name and site and the number of declared jobs.
///
/// # Errors
/// Returns [`WmsError::Parse`] naming the first violation.
pub(crate) fn validate(events: &[WorkflowEvent]) -> Result<(&str, &str, usize), WmsError> {
    // Framing is about the stream, wherever its events were read from.
    let misframed = |breach: Misframed| Format::EventLog.error(Span::none(), breach.to_string());
    let mut framing = Framing::default();
    for ev in events {
        framing.step(ev).map_err(misframed)?;
    }
    // A non-empty stream that passed every step began with its header.
    match events.first() {
        Some(WorkflowEvent::WorkflowStarted { name, site, .. }) => {
            Ok((name, site, framing.declared))
        }
        _ => Err(misframed(Misframed::NoHeader)),
    }
}

impl WorkflowRun {
    /// The job-lifecycle state machine: advances every field but
    /// `events` by one event. The engine applies it to each event as
    /// it emits it and [`replay`] applies it to a recorded stream, so
    /// the two agree by construction.
    ///
    /// # Panics
    /// Panics when `ev` names a job no earlier `JobDeclared` event
    /// declared; streams from outside go through [`validate`] first.
    pub(crate) fn apply(&mut self, ev: &WorkflowEvent) {
        if let Some(end) = ev.termination() {
            let rec = &mut self.records[end.job.idx()];
            match end.failure {
                None => {
                    rec.state = JobState::Done;
                    rec.times = Some(*end.times);
                }
                Some((reason, detail)) => {
                    self.faults.record_reason(reason);
                    rec.failures.push(FailedAttempt {
                        times: *end.times,
                        reason,
                        detail: detail.clone(),
                    });
                    rec.state = JobState::Failed;
                }
            }
            return;
        }
        match ev {
            WorkflowEvent::WorkflowStarted { name, site, .. } => {
                self.name = name.to_string();
                self.site = site.to_string();
            }
            WorkflowEvent::JobDeclared {
                job,
                name,
                transformation,
                kind,
            } => self.records.push(JobRecord {
                job: *job,
                name: name.clone(),
                transformation: transformation.clone(),
                kind: *kind,
                state: JobState::Unready,
                attempts: 0,
                times: None,
                failures: Vec::new(),
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
                self.faults.retries += 1;
                self.faults.backoff_wait += backoff;
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
                self.outcome = if *succeeded {
                    WorkflowOutcome::Success
                } else {
                    WorkflowOutcome::Failed(RescueDag {
                        workflow_name: self.name.clone(),
                        site: self.site.clone(),
                        done: self
                            .records
                            .iter()
                            .filter(|r| matches!(r.state, JobState::Done | JobState::SkippedDone))
                            .map(|r| r.name.clone())
                            .collect(),
                    })
                };
            }
        }
    }
}

/// [`replay`] without the copy: the returned run's `events` is empty.
/// The offline folds that only read records, counters and outcome go
/// through here.
pub(crate) fn fold(events: &[WorkflowEvent]) -> Result<WorkflowRun, WmsError> {
    let (_, _, jobs) = validate(events)?;
    let mut run = WorkflowRun::empty();
    run.records.reserve(jobs);
    for ev in events {
        run.apply(ev);
    }
    if !matches!(events.last(), Some(WorkflowEvent::WorkflowFinished { .. })) {
        // No trailer: the submit host died mid-run. The run failed,
        // and it ended at the last event that was recorded.
        let last = events
            .iter()
            .filter_map(WorkflowEvent::time)
            .fold(0.0, f64::max);
        run.apply(&WorkflowEvent::WorkflowFinished {
            succeeded: false,
            wall_time: last - start_time(events),
            time: last,
        });
    }
    Ok(run)
}

/// The backend time of the stream's header (0 for an empty stream).
pub(crate) fn start_time(events: &[WorkflowEvent]) -> f64 {
    events.first().and_then(WorkflowEvent::time).unwrap_or(0.0)
}

/// Folds an event stream back into the [`WorkflowRun`] the engine
/// produced live — job records, fault counters, wall time, and (on
/// failure) the rescue DAG are all reconstructed, so
/// [`crate::statistics::compute`], [`crate::analyzer::analyze`], and
/// rescue resubmission work from a log alone.
///
/// A stream truncated before its `WorkflowFinished` trailer (a genuine
/// submit-host crash, as opposed to the engine's *scripted* crash
/// which still writes the trailer) replays as a failed run whose wall
/// time ends at the last recorded event.
///
/// # Errors
/// Returns [`WmsError::Parse`] when the stream is not a valid
/// engine emission: no `WorkflowStarted` header first, out-of-order
/// job declarations, or lifecycle events referencing undeclared jobs.
pub fn replay(events: &[WorkflowEvent]) -> Result<WorkflowRun, WmsError> {
    let mut run = fold(events)?;
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
    Ok(match fold(events)?.outcome {
        WorkflowOutcome::Failed(rescue) => Some(rescue),
        WorkflowOutcome::Success => None,
    })
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
    use crate::line::{self, Field, Fields, Line, Value, Writer};
    use crate::planner::JobKind;
    use crate::symbols::{Name, NamePool};
    use crate::trace::TraceId;
    use crate::workflow::JobId;
    use std::borrow::Cow;
    use std::io;

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

    /// What the parser keeps from line to line, so reading an event
    /// allocates only the names it declares.
    #[derive(Default)]
    struct Scratch<'a> {
        /// Transformations and failure reasons repeat on most lines.
        pool: NamePool,
        /// The `key=value` fields of the line being read.
        fields: Vec<Field<'a>>,
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
        parse_each(text, |_, ev| {
            if let WorkflowEvent::WorkflowStarted { jobs, .. } = ev {
                // A job that ran left four events or more, and the
                // header and trailer are two more. The header is
                // believed only as far as the text is long.
                let expected = (jobs as usize).saturating_mul(4).saturating_add(2);
                events.reserve(expected.min(text.len() / 16));
            }
            events.push(ev);
        })?;
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
        parse_each(text, |line, ev| events.push((line, ev)))?;
        Ok(events)
    }

    /// Hands `sink` every event of `text` with its one-based line.
    fn parse_each(text: &str, mut sink: impl FnMut(usize, WorkflowEvent)) -> Result<(), WmsError> {
        let mut scratch = Scratch::default();
        for line in line::lines(text) {
            sink(line.number, parse_event(&line, &mut scratch)?);
        }
        Ok(())
    }

    fn parse_event<'a>(
        line: &Line<'a>,
        scratch: &mut Scratch<'a>,
    ) -> Result<WorkflowEvent, WmsError> {
        // The free-text field that ends the line, where the event has
        // one.
        let tail = match line.keyword {
            "workflow-started" | "job" => Some("name"),
            "failed" | "timed-out" | "retry-scheduled" => Some("detail"),
            _ => None,
        };
        let Scratch { pool, fields } = scratch;
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
}

#[cfg(test)]
mod tests {
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

    fn every_variant() -> Vec<WorkflowEvent> {
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
        match &run.outcome {
            WorkflowOutcome::Failed(live) => assert_eq!(&rescue, live),
            other => panic!("unexpected {other:?}"),
        }
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
        match replayed.outcome {
            WorkflowOutcome::Failed(rescue) => {
                assert_eq!(rescue.done, vec!["a", "b", "c"]);
            }
            other => panic!("unexpected {other:?}"),
        }
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
}
