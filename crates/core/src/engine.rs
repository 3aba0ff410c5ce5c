//! The DAGMan-style execution engine.
//!
//! The engine walks an [`ExecutableWorkflow`] the way Condor DAGMan
//! walks a DAG: every job whose parents have finished is submitted to
//! the execution backend; completions come back as events; failures
//! are retried up to a configurable limit; if a job exhausts its
//! retries its descendants are never released and the run ends with a
//! **rescue DAG** recording what completed, ready for resubmission —
//! Pegasus's recovery story, which the paper leans on for the OSG runs.
//!
//! The engine is deliberately time-agnostic: all timestamps come from
//! the backend, so the same engine drives the real thread-pool backend
//! (`condor` crate) and the discrete-event platform simulator
//! (`gridsim` crate).

use crate::ensemble::{run_round, Member};
use crate::events::{EventSink, WorkflowEvent};
use crate::planner::{ExecutableJob, ExecutableWorkflow, JobKind};
use crate::rescue::RescueDag;
use crate::symbols::Name;
use crate::workflow::JobId;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// Timestamps of one job attempt, in backend seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobTimes {
    /// When the engine handed the job to the backend.
    pub submitted: f64,
    /// When a slot was acquired and the job left the queue.
    pub started: f64,
    /// When the download/install phase finished (== `started` when
    /// there is no install phase).
    pub install_done: f64,
    /// When the job terminated.
    pub finished: f64,
}

impl JobTimes {
    /// "Waiting Time": submit-host plus remote-queue wait before
    /// execution begins.
    pub fn waiting(&self) -> f64 {
        self.started - self.submitted
    }

    /// "Download/Install Time": software provisioning on the worker.
    pub fn install(&self) -> f64 {
        self.install_done - self.started
    }

    /// "Kickstart Time": the actual remote execution duration.
    pub fn kickstart(&self) -> f64 {
        self.finished - self.install_done
    }

    /// Total time from submission to termination.
    pub(crate) fn total(&self) -> f64 {
        self.finished - self.submitted
    }

    /// Whether the four timestamps are in lifecycle order:
    /// `submitted <= started <= install_done <= finished`.
    pub(crate) fn ordered(&self) -> bool {
        self.submitted <= self.started
            && self.started <= self.install_done
            && self.install_done <= self.finished
    }
}

/// Terminal status of one attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The attempt succeeded.
    Success,
    /// The attempt failed. The backend states the category it knows
    /// and allocates the detail; the engine, its events and the job's
    /// record share that allocation from here on.
    Failure(Failure),
}

/// Why an attempt failed, as the backend that saw it die states it:
/// the category is a value, never read back out of the text.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// Typed failure category.
    pub reason: FaultReason,
    /// The event log's `detail=` string, e.g. `"preempted:storm"`: it
    /// opens with `reason`'s [prefix](FaultReason::prefix), which is how
    /// the constructors on [`FaultReason`] build it.
    pub detail: Name,
}

/// A completion event delivered by a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionEvent {
    /// Which job terminated.
    pub job: JobId,
    /// Which attempt (0-based).
    pub attempt: u32,
    /// How it ended.
    pub outcome: JobOutcome,
    /// Its timestamps.
    pub times: JobTimes,
}

/// The contract between the engine and an execution platform.
pub trait ExecutionBackend {
    /// Accepts a job for execution; must not block.
    fn submit(&mut self, job: &ExecutableJob, attempt: u32);

    /// Accepts a job that must not start before `delay` backend
    /// seconds have elapsed — the engine's retry backoff. Backends
    /// without a notion of deferred submission ignore the delay.
    fn submit_after(&mut self, job: &ExecutableJob, attempt: u32, delay: f64) {
        let _ = delay;
        self.submit(job, attempt);
    }

    /// Configures a per-attempt wall-clock timeout: backends that can
    /// measure execution time kill attempts exceeding it with
    /// [`FaultReason::timeout_exceeded`]. Called once before the first
    /// submission; the default ignores it.
    fn set_timeout(&mut self, timeout: Option<f64>) {
        let _ = timeout;
    }

    /// Blocks until some previously submitted job terminates.
    ///
    /// # Panics
    /// Implementations may panic if called with no job in flight.
    fn wait_any(&mut self) -> CompletionEvent;

    /// Current backend time in seconds (real or simulated).
    fn now(&self) -> f64;

    /// Number of simultaneously usable execution slots, when the
    /// backend knows it. The ensemble manager uses this as its default
    /// shared slot budget; `None` means capacity is unbounded (or
    /// unknown), which disables budget-based admission.
    fn slot_capacity(&self) -> Option<usize> {
        None
    }
}

/// Retry behaviour for failed attempts: a maximum attempt budget,
/// exponential backoff between attempts (with optional jitter drawn
/// from the engine RNG), and an optional per-attempt wall-clock
/// timeout that kills and resubmits stragglers.
///
/// Backoff has one shape: `base`, `2*base`, `4*base`, ... capped at
/// `64*base`. The historical flat retry limit is
/// [`RetryPolicy::flat`]: no backoff, no timeout — byte-for-byte the
/// old engine behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per job, including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in backend seconds (0 = none).
    pub base_backoff: f64,
    /// Jitter fraction: each delay is scaled by a uniform factor in
    /// `[1 - jitter, 1 + jitter]` drawn from the engine RNG.
    pub jitter: f64,
    /// Per-attempt wall-clock timeout handed to the backend.
    pub timeout: Option<f64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::flat(0)
    }
}

impl RetryPolicy {
    /// The legacy flat policy: up to `max_retries` immediate retries.
    pub fn flat(max_retries: u32) -> Self {
        RetryPolicy::exponential(max_retries, 0.0)
    }

    /// Exponential backoff: `base`, `2*base`, `4*base`, ... capped at
    /// `64*base`, up to `max_retries` retries.
    pub fn exponential(max_retries: u32, base: f64) -> Self {
        RetryPolicy {
            max_attempts: max_retries + 1,
            base_backoff: base,
            jitter: 0.0,
            timeout: None,
        }
    }

    /// Adds a per-attempt wall-clock timeout.
    pub fn with_timeout(mut self, timeout: f64) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Adds symmetric backoff jitter (`0.2` = ±20 %).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// The un-jittered backoff before retry number `next_attempt`
    /// (1-based: the first retry is attempt 1): `base * 2^(k-1)`,
    /// capped at `64 * base`.
    pub(crate) fn capped_backoff(&self, next_attempt: u32) -> f64 {
        let exponent = next_attempt.saturating_sub(1).min(1000) as i32;
        (self.base_backoff * 2f64.powi(exponent)).min(64.0 * self.base_backoff)
    }

    /// Backoff before retry number `next_attempt`, jittered. Zero when
    /// no backoff is configured; never consumes RNG draws in that
    /// case, so flat policies stay reproducible against historical
    /// runs.
    pub(crate) fn backoff_before(&self, next_attempt: u32, rng: &mut StdRng) -> f64 {
        if self.base_backoff <= 0.0 {
            return 0.0;
        }
        let capped = self.capped_backoff(next_attempt);
        let jittered = if self.jitter > 0.0 {
            capped * (1.0 + self.jitter * (2.0 * rng.gen_range(0.0..1.0) - 1.0))
        } else {
            capped
        };
        jittered.max(0.0)
    }
}

/// Engine options.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Retry behaviour (Pegasus `retry` profile, extended with
    /// backoff and timeout).
    pub retry: RetryPolicy,
    /// Job *names* to treat as already done (from a rescue DAG).
    pub skip_done: HashSet<Name>,
    /// Stop the run (simulating a submit-host crash) after this many
    /// completion events; the rescue DAG records what finished.
    pub crash_after_events: Option<u64>,
    /// Seed of the engine RNG (backoff jitter).
    pub seed: u64,
}

impl EngineConfig {
    /// Starts a fluent [`EngineConfigBuilder`]:
    ///
    /// ```
    /// use pegasus_wms::engine::EngineConfig;
    /// let cfg = EngineConfig::builder()
    ///     .retries(5)
    ///     .backoff(30.0)
    ///     .timeout(600.0)
    ///     .seed(2014)
    ///     .build();
    /// assert_eq!(cfg.retry.max_attempts, 6);
    /// ```
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }
}

/// Fluent builder behind [`EngineConfig::builder`], replacing the
/// historical `with_retries` / `with_policy` / `resuming`
/// constructors: retry budget, backoff shape, timeout, rescue resume,
/// crash scripting, and RNG seed compose freely in any order.
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Allows up to `max_retries` retries per job (flat unless a
    /// backoff is also configured).
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.cfg.retry.max_attempts = max_retries + 1;
        self
    }

    /// Replaces the whole retry policy in one go.
    pub fn policy(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Exponential backoff between retries: `base`, `2*base`, ...,
    /// capped at `64*base` (the same shape as
    /// [`RetryPolicy::exponential`]).
    pub fn backoff(mut self, base: f64) -> Self {
        self.cfg.retry.base_backoff = base;
        self
    }

    /// Per-attempt wall-clock timeout handed to the backend.
    pub fn timeout(mut self, timeout: f64) -> Self {
        self.cfg.retry.timeout = Some(timeout);
        self
    }

    /// Resumes from a rescue DAG: its DONE jobs are skipped.
    pub fn rescue(mut self, rescue: &RescueDag) -> Self {
        self.cfg.skip_done = rescue.done.iter().cloned().collect();
        self
    }

    /// Simulates a submit-host crash after `events` completion events.
    pub fn crash_after_events(mut self, events: u64) -> Self {
        self.cfg.crash_after_events = Some(events);
        self
    }

    /// Seeds the engine RNG (backoff jitter).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> EngineConfig {
        self.cfg
    }
}

/// The category of an attempt failure — what [`FaultCounters`]
/// tallies. A backend states it when it builds the [`Failure`]; nothing
/// downstream re-reads it from the detail text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultReason {
    /// The attempt was killed by preemption: the platform hazard, slot
    /// churn, or a scripted storm.
    Preemption,
    /// The attempt was evicted by a blackout window.
    Eviction,
    /// The attempt failed during the download/install phase.
    InstallFailure,
    /// The attempt exceeded the retry policy's per-attempt wall-clock
    /// timeout.
    Timeout,
    /// Anything else: task errors, panics, scripted test failures.
    Other,
}

impl FaultReason {
    /// The five wire prefixes, in discriminant order — the one place
    /// they are spelled. [`prefix`](Self::prefix) indexes it, the log's
    /// `reason=` field is read through [`from_prefix`](Self::from_prefix),
    /// and the verifier's reason/detail clause walks it.
    pub(crate) const WIRE: [(FaultReason, &'static str); 5] = [
        (FaultReason::Preemption, "preempted"),
        (FaultReason::Eviction, "evicted"),
        (FaultReason::InstallFailure, "install"),
        (FaultReason::Timeout, "timeout"),
        (FaultReason::Other, "error"),
    ];

    /// The canonical wire prefix for this category: the event log's
    /// `reason=` token and the metrics' `reason` label.
    pub fn prefix(self) -> &'static str {
        Self::WIRE[self as usize].1
    }

    /// The category whose wire prefix is exactly `token`.
    pub(crate) fn from_prefix(token: &str) -> Option<Self> {
        let row = Self::WIRE.iter().find(|(_, prefix)| *prefix == token);
        row.map(|(reason, _)| *reason)
    }

    /// A failure of this category with nothing to add: the detail is
    /// just the prefix, e.g. `"preempted"`.
    pub fn bare(self) -> Failure {
        Failure {
            reason: self,
            detail: self.prefix().into(),
        }
    }

    /// A failure of this category with `tag` after the colon, e.g.
    /// `"preempted:storm"`. A task's own error text goes in here, so
    /// whatever it says it stays in the category its backend gave it.
    pub fn tagged(self, tag: &str) -> Failure {
        Failure {
            reason: self,
            detail: format!("{}:{tag}", self.prefix()).into(),
        }
    }

    /// The failure of an attempt that exceeded the per-attempt
    /// wall-clock `limit` — shared by every timeout-capable backend.
    pub fn timeout_exceeded(limit: f64) -> Failure {
        let reason = FaultReason::Timeout;
        let detail = format!("{}: exceeded {limit}s", reason.prefix()).into();
        Failure { reason, detail }
    }
}

/// Failure counters for one run, by typed failure category, beside
/// its backoff sum: [`WorkflowRun::faults`] counts them off the
/// failure table.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultCounters {
    /// Attempts killed by preemption (hazard or scripted storm).
    pub preemptions: u64,
    /// Attempts evicted by slot churn or blackout windows.
    pub evictions: u64,
    /// Attempts that failed during the download/install phase.
    pub install_failures: u64,
    /// Attempts killed by the retry policy's wall-clock timeout.
    pub timeouts: u64,
    /// Failures of no platform category (task errors, panics).
    pub other_failures: u64,
    /// Total backoff seconds inserted before retries.
    pub backoff_wait: f64,
}

impl FaultCounters {
    /// All failed attempts, across categories.
    pub fn total_failures(&self) -> u64 {
        self.preemptions
            + self.evictions
            + self.install_failures
            + self.timeouts
            + self.other_failures
    }

    /// Folds another run's counters into this one — the ensemble
    /// rollup.
    pub(crate) fn merge(&mut self, other: &FaultCounters) {
        self.preemptions += other.preemptions;
        self.evictions += other.evictions;
        self.install_failures += other.install_failures;
        self.timeouts += other.timeouts;
        self.other_failures += other.other_failures;
        self.backoff_wait += other.backoff_wait;
    }
}

/// Final state of a job after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Completed successfully (possibly after retries).
    Done,
    /// Exhausted its retries.
    Failed,
    /// Never became ready (an ancestor failed).
    Unready,
    /// Skipped because a rescue DAG marked it done.
    SkippedDone,
}

/// Per-job accounting for a run, at its job's index in the run's
/// records. Its failed attempts live in the run's failure table: read
/// them with [`WorkflowRun::failures`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Display name (shared with the job's `JobDeclared` event).
    pub name: Name,
    /// Transformation name (likewise shared).
    pub transformation: Name,
    /// Job role.
    pub(crate) kind: JobKind,
    /// Final state.
    pub state: JobState,
    /// Attempts consumed (0 if never submitted).
    pub attempts: u32,
    /// Timestamps of the successful attempt, if any.
    pub times: Option<JobTimes>,
    /// Where the failed attempts lie in the run's failure table.
    pub(crate) failures: FailureChain,
}

/// A job's first and last entries in its run's failure table, each
/// entry linking to the job's next; [`FailureChain::NONE`] in both
/// while the job has not failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FailureChain {
    first: u32,
    last: u32,
}

impl FailureChain {
    /// The index no table reaches, as a run holds fewer than 2^32 - 1
    /// failures (at 64 bytes each, 256 GiB): the end of a chain.
    const END: u32 = u32::MAX;
    pub(crate) const NONE: FailureChain = FailureChain {
        first: Self::END,
        last: Self::END,
    };
}

/// One failed attempt of a job, as its terminal event reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedAttempt {
    /// Which attempt (0-based).
    pub attempt: u32,
    /// Timestamps of the attempt.
    pub times: JobTimes,
    /// Typed failure category.
    pub reason: FaultReason,
    /// The full wire string, shared with the terminal event that
    /// carried it.
    pub detail: Name,
}

/// The result of executing a workflow; by default, the run before its
/// first event, which the lifecycle fold starts from. It holds what
/// the events said and nothing derived from it twice: the rescue DAG
/// is [`RescueDag::of`] the run, its fault counts [`WorkflowRun::faults`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkflowRun {
    /// Workflow name.
    pub name: String,
    /// Execution site handle.
    pub site: String,
    /// Backend time of the `WorkflowStarted` header.
    pub start: f64,
    /// Workflow Wall Time: from first submission to last termination,
    /// in backend seconds.
    pub wall_time: f64,
    /// The `WorkflowFinished` trailer's verdict.
    pub(crate) succeeded: bool,
    /// Per-job accounting, indexed by [`JobId`].
    pub records: Vec<JobRecord>,
    /// Every failed attempt in event order, each beside the index of
    /// its job's next one (none for the last): one table for the run,
    /// where a `Vec` per failed job would hold room for four.
    pub(crate) failures: Vec<(FailedAttempt, u32)>,
    /// Total backoff seconds inserted before retries, summed in event
    /// order: the one retry fact the failure table does not hold.
    pub(crate) backoff_wait: f64,
    /// The append-only provenance stream the engine emitted — the
    /// single source every other field (and the statistics, analyzer,
    /// and rescue layers) can be re-derived from via
    /// [`crate::events::replay`].
    pub events: Vec<WorkflowEvent>,
}

impl WorkflowRun {
    /// `true` if the whole workflow completed.
    pub fn succeeded(&self) -> bool {
        self.succeeded
    }

    /// The run's failed attempts counted by category, beside its
    /// backoff sum.
    pub fn faults(&self) -> FaultCounters {
        let mut c = FaultCounters {
            backoff_wait: self.backoff_wait,
            ..FaultCounters::default()
        };
        for (failure, _) in &self.failures {
            *match failure.reason {
                FaultReason::Preemption => &mut c.preemptions,
                FaultReason::Eviction => &mut c.evictions,
                FaultReason::InstallFailure => &mut c.install_failures,
                FaultReason::Timeout => &mut c.timeouts,
                FaultReason::Other => &mut c.other_failures,
            } += 1;
        }
        c
    }

    /// The failed attempts of `rec`, one of this run's records, in
    /// order: the one way a job's failures are read.
    pub fn failures<'a>(
        &'a self,
        rec: &JobRecord,
    ) -> impl Iterator<Item = &'a FailedAttempt> + Clone + 'a {
        let entry = |at: u32| self.failures.get(at as usize);
        std::iter::successors(entry(rec.failures.first), move |(_, next)| entry(*next))
            .map(|(failure, _)| failure)
    }

    /// The last failed attempt of `rec`, found without walking its
    /// chain.
    pub(crate) fn last_failure(&self, rec: &JobRecord) -> Option<&FailedAttempt> {
        let last = self.failures.get(rec.failures.last as usize);
        last.map(|(failure, _)| failure)
    }

    /// Appends a failed attempt of `job` to the table and to the job's
    /// chain.
    pub(crate) fn push_failure(&mut self, job: JobId, failure: FailedAttempt) {
        let at = (u32::try_from(self.failures.len()).ok())
            .filter(|&at| at < FailureChain::END)
            .expect("memory runs out long before 2^32 - 1 failures (256 GiB)");
        let chain = &mut self.records[job.idx()].failures;
        match self.failures.get_mut(chain.last as usize) {
            Some((_, next)) => *next = at,
            None => chain.first = at,
        }
        chain.last = at;
        self.failures.push((failure, FailureChain::END));
    }

    /// Total retries consumed across all jobs.
    pub fn total_retries(&self) -> u32 {
        self.records
            .iter()
            .map(|r| r.attempts.saturating_sub(1))
            .sum()
    }
}

/// The sink that listens to nothing, for [`Engine::run`] callers that
/// don't care about progress.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopMonitor;

impl EventSink for NoopMonitor {
    fn event(&mut self, _ev: &WorkflowEvent) {}
}

/// The workflow engine — the single entry point for executing one
/// workflow on one backend.
///
/// A run is a one-member round of the scheduling loop that
/// [`crate::ensemble::Ensemble`] runs many workflows through, with
/// unbounded admission: every released job is submitted at once.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

impl Engine {
    /// Executes `wf` on `backend` under `config`, handing `sink` every
    /// [`WorkflowEvent`] as it is emitted, one
    /// [`EventSink::events`] batch after each submission or completion
    /// event, and the `WorkflowFinished` trailer last. What the sink
    /// saw is exactly the returned run's `events`. Pass
    /// [`NoopMonitor`] when progress reporting isn't needed.
    pub fn run(
        backend: &mut dyn ExecutionBackend,
        wf: &ExecutableWorkflow,
        config: &EngineConfig,
        sink: &mut dyn EventSink,
    ) -> WorkflowRun {
        let _prof = crate::prof::scope("engine.run");
        backend.set_timeout(config.retry.timeout);
        let member = Member::new(wf, config, backend.now(), 0, 0);
        let mut observe = |_: usize, events: &[WorkflowEvent]| sink.events(events);
        let mut runs = run_round(backend, vec![member], usize::MAX, None, &mut observe);
        runs.pop().expect("a one-member round has one run")
    }
}

pub mod scripted {
    //! A deterministic in-memory backend for tests and examples:
    //! jobs take `runtime_hint` simulated seconds on unlimited slots,
    //! with no queueing, and fail exactly on the (job name, attempt)
    //! pairs listed in `fail_plan`. Useful wherever engine behaviour
    //! must be exercised without a platform model.

    use super::*;

    /// Scripted simulation backend.
    #[derive(Debug, Default)]
    pub struct ScriptedBackend {
        clock: f64,
        /// (job name, attempt) pairs that must fail.
        pub fail_plan: HashSet<(Name, u32)>,
        /// Events not yet delivered: (finish_time, event).
        queue: Vec<(f64, CompletionEvent)>,
        /// Submission log (name, attempt).
        pub log: Vec<(Name, u32)>,
    }

    impl ScriptedBackend {
        /// Creates an empty backend at simulated time zero.
        pub fn new() -> Self {
            ScriptedBackend {
                clock: 0.0,
                fail_plan: HashSet::new(),
                queue: Vec::new(),
                log: Vec::new(),
            }
        }
    }

    impl ExecutionBackend for ScriptedBackend {
        fn submit(&mut self, job: &ExecutableJob, attempt: u32) {
            self.submit_after(job, attempt, 0.0);
        }

        fn submit_after(&mut self, job: &ExecutableJob, attempt: u32, delay: f64) {
            self.log.push((job.name.clone(), attempt));
            let submitted = self.clock + delay.max(0.0);
            let started = submitted; // unlimited slots, no queue
            let install_done = started + job.install_hint;
            let finished = install_done + job.runtime_hint;
            let fails = self.fail_plan.contains(&(job.name.clone(), attempt));
            self.queue.push((
                finished,
                CompletionEvent {
                    job: job.id,
                    attempt,
                    outcome: if fails {
                        let reason = FaultReason::Other;
                        let detail = "scripted".into();
                        JobOutcome::Failure(Failure { reason, detail })
                    } else {
                        JobOutcome::Success
                    },
                    times: JobTimes {
                        submitted,
                        started,
                        install_done,
                        finished,
                    },
                },
            ));
        }

        fn wait_any(&mut self) -> CompletionEvent {
            let (idx, _) = self
                .queue
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite times"))
                .expect("wait_any with nothing in flight");
            let (t, ev) = self.queue.swap_remove(idx);
            self.clock = self.clock.max(t);
            ev
        }

        fn now(&self) -> f64 {
            self.clock
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scripted::ScriptedBackend;
    use super::*;
    use crate::planner::{ExecutableJob, ExecutableWorkflow, JobKind};
    use rand::SeedableRng;

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

    fn e(raw: &[(usize, usize)]) -> Vec<(JobId, JobId)> {
        raw.iter()
            .map(|&(a, b)| (JobId::new(a), JobId::new(b)))
            .collect()
    }

    /// chain: a -> b -> c
    fn chain() -> ExecutableWorkflow {
        ExecutableWorkflow {
            name: "chain".into(),
            site: "test".into(),
            jobs: vec![
                job(0, "a", 10.0, 0.0),
                job(1, "b", 20.0, 0.0),
                job(2, "c", 5.0, 0.0),
            ],
            edges: e(&[(0, 1), (1, 2)]),
        }
    }

    /// fan: root -> {w0..w3} -> sink
    fn fan() -> ExecutableWorkflow {
        let mut jobs = vec![job(0, "root", 1.0, 0.0)];
        let mut edges = Vec::new();
        for i in 0..4 {
            jobs.push(job(1 + i, &format!("w{i}"), 10.0 + i as f64, 0.0));
            edges.push((0, 1 + i));
        }
        jobs.push(job(5, "sink", 2.0, 0.0));
        for i in 0..4 {
            edges.push((1 + i, 5));
        }
        ExecutableWorkflow {
            name: "fan".into(),
            site: "test".into(),
            jobs,
            edges: e(&edges),
        }
    }

    #[test]
    fn chain_executes_in_order_and_sums_wall_time() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        let run = Engine::run(&mut be, &wf, &EngineConfig::default(), &mut NoopMonitor);
        assert!(run.succeeded());
        assert_eq!(run.wall_time, 35.0);
        let order: Vec<&str> = be.log.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(run.records.iter().all(|r| r.state == JobState::Done));
    }

    #[test]
    fn fan_out_runs_in_parallel() {
        let wf = fan();
        let mut be = ScriptedBackend::new();
        let run = Engine::run(&mut be, &wf, &EngineConfig::default(), &mut NoopMonitor);
        assert!(run.succeeded());
        // root(1) + slowest worker(13) + sink(2) on unlimited slots.
        assert_eq!(run.wall_time, 16.0);
    }

    #[test]
    fn install_time_is_accounted_separately() {
        let wf = ExecutableWorkflow {
            name: "w".into(),
            site: "osg".into(),
            jobs: vec![job(0, "task", 100.0, 45.0)],
            edges: vec![],
        };
        let mut be = ScriptedBackend::new();
        let run = Engine::run(&mut be, &wf, &EngineConfig::default(), &mut NoopMonitor);
        let t = run.records[0].times.unwrap();
        assert_eq!(t.install(), 45.0);
        assert_eq!(t.kickstart(), 100.0);
        assert_eq!(t.waiting(), 0.0);
        assert_eq!(t.total(), 145.0);
        assert_eq!(run.wall_time, 145.0);
    }

    #[test]
    fn failure_without_retries_yields_rescue() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        let run = Engine::run(&mut be, &wf, &EngineConfig::default(), &mut NoopMonitor);
        assert!(!run.succeeded());
        let rescue = RescueDag::of(&run);
        assert_eq!(rescue.done, vec!["a"]);
        assert_eq!(rescue.workflow_name, "chain");
        assert_eq!(run.records[1].state, JobState::Failed);
        assert_eq!(run.records[2].state, JobState::Unready);
        assert_eq!(run.failures(&run.records[1]).count(), 1);
    }

    #[test]
    fn retry_recovers_transient_failures() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        be.fail_plan.insert(("b".into(), 1));
        let run = Engine::run(
            &mut be,
            &wf,
            &EngineConfig::builder().retries(3).build(),
            &mut NoopMonitor,
        );
        assert!(run.succeeded());
        assert_eq!(run.records[1].attempts, 3);
        assert_eq!(run.total_retries(), 2);
        // Wall time includes the two wasted attempts of b.
        assert_eq!(run.wall_time, 10.0 + 20.0 * 3.0 + 5.0);
    }

    #[test]
    fn retries_exhausted_still_fails() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        for attempt in 0..5 {
            be.fail_plan.insert(("b".into(), attempt));
        }
        let run = Engine::run(
            &mut be,
            &wf,
            &EngineConfig::builder().retries(2).build(),
            &mut NoopMonitor,
        );
        assert!(!run.succeeded());
        assert_eq!(run.records[1].attempts, 3); // initial + 2 retries
    }

    #[test]
    fn independent_branch_completes_despite_failure() {
        // root -> {ok, bad}; bad fails; ok still completes.
        let wf = ExecutableWorkflow {
            name: "w".into(),
            site: "t".into(),
            jobs: vec![
                job(0, "root", 1.0, 0.0),
                job(1, "ok", 5.0, 0.0),
                job(2, "bad", 5.0, 0.0),
            ],
            edges: e(&[(0, 1), (0, 2)]),
        };
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("bad".into(), 0));
        let run = Engine::run(&mut be, &wf, &EngineConfig::default(), &mut NoopMonitor);
        assert!(!run.succeeded());
        assert_eq!(run.records[1].state, JobState::Done);
        let rescue = RescueDag::of(&run);
        assert!(rescue.done.contains(&"root".into()));
        assert!(rescue.done.contains(&"ok".into()));
    }

    #[test]
    fn rescue_resume_skips_done_jobs() {
        let wf = chain();
        // First run: b fails.
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        let first = Engine::run(&mut be, &wf, &EngineConfig::default(), &mut NoopMonitor);
        assert!(!first.succeeded());
        let rescue = RescueDag::of(&first);
        // Second run resumes: a is skipped, b and c run.
        let mut be2 = ScriptedBackend::new();
        let run = Engine::run(
            &mut be2,
            &wf,
            &EngineConfig::builder().rescue(&rescue).build(),
            &mut NoopMonitor,
        );
        assert!(run.succeeded());
        assert_eq!(run.records[0].state, JobState::SkippedDone);
        let order: Vec<&str> = be2.log.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(order, vec!["b", "c"]);
        assert_eq!(run.wall_time, 25.0);
    }

    #[test]
    fn empty_workflow_succeeds_immediately() {
        let wf = ExecutableWorkflow {
            name: "empty".into(),
            site: "t".into(),
            jobs: vec![],
            edges: vec![],
        };
        let mut be = ScriptedBackend::new();
        let run = Engine::run(&mut be, &wf, &EngineConfig::default(), &mut NoopMonitor);
        assert!(run.succeeded());
        assert_eq!(run.wall_time, 0.0);
    }

    #[test]
    fn duplicate_edges_are_tolerated() {
        // The planner may emit redundant edges (create_dir -> every
        // compute plus transitive paths); the engine must count each
        // distinct edge once per occurrence consistently.
        let wf = ExecutableWorkflow {
            name: "dup".into(),
            site: "t".into(),
            jobs: vec![job(0, "a", 1.0, 0.0), job(1, "b", 1.0, 0.0)],
            edges: e(&[(0, 1), (0, 1)]),
        };
        let mut be = ScriptedBackend::new();
        let run = Engine::run(&mut be, &wf, &EngineConfig::default(), &mut NoopMonitor);
        assert!(run.succeeded());
        assert_eq!(run.wall_time, 2.0);
    }

    /// Records, as event-log lines, the events whose keyword is in
    /// `keep`.
    struct Tape(&'static [&'static str], String);
    impl EventSink for Tape {
        fn event(&mut self, ev: &WorkflowEvent) {
            let log = crate::events::log::write(std::slice::from_ref(ev));
            let line = log.lines().nth(1).expect("one event line");
            if self.0.iter().any(|k| line.starts_with(k)) {
                self.1 += line;
                self.1.push('\n');
            }
        }
    }

    #[test]
    fn sink_sees_submissions_and_terminations_in_order() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        let mut tape = Tape(
            &["submitted", "completed", "workflow-finished"],
            String::new(),
        );
        let run = Engine::run(&mut be, &wf, &EngineConfig::default(), &mut tape);
        assert!(run.succeeded());
        let order: Vec<&str> = tape
            .1
            .lines()
            .map(|l| l.split(" submitted=").next().expect("a head"))
            .collect();
        assert_eq!(
            order,
            vec![
                "submitted time=0 job=0 attempt=0",
                "completed job=0 attempt=0",
                "submitted time=10 job=1 attempt=0",
                "completed job=1 attempt=0",
                "submitted time=30 job=2 attempt=0",
                "completed job=2 attempt=0",
                "workflow-finished time=35 wall-time=35 succeeded=true"
            ]
        );
    }

    #[test]
    fn exponential_backoff_delays_resubmission() {
        // b fails twice; backoff 7s then 14s is inserted before the
        // retries, and the scripted backend honours the delays.
        let wf = chain();
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        be.fail_plan.insert(("b".into(), 1));
        let cfg = EngineConfig::builder()
            .policy(RetryPolicy::exponential(3, 7.0))
            .build();
        let run = Engine::run(&mut be, &wf, &cfg, &mut NoopMonitor);
        assert!(run.succeeded());
        // a(10) + b fails at 30, +7 backoff, fails at 57, +14 backoff,
        // succeeds at 91, + c(5) = 96.
        assert_eq!(run.wall_time, 96.0);
        assert_eq!(run.total_retries(), 2);
        assert_eq!(run.faults().backoff_wait, 21.0);
        assert_eq!(run.faults().other_failures, 2);
    }

    #[test]
    fn flat_policy_reproduces_legacy_wall_times() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        be.fail_plan.insert(("b".into(), 1));
        let run = Engine::run(
            &mut be,
            &wf,
            &EngineConfig::builder().retries(3).build(),
            &mut NoopMonitor,
        );
        assert!(run.succeeded());
        assert_eq!(run.wall_time, 10.0 + 20.0 * 3.0 + 5.0);
        assert_eq!(run.faults().backoff_wait, 0.0);
    }

    #[test]
    fn backoff_jitter_stays_within_bounds_and_is_seeded() {
        let policy = RetryPolicy::exponential(5, 10.0).with_jitter(0.2);
        let mut rng = StdRng::seed_from_u64(1);
        for attempt in 1..=5 {
            let base = 10.0 * 2f64.powi(attempt as i32 - 1);
            let d = policy.backoff_before(attempt, &mut rng);
            assert!(
                (base * 0.8..=base * 1.2).contains(&d),
                "attempt {attempt}: {d} outside ±20 % of {base}"
            );
        }
        // Same seed, same jitter stream.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            policy.backoff_before(2, &mut a),
            policy.backoff_before(2, &mut b)
        );
    }

    #[test]
    fn backoff_caps_at_max_backoff() {
        let policy = RetryPolicy::exponential(40, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(policy.backoff_before(30, &mut rng), 64.0);
    }

    #[test]
    fn crash_after_events_leaves_a_rescue_dag() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        let cfg = EngineConfig {
            crash_after_events: Some(1),
            ..Default::default()
        };
        let run = Engine::run(&mut be, &wf, &cfg, &mut NoopMonitor);
        assert!(!run.succeeded());
        assert_eq!(RescueDag::of(&run).done, vec!["a"]);
        // b is released by the crash-firing completion but never
        // submitted; no job is Failed.
        assert_eq!(run.records[1].state, JobState::Unready);
        assert_eq!(run.records[1].attempts, 0);
        assert_eq!(be.log.len(), 1, "nothing is submitted after the crash");
        assert!(run.records.iter().all(|r| r.state != JobState::Failed));
    }

    #[test]
    fn crash_at_final_event_is_a_clean_success() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        let cfg = EngineConfig {
            crash_after_events: Some(3),
            ..Default::default()
        };
        let run = Engine::run(&mut be, &wf, &cfg, &mut NoopMonitor);
        assert!(run.succeeded(), "nothing was in flight at the crash point");
    }

    #[test]
    fn crash_then_resume_completes_like_an_uninterrupted_run() {
        let wf = chain();
        let cfg = EngineConfig {
            crash_after_events: Some(2),
            ..Default::default()
        };
        let first = Engine::run(&mut ScriptedBackend::new(), &wf, &cfg, &mut NoopMonitor);
        assert!(!first.succeeded());
        let rescue = RescueDag::of(&first);
        let resumed = Engine::run(
            &mut ScriptedBackend::new(),
            &wf,
            &EngineConfig::builder().rescue(&rescue).build(),
            &mut NoopMonitor,
        );
        assert!(resumed.succeeded());
        let baseline = Engine::run(
            &mut ScriptedBackend::new(),
            &wf,
            &EngineConfig::default(),
            &mut NoopMonitor,
        );
        for (r, b) in resumed.records.iter().zip(&baseline.records) {
            let r_done = matches!(r.state, JobState::Done | JobState::SkippedDone);
            let b_done = matches!(b.state, JobState::Done | JobState::SkippedDone);
            assert_eq!(r_done, b_done, "{}", r.name);
        }
    }

    #[test]
    fn fault_counters_tally_every_row_of_the_prefix_table() {
        let (wf, cfg) = (chain(), EngineConfig::default());
        let mut run = Engine::run(&mut ScriptedBackend::new(), &wf, &cfg, &mut NoopMonitor);
        let reasons = FaultReason::WIRE.into_iter().map(|(reason, _)| reason);
        for (attempt, reason) in (0..).zip(reasons.chain([FaultReason::Preemption])) {
            let (times, detail) = (JobTimes::default(), "x".into());
            let failure = FailedAttempt {
                attempt,
                times,
                reason,
                detail,
            };
            run.push_failure(JobId::new(1), failure);
        }
        let c = run.faults();
        assert_eq!(c.preemptions, 2);
        assert_eq!(c.evictions, 1);
        assert_eq!(c.install_failures, 1);
        assert_eq!(c.timeouts, 1);
        assert_eq!(c.other_failures, 1);
        assert_eq!(c.total_failures(), 6);
    }

    #[test]
    fn fault_reason_round_trips_through_the_prefix_table() {
        // The table is in discriminant order, which is what lets
        // `prefix` index it.
        for (at, (reason, prefix)) in FaultReason::WIRE.into_iter().enumerate() {
            assert_eq!(reason as usize, at);
            assert_eq!(reason.prefix(), prefix);
            assert_eq!(FaultReason::from_prefix(prefix), Some(reason));
            assert_eq!(reason.bare().reason, reason);
            assert_eq!(reason.bare().detail, prefix);
        }
        assert_eq!(FaultReason::Other.prefix(), "error");
        assert_eq!(FaultReason::from_prefix("preempted:storm"), None);
        assert_eq!(FaultReason::from_prefix("gremlins"), None);
        let blackout = FaultReason::Eviction.tagged("blackout");
        assert_eq!(blackout.reason, FaultReason::Eviction);
        assert_eq!(blackout.detail, "evicted:blackout");
        let limit = FaultReason::timeout_exceeded(600.0);
        assert_eq!(limit.reason, FaultReason::Timeout);
        assert_eq!(limit.detail, "timeout: exceeded 600s");
        // Outside text keeps the category its backend gave it.
        let task = FaultReason::Other.tagged("timeout talking to the database");
        assert_eq!(task.reason, FaultReason::Other);
        assert_eq!(task.detail, "error:timeout talking to the database");
    }

    /// Fails the one attempt it is handed with `failure`.
    struct Dies(Option<CompletionEvent>, Failure);
    impl ExecutionBackend for Dies {
        fn submit(&mut self, job: &ExecutableJob, attempt: u32) {
            self.0 = Some(CompletionEvent {
                job: job.id,
                attempt,
                outcome: JobOutcome::Failure(self.1.clone()),
                times: JobTimes {
                    finished: 1.0,
                    ..JobTimes::default()
                },
            });
        }
        fn wait_any(&mut self) -> CompletionEvent {
            self.0.take().expect("one attempt in flight")
        }
        fn now(&self) -> f64 {
            0.0
        }
    }

    #[test]
    fn the_event_follows_the_stated_category_not_the_text() {
        // A detail that opens with another category's prefix changes
        // nothing: `timed-out` iff the backend said `Timeout`.
        let wf = chain();
        for (reason, detail, keyword) in [
            (
                FaultReason::Other,
                "timeout talking to the database",
                "failed",
            ),
            (FaultReason::Timeout, "gave up", "timed-out"),
        ] {
            let detail: Name = detail.into();
            let failure = Failure {
                reason,
                detail: detail.clone(),
            };
            let cfg = EngineConfig::default();
            let run = Engine::run(&mut Dies(None, failure), &wf, &cfg, &mut NoopMonitor);
            let terminal = &run.events[run.events.len() - 2];
            let log = crate::events::log::write(std::slice::from_ref(terminal));
            let line = log.lines().nth(1).expect("one event line");
            assert!(line.starts_with(keyword), "{line}");
            assert!(line.ends_with(&format!("detail={detail}")), "{line}");
            assert_eq!(run.failures(&run.records[0]).next().unwrap().reason, reason);
            assert_eq!(run.faults().total_failures(), 1);
        }
    }

    #[test]
    fn builder_composes_every_field() {
        assert_eq!(
            EngineConfig::builder().retries(4).build().retry,
            RetryPolicy::flat(4)
        );
        assert_eq!(
            EngineConfig::builder()
                .policy(RetryPolicy::exponential(2, 5.0))
                .build()
                .retry,
            RetryPolicy::exponential(2, 5.0)
        );
        let cfg = EngineConfig::builder()
            .retries(3)
            .backoff(30.0)
            .timeout(600.0)
            .seed(2014)
            .crash_after_events(7)
            .build();
        assert_eq!(cfg.retry.max_attempts, 4);
        assert_eq!(cfg.retry.base_backoff, 30.0);
        assert_eq!(cfg.retry.capped_backoff(30), 64.0 * 30.0);
        assert_eq!(cfg.retry.timeout, Some(600.0));
        assert_eq!(cfg.seed, 2014);
        assert_eq!(cfg.crash_after_events, Some(7));
    }

    #[test]
    fn sink_sees_retry_delay_and_reason() {
        let wf = chain();
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("b".into(), 0));
        let mut tape = Tape(&["retry-scheduled"], String::new());
        let cfg = EngineConfig::builder()
            .policy(RetryPolicy::exponential(2, 5.0))
            .build();
        let run = Engine::run(&mut be, &wf, &cfg, &mut tape);
        assert!(run.succeeded());
        assert_eq!(
            tape.1,
            "retry-scheduled time=30 job=1 next-attempt=1 backoff=5 reason=error detail=scripted\n"
        );
    }

    #[test]
    fn skip_done_cascade_releases_deep_children() {
        let wf = chain();
        let mut cfg = EngineConfig::default();
        cfg.skip_done.insert("a".into());
        cfg.skip_done.insert("b".into());
        let mut be = ScriptedBackend::new();
        let run = Engine::run(&mut be, &wf, &cfg, &mut NoopMonitor);
        assert!(run.succeeded());
        let order: Vec<&str> = be.log.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(order, vec!["c"]);
    }
}
