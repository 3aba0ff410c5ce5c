//! Ensemble manager: many workflows over one shared backend.
//!
//! The paper's experiment is an *ensemble* — the same blast2cap3 DAG
//! planned at n ∈ {10, 100, 300, 500} and raced across platforms. This
//! module schedules M workflows (mixed DAXes, per-workflow
//! [`EngineConfig`]s, priorities, tenants) against a single
//! [`ExecutionBackend`], so queue-wait variance emerges from genuine
//! contention for shared capacity instead of being replayed one
//! workflow at a time.
//!
//! The entry point is [`Ensemble::run_to_completion`]: hand it the
//! round's [`Submission`]s and an [`EnsembleConfig`], get every
//! member's run back. Which submissions make up a round — queueing,
//! cancellation, the per-tenant queue quota — is the caller's ledger
//! to keep (for `pegasus serve`, [`crate::serve::Ledger`]).
//!
//! Scheduling model:
//!
//! * every workflow keeps its released jobs in its own **ready
//!   queue**, in release order;
//! * admission is gated by a global **slot budget**
//!   ([`EnsembleConfig::slot_budget`], defaulting to the backend's
//!   [`ExecutionBackend::slot_capacity`]);
//! * each admission picks a workflow and submits the oldest job of its
//!   queue: higher [`Submission::priority`] wins, ties broken
//!   **fair-share** first across tenants, then across workflows
//!   (fewest jobs currently in flight, then least historical usage),
//!   then by submission order — so within one workflow the engine's
//!   ready order is preserved exactly;
//! * a per-tenant slot quota ([`EnsembleConfig::tenant_slots`]) caps
//!   how much of the budget any one tenant can hold; jobs of a tenant
//!   at quota stay queued while other tenants' jobs overtake them;
//! * retries bypass the queue: the failed attempt freed its slot, and
//!   the backend applies the backoff delay, so the budget stays
//!   bounded;
//! * a scripted submit-host crash kills only its own workflow — its
//!   queued jobs are withdrawn unsubmitted, its in-flight events
//!   drained, and the rescue DAG reports exactly what completed, while
//!   the rest of the ensemble keeps running.
//!
//! Single-tenant ensembles order admissions exactly as before the
//! tenant layer existed: with one tenant every candidate carries the
//! same tenant-level key, so the comparison falls through to the
//! per-workflow fair-share unchanged. [`Engine::run`] is a one-member
//! round of the same loop with unbounded admission, so an ensemble of
//! one workflow under [`EnsembleConfig::unbounded`] issues the same
//! backend calls and emits the same events.
//!
//! [`Engine::run`]: crate::engine::Engine::run

use crate::engine::{
    EngineConfig, ExecutionBackend, Failure, FaultReason, JobOutcome, JobState, RetryPolicy,
    WorkflowRun,
};
use crate::error::WmsError;
use crate::events::WorkflowEvent;
use crate::graph::Csr;
use crate::planner::{ExecutableJob, ExecutableWorkflow};
use crate::workflow::JobId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// The tenant a [`Submission`] belongs to when none is named.
pub const DEFAULT_TENANT: &str = "default";

/// One member of an ensemble: a planned workflow plus how — and for
/// whom — to run it.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The planned, executable workflow.
    pub workflow: ExecutableWorkflow,
    /// Engine configuration (retry policy, seed, rescue skips, crash
    /// script) applied to this workflow only.
    pub config: EngineConfig,
    /// Admission priority; higher runs first when slots are scarce.
    /// Workflows of equal priority share slots fairly.
    pub priority: i32,
    /// The tenant charged for this workflow's slot usage. Fair-share
    /// and quota apply per tenant before per workflow.
    pub tenant: String,
}

impl Submission {
    /// A submission for the [`DEFAULT_TENANT`] at priority 0.
    pub fn new(workflow: ExecutableWorkflow, config: EngineConfig) -> Self {
        Submission {
            workflow,
            config,
            priority: 0,
            tenant: DEFAULT_TENANT.to_string(),
        }
    }

    /// Sets the admission priority (higher wins).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Names the owning tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// Ensemble-level knobs.
#[derive(Debug, Clone, Default)]
pub struct EnsembleConfig {
    /// Global cap on simultaneously submitted jobs across all member
    /// workflows. `None` falls back to the backend's
    /// [`ExecutionBackend::slot_capacity`]; if that is also unknown,
    /// admission is unbounded and the backend's own queueing governs.
    pub slot_budget: Option<usize>,
    /// Per-tenant cap on jobs in flight (the quota). `None` leaves
    /// tenants bounded only by the global budget; values are clamped
    /// to at least 1 so a tenant can always make progress.
    pub tenant_slots: Option<usize>,
}

impl EnsembleConfig {
    /// An unbounded-admission config (ignores backend capacity): the
    /// admission [`Engine::run`](crate::engine::Engine::run) runs its
    /// one-member round under.
    pub fn unbounded() -> Self {
        EnsembleConfig {
            slot_budget: Some(usize::MAX),
            ..EnsembleConfig::default()
        }
    }

    /// A config with an explicit slot budget.
    pub fn with_slot_budget(slots: usize) -> Self {
        EnsembleConfig {
            slot_budget: Some(slots),
            ..EnsembleConfig::default()
        }
    }

    /// Sets the per-tenant in-flight job quota.
    pub fn with_tenant_slots(mut self, slots: usize) -> Self {
        self.tenant_slots = Some(slots);
        self
    }
}

/// The result of an ensemble round.
///
/// Each member [`WorkflowRun`] carries its own provenance stream
/// (`runs[i].events`), scoped to that workflow's jobs — so every
/// member can be independently replayed, logged, and analysed offline,
/// and [`crate::statistics::compute_ensemble`] is a fold over streams.
#[derive(Debug, Clone)]
pub struct EnsembleRun {
    /// Per-workflow results, in [`Submission`] order.
    pub runs: Vec<WorkflowRun>,
    /// Time from ensemble start to the last workflow's completion, in
    /// backend seconds.
    pub makespan: f64,
}

impl EnsembleRun {
    /// `true` when every member workflow succeeded.
    pub fn succeeded(&self) -> bool {
        self.runs.iter().all(WorkflowRun::succeeded)
    }
}

/// Lifecycle state of one submission to a service that queues them
/// for rounds (`pegasus serve` reports it per member).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Accepted, waiting for the next round.
    Queued,
    /// Withdrawn before it ran.
    Cancelled,
    /// Ran to completion with every job done.
    Succeeded,
    /// Ran but failed (retries exhausted or submit host crashed).
    Failed,
}

/// One workflow of a round, as [`run_round`] schedules it: the run its
/// events fold into and, while it is live, what it is scheduled by.
pub(crate) struct Member<'w> {
    /// The jobs as the backend is handed them: ids offset by the jobs
    /// of the members before this one.
    jobs: &'w [ExecutableJob],
    priority: i32,
    tenant: usize,
    /// Attempts in flight, a crashed member's stale ones included.
    in_flight: usize,
    /// First-attempt submissions so far — the historical-usage
    /// tiebreaker that keeps equal-priority workflows interleaving
    /// even when the budget is one slot (in-flight counts all tie at
    /// zero there).
    admitted: usize,
    /// The run so far: the append-only provenance stream, and every
    /// record, counter and outcome its events fold into. The member
    /// keeps no lifecycle fact beside it.
    run: WorkflowRun,
    /// The scheduling state, which a finished member no longer holds.
    live: Option<Schedule>,
}

/// What a live member is scheduled by.
struct Schedule {
    children: Csr,
    /// Per job, its parents not yet done.
    pending_parents: Vec<u32>,
    /// Released jobs waiting for a slot, in release order.
    ready: VecDeque<JobId>,
    retry: RetryPolicy,
    /// Draws the backoff jitter.
    rng: StdRng,
    /// Completions left before the scripted submit-host crash.
    crash_in: Option<u64>,
}

impl<'w> Member<'w> {
    /// The member running `wf` under `config` from `start` (backend
    /// seconds), at `priority`, charged to the round's tenant number
    /// `tenant`. Its header, manifest and rescue skips are emitted at
    /// once: the replayed run must know every job, including ones that
    /// never become ready. A rescue-skipped job is done unconditionally
    /// — its work products exist from the previous run even when this
    /// plan's auxiliary ancestors (create_dir, transfers) differ and
    /// re-run — and the jobs whose parents are all done start the
    /// ready queue, in id order.
    pub(crate) fn new(
        wf: &'w ExecutableWorkflow,
        config: &EngineConfig,
        start: f64,
        priority: i32,
        tenant: usize,
    ) -> Self {
        let n = wf.jobs.len();
        let children = wf.children();
        let mut pending_parents = children.reverse_degrees();
        let mut run = WorkflowRun::default();
        // Header and trailer, and per job its declaration and the three
        // events of an attempt; installs and retries grow it from there.
        run.events.reserve(4 * n + 2);
        emit(
            &mut run,
            WorkflowEvent::WorkflowStarted {
                name: wf.name.as_str().into(),
                site: wf.site.as_str().into(),
                // Each job has a `JobId`, so their number fits its `u32`.
                jobs: u32::try_from(n).unwrap_or(u32::MAX),
                time: start,
            },
        );
        for (at, j) in wf.jobs.iter().enumerate() {
            let declared = WorkflowEvent::JobDeclared {
                job: JobId::new(at),
                name: j.name.clone(),
                transformation: j.transformation.clone(),
                kind: j.kind,
            };
            emit(&mut run, declared);
        }
        for (at, j) in wf.jobs.iter().enumerate() {
            if config.skip_done.contains(&j.name) {
                let job = JobId::new(at);
                emit(&mut run, WorkflowEvent::Skipped { job, time: start });
                for &c in children.neighbors(job) {
                    pending_parents[c.idx()] -= 1;
                }
            }
        }
        let ready = (0..n)
            .map(JobId::new)
            .filter(|&j| pending_parents[j.idx()] == 0 && !done(&run, j))
            .collect();
        Member {
            jobs: &wf.jobs,
            priority,
            tenant,
            in_flight: 0,
            admitted: 0,
            run,
            live: Some(Schedule {
                children,
                pending_parents,
                ready,
                retry: config.retry.clone(),
                rng: StdRng::seed_from_u64(config.seed),
                crash_in: config.crash_after_events,
            }),
        }
    }

    /// Ends member `index`'s run at `now`: drops its scheduling state
    /// (a crashed member's released but unsubmitted jobs with it) and
    /// hands `observe` the trailer. The run failed if its submit host
    /// `crashed` or a job ran out of attempts.
    fn finish(
        &mut self,
        index: usize,
        now: f64,
        crashed: bool,
        observe: &mut dyn FnMut(usize, &[WorkflowEvent]),
    ) {
        self.live = None;
        let failed = crashed || (self.run.records.iter()).any(|r| r.state == JobState::Failed);
        let (from, wall_time) = (self.run.events.len(), now - self.run.start);
        let trailer = WorkflowEvent::WorkflowFinished {
            succeeded: !failed,
            wall_time,
            time: now,
        };
        emit(&mut self.run, trailer);
        observe(index, &self.run.events[from..]);
    }
}

/// Appends `ev` to `run`'s stream and folds it into the run.
fn emit(run: &mut WorkflowRun, ev: WorkflowEvent) {
    run.apply(&ev);
    run.events.push(ev);
}

/// Whether `job` of `run` is done: completed, or skipped as done.
fn done(run: &WorkflowRun, job: JobId) -> bool {
    let state = run.records[job.idx()].state;
    matches!(state, JobState::Done | JobState::SkippedDone)
}

/// Per-tenant bookkeeping inside a running round, mirroring the
/// per-workflow counters one level up.
#[derive(Clone, Default)]
struct TenantShare {
    in_flight: usize,
    admitted: usize,
}

/// The one scheduling loop, behind [`Engine::run`] and both
/// [`Ensemble`] entry points: drives `members` over `backend` as one
/// round and returns their runs in order.
///
/// At most `budget` attempts are in flight, and at most `quota` of one
/// tenant's. `observe` is handed each member's events as they are
/// emitted, headers first. A completion finds its member by its id,
/// which member k's jobs carry offset by the jobs of members 0..k.
/// A completion releases the children whose last pending parent it
/// was; a failure with attempts left is resubmitted at once, after its
/// backoff; after the scripted number of completions the member's
/// submit host crashes. The round ends when no member is live: a
/// crashed member's released jobs are withdrawn unsubmitted, and its
/// attempts still in flight drain as stale completions only while
/// another member runs.
///
/// [`Engine::run`]: crate::engine::Engine::run
pub(crate) fn run_round(
    backend: &mut dyn ExecutionBackend,
    mut members: Vec<Member<'_>>,
    budget: usize,
    quota: Option<usize>,
    observe: &mut dyn FnMut(usize, &[WorkflowEvent]),
) -> Vec<WorkflowRun> {
    // Member k's first job id: the number of jobs of members 0..k.
    let (mut firsts, mut next) = (Vec::with_capacity(members.len()), 0);
    for m in &members {
        firsts.push(next);
        next += m.jobs.len();
    }
    let tenants = members.iter().map(|m| m.tenant + 1).max().unwrap_or(0);
    let mut shares = vec![TenantShare::default(); tenants];
    let mut in_flight = 0usize;
    let mut live = members.len();

    // The header + manifest (and rescue skips) exist as soon as the
    // member does: forward them before any admission, so incremental
    // logs always start well-formed.
    for (i, m) in members.iter().enumerate() {
        observe(i, &m.run.events);
    }
    // Workflows with nothing to run (empty, or fully rescue-skipped)
    // finish without touching the backend.
    for (i, m) in members.iter_mut().enumerate() {
        if m.live.as_ref().is_some_and(|s| s.ready.is_empty()) {
            m.finish(i, backend.now(), false, observe);
            live -= 1;
        }
    }

    while live > 0 {
        // Admission: fill the budget, one member's oldest ready job at
        // a time. Higher priority first; ties go first to the tenant
        // with the fewest jobs in flight, then to the workflow with
        // the fewest (fair share), then to the earlier member. Tenants
        // at their slot quota are passed over entirely.
        while in_flight < budget {
            let mut best = None;
            for (i, m) in members.iter().enumerate() {
                let share = &shares[m.tenant];
                let waiting = m.live.as_ref().is_some_and(|s| !s.ready.is_empty());
                if !waiting || quota.is_some_and(|q| share.in_flight >= q) {
                    continue;
                }
                let key = (
                    Reverse(m.priority),
                    share.in_flight,
                    share.admitted,
                    m.in_flight,
                    m.admitted,
                );
                if best.as_ref().is_none_or(|(_, least)| key < *least) {
                    best = Some((i, key));
                }
            }
            let Some((i, _)) = best else { break };
            let m = &mut members[i];
            let Some(job) = m.live.as_mut().and_then(|s| s.ready.pop_front()) else {
                break;
            };
            // Stamped before the hand-over: on a real clock no attempt
            // then records a `submitted` earlier than its own event.
            let from = m.run.events.len();
            let time = backend.now();
            emit(
                &mut m.run,
                WorkflowEvent::Submitted {
                    job,
                    attempt: 0,
                    time,
                },
            );
            backend.submit(&m.jobs[job.idx()], 0);
            observe(i, &m.run.events[from..]);
            m.in_flight += 1;
            m.admitted += 1;
            shares[m.tenant].in_flight += 1;
            shares[m.tenant].admitted += 1;
            in_flight += 1;
        }

        let ev = backend.wait_any();
        in_flight -= 1;
        let i = firsts.partition_point(|&first| first <= ev.job.idx()) - 1;
        let m = &mut members[i];
        m.in_flight -= 1;
        shares[m.tenant].in_flight -= 1;
        let Some(s) = m.live.as_mut() else {
            // Stale completion from a member that already crashed: the
            // slot is reclaimed, the result discarded.
            continue;
        };
        let (job, attempt, t) = (JobId::new(ev.job.idx() - firsts[i]), ev.attempt, ev.times);
        let from = m.run.events.len();
        // The attempt's phase transitions, recovered from its
        // timestamps: slot acquisition / install start (when there was
        // an install phase), then execution start.
        if t.install_done > t.started {
            let time = t.started;
            emit(
                &mut m.run,
                WorkflowEvent::InstallStarted { job, attempt, time },
            );
        }
        let time = t.install_done;
        emit(&mut m.run, WorkflowEvent::Started { job, attempt, time });
        match ev.outcome {
            JobOutcome::Success => {
                emit(
                    &mut m.run,
                    WorkflowEvent::Completed {
                        job,
                        attempt,
                        times: t,
                    },
                );
                for &c in s.children.neighbors(job) {
                    let pending = &mut s.pending_parents[c.idx()];
                    *pending -= 1;
                    if *pending == 0 && !done(&m.run, c) {
                        s.ready.push_back(c);
                    }
                }
            }
            JobOutcome::Failure(Failure { reason, detail }) => {
                let times = Box::new(t);
                emit(
                    &mut m.run,
                    if reason == FaultReason::Timeout {
                        let detail = detail.clone();
                        WorkflowEvent::TimedOut {
                            job,
                            attempt,
                            detail,
                            times,
                        }
                    } else {
                        let detail = detail.clone();
                        WorkflowEvent::Failed {
                            job,
                            attempt,
                            reason,
                            detail,
                            times,
                        }
                    },
                );
                let attempts = m.run.records[job.idx()].attempts;
                if attempts < s.retry.max_attempts {
                    let (next_attempt, time) = (attempt + 1, t.finished);
                    let backoff = s.retry.backoff_before(attempts, &mut s.rng);
                    emit(
                        &mut m.run,
                        WorkflowEvent::RetryScheduled {
                            job,
                            next_attempt,
                            backoff,
                            reason,
                            detail,
                            time,
                        },
                    );
                    let attempt = next_attempt;
                    emit(&mut m.run, WorkflowEvent::Submitted { job, attempt, time });
                    // The failed attempt just released its slot; the
                    // retry reclaims it, so the budget stays respected
                    // without re-queueing (the backend enforces the
                    // backoff).
                    backend.submit_after(&m.jobs[job.idx()], attempt, backoff);
                    m.in_flight += 1;
                    shares[m.tenant].in_flight += 1;
                    in_flight += 1;
                }
            }
        }
        observe(i, &m.run.events[from..]);
        // Scripted submit-host crash: DAGMan dies after this many
        // completions; in-flight work is abandoned and only completed
        // jobs make it into the rescue DAG.
        if let Some(left) = s.crash_in.as_mut() {
            *left = left.saturating_sub(1);
        }
        let outstanding = m.in_flight + s.ready.len();
        let crashed = s.crash_in == Some(0) && outstanding > 0;
        if crashed || outstanding == 0 {
            m.finish(i, backend.now(), crashed, observe);
            live -= 1;
        }
    }

    members.into_iter().map(|m| m.run).collect()
}

/// The ensemble manager — the single entry point for executing many
/// workflows as one round on one shared backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ensemble;

impl Ensemble {
    /// Runs `submissions` against the shared `backend` as one round,
    /// interleaving their ready queues under the slot budget and the
    /// per-tenant quota.
    ///
    /// Results come back in submission order; each [`WorkflowRun`]'s
    /// wall time spans round start to that workflow's own completion,
    /// so the rollup can distinguish per-member latency from ensemble
    /// makespan. The backend timeout is the members' unanimous value
    /// if they agree, otherwise the tightest configured limit
    /// (conservative — a shared submit host enforces one policy).
    ///
    /// # Errors
    /// [`WmsError::InvariantViolation`] when a member's executable job
    /// ids are not dense (`jobs[i].id != i`): the global id mapping
    /// would silently mis-route completions. Planner output always
    /// satisfies this; hand-built workflows may not.
    pub fn run_to_completion(
        backend: &mut dyn ExecutionBackend,
        submissions: Vec<Submission>,
        config: &EnsembleConfig,
    ) -> Result<EnsembleRun, WmsError> {
        Self::run_to_completion_monitored(backend, submissions, config, &mut |_, _| {})
    }

    /// [`run_to_completion`](Self::run_to_completion), handing `observe`
    /// each member's events as they are emitted, with its position in
    /// `submissions`. One member's batches concatenate to its run's
    /// `events`; the last ends with the `WorkflowFinished` trailer.
    ///
    /// # Errors
    /// As [`run_to_completion`](Self::run_to_completion).
    pub fn run_to_completion_monitored(
        backend: &mut dyn ExecutionBackend,
        mut submissions: Vec<Submission>,
        config: &EnsembleConfig,
        observe: &mut dyn FnMut(usize, &[WorkflowEvent]),
    ) -> Result<EnsembleRun, WmsError> {
        let _prof = crate::prof::scope("ensemble.join");
        for sub in &submissions {
            for (local, j) in sub.workflow.jobs.iter().enumerate() {
                if j.id.idx() != local {
                    return Err(WmsError::InvariantViolation {
                        invariant: "executable job ids are dense".into(),
                        detail: format!(
                            "workflow {:?} job at index {local} has id {}",
                            sub.workflow.name, j.id
                        ),
                    });
                }
            }
        }

        let timeouts: Vec<Option<f64>> =
            submissions.iter().map(|s| s.config.retry.timeout).collect();
        let timeout = if timeouts.windows(2).all(|w| w[0] == w[1]) {
            timeouts.first().copied().flatten()
        } else {
            timeouts.iter().flatten().copied().reduce(f64::min)
        };
        backend.set_timeout(timeout);

        let budget = config
            .slot_budget
            .or_else(|| backend.slot_capacity())
            .unwrap_or(usize::MAX)
            .max(1);
        let quota = config.tenant_slots.map(|q| q.max(1));

        // The jobs are renumbered in place into the round's one id
        // space; each member declares them by their local index.
        let start = backend.now();
        let jobs = submissions
            .iter_mut()
            .flat_map(|sub| &mut sub.workflow.jobs);
        for (id, job) in jobs.enumerate() {
            job.id = JobId::new(id);
        }
        let mut tenants: Vec<&str> = Vec::new();
        let members = submissions
            .iter()
            .map(|sub| {
                let known = tenants.iter().position(|t| *t == sub.tenant);
                let tenant = known.unwrap_or_else(|| {
                    tenants.push(&sub.tenant);
                    tenants.len() - 1
                });
                Member::new(&sub.workflow, &sub.config, start, sub.priority, tenant)
            })
            .collect();

        let runs = run_round(backend, members, budget, quota, observe);
        let makespan = runs.iter().map(|r| r.wall_time).fold(0.0, f64::max);
        Ok(EnsembleRun { runs, makespan })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::scripted::ScriptedBackend;
    use crate::engine::{JobState, RetryPolicy};
    use crate::planner::{ExecutableJob, JobKind};

    fn job(id: usize, name: &str, runtime: f64) -> ExecutableJob {
        ExecutableJob {
            id: JobId::new(id),
            name: name.into(),
            transformation: "t".into(),
            kind: JobKind::Compute,
            args: Default::default(),
            runtime_hint: runtime,
            install_hint: 0.0,
        }
    }

    /// A diamond: a → {b, c} → d.
    fn diamond(name: &str) -> ExecutableWorkflow {
        ExecutableWorkflow {
            name: name.into(),
            site: "test".into(),
            jobs: vec![
                job(0, &format!("{name}_a"), 1.0),
                job(1, &format!("{name}_b"), 2.0),
                job(2, &format!("{name}_c"), 3.0),
                job(3, &format!("{name}_d"), 1.0),
            ],
            edges: [(0, 1), (0, 2), (1, 3), (2, 3)]
                .iter()
                .map(|&(p, c)| (JobId::new(p), JobId::new(c)))
                .collect(),
        }
    }

    fn cfg(seed: u64) -> EngineConfig {
        let mut c = EngineConfig::builder().retries(2).build();
        c.seed = seed;
        c
    }

    #[test]
    fn ensemble_of_one_matches_engine_run() {
        let wf = diamond("solo");
        let config = cfg(7);

        let mut single_backend = ScriptedBackend::new();
        let single = crate::engine::Engine::run(
            &mut single_backend,
            &wf,
            &config,
            &mut crate::engine::NoopMonitor,
        );

        let mut ens_backend = ScriptedBackend::new();
        let ens = Ensemble::run_to_completion(
            &mut ens_backend,
            vec![Submission::new(wf, config)],
            &EnsembleConfig::default(),
        )
        .unwrap();

        assert_eq!(ens.runs.len(), 1);
        let e = &ens.runs[0];
        assert_eq!(e.wall_time, single.wall_time);
        assert_eq!(e.records.len(), single.records.len());
        for (a, b) in e.records.iter().zip(&single.records) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.state, b.state);
            assert_eq!(a.attempts, b.attempts);
            assert_eq!(a.times, b.times);
        }
        assert_eq!(single_backend.log, ens_backend.log, "same submission tape");
        assert_eq!(ens.makespan, single.wall_time);
    }

    #[test]
    fn non_dense_job_ids_are_a_typed_error_at_submit() {
        // Sparse ids would silently mis-route completions through the
        // global id mapping; the round is refused at the API boundary,
        // before any member touches the backend.
        let sparse = ExecutableWorkflow {
            name: "sparse".into(),
            site: "test".into(),
            jobs: vec![job(3, "a", 1.0)],
            edges: vec![],
        };
        let mut backend = ScriptedBackend::new();
        let err = Ensemble::run_to_completion(
            &mut backend,
            vec![
                Submission::new(diamond("fine"), cfg(1)),
                Submission::new(sparse, cfg(1)),
            ],
            &EnsembleConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, crate::error::WmsError::InvariantViolation { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("sparse"), "{err}");
        assert!(backend.log.is_empty(), "nothing was submitted");
    }

    #[test]
    fn two_workflows_share_the_backend_and_both_finish() {
        let subs = vec![
            Submission::new(diamond("w0"), cfg(1)),
            Submission::new(diamond("w1"), cfg(2)),
        ];
        let mut backend = ScriptedBackend::new();
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::default()).unwrap();
        assert!(ens.succeeded());
        assert_eq!(ens.runs[0].name, "w0");
        assert_eq!(ens.runs[1].name, "w1");
        for run in &ens.runs {
            assert!(run.records.iter().all(|r| r.state == JobState::Done));
        }
    }

    #[test]
    fn slot_budget_of_one_serialises_submissions_fairly() {
        let subs = vec![
            Submission::new(diamond("w0"), cfg(1)),
            Submission::new(diamond("w1"), cfg(2)),
        ];
        let mut backend = ScriptedBackend::new();
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::with_slot_budget(1))
                .unwrap();
        assert!(ens.succeeded());
        // With one slot, roots alternate across workflows (fair share
        // by historical usage): w0_a first (lower index), then w1_a.
        assert_eq!(backend.log[0].0, "w0_a");
        assert_eq!(backend.log[1].0, "w1_a");
    }

    #[test]
    fn priority_preempts_fair_share_in_admission_order() {
        let subs = vec![
            Submission::new(diamond("lo"), cfg(1)),
            Submission::new(diamond("hi"), cfg(2)).with_priority(10),
        ];
        let mut backend = ScriptedBackend::new();
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::with_slot_budget(1))
                .unwrap();
        assert!(ens.succeeded());
        assert_eq!(
            backend.log[0].0, "hi_a",
            "higher priority admits first even though it was enqueued later"
        );
    }

    #[test]
    fn tenants_share_slots_fairly_before_workflows() {
        // alice owns two workflows, bob one. Under workflow-level fair
        // share alone the roots would admit a0, a1, b0 (round-robin by
        // workflow); tenant-level fair share admits a0, then bob
        // (tenant with least usage), then a1.
        let subs = vec![
            Submission::new(diamond("a0"), cfg(1)).with_tenant("alice"),
            Submission::new(diamond("a1"), cfg(2)).with_tenant("alice"),
            Submission::new(diamond("b0"), cfg(3)).with_tenant("bob"),
        ];
        let mut backend = ScriptedBackend::new();
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::with_slot_budget(1))
                .unwrap();
        assert!(ens.succeeded());
        assert_eq!(backend.log[0].0, "a0_a");
        assert_eq!(
            backend.log[1].0, "b0_a",
            "bob overtakes alice's second root"
        );
        assert_eq!(backend.log[2].0, "a1_a");
    }

    #[test]
    fn tenant_slot_quota_caps_in_flight_jobs() {
        // Budget 4 with a per-tenant quota of 1: each tenant's
        // diamond fans out into a parallel middle layer (b, c), but
        // the quota forces every tenant to run it serialized even
        // though global slots sit free. The identical ensemble
        // without the quota admits each pair at the same instant.
        let build = || {
            vec![
                Submission::new(diamond("al"), cfg(1)).with_tenant("alice"),
                Submission::new(diamond("bo"), cfg(2)).with_tenant("bob"),
            ]
        };
        let t = |run: &WorkflowRun, i: usize| run.records[i].times.unwrap().submitted;

        let mut quotaed = ScriptedBackend::new();
        let config = EnsembleConfig::with_slot_budget(4).with_tenant_slots(1);
        let q = Ensemble::run_to_completion(&mut quotaed, build(), &config).unwrap();
        assert!(q.succeeded());
        for run in &q.runs {
            assert_ne!(t(run, 1), t(run, 2), "quota serializes {}", run.name);
        }

        let mut free = ScriptedBackend::new();
        let f =
            Ensemble::run_to_completion(&mut free, build(), &EnsembleConfig::with_slot_budget(4))
                .unwrap();
        assert!(f.succeeded());
        for run in &f.runs {
            assert_eq!(t(run, 1), t(run, 2), "without quota {} fans out", run.name);
        }
    }

    #[test]
    fn per_workflow_retries_are_isolated() {
        let mut flaky_cfg = EngineConfig::builder().retries(3).build();
        flaky_cfg.seed = 5;
        let subs = vec![
            Submission::new(diamond("ok"), cfg(1)),
            Submission::new(diamond("flaky"), flaky_cfg),
        ];
        let mut backend = ScriptedBackend::new();
        backend.fail_plan.insert(("flaky_b".into(), 0));
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::default()).unwrap();
        assert!(ens.succeeded());
        assert_eq!(ens.runs[0].faults().total_failures(), 0);
        assert_eq!(ens.runs[1].total_retries(), 1);
        assert_eq!(ens.runs[1].records[1].attempts, 2);
    }

    #[test]
    fn exhausted_workflow_fails_alone_with_rescue_dag() {
        let mut doomed_cfg = EngineConfig::builder().policy(RetryPolicy::flat(1)).build();
        doomed_cfg.seed = 5;
        let subs = vec![
            Submission::new(diamond("ok"), cfg(1)),
            Submission::new(diamond("doomed"), doomed_cfg),
        ];
        let mut backend = ScriptedBackend::new();
        backend.fail_plan.insert(("doomed_b".into(), 0));
        backend.fail_plan.insert(("doomed_b".into(), 1));
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::default()).unwrap();
        assert!(ens.runs[0].succeeded(), "healthy member unaffected");
        assert!(!ens.runs[1].succeeded());
        let rescue = crate::rescue::RescueDag::of(&ens.runs[1]);
        assert!(rescue.done.contains(&"doomed_a".into()));
        assert!(rescue.done.contains(&"doomed_c".into()));
        assert!(!ens.succeeded());
    }

    #[test]
    fn crash_kills_one_member_and_spares_the_rest() {
        let mut crash_cfg = cfg(3);
        crash_cfg.crash_after_events = Some(1);
        let subs = vec![
            Submission::new(diamond("live"), cfg(1)),
            Submission::new(diamond("dying"), crash_cfg),
        ];
        let mut backend = ScriptedBackend::new();
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::default()).unwrap();
        assert!(ens.runs[0].succeeded(), "uncrashed member completes");
        assert!(!ens.runs[1].succeeded(), "crashed member reports failure");
    }

    #[test]
    fn ensemble_rescue_resume_completes_the_crashed_member() {
        let mut crash_cfg = cfg(3);
        crash_cfg.crash_after_events = Some(1);
        let subs = vec![
            Submission::new(diamond("live"), cfg(1)),
            Submission::new(diamond("dying"), crash_cfg),
        ];
        let mut backend = ScriptedBackend::new();
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::default()).unwrap();
        assert!(!ens.runs[1].succeeded());
        let rescue = crate::rescue::RescueDag::of(&ens.runs[1]);
        // Resume just the crashed member, skipping its completed jobs.
        let mut resume_cfg = EngineConfig::builder().retries(2).rescue(&rescue).build();
        resume_cfg.seed = 3;
        let mut backend2 = ScriptedBackend::new();
        let resumed = Ensemble::run_to_completion(
            &mut backend2,
            vec![Submission::new(diamond("dying"), resume_cfg)],
            &EnsembleConfig::default(),
        )
        .unwrap();
        assert!(resumed.succeeded(), "resume completes the remainder");
        let skipped = resumed.runs[0]
            .records
            .iter()
            .filter(|r| r.state == JobState::SkippedDone)
            .count();
        assert_eq!(skipped, rescue.done.len());
    }

    #[test]
    fn empty_workflow_finishes_immediately() {
        let empty = ExecutableWorkflow {
            name: "empty".into(),
            site: "test".into(),
            jobs: vec![],
            edges: vec![],
        };
        let subs = vec![
            Submission::new(empty, cfg(1)),
            Submission::new(diamond("w"), cfg(2)),
        ];
        let mut backend = ScriptedBackend::new();
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::default()).unwrap();
        assert!(ens.succeeded());
        assert_eq!(ens.runs[0].wall_time, 0.0);
        assert!(ens.runs[1].wall_time > 0.0);
    }

    #[test]
    fn members_carry_independent_replayable_event_streams() {
        let subs = vec![
            Submission::new(diamond("w0"), cfg(1)),
            Submission::new(diamond("w1"), cfg(2)),
        ];
        let mut backend = ScriptedBackend::new();
        backend.fail_plan.insert(("w1_b".into(), 0));
        let ens =
            Ensemble::run_to_completion(&mut backend, subs, &EnsembleConfig::with_slot_budget(2))
                .unwrap();
        assert!(ens.succeeded());
        for run in &ens.runs {
            let replayed = crate::events::replay(&run.events).expect("member streams replay");
            assert_eq!(&replayed, run, "{}", run.name);
        }
    }

    #[test]
    fn monitor_member_events_stream_matches_the_final_run() {
        // The incremental per-member feed alone, trailer included,
        // must reproduce run.events exactly — this is what makes the
        // daemon's crash-safe logs byte-identical to a post-hoc dump.
        let mut streams: Vec<Vec<WorkflowEvent>> = vec![Vec::new(), Vec::new()];
        let subs = vec![
            Submission::new(diamond("w0"), cfg(1)),
            Submission::new(diamond("w1"), cfg(2)),
        ];
        let mut backend = ScriptedBackend::new();
        backend.fail_plan.insert(("w0_c".into(), 0));
        let ens = Ensemble::run_to_completion_monitored(
            &mut backend,
            subs,
            &EnsembleConfig::with_slot_budget(2),
            &mut |index, events| streams[index].extend_from_slice(events),
        )
        .unwrap();
        for (stream, run) in streams.iter().zip(&ens.runs) {
            assert_eq!(stream, &run.events, "{}", run.name);
        }
    }

    #[test]
    fn same_seed_ensembles_replay_identically() {
        let build = || {
            vec![
                Submission::new(diamond("w0"), cfg(1)).with_tenant("alice"),
                Submission::new(diamond("w1"), cfg(2))
                    .with_tenant("bob")
                    .with_priority(1),
            ]
        };
        let mut b1 = ScriptedBackend::new();
        let mut b2 = ScriptedBackend::new();
        let e1 =
            Ensemble::run_to_completion(&mut b1, build(), &EnsembleConfig::with_slot_budget(2))
                .unwrap();
        let e2 =
            Ensemble::run_to_completion(&mut b2, build(), &EnsembleConfig::with_slot_budget(2))
                .unwrap();
        assert_eq!(b1.log, b2.log, "submission tapes identical");
        assert_eq!(e1.makespan, e2.makespan);
        for (a, b) in e1.runs.iter().zip(&e2.runs) {
            assert_eq!(a.wall_time, b.wall_time);
        }
    }
}
