//! An independent scheduler oracle: a reference driver written from the
//! execution rules the design states (DESIGN.md §2 "One fold" and §10
//! "One round, one call", the `ensemble` and `engine` module docs), not
//! from the shipped loop. It keeps one list of every ready job of every
//! member and one state per job, scans the edge list for children, and
//! picks each admission by the full per-job key
//!
//! `(Reverse(priority), tenant in flight, tenant admitted, member in
//! flight, member admitted, member, seq)`.
//!
//! Both drivers run the same random rounds on the same scripted
//! backend, and the proptests assert they emit the same events in the
//! same order and make the same backend calls. A one-member round under
//! unbounded admission is what `Engine::run` is, so the oracle checks
//! it too.

use pegasus_wms::engine::scripted::ScriptedBackend;
use pegasus_wms::engine::{
    CompletionEvent, Engine, EngineConfig, ExecutionBackend, Failure, FaultReason, JobOutcome,
    RetryPolicy,
};
use pegasus_wms::ensemble::{Ensemble, EnsembleConfig, Submission};
use pegasus_wms::events::{EventSink, WorkflowEvent};
use pegasus_wms::planner::{ExecutableJob, ExecutableWorkflow, JobKind};
use pegasus_wms::symbols::Name;
use pegasus_wms::workflow::JobId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// One call a driver made on the backend.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Timeout(Option<f64>),
    Submit(Name, u32),
    SubmitAfter(Name, u32, f64),
}

/// A [`ScriptedBackend`] that tapes every call made on it and reports
/// the failures of the jobs in `timed_out` as timeouts, so both event
/// kinds of a failed attempt are exercised.
struct Taped {
    inner: ScriptedBackend,
    timed_out: HashSet<Name>,
    names: HashMap<JobId, Name>,
    tape: Vec<Call>,
}

impl Taped {
    fn new(round: &Round) -> Self {
        let mut inner = ScriptedBackend::new();
        inner.fail_plan = round.fails.clone();
        Taped {
            inner,
            timed_out: round.timed_out.clone(),
            names: HashMap::new(),
            tape: Vec::new(),
        }
    }
}

impl ExecutionBackend for Taped {
    fn submit(&mut self, job: &ExecutableJob, attempt: u32) {
        self.tape.push(Call::Submit(job.name.clone(), attempt));
        self.names.insert(job.id, job.name.clone());
        self.inner.submit(job, attempt);
    }

    fn submit_after(&mut self, job: &ExecutableJob, attempt: u32, delay: f64) {
        (self.tape).push(Call::SubmitAfter(job.name.clone(), attempt, delay));
        self.names.insert(job.id, job.name.clone());
        self.inner.submit_after(job, attempt, delay);
    }

    fn set_timeout(&mut self, timeout: Option<f64>) {
        self.tape.push(Call::Timeout(timeout));
    }

    fn wait_any(&mut self) -> CompletionEvent {
        let mut ev = self.inner.wait_any();
        let name = &self.names[&ev.job];
        if matches!(ev.outcome, JobOutcome::Failure(_)) && self.timed_out.contains(name) {
            ev.outcome = JobOutcome::Failure(FaultReason::timeout_exceeded(600.0));
        }
        ev
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }
}

/// A round to run: the submissions, the admission limits and the
/// backend's script.
#[derive(Debug, Clone)]
struct Round {
    subs: Vec<Submission>,
    config: EnsembleConfig,
    fails: HashSet<(Name, u32)>,
    timed_out: HashSet<Name>,
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// Draws a round from `seed`: 1–`max_members` members of 0–9 jobs with
/// random edges (some repeated, in random order), 1–4 tenants,
/// priorities, slot budgets and tenant caps, retry policies with and
/// without backoff and jitter, fail plans, rescue skips and scripted
/// crashes. Runtimes are small integers, so completions tie often.
fn draw(seed: u64, max_members: usize) -> Round {
    let mut rng = StdRng::seed_from_u64(seed);
    let tenants = rng.gen_range(1..=4usize);
    let mut round = Round {
        subs: Vec::new(),
        config: EnsembleConfig {
            slot_budget: pick(
                &mut rng,
                &[None, Some(1), Some(2), Some(3), Some(5), Some(usize::MAX)],
            ),
            tenant_slots: pick(&mut rng, &[None, None, Some(0), Some(1), Some(2)]),
        },
        fails: HashSet::new(),
        timed_out: HashSet::new(),
    };
    for m in 0..rng.gen_range(1..=max_members) {
        let n = rng.gen_range(0..=9usize);
        let jobs: Vec<ExecutableJob> = (0..n)
            .map(|j| ExecutableJob {
                id: JobId::new(j),
                name: format!("m{m}j{j}").into(),
                transformation: format!("t{}", j % 3).into(),
                kind: JobKind::Compute,
                args: Default::default(),
                runtime_hint: rng.gen_range(1..=4u32) as f64,
                install_hint: pick(&mut rng, &[0.0, 0.0, 1.0, 2.0]),
            })
            .collect();
        let density = pick(&mut rng, &[0.0, 0.2, 0.4, 0.7]);
        let mut edges = Vec::new();
        for b in 0..n {
            for a in 0..b {
                if rng.gen_bool(density) {
                    edges.push((JobId::new(a), JobId::new(b)));
                }
            }
        }
        if !edges.is_empty() && rng.gen_bool(0.2) {
            edges.push(edges[rng.gen_range(0..edges.len())]);
        }
        if rng.gen_bool(0.5) {
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..=i));
            }
        }
        let skipping = rng.gen_bool(0.25);
        let mut config = EngineConfig::builder()
            .policy(RetryPolicy {
                max_attempts: rng.gen_range(1..=4),
                base_backoff: pick(&mut rng, &[0.0, 0.0, 5.0, 7.5]),
                jitter: pick(&mut rng, &[0.0, 0.0, 0.25]),
                timeout: pick(&mut rng, &[None, None, Some(600.0), Some(900.0)]),
            })
            .seed(rng.gen_range(0..u64::MAX))
            .build();
        if rng.gen_bool(0.4) {
            config.crash_after_events = Some(rng.gen_range(0..=20));
        }
        for job in &jobs {
            if skipping && rng.gen_bool(0.4) {
                config.skip_done.insert(job.name.clone());
            }
            for attempt in 0..pick(&mut rng, &[0, 0, 0, 1, 2, 3]) {
                round.fails.insert((job.name.clone(), attempt));
            }
            if rng.gen_bool(0.3) {
                round.timed_out.insert(job.name.clone());
            }
        }
        let workflow = ExecutableWorkflow {
            name: format!("m{m}"),
            site: "scripted".into(),
            jobs,
            edges,
        };
        let sub = Submission::new(workflow, config)
            .with_priority(rng.gen_range(-1..=1))
            .with_tenant(format!("t{}", rng.gen_range(0..tenants)));
        round.subs.push(sub);
    }
    round
}

/// Where a job stands: one state per job.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// A parent has not finished.
    Waiting,
    /// Released, waiting for a slot.
    Ready,
    /// An attempt is in flight.
    Running,
    /// Completed, or skipped as done by the rescue DAG.
    Done,
    /// Out of attempts.
    Failed,
}

/// One member as the oracle keeps it.
struct Workflow {
    jobs: Vec<ExecutableJob>,
    edges: Vec<(JobId, JobId)>,
    /// Parents not yet done, per job.
    waiting_on: Vec<usize>,
    stage: Vec<Stage>,
    attempts: Vec<u32>,
    rng: StdRng,
    config: EngineConfig,
    priority: i32,
    tenant: usize,
    first: usize,
    start: f64,
    in_flight: usize,
    admitted: usize,
    completions: u64,
    live: bool,
    crashed: bool,
}

impl Workflow {
    /// The backoff before the retry that follows attempt `attempt`
    /// (0-based), as `RetryPolicy` documents it: none, and no draw,
    /// without a base; else `base * 2^attempt` capped at `64 * base`,
    /// scaled by a uniform factor in `[1 - jitter, 1 + jitter]` drawn
    /// from the member's RNG when jitter is set, and never negative.
    fn backoff(&mut self, attempt: u32) -> f64 {
        let policy = &self.config.retry;
        if policy.base_backoff <= 0.0 {
            return 0.0;
        }
        let exponent = attempt.min(1000) as i32;
        let capped = (policy.base_backoff * 2f64.powi(exponent)).min(64.0 * policy.base_backoff);
        let delay = if policy.jitter > 0.0 {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            capped * (1.0 + policy.jitter * (2.0 * u - 1.0))
        } else {
            capped
        };
        delay.max(0.0)
    }
}

/// A released job waiting for a slot: its member, its release number
/// and its job.
#[derive(Debug, Clone, Copy)]
struct Ready {
    member: usize,
    seq: u64,
    job: usize,
}

/// The reference driver: runs `subs` on `backend` as one round under
/// `config` and returns every event in the order it was emitted, each
/// with its member's index.
fn oracle(
    backend: &mut dyn ExecutionBackend,
    subs: &[Submission],
    config: &EnsembleConfig,
) -> Vec<(usize, WorkflowEvent)> {
    // One timeout for the shared backend: the members' own if they
    // agree, else the tightest one set.
    let timeouts: Vec<Option<f64>> = subs.iter().map(|s| s.config.retry.timeout).collect();
    let timeout = if timeouts.iter().all(|t| *t == timeouts[0]) {
        timeouts[0]
    } else {
        timeouts.iter().flatten().copied().reduce(f64::min)
    };
    backend.set_timeout(timeout);
    let budget = (config.slot_budget)
        .or_else(|| backend.slot_capacity())
        .unwrap_or(usize::MAX)
        .max(1);
    let quota = config.tenant_slots.map(|q| q.max(1));

    let start = backend.now();
    let mut tenant_names: Vec<&str> = Vec::new();
    let mut members: Vec<Workflow> = Vec::new();
    let mut first = 0;
    for sub in subs {
        let tenant = match tenant_names.iter().position(|t| *t == sub.tenant) {
            Some(t) => t,
            None => {
                tenant_names.push(&sub.tenant);
                tenant_names.len() - 1
            }
        };
        let mut jobs = sub.workflow.jobs.clone();
        for job in &mut jobs {
            job.id = JobId::new(first + job.id.idx());
        }
        let n = jobs.len();
        let mut waiting_on = vec![0; n];
        for &(_, child) in &sub.workflow.edges {
            waiting_on[child.idx()] += 1;
        }
        members.push(Workflow {
            jobs,
            edges: sub.workflow.edges.clone(),
            waiting_on,
            stage: vec![Stage::Waiting; n],
            attempts: vec![0; n],
            rng: StdRng::seed_from_u64(sub.config.seed),
            config: sub.config.clone(),
            priority: sub.priority,
            tenant,
            first,
            start,
            in_flight: 0,
            admitted: 0,
            completions: 0,
            live: true,
            crashed: false,
        });
        first += n;
    }
    let mut tenant_in_flight = vec![0usize; tenant_names.len()];
    let mut tenant_admitted = vec![0usize; tenant_names.len()];
    let mut in_flight = 0usize;
    let mut ready: Vec<Ready> = Vec::new();
    let mut seq = 0u64;
    let mut out: Vec<(usize, WorkflowEvent)> = Vec::new();

    // Every member's header, manifest and rescue skips come first. A
    // skipped job is done, so its children wait on one parent fewer;
    // a job left waiting on none is ready, in id order.
    for (i, (m, sub)) in members.iter_mut().zip(subs).enumerate() {
        out.push((
            i,
            WorkflowEvent::WorkflowStarted {
                name: sub.workflow.name.as_str().into(),
                site: sub.workflow.site.as_str().into(),
                jobs: m.jobs.len() as u32,
                time: start,
            },
        ));
        for (local, job) in sub.workflow.jobs.iter().enumerate() {
            out.push((
                i,
                WorkflowEvent::JobDeclared {
                    job: JobId::new(local),
                    name: job.name.clone(),
                    transformation: job.transformation.clone(),
                    kind: job.kind,
                },
            ));
        }
        for (local, job) in sub.workflow.jobs.iter().enumerate() {
            if sub.config.skip_done.contains(&job.name) {
                out.push((
                    i,
                    WorkflowEvent::Skipped {
                        job: JobId::new(local),
                        time: start,
                    },
                ));
                m.stage[local] = Stage::Done;
                for &(parent, child) in &m.edges {
                    if parent.idx() == local {
                        m.waiting_on[child.idx()] -= 1;
                    }
                }
            }
        }
        for local in 0..m.jobs.len() {
            if m.waiting_on[local] == 0 && m.stage[local] == Stage::Waiting {
                m.stage[local] = Stage::Ready;
                ready.push(Ready {
                    member: i,
                    seq,
                    job: local,
                });
                seq += 1;
            }
        }
    }

    // A member ends when nothing it released is left: successful
    // unless a job ran out of attempts or its submit host crashed.
    let finish = |m: &mut Workflow, i: usize, now: f64, out: &mut Vec<_>| {
        let failed = m.crashed || m.stage.contains(&Stage::Failed);
        out.push((
            i,
            WorkflowEvent::WorkflowFinished {
                succeeded: !failed,
                wall_time: now - m.start,
                time: now,
            },
        ));
        m.live = false;
    };
    for (i, m) in members.iter_mut().enumerate() {
        if !ready.iter().any(|r| r.member == i) {
            finish(m, i, backend.now(), &mut out);
        }
    }

    while members.iter().any(|m| m.live) {
        // Admission: the least key among every ready job whose tenant
        // is under its cap, until the budget is full.
        while in_flight < budget {
            let best = (ready.iter().enumerate())
                .filter(|(_, r)| {
                    let t = members[r.member].tenant;
                    quota.is_none_or(|q| tenant_in_flight[t] < q)
                })
                .min_by_key(|(_, r)| {
                    let m = &members[r.member];
                    (
                        Reverse(m.priority),
                        tenant_in_flight[m.tenant],
                        tenant_admitted[m.tenant],
                        m.in_flight,
                        m.admitted,
                        r.member,
                        r.seq,
                    )
                })
                .map(|(at, _)| at);
            let Some(at) = best else { break };
            let r = ready.remove(at);
            let m = &mut members[r.member];
            let submitted = WorkflowEvent::Submitted {
                job: JobId::new(r.job),
                attempt: 0,
                time: backend.now(),
            };
            out.push((r.member, submitted));
            backend.submit(&m.jobs[r.job], 0);
            m.stage[r.job] = Stage::Running;
            m.attempts[r.job] = 1;
            m.in_flight += 1;
            m.admitted += 1;
            tenant_in_flight[m.tenant] += 1;
            tenant_admitted[m.tenant] += 1;
            in_flight += 1;
        }

        let ev = backend.wait_any();
        in_flight -= 1;
        let i = members
            .iter()
            .rposition(|m| m.first <= ev.job.idx())
            .expect("a completion belongs to a member");
        let m = &mut members[i];
        m.in_flight -= 1;
        tenant_in_flight[m.tenant] -= 1;
        if !m.live {
            // An attempt of a crashed member: its slot comes back, its
            // result is dropped.
            continue;
        }
        m.completions += 1;
        let job = JobId::new(ev.job.idx() - m.first);
        let t = ev.times;
        if t.install_done > t.started {
            let installing = WorkflowEvent::InstallStarted {
                job,
                attempt: ev.attempt,
                time: t.started,
            };
            out.push((i, installing));
        }
        let started = WorkflowEvent::Started {
            job,
            attempt: ev.attempt,
            time: t.install_done,
        };
        out.push((i, started));
        match ev.outcome {
            JobOutcome::Success => {
                out.push((
                    i,
                    WorkflowEvent::Completed {
                        job,
                        attempt: ev.attempt,
                        times: t,
                    },
                ));
                m.stage[job.idx()] = Stage::Done;
                // Children in edge order; one is released when its
                // last parent is done, unless the rescue DAG had it.
                for at in 0..m.edges.len() {
                    let (parent, child) = m.edges[at];
                    if parent != job {
                        continue;
                    }
                    m.waiting_on[child.idx()] -= 1;
                    if m.waiting_on[child.idx()] == 0 && m.stage[child.idx()] == Stage::Waiting {
                        m.stage[child.idx()] = Stage::Ready;
                        ready.push(Ready {
                            member: i,
                            seq,
                            job: child.idx(),
                        });
                        seq += 1;
                    }
                }
            }
            JobOutcome::Failure(Failure { reason, detail }) => {
                out.push((
                    i,
                    if reason == FaultReason::Timeout {
                        WorkflowEvent::TimedOut {
                            job,
                            attempt: ev.attempt,
                            detail: detail.clone(),
                            times: Box::new(t),
                        }
                    } else {
                        WorkflowEvent::Failed {
                            job,
                            attempt: ev.attempt,
                            reason,
                            detail: detail.clone(),
                            times: Box::new(t),
                        }
                    },
                ));
                if m.attempts[job.idx()] < m.config.retry.max_attempts {
                    // A retry skips the queue: it takes the slot its
                    // failed attempt gave back, after the backoff.
                    let next = ev.attempt + 1;
                    let delay = m.backoff(ev.attempt);
                    out.push((
                        i,
                        WorkflowEvent::RetryScheduled {
                            job,
                            next_attempt: next,
                            backoff: delay,
                            reason,
                            detail,
                            time: t.finished,
                        },
                    ));
                    out.push((
                        i,
                        WorkflowEvent::Submitted {
                            job,
                            attempt: next,
                            time: t.finished,
                        },
                    ));
                    backend.submit_after(&m.jobs[job.idx()], next, delay);
                    m.attempts[job.idx()] = next + 1;
                    m.in_flight += 1;
                    tenant_in_flight[m.tenant] += 1;
                    in_flight += 1;
                } else {
                    m.stage[job.idx()] = Stage::Failed;
                }
            }
        }
        let queued = ready.iter().filter(|r| r.member == i).count();
        let outstanding = m.in_flight + queued;
        let crash = m.config.crash_after_events;
        if crash.is_some_and(|n| m.completions >= n) && outstanding > 0 {
            // The submit host dies after this completion: what it
            // released but never submitted is withdrawn.
            ready.retain(|r| r.member != i);
            m.crashed = true;
            finish(m, i, backend.now(), &mut out);
        } else if outstanding == 0 {
            finish(m, i, backend.now(), &mut out);
        }
    }
    out
}

/// `(member, event)` pairs in the order a round handed them out.
fn flatten(batches: Vec<(usize, Vec<WorkflowEvent>)>) -> Vec<(usize, WorkflowEvent)> {
    let each = batches.into_iter();
    each.flat_map(|(i, batch)| batch.into_iter().map(move |ev| (i, ev)))
        .collect()
}

/// The first difference between two event sequences, for the failure
/// message.
fn first_difference(
    shipped: &[(usize, WorkflowEvent)],
    oracle: &[(usize, WorkflowEvent)],
) -> String {
    let at = (shipped.iter().zip(oracle))
        .position(|(a, b)| a != b)
        .unwrap_or(shipped.len().min(oracle.len()));
    format!(
        "events diverge at {at} of {}/{}: shipped {:?}, oracle {:?}",
        shipped.len(),
        oracle.len(),
        shipped.get(at),
        oracle.get(at)
    )
}

/// Runs the round drawn from `seed` through the ensemble and through
/// the oracle, and compares what they emitted and what they asked of
/// the backend.
fn ensemble_agrees(seed: u64) -> Result<(), String> {
    let round = draw(seed, 8);
    let mut shipped_backend = Taped::new(&round);
    let mut batches = Vec::new();
    let ens = Ensemble::run_to_completion_monitored(
        &mut shipped_backend,
        round.subs.clone(),
        &round.config,
        &mut |i, events| batches.push((i, events.to_vec())),
    )
    .map_err(|e| e.to_string())?;
    let shipped = flatten(batches);
    let mut oracle_backend = Taped::new(&round);
    let expected = oracle(&mut oracle_backend, &round.subs, &round.config);
    if shipped != expected {
        return Err(format!(
            "seed {seed}: {}",
            first_difference(&shipped, &expected)
        ));
    }
    if shipped_backend.tape != oracle_backend.tape {
        return Err(format!(
            "seed {seed}: backend tapes diverge:\n shipped {:?}\n oracle  {:?}",
            shipped_backend.tape, oracle_backend.tape
        ));
    }
    for (i, run) in ens.runs.iter().enumerate() {
        let own = expected.iter().filter(|(m, _)| *m == i).map(|(_, ev)| ev);
        if !run.events.iter().eq(own) {
            return Err(format!(
                "seed {seed}: member {i}'s run holds another stream"
            ));
        }
    }
    Ok(())
}

/// Keeps every event its sink is handed.
struct Kept(Vec<WorkflowEvent>);

impl EventSink for Kept {
    fn event(&mut self, ev: &WorkflowEvent) {
        self.0.push(ev.clone());
    }
}

/// Runs the first member of the round drawn from `seed` through
/// `Engine::run` and through the oracle as a round of one under
/// unbounded admission.
fn engine_agrees(seed: u64) -> Result<(), String> {
    let mut round = draw(seed, 1);
    round.config = EnsembleConfig::unbounded();
    let sub = &round.subs[0];
    let mut shipped_backend = Taped::new(&round);
    let mut kept = Kept(Vec::new());
    let run = Engine::run(&mut shipped_backend, &sub.workflow, &sub.config, &mut kept);
    let shipped: Vec<(usize, WorkflowEvent)> = kept.0.into_iter().map(|ev| (0, ev)).collect();
    let mut oracle_backend = Taped::new(&round);
    let expected = oracle(&mut oracle_backend, &round.subs, &round.config);
    if shipped != expected {
        return Err(format!(
            "seed {seed}: {}",
            first_difference(&shipped, &expected)
        ));
    }
    if shipped_backend.tape != oracle_backend.tape {
        return Err(format!(
            "seed {seed}: backend tapes diverge:\n shipped {:?}\n oracle  {:?}",
            shipped_backend.tape, oracle_backend.tape
        ));
    }
    if !run.events.iter().eq(expected.iter().map(|(_, ev)| ev)) {
        return Err(format!("seed {seed}: the run holds another stream"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Rounds of 1–8 members: same events in the same order, same
    /// backend calls.
    #[test]
    fn a_round_schedules_as_the_oracle_does(seed: u64) {
        ensemble_agrees(seed)?;
    }

    /// `Engine::run` is a round of one under unbounded admission.
    #[test]
    fn engine_run_schedules_as_the_oracle_does(seed: u64) {
        engine_agrees(seed)?;
    }
}

/// The two properties over many more rounds than tier-1 draws.
#[test]
#[ignore = "50,000 rounds; CI's release step runs it"]
fn the_oracle_sweep() {
    for seed in 0..25_000 {
        ensemble_agrees(seed).unwrap();
        engine_agrees(seed).unwrap();
    }
}
