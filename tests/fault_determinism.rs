//! Seeded-chaos determinism: the same fault plan under the same seed
//! must replay bit-for-bit on the simulation backend (byte-identical
//! statistics CSVs) and decision-for-decision on the real local pool
//! (identical attempt counts, states, and typed failures, category and
//! detail — timestamps are real wall clock and are the only thing
//! allowed to differ), and the pool must agree with the simulator.

use blast2cap3_pegasus::experiment::simulate_blast2cap3;
use condor::pool::{FaultInjector, FaultProbe, InjectedFault, LocalPool, PoolConfig, TaskRegistry};
use gridsim::{AttemptTiming, FaultPlan, FaultScript, PlatformModel, SimBackend};
use pegasus_wms::engine::{
    Engine, EngineConfig, FaultReason, JobRecord, JobState, NoopMonitor, RetryPolicy, WorkflowRun,
};
use pegasus_wms::planner::{ExecutableJob, ExecutableWorkflow, JobKind};
use pegasus_wms::statistics::{compute, render_csv, render_summary_csv};
use std::sync::Arc;

// Windows sit inside the n = 120 OSG run's chunk-execution phase
// (roughly [5000 s, 17000 s] simulated) so every scenario actually
// bites; the install burst covers the whole run since installs recur
// at each attempt start.
const CHAOS_PLAN: &str = "\
plan osg-chaos
preemption-storm start=5000 duration=6000 kill-probability=0.4
straggler start=0 duration=1e9 slowdown=5 probability=0.05
install-failure-burst start=0 duration=1e9 fail-probability=0.15
slot-blackout start=6000 duration=3000 first-slot=0 count=6
";

fn chaos_engine_cfg(seed: u64) -> EngineConfig {
    EngineConfig::builder()
        .policy(RetryPolicy::exponential(12, 30.0).with_timeout(6_000.0))
        .seed(seed)
        .build()
}

fn chaos_sim_run(seed: u64) -> WorkflowRun {
    let plan = FaultPlan::parse(CHAOS_PLAN).expect("valid plan");
    let script = FaultScript::new(plan, seed);
    simulate_blast2cap3("osg", 120, seed, &chaos_engine_cfg(seed), Some(script))
}

#[test]
fn same_seed_chaos_sim_runs_emit_byte_identical_csv() {
    let a = chaos_sim_run(2014);
    let b = chaos_sim_run(2014);
    let (a_stats, b_stats) = (compute(&a), compute(&b));
    assert!(a.succeeded(), "chaos run must still complete");
    let f = &a_stats.faults;
    assert!(
        f.preemptions > 0 && f.install_failures > 0,
        "the plan must actually inject faults: {f:?}"
    );
    assert_eq!(
        render_summary_csv(&a_stats),
        render_summary_csv(&b_stats),
        "summary CSV must be byte-identical under a fixed seed"
    );
    assert_eq!(
        render_csv(&a_stats),
        render_csv(&b_stats),
        "per-type CSV must be byte-identical under a fixed seed"
    );
    // The full per-job record agrees too, including every failure time.
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.name, rb.name);
        assert_eq!(ra.attempts, rb.attempts);
        assert_eq!(ra.times, rb.times);
        assert!(a.failures(ra).eq(b.failures(rb)));
    }
}

#[test]
fn different_seeds_draw_different_chaos() {
    let a = compute(&chaos_sim_run(2014));
    let b = compute(&chaos_sim_run(2015));
    assert_ne!(
        render_summary_csv(&a),
        render_summary_csv(&b),
        "changing the seed must change the run"
    );
}

/// The issue's acceptance scenario: a scripted OSG preemption storm
/// over the n = 300 paper workflow, including a submit-host crash
/// mid-run. The crashed run leaves a rescue DAG; ONE resubmission
/// completes the workflow; and the whole two-step procedure replays
/// byte-for-byte under the same seed.
#[test]
fn osg_preemption_storm_needs_at_most_one_rescue_resubmission() {
    // The storm covers the heart of the n = 300 chunk-execution phase
    // (chunks run roughly [3000 s, 13000 s] simulated on OSG).
    const STORM: &str = "\
plan osg-preemption-storm
preemption-storm start=3000 duration=5000 kill-probability=0.5
submit-host-crash after-events=150
";
    let seed = 20140519;
    let invoke = || {
        let plan = FaultPlan::parse(STORM).expect("valid plan");
        let script = FaultScript::new(plan, seed);
        let policy = RetryPolicy::exponential(10, 60.0);
        let mut cfg = EngineConfig::builder()
            .policy(policy.clone())
            .seed(seed)
            .build();
        cfg.crash_after_events = script.submit_host_crash_after();
        let crashed = simulate_blast2cap3("osg", 300, seed, &cfg, Some(script.clone()));
        assert!(!crashed.succeeded(), "the scripted crash must fail the run");
        let rescue = pegasus_wms::rescue::RescueDag::of(&crashed);
        // Rescue resubmission #1 — and the last one needed.
        let mut resume_cfg = EngineConfig::builder().policy(policy).seed(seed).build();
        resume_cfg.skip_done = rescue.done.iter().cloned().collect();
        let resumed = simulate_blast2cap3("osg", 300, seed, &resume_cfg, Some(script));
        assert!(
            resumed.succeeded(),
            "one resubmission must complete the storm run"
        );
        (rescue.to_text(), compute(&resumed))
    };

    let (rescue_a, resumed_a) = invoke();
    let (rescue_b, resumed_b) = invoke();
    assert_eq!(rescue_a, rescue_b, "crash point must be reproducible");
    assert_eq!(
        render_summary_csv(&resumed_a),
        render_summary_csv(&resumed_b),
        "the resumed run must be reproducible too"
    );
    assert!(
        resumed_a.faults.preemptions > 0,
        "the storm must actually preempt attempts: {:?}",
        resumed_a.faults
    );
}

/// The bridge from gridsim's seeded fault script to the real local
/// pool: a pool fault injector built from a compiled script. Fault-plan
/// times are in virtual (simulated) seconds and the pool runs at laptop
/// scale, so the probe timings the pool reports in real seconds are
/// mapped back through `time_scale` (real seconds per virtual second,
/// normally the pool's own) before the script is consulted, and the
/// eviction offset is mapped forward again. Every per-attempt decision
/// is a pure function of (seed, job, attempt), so the verdicts, and
/// with them the retry counts and the typed failures, replay
/// identically on either backend.
fn fault_injector_for(script: FaultScript, time_scale: f64) -> FaultInjector {
    let scale = if time_scale > 0.0 { time_scale } else { 1.0 };
    Arc::new(move |probe: &FaultProbe| {
        let timing = AttemptTiming {
            start: probe.started / scale,
            install_duration: probe.install_duration / scale,
            exec_duration: probe.exec_duration / scale,
        };
        let decision = script.decide(&probe.job, probe.attempt, &timing);
        let mut faults = Vec::new();
        if decision.slowdown != 1.0 {
            faults.push(InjectedFault::Slowdown(decision.slowdown));
        }
        if let Some((at, failure)) = decision.kill {
            faults.push(InjectedFault::Evict {
                after: (at - timing.start).max(0.0) * scale,
                failure,
            });
        }
        faults
    })
}

#[test]
fn injector_maps_virtual_times_through_the_scale() {
    // Storm over virtual [0, 1000) with certain kills; at scale
    // 0.01 a probe 1 real second in is 100 virtual seconds in —
    // inside the window — and the eviction offset comes back in
    // real seconds.
    let plan =
        FaultPlan::parse("preemption-storm start=0 duration=1000 kill-probability=1.0\n").unwrap();
    let script = FaultScript::new(plan, 4);
    let injector = fault_injector_for(script.clone(), 0.01);
    let probe = FaultProbe {
        job: "victim".into(),
        attempt: 0,
        started: 1.0,
        install_duration: 0.0,
        exec_duration: 2.0, // 200 virtual seconds
    };
    let faults = injector(&probe);
    assert_eq!(faults.len(), 1);
    match &faults[0] {
        InjectedFault::Evict { after, failure } => {
            // The script's category crosses the bridge with it.
            assert_eq!(failure.reason, FaultReason::Preemption);
            assert_eq!(failure.detail, "preempted:storm");
            assert!(
                (0.0..=2.0).contains(after),
                "real-second offset expected, got {after}"
            );
            // The same query in virtual units matches the script's
            // own verdict.
            let timing = AttemptTiming {
                start: 100.0,
                install_duration: 0.0,
                exec_duration: 200.0,
            };
            let direct = script.decide("victim", 0, &timing).kill.unwrap();
            assert!((direct.0 - (100.0 + after / 0.01)).abs() < 1e-6);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn clean_attempts_inject_nothing() {
    let plan =
        FaultPlan::parse("preemption-storm start=5000 duration=10 kill-probability=1.0\n").unwrap();
    let injector = fault_injector_for(FaultScript::new(plan, 4), 0.01);
    let probe = FaultProbe {
        job: "safe".into(),
        attempt: 0,
        started: 0.0,
        install_duration: 0.0,
        exec_duration: 1.0,
    };
    assert!(injector(&probe).is_empty());
}

#[test]
fn straggler_decisions_become_slowdowns() {
    let plan =
        FaultPlan::parse("straggler start=0 duration=1e9 slowdown=5 probability=1.0\n").unwrap();
    let injector = fault_injector_for(FaultScript::new(plan, 4), 0.01);
    let probe = FaultProbe {
        job: "slowpoke".into(),
        attempt: 0,
        started: 0.0,
        install_duration: 0.0,
        exec_duration: 1.0,
    };
    let faults = injector(&probe);
    assert!(matches!(faults.as_slice(), [InjectedFault::Slowdown(s)] if *s == 5.0));
}

/// A pool workflow of independent, kernel-less jobs: only the fault
/// injector decides anything, so two runs must agree on everything but
/// wall-clock timestamps.
fn pool_workflow(n: usize) -> ExecutableWorkflow {
    ExecutableWorkflow {
        name: "chaos_pool".into(),
        site: "local".into(),
        jobs: (0..n)
            .map(|i| ExecutableJob {
                id: pegasus_wms::workflow::JobId::new(i),
                name: format!("chunk_{i}").into(),
                transformation: "cap3".into(),
                kind: JobKind::Compute,
                args: Default::default(),
                runtime_hint: 2.0,
                install_hint: 5.0,
            })
            .collect(),
        edges: vec![],
    }
}

/// Whole-run window + install-only faults: the decision for each
/// (job, attempt) is a pure coin flip, independent of any clock.
fn pool_script(seed: u64) -> FaultScript {
    let plan =
        FaultPlan::parse("install-failure-burst start=0 duration=1e12 fail-probability=0.6\n")
            .expect("valid plan");
    FaultScript::new(plan, seed)
}

fn pool_engine_cfg() -> EngineConfig {
    EngineConfig::builder().retries(8).build()
}

fn chaos_pool_run(seed: u64) -> WorkflowRun {
    let script = pool_script(seed);
    let scale = 0.001;
    let mut pool = LocalPool::with_fault_injector(
        PoolConfig {
            workers: 4,
            workdir: std::env::temp_dir().join("chaos_pool_determinism"),
            time_scale: scale,
        },
        TaskRegistry::new(),
        Some(fault_injector_for(script, scale)),
    );
    Engine::run(
        &mut pool,
        &pool_workflow(10),
        &pool_engine_cfg(),
        &mut NoopMonitor,
    )
}

/// The same workflow under the same script on the simulator: a
/// platform that installs, never preempts and draws nothing the script
/// does not.
fn chaos_sim_pool_run(seed: u64) -> WorkflowRun {
    let mut sim = SimBackend::new(PlatformModel::uniform("local", 4, 1.0), seed)
        .with_faults(pool_script(seed));
    Engine::run(
        &mut sim,
        &pool_workflow(10),
        &pool_engine_cfg(),
        &mut NoopMonitor,
    )
}

#[test]
fn local_pool_replays_the_same_fault_decisions() {
    let seed = 99;
    let a = chaos_pool_run(seed);
    let b = chaos_pool_run(seed);
    let sim = chaos_sim_pool_run(seed);
    assert_eq!(a.succeeded(), b.succeeded());
    assert_eq!(a.succeeded(), sim.succeeded());
    // Typed at birth on both backends, so the tallies agree too.
    assert_eq!(a.faults(), b.faults());
    assert_eq!(a.faults(), sim.faults());
    assert!(
        a.faults().install_failures > 0,
        "burst at p=0.6 over 10 jobs should fire: {:?}",
        a.faults()
    );

    // The script's verdicts are a pure function of (job, attempt), so
    // both pool runs, the simulator — and the script consulted directly
    // — agree on the number of attempts each job needed.
    let script = pool_script(seed);
    let timing = AttemptTiming {
        start: 0.0,
        install_duration: 5.0,
        exec_duration: 2.0,
    };
    for ((ra, rb), rs) in a.records.iter().zip(&b.records).zip(&sim.records) {
        assert_eq!(ra.name, rb.name);
        assert_eq!(ra.state, rb.state, "{}", ra.name);
        assert_eq!(ra.attempts, rb.attempts, "{}", ra.name);
        // Real threads: the wall-clock times differ, what each attempt
        // died of — category and detail — does not, on either backend.
        let failures = |run: &WorkflowRun, r: &JobRecord| -> Vec<(FaultReason, String)> {
            (run.failures(r))
                .map(|f| (f.reason, f.detail.to_string()))
                .collect()
        };
        assert_eq!(failures(&a, ra), failures(&b, rb), "{}", ra.name);
        assert_eq!(failures(&a, ra), failures(&sim, rs), "{}", ra.name);
        assert_eq!((ra.state, ra.attempts), (rs.state, rs.attempts));

        let first_clean = (0..9u32).find(|&k| script.decide(&ra.name, k, &timing).kill.is_none());
        match first_clean {
            Some(k) => {
                assert_eq!(ra.state, JobState::Done, "{}", ra.name);
                assert_eq!(ra.attempts, k + 1, "{}", ra.name);
            }
            None => {
                assert_eq!(ra.state, JobState::Failed, "{}", ra.name);
                assert_eq!(ra.attempts, 9, "{}", ra.name);
            }
        }
        for failure in a.failures(ra) {
            assert_eq!(failure.reason, FaultReason::InstallFailure);
            assert_eq!(failure.detail, "install:burst");
        }
    }
}
