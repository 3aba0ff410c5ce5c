//! Fault-injection ablations: what each chaos scenario costs the
//! n = 300 OSG run, and what the retry policy buys back.
//!
//! Two sweeps are printed:
//!
//! * scenario ablation — the same seeded run under no faults, a
//!   preemption storm, a slot blackout, straggler nodes, an
//!   install-failure burst, and all of them combined;
//! * policy ablation — the full-chaos run under a flat retry limit vs
//!   exponential backoff vs jittered exponential backoff plus a
//!   straggler-killing timeout.
//!
//! No verb reproduces it: `pegasus run` has no jitter flag.

use blast2cap3_pegasus::experiment::simulate_blast2cap3;
use gridsim::{FaultPlan, FaultScript};
use pegasus_wms::engine::{EngineConfig, RetryPolicy, WorkflowRun};
use pegasus_wms::statistics::compute;

// Window placement: the n = 300 OSG run executes its chunks in
// roughly [3000 s, 13000 s] simulated time, so the timed scenarios sit
// inside that band.
const STORM: &str = "preemption-storm start=3000 duration=4000 kill-probability=0.5\n";
const BLACKOUT: &str = "slot-blackout start=4000 duration=3000 first-slot=0 count=16\n";
const STRAGGLER: &str = "straggler start=0 duration=1e9 slowdown=4 probability=0.1\n";
const INSTALL: &str = "install-failure-burst start=0 duration=1e9 fail-probability=0.3\n";

/// The seed-42 OSG n = 300 run under `plan_text` (empty: no faults).
fn chaos_run(plan_text: &str, policy: RetryPolicy) -> WorkflowRun {
    let script = (!plan_text.is_empty())
        .then(|| FaultScript::new(FaultPlan::parse(plan_text).expect("valid plan"), 42));
    let cfg = EngineConfig::builder().policy(policy).seed(42).build();
    simulate_blast2cap3("osg", 300, 42, &cfg, script)
}

pub fn run() {
    let full_chaos = format!("{STORM}{BLACKOUT}{STRAGGLER}{INSTALL}");
    let policy = || RetryPolicy::exponential(15, 30.0);

    outln!("scenario ablation @ OSG n=300 (exponential backoff, 15 retries):");
    for (label, plan) in [
        ("no faults", String::new()),
        ("preemption storm", STORM.into()),
        ("slot blackout", BLACKOUT.into()),
        ("stragglers", STRAGGLER.into()),
        ("install burst", INSTALL.into()),
        ("full chaos", full_chaos.clone()),
    ] {
        let run = chaos_run(&plan, policy());
        let stats = compute(&run);
        let f = &stats.faults;
        outln!(
            "  {label:<16} wall={:>7.0}s retries={:<4} preempted={} evicted={} install={} timeout={} succeeded={}",
            run.wall_time,
            stats.retries,
            f.preemptions,
            f.evictions,
            f.install_failures,
            f.timeouts,
            run.succeeded()
        );
    }

    outln!("policy ablation  @ OSG n=300 (full chaos):");
    for (label, p) in [
        ("flat retries", RetryPolicy::flat(15)),
        ("exp backoff", RetryPolicy::exponential(15, 30.0)),
        (
            "exp+jitter+timeout",
            RetryPolicy::exponential(15, 30.0)
                .with_jitter(0.5)
                .with_timeout(6_000.0),
        ),
    ] {
        let run = chaos_run(&full_chaos, p);
        let stats = compute(&run);
        let f = &stats.faults;
        outln!(
            "  {label:<18} wall={:>7.0}s retries={:<4} backoff-wait={:>7.0}s timeouts={} succeeded={}",
            run.wall_time,
            stats.retries,
            f.backoff_wait,
            f.timeouts,
            run.succeeded()
        );
    }
}
