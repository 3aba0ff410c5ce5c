//! Ablations over the design choices DESIGN.md §8 calls out, each the
//! OSG run at seed 42 with one thing changed:
//!
//! * horizontal task clustering on/off (Pegasus's remote-overhead
//!   optimisation, §III of the paper);
//! * pre-staged software on OSG (the paper's stated future work);
//! * retry budget on the preemption-prone OSG model;
//! * hazard-based vs churn-based eviction model.
//!
//! Every variant is a registered site or a planner tweak, so each
//! line is one call into the shared experiment harness.
//!
//! No verb reproduces it: `--cluster` is a `plan` flag; no verb runs it.

use blast2cap3_pegasus::experiment::{
    builtin_registry, calibrated_workflow, plan_on, simulate_blast2cap3,
};
use pegasus_wms::engine::{EngineConfig, WorkflowRun};
use pegasus_wms::statistics::compute;
use wms_bench::simulated_wall;

/// The seed-42 run of `site` at `n` chunks under a flat retry budget.
fn osg_run(site: &str, n: usize, retries: u32) -> WorkflowRun {
    let flat = EngineConfig::builder().retries(retries).build();
    simulate_blast2cap3(site, n, 42, &flat, None)
}

pub fn run() {
    let normal = osg_run("osg", 300, 10).wall_time;

    let registry = builtin_registry();
    let osg = registry.resolve("osg").expect("built-in site");
    let exec = plan_on(registry, osg, &calibrated_workflow(300, 42), |cfg| {
        cfg.cluster_factor = Some(4)
    })
    .expect("plan");
    let clustered = simulated_wall("osg", &exec, 42, 10);
    outln!("ablation clustering @ OSG n=300: none={normal:.0}s, factor4={clustered:.0}s");

    let staged = osg_run("osg_prestaged", 300, 10);
    assert!(staged.succeeded());
    outln!(
        "ablation prestage   @ OSG n=300: install-per-task={normal:.0}s, prestaged={:.0}s",
        staged.wall_time
    );

    for retries in [3u32, 10, 30] {
        let run = osg_run("osg", 100, retries);
        outln!(
            "ablation retries    @ OSG n=100: budget={retries} wall={:.0}s succeeded={}",
            run.wall_time,
            run.succeeded()
        );
    }

    // Churn evictions keep the plain "preempted" reason, so the kill
    // count is the two counters together.
    let churn = osg_run("osg_churning", 300, 20);
    let faults = compute(&churn).faults;
    let kills = faults.preemptions + faults.evictions;
    outln!(
        "ablation eviction   @ OSG n=300: churn-model wall={:.0}s (hazard-model={normal:.0}s), {kills} evictions",
        churn.wall_time
    );
}
