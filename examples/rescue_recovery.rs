//! Rescue DAGs — Pegasus's failure-recovery story on a hostile grid.
//!
//! Runs the blast2cap3 workflow on an OSG-like platform with an
//! extreme preemption hazard and no retry budget, so the run fails
//! partway; prints the rescue DAG DAGMan would leave behind; then
//! resubmits with the rescue file on a calmer platform and shows that
//! only the remaining jobs run.
//!
//! ```sh
//! cargo run --release --example rescue_recovery
//! ```

use blast2cap3::workflow::{build_workflow, WorkflowParams};
use gridsim::platforms::{osg, sandhills};
use gridsim::{PlatformModel, SimBackend};
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::engine::{Engine, EngineConfig, JobState, NoopMonitor};
use pegasus_wms::planner::{plan, PlannerConfig};
use pegasus_wms::rescue::RescueDag;

fn main() {
    let wf = build_workflow(&WorkflowParams::with_n(12));
    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("osg")).unwrap();

    // A very hostile opportunistic pool: mean preemption after 300s of
    // busy time, and no retry budget.
    let hostile = PlatformModel {
        preemption_rate: 1.0 / 300.0,
        ..osg(1)
    };
    let mut backend = SimBackend::new(hostile, 1);
    let first = Engine::run(
        &mut backend,
        &exec,
        &EngineConfig::builder().retries(0).build(),
        &mut NoopMonitor,
    );
    if first.succeeded() {
        println!("(unexpectedly survived the hostile pool — try another seed)");
        return;
    }
    let rescue = RescueDag::of(&first);
    let done = rescue.done.len();
    let failed = first
        .records
        .iter()
        .filter(|r| r.state == JobState::Failed)
        .count();
    println!(
        "run 1 on hostile OSG: FAILED after {:.0}s — {} jobs done, {} preempted, {} never ran",
        first.wall_time,
        done,
        failed,
        exec.jobs.len() - done - failed
    );
    println!("\nrescue DAG left behind (first 12 lines):");
    for line in rescue.to_text().lines().take(12) {
        println!("  {line}");
    }
    println!(
        "  ... ({:.0}% of the workflow is already complete)",
        100.0 * rescue.completion_fraction(exec.jobs.len())
    );

    // Resubmit with the rescue file on the campus cluster.
    let exec2 = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills")).unwrap();
    let mut backend2 = SimBackend::new(sandhills(), 2);
    let second = Engine::run(
        &mut backend2,
        &exec2,
        &EngineConfig::builder().retries(3).rescue(&rescue).build(),
        &mut NoopMonitor,
    );
    let skipped = second
        .records
        .iter()
        .filter(|r| r.state == JobState::SkippedDone)
        .count();
    println!(
        "\nrun 2 resuming on Sandhills: {} — {} jobs skipped as already done, wall {:.0}s",
        if second.succeeded() {
            "SUCCESS"
        } else {
            "FAILED"
        },
        skipped,
        second.wall_time
    );
    assert!(second.succeeded());
    // Planner names are shared between the two plans for compute jobs,
    // so every rescued compute job must have been skipped.
    assert!(skipped > 0, "rescue must skip completed compute jobs");
}
