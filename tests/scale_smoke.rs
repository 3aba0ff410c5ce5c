//! Scale smoke test: the planner's rewrites stay linear at n = 10^5
//! tasks — inlining the blast2cap3 DAX as a sub-workflow and
//! clustering it. (The n = 10^5 plan, simulate and replay, with its
//! resident-set ceiling, is `tests/scale_rss.rs`: alone in its binary.)
//!
//! `#[ignore]`-gated because the wall-clock bound only means anything
//! in release mode — CI runs it explicitly with
//! `cargo test --release --test scale_smoke -- --ignored`; a debug
//! build easily blows the bound without indicating a regression.

use blast2cap3::workflow::{build_workflow, fig2_job_count, WorkflowParams};
use pegasus_wms::planner::cluster_workflow;
use pegasus_wms::symbols::Args;
use pegasus_wms::workflow::AbstractWorkflow;
use std::time::Instant;

const N: usize = 100_000;

/// Generous even for loaded CI hardware: clustering at this size runs
/// in well under a second in release mode, so tripping the bound means
/// an order-of-magnitude regression — typically a reintroduced per-job
/// linear scan.
const WALL_CLOCK_BOUND_SECS: f64 = 60.0;

/// Inlining a workflow of N jobs as a sub-workflow: about 0.1 s in
/// release mode on a 2-vCPU VM, and 25 s there when every inlined job
/// was checked against every job before it.
const INLINE_BOUND_SECS: f64 = 5.0;

#[test]
#[ignore = "release-mode scale smoke; run with --release -- --ignored"]
fn hundred_thousand_task_workflow_inlines_and_clusters() {
    let fig2 = build_workflow(&WorkflowParams::with_n(N));

    // Fig. 2 as the sub-workflow of a two-job parent.
    let mut parent = AbstractWorkflow::new("parent");
    let mut rows = parent.declare();
    let (interface, assembly) = ([("alignments.out", 0)], [("final.fasta", 0)]);
    let placeholder = rows.job(
        "b2c3",
        "pegasus::dax",
        Args::new(),
        1.0,
        interface,
        assembly,
    );
    let placeholder = placeholder.expect("fresh id");
    let none: [(&str, u64); 0] = [];
    let annotate = rows.job("annotate", "annotator", Args::new(), 1.0, assembly, none);
    annotate.expect("fresh id");
    drop(rows);
    let start = Instant::now();
    let flat = (parent.with_inlined_subworkflow(placeholder, &fig2)).expect("inlines");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(flat.jobs.len(), fig2_job_count(N) + 1);
    assert!(
        elapsed < INLINE_BOUND_SECS,
        "inlining n={N} took {elapsed:.1}s (bound {INLINE_BOUND_SECS}s)"
    );
    drop(flat);

    let start = Instant::now();
    let clustered = cluster_workflow(&fig2, 4).expect("clusters");
    let elapsed = start.elapsed().as_secs_f64();
    // 10^5 chunks in clusters of four, and the five other jobs.
    assert_eq!(clustered.jobs.len(), 25_005);
    assert!(
        elapsed < WALL_CLOCK_BOUND_SECS,
        "clustering n={N} took {elapsed:.1}s (bound {WALL_CLOCK_BOUND_SECS}s)"
    );
}
