//! Scale smoke test: an n = 10^5-task blast2cap3 DAX must plan and
//! simulate quickly and within a memory ceiling, and the event stream
//! must replay back into the identical run. The planner's rewrites
//! must stay linear at that size: inlining it as a sub-workflow and
//! clustering it.
//!
//! `#[ignore]`-gated because the wall-clock bound only means anything
//! in release mode — CI runs it explicitly with
//! `cargo test --release --test scale_smoke -- --ignored`; a debug
//! build easily blows the bound without indicating a regression.

use blast2cap3::workflow::{build_workflow, fig2_job_count, WorkflowParams};
use gridsim::platforms::sandhills;
use gridsim::SimBackend;
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
use pegasus_wms::events;
use pegasus_wms::planner::{cluster_workflow, plan, PlannerConfig};
use pegasus_wms::symbols::Args;
use pegasus_wms::workflow::AbstractWorkflow;
use std::sync::Mutex;
use std::time::Instant;

const N: usize = 100_000;

/// Generous even for loaded CI hardware: release-mode plan + simulate
/// at this size runs in ~1 s locally (see BENCH_throughput.json), so
/// tripping the bound means an order-of-magnitude regression —
/// typically a reintroduced per-job linear scan.
const WALL_CLOCK_BOUND_SECS: f64 = 60.0;

/// Inlining a workflow of N jobs as a sub-workflow: about 0.1 s in
/// release mode on a 2-vCPU VM, and 25 s there when every inlined job
/// was checked against every job before it.
const INLINE_BOUND_SECS: f64 = 5.0;

/// Peak resident set per abstract job once the workflow, its plan and
/// the finished run are all in memory (Linux `VmHWM`). The whole
/// process measures 911–912 B per job in release mode on a 2-vCPU VM
/// (975–976 B while every event was 64 bytes, 2.1 kB before names were
/// shared and file uses stored flat); the ceiling is that plus 15 %, so
/// it trips when a per-job `String`, `Vec` or second copy of the names
/// comes back, not on allocator noise. (The event's width is pinned
/// exactly in `tests/one_copy.rs`.)
const PEAK_RSS_BYTES_PER_JOB: f64 = 1_050.0;

/// One test at a time, so the resident-set reading is one pipeline's.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A size line of this process's status (`VmHWM:` the peak resident
/// set, `VmRSS:` the current one) in bytes, where `/proc` has it.
fn status_bytes(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// Lowers `VmHWM` to the current resident set (Linux 4.0 and later),
/// so a test that ran before does not count; a no-op elsewhere.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[test]
#[ignore = "release-mode scale smoke; run with --release -- --ignored"]
fn hundred_thousand_task_dax_plans_simulates_and_replays() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    reset_peak_rss();
    // What the process held before this pipeline began, so a failure
    // below tells retained memory from the pipeline's own peak.
    let before = status_bytes("VmRSS:");
    let start = Instant::now();

    let wf = build_workflow(&WorkflowParams::with_n(N));
    assert_eq!(wf.jobs.len(), fig2_job_count(N));

    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site("sandhills"))
        .expect("planning succeeds at n=10^5");
    assert!(exec.jobs.len() > N);

    let mut backend = SimBackend::new(sandhills(), 42);
    let cfg = EngineConfig::builder().retries(3).seed(42).build();
    let run = Engine::run(&mut backend, &exec, &cfg, &mut NoopMonitor);
    assert!(run.succeeded(), "simulated run must succeed");

    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        elapsed < WALL_CLOCK_BOUND_SECS,
        "plan+simulate at n={N} took {elapsed:.1}s (bound {WALL_CLOCK_BOUND_SECS}s)"
    );

    // Read before the replay below doubles the run: the test binary
    // runs nothing else, so the high-water mark is this pipeline's.
    if let Some(peak) = status_bytes("VmHWM:") {
        let per_job = peak / N as f64;
        let before = before.map_or("unknown".into(), |b| format!("{:.0} B", b / N as f64));
        assert!(
            per_job < PEAK_RSS_BYTES_PER_JOB,
            "peak resident set is {per_job:.0} B per job (ceiling {PEAK_RSS_BYTES_PER_JOB} B; \
             VmRSS right after the reset was {before} per job)"
        );
    }

    // The event stream alone reconstructs the run: same records, same
    // outcome, same wall time — provenance holds at scale, not just in
    // the small property-test workflows.
    let replayed = events::replay(&run.events).expect("event stream replays");
    assert_eq!(replayed, run, "replay must reconstruct the run exactly");
}

#[test]
#[ignore = "release-mode scale smoke; run with --release -- --ignored"]
fn hundred_thousand_task_workflow_inlines_and_clusters() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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
