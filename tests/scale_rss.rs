//! The resident-set gate: an n = 10^5-task blast2cap3 DAX plans and
//! simulates quickly and within a memory ceiling per job, and its
//! event stream replays back into the identical run.
//!
//! This test is the only one in its binary, so the peak it reads is
//! this pipeline's alone. Beside another test it was not: memory a
//! test had freed on another thread stayed in that thread's malloc
//! arena, out of this pipeline's reach, and the reading rose by about
//! 264 B per job.
//!
//! `#[ignore]`-gated because the bounds only mean anything in release
//! mode — CI runs it with `cargo test --release -- --ignored`.

use blast2cap3::workflow::{build_workflow, fig2_job_count, WorkflowParams};
use gridsim::platforms::sandhills;
use gridsim::SimBackend;
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
use pegasus_wms::events;
use pegasus_wms::planner::{plan, PlannerConfig};
use std::time::Instant;

const N: usize = 100_000;

/// Generous even for loaded CI hardware: release-mode plan + simulate
/// at this size runs in ~1 s locally (see BENCH_throughput.json), so
/// tripping the bound means an order-of-magnitude regression —
/// typically a reintroduced per-job linear scan.
const WALL_CLOCK_BOUND_SECS: f64 = 60.0;

/// Peak resident set per abstract job once the workflow, its plan and
/// the finished run are all in memory (Linux `VmHWM`). The whole
/// process measures 911–912 B per job in release mode on a 2-vCPU VM
/// (975–976 B while every event was 64 bytes, 2.1 kB before names were
/// shared and file uses stored flat); the ceiling is that plus 15 %, so
/// it trips when a per-job `String`, `Vec` or second copy of the names
/// comes back, not on allocator noise. (The event's width is pinned
/// exactly in `tests/one_copy.rs`.)
const PEAK_RSS_BYTES_PER_JOB: f64 = 1_050.0;

/// A size line of this process's status (`VmHWM:` the peak resident
/// set, `VmRSS:` the current one) in bytes, where `/proc` has it.
fn status_bytes(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

#[test]
#[ignore = "release-mode scale smoke; run with --release -- --ignored"]
fn hundred_thousand_task_dax_plans_simulates_and_replays() {
    // Nothing ran before this test in its process, so the high-water
    // mark read below is the pipeline's. What the process held before
    // it began tells the harness's share from the pipeline's.
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
        eprintln!("peak resident set: {per_job:.0} B per job (before: {before})");
        assert!(
            per_job < PEAK_RSS_BYTES_PER_JOB,
            "peak resident set is {per_job:.0} B per job (ceiling {PEAK_RSS_BYTES_PER_JOB} B; \
             VmRSS before the pipeline was {before} per job)"
        );
    }

    // The event stream alone reconstructs the run: same records, same
    // outcome, same wall time — provenance holds at scale, not just in
    // the small property-test workflows.
    let replayed = events::replay(&run.events).expect("event stream replays");
    assert_eq!(replayed, run, "replay must reconstruct the run exactly");
}
