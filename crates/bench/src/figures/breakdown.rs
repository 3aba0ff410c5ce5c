//! Phase-breakdown benchmark — `BENCH_breakdown.json`.
//!
//! Runs the paper's decomposition sweep (n ∈ {10, 100, 300, 500}) on
//! both sites under [`DEFAULT_SEED`] and emits the per-phase means
//! from [`pegasus_wms::breakdown`] as a deterministic JSON file at the
//! repository root, so later PRs can diff the per-task cost profile
//! the way `target/experiments/*.csv` diffs the figures.
//!
//! Output: `BENCH_breakdown.json` (repo root) plus the usual terminal
//! table.

use std::fmt::Write as _;

use pegasus_wms::breakdown::{render_table, BreakdownRow};
use wms_bench::{paper_sweep, DEFAULT_SEED, PAPER_RETRIES};

pub fn run() {
    let rows: Vec<_> = paper_sweep().map(|(_, _, out)| out.breakdown()).collect();
    print!("{}", render_table(&rows));

    let json = render_json(&rows);
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_breakdown.json");
    std::fs::write(&path, json).expect("write BENCH_breakdown.json");
    println!("\nbench series written to {}", path.display());
}

/// Hand-rolled, key-ordered JSON — byte-stable for a given seed so the
/// committed file diffs cleanly across PRs.
fn render_json(rows: &[BreakdownRow]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"breakdown\",");
    let _ = writeln!(out, "  \"seed\": {DEFAULT_SEED},");
    let _ = writeln!(out, "  \"retries\": {PAPER_RETRIES},");
    let _ = writeln!(out, "  \"unit\": \"seconds\",");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"site\": \"{}\", \"n\": {}, \"compute_jobs\": {}, \"completed\": {}, \
             \"queue_wait_mean\": {:.3}, \"install_mean\": {:.3}, \"kickstart_mean\": {:.3}, \
             \"post_overhead_mean\": {:.3}, \"retry_badput_mean\": {:.3}, \"total_mean\": {:.3}}}",
            r.site,
            r.n,
            r.compute_jobs,
            r.completed,
            r.queue_wait_mean,
            r.install_mean,
            r.kickstart_mean,
            r.post_overhead_mean,
            r.retry_badput_mean,
            r.total_mean,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
