#![forbid(unsafe_code)]

//! Shared helpers for the figures of the one `wms-bench` binary.
//!
//! Every figure writes its series to `target/experiments/<name>.csv`
//! and prints an ASCII rendition of the corresponding paper figure, so
//! `cargo run -p wms-bench --release -- fig4` (etc.) regenerates the
//! paper's evaluation artifacts end to end; `wms-bench --list` names
//! them all.

use blast2cap3_pegasus::experiment::{builtin_registry, simulate_blast2cap3, ExperimentOutcome};
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
use pegasus_wms::planner::ExecutableWorkflow;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The paper's cluster-count sweep (Fig. 4 / Fig. 5 x-axis).
pub const PAPER_N_VALUES: [usize; 4] = [10, 100, 300, 500];

/// Seed used by default for the deterministic experiments.
pub const DEFAULT_SEED: u64 = 20140519; // IPDPSW 2014 week

/// Pegasus's retry profile for opportunistic sites.
pub const PAPER_RETRIES: u32 = 10;

/// The paper's sweep: every n of Fig. 4 / Fig. 5 on both platforms
/// under [`DEFAULT_SEED`] and [`PAPER_RETRIES`], each run required to
/// have succeeded.
pub fn paper_sweep() -> impl Iterator<Item = (&'static str, usize, ExperimentOutcome)> {
    let sweep = |site| PAPER_N_VALUES.map(|n| (site, n));
    ["sandhills", "osg"]
        .into_iter()
        .flat_map(sweep)
        .map(|(site, n)| {
            let out = simulate_blast2cap3(site, n, DEFAULT_SEED, PAPER_RETRIES);
            assert!(out.run.succeeded(), "{site} n={n} failed: {:?}", out.stats);
            (site, n, out)
        })
}

/// Simulated wall time of the plan `exec` on the built-in `site`
/// under `seed` and a flat retry budget — for the figures that plan
/// something other than the calibrated paper workflow. The run must
/// succeed.
pub fn simulated_wall(site: &str, exec: &ExecutableWorkflow, seed: u64, retries: u32) -> f64 {
    let registry = builtin_registry();
    let mut backend = registry.backend(registry.resolve(site).expect("built-in site"), seed);
    let cfg = EngineConfig::builder().retries(retries).build();
    let run = Engine::run(&mut backend, exec, &cfg, &mut NoopMonitor);
    assert!(run.succeeded(), "{site}/{} failed", exec.name);
    run.wall_time
}

/// Directory where experiment CSVs are written.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes `content` to `target/experiments/<name>` and returns the
/// path.
pub fn write_experiment_file(name: &str, content: &str) -> PathBuf {
    let path = experiments_dir().join(name);
    std::fs::write(&path, content).expect("write experiment file");
    path
}

/// Renders a horizontal ASCII bar chart: one `(label, value)` row per
/// bar, scaled to `width` columns.
pub fn ascii_bars(title: &str, rows: &[(String, f64)], unit: &str, width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let max = rows.iter().map(|r| r.1).fold(0.0f64, f64::max).max(1e-9);
    let label_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    for (label, value) in rows {
        let filled = ((value / max) * width as f64).round() as usize;
        let _ = writeln!(
            out,
            "  {label:<label_w$} | {:<width$} {value:>12.1} {unit}",
            "#".repeat(filled.min(width)),
        );
    }
    out
}

/// Formats seconds as `Xh Ym` for readability next to raw seconds.
pub fn human_duration(seconds: f64) -> String {
    let total_minutes = (seconds / 60.0).round() as i64;
    let h = total_minutes / 60;
    let m = total_minutes % 60;
    if h > 0 {
        format!("{h}h{m:02}m")
    } else {
        format!("{m}m")
    }
}

/// Prints the mean wall time of `passes` calls of `f`, after one
/// untimed warm-up call: the whole of what `substrates` needs for the
/// kernels no ledger metric isolates. Everything else is timed by the
/// ledger.
pub fn timed<O>(label: &str, passes: u32, mut f: impl FnMut() -> O) {
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..passes {
        std::hint::black_box(f());
    }
    println!("{label}: mean {:?}", start.elapsed() / passes.max(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_width() {
        let rows = vec![("a".to_string(), 100.0), ("bb".to_string(), 50.0)];
        let chart = ascii_bars("t", &rows, "s", 20);
        assert!(chart.contains(&"#".repeat(20)));
        assert!(chart.contains(&"#".repeat(10)));
        assert!(chart.starts_with("t\n"));
    }

    #[test]
    fn human_durations() {
        assert_eq!(human_duration(60.0), "1m");
        assert_eq!(human_duration(3600.0), "1h00m");
        assert_eq!(human_duration(41593.0), "11h33m");
        assert_eq!(human_duration(360_000.0), "100h00m");
    }

    #[test]
    fn experiment_dir_is_creatable() {
        let p = experiments_dir();
        assert!(p.exists());
        let f = write_experiment_file("selftest.csv", "a,b\n1,2\n");
        assert!(f.exists());
        std::fs::remove_file(f).ok();
    }
}
