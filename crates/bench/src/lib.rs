#![forbid(unsafe_code)]

//! Shared helpers for the figures of the one `wms-bench` binary.
//!
//! A figure writes its series, if it has one, to
//! `target/experiments/<name>.csv` and prints its reading of the paper,
//! so `cargo run -p wms-bench --release -- headline` (etc.) regenerates
//! it end to end; `wms-bench --list` names them all.

use blast2cap3_pegasus::experiment::builtin_registry;
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
use pegasus_wms::planner::ExecutableWorkflow;
use std::path::PathBuf;

/// Seed used by default for the deterministic experiments.
pub const DEFAULT_SEED: u64 = 20140519; // IPDPSW 2014 week

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

/// Writes `content` to `target/experiments/<name>`, creating the
/// directory, and returns the path.
pub fn write_experiment_file(name: &str, content: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(name);
    let written =
        bioseq::output::replace(&path, |w| std::io::Write::write_all(w, content.as_bytes()));
    written.and_then(|r| r).expect("write experiment file");
    path
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_durations() {
        assert_eq!(human_duration(60.0), "1m");
        assert_eq!(human_duration(3600.0), "1h00m");
        assert_eq!(human_duration(41593.0), "11h33m");
        assert_eq!(human_duration(360_000.0), "100h00m");
    }

    #[test]
    fn experiment_dir_is_creatable() {
        let f = write_experiment_file("selftest.csv", "a,b\n1,2\n");
        assert!(f.exists());
        std::fs::remove_file(f).ok();
    }
}
