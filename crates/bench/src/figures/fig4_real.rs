//! Fig. 4 cross-validation with *real* execution.
//!
//! `pegasus metrics --site both --sizes 10,100,300,500 --retries 10`
//! reads the paper's curve off the discrete-event simulator. This
//! figure validates the simulator against reality: the same calibrated
//! workload is executed by the actual DAGMan engine on the actual
//! `condor::LocalPool` (64 worker threads), with each task
//! sleeping for its calibrated duration scaled down by 10,000× (one
//! paper-second = 0.1 ms). Wall-clock times therefore come from real
//! thread scheduling, channel traffic, and engine bookkeeping — if the
//! simulated shape (n = 10 far slower; n ≥ 100 flat; diminishing
//! returns) were an artifact of the simulator, it would not survive
//! this re-measurement.
//!
//! Output: `target/experiments/fig4_real.csv`.
//!
//! No verb reproduces it: no `pegasus` verb runs a real kernel.

use blast2cap3_pegasus::experiment::{calibrated_workflow, plan_local};
use condor::pool::{LocalPool, PoolConfig, TaskRegistry};
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor};
use wms_bench::{write_experiment_file, DEFAULT_SEED};

/// Real seconds of sleep per calibrated paper-second.
const TIME_SCALE: f64 = 1.0e-4;

/// Worker threads — the Sandhills allocation size.
const WORKERS: usize = 64;

pub fn run() {
    let workdir = std::env::temp_dir().join(format!("fig4_real_{}", std::process::id()));
    let mut csv = String::from("n,real_wall_s,paper_scale_equivalent_s\n");
    let [w10, w100, w300, w500] = [10, 100, 300, 500].map(|n| {
        let exec = plan_local(&calibrated_workflow(n, DEFAULT_SEED)).expect("plan");

        // No registered kernels: every task sleeps runtime_hint *
        // TIME_SCALE on a real worker thread.
        let mut pool = LocalPool::new(
            PoolConfig {
                workers: WORKERS,
                workdir: workdir.clone(),
                time_scale: TIME_SCALE,
            },
            TaskRegistry::new(),
        );
        let run = Engine::run(
            &mut pool,
            &exec,
            &EngineConfig::builder().retries(0).build(),
            &mut NoopMonitor,
        );
        assert!(run.succeeded());
        std::fs::remove_dir_all(&workdir).ok();
        let equivalent = run.wall_time / TIME_SCALE;
        outln!(
            "n={n:<4} real wall {:>7.2}s  ->  {:>9.0} paper-seconds",
            run.wall_time,
            equivalent
        );
        csv.push_str(&format!("{n},{:.3},{equivalent:.0}\n", run.wall_time));
        equivalent
    });

    // Shape checks: the real-threads curve must match the paper's.
    assert!(
        w10 > 3.0 * w100,
        "n=10 must be several times slower than n=100 ({w10:.0} vs {w100:.0})"
    );
    let hi = w100.max(w300).max(w500);
    let lo = w100.min(w300).min(w500);
    assert!(
        hi / lo < 1.6,
        "n>=100 must be comparatively flat: {w100:.0}/{w300:.0}/{w500:.0}"
    );
    outln!(
        "\nshape check: n=10 is {:.1}x n=100; n>=100 band spread {:.2}x -> REPRODUCED with real threads",
        w10 / w100,
        hi / lo
    );
    let path = write_experiment_file("fig4_real.csv", &csv);
    outln!("series written to {}", path.display());
}
