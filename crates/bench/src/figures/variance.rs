//! §VII — "Workflows running on OSG may result with excellent or very
//! poor results depending whether there are plenty or few available
//! resources", while "the running time for the both platforms ... may
//! vary for every new run".
//!
//! Quantifies run-to-run variability: the same n = 300 workflow across
//! 25 seeds on each platform model. Expected shape: the Sandhills
//! distribution is tight (dedicated allocation, no failures); the OSG
//! distribution is wide and right-skewed (opportunistic waits +
//! preemption-driven retries); OSG under a scripted preemption storm
//! (`osg+chaos`) is wider still.
//!
//! Output: `target/experiments/variance.csv`.
//!
//! It stays a figure for its 25-seed CSV and its storm and ensemble
//! series; tier-1 holds the OSG-vs-Sandhills spread check at 8 seeds.

use blast2cap3_pegasus::experiment::{simulate_blast2cap3, simulate_blast2cap3_ensemble};
use gridsim::{FaultPlan, FaultScript};
use pegasus_wms::engine::{EngineConfig, RetryPolicy};
use pegasus_wms::statistics::{compute, compute_ensemble};
use wms_bench::{human_duration, write_experiment_file, DEFAULT_SEED};

const CHAOS: &str = "\
plan variance-storm
preemption-storm start=500 duration=2500 kill-probability=0.5
straggler start=0 duration=1e9 slowdown=4 probability=0.05
";

/// One run of `series` under `seed`: whether it succeeded, its wall
/// time (an ensemble's makespan) and its retries. The `+ensemble`
/// series run the {100, 300} pair as ONE ensemble: a makespan is a
/// max over members sharing the platform, so opportunistic variability
/// compounds rather than averaging out.
fn simulate(series: &str, seed: u64) -> (bool, f64, u32) {
    let backoff = EngineConfig::builder()
        .policy(RetryPolicy::exponential(20, 30.0))
        .seed(seed)
        .build();
    if let Some(site) = series.strip_suffix("+ensemble") {
        let run = simulate_blast2cap3_ensemble(site, &[100, 300], seed, &backoff);
        let retries = compute_ensemble(&run.runs).retries;
        return (run.succeeded(), run.makespan, retries);
    }
    let run = if series == "osg+chaos" {
        let script = FaultScript::new(FaultPlan::parse(CHAOS).expect("valid plan"), seed);
        simulate_blast2cap3("osg", 300, seed, &backoff, Some(script))
    } else {
        let flat = EngineConfig::builder().retries(20).build();
        simulate_blast2cap3(series, 300, seed, &flat, None)
    };
    (run.succeeded(), run.wall_time, compute(&run).retries)
}

fn summary(walls: &mut [f64]) -> (f64, f64, f64, f64) {
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let min = walls[0];
    let max = walls[walls.len() - 1];
    let median = walls[walls.len() / 2];
    let mean = walls.iter().sum::<f64>() / walls.len() as f64;
    (min, median, mean, max)
}

pub fn run() {
    const RUNS: u64 = 25;
    let mut csv = String::from("platform,seed,wall_time_s,retries\n");
    let mut spreads = Vec::new();
    for series in [
        "sandhills",
        "osg",
        "osg+chaos",
        "sandhills+ensemble",
        "osg+ensemble",
    ] {
        let mut walls = Vec::new();
        for seed in DEFAULT_SEED..DEFAULT_SEED + RUNS {
            let (succeeded, wall, retries) = simulate(series, seed);
            assert!(succeeded, "{series} seed {seed}");
            csv.push_str(&format!("{series},{seed},{wall:.1},{retries}\n"));
            walls.push(wall);
        }
        let (min, median, mean, max) = summary(&mut walls);
        let spread = max / min;
        spreads.push(spread);
        let (label, note) = match series.strip_suffix("+ensemble") {
            Some(site) => (format!("{site}+ens"), "ensemble of n=100+300".into()),
            None => (series.into(), format!("median {}", human_duration(median))),
        };
        outln!(
            "{label:<9} over {RUNS} runs: min {min:>8.0}s  median {median:>8.0}s  mean {mean:>8.0}s  max {max:>8.0}s  (max/min = {spread:.2}x, {note})"
        );
    }

    let (sandhills_spread, osg_spread, chaos_spread) = (spreads[0], spreads[1], spreads[2]);
    outln!();
    assert!(
        osg_spread > sandhills_spread,
        "the paper's variability contrast must reproduce"
    );
    outln!(
        "OSG spread ({osg_spread:.2}x) vs Sandhills spread ({sandhills_spread:.2}x): REPRODUCED — opportunistic variability dominates"
    );
    outln!("scripted storm widens OSG spread further: {chaos_spread:.2}x vs {osg_spread:.2}x");
    let path = write_experiment_file("variance.csv", &csv);
    outln!("series written to {}", path.display());
}
