//! §VI-A — the optimum cluster count on Sandhills.
//!
//! Sweeps n beyond the paper's four points and locates the minimum
//! wall time. Paper claims: n = 10 costs 41,593 s; n ∈ {100, 300,
//! 500} cost ≈ 10,000 s (an ~80 % improvement over n = 10); **n =
//! 300 gives the optimum** with the allocated Sandhills resources.
//!
//! Output: `target/experiments/optimum.csv`.

use blast2cap3_pegasus::experiment::simulate_blast2cap3;
use wms_bench::{ascii_bars, human_duration, write_experiment_file, DEFAULT_SEED};

pub fn run() {
    let sweep = [10usize, 25, 50, 100, 200, 300, 400, 500, 750, 1000];
    let mut csv = String::from("n,wall_time_s\n");
    let mut rows = Vec::new();
    let mut best = (0usize, f64::INFINITY);
    for &n in &sweep {
        let out = simulate_blast2cap3("sandhills", n, DEFAULT_SEED, 3);
        assert!(out.run.succeeded());
        let wall = out.run.wall_time;
        csv.push_str(&format!("{n},{wall:.1}\n"));
        rows.push((format!("n={n:<4}"), wall));
        if wall < best.1 {
            best = (n, wall);
        }
        println!("n={n:<5} wall={wall:>9.1}s ({})", human_duration(wall));
    }
    println!();
    println!(
        "{}",
        ascii_bars(
            "Sandhills wall time vs n (finer sweep than Fig. 4)",
            &rows,
            "s",
            60
        )
    );
    let w10 = rows[0].1;
    if let Some(w100) = rows.iter().find(|(l, _)| l.trim() == "n=100").map(|r| r.1) {
        println!(
            "n=100 improves on n=10 by {:.0}% (paper: ~80%)",
            100.0 * (1.0 - w100 / w10)
        );
    }
    println!(
        "optimum at n = {} ({:.1}s); paper reports n = 300 as optimal",
        best.0, best.1
    );
    let path = write_experiment_file("optimum.csv", &csv);
    println!("series written to {}", path.display());
}
