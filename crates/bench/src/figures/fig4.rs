//! Fig. 4 — workflow wall time on Sandhills and OSG, serial vs.
//! n ∈ {10, 100, 300, 500}.
//!
//! Regenerates the paper's central comparison on the calibrated
//! simulator. Output: `target/experiments/fig4.csv` plus an ASCII bar
//! chart. Expected shape (paper §VI-A):
//!
//! * every workflow configuration beats serial by > 95 %;
//! * Sandhills beats OSG at n = 10, 100, 300;
//! * on Sandhills, n = 10 is ~4× slower than n ≥ 100; n = 300 is the
//!   optimum.

use blast2cap3_pegasus::experiment::simulate_blast2cap3_ensemble;
use gridsim::platforms::SERIAL_REFERENCE_SECONDS;
use pegasus_wms::engine::EngineConfig;
use wms_bench::{
    ascii_bars, human_duration, paper_sweep, write_experiment_file, DEFAULT_SEED, PAPER_N_VALUES,
};

pub fn run() {
    let mut csv = String::from("platform,n,wall_time_s,retries,reduction_vs_serial\n");
    let mut rows: Vec<(String, f64)> =
        vec![("serial (paper: 100h)".to_string(), SERIAL_REFERENCE_SECONDS)];
    csv.push_str(&format!("serial,1,{SERIAL_REFERENCE_SECONDS},0,0.0\n"));

    for (site, n, out) in paper_sweep() {
        let wall = out.run.wall_time;
        let reduction = 1.0 - wall / SERIAL_REFERENCE_SECONDS;
        csv.push_str(&format!(
            "{site},{n},{wall:.1},{},{reduction:.4}\n",
            out.stats.retries
        ));
        rows.push((format!("{site:<9} n={n:<3}"), wall));
        println!(
            "{site:<9} n={n:<3}  wall={wall:>9.1}s ({:<7})  retries={:<3} reduction={:.1}%",
            human_duration(wall),
            out.stats.retries,
            100.0 * reduction
        );
    }

    // Ensemble series: the same sweep run as ONE ensemble per site —
    // all four decompositions contend for the shared platform at once,
    // so the rollup makespan is the cost of exploring the whole n-grid
    // in a single submission instead of four sequential runs.
    println!();
    // Shared-capacity contention stretches OSG attempts into the
    // preemption hazard, so ensemble members need a deeper retry
    // budget than the standalone sweep.
    let engine_cfg = EngineConfig::builder()
        .retries(20)
        .seed(DEFAULT_SEED)
        .build();
    for site in ["sandhills", "osg"] {
        let out =
            simulate_blast2cap3_ensemble(site, &PAPER_N_VALUES, DEFAULT_SEED, &engine_cfg, None);
        assert!(out.run.succeeded(), "{site} ensemble failed");
        let sequential: f64 = out.run.runs.iter().map(|r| r.wall_time).sum();
        println!(
            "{site:<9} ensemble n={{10,100,300,500}}  makespan={:>9.1}s ({:<7})  vs sequential sweep {:>9.1}s",
            out.run.makespan,
            human_duration(out.run.makespan),
            sequential
        );
        for (run, member) in out.run.runs.iter().zip(&out.stats.per_workflow) {
            csv.push_str(&format!(
                "{site}+ensemble,{},{:.1},{},\n",
                run.name.trim_start_matches("blast2cap3_n"),
                run.wall_time,
                member.retries
            ));
        }
        csv.push_str(&format!(
            "{site}+ensemble,rollup,{:.1},{},\n",
            out.run.makespan, out.stats.retries
        ));
    }

    let path = write_experiment_file("fig4.csv", &csv);
    println!();
    println!(
        "{}",
        ascii_bars(
            "Fig. 4 — Workflow Wall Time (simulated platforms, calibrated to the paper's 100h serial)",
            &rows,
            "s",
            60
        )
    );
    println!("series written to {}", path.display());
}
