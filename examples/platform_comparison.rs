//! Platform comparison — a condensed Fig. 4 + Fig. 5 in one run.
//!
//! Simulates the calibrated blast2cap3 workflow on the Sandhills and
//! OSG models at a chosen n and prints the full pegasus-statistics
//! report for each, so the Waiting / Kickstart / Download-Install
//! contrast is visible side by side.
//!
//! ```sh
//! cargo run --release --example platform_comparison -- 300
//! ```

use blast2cap3_pegasus::experiment::simulate_blast2cap3;
use gridsim::platforms::SERIAL_REFERENCE_SECONDS;
use pegasus_wms::engine::EngineConfig;
use pegasus_wms::statistics::{compute, render_text};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300);
    println!("serial baseline (paper): {SERIAL_REFERENCE_SECONDS:.0}s = 100h; workflow n = {n}\n");
    let engine = EngineConfig::builder().retries(10).build();
    for site in ["sandhills", "osg"] {
        let run = simulate_blast2cap3(site, n, 2014, &engine, None);
        assert!(run.succeeded(), "{site} run failed");
        let stats = compute(&run);
        println!("{}", render_text(&stats));
        println!(
            "=> {site}: wall {:.0}s, {:.1}% below serial, {} retries\n",
            run.wall_time,
            100.0 * (1.0 - run.wall_time / SERIAL_REFERENCE_SECONDS),
            stats.retries
        );
    }
    println!(
        "paper finding: Sandhills wins end-to-end despite OSG's faster nodes,\n\
         because OSG pays download/install on every task, waits opportunistically,\n\
         and loses work to preemption-driven retries."
    );
}
