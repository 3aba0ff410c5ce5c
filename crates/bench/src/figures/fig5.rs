//! Fig. 5 — per-task running time on Sandhills and OSG for each
//! n ∈ {10, 100, 300, 500}.
//!
//! Reproduces the paper's per-task breakdown into the three
//! pegasus-statistics components:
//!
//! * **Kickstart Time** — decreases as n grows (smaller chunks) and
//!   is *lower on OSG* for the same n (faster opportunistic nodes,
//!   paper §VII);
//! * **Waiting Time** — small and negligible on Sandhills, large and
//!   erratic on OSG;
//! * **Download/Install Time** — zero on Sandhills, paid by every
//!   task on OSG.
//!
//! Output: `target/experiments/fig5.csv` plus per-configuration
//! tables.

use wms_bench::{paper_sweep, write_experiment_file};

const TASK_TYPES: [&str; 6] = [
    "list_transcripts",
    "list_alignments",
    "split",
    "run_cap3",
    "merge",
    "extract_unjoined",
];

pub fn run() {
    let mut csv =
        String::from("platform,n,task_type,count,kickstart_mean_s,waiting_mean_s,install_mean_s\n");
    let runs: Vec<_> = paper_sweep().collect();
    for (site, n, out) in &runs {
        println!("── {site}, n = {n} ───────────────────────────────────────────");
        println!(
            "  {:<18} {:>6} {:>14} {:>12} {:>14}",
            "task", "count", "kickstart(s)", "waiting(s)", "install(s)"
        );
        for t in TASK_TYPES {
            if let Some(s) = out.stats.for_type(t) {
                println!(
                    "  {:<18} {:>6} {:>14.1} {:>12.1} {:>14.1}",
                    t, s.count, s.kickstart_mean, s.waiting_mean, s.install_mean
                );
                csv.push_str(&format!(
                    "{site},{n},{t},{},{:.2},{:.2},{:.2}\n",
                    s.count, s.kickstart_mean, s.waiting_mean, s.install_mean
                ));
            }
        }
        println!();
    }

    // Shape checks mirrored from the paper's narrative.
    let cap3_at_300 = |site| {
        let (_, _, out) = runs
            .iter()
            .find(|r| (r.0, r.1) == (site, 300))
            .expect("swept");
        out.stats.for_type("run_cap3").expect("run_cap3 stats")
    };
    let (sh, og) = (cap3_at_300("sandhills"), cap3_at_300("osg"));
    println!("paper shape checks @ n = 300:");
    println!(
        "  Sandhills waiting ({:.0}s) is negligible; OSG waiting ({:.0}s) is not  -> {}",
        sh.waiting_mean,
        og.waiting_mean,
        verdict(og.waiting_mean > 10.0 * sh.waiting_mean)
    );
    println!(
        "  Sandhills install = {:.0}s; every OSG task pays install ({:.0}s)      -> {}",
        sh.install_mean,
        og.install_mean,
        verdict(sh.install_mean == 0.0 && og.install_mean > 0.0)
    );
    println!(
        "  pure kickstart is lower on OSG ({:.0}s vs {:.0}s on Sandhills)        -> {}",
        og.kickstart_mean,
        sh.kickstart_mean,
        verdict(og.kickstart_mean < sh.kickstart_mean)
    );

    let path = write_experiment_file("fig5.csv", &csv);
    println!("\nseries written to {}", path.display());
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "REPRODUCED"
    } else {
        "DEVIATION"
    }
}
