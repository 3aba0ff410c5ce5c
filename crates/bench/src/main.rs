#![forbid(unsafe_code)]

//! `wms-bench` — every figure, ablation and gate of the reproduction
//! that no `pegasus` verb prints (README.md names the verb sessions),
//! as a subcommand of one binary over one table.
//!
//! `wms-bench <name> [args]` runs one row, `wms-bench --list` prints
//! the table, and an unknown name exits 2 with it. The table is the
//! only list: README.md, EXPERIMENTS.md, DESIGN.md and CI spell their
//! commands from it, and `tests/table.rs` holds them to it. Wall-clock
//! timing of the stack is the ledger's job (`src/bin/ledger/`), not
//! this binary's; `substrates` times only the four kernels no ledger
//! metric isolates.

#[macro_use] // `out!` and `outln!`, for every figure
extern crate blast2cap3_pegasus;

use std::process::ExitCode;

mod figures {
    pub mod ablation_faults;
    pub mod ablations;
    pub mod fig4_real;
    pub mod gallery;
    pub mod headline;
    pub mod reduction;
    pub mod scaling;
    pub mod substrates;
    pub mod throughput;
    pub mod variance;
}
use figures::*;

/// One row: subcommand name, what it reproduces, and its entry point
/// (handed the arguments after the name).
type Figure = (&'static str, &'static str, fn(&[String]) -> ExitCode);

/// The entry point of a figure that takes no arguments and reports
/// failure by assertion, like the paper's own figures.
macro_rules! plain {
    ($figure:ident) => {
        |_| {
            $figure::run();
            ExitCode::SUCCESS
        }
    };
}

#[rustfmt::skip] // one row per line
const FIGURES: &[Figure] = &[
    ("fig4_real", "Fig. 4 cross-check as scaled sleeps on real threads", plain!(fig4_real)),
    ("headline", "abstract: > 95 % reduction, simulated and real", plain!(headline)),
    ("reduction", "§II: transcript reduction, fused-contig contrast", plain!(reduction)),
    ("variance", "§VII: run-to-run variability, Sandhills vs OSG", plain!(variance)),
    ("scaling", "§V-B: growth with dataset size", plain!(scaling)),
    ("ablations", "§III, §VII: clustering, retries, pre-staging", plain!(ablations)),
    ("ablation_faults", "§VII: chaos scenarios and retry policies", plain!(ablation_faults)),
    ("gallery", "beyond the paper: four classic workflow shapes", plain!(gallery)),
    ("substrates", "beyond the paper: kernels the ledger leaves out", plain!(substrates)),
    ("throughput", "beyond the paper: 10^4..10^6 jobs, the CI gate", throughput::run),
];

fn table() -> String {
    let row = |(name, paper, _): &Figure| format!("{name:<16} {paper}\n");
    FIGURES.iter().map(row).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    if name == "--list" {
        out!("{}", table());
        return ExitCode::SUCCESS;
    }
    match FIGURES.iter().find(|row| row.0 == name) {
        Some((_, _, run)) => run(&args[1..]),
        None => {
            eprintln!("usage: wms-bench <name> [args] | wms-bench --list; {name:?} is none of");
            eprint!("{}", table());
            ExitCode::from(2)
        }
    }
}
