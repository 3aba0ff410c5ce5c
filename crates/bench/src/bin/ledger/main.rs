#![forbid(unsafe_code)]

//! `ledger` — the repository's benchmark: four workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//!
//! ```sh
//! ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ledger [--seed <u64>] [--trace <0|1>] [--out results.jsonl]   # all four
//! ledger --compare a.jsonl b.jsonl
//! ```
//!
//! One workload runs in this process; without `--workload` each of
//! the four runs in a child process of its own, so that the peak
//! resident set is per workload. The last line on standard output of
//! a workload run is its result as one JSON object. README.md beside
//! this file has the workloads, the metrics and what each should move.

mod analyze_storm;
mod compare;
mod harness;
mod json;
mod real_assembly;
mod run_sandhills;
mod serve_soak;

use harness::{fail, Bench, Report, Spec, DEFAULT_SEED};
use std::io::Write as _;
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: ledger [--workload <name>] [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] [--out <results.jsonl>] | --compare <a.jsonl> <b.jsonl>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|_| "--seconds takes a number")?);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_workload(spec: Spec, name: &str, seed: u64, seconds: f64, traced: bool) -> Report {
    let bench = |name| Bench::new(spec, name, seed, seconds, traced);
    match name {
        run_sandhills::NAME => bench(run_sandhills::NAME).run(run_sandhills::RunSandhills::new()),
        analyze_storm::NAME => bench(analyze_storm::NAME).run(analyze_storm::AnalyzeStorm),
        serve_soak::NAME => bench(serve_soak::NAME).run(serve_soak::ServeSoak::new()),
        real_assembly::NAME => bench(real_assembly::NAME).run(real_assembly::RealAssembly::new()),
        other => fail(&format!("unknown workload {other:?}")),
    }
}

/// Appends one record line to the `--out` file.
fn append(path: &str, record: &str) {
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{record}"));
    if let Err(e) = written {
        fail(&format!("cannot append to {path}: {e}"));
    }
}

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|e| fail(&format!("{e}\n{USAGE}")));
    let spec = Spec::load().unwrap_or_else(|e| fail(&e));
    if let Some((a, b)) = &args.compare {
        return compare::run(&spec, a, b);
    }
    let seconds = args.seconds.unwrap_or(spec.run_seconds);

    if let Some(name) = &args.workload {
        let report = run_workload(spec, name, args.seed, seconds, args.traced);
        if let Some(path) = &args.out {
            append(path, &report.record);
        }
        println!("{}", report.result);
        return ExitCode::SUCCESS;
    }

    // Every workload in a child process of its own.
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("no current_exe: {e}")));
    let mut all_ran = true;
    for name in &spec.workloads {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if let Some(path) = &args.out {
            child.args(["--out", path]);
        }
        let status = child
            .status()
            .unwrap_or_else(|e| fail(&format!("cannot start {name}: {e}")));
        all_ran &= status.success();
    }
    if all_ran {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
