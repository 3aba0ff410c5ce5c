//! `generate-dax`, `generate-workload` and `catalogs`: the verbs that
//! write a workflow or the built-in catalogs, and read nothing.

use crate::{common, write_or_print};
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::cli::{opt, switch, Args, Verb};
use blast2cap3_pegasus::experiment::{builtin_registry, calibrated_workflow, registry_catalogs};
use pegasus_wms::{catalog_io, dax, synthetic};
use std::process::ExitCode;

/// The most jobs a generator writes: the throughput sweep's largest
/// DAX (10^6 blast2cap3 chunks, 541 MB).
const MAX_JOBS: usize = 1_000_000;

pub(crate) const DAX: Verb = Verb {
    name: "generate-dax",
    summary: "emit the blast2cap3 Fig. 2 workflow as a DAX file",
    positional: None,
    flags: &[
        opt("n", "clusters", "decomposition size (default 300)").count(1, MAX_JOBS),
        common::OUT,
        switch(
            "calibrated",
            "use chunk costs calibrated to the 100-hour baseline",
        ),
        common::SEED,
    ],
    run: cmd_generate_dax,
};

pub(crate) const WORKLOAD: Verb = Verb {
    name: "generate-workload",
    summary: "emit a synthetic benchmark workflow as a DAX file",
    positional: None,
    flags: &[
        opt("shape", "name", "montage|cybershake|epigenomics|ligo"),
        // Epigenomics, the largest shape, has 4 jobs per unit of size
        // (8 per two-lane chain pair, plus 7): 999,999 at the ceiling.
        opt("size", "n", "workflow size (default 20)").count(1, (MAX_JOBS - 7) / 4),
        common::OUT,
    ],
    run: cmd_generate_workload,
};

pub(crate) const CATALOGS: Verb = Verb {
    name: "catalogs",
    summary: "dump the built-in transformation/replica catalogs",
    positional: None,
    flags: &[common::OUT],
    run: cmd_catalogs,
};

fn cmd_generate_dax(args: &Args) -> ExitCode {
    let n = args.parsed("n", 300);
    let wf = if args.flag("calibrated") {
        calibrated_workflow(n, args.parsed("seed", 20140519u64))
    } else {
        build_workflow(&WorkflowParams::with_n(n))
    };
    let done = format!("wrote {} jobs to", wf.jobs.len());
    write_or_print(args, &dax::to_dax(&wf), &done);
    ExitCode::SUCCESS
}

fn cmd_generate_workload(args: &Args) -> ExitCode {
    let size: usize = args.parsed("size", 20);
    let wf = match args.require("shape") {
        "montage" => synthetic::montage(size),
        "cybershake" => synthetic::cybershake(size),
        "epigenomics" => synthetic::epigenomics(2, size.div_ceil(2).max(1)),
        "ligo" => synthetic::ligo_inspiral(size.div_ceil(5).max(1), 5),
        other => args.bail(&format!("unknown shape {other:?}")),
    };
    let done = format!("wrote {} ({} jobs) to", wf.name, wf.jobs.len());
    write_or_print(args, &dax::to_dax(&wf), &done);
    ExitCode::SUCCESS
}

fn cmd_catalogs(args: &Args) -> ExitCode {
    let (_, tc, rc) = registry_catalogs(builtin_registry());
    let text = catalog_io::to_text(&tc, &rc);
    write_or_print(args, &text, "built-in catalogs written to");
    ExitCode::SUCCESS
}
