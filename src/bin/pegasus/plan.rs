//! `plan`: map a DAX onto a site (pegasus-plan) and describe the
//! executable workflow.

use crate::{
    arm_profiler, common, load_catalogs, load_dax, load_registry, profile_summary, resolve_site,
    write_flagged,
};
use blast2cap3_pegasus::cli::{opt, switch, Args, Verb};
use blast2cap3_pegasus::outln;
use pegasus_wms::planner::{plan, ExecutableWorkflow, PlannerConfig};
use std::process::ExitCode;

pub(crate) const PLAN: Verb = Verb {
    name: "plan",
    summary: "map a DAX onto a site (pegasus-plan)",
    positional: None,
    flags: &[
        opt("dax", "file", "abstract workflow to plan"),
        common::SITE,
        common::SITES,
        opt("cluster", "k", "horizontal clustering factor").at_least(1),
        switch(
            "data-reuse",
            "elide jobs whose outputs exist in the replica catalog",
        ),
        switch("cleanup", "append cleanup jobs"),
        opt("dot", "file", "write the planned DAG as Graphviz dot"),
        switch("ascii", "print the planned DAG as ASCII levels"),
        common::CATALOG,
        common::PROFILE,
    ],
    run: cmd_plan,
};

fn cmd_plan(args: &Args) -> ExitCode {
    let profiling = arm_profiler(args);
    let wf = load_dax(args.require("dax"));
    let registry = load_registry(args);
    let site = resolve_site(args, &registry, args.require("site"));
    let (sites, tc, rc) = load_catalogs(args, &registry);
    let mut cfg = PlannerConfig::for_site(registry.catalog_name(site));
    if let Some(k) = args.parsed_opt::<usize>("cluster") {
        cfg.cluster_factor = Some(k);
    }
    cfg.data_reuse = args.flag("data-reuse");
    cfg.add_cleanup = args.flag("cleanup");
    let exec = match plan(&wf, &sites, &tc, &rc, &cfg) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("planning failed: {e}");
            profile_summary(profiling);
            return ExitCode::FAILURE;
        }
    };
    outln!("planned {} for site {}", exec.name, exec.site);
    let mut by_kind: Vec<(String, usize)> = exec
        .counts_by_kind()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    by_kind.sort();
    for (kind, count) in by_kind {
        outln!("  {kind:<12} {count}");
    }
    outln!("  edges        {}", exec.edges.len());
    outln!("  install time {:.0}s total", exec.total_install_time());
    if let Ok((cp, _)) = wf.critical_path() {
        outln!("  critical path {cp:.0}s (makespan lower bound)");
    }
    write_flagged(args, "dot", "dot graph", || exec.to_dot());
    if args.flag("ascii") {
        outln!("{}", ascii_dag(&exec));
    }
    profile_summary(profiling);
    ExitCode::SUCCESS
}

/// Renders the planned DAG as one line per level, install-carrying
/// jobs marked `*` (the Fig. 3 red rectangles), with large fan-outs
/// elided.
fn ascii_dag(exec: &ExecutableWorkflow) -> String {
    use std::fmt::Write as _;
    let children = exec.children();
    let order = children
        .topological_order()
        .expect("planner output is always a DAG");
    let level = children.levels(&order);
    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut out = String::new();
    for l in 0..=max_level {
        let mut names: Vec<String> = exec
            .jobs
            .iter()
            .filter(|j| level[j.id.idx()] == l)
            .map(|j| {
                if j.install_hint > 0.0 {
                    format!("{}*", j.name)
                } else {
                    j.name.to_string()
                }
            })
            .collect();
        names.sort();
        let shown = if names.len() > 6 {
            format!(
                "{} ... {} ({} jobs)",
                names[..3].join("  "),
                names[names.len() - 1],
                names.len()
            )
        } else {
            names.join("  ")
        };
        let _ = writeln!(out, "L{l:<2} {shown}");
        if l < max_level {
            let _ = writeln!(out, "    |");
        }
    }
    out.push_str("(* = download/install phase attached)\n");
    out
}
