//! `lint` and `verify`: the verbs that judge a workflow, a plan or an
//! event stream and report findings as diagnostics.

use crate::fold::{adhoc_log, event_sources, read_log, LIVE_EVENTS, LIVE_N};
use crate::{
    comma_list, common, load_catalogs, load_dax, load_registry, or_exit, plan_or_exit,
    read_or_exit, resolve_site, retry_policy_from, success_if, width_findings,
};
use blast2cap3_pegasus::cli::{opt, switch, Args, Verb};
use blast2cap3_pegasus::experiment::{builtin_registry, dax_findings, plan_findings};
use blast2cap3_pegasus::{out, outln};
use gridsim::sites::SiteRegistry;
use gridsim::FaultPlan;
use pegasus_wms::ensemble::EnsembleConfig;
use pegasus_wms::error::WmsError;
use pegasus_wms::lint::{self, Diagnostic};
use pegasus_wms::verify::{self, StreamWalker, VerifyOptions};
use pegasus_wms::workflow::AbstractWorkflow;
use std::process::ExitCode;

pub(crate) const LINT: Verb = Verb {
    name: "lint",
    summary: "static analysis of a DAX plus fault plans, configs, event logs",
    positional: Some("<dax>"),
    flags: &[
        opt(
            "dax",
            "file",
            "the DAX to lint (alternative to the positional)",
        ),
        opt("format", "text|json", "diagnostic output format"),
        opt("deny", "spec", "escalate lints: warnings, codes, or names"),
        opt("allow", "spec", "silence lints by code or name"),
        common::SITE,
        common::SITES,
        common::CATALOG,
        opt("fault-plan", "file,...", "fault plans to lint"),
        opt("events", "file,...", "event logs to sanitize"),
        common::RETRIES,
        common::BACKOFF,
        common::TIMEOUT,
        opt("slots", "n", "slot budget for the feasibility pass"),
        opt("fan-limit", "n", "fan-in/out threshold (default 500)"),
        opt(
            "explain",
            "code",
            "print extended help for a rule code or name",
        ),
        switch("list", "list every registered rule with its default level"),
    ],
    run: cmd_lint,
};

pub(crate) const VERIFY: Verb = Verb {
    name: "verify",
    summary: "semantic verification: temporal invariants over event logs, dataflow over plans",
    positional: Some("<events-or-dir>"),
    flags: &[
        opt(
            "dax",
            "file",
            "verify the planned dataflow of this DAX (layer 2)",
        ),
        common::SITE,
        common::SITES,
        common::CATALOG,
        common::FROM_EVENTS,
        opt(
            "events-dir",
            "dir",
            "verify every member event log of a serve state directory",
        ),
        opt("format", "text|json", "diagnostic output format"),
        opt(
            "deny",
            "spec",
            "escalate findings: warnings, codes, or names",
        ),
        opt("allow", "spec", "silence findings by code or name"),
        opt("slots", "n", "slot capacity for the concurrency sweep"),
        opt(
            "storage-limit",
            "bytes",
            "storage bound for the footprint sweep",
        ),
        common::SEED,
        common::RETRIES,
        common::BACKOFF,
        common::TIMEOUT,
        opt("fault-plan", "file", "scripted fault plan for the live run"),
        LIVE_N,
        LIVE_EVENTS,
        common::QUIET,
    ],
    run: cmd_verify,
};

/// The `--deny`/`--allow` level overrides `lint` and `verify` share;
/// `example` is the code the verb's own `--deny` hint suggests.
fn lint_config_from(args: &Args, example: &str) -> lint::LintConfig {
    let mut config = lint::LintConfig::default();
    if let Some(spec) = args.get("deny") {
        if let Err(tok) = config.deny(spec) {
            args.bail(&format!(
                "--deny: {tok:?} names no known lint (try a code like {example}, a rule name, or `warnings`)"
            ));
        }
    }
    if let Some(spec) = args.get("allow") {
        if let Err(tok) = config.allow(spec) {
            args.bail(&format!("--allow: {tok:?} names no known lint"));
        }
    }
    config
}

/// Gathers every lint diagnostic the given flags make checkable: the
/// DAX passes always, the config pass when `--site`/`--slots` is
/// given, the slot budget against the workflow's width with `--slots`,
/// the fault-plan pass per `--fault-plan`, and (only when
/// `include_event_logs`) the sanitizer per `--events`. The event-log
/// pass is opt-in because `run` uses `--events` as an *output* path.
/// The one parse of the DAX comes back with the findings, for `run`
/// to validate and plan.
pub(crate) fn collect_lint(
    args: &Args,
    dax_path: &str,
    include_event_logs: bool,
) -> (Vec<Diagnostic>, Result<AbstractWorkflow, WmsError>) {
    let mut diags = Vec::new();

    // Site-definition pass (E0501–E0507): lint `--sites` when given,
    // and build the registry the config pass resolves `--site`
    // against. A file that fails to parse, or has an error finding
    // (the load refuses exactly those), degrades to the built-ins so
    // the remaining passes still run: a `--site` only that file
    // defines is then E0301 as well.
    let mut registry = builtin_registry().clone();
    if let Some(path) = args.get("sites") {
        match gridsim::sites::parse_defs(&read_or_exit("site definitions", path)) {
            Ok(defs) => {
                diags.extend(gridsim::lint_sites(&defs, path));
                // Its refusal is the first finding just reported.
                if let Ok(loaded) = SiteRegistry::from_defs(defs) {
                    registry = loaded;
                }
            }
            Err(e) => diags.push(Diagnostic::from_error(&e, path)),
        }
    }
    let (sites, tc, _rc) = load_catalogs(args, &registry);

    // The unvalidated parse keeps cyclic or conflicted workflows
    // alive so the structural pass can report the full story instead
    // of stopping at the first validation error.
    let text = read_or_exit("", dax_path);
    let (findings, parsed) = dax_findings(&text, dax_path, &tc, args.parsed("fan-limit", 500usize));
    diags.extend(findings);
    let wf = parsed.as_ref().ok();

    let policy = retry_policy_from(args, args.parsed("retries", 3u32));
    // The registry judges --site, as every verb that runs one does; a
    // resolved site checks against its catalog entry (variants like
    // osg_prestaged against their base site's).
    let site = args.get("site").map(|name| registry.resolve(name));
    let resolved = site.as_ref().and_then(|id| id.as_ref().ok()).copied();
    let faults_active =
        args.get("fault-plan").is_some() || resolved.is_some_and(|id| registry.faults_active(id));
    let slots = args.parsed_opt::<usize>("slots");
    if let Some(wf) = wf {
        if let Some(Err(unknown)) = &site {
            diags.push(Diagnostic::from_error(unknown, dax_path));
        }
        if site.is_some() || slots.is_some() {
            let ctx = lint::RunContext {
                site: resolved.and_then(|id| sites.get(registry.catalog_name(id))),
                transformations: Some(&tc),
                retry: Some(&policy),
                faults_active,
            };
            diags.extend(lint::check_config(wf, dax_path, &ctx));
        }
        if let Some(slots) = slots {
            let quotas = EnsembleConfig::with_slot_budget(slots);
            diags.extend(width_findings(wf, &quotas, dax_path));
        }
    }

    if let Some(list) = args.get("fault-plan") {
        for path in comma_list(list) {
            let ptext = read_or_exit("fault plan", path);
            match FaultPlan::parse(&ptext) {
                Ok(plan) => {
                    let ctx = gridsim::PlanLintContext {
                        workflow: wf,
                        retry: Some(&policy),
                    };
                    diags.extend(gridsim::lint_plan(&plan, path, &ctx));
                }
                Err(e) => diags.push(Diagnostic::from_error(&e, path)),
            }
        }
    }

    if include_event_logs {
        if let Some(list) = args.get("events") {
            // A log that does not parse is its `E0708` finding alone.
            for path in comma_list(list) {
                let mut walker = StreamWalker::new(path, VerifyOptions::default());
                match read_log(path, None, |line, ev| walker.event(line, &ev)) {
                    Ok(_) => diags.extend(lint::prefix_findings(walker)),
                    Err(e) => diags.push(Diagnostic::from_error(&e, path)),
                }
            }
        }
    }

    (diags, parsed)
}

/// `pegasus lint`: the static analyzer. Exits 1 when any diagnostic
/// resolves to an error under `--deny`/`--allow`, 2 on bad invocation.
fn cmd_lint(args: &Args) -> ExitCode {
    // `--explain CODE` and `--list` are documentation queries: they
    // need no DAX and exit before any file is touched.
    if let Some(query) = args.get("explain") {
        let missing = format!("no rule named {query:?} (see `pegasus lint --list`)");
        out!("{}", or_exit("", lint::explain(query).ok_or(missing)));
        return ExitCode::SUCCESS;
    }
    if args.flag("list") {
        out!("{}", lint::render_rule_list());
        return ExitCode::SUCCESS;
    }

    let dax_path = match (args.positionals(), args.get("dax")) {
        ([p], None) => p.clone(),
        ([], Some(p)) => p.to_string(),
        _ => args.bail("lint needs exactly one <dax> (positional or --dax)"),
    };

    let config = lint_config_from(args, "E0103");
    let diags = lint::resolve(collect_lint(args, &dax_path, true).0, &config);
    match args.get("format").unwrap_or("text") {
        "text" => out!("{}", lint::render_text(&diags)),
        "json" => out!("{}", lint::render_json(&diags)),
        other => args.bail(&format!("unknown --format {other:?} (use text or json)")),
    }
    success_if(!lint::has_errors(&diags))
}

/// `pegasus verify` — the two-layer semantic verifier. Layer 1 runs
/// the temporal invariant catalog (`E08xx`) over complete provenance
/// event streams, each cross-checked against its journaled trace id
/// when it has one; layer 2 (`--dax`) plans the workflow and verifies
/// its dataflow and feasibility (`E06xx`). With neither a stream source
/// nor `--dax`, the stream is the log of a live blast2cap3 run, read
/// through the same reader as a recorded one — so a live run and a
/// later `--from-events` pass over its `--events` log render identical
/// verdicts.
fn cmd_verify(args: &Args) -> ExitCode {
    let config = lint_config_from(args, "E0801");
    // The flags' policy is built, and so judged, whatever the source;
    // its backoff/jitter envelope is only asserted when the invocation
    // states it (or runs live, where it is the engine's own).
    let policy = retry_policy_from(args, args.parsed("retries", 20u32));
    let explicit_policy = args.get("retries").is_some() || args.get("backoff").is_some();
    let mut opts = verify::VerifyOptions {
        slot_capacity: args.parsed_opt("slots"),
        retry: explicit_policy.then(|| policy.clone()),
    };

    let mut diags = Vec::new();

    // Layer 2: plan the DAX for the target site and verify dataflow.
    if let Some(dax_path) = args.get("dax") {
        let wf = load_dax(dax_path);
        let registry = load_registry(args);
        let site = resolve_site(args, &registry, args.get("site").unwrap_or("sandhills"));
        let catalogs = load_catalogs(args, &registry);
        let exec = plan_or_exit(&wf, &catalogs, registry.catalog_name(site));
        let dopts = verify::DataflowOptions {
            storage_limit_bytes: args.parsed_opt("storage-limit"),
        };
        let quotas = EnsembleConfig {
            slot_budget: args.parsed_opt("slots"),
            tenant_slots: None,
        };
        let findings = plan_findings(&wf, &exec, &catalogs.2, dax_path, &dopts, &quotas);
        diags.extend(or_exit("", findings));
        if !args.flag("quiet") {
            outln!(
                "verified plan {dax_path}: {} jobs on {}",
                exec.jobs.len(),
                exec.site
            );
        }
    }

    // Layer 1 stream sources.
    let streams = event_sources(args, |args| {
        // `--dax` alone is a pure layer-2 invocation.
        if args.get("dax").is_some() {
            return Vec::new();
        }
        // A live run always knows its policy: arm the envelope.
        opts.retry = Some(policy);
        adhoc_log(args)
    });

    // A log that does not parse is its `E0708` alone, as under lint.
    let mut total_events = 0usize;
    for (label, live, expected) in &streams {
        let mut walker = StreamWalker::new(label, opts.clone());
        match read_log(label, live.as_deref(), |line, ev| walker.event(line, &ev)) {
            Ok(trace) => {
                total_events += walker.seen();
                diags.extend(walker.finish());
                let matched = expected.map(|exp| verify::check_trace_match(trace, exp, label));
                diags.extend(matched.flatten());
            }
            Err(e) => diags.push(Diagnostic::from_error(&e, label)),
        }
    }

    let diags = lint::resolve(diags, &config);
    let format = args.get("format").unwrap_or("text");
    match format {
        "text" => out!("{}", lint::render_text_as(&diags, "verify")),
        "json" => out!("{}", lint::render_json(&diags)),
        other => args.bail(&format!("unknown --format {other:?} (use text or json)")),
    }
    // The JSON report is the whole of stdout, so that it parses.
    if format == "text" && !args.flag("quiet") {
        outln!(
            "verify: {} stream(s), {} event(s), {} finding(s)",
            streams.len(),
            total_events,
            diags.len()
        );
    }
    success_if(!lint::has_errors(&diags))
}
