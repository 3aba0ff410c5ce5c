//! `run` and `ensemble`: the verbs that simulate under their own
//! monitors — live status, the timeline, metrics, a shadow verifier —
//! and report what they watched.

use crate::check::collect_lint;
use crate::{
    admitted_or_exit, arm_profiler, common, load_catalogs, load_dax, load_registry, or_exit,
    plan_or_exit, profile_summary, read_or_exit, resolve_site, simulation, sizes_from,
    width_findings, write_flagged, write_or_print, write_to,
};
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::cli::{opt, switch, Args, Verb};
use blast2cap3_pegasus::experiment::{plan_blast2cap3_at, registry_catalogs};
use blast2cap3_pegasus::outln;
use gridsim::sites::SLOTS;
use gridsim::SimBackend;
use pegasus_wms::analyzer::analyze;
use pegasus_wms::engine::{Engine, EngineConfig};
use pegasus_wms::ensemble::{Ensemble, EnsembleConfig, Submission};
use pegasus_wms::lint::{self, Diagnostic};
use pegasus_wms::metrics::{self, MetricsMonitor, MetricsRegistry};
use pegasus_wms::monitor::{MultiMonitor, StatusMonitor, TimelineMonitor};
use pegasus_wms::planner::ExecutableWorkflow;
use pegasus_wms::rescue::RescueDag;
use pegasus_wms::statistics::{
    compute, compute_ensemble, render_ensemble_csv, render_ensemble_text, render_text,
};
use pegasus_wms::workflow::AbstractWorkflow;
use pegasus_wms::{events, prof, verify};
use std::process::ExitCode;

pub(crate) const RUN: Verb = Verb {
    name: "run",
    summary: "execute a planned workflow on a simulated platform (pegasus-run)",
    positional: None,
    flags: &[
        opt("dax", "file", "abstract workflow to run"),
        common::SITE,
        common::SITES,
        common::SEED,
        common::RETRIES,
        common::BACKOFF,
        common::TIMEOUT,
        common::FAULT_PLAN,
        opt("resume", "rescue", "resume from a rescue DAG"),
        opt("rescue-out", "file", "rescue DAG path on failure"),
        opt("timeline", "csv", "write the concurrency timeline"),
        opt("events", "file", "write the provenance event log"),
        opt("metrics", "prom", "write the Prometheus exposition"),
        switch(
            "verify",
            "shadow-verify the live event stream against the temporal invariant catalog",
        ),
        common::QUIET,
        common::CATALOG,
        common::PROFILE,
    ],
    run: cmd_run,
};

pub(crate) const ENSEMBLE: Verb = Verb {
    name: "ensemble",
    summary: "run the decomposition sweep as one ensemble",
    positional: None,
    flags: &[
        common::SITE,
        common::SITES,
        common::SIZES,
        common::SEED,
        common::RETRIES,
        common::BACKOFF,
        common::TIMEOUT,
        opt("slots", "n", "global slot budget across members").range(SLOTS),
        common::OUT,
        opt("metrics", "prom", "write the Prometheus exposition"),
        common::QUIET,
        common::PROFILE,
    ],
    run: cmd_ensemble,
};

/// A DAX planned for `--site`, ready to simulate — what `run` executes
/// under its monitors and live `statistics` executes bare: the plan, the
/// engine configuration, the backend, and the site's registry name.
pub(crate) type Prepared = (ExecutableWorkflow, EngineConfig, SimBackend, String);

/// Plans `wf` for `--site` against the catalogs, then sets up its
/// [`simulation`] under `--retries` 3 by default.
pub(crate) fn prepare(args: &Args, wf: &AbstractWorkflow) -> Prepared {
    let registry = load_registry(args);
    let site = resolve_site(args, &registry, args.require("site"));
    let catalogs = load_catalogs(args, &registry);
    let exec = plan_or_exit(wf, &catalogs, registry.catalog_name(site));
    let (cfg, backend) = simulation(args, &registry, site, 3);
    (exec, cfg, backend, registry.name(site).to_string())
}

/// The warn-only report `run` and `ensemble` open with: findings go to
/// stderr at their default levels, never change the exit code, and
/// stdout stays byte-identical.
fn warn_on_stderr(diags: Vec<Diagnostic>) {
    let diags = lint::resolve(diags, &lint::LintConfig::default());
    if !diags.is_empty() {
        eprint!("{}", lint::render_text(&diags));
    }
}

/// `kickstart p50 <x>s p95 <y>s` of one run's kickstart phase, once
/// the registry holds it — the tail of the run/ensemble one-liners.
fn kickstart_quantiles(registry: &MetricsRegistry, site: &str, n: &str) -> Option<String> {
    let labels = [("site", site), ("n", n), ("phase", "kickstart")];
    let q = |q| registry.quantile(metrics::names::PHASE_SECONDS, &labels, q);
    Some(format!(
        "kickstart p50 {:.0}s p95 {:.0}s",
        q(0.5)?,
        q(0.95)?
    ))
}

fn cmd_run(args: &Args) -> ExitCode {
    let profiling = arm_profiler(args);
    let dax_path = args.require("dax");
    // One parse of the DAX text: linted as parsed, then validated.
    let wf = if args.flag("quiet") {
        load_dax(dax_path)
    } else {
        let (diags, parsed) = collect_lint(args, dax_path, false);
        warn_on_stderr(diags);
        admitted_or_exit(dax_path, parsed.and_then(|wf| wf.validate().map(|()| wf)))
    };
    let (exec, mut cfg, mut backend, site) = prepare(args, &wf);
    if let Some(rescue_path) = args.get("resume") {
        let text = read_or_exit("rescue file", rescue_path);
        let rescue = or_exit("bad rescue file", RescueDag::from_text(&text));
        if rescue.workflow_name != exec.name {
            let (theirs, ours) = (&rescue.workflow_name, &exec.name);
            eprintln!("{rescue_path} rescues workflow {theirs:?}, not this DAX's {ours:?}");
            return ExitCode::FAILURE;
        }
        cfg.skip_done = rescue.done.iter().cloned().collect();
        outln!(
            "resuming: {} jobs marked DONE in {rescue_path}",
            rescue.done.len()
        );
    }

    let mut status = StatusMonitor::new(exec.jobs.len());
    let mut timeline = TimelineMonitor::new();
    let mut metrics_registry = MetricsRegistry::new();
    let n = metrics::n_label(&exec.name, exec.jobs.len());
    // Under --verify a shadow verifier joins the fan-out like every
    // other listener and asserts the temporal invariant catalog once
    // the stream completes; findings render to stderr and fail the
    // exit code.
    let mut shadow = args.flag("verify").then(|| {
        verify::StreamWalker::new(
            format!("<run {}>", exec.name),
            verify::VerifyOptions {
                slot_capacity: None,
                retry: Some(cfg.retry.clone()),
            },
        )
    });
    let run = {
        let mut metrics_monitor = MetricsMonitor::new(&mut metrics_registry, &site, &n);
        let mut multi = MultiMonitor::new();
        multi.push(&mut status);
        multi.push(&mut timeline);
        multi.push(&mut metrics_monitor);
        if let Some(shadow) = shadow.as_mut() {
            multi.push(shadow);
        }
        Engine::run(&mut backend, &exec, &cfg, &mut multi)
    };

    // Under --profile the engine's own wall-clock phases and the
    // simulator's queue gauges join the run's metric surface; both
    // are gated so default expositions stay byte-identical.
    let prof_samples = profile_summary(profiling);
    if profiling {
        backend.export_queue_metrics(&mut metrics_registry);
        prof::export(&mut metrics_registry, &prof_samples);
    }

    if !args.flag("quiet") {
        // pegasus-status style tail: print every 10th line.
        let history = status.history();
        let step = history.len() / 10 + 1;
        for line in history.step_by(step) {
            outln!("status: {line}");
        }
        // The final one-liner carries the kickstart quantiles from the
        // live metrics registry.
        match kickstart_quantiles(&metrics_registry, &site, &n) {
            Some(ks) => outln!("status: {} | {ks}", status.status_line()),
            None => outln!("status: {}", status.status_line()),
        }
    }

    outln!("\n{}", render_text(&compute(&run)));
    outln!(
        "realised peak concurrency: {} slots",
        timeline.peak_concurrency()
    );
    write_flagged(args, "timeline", "timeline", || timeline.to_csv());
    write_flagged(args, "events", "event log", || {
        events::log::write(&run.events)
    });
    write_flagged(args, "metrics", "metrics exposition", || {
        metrics_registry.render()
    });

    // The shadow verdict: clean streams say so once; violations turn
    // an otherwise successful run into a failure.
    let mut verify_failed = false;
    if let Some(shadow) = shadow {
        let diags = lint::resolve(shadow.finish(), &lint::LintConfig::default());
        if diags.is_empty() {
            if !args.flag("quiet") {
                outln!(
                    "verify: {} events, invariant catalog clean",
                    run.events.len()
                );
            }
        } else {
            eprint!("{}", lint::render_text_as(&diags, "verify"));
            verify_failed = lint::has_errors(&diags);
        }
    }

    match run.succeeded() {
        true if verify_failed => ExitCode::FAILURE,
        true => ExitCode::SUCCESS,
        false => {
            let path = args
                .get("rescue-out")
                .map(String::from)
                .unwrap_or_else(|| format!("{}.rescue", run.name));
            let text = RescueDag::of(&run).to_text();
            write_to(Some(&path), "rescue DAG", |w| {
                Ok(w.write_all(text.as_bytes())?)
            });
            eprintln!("\n{}", analyze(&run).render_text());
            eprintln!("rescue DAG written to {path}; resubmit with --resume {path}");
            ExitCode::FAILURE
        }
    }
}

/// `pegasus ensemble` — the paper's decomposition sweep as one
/// ensemble: every `--sizes` entry becomes its own blast2cap3 workflow
/// and all of them run concurrently over the shared simulated
/// platform, under one seed and one slot budget.
fn cmd_ensemble(args: &Args) -> ExitCode {
    let profiling = arm_profiler(args);
    let registry = load_registry(args);
    let site = resolve_site(args, &registry, args.get("site").unwrap_or("sandhills"));
    let (cfg, mut backend) = simulation(args, &registry, site, 3);
    let sizes = sizes_from(args);
    let quotas = EnsembleConfig {
        slot_budget: args.parsed_opt("slots"),
        ..EnsembleConfig::default()
    };

    // Warn-only feasibility lint on the widest member before any
    // simulation runs: missing software on the target site, retries
    // disabled under preemption — judged against the catalogs the
    // members are planned with — and a slot budget below its width.
    if !args.flag("quiet") {
        let widest = *sizes.iter().max().expect("sizes is non-empty");
        let wf = build_workflow(&WorkflowParams::with_n(widest));
        let (sites_cat, tc, _rc) = registry_catalogs(&registry);
        let ctx = lint::RunContext {
            site: sites_cat.get(registry.catalog_name(site)),
            transformations: Some(&tc),
            retry: Some(&cfg.retry),
            faults_active: registry.faults_active(site),
        };
        let label = format!("<blast2cap3 n={widest}>");
        let mut diags = lint::check_config(&wf, &label, &ctx);
        diags.extend(width_findings(&wf, &quotas, &label));
        warn_on_stderr(diags);
    }

    let member = |&n: &usize| {
        let exec = plan_blast2cap3_at(&registry, site, n, cfg.seed);
        Submission::new(exec, cfg.clone())
    };
    let members = sizes.iter().map(member).collect();
    let ensemble = Ensemble::run_to_completion(&mut backend, members, &quotas)
        .expect("planner output always has dense job ids");
    let stats = compute_ensemble(&ensemble.runs);
    let prof_samples = profile_summary(profiling);

    // Every member's provenance stream lands in one shared registry,
    // so the ensemble exposes the same metric surface as single runs.
    let mut registry = MetricsRegistry::new();
    for run in &ensemble.runs {
        metrics::record_events(&mut registry, &run.events).expect("engine streams replay");
    }
    if profiling {
        prof::export(&mut registry, &prof_samples);
    }

    if !args.flag("quiet") {
        outln!("{}", render_ensemble_text(&stats));
        for run in &ensemble.runs {
            let n = metrics::n_label(&run.name, run.records.len());
            if let Some(ks) = kickstart_quantiles(&registry, &run.site, &n) {
                outln!("{}: {ks}", run.name);
            }
        }
    }
    write_flagged(args, "metrics", "metrics exposition", || registry.render());
    let csv = render_ensemble_csv(&stats);
    write_or_print(args, &csv, "ensemble rollup CSV written to");

    if ensemble.succeeded() {
        ExitCode::SUCCESS
    } else {
        let failed: Vec<&str> = ensemble
            .runs
            .iter()
            .filter(|r| !r.succeeded())
            .map(|r| r.name.as_str())
            .collect();
        eprintln!("ensemble members failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
