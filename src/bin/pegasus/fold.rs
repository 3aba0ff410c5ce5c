//! `statistics`, `analyze`, `breakdown`, `metrics` and `trace`: the
//! verbs that fold event logs, as pegasus-statistics and
//! pegasus-analyzer read what a run recorded. Each folds its
//! `EventSource`s one by one as the reader hands their events on: the
//! logs the invocation names, or — when it names none — the logs a live
//! producer simulates and writes, read like a recorded one.

use crate::run::prepare;
use crate::{
    comma_list, common, load_dax, load_registry, or_exit, resolve_site, simulation, sizes_from,
    success_if, write_or_exit, write_or_print, write_or_print_with, write_to, Unwritten,
};
use blast2cap3_pegasus::cli::{opt, switch, Args, Verb};
use blast2cap3_pegasus::experiment::plan_blast2cap3_at;
use blast2cap3_pegasus::{out, outln, serve};
use pegasus_wms::analyzer::analyze;
use pegasus_wms::breakdown;
use pegasus_wms::engine::{Engine, NoopMonitor, WorkflowRun};
use pegasus_wms::error::WmsError;
use pegasus_wms::events::log::LogWriter;
use pegasus_wms::events::{self, EventSink, RunFold, WorkflowEvent};
use pegasus_wms::metrics::{MetricsMonitor, MetricsRegistry};
use pegasus_wms::serve::DECOMPOSITION;
use pegasus_wms::statistics::{compute, render_csv};
use pegasus_wms::trace::{self, TraceId, WorkflowTrace};
use std::fs::File;
use std::path::Path;
use std::process::ExitCode;

/// `--n` of the verbs whose live source is [`adhoc_log`].
pub(crate) const LIVE_N: blast2cap3_pegasus::cli::Flag = opt(
    "n",
    "clusters",
    "decomposition size for a live run (default 100)",
)
.range(DECOMPOSITION);
/// `--events` of the verbs whose live source is [`adhoc_log`].
pub(crate) const LIVE_EVENTS: blast2cap3_pegasus::cli::Flag =
    opt("events", "file", "also write the live run's event log");

pub(crate) const STATISTICS: Verb = Verb {
    name: "statistics",
    summary: "statistics of a run in CSV, live or --from-events",
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
        common::FROM_EVENTS,
        common::CATALOG,
    ],
    run: cmd_statistics,
};

pub(crate) const ANALYZE: Verb = Verb {
    name: "analyze",
    summary: "pegasus-analyzer report offline from an event log",
    positional: None,
    flags: &[common::FROM_EVENTS],
    run: cmd_analyze,
};

pub(crate) const BREAKDOWN: Verb = Verb {
    name: "breakdown",
    summary: "Fig. 7-8 per-task phase decomposition, live or --from-events",
    positional: None,
    flags: &[
        common::SITE,
        common::SITES,
        common::SIZES,
        common::SEED,
        common::RETRIES,
        common::BACKOFF,
        common::TIMEOUT,
        common::OUT,
        opt("events-dir", "dir", "also write one event log per member"),
        common::FROM_EVENTS,
        switch("json", "emit the breakdown as JSON instead of CSV"),
        common::QUIET,
    ],
    run: cmd_breakdown,
};

pub(crate) const TRACE: Verb = Verb {
    name: "trace",
    summary: "span tree / Chrome trace of a run, live or from event logs",
    positional: None,
    flags: &[
        common::SITE,
        common::SITES,
        LIVE_N,
        common::SEED,
        common::RETRIES,
        common::BACKOFF,
        common::TIMEOUT,
        common::FAULT_PLAN,
        common::FROM_EVENTS,
        opt(
            "events-dir",
            "dir",
            "fold every member event log of a serve state directory",
        ),
        LIVE_EVENTS,
        opt("format", "text|chrome", "output format (default text)"),
        common::OUT,
        common::QUIET,
    ],
    run: cmd_trace,
};

pub(crate) const METRICS: Verb = Verb {
    name: "metrics",
    summary: "Prometheus exposition: live sweep, --from-events, or --scrape",
    positional: None,
    flags: &[
        common::SITE,
        common::SITES,
        common::SIZES,
        common::SEED,
        common::RETRIES,
        common::BACKOFF,
        common::TIMEOUT,
        common::OUT,
        common::FROM_EVENTS,
        opt(
            "scrape",
            "host:port",
            "HTTP GET /metrics from a running daemon",
        ),
    ],
    run: cmd_metrics,
};

/// One event log: its label (the path it is read from, or the name of
/// the live run that wrote it), the live run's bytes, and the trace id
/// journaled for it, when one was.
pub(crate) type EventSource = (String, Option<Vec<u8>>, Option<TraceId>);

/// The logs an invocation folds, in the order it names them:
/// `--from-events a,b`, else `--events-dir <dir>`, else one positional
/// file or directory. A directory stands for every member log of a
/// serve state directory (or any directory of `.events` logs), each
/// beside its journaled trace id. An invocation that names no source
/// folds what `live` simulates. An unopenable file exits 1 here.
pub(crate) fn event_sources(
    args: &Args,
    live: impl FnOnce(&Args) -> Vec<EventSource>,
) -> Vec<EventSource> {
    let file = |path: &str, id| {
        or_exit(&format!("cannot read event log {path}"), File::open(path));
        (path.to_string(), None, id)
    };
    let members = |dir: &str| -> Vec<EventSource> {
        let logs = or_exit("", serve::member_logs(Path::new(dir)));
        let entry = |(path, id): (std::path::PathBuf, _)| file(&path.to_string_lossy(), id);
        logs.into_iter().map(entry).collect()
    };
    if let Some(list) = args.get("from-events") {
        return comma_list(list).map(|path| file(path, None)).collect();
    }
    if let Some(dir) = args.get("events-dir") {
        return members(dir);
    }
    match args.positionals() {
        [] => live(args),
        [p] if Path::new(p).is_dir() => members(p),
        [p] => vec![file(p, None)],
        _ => args.bail("verify takes at most one <events-or-dir>"),
    }
}

/// Reads one log through the event-log reader, handing `sink` each
/// event with its line: a log that cannot be read exits 1, and the
/// parse's verdict comes back, with the log's trace comment.
pub(crate) fn read_log(
    label: &str,
    live: Option<&[u8]>,
    sink: impl FnMut(usize, WorkflowEvent),
) -> Result<Option<TraceId>, WmsError> {
    or_exit("", try_read_log(label, live, sink))
}

/// [`read_log`], a log that cannot be read refused with the sentence
/// it exits with.
fn try_read_log(
    label: &str,
    live: Option<&[u8]>,
    sink: impl FnMut(usize, WorkflowEvent),
) -> Result<Result<Option<TraceId>, WmsError>, String> {
    let read = match live {
        Some(bytes) => events::log::read(bytes, sink),
        None => File::open(label).and_then(|file| events::log::read(file, sink)),
    };
    read.map_err(|e| format!("cannot read event log {label}: {e}"))
}

/// Folds one log into its run, as the verbs that make numbers of it
/// read it: a log that does not parse exits 1. `tap` sees every event.
fn fold_log(source: EventSource, tap: impl FnMut(&WorkflowEvent)) -> Folded {
    or_exit("", try_fold_log(source, tap))
}

/// A log's label, its lifecycle fold and its trace comment.
type Folded = (String, RunFold, Option<TraceId>);

/// [`fold_log`], a log that cannot be read or parsed refused with the
/// sentence it exits with.
fn try_fold_log(
    (label, live, _): EventSource,
    mut tap: impl FnMut(&WorkflowEvent),
) -> Result<Folded, String> {
    let mut fold = RunFold::default();
    let read = try_read_log(&label, live.as_deref(), |_, ev| {
        fold.event(&ev);
        tap(&ev);
    })?;
    let trace = read.map_err(|e| format!("bad event log {label}: {e}"))?;
    Ok((label, fold, trace))
}

/// The live source of `statistics`: `--dax` simulated as `run`
/// simulates it, but bare — no monitor, no rescue file, no report. Its
/// log is all it leaves.
fn dax_run_log(args: &Args) -> Vec<EventSource> {
    let wf = load_dax(args.require("dax"));
    let (exec, cfg, mut backend, _) = prepare(args, &wf);
    let run = Engine::run(&mut backend, &exec, &cfg, &mut NoopMonitor);
    let label = format!("<run {}>", run.name);
    vec![(
        label,
        Some(events::log::write(&run.events).into_bytes()),
        None,
    )]
}

/// The live source of `breakdown` and `metrics`: the blast2cap3 sweep
/// over `--site` (every registered non-variant site for `both`, the
/// default) × `--sizes`, one log per point, each also written to
/// `--events-dir` when given.
fn sweep_logs(args: &Args) -> Vec<EventSource> {
    let registry = load_registry(args);
    let sites = match args.get("site").unwrap_or("both") {
        "both" => registry.sweep(),
        site => vec![resolve_site(args, &registry, site)],
    };
    let mut logs = Vec::new();
    for site in sites {
        for n in sizes_from(args) {
            // OSG's preemption hazard needs a deep retry budget at small
            // n (few jobs, so one unlucky task sinks the run); the
            // paper's OSG profile likewise leans on workflow-level
            // retries.
            let (cfg, mut backend) = simulation(args, &registry, site, 20);
            let exec = plan_blast2cap3_at(&registry, site, n, cfg.seed);
            let run = Engine::run(&mut backend, &exec, &cfg, &mut NoopMonitor);
            let name = format!("{}_n{n}.events", registry.name(site));
            let text = events::log::write(&run.events);
            if let Some(dir) = args.get("events-dir") {
                let doing = format!("cannot create events dir {dir}");
                or_exit(&doing, std::fs::create_dir_all(dir));
                write_or_exit("event log", Path::new(dir).join(&name), &text);
            }
            logs.push((name, Some(text.into_bytes()), None));
        }
    }
    logs
}

/// The live source of `trace` and `verify`: one ad-hoc blast2cap3 run,
/// its log under the header of its trace id (submission 0 under its
/// seed, the derivation the daemon applies at admission) — also written
/// to `--events`, for the offline round trip.
pub(crate) fn adhoc_log(args: &Args) -> Vec<EventSource> {
    let registry = load_registry(args);
    let site = resolve_site(args, &registry, args.get("site").unwrap_or("sandhills"));
    let n = args.parsed("n", 100);
    let (cfg, mut backend) = simulation(args, &registry, site, 20);
    let exec = plan_blast2cap3_at(&registry, site, n, cfg.seed);
    let run = Engine::run(&mut backend, &exec, &cfg, &mut NoopMonitor);
    let id = TraceId::derive(cfg.seed, 0);
    let mut bytes = Vec::new();
    let written = LogWriter::new(&mut bytes, Some(id)).map(|mut log| log.events(&run.events));
    or_exit("cannot render event log", written);
    let label = match args.get("events") {
        Some(path) => {
            let fill = |w: &mut dyn std::io::Write| Ok(w.write_all(&bytes)?);
            if write_to(Some(path), "event log", fill) && !args.flag("quiet") {
                eprintln!("event log written to {path}");
            }
            path.to_string()
        }
        None => format!("<live n={n} seed={}>", cfg.seed),
    };
    vec![(label, Some(bytes), Some(id))]
}

/// Prints what `render` makes of each log folded back into its
/// [`WorkflowRun`]; exit 1 unless every run succeeded.
fn print_runs(sources: Vec<EventSource>, render: fn(&WorkflowRun) -> String) -> ExitCode {
    let mut all_ok = true;
    for source in sources {
        let (label, fold, _) = fold_log(source, |_| {});
        let run = or_exit(&format!("cannot replay event log {label}"), fold.finish());
        out!("{}", render(&run));
        all_ok &= run.succeeded();
    }
    success_if(all_ok)
}

fn cmd_statistics(args: &Args) -> ExitCode {
    let sources = event_sources(args, dax_run_log);
    print_runs(sources, |run| render_csv(&compute(run)))
}

fn cmd_analyze(args: &Args) -> ExitCode {
    args.require("from-events");
    let sources = event_sources(args, |_| Vec::new());
    print_runs(sources, |run| analyze(run).render_text())
}

/// `pegasus breakdown` — the paper's Fig. 7–8 per-task phase
/// decomposition (queue-wait / install / kickstart / post-overhead /
/// retry-badput) per site and per n, folded from the provenance event
/// stream alone.
fn cmd_breakdown(args: &Args) -> ExitCode {
    // Here `--events-dir` names where the live sweep writes its logs,
    // not a source.
    let sources = match args.get("from-events") {
        Some(_) => event_sources(args, sweep_logs),
        None => sweep_logs(args),
    };
    let mut rows = Vec::new();
    let mut all_ok = true;
    for source in sources {
        let (_, fold, _) = fold_log(source, |_| {});
        let run = or_exit("cannot compute breakdown", fold.finish());
        rows.push(breakdown::of_run(&run));
        all_ok &= run.succeeded();
    }

    if !args.flag("quiet") {
        outln!("{}", breakdown::render_table(&rows));
    }
    let (rendered, what) = if args.flag("json") {
        (breakdown::render_json(&rows), "JSON")
    } else {
        (breakdown::render_csv(&rows), "CSV")
    };
    write_or_print(args, &rendered, &format!("breakdown {what} written to"));
    if !all_ok {
        eprintln!("some workflows did not complete; breakdown covers what ran");
    }
    success_if(all_ok)
}

/// `pegasus metrics` — the metrics registry in the Prometheus text
/// exposition format, folded from the sweep's logs or `--from-events`,
/// or scraped over HTTP from a running `pegasus serve` daemon with
/// `--scrape`.
fn cmd_metrics(args: &Args) -> ExitCode {
    if let Some(addr) = args.get("scrape") {
        out!("{}", or_exit("metrics", serve::client::scrape(addr)));
        return ExitCode::SUCCESS;
    }
    let mut registry = MetricsRegistry::new();
    for source in event_sources(args, sweep_logs) {
        let mut monitor = MetricsMonitor::labelled_by_header(&mut registry);
        let (_, fold, _) = fold_log(source, |ev| monitor.event(ev));
        or_exit("cannot record metrics", fold.finish());
    }
    write_or_print(args, &registry.render(), "metrics exposition written to");
    ExitCode::SUCCESS
}

/// `pegasus trace` — the end-to-end span layer: fold provenance
/// streams into workflow → job → attempt → phase span trees keyed by
/// the [`TraceId`] each log's header carries, rendered as a plain-text
/// tree (default) or Chrome Trace Event JSON (`--format chrome`,
/// Perfetto-loadable). `--events-dir dir` folds every member log of a
/// serve state directory (or its `members/` subdirectory), smallest
/// member id first.
fn cmd_trace(args: &Args) -> ExitCode {
    let chrome = match args.get("format").unwrap_or("text") {
        "text" => false,
        "chrome" => true,
        other => args.bail(&format!("unknown --format {other:?} (use text or chrome)")),
    };
    let tree = |source| -> Result<WorkflowTrace, String> {
        let (label, fold, id) = try_fold_log(source, |_| {})?;
        let run = fold.finish();
        let run = run.map_err(|e| format!("cannot fold event log {label}: {e}"))?;
        Ok(trace::of_run(&run, id))
    };
    let sources = event_sources(args, adhoc_log);
    let mut all_ok = true;
    if chrome {
        // The export names every workflow's tracks before any span, so
        // it holds every tree, but none of the text.
        let traces: Vec<_> = (sources.into_iter())
            .map(|source| or_exit("", tree(source)))
            .collect();
        all_ok = traces.iter().all(|t| t.succeeded);
        write_or_print_with(args, "trace written to", |w| {
            Ok(trace::write_chrome(w, &traces)?)
        });
    } else {
        // Each tree is written, and dropped, as soon as its log is
        // folded.
        write_or_print_with(args, "trace written to", |w| {
            for source in sources {
                let tree = tree(source).map_err(Unwritten::Refused)?;
                all_ok &= tree.succeeded;
                trace::write_text(w, std::slice::from_ref(&tree))?;
            }
            Ok(())
        });
    }
    if !all_ok {
        eprintln!("some workflows did not complete; the trace covers what ran");
    }
    success_if(all_ok)
}
