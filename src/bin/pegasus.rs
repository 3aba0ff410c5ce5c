#![forbid(unsafe_code)]

//! `pegasus` — a command-line front end mirroring the Pegasus tools
//! the paper drives its experiments with:
//!
//! * `pegasus generate-dax` — emit the blast2cap3 Fig. 2 workflow as a
//!   DAX file (the role of the paper's Python DAX generator);
//! * `pegasus plan` — map a DAX onto a site (pegasus-plan): install
//!   phases, staging, optional clustering/data-reuse/cleanup;
//! * `pegasus run` — execute the planned workflow on a simulated
//!   platform (pegasus-run), with live status (pegasus-status),
//!   statistics on success (pegasus-statistics), an analyzer report on
//!   failure (pegasus-analyzer), and a rescue file for resubmission;
//! * `pegasus statistics` — statistics of a run in CSV, either by
//!   re-running the simulation or offline from a provenance event log
//!   (`--from-events`);
//! * `pegasus analyze` — pegasus-analyzer report recomputed offline
//!   from an event log;
//! * `pegasus breakdown` — the paper's Fig. 7–8 per-task phase
//!   decomposition per site/per n, live or `--from-events`;
//! * `pegasus metrics` — the metrics registry in Prometheus text
//!   exposition format: live sweep, `--from-events`, or `--scrape`
//!   against a running daemon;
//! * `pegasus lint` — compiler-style static analysis of a DAX (plus
//!   optional fault plans, run configuration, and event logs) with
//!   rustc-style diagnostics, `--deny`/`--allow` level control, and a
//!   JSON output mode for CI. A warn-only pass of the same rules runs
//!   automatically at the top of `run` and `ensemble`;
//! * `pegasus verify` — semantic verification: the temporal invariant
//!   catalog (`E08xx`) over provenance event streams (recorded, serve
//!   state directories, or a live run) and whole-plan dataflow /
//!   feasibility checks (`E06xx`) over planned DAXes. `run --verify`
//!   shadows a live run with the same catalog;
//! * `pegasus serve` — the multi-tenant ensemble daemon (pegasus-em
//!   server): submissions over a socket, journaled rounds, crash
//!   recovery, and an HTTP `/metrics` scrape endpoint;
//! * `pegasus submit` / `pegasus status` — the daemon's client side.
//!
//! Every verb is declared in `blast2cap3_pegasus::cli::args::VERBS`;
//! parsing, `--help`, and the usage screen all derive from that table.
//!
//! Example session (mirrors §V of the paper):
//!
//! ```sh
//! pegasus generate-dax --n 300 --out b2c3.dax
//! pegasus plan --dax b2c3.dax --site osg --dot osg.dot
//! pegasus run  --dax b2c3.dax --site osg --retries 10
//! ```

use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::cli::args as cli_args;
use blast2cap3_pegasus::cli::args::{Parsed, Verb};
use blast2cap3_pegasus::experiment::{
    self, builtin_registry, calibrated_workflow, catalogs_with, dax_findings, plan_findings,
    registry_catalogs, simulate_blast2cap3_at, Catalogs, ExperimentOutcome,
};
use blast2cap3_pegasus::serve;
use gridsim::sites::SiteRegistry;
use gridsim::{FaultPlan, FaultScript};
use pegasus_wms::analyzer::analyze;
use pegasus_wms::breakdown;
use pegasus_wms::engine::{Engine, EngineConfig, RetryPolicy, WorkflowOutcome};
use pegasus_wms::error::WmsError;
use pegasus_wms::events;
use pegasus_wms::lint::Diagnostic;
use pegasus_wms::metrics::{self, MetricsMonitor, MetricsRegistry};
use pegasus_wms::monitor::{MultiMonitor, StatusMonitor, TimelineMonitor};
use pegasus_wms::planner::{plan, PlannerConfig};
use pegasus_wms::prof;
use pegasus_wms::rescue::RescueDag;
use pegasus_wms::statistics::{
    compute, render_csv, render_ensemble_csv, render_ensemble_text, render_text,
};
use pegasus_wms::symbols::SiteId;
use pegasus_wms::trace::{self, TraceId};
use pegasus_wms::workflow::AbstractWorkflow;
use pegasus_wms::{catalog_io, dax};
use std::process::ExitCode;

/// A verb's parsed arguments plus exit-on-error getters: the library
/// parser returns `Result`s, the binary turns them into exit code 2
/// with a pointer at the verb's `--help`.
struct Args {
    verb: &'static Verb,
    p: Parsed,
}

impl Args {
    fn bail(&self, msg: &str) -> ! {
        eprintln!("pegasus {}: {msg}", self.verb.name);
        eprintln!("(see `pegasus {} --help`)", self.verb.name);
        std::process::exit(2);
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.p.get(key)
    }

    fn require(&self, key: &str) -> &str {
        self.p.require(key).unwrap_or_else(|e| self.bail(&e))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.p
            .parsed(key, default)
            .unwrap_or_else(|e| self.bail(&e))
    }

    /// `--n`, a decomposition size: the library builds 0 as 1, so a
    /// 0 from the command line is refused here, in the words the
    /// daemon refuses `submit n=0` with.
    fn n(&self, default: usize) -> usize {
        match self.parsed("n", default) {
            0 => self.bail("n must be at least 1"),
            n => n,
        }
    }

    fn parsed_opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.p.parsed_opt(key).unwrap_or_else(|e| self.bail(&e))
    }

    fn flag(&self, key: &str) -> bool {
        self.p.flag(key)
    }
}

/// The value of `result`, or `<doing>: <error>` on stderr (the error
/// alone when it says what was being done itself) and exit 1: what
/// the run was given cannot be used, which is neither a usage error
/// nor a panic.
fn or_exit<T, E: std::fmt::Display>(doing: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        let sep = if doing.is_empty() { "" } else { ": " };
        eprintln!("{doing}{sep}{e}");
        std::process::exit(1);
    })
}

/// Writes to stdout, the one way this binary does. A reader that has
/// gone away (`pegasus trace | head -1`) ends the process quietly with
/// exit 0, as `yes | head` leaves `yes`; any other failure exits 1
/// through [`or_exit`].
fn emit(text: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    match std::io::stdout().write_fmt(text) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        written => or_exit("cannot write to stdout", written),
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => { emit(format_args!("\n")) };
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Reads `path` to a string, or reports `cannot read <what> <path>`
/// and exits 1.
fn read_or_exit(what: &str, path: &str) -> String {
    let sep = if what.is_empty() { "" } else { " " };
    let doing = format!("cannot read {what}{sep}{path}");
    or_exit(&doing, std::fs::read_to_string(path))
}

/// Writes `bytes` to `path`, or reports `cannot write <what> <path>`
/// and exits 1.
fn write_or_exit(what: &str, path: impl AsRef<std::path::Path>, bytes: impl AsRef<[u8]>) {
    let path = path.as_ref();
    let doing = format!("cannot write {what} {}", path.display());
    or_exit(&doing, std::fs::write(path, bytes))
}

/// Writes what `render` gives to the file the flag `key` names, when
/// given, confirming with `<what> written to <file>` if `note`.
fn write_flagged(args: &Args, key: &str, what: &str, note: bool, render: impl FnOnce() -> String) {
    if let Some(path) = args.get(key) {
        write_or_exit(what, path, render());
        if note {
            outln!("{what} written to {path}");
        }
    }
}

/// Exit code 0 when `ok`, 1 otherwise.
fn success_if(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The non-empty, trimmed entries of a comma-separated flag value
/// (`--from-events a,b`, `--events`, `--fault-plan`).
fn comma_list(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').map(str::trim).filter(|p| !p.is_empty())
}

/// Sends a verb's rendered output to `--out <file>` (confirming with
/// `<done> <file>` unless `--quiet`), or to stdout without one.
fn write_or_print(args: &Args, text: &str, done: &str) {
    match args.get("out") {
        Some(path) => {
            write_or_exit("output", path, text);
            if !args.flag("quiet") {
                outln!("{done} {path}");
            }
        }
        None => out!("{text}"),
    }
}

/// The `--deny`/`--allow` level overrides `lint` and `verify` share;
/// `example` is the code the verb's own `--deny` hint suggests.
fn lint_config_from(args: &Args, example: &str) -> pegasus_wms::lint::LintConfig {
    let mut config = pegasus_wms::lint::LintConfig::default();
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

/// The seeded fault script behind `--fault-plan <file>`, when given.
fn fault_script_from(args: &Args, seed: u64) -> Option<FaultScript> {
    args.get("fault-plan").map(|path| {
        let text = read_or_exit("fault plan", path);
        let plan = or_exit(&format!("bad fault plan {path}"), FaultPlan::parse(&text));
        FaultScript::new(plan, seed)
    })
}

/// One recorded event log: its label (the path it was read from),
/// its text, and the trace id journaled for it, when one was.
type EventSource = (String, String, Option<TraceId>);

/// The recorded logs an invocation names, in the order it names them:
/// `--from-events a,b`, else `--events-dir <dir>`, else one positional
/// file or directory. A directory stands for every member log of a
/// serve state directory (or any directory of `.events` logs), each
/// beside its journaled trace id. `None` when the invocation names no
/// source — the verb then runs live. An unreadable source exits 1.
fn event_sources(args: &Args) -> Option<Vec<EventSource>> {
    let file = |path: &str| (path.to_string(), read_or_exit("event log", path), None);
    let members = |dir: &str| -> Vec<EventSource> {
        let logs = or_exit("", serve::member_logs(std::path::Path::new(dir)));
        let read = |(path, id): (std::path::PathBuf, _)| {
            let (path, text, _) = file(&path.to_string_lossy());
            (path, text, id)
        };
        logs.into_iter().map(read).collect()
    };
    if let Some(list) = args.get("from-events") {
        return Some(comma_list(list).map(file).collect());
    }
    if let Some(dir) = args.get("events-dir") {
        return Some(members(dir));
    }
    match args.p.positionals.as_slice() {
        [] => None,
        [p] if std::path::Path::new(p).is_dir() => Some(members(p)),
        [p] => Some(vec![file(p)]),
        _ => args.bail("verify takes at most one <events-or-dir>"),
    }
}

/// The strict reader, for the verbs that fold a log into numbers
/// (statistics, analyze, breakdown, metrics, trace): a log that does
/// not parse exits 1.
fn parse_or_exit(path: &str, text: &str) -> Vec<events::WorkflowEvent> {
    or_exit(&format!("bad event log {path}"), events::log::parse(text))
}

/// The lenient reader, for the stream checkers (verify, `lint
/// --events`): a log that does not parse becomes the finding its
/// refusal is coded as (`E0708`, at the offending line), so the report
/// still renders and the remaining logs are still checked.
fn parse_or_flag(
    text: &str,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<Vec<(usize, events::WorkflowEvent)>> {
    match events::log::parse_lines(text) {
        Ok(pairs) => Some(pairs),
        Err(e) => {
            diags.push(Diagnostic::from_error(&e, path));
            None
        }
    }
}

/// The site registry every verb resolves `--site` against: the
/// built-in paper sites, or the `--sites <file>` definitions replacing
/// them wholesale.
fn load_registry(args: &Args) -> SiteRegistry {
    let sites = args.get("sites").map(std::path::Path::new);
    or_exit("", experiment::load_registry(sites))
}

/// Resolves a site name or alias against the registry, exiting 2 with
/// the registered names on a miss.
fn resolve_site(args: &Args, registry: &SiteRegistry, name: &str) -> SiteId {
    registry
        .resolve(name)
        .unwrap_or_else(|e| args.bail(&e.to_string()))
}

/// What `plan`, `run`, `statistics`, `lint` and `verify` plan against:
/// the registry's sites always, and the transformations and replicas
/// of `--catalog <file>` when given, the paper's otherwise — with the
/// files the site definitions pre-stage added either way.
fn load_catalogs(args: &Args, registry: &SiteRegistry) -> Catalogs {
    let Some(path) = args.get("catalog") else {
        return registry_catalogs(registry);
    };
    let text = read_or_exit("catalog", path);
    let doing = format!("cannot parse catalog {path}");
    catalogs_with(registry, or_exit(&doing, catalog_io::parse(&text)))
}

fn cmd_catalogs(args: &Args) -> ExitCode {
    let (_, tc, rc) = registry_catalogs(builtin_registry());
    let text = catalog_io::to_text(&tc, &rc);
    write_or_print(args, &text, "built-in catalogs written to");
    ExitCode::SUCCESS
}

/// The workflow a DAX parse admits to planning, or exit 1.
fn admitted_or_exit(path: &str, parsed: Result<AbstractWorkflow, WmsError>) -> AbstractWorkflow {
    or_exit(&format!("cannot parse {path}"), parsed)
}

fn load_dax(path: &str) -> AbstractWorkflow {
    admitted_or_exit(path, dax::from_dax(&read_or_exit("", path)))
}

/// Plans `wf` for the catalog site `site` under the default planner
/// configuration, exiting 1 when planning fails.
fn plan_or_exit(
    wf: &AbstractWorkflow,
    (sites, tc, rc): &Catalogs,
    site: &str,
) -> pegasus_wms::planner::ExecutableWorkflow {
    let planned = plan(wf, sites, tc, rc, &PlannerConfig::for_site(site));
    or_exit("planning failed", planned)
}

fn cmd_generate_dax(args: &Args) -> ExitCode {
    let n = args.n(300);
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
    use pegasus_wms::synthetic;
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
    write_flagged(args, "dot", "dot graph", true, || exec.to_dot());
    if args.flag("ascii") {
        outln!("{}", ascii_dag(&exec));
    }
    profile_summary(profiling);
    ExitCode::SUCCESS
}

/// Renders the planned DAG as one line per level, install-carrying
/// jobs marked `*` (the Fig. 3 red rectangles), with large fan-outs
/// elided.
fn ascii_dag(exec: &pegasus_wms::planner::ExecutableWorkflow) -> String {
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

/// One recorded log, read strictly and folded back into its
/// [`pegasus_wms::engine::WorkflowRun`] — the offline half of the
/// `--events` / `--from-events` round trip.
fn replay_run((path, text, _): EventSource) -> pegasus_wms::engine::WorkflowRun {
    let replayed = events::replay(&parse_or_exit(&path, &text));
    or_exit(&format!("cannot replay event log {path}"), replayed)
}

fn cmd_statistics(args: &Args) -> ExitCode {
    let Some(sources) = event_sources(args) else {
        return cmd_run(args, true);
    };
    for run in sources.into_iter().map(replay_run) {
        out!("{}", render_csv(&compute(&run)));
    }
    ExitCode::SUCCESS
}

fn cmd_analyze(args: &Args) -> ExitCode {
    args.require("from-events");
    let mut all_ok = true;
    for run in event_sources(args).into_iter().flatten().map(replay_run) {
        out!("{}", analyze(&run).render_text());
        all_ok &= run.succeeded();
    }
    success_if(all_ok)
}

/// Arms the engine self-profiler when `--profile` was given; call
/// [`profile_summary`] with the returned flag once the instrumented
/// work is done.
fn arm_profiler(args: &Args) -> bool {
    let on = args.flag("profile");
    if on {
        prof::set_enabled(true);
    }
    on
}

/// Disarms the profiler, drains the collected samples, and prints the
/// one-line summary to *stderr* (stderr so stdout goldens stay
/// byte-identical). Returns the samples so callers can also export
/// them as `pegasus_engine_phase_seconds` histograms.
fn profile_summary(profiling: bool) -> Vec<(&'static str, f64)> {
    if !profiling {
        return Vec::new();
    }
    prof::set_enabled(false);
    let samples = prof::take_samples();
    eprintln!("{}", prof::summary(&samples));
    samples
}

/// Builds the retry policy `run`, `statistics`, and `ensemble` share:
/// flat retries by default, exponential backoff when `--backoff` is
/// given, plus an optional per-attempt `--timeout`.
fn retry_policy_from(args: &Args, retries: u32) -> RetryPolicy {
    let mut policy = match args.get("backoff") {
        Some(_) => RetryPolicy::exponential(retries, args.parsed("backoff", 30.0f64)),
        None => RetryPolicy::flat(retries),
    };
    if args.get("timeout").is_some() {
        policy = policy.with_timeout(args.parsed("timeout", 0.0f64));
    }
    policy
}

/// The engine configuration every simulating verb builds: the flags'
/// retry policy (see [`retry_policy_from`]) under `seed`.
fn engine_config_from(args: &Args, retries: u32, seed: u64) -> EngineConfig {
    EngineConfig::builder()
        .policy(retry_policy_from(args, retries))
        .seed(seed)
        .build()
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

/// Parses `--sizes 10,100,...` (default: the paper's Fig. 4 sweep).
fn sizes_from(args: &Args) -> Vec<usize> {
    let sizes: Vec<usize> = match args.get("sizes") {
        Some(list) => list
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse()
                    .unwrap_or_else(|_| args.bail(&format!("bad --sizes entry {tok:?}")))
            })
            .collect(),
        None => vec![10, 100, 300, 500],
    };
    if sizes.is_empty() {
        args.bail("--sizes must name at least one decomposition");
    }
    if sizes.contains(&0) {
        args.bail("bad --sizes entry \"0\": n must be at least 1");
    }
    sizes
}

/// The sweep sites behind `--site both` (the default for `breakdown`
/// and `metrics`): every registered non-variant site, in definition
/// order — `[sandhills, osg]` for the built-ins.
fn sweep_sites(args: &Args, registry: &SiteRegistry) -> Vec<SiteId> {
    match args.get("site").unwrap_or("both") {
        "both" => registry.sweep(),
        site => vec![resolve_site(args, registry, site)],
    }
}

/// `pegasus breakdown` — the paper's Fig. 7–8 per-task phase
/// decomposition (queue-wait / install / kickstart / post-overhead /
/// retry-badput) per site and per n, computed from the provenance
/// event stream alone: either a fresh deterministic sweep or, with
/// `--from-events`, recorded logs with no simulation at all.
fn cmd_breakdown(args: &Args) -> ExitCode {
    let mut rows = Vec::new();
    let mut all_ok = true;
    // Here `--events-dir` names where a live sweep writes its logs.
    if let Some(sources) = args.get("from-events").and_then(|_| event_sources(args)) {
        for (path, text, _) in sources {
            let row = breakdown::from_events(&parse_or_exit(&path, &text));
            let row = or_exit("cannot compute breakdown", row);
            all_ok &= row.completed == row.compute_jobs;
            rows.push(row);
        }
    } else {
        let registry = load_registry(args);
        let seed: u64 = args.parsed("seed", 20140519u64);
        // OSG's preemption hazard needs a deep retry budget at small n
        // (few jobs, so one unlucky task sinks the run); the paper's
        // OSG profile likewise leans on workflow-level retries.
        let retries: u32 = args.parsed("retries", 20u32);
        let cfg = engine_config_from(args, retries, seed);
        for site in sweep_sites(args, &registry) {
            for &n in &sizes_from(args) {
                let out = simulate_blast2cap3_at(&registry, site, n, seed, &cfg, None);
                all_ok &= out.run.succeeded();
                if let Some(dir) = args.get("events-dir") {
                    let doing = format!("cannot create events dir {dir}");
                    or_exit(&doing, std::fs::create_dir_all(dir));
                    let name = registry.name(site);
                    let path = std::path::Path::new(dir).join(format!("{name}_n{n}.events"));
                    write_or_exit("event log", path, out.event_log());
                }
                rows.push(out.breakdown());
            }
        }
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

/// `pegasus metrics` — dump the metrics registry in the Prometheus
/// text exposition format, populated by a fresh deterministic sweep,
/// offline from `--from-events` logs (byte-identical to the live run
/// under the same seed), or scraped over HTTP from a running
/// `pegasus serve` daemon with `--scrape`.
fn cmd_metrics(args: &Args) -> ExitCode {
    if let Some(addr) = args.get("scrape") {
        out!("{}", or_exit("metrics", serve::client::scrape(addr)));
        return ExitCode::SUCCESS;
    }

    let mut registry = MetricsRegistry::new();
    if let Some(sources) = event_sources(args) {
        for (path, text, _) in sources {
            let stream = parse_or_exit(&path, &text);
            let recorded = metrics::record_events(&mut registry, &stream);
            or_exit("cannot record metrics", recorded);
        }
    } else {
        let sites = load_registry(args);
        let seed: u64 = args.parsed("seed", 20140519u64);
        let retries: u32 = args.parsed("retries", 20u32);
        let cfg = engine_config_from(args, retries, seed);
        for site in sweep_sites(args, &sites) {
            for &n in &sizes_from(args) {
                let out = simulate_blast2cap3_at(&sites, site, n, seed, &cfg, None);
                metrics::record_events(&mut registry, &out.run.events)
                    .expect("engine streams replay");
            }
        }
    }
    write_or_print(args, &registry.render(), "metrics exposition written to");
    ExitCode::SUCCESS
}

/// Gathers every lint diagnostic the given flags make checkable: the
/// DAX passes always, the config pass when `--site`/`--slots` is
/// given, the fault-plan pass per `--fault-plan`, and (only when
/// `include_event_logs`) the sanitizer per `--events`. The event-log
/// pass is opt-in because `run` uses `--events` as an *output* path.
/// The one parse of the DAX comes back with the findings, for `run`
/// to validate and plan.
fn collect_lint(
    args: &Args,
    dax_path: &str,
    include_event_logs: bool,
) -> (Vec<Diagnostic>, Result<AbstractWorkflow, WmsError>) {
    use pegasus_wms::lint;

    let mut diags = Vec::new();

    // Site-definition pass (E0501–E0507): lint `--sites` when given,
    // and build the registry the config pass resolves `--site`
    // against. A file that fails to parse or load degrades to the
    // built-ins so the remaining passes still run.
    let mut registry = builtin_registry().clone();
    if let Some(path) = args.get("sites") {
        match gridsim::sites::parse_defs(&read_or_exit("site definitions", path)) {
            Ok(defs) => {
                diags.extend(gridsim::lint_sites(&defs, path));
                // Duplicate names/aliases were just reported above;
                // the load failure adds nothing new.
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
    let site = args.get("site");
    // An unresolvable --site flows through raw so the config pass can
    // report it as E0301 against the synthesised site catalog; a
    // resolvable one is canonicalised to its catalog handle (variants
    // like osg_prestaged check against their base site's entry).
    let resolved = site.and_then(|s| registry.resolve(s).ok());
    let site_for_ctx = resolved.map(|id| registry.catalog_name(id)).or(site);
    let faults_active =
        args.get("fault-plan").is_some() || resolved.is_some_and(|id| registry.faults_active(id));
    if let Some(wf) = wf {
        if site.is_some() || args.get("slots").is_some() {
            let ctx = lint::RunContext {
                site: site_for_ctx,
                sites: Some(&sites),
                transformations: Some(&tc),
                retry: Some(&policy),
                slot_budget: args.parsed_opt::<usize>("slots"),
                faults_active,
            };
            diags.extend(lint::check_config(wf, dax_path, &ctx));
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
            for path in comma_list(list) {
                let etext = read_or_exit("event log", path);
                if let Some(pairs) = parse_or_flag(&etext, path, &mut diags) {
                    diags.extend(lint::check_events(&pairs, path));
                }
            }
        }
    }

    (diags, parsed)
}

/// `pegasus lint`: the static analyzer. The one subcommand with a
/// positional argument (`<dax>`). Exits 1 when any diagnostic resolves
/// to an error under `--deny`/`--allow`, 2 on bad invocation.
fn cmd_lint(args: &Args) -> ExitCode {
    use pegasus_wms::lint;

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

    let dax_path = match (args.p.positionals.as_slice(), args.get("dax")) {
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

/// The warn-only report `run` and `ensemble` open with: findings go to
/// stderr at their default levels, never change the exit code, and
/// stdout stays byte-identical.
fn warn_on_stderr(diags: Vec<Diagnostic>) {
    use pegasus_wms::lint;
    let diags = lint::resolve(diags, &lint::LintConfig::default());
    if !diags.is_empty() {
        eprint!("{}", lint::render_text(&diags));
    }
}

/// `pegasus ensemble` — the paper's decomposition sweep as one
/// ensemble: every `--sizes` entry becomes its own blast2cap3 workflow
/// and all of them run concurrently over the shared simulated
/// platform, under one seed and one slot budget.
fn cmd_ensemble(args: &Args) -> ExitCode {
    use blast2cap3_pegasus::experiment::simulate_blast2cap3_ensemble_at;

    let profiling = arm_profiler(args);
    let registry = load_registry(args);
    let site = resolve_site(args, &registry, args.get("site").unwrap_or("sandhills"));
    let seed: u64 = args.parsed("seed", 20140519u64);
    let retries: u32 = args.parsed("retries", 3u32);
    let sizes = sizes_from(args);

    let engine_cfg = engine_config_from(args, retries, seed);
    let slot_budget = args.parsed_opt::<usize>("slots");

    // Warn-only feasibility lint on the widest member before any
    // simulation runs: slot budgets below the width, missing software
    // on the target site, retries disabled under preemption — judged
    // against the catalogs the members are planned with.
    if !args.flag("quiet") {
        use pegasus_wms::lint;
        let widest = *sizes.iter().max().expect("sizes is non-empty");
        let wf = build_workflow(&WorkflowParams::with_n(widest));
        let (sites_cat, tc, _rc) = registry_catalogs(&registry);
        let ctx = lint::RunContext {
            site: Some(registry.catalog_name(site)),
            sites: Some(&sites_cat),
            transformations: Some(&tc),
            retry: Some(&retry_policy_from(args, retries)),
            slot_budget,
            faults_active: registry.faults_active(site),
        };
        let label = format!("<blast2cap3 n={widest}>");
        warn_on_stderr(lint::check_config(&wf, &label, &ctx));
    }

    let out =
        simulate_blast2cap3_ensemble_at(&registry, site, &sizes, seed, &engine_cfg, slot_budget);
    let prof_samples = profile_summary(profiling);

    // Every member's provenance stream lands in one shared registry,
    // so the ensemble exposes the same metric surface as single runs.
    let mut registry = MetricsRegistry::new();
    for run in &out.run.runs {
        metrics::record_events(&mut registry, &run.events).expect("engine streams replay");
    }
    if profiling {
        prof::export(&mut registry, &prof_samples);
    }

    if !args.flag("quiet") {
        outln!("{}", render_ensemble_text(&out.stats));
        for run in &out.run.runs {
            let n = metrics::n_label(&run.name, run.records.len());
            if let Some(ks) = kickstart_quantiles(&registry, &run.site, &n) {
                outln!("{}: {ks}", run.name);
            }
        }
    }
    let note = !args.flag("quiet");
    write_flagged(args, "metrics", "metrics exposition", note, || {
        registry.render()
    });
    let csv = render_ensemble_csv(&out.stats);
    write_or_print(args, &csv, "ensemble rollup CSV written to");

    if out.run.succeeded() {
        ExitCode::SUCCESS
    } else {
        let failed: Vec<&str> = out
            .run
            .runs
            .iter()
            .filter(|r| !r.succeeded())
            .map(|r| r.name.as_str())
            .collect();
        eprintln!("ensemble members failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn cmd_run(args: &Args, csv_only: bool) -> ExitCode {
    // `statistics` shares this body but declares no --profile flag,
    // so profiling is only ever armed on the `run` verb.
    let profiling = !csv_only && arm_profiler(args);
    let dax_path = args.require("dax");
    // One parse of the DAX text: linted as parsed, then validated.
    let wf = if !csv_only && !args.flag("quiet") {
        let (diags, parsed) = collect_lint(args, dax_path, false);
        warn_on_stderr(diags);
        admitted_or_exit(dax_path, parsed.and_then(|wf| wf.validate().map(|()| wf)))
    } else {
        load_dax(dax_path)
    };
    let registry = load_registry(args);
    let site = resolve_site(args, &registry, args.require("site"));
    let site_name = registry.name(site);
    let seed: u64 = args.parsed("seed", 20140519u64);
    let retries: u32 = args.parsed("retries", 3u32);

    let catalogs = load_catalogs(args, &registry);
    let exec = plan_or_exit(&wf, &catalogs, registry.catalog_name(site));

    let mut engine_cfg = engine_config_from(args, retries, seed);

    let script = fault_script_from(args, seed);
    // A scripted submit-host crash is a one-time event: the rescue
    // resubmission runs on the recovered host, so it only arms on the
    // initial submission, never on --resume.
    if args.get("resume").is_none() {
        if let Some(script) = &script {
            engine_cfg.crash_after_events = script.submit_host_crash_after();
        }
    }

    if let Some(rescue_path) = args.get("resume") {
        let text = read_or_exit("rescue file", rescue_path);
        let rescue = or_exit("bad rescue file", RescueDag::from_text(&text));
        engine_cfg.skip_done = rescue.done.iter().cloned().collect();
        if !csv_only {
            outln!(
                "resuming: {} jobs marked DONE in {rescue_path}",
                rescue.done.len()
            );
        }
    }

    let mut backend = registry.backend(site, seed);
    if let Some(script) = script {
        backend = backend.with_faults(script);
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
        pegasus_wms::verify::ShadowVerifier::new(
            format!("<run {}>", exec.name),
            pegasus_wms::verify::VerifyOptions {
                slot_capacity: None,
                retry: Some(retry_policy_from(args, retries)),
            },
        )
    });
    let run = {
        let mut metrics_monitor = MetricsMonitor::new(&mut metrics_registry, site_name, &n);
        let mut multi = MultiMonitor::new();
        multi.push(&mut status);
        multi.push(&mut timeline);
        multi.push(&mut metrics_monitor);
        if let Some(shadow) = shadow.as_mut() {
            multi.push(shadow);
        }
        Engine::run(&mut backend, &exec, &engine_cfg, &mut multi)
    };

    // Under --profile the engine's own wall-clock phases and the
    // simulator's queue gauges join the run's metric surface; both
    // are gated so default expositions stay byte-identical.
    let prof_samples = profile_summary(profiling);
    if profiling {
        backend.export_queue_metrics(&mut metrics_registry);
        prof::export(&mut metrics_registry, &prof_samples);
    }

    if !csv_only && !args.flag("quiet") {
        // pegasus-status style tail: print every 10th line.
        for line in status.history.iter().step_by(status.history.len() / 10 + 1) {
            outln!("status: {line}");
        }
        // The final one-liner carries the kickstart quantiles from the
        // live metrics registry.
        match kickstart_quantiles(&metrics_registry, site_name, &n) {
            Some(ks) => outln!("status: {} | {ks}", status.status_line()),
            None => outln!("status: {}", status.status_line()),
        }
    }

    let stats = compute(&run);
    if csv_only {
        out!("{}", render_csv(&stats));
    } else {
        outln!("\n{}", render_text(&stats));
        outln!(
            "realised peak concurrency: {} slots",
            timeline.peak_concurrency()
        );
    }
    let note = !csv_only;
    write_flagged(args, "timeline", "timeline", note, || timeline.to_csv());
    write_flagged(args, "events", "event log", note, || {
        events::log::write(&run.events)
    });
    write_flagged(args, "metrics", "metrics exposition", note, || {
        metrics_registry.render()
    });

    // The shadow verdict: clean streams say so once; violations turn
    // an otherwise successful run into a failure.
    let mut verify_failed = false;
    if let Some(shadow) = shadow {
        use pegasus_wms::lint;
        let diags = lint::resolve(shadow.finish(), &lint::LintConfig::default());
        if diags.is_empty() {
            if !csv_only && !args.flag("quiet") {
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

    match &run.outcome {
        WorkflowOutcome::Success if verify_failed => ExitCode::FAILURE,
        WorkflowOutcome::Success => ExitCode::SUCCESS,
        WorkflowOutcome::Failed(rescue) => {
            let path = args
                .get("rescue-out")
                .map(String::from)
                .unwrap_or_else(|| format!("{}.rescue", run.name));
            write_or_exit("rescue DAG", &path, rescue.to_text());
            eprintln!("\n{}", analyze(&run).render_text());
            eprintln!("rescue DAG written to {path}; resubmit with --resume {path}");
            ExitCode::FAILURE
        }
    }
}

/// The live source `trace` and `verify` share: one ad-hoc blast2cap3
/// run, its trace id (submission 0 under its seed, the derivation the
/// daemon applies at admission), and its event log under that id's
/// header — also written to `--events`, for the offline round trip.
fn adhoc_run(args: &Args) -> (ExperimentOutcome, TraceId, String) {
    let registry = load_registry(args);
    let site = resolve_site(args, &registry, args.get("site").unwrap_or("sandhills"));
    let n = args.n(100);
    let seed: u64 = args.parsed("seed", 20140519u64);
    let cfg = engine_config_from(args, args.parsed("retries", 20u32), seed);
    let script = fault_script_from(args, seed);
    let out = simulate_blast2cap3_at(&registry, site, n, seed, &cfg, script);
    let id = TraceId::derive(seed, 0);
    let header = trace::render_log_header(id);
    let text = format!("{header}{}", events::log::append(&out.run.events));
    if let Some(path) = args.get("events") {
        write_or_exit("event log", path, &text);
        if !args.flag("quiet") {
            eprintln!("event log written to {path}");
        }
    }
    (out, id, text)
}

/// `pegasus trace` — the end-to-end span layer: fold provenance
/// streams into workflow → job → attempt → phase span trees keyed by
/// a [`TraceId`], rendered as a plain-text tree (default) or Chrome
/// Trace Event JSON (`--format chrome`, Perfetto-loadable). Three
/// sources, all the same pure fold, so they render byte-identically
/// for the same stream:
///
/// * live (default): simulate one blast2cap3 run and derive the trace
///   id from the seed (`--events` also writes the log, trace header
///   included, for the offline round trip);
/// * `--from-events log,...`: recorded logs, trace ids recovered from
///   their header comments;
/// * `--events-dir dir`: every member log of a serve state directory
///   (or its `members/` subdirectory), smallest member id first.
fn cmd_trace(args: &Args) -> ExitCode {
    // A recorded log's trace id is the one its own header carries.
    let fold = |(path, text, _): EventSource| {
        let id = trace::trace_from_log(&text);
        let folded = trace::fold(&parse_or_exit(&path, &text), id);
        or_exit(&format!("cannot fold event log {path}"), folded)
    };
    let traces: Vec<_> = match event_sources(args) {
        Some(sources) => sources.into_iter().map(fold).collect(),
        None => {
            let (out, id, _) = adhoc_run(args);
            vec![trace::of_run(&out.run, Some(id))]
        }
    };

    let all_ok = traces.iter().all(|t| t.succeeded);
    let rendered = match args.get("format").unwrap_or("text") {
        "text" => trace::render_text(&traces),
        "chrome" => trace::render_chrome(&traces),
        other => args.bail(&format!("unknown --format {other:?} (use text or chrome)")),
    };
    write_or_print(args, &rendered, "trace written to");
    if !all_ok {
        eprintln!("some workflows did not complete; the trace covers what ran");
    }
    success_if(all_ok)
}

/// `pegasus verify` — the two-layer semantic verifier. Layer 1 runs
/// the temporal invariant catalog (`E08xx`) over complete provenance
/// event streams; layer 2 (`--dax`) plans the workflow and verifies
/// its dataflow and feasibility (`E06xx`). Stream sources mirror
/// `pegasus trace`:
///
/// * `--from-events log,...`: recorded logs;
/// * a serve state directory (positional or `--events-dir`): every
///   member log, each cross-checked against its journaled trace id;
/// * a positional `.events` file;
/// * live (neither source nor `--dax`): simulate one blast2cap3 run,
///   serialize it, and verify the serialized text through the same
///   reader as the offline paths — so a live run and a later
///   `--from-events` pass over its `--events` log render identical
///   verdicts.
fn cmd_verify(args: &Args) -> ExitCode {
    use pegasus_wms::lint;
    use pegasus_wms::verify;

    let config = lint_config_from(args, "E0801");
    let retries: u32 = args.parsed("retries", 20u32);
    // The backoff/jitter envelope is only asserted when the invocation
    // states the policy (or runs live, where it is the engine's own).
    let explicit_policy = args.get("retries").is_some() || args.get("backoff").is_some();
    let mut opts = verify::VerifyOptions {
        slot_capacity: args.parsed_opt("slots"),
        retry: explicit_policy.then(|| retry_policy_from(args, retries)),
    };

    let mut diags = Vec::new();

    // Layer 2: plan the DAX for the target site and verify dataflow.
    if let Some(dax_path) = args.get("dax") {
        let wf = load_dax(dax_path);
        let registry = load_registry(args);
        let site = resolve_site(args, &registry, args.get("site").unwrap_or("sandhills"));
        let catalogs = load_catalogs(args, &registry);
        let exec = plan_or_exit(&wf, &catalogs, registry.catalog_name(site));
        let rc = &catalogs.2;
        let dopts = verify::DataflowOptions {
            storage_limit_bytes: args.parsed_opt("storage-limit"),
        };
        let quotas = pegasus_wms::ensemble::EnsembleConfig {
            slot_budget: args.parsed_opt("slots"),
            tenant_slots: None,
        };
        let findings = plan_findings(&wf, &exec, rc, dax_path, &dopts, &quotas);
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
    let streams = match event_sources(args) {
        Some(recorded) => recorded,
        // `--dax` alone is a pure layer-2 invocation.
        None if args.get("dax").is_some() => Vec::new(),
        None => {
            let (_, id, text) = adhoc_run(args);
            // A live run always knows its policy: arm the envelope.
            opts.retry = Some(retry_policy_from(args, retries));
            let label = match args.get("events") {
                Some(path) => path.to_string(),
                None => format!(
                    "<live n={} seed={}>",
                    args.n(100),
                    args.parsed("seed", 20140519u64)
                ),
            };
            vec![(label, text, Some(id))]
        }
    };

    let mut total_events = 0usize;
    for (label, text, expected) in &streams {
        let Some(evs) = parse_or_flag(text, label, &mut diags) else {
            continue;
        };
        total_events += evs.len();
        diags.extend(verify::check_stream(&evs, label, &opts));
        if let Some(exp) = expected {
            diags.extend(verify::check_trace_match(
                trace::trace_from_log(text),
                *exp,
                label,
            ));
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

/// `pegasus serve` — run the multi-tenant ensemble daemon until a
/// `shutdown` request arrives over the protocol socket.
fn cmd_serve(args: &Args) -> ExitCode {
    let opts = serve::ServeOptions {
        addr: args.get("addr").unwrap_or("127.0.0.1:7070").to_string(),
        metrics_addr: args
            .get("metrics-addr")
            .unwrap_or("127.0.0.1:7071")
            .to_string(),
        dir: std::path::PathBuf::from(args.get("dir").unwrap_or("serve-state")),
        seed: args.parsed("seed", 20140519u64),
        retries: args.parsed("retries", 3u32),
        slot_budget: args.parsed_opt("slots"),
        tenant_slots: args.parsed_opt("tenant-slots"),
        tenant_active: args.parsed_opt("tenant-active"),
        crash_after_members: args.parsed_opt("crash-after-members"),
        sites: args.get("sites").map(std::path::PathBuf::from),
    };
    or_exit("serve", serve::serve(&opts));
    ExitCode::SUCCESS
}

/// Connects to the daemon at `--addr`, or reports `<verb>: <error>`
/// and exits 1.
fn connect_or_exit(args: &Args) -> serve::client::Connection {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7070");
    or_exit(args.verb.name, serve::client::Connection::open(addr))
}

/// `pegasus submit` — the daemon's write-side client: submit a
/// generated workload or a DAX, cancel a queued member, trigger a
/// batch of rounds, or shut the daemon down. Requests are sent in
/// cancel → submit → run → shutdown order; each response head is
/// printed on its own line.
fn cmd_submit(args: &Args) -> ExitCode {
    use pegasus_wms::serve::{
        render_response_head, Request, ResponseHead, SubmitRequest, SubmitSource,
    };

    let mut requests: Vec<Request> = Vec::new();
    if let Some(id) = args.parsed_opt::<usize>("cancel") {
        requests.push(Request::Cancel { id });
    }
    let source = match (args.parsed_opt::<usize>("n"), args.get("dax")) {
        (Some(n), None) => Some(SubmitSource::Generated { n }),
        (None, Some(path)) => Some(SubmitSource::Dax {
            path: path.to_string(),
        }),
        (None, None) => None,
        (Some(_), Some(_)) => args.bail("give either --n or --dax, not both"),
    };
    if let Some(source) = source {
        requests.push(Request::Submit(SubmitRequest {
            tenant: args
                .get("tenant")
                .unwrap_or(pegasus_wms::ensemble::DEFAULT_TENANT)
                .to_string(),
            site: args.require("site").to_string(),
            seed: args.parsed_opt("seed"),
            retries: args.parsed_opt("retries"),
            priority: args.parsed("priority", 0),
            trace: args.parsed_opt("trace"),
            source,
        }));
    }
    if args.flag("run") {
        requests.push(Request::Run);
    }
    if args.flag("shutdown") {
        requests.push(Request::Shutdown);
    }
    if requests.is_empty() {
        args.bail("nothing to do: give --n/--dax, --cancel, --run, or --shutdown");
    }

    let mut conn = connect_or_exit(args);
    let mut ok = true;
    for req in &requests {
        let (head, payload) = or_exit("submit", conn.request(req));
        outln!("{}", render_response_head(&head));
        for line in payload {
            outln!("{line}");
        }
        ok &= !matches!(head, ResponseHead::Error(_));
    }
    success_if(ok)
}

/// `pegasus status` — the member table, either live from a daemon
/// (`--addr`) or replayed offline from its state directory (`--dir`);
/// the two render byte-identical lines. `--rollup`/`--metrics` switch
/// the live query to the ensemble rollup CSV or the Prometheus
/// exposition.
fn cmd_status(args: &Args) -> ExitCode {
    use pegasus_wms::serve::{Request, ResponseHead};

    if let Some(dir) = args.get("dir") {
        let lines = serve::status_lines_offline(std::path::Path::new(dir));
        for l in or_exit("status", lines) {
            outln!("{l}");
        }
        return ExitCode::SUCCESS;
    }
    let req = if let Some(id) = args.parsed_opt::<usize>("trace") {
        Request::Trace { id }
    } else if args.flag("rollup") {
        Request::Rollup
    } else if args.flag("metrics") {
        Request::Metrics
    } else {
        Request::Status
    };
    let mut conn = connect_or_exit(args);
    match or_exit("status", conn.request(&req)) {
        (ResponseHead::Error(e), _) => or_exit("status", Err(e)),
        (_, payload) => {
            for line in payload {
                outln!("{line}");
            }
            ExitCode::SUCCESS
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().map(String::as_str) else {
        eprint!("{}", cli_args::usage());
        return ExitCode::from(2);
    };
    if matches!(cmd, "help" | "--help" | "-h") {
        out!("{}", cli_args::usage());
        return ExitCode::SUCCESS;
    }
    let Some(verb) = cli_args::find(cmd) else {
        eprintln!("unknown subcommand {cmd:?}\n");
        eprint!("{}", cli_args::usage());
        return ExitCode::from(2);
    };
    let parsed = match verb.parse(&raw[1..]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pegasus {}: {e}", verb.name);
            return ExitCode::from(2);
        }
    };
    if parsed.help {
        out!("{}", verb.help());
        return ExitCode::SUCCESS;
    }
    let args = Args { verb, p: parsed };
    match verb.name {
        "generate-dax" => cmd_generate_dax(&args),
        "generate-workload" => cmd_generate_workload(&args),
        "catalogs" => cmd_catalogs(&args),
        "plan" => cmd_plan(&args),
        "run" => cmd_run(&args, false),
        "statistics" => cmd_statistics(&args),
        "analyze" => cmd_analyze(&args),
        "ensemble" => cmd_ensemble(&args),
        "breakdown" => cmd_breakdown(&args),
        "trace" => cmd_trace(&args),
        "metrics" => cmd_metrics(&args),
        "lint" => cmd_lint(&args),
        "verify" => cmd_verify(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "status" => cmd_status(&args),
        other => {
            eprintln!("unhandled verb {other:?}");
            ExitCode::from(2)
        }
    }
}
