#![forbid(unsafe_code)]

//! `pegasus` — a command-line front end mirroring the Pegasus tools
//! the paper drives its experiments with, one module per verb family:
//! [`generate`] (`generate-dax`, `generate-workload`, `catalogs`),
//! [`plan`](mod@plan) (pegasus-plan), [`run`] (`run`, the pegasus-run
//! session with live status, statistics, analyzer report and rescue
//! file, and `ensemble`), [`fold`] (`statistics`, `analyze`,
//! `breakdown`, `metrics`, `trace`: folds of event logs, recorded or
//! live), [`check`] (`lint`, `verify`) and [`daemon`] (`serve`,
//! `submit`, `status`).
//!
//! Each verb is a [`Verb`] declared beside the handler that reads its
//! flags; [`VERBS`] lists them in usage-screen order, and [`cli::main`]
//! parses, documents and dispatches from that table.
//!
//! Example session (mirrors §V of the paper):
//!
//! ```sh
//! pegasus generate-dax --n 300 --out b2c3.dax
//! pegasus plan --dax b2c3.dax --site osg --dot osg.dot
//! pegasus run  --dax b2c3.dax --site osg --retries 10
//! ```

mod check;
mod daemon;
mod fold;
mod generate;
mod plan;
mod run;

use blast2cap3_pegasus::cli::{self, or_exit, read_or_exit, write_or_exit, Args, Verb};
use blast2cap3_pegasus::experiment::{self, catalogs_with, registry_catalogs, Catalogs};
use gridsim::sites::SiteRegistry;
use gridsim::{FaultPlan, FaultScript, SimBackend};
use pegasus_wms::engine::{EngineConfig, RetryPolicy};
use pegasus_wms::ensemble::EnsembleConfig;
use pegasus_wms::error::WmsError;
use pegasus_wms::lint::Diagnostic;
use pegasus_wms::planner::{plan, ExecutableWorkflow, PlannerConfig};
use pegasus_wms::symbols::SiteId;
use pegasus_wms::workflow::AbstractWorkflow;
use pegasus_wms::{catalog_io, dax, prof, verify};
use std::io::Write;
use std::process::ExitCode;

/// Every verb of `pegasus`, in usage-screen order.
const VERBS: &[Verb] = &[
    generate::DAX,
    generate::WORKLOAD,
    generate::CATALOGS,
    plan::PLAN,
    run::RUN,
    fold::STATISTICS,
    fold::ANALYZE,
    run::ENSEMBLE,
    fold::BREAKDOWN,
    fold::TRACE,
    fold::METRICS,
    check::LINT,
    check::VERIFY,
    daemon::SERVE,
    daemon::SUBMIT,
    daemon::STATUS,
];

fn main() -> ExitCode {
    cli::main("pegasus", VERBS)
}

/// Flag declarations several verbs share.
mod common {
    use blast2cap3_pegasus::cli::{opt, switch, Flag};
    use pegasus_wms::serve::DECOMPOSITION;

    pub(crate) const SEED: Flag = opt("seed", "u64", "deterministic seed (default 20140519)");
    pub(crate) const RETRIES: Flag = opt("retries", "n", "retry budget per job");
    pub(crate) const BACKOFF: Flag =
        opt("backoff", "secs", "exponential retry backoff base").secs(0.0, false);
    pub(crate) const TIMEOUT: Flag = opt("timeout", "secs", "per-attempt timeout").secs(0.0, true);
    pub(crate) const SITE: Flag = opt(
        "site",
        "name",
        "target site name or alias (built-ins: sandhills|osg|osg_prestaged)",
    );
    pub(crate) const SITES: Flag = opt(
        "sites",
        "file",
        "site definitions file replacing the built-in sites",
    );
    pub(crate) const SIZES: Flag = opt(
        "sizes",
        "n,n,...",
        "decomposition sweep (default 10,100,300,500)",
    )
    .range(DECOMPOSITION)
    .list();
    pub(crate) const OUT: Flag = opt("out", "file", "write output to a file instead of stdout");
    pub(crate) const QUIET: Flag = switch("quiet", "suppress progress and tables");
    pub(crate) const CATALOG: Flag = opt(
        "catalog",
        "file",
        "transformation/replica catalog replacing the built-ins",
    );
    pub(crate) const FROM_EVENTS: Flag = opt(
        "from-events",
        "file,...",
        "recompute offline from event logs",
    );
    pub(crate) const FAULT_PLAN: Flag =
        opt("fault-plan", "file", "scripted fault plan for the backend");
    pub(crate) const ADDR: Flag = opt("addr", "host:port", "daemon protocol address");
    pub(crate) const PROFILE: Flag = switch(
        "profile",
        "collect engine self-profiling scopes (summary on stderr)",
    );
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
/// `<done> <file>` on stderr unless `--quiet`), or to stdout without
/// one or when the file is the one stdout is open on.
fn write_or_print(args: &Args, text: &str, done: &str) {
    write_or_print_with(args, done, |w| Ok(w.write_all(text.as_bytes())?));
}

/// [`write_or_print`] of what `fill` writes, as it renders it.
fn write_or_print_with(
    args: &Args,
    done: &str,
    fill: impl FnOnce(&mut dyn Write) -> Result<(), Unwritten>,
) {
    let path = args.get("out");
    if write_to(path, "output", fill) && !args.flag("quiet") {
        eprintln!("{done} {}", path.unwrap_or_default());
    }
}

/// Why a verb's output was not made: stdout or the file would not take
/// a write, or the verb refused what it was rendering from (a log that
/// does not fold), with the sentence to exit 1 with.
enum Unwritten {
    Io(std::io::Error),
    Refused(String),
}

impl From<std::io::Error> for Unwritten {
    fn from(e: std::io::Error) -> Self {
        Unwritten::Io(e)
    }
}

/// Writes what `fill` writes to the file `path` names, replacing it
/// whole, and returns `true`; or to stdout, with no path or when the
/// file is the one stdout is open on, and returns `false`. A file that
/// cannot be written is `cannot write <what> <path>` and exit 1; a
/// refusal leaves the file as it was and exits 1 with its sentence,
/// after what stdout was already given.
fn write_to(
    path: Option<&str>,
    what: &str,
    fill: impl FnOnce(&mut dyn Write) -> Result<(), Unwritten>,
) -> bool {
    let Some(path) = path.filter(|path| !is_stdout(path)) else {
        let mut out = std::io::BufWriter::new(std::io::stdout().lock());
        let filled = fill(&mut out);
        let flushed = out.flush();
        match filled {
            Err(Unwritten::Io(e)) => cli::stdout_written(Err(e)),
            Err(Unwritten::Refused(why)) => or_exit("", Err(why)),
            Ok(()) => cli::stdout_written(flushed),
        }
        return false;
    };
    let doing = format!("cannot write {what} {path}");
    match bioseq::output::replace(path, |w| fill(w)) {
        Ok(Ok(())) => true,
        Ok(Err(Unwritten::Refused(why))) => or_exit("", Err(why)),
        Ok(Err(Unwritten::Io(e))) | Err(e) => or_exit(&doing, Err(e)),
    }
}

/// `true` when `path` is the file stdout is open on, as `/dev/stdout`
/// is under `>> o.txt`: a file renamed into place would take it from
/// under the shell's redirection.
fn is_stdout(path: &str) -> bool {
    use std::os::fd::AsFd;
    use std::os::unix::fs::MetadataExt;
    let stdout = std::io::stdout().as_fd().try_clone_to_owned();
    let stdout = stdout.and_then(|fd| std::fs::File::from(fd).metadata());
    match (stdout, std::fs::metadata(path)) {
        (Ok(out), Ok(file)) => (out.dev(), out.ino()) == (file.dev(), file.ino()),
        _ => false,
    }
}

/// Writes what `render` gives to the file the flag `key` names, when
/// given, confirming with `<what> written to <file>` on stderr unless
/// `--quiet`; through stdout, unconfirmed, when the file is the one
/// stdout is open on.
fn write_flagged(args: &Args, key: &str, what: &str, render: impl FnOnce() -> String) {
    if let Some(path) = args.get(key) {
        let fill = |w: &mut dyn Write| Ok(w.write_all(render().as_bytes())?);
        if write_to(Some(path), what, fill) && !args.flag("quiet") {
            eprintln!("{what} written to {path}");
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
) -> ExecutableWorkflow {
    let planned = plan(wf, sites, tc, rc, &PlannerConfig::for_site(site));
    or_exit("planning failed", planned)
}

/// The ensemble judge's verdict on `wf`'s width under `quotas`
/// (`E0605`/`W0606`), as `verify --dax` and serve preflight ask it;
/// nothing for a workflow with no width.
fn width_findings(wf: &AbstractWorkflow, quotas: &EnsembleConfig, file: &str) -> Vec<Diagnostic> {
    let Ok(width) = wf.width() else {
        return Vec::new();
    };
    verify::check_ensemble_feasibility(&[(wf.name.clone(), width)], quotas, file)
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

/// The retry policy every simulating verb builds from its flags: flat
/// retries by default, exponential backoff when `--backoff` is given,
/// plus an optional per-attempt `--timeout` (both seconds, judged by
/// their flag rows).
fn retry_policy_from(args: &Args, retries: u32) -> RetryPolicy {
    let mut policy = match args.parsed_opt("backoff") {
        Some(base) => RetryPolicy::exponential(retries, base),
        None => RetryPolicy::flat(retries),
    };
    if let Some(timeout) = args.parsed_opt("timeout") {
        policy = policy.with_timeout(timeout);
    }
    policy
}

/// The one setup of every run the binary simulates on `site`: the
/// engine configuration under `--seed` and the flags' retry policy
/// (`--retries` defaulting to the verb's `retries`), and the site's
/// backend with the `--fault-plan` script armed on it. The plan's
/// `submit-host-crash` arms on the engine too, except under `--resume`:
/// the crash is a one-time event, and the rescue resubmission runs on
/// the recovered host.
fn simulation(
    args: &Args,
    registry: &SiteRegistry,
    site: SiteId,
    retries: u32,
) -> (EngineConfig, SimBackend) {
    let seed: u64 = args.parsed("seed", 20140519u64);
    let mut cfg = EngineConfig::builder()
        .policy(retry_policy_from(args, args.parsed("retries", retries)))
        .seed(seed)
        .build();
    let mut backend = registry.backend(site, seed);
    if let Some(path) = args.get("fault-plan") {
        let text = read_or_exit("fault plan", path);
        let plan = or_exit(&format!("bad fault plan {path}"), FaultPlan::parse(&text));
        let script = FaultScript::new(plan, seed);
        if args.get("resume").is_none() {
            cfg.crash_after_events = script.submit_host_crash_after();
        }
        backend = backend.with_faults(script);
    }
    (cfg, backend)
}

/// `--sizes 10,100,...` (default: the paper's Fig. 4 sweep).
fn sizes_from(args: &Args) -> Vec<usize> {
    args.parsed_list("sizes")
        .unwrap_or_else(|| vec![10, 100, 300, 500])
}
