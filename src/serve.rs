//! The `pegasus serve` daemon: a long-running multi-tenant ensemble
//! scheduler over the simulated platforms.
//!
//! The transport-agnostic half — protocol grammar, journal format,
//! status rendering — lives in [`pegasus_wms::serve`]; this module
//! supplies the runtime: TCP listeners, per-connection handler
//! threads, the single scheduler thread that owns all state, the
//! journal + per-member event logs on disk, and crash recovery.
//!
//! Design:
//!
//! * **One scheduler thread owns everything.** Connection handlers
//!   parse requests and forward them over an mpsc channel; the
//!   scheduler processes them strictly in arrival order. No state is
//!   shared, no locks exist, and scheduling decisions are independent
//!   of socket interleaving.
//! * **`run` is a deterministic round barrier.** A round's batch is
//!   the set of queued submissions at the moment the `run` request is
//!   processed, grouped per site and run in submission-id order, with
//!   a seed derived from the daemon base seed and the round counter
//!   ([`pegasus_wms::serve::round_seed`]). Batch composition is
//!   journaled *before* execution.
//! * **Everything observable is event-derived.** Member event logs
//!   are appended incrementally as the ensemble runs; status, rollup,
//!   and the Prometheus scrape are folds over those streams, so a
//!   live daemon and an offline replay of its directory render
//!   byte-identical views.
//! * **Recovery re-executes the interrupted round.** The journal's
//!   open `round` entry names the batch and seed; partial member logs
//!   are reported (how far each in-flight member got), deleted, and
//!   the whole round re-runs deterministically — producing logs,
//!   rollup, and metrics byte-identical to the run the crash
//!   destroyed.

use crate::experiment::{builtin_registry, plan_blast2cap3_at, plan_on, registry_catalogs};
use gridsim::sites::SiteRegistry;
use pegasus_wms::dax;
use pegasus_wms::engine::{EngineConfig, WorkflowRun};
use pegasus_wms::ensemble::{Ensemble, EnsembleConfig, EnsembleMonitor, Submission};
use pegasus_wms::error::WmsError;
use pegasus_wms::events::{self, WorkflowEvent};
use pegasus_wms::lint;
use pegasus_wms::metrics::{self, MetricsRegistry};
use pegasus_wms::prof;
use pegasus_wms::serve as proto;
use pegasus_wms::serve::{
    JournalEntry, Ledger, Request, ResponseHead, SubmitRequest, SubmitSource,
};
use pegasus_wms::statistics::{compute_ensemble, render_ensemble_csv};
use pegasus_wms::symbols::SiteId;
use pegasus_wms::trace::{self, TraceId};
use pegasus_wms::verify;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;

/// Configuration for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Protocol listen address, e.g. `127.0.0.1:7070` (port 0 picks a
    /// free port; the daemon prints the resolved address).
    pub addr: String,
    /// HTTP `/metrics` scrape listen address.
    pub metrics_addr: String,
    /// State directory: journal plus `members/m<id>.events` logs.
    pub dir: PathBuf,
    /// Base seed; round seeds derive from it.
    pub seed: u64,
    /// Default retry budget for submissions that don't name one.
    pub retries: u32,
    /// Global slot budget per round (`None`: backend capacity).
    pub slot_budget: Option<usize>,
    /// Per-tenant in-flight job quota.
    pub tenant_slots: Option<usize>,
    /// Per-tenant queued-submission quota.
    pub tenant_active: Option<usize>,
    /// Test hook: abort the process (as if killed) after this many
    /// member completions, mid-round, exercising crash recovery.
    pub crash_after_members: Option<usize>,
    /// Optional `sites.def` file replacing the built-in site registry.
    pub sites: Option<PathBuf>,
}

impl ServeOptions {
    /// The execution-side quotas a round runs under. (The queue-depth
    /// quota `tenant_active` is enforced at submit time.)
    fn ensemble_config(&self) -> EnsembleConfig {
        EnsembleConfig {
            slot_budget: self.slot_budget,
            tenant_slots: self.tenant_slots,
        }
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            dir: PathBuf::from("serve-state"),
            seed: 20140519,
            retries: 3,
            slot_budget: None,
            tenant_slots: None,
            tenant_active: None,
            crash_after_members: None,
            sites: None,
        }
    }
}

/// Loads the registry the daemon resolves every submission against:
/// the `--sites` file when configured, the built-ins otherwise.
fn load_registry(opts: &ServeOptions) -> Result<SiteRegistry, String> {
    match &opts.sites {
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            SiteRegistry::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        }
        None => Ok(builtin_registry().clone()),
    }
}

/// The display name of a member before it has run. After a round the
/// planned workflow's own name takes over; both derivations are pure
/// functions of journaled facts, so restarts render the same text.
fn default_name(sub: &SubmitRequest) -> String {
    match &sub.source {
        SubmitSource::Generated { n } => format!("blast2cap3_n{n}"),
        SubmitSource::Dax { path } => path.clone(),
    }
}

/// The `status` payload: one line per submission, its state read off
/// the ledger and its numbers off its run. The live daemon and the
/// offline replay both render through here.
fn status_lines(ledger: &Ledger, runs: &[Option<WorkflowRun>]) -> Vec<String> {
    let members = ledger.submissions.iter().zip(runs);
    members
        .enumerate()
        .map(|(id, (sub, run))| {
            let state = ledger.state(id, run.as_ref().map(WorkflowRun::succeeded));
            let line = match run {
                Some(run) => proto::status_from_run(id, &sub.tenant, &sub.site, state, run),
                None => proto::StatusLine {
                    id,
                    tenant: sub.tenant.clone(),
                    site: sub.site.clone(),
                    state,
                    jobs: None,
                    wall_time: None,
                    queue_wait: None,
                    name: default_name(sub),
                },
            };
            proto::render_status_line(&line)
        })
        .collect()
}

/// Messages into the scheduler thread.
enum SchedMsg {
    /// A protocol request; the reply is the full response text
    /// (head line plus any payload lines, newline-terminated). For
    /// `shutdown` the handler also sends a `written` channel: the
    /// scheduler waits on it so the process does not exit before the
    /// final `ok` reaches the socket.
    Proto(Request, mpsc::Sender<String>, Option<mpsc::Receiver<()>>),
    /// An HTTP scrape; the reply is the raw exposition body.
    Scrape(mpsc::Sender<String>),
}

/// Incremental event-log writer for one round: one file per member,
/// header first, then chunks exactly as the ensemble emits them, so
/// a crash at any instant leaves well-formed replayable prefixes.
struct LogMonitor {
    files: Vec<File>,
    completed: usize,
    crash_after: Option<usize>,
}

impl LogMonitor {
    fn new(
        dir: &Path,
        ledger: &Ledger,
        ids: &[usize],
        crash_after: Option<usize>,
    ) -> std::io::Result<Self> {
        let mut files = Vec::with_capacity(ids.len());
        for &id in ids {
            let mut f = File::create(member_log_path(dir, id))?;
            // The trace id rides as a comment line under the header:
            // every event-log parser skips it, so the *events* stay
            // byte-identical to an untraced log, while `pegasus trace
            // --from-events` recovers the id offline.
            let header = match ledger.submissions[id].trace {
                Some(tr) => trace::render_log_header(tr),
                None => format!("{}\n", events::log::HEADER),
            };
            f.write_all(header.as_bytes())?;
            files.push(f);
        }
        Ok(LogMonitor {
            files,
            completed: 0,
            crash_after,
        })
    }
}

impl EnsembleMonitor for LogMonitor {
    fn member_events(&mut self, index: usize, chunk: &[WorkflowEvent]) {
        if chunk.is_empty() {
            return;
        }
        self.files[index]
            .write_all(events::log::append(chunk).as_bytes())
            .expect("append member event log");
        // A member's last chunk ends with its trailer.
        if matches!(chunk.last(), Some(WorkflowEvent::WorkflowFinished { .. })) {
            self.completed += 1;
            if self.crash_after.is_some_and(|k| self.completed >= k) {
                // Simulate a submit-host kill: no unwinding, no
                // cleanup, journal round left open.
                std::process::abort();
            }
        }
    }
}

/// Where a state directory keeps member `id`'s event log.
fn member_log_path(dir: &Path, id: usize) -> PathBuf {
    dir.join("members").join(format!("m{id}.events"))
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal")
}

/// Loads and replays one member's event log into a [`WorkflowRun`].
fn load_member_run(dir: &Path, id: usize) -> Result<WorkflowRun, String> {
    let path = member_log_path(dir, id);
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let stream =
        events::log::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    events::replay(&stream).map_err(|e| format!("cannot replay {}: {e}", path.display()))
}

/// Reads a state directory's journal back: the ledger its whole lines
/// replay to, how many bytes those lines are, and how many bytes of
/// torn final record follow them. A journal torn inside its header
/// line is one nothing was written to.
fn read_journal(dir: &Path) -> Result<(Ledger, usize, usize), String> {
    let path = journal_path(dir);
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let whole = proto::whole_lines(&text);
    let ledger = if whole.is_empty() {
        Ledger::default()
    } else {
        Ledger::replay(whole).map_err(|e| format!("corrupt journal: {e}"))?
    };
    Ok((ledger, whole.len(), text.len() - whole.len()))
}

/// The run of every member a finished round claimed, replayed from
/// its event log; `None` for the rest.
fn load_runs(dir: &Path, ledger: &Ledger) -> Result<Vec<Option<WorkflowRun>>, String> {
    (0..ledger.submissions.len())
        .map(|id| match ledger.round_of(id) {
            Some(round) if round.finished => load_member_run(dir, id).map(Some),
            _ => Ok(None),
        })
        .collect()
}

/// Every member event log under `dir`, member-id order, each with the
/// trace id its header must carry — what `pegasus trace --events-dir`
/// and `pegasus verify <dir>` read. A state directory (one with a
/// journal) yields the logs of its journaled submissions, paired with
/// their journaled trace ids; any other directory of `.events` files
/// (or its `members/` subdirectory) yields them unpaired.
///
/// # Errors
/// Unreadable directory or journal, corrupt journal, or no logs.
pub fn member_logs(dir: &Path) -> Result<Vec<(PathBuf, Option<TraceId>)>, String> {
    let members = dir.join("members");
    let scan = if members.is_dir() {
        members
    } else {
        dir.into()
    };
    let logs: Vec<(PathBuf, Option<TraceId>)> = if journal_path(dir).is_file() {
        let (ledger, ..) = read_journal(dir)?;
        let traces = ledger.submissions.iter().map(|s| s.trace).enumerate();
        traces
            .map(|(id, tr)| (member_log_path(dir, id), tr))
            .filter(|(path, _)| path.is_file())
            .collect()
    } else {
        let entries =
            fs::read_dir(&scan).map_err(|e| format!("cannot read {}: {e}", scan.display()))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "events"))
            .collect();
        // Shortest-name-first sorts m2 before m10: member-id order.
        paths.sort_by_key(|p| {
            let name = p.file_name().unwrap_or_default().to_os_string();
            (name.len(), name)
        });
        paths.into_iter().map(|p| (p, None)).collect()
    };
    if logs.is_empty() {
        return Err(format!("no .events logs under {}", scan.display()));
    }
    Ok(logs)
}

/// Plans one submission into the member the round will execute.
/// `engine_seed` is the resolved seed (the submission's own, or the
/// round seed) — also used for workload calibration, so recovery
/// re-plans identically.
fn plan_member(
    registry: &SiteRegistry,
    sub: &SubmitRequest,
    engine_seed: u64,
    default_retries: u32,
) -> Result<Submission, String> {
    let site = registry.resolve(&sub.site).map_err(|e| e.to_string())?;
    let exec = match &sub.source {
        SubmitSource::Generated { n } => plan_blast2cap3_at(registry, site, *n, engine_seed),
        SubmitSource::Dax { path } => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let wf = dax::from_dax(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
            plan_on(registry, site, &wf).map_err(|e| format!("cannot plan {path}: {e}"))?
        }
    };
    let cfg = EngineConfig::builder()
        .retries(sub.retries.unwrap_or(default_retries))
        .seed(engine_seed)
        .build();
    Ok(Submission::new(exec, cfg)
        .with_priority(sub.priority)
        .with_tenant(sub.tenant.clone()))
}

/// Admission-time preflight on a submitted DAX, over one parse of its
/// text: the structural lint pass, validation, then the plan exactly
/// as the round will make it, the whole-plan dataflow verifier and
/// the ensemble feasibility check against the daemon's quotas —
/// rejecting error-severity findings before the submission is
/// journaled. Generated workloads skip this — planner output is
/// validated by construction.
fn preflight_dax(
    path: &str,
    registry: &SiteRegistry,
    site: SiteId,
    opts: &ServeOptions,
) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let wf = match dax::from_dax_unvalidated(&text) {
        Ok(wf) => wf,
        Err(e) => {
            let d = lint::classify_parse_error(&e, path);
            return Err(format!("lint {}: {}", d.code, d.message));
        }
    };
    let (_, tc, rc) = registry_catalogs(registry);
    let lint_opts = lint::DaxLintOptions {
        source: Some(&text),
        ..lint::DaxLintOptions::default()
    };
    let diags = lint::check_workflow(&wf, path, Some(&tc), &lint_opts);
    if let Some(d) = diags.iter().find(|d| d.severity == lint::Severity::Error) {
        return Err(format!("lint {}: {}", d.code, d.message));
    }
    // Layer 2 verification: a plan that cannot execute (a consumed
    // file with no producer, stage-in, or replica; a zero quota) is
    // rejected here, not discovered as a failed member mid-round.
    wf.validate()
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    let exec = plan_on(registry, site, &wf).map_err(|e| format!("cannot plan {path}: {e}"))?;
    let mut diags = verify::check_plan(
        &wf,
        &exec,
        &rc,
        registry.catalog_name(site),
        path,
        &verify::DataflowOptions::default(),
    );
    let width = wf
        .width()
        .map_err(|e| format!("cannot analyze {path}: {e}"))?;
    diags.extend(verify::check_ensemble_feasibility(
        &[(exec.name.clone(), width)],
        &opts.ensemble_config(),
        path,
    ));
    if let Some(d) = diags.iter().find(|d| d.severity == lint::Severity::Error) {
        return Err(format!("verify {}: {}", d.code, d.message));
    }
    Ok(())
}

/// What a refused journal entry tells the client: the ledger's reason,
/// without the parse-error framing a journal line number would need.
fn refusal(e: WmsError) -> String {
    match e {
        WmsError::ProtocolParse { reason, .. } => reason,
        other => other.to_string(),
    }
}

/// The daemon state, owned by the scheduler thread: the journal, the
/// ledger it folds to, and the run of every member that has one.
struct Daemon {
    opts: ServeOptions,
    registry: SiteRegistry,
    ledger: Ledger,
    /// Indexed by submission id, like `ledger.submissions`.
    runs: Vec<Option<WorkflowRun>>,
    journal: File,
}

impl Daemon {
    /// The one way submission state changes: the ledger rules on the
    /// entry before a byte is written, the line is appended and
    /// flushed, and only then does the ledger take it. A refused or
    /// unwritable entry leaves journal and ledger as they were.
    fn record(&mut self, entry: JournalEntry) -> Result<(), String> {
        self.ledger.check(&entry).map_err(refusal)?;
        let line = proto::render_journal_entry(&entry);
        self.journal
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.journal.flush())
            .map_err(|e| format!("cannot append journal: {e}"))?;
        self.ledger.apply(entry).map_err(refusal)
    }

    fn handle_submit(&mut self, sub: SubmitRequest) -> Result<ResponseHead, String> {
        if let Some(limit) = self.opts.tenant_active {
            if self.ledger.tenant_queued(&sub.tenant) >= limit {
                return Err(WmsError::QuotaExceeded {
                    tenant: sub.tenant,
                    limit,
                }
                .to_string());
            }
        }
        // Resolve the site before journaling: an unknown site is a
        // clean protocol `error` reply naming the registered sites,
        // not a failure buried inside a later `run` round.
        let site = self
            .registry
            .resolve(&sub.site)
            .map_err(|e| e.to_string())?;
        if let SubmitSource::Dax { path } = &sub.source {
            preflight_dax(path, &self.registry, site, &self.opts)?;
        }
        let id = self.ledger.submissions.len();
        // Resolve the trace id before journaling: the journal records
        // the id every downstream surface (member log header, `trace`
        // verb, Chrome export) will use, and recovery re-reads it
        // instead of re-deriving, so a restart cannot re-key spans.
        let mut sub = sub;
        if sub.trace.is_none() {
            sub.trace = Some(TraceId::derive(self.opts.seed, id as u64));
        }
        self.record(JournalEntry::Submission { id, sub })?;
        self.runs.push(None);
        Ok(ResponseHead::Ok(vec![("id".into(), id.to_string())]))
    }

    fn handle_cancel(&mut self, id: usize) -> Result<ResponseHead, String> {
        self.record(JournalEntry::Cancel { id })?;
        Ok(ResponseHead::Ok(vec![("id".into(), id.to_string())]))
    }

    /// Plans the members of one round, in id order, into the batch the
    /// round executes — once, before the round is journaled or (on
    /// recovery) re-executed.
    fn plan_round(&self, round_seed: u64, ids: &[usize]) -> Result<Vec<Submission>, String> {
        let plan = |&id: &usize| {
            let sub = &self.ledger.submissions[id];
            let seed = sub.seed.unwrap_or(round_seed);
            plan_member(&self.registry, sub, seed, self.opts.retries)
        };
        ids.iter().map(plan).collect()
    }

    /// Executes one journaled round: its planned batch runs as one
    /// ensemble on a fresh backend seeded by the round seed, member
    /// logs are written as it goes, and the per-member runs are kept.
    fn execute_round(
        &mut self,
        site: SiteId,
        round_seed: u64,
        ids: &[usize],
        batch: Vec<Submission>,
    ) -> Result<(), String> {
        let _round = prof::scope("serve.round");
        let mut backend = self.registry.backend(site, round_seed);
        let crash_after = self.opts.crash_after_members;
        let mut monitor = LogMonitor::new(&self.opts.dir, &self.ledger, ids, crash_after)
            .map_err(|e| format!("cannot open member logs: {e}"))?;
        let config = self.opts.ensemble_config();
        let ens = Ensemble::run_to_completion_monitored(&mut backend, batch, &config, &mut monitor)
            .map_err(|e| format!("round failed: {e}"))?;
        for (&id, run) in ids.iter().zip(ens.runs) {
            self.runs[id] = Some(run);
        }
        Ok(())
    }

    /// `run`: one round per site over everything queued, sites in
    /// lexicographic order, members in id order. Each round is planned
    /// once, journaled, executed, and journaled done.
    fn handle_run(&mut self) -> Result<ResponseHead, String> {
        // Keyed by the site's primary registry name so rounds execute
        // in lexicographic site order, as they always have; aliases
        // collapse onto the same round via the interned id.
        let mut by_site: BTreeMap<String, (SiteId, Vec<usize>)> = BTreeMap::new();
        for id in self.ledger.queued() {
            let site = self
                .registry
                .resolve(&self.ledger.submissions[id].site)
                .map_err(|e| e.to_string())?;
            by_site
                .entry(self.registry.name(site).to_string())
                .or_insert_with(|| (site, Vec::new()))
                .1
                .push(id);
        }
        let mut rounds = 0usize;
        let mut count = 0usize;
        for (_, (site, ids)) in by_site {
            let round = self.ledger.rounds.len();
            let seed = proto::round_seed(self.opts.seed, round);
            // Plan before journaling so a bad member (e.g. a DAX file
            // deleted since submit) rejects the whole run cleanly
            // instead of leaving an open round.
            let batch = self.plan_round(seed, &ids)?;
            self.record(JournalEntry::RoundStarted {
                round,
                seed,
                members: ids.clone(),
            })?;
            self.execute_round(site, seed, &ids, batch)?;
            self.record(JournalEntry::RoundFinished { round })?;
            rounds += 1;
            count += ids.len();
        }
        Ok(ResponseHead::Ok(vec![
            ("rounds".into(), rounds.to_string()),
            ("members".into(), count.to_string()),
        ]))
    }

    fn rollup_csv(&self) -> Result<String, String> {
        let stats = compute_ensemble(self.runs.iter().flatten());
        if stats.per_workflow.is_empty() {
            return Err("no completed members".into());
        }
        Ok(render_ensemble_csv(&stats))
    }

    /// The Prometheus exposition over every completed member, folded
    /// into a *fresh* registry in member-id order — exactly the fold
    /// `pegasus metrics --from-events m0.events,m1.events,…` performs
    /// offline, so the scrape matches it byte-for-byte.
    fn exposition(&self) -> Result<String, String> {
        let mut registry = MetricsRegistry::new();
        for run in self.runs.iter().flatten() {
            metrics::record_events(&mut registry, &run.events)
                .map_err(|e| format!("cannot record metrics: {e}"))?;
        }
        Ok(registry.render())
    }

    /// `trace id=<n>`: the span tree of a completed member, rendered
    /// from its event stream keyed by its journaled trace id — the
    /// same fold `pegasus trace --from-events members/m<n>.events`
    /// performs offline, byte-for-byte.
    fn handle_trace(&self, id: usize) -> Result<String, String> {
        let run = self
            .runs
            .get(id)
            .ok_or_else(|| format!("unknown submission {id}"))?
            .as_ref()
            .ok_or_else(|| format!("submission {id} has not run"))?;
        let tree = trace::of_run(run, self.ledger.submissions[id].trace);
        Ok(trace::render_text(std::slice::from_ref(&tree)))
    }

    fn respond(&mut self, req: Request) -> String {
        let result: Result<String, String> = match req {
            Request::Submit(sub) => self
                .handle_submit(sub)
                .map(|h| format!("{}\n", proto::render_response_head(&h))),
            Request::Cancel { id } => self
                .handle_cancel(id)
                .map(|h| format!("{}\n", proto::render_response_head(&h))),
            Request::Run => self
                .handle_run()
                .map(|h| format!("{}\n", proto::render_response_head(&h))),
            Request::Trace { id } => self.handle_trace(id).map(|text| lines_response(&text)),
            Request::Status => Ok(lines_response(
                &status_lines(&self.ledger, &self.runs).join("\n"),
            )),
            Request::Rollup => self.rollup_csv().map(|csv| lines_response(&csv)),
            Request::Metrics => self.exposition().map(|text| lines_response(&text)),
            Request::Ping | Request::Shutdown => Ok(format!(
                "{}\n",
                proto::render_response_head(&ResponseHead::Ok(vec![]))
            )),
        };
        result.unwrap_or_else(|msg| {
            format!(
                "{}\n",
                proto::render_response_head(&ResponseHead::Error(msg))
            )
        })
    }
}

/// Frames payload text as an `ok lines=<n>` response.
fn lines_response(payload: &str) -> String {
    let lines: Vec<&str> = if payload.is_empty() {
        Vec::new()
    } else {
        payload.lines().collect()
    };
    let mut out = format!(
        "{}\n",
        proto::render_response_head(&ResponseHead::Lines(lines.len()))
    );
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Rebuilds daemon state from the journal and member logs, re-running
/// the interrupted round if the previous process died mid-ensemble.
fn recover(opts: &ServeOptions) -> Result<Daemon, String> {
    let registry = load_registry(opts)?;
    let jpath = journal_path(&opts.dir);
    let (ledger, whole, torn) = if jpath.exists() {
        read_journal(&opts.dir)?
    } else {
        (Ledger::default(), 0, 0)
    };
    let mut journal = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&jpath)
        .map_err(|e| format!("cannot open {} for append: {e}", jpath.display()))?;
    if torn > 0 {
        // The record the crash interrupted was never acknowledged.
        // Cut it off, or the next record would be glued onto it.
        println!("discarding torn journal tail bytes={torn}");
        journal
            .set_len(whole as u64)
            .map_err(|e| format!("cannot truncate {}: {e}", jpath.display()))?;
    }
    if whole == 0 {
        journal
            .write_all(format!("{}\n", proto::JOURNAL_HEADER).as_bytes())
            .map_err(|e| format!("cannot write journal header: {e}"))?;
    }
    // A journaled site that no longer resolves (the registry file
    // changed under the state directory) fails recovery up front.
    for sub in &ledger.submissions {
        registry.resolve(&sub.site).map_err(|e| e.to_string())?;
    }
    let runs = load_runs(&opts.dir, &ledger)?;
    let mut daemon = Daemon {
        opts: opts.clone(),
        registry,
        ledger,
        runs,
        journal,
    };

    if let Some(open) = daemon.ledger.interrupted().cloned() {
        // Report how far each in-flight member got, then re-execute
        // the whole round with its journaled seed: deterministic
        // engines make the re-run byte-identical to the one the
        // crash destroyed.
        for &id in &open.members {
            let path = member_log_path(&opts.dir, id);
            match fs::read_to_string(&path) {
                Ok(text) => {
                    let n = events::log::parse(&text).map(|ev| ev.len()).unwrap_or(0);
                    println!("recovering member id={id} events={n}");
                }
                Err(_) => println!("recovering member id={id} events=0"),
            }
            let _ = fs::remove_file(&path);
        }
        let site = daemon
            .registry
            .resolve(&daemon.ledger.submissions[open.members[0]].site)
            .map_err(|e| e.to_string())?;
        println!(
            "re-executing interrupted round id={} seed={} members={}",
            open.round,
            open.seed,
            open.members.len()
        );
        let batch = daemon.plan_round(open.seed, &open.members)?;
        daemon.execute_round(site, open.seed, &open.members, batch)?;
        daemon.record(JournalEntry::RoundFinished { round: open.round })?;
    }
    Ok(daemon)
}

/// Handles one protocol connection: greeting, then request/response
/// lines until the peer hangs up or asks for shutdown.
fn handle_connection(stream: TcpStream, tx: mpsc::Sender<SchedMsg>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if writer
        .write_all(format!("{}\n", proto::GREETING).as_bytes())
        .is_err()
    {
        return;
    }
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let req = match proto::parse_request(&line) {
            Ok(req) => req,
            Err(e) => {
                let head = ResponseHead::Error(e.to_string());
                if writer
                    .write_all(format!("{}\n", proto::render_response_head(&head)).as_bytes())
                    .is_err()
                {
                    break;
                }
                continue;
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown);
        let (reply_tx, reply_rx) = mpsc::channel();
        let (written_tx, written_rx) = mpsc::channel();
        let written = is_shutdown.then_some(written_rx);
        if tx.send(SchedMsg::Proto(req, reply_tx, written)).is_err() {
            break;
        }
        let Ok(response) = reply_rx.recv() else { break };
        let wrote = writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.flush());
        if is_shutdown {
            let _ = written_tx.send(());
            break;
        }
        if wrote.is_err() {
            break;
        }
    }
}

/// Handles one HTTP scrape connection: `GET /metrics` returns the
/// exposition, anything else 404.
fn handle_scrape(mut stream: TcpStream, tx: mpsc::Sender<SchedMsg>) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers; scrape requests carry no body.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = if request_line.starts_with("GET ") && path == "/metrics" {
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx.send(SchedMsg::Scrape(reply_tx)).is_err() {
            return;
        }
        match reply_rx.recv() {
            Ok(body) => ("200 OK", body),
            Err(_) => return,
        }
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; \
             charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

/// Runs the daemon until a `shutdown` request: recovery, listeners,
/// scheduler loop. Prints `listening addr=<proto> metrics=<http>`
/// once ready (with resolved ports when 0 was requested).
///
/// # Errors
/// Startup failures: unusable state directory, corrupt journal,
/// unbindable listen address, or a failed recovery round.
pub fn serve(opts: &ServeOptions) -> Result<(), String> {
    fs::create_dir_all(opts.dir.join("members"))
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;
    let mut daemon = recover(opts)?;

    let listener =
        TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let scrape_listener = TcpListener::bind(&opts.metrics_addr)
        .map_err(|e| format!("cannot bind {}: {e}", opts.metrics_addr))?;
    let proto_addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve listen address: {e}"))?;
    let scrape_addr = scrape_listener
        .local_addr()
        .map_err(|e| format!("cannot resolve scrape address: {e}"))?;

    let (tx, rx) = mpsc::channel::<SchedMsg>();
    let proto_tx = tx.clone();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let tx = proto_tx.clone();
            thread::spawn(move || handle_connection(stream, tx));
        }
    });
    let scrape_tx = tx;
    thread::spawn(move || {
        for stream in scrape_listener.incoming() {
            let Ok(stream) = stream else { continue };
            let tx = scrape_tx.clone();
            thread::spawn(move || handle_scrape(stream, tx));
        }
    });

    println!("listening addr={proto_addr} metrics={scrape_addr}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;

    for msg in rx {
        match msg {
            SchedMsg::Proto(req, reply, written) => {
                let shutdown = matches!(req, Request::Shutdown);
                let response = daemon.respond(req);
                let _ = reply.send(response);
                if shutdown {
                    // Wait (bounded) for the handler to flush the
                    // final `ok` before letting the process exit.
                    if let Some(written) = written {
                        let _ = written.recv_timeout(std::time::Duration::from_secs(5));
                    }
                    break;
                }
            }
            SchedMsg::Scrape(reply) => {
                let body = daemon
                    .exposition()
                    .unwrap_or_else(|e| format!("# scrape failed: {e}\n"));
                let _ = reply.send(body);
            }
        }
    }
    Ok(())
}

/// Renders the same status lines a live daemon would, from its state
/// directory alone — journal plus member event logs, no daemon
/// process required. This is the replayed view `pegasus status
/// --dir` serves; byte-identity with the live view is pinned by the
/// serve integration tests.
///
/// # Errors
/// Unreadable/corrupt journal or member logs.
pub fn status_lines_offline(dir: &Path) -> Result<Vec<String>, String> {
    let (ledger, ..) = read_journal(dir)?;
    Ok(status_lines(&ledger, &load_runs(dir, &ledger)?))
}

/// A minimal blocking protocol client, shared by the `pegasus
/// submit`/`status` CLI verbs and the integration tests.
pub mod client {
    use super::*;

    /// One open protocol connection.
    pub struct Connection {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Connection {
        /// Connects and consumes the server greeting.
        ///
        /// # Errors
        /// Connection failure, or a peer that is not a pegasus serve
        /// daemon (wrong greeting).
        pub fn open(addr: &str) -> Result<Self, String> {
            let stream =
                TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
            let writer = stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?;
            let mut reader = BufReader::new(stream);
            let mut greeting = String::new();
            reader
                .read_line(&mut greeting)
                .map_err(|e| format!("cannot read greeting: {e}"))?;
            if greeting.trim_end() != proto::GREETING {
                return Err(format!("unexpected greeting {greeting:?}"));
            }
            Ok(Connection { reader, writer })
        }

        /// Sends one request and reads the full response (head plus
        /// any counted payload lines).
        ///
        /// # Errors
        /// Transport failures or a malformed response head.
        pub fn request(&mut self, req: &Request) -> Result<(ResponseHead, Vec<String>), String> {
            let line = proto::render_request(req);
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .map_err(|e| format!("cannot send request: {e}"))?;
            let mut head_line = String::new();
            self.reader
                .read_line(&mut head_line)
                .map_err(|e| format!("cannot read response: {e}"))?;
            if head_line.is_empty() {
                return Err("connection closed by daemon".into());
            }
            let head =
                proto::parse_response_head(&head_line).map_err(|e| format!("bad response: {e}"))?;
            let mut payload = Vec::new();
            if let ResponseHead::Lines(n) = head {
                for _ in 0..n {
                    let mut l = String::new();
                    self.reader
                        .read_line(&mut l)
                        .map_err(|e| format!("cannot read payload: {e}"))?;
                    payload.push(l.trim_end_matches(['\r', '\n']).to_string());
                }
            }
            Ok((head, payload))
        }
    }

    /// Performs a plain HTTP `GET /metrics` against the daemon's
    /// scrape address and returns the exposition body.
    ///
    /// # Errors
    /// Transport failures or a non-200 response.
    pub fn scrape(addr: &str) -> Result<String, String> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
        stream
            .write_all(
                format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                    .as_bytes(),
            )
            .map_err(|e| format!("cannot send scrape: {e}"))?;
        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .map_err(|e| format!("cannot read scrape: {e}"))?;
        let Some((head, body)) = raw.split_once("\r\n\r\n") else {
            return Err("malformed HTTP response".into());
        };
        let status = head.lines().next().unwrap_or("");
        if !status.contains("200") {
            return Err(format!("scrape failed: {status}"));
        }
        Ok(body.to_string())
    }
}
