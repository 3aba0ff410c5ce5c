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
//! * **The daemon holds live work, not history.** A finished member
//!   is folded once — into a [`WorkflowStatistics`] row as its round
//!   returns, and into the running metrics registry once the request's
//!   last round is done — and its run is dropped; only its event
//!   stream waits for the metrics fold. `trace` reads the member log
//!   back on demand. Restart streams the logs through the same two
//!   steps, one member at a time.
//! * **Recovery re-executes the interrupted round.** The journal's
//!   open `round` entry names the batch and seed; partial member logs
//!   are reported (how far each in-flight member got), deleted, and
//!   the whole round re-runs deterministically — producing logs,
//!   rollup, and metrics byte-identical to the run the crash
//!   destroyed.

use crate::experiment::{
    dax_findings, load_registry, plan_blast2cap3_at, plan_findings, plan_on, registry_catalogs,
};
use gridsim::sites::SiteRegistry;
use pegasus_wms::dax;
use pegasus_wms::engine::{EngineConfig, NoopMonitor, WorkflowRun};
use pegasus_wms::ensemble::{Ensemble, EnsembleConfig, Submission};
use pegasus_wms::error::WmsError;
use pegasus_wms::events::log::LogWriter;
use pegasus_wms::events::{self, EventSink, RunFold, WorkflowEvent};
use pegasus_wms::lint;
use pegasus_wms::metrics::{self, MetricsMonitor, MetricsRegistry};
use pegasus_wms::planner::ExecutableWorkflow;
use pegasus_wms::prof;
use pegasus_wms::serve as proto;
use pegasus_wms::serve::{
    JournalEntry, Ledger, Request, ResponseHead, SubmitRequest, SubmitSource,
};
use pegasus_wms::statistics::{self, render_ensemble_csv, EnsembleStatistics, WorkflowStatistics};
use pegasus_wms::symbols::{NamePool, SiteId};
use pegasus_wms::trace::{self, TraceId};
use pegasus_wms::verify;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Write};
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
/// the ledger and its numbers off its statistics row. The live daemon
/// and the offline replay both render through here.
fn status_lines(ledger: &Ledger, members: &[Option<WorkflowStatistics>]) -> Vec<String> {
    let members = ledger.submissions.iter().zip(members);
    members
        .enumerate()
        .map(|(id, (sub, member))| {
            let state = ledger.state(id, member.as_ref().map(|m| m.succeeded));
            let line = match member {
                Some(row) => proto::StatusLine::of(row, id, &sub.tenant, &sub.site, state),
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

/// The round's observer: appends each member's chunk to its log as the
/// ensemble emits it, so a crash leaves replayable prefixes. The first
/// failed append is kept in `failed` (by batch position) and ends all
/// writing; once `crash_after` trailers are on disk, the process aborts.
fn write_member_logs<'a, W: Write>(
    logs: &'a mut [LogWriter<W>],
    failed: &'a mut Option<usize>,
    crash_after: Option<usize>,
) -> impl FnMut(usize, &[WorkflowEvent]) + 'a {
    let mut completed = 0;
    move |index, chunk| {
        if failed.is_some() {
            return;
        }
        logs[index].events(chunk);
        if logs[index].error().is_some() {
            *failed = Some(index);
            return;
        }
        // A member's last chunk ends with its trailer.
        if matches!(chunk.last(), Some(WorkflowEvent::WorkflowFinished { .. })) {
            completed += 1;
            if crash_after.is_some_and(|k| completed >= k) {
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

/// Reads a finished member's event log back into its run through the
/// event-log reader, handing `tap` every event as it goes — the one
/// reader behind restart, the offline status and `trace`. A log that is
/// missing, unreadable, unparsable, has no trailer or does not fold is
/// an error naming its path.
fn read_member_run(dir: &Path, id: usize, tap: &mut impl EventSink) -> Result<WorkflowRun, String> {
    let path = member_log_path(dir, id);
    let cannot =
        |doing: &str, e: &dyn std::fmt::Display| format!("cannot {doing} {}: {e}", path.display());
    let mut fold = RunFold::default();
    let read = File::open(&path).and_then(|file| {
        events::log::read(file, |_, ev| {
            fold.event(&ev);
            tap.event(&ev);
        })
    });
    read.map_err(|e| cannot("read", &e))?
        .map_err(|e| cannot("parse", &e))?;
    if !fold.closed() {
        return Err(format!("{} has no trailer", path.display()));
    }
    fold.finish().map_err(|e| cannot("replay", &e))
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

/// The members a finished round claimed — the ones with a complete
/// event log — in id order.
fn finished_members(ledger: &Ledger) -> impl Iterator<Item = usize> + '_ {
    (0..ledger.submissions.len()).filter(|&id| ledger.round_of(id).is_some_and(|r| r.finished))
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

/// Plans one submission into the workflow the round will execute.
/// `engine_seed` is the resolved seed (the submission's own, or the
/// round seed) — also used for workload calibration, so recovery
/// re-plans identically.
fn plan_member(
    registry: &SiteRegistry,
    sub: &SubmitRequest,
    engine_seed: u64,
) -> Result<ExecutableWorkflow, String> {
    let site = registry.resolve(&sub.site).map_err(|e| e.to_string())?;
    match &sub.source {
        SubmitSource::Generated { n } => Ok(plan_blast2cap3_at(registry, site, *n, engine_seed)),
        SubmitSource::Dax { path } => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let wf = dax::from_dax(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
            plan_on(registry, site, &wf, |_| {}).map_err(|e| format!("cannot plan {path}: {e}"))
        }
    }
}

/// Plans the members `ids` of one round, in that order, into the batch
/// the round executes — once, before the round is journaled or (on
/// recovery) re-executed. A generated workflow is a function of its
/// site, `n` and seed, and a round has one site, so each distinct
/// `(n, seed)` is planned once and the rest of the round takes clones.
fn plan_round(
    registry: &SiteRegistry,
    ledger: &Ledger,
    default_retries: u32,
    round_seed: u64,
    ids: &[usize],
) -> Result<Vec<Submission>, String> {
    let mut planned: BTreeMap<(usize, u64), ExecutableWorkflow> = BTreeMap::new();
    let plan = |&id: &usize| {
        let sub = &ledger.submissions[id];
        let seed = sub.seed.unwrap_or(round_seed);
        let key = match sub.source {
            SubmitSource::Generated { n } => Some((n, seed)),
            SubmitSource::Dax { .. } => None,
        };
        let exec = match key.and_then(|key| planned.get(&key)) {
            Some(exec) => exec.clone(),
            None => {
                let exec = plan_member(registry, sub, seed)?;
                if let Some(key) = key {
                    planned.insert(key, exec.clone());
                }
                exec
            }
        };
        let cfg = EngineConfig::builder()
            .retries(sub.retries.unwrap_or(default_retries))
            .seed(seed)
            .build();
        Ok(Submission::new(exec, cfg)
            .with_priority(sub.priority)
            .with_tenant(sub.tenant.clone()))
    };
    ids.iter().map(plan).collect()
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
    // The first error-severity finding of a pass refuses the DAX.
    let refuse = |pass: &str, findings: Vec<lint::Diagnostic>| match findings
        .iter()
        .find(|d| d.severity == lint::Severity::Error)
    {
        Some(d) => Err(format!("{pass} {}: {}", d.code, d.message)),
        None => Ok(()),
    };
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (_, tc, rc) = registry_catalogs(registry);
    let fan_limit = lint::DaxLintOptions::default().fan_limit;
    let (findings, parsed) = dax_findings(&text, path, &tc, fan_limit);
    refuse("lint", findings)?;
    // Layer 2 verification: a plan that cannot execute (a consumed
    // file with no producer, stage-in, or replica; a zero quota) is
    // rejected here, not discovered as a failed member mid-round.
    let wf = parsed
        .and_then(|wf| wf.validate().map(|()| wf))
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    let exec =
        plan_on(registry, site, &wf, |_| {}).map_err(|e| format!("cannot plan {path}: {e}"))?;
    let dataflow = verify::DataflowOptions::default();
    let quotas = opts.ensemble_config();
    refuse(
        "verify",
        plan_findings(&wf, &exec, &rc, path, &dataflow, &quotas)?,
    )
}

/// The daemon state, owned by the scheduler thread: the journal, the
/// ledger it folds to, and what it keeps of every finished member — a
/// statistics row each and one running metrics registry. No run outlives
/// the request that produced it.
struct Daemon {
    opts: ServeOptions,
    registry: SiteRegistry,
    ledger: Ledger,
    /// Indexed by submission id, like `ledger.submissions`.
    members: Vec<Option<WorkflowStatistics>>,
    /// Shares the statistics rows' workflow and site names.
    names: NamePool,
    /// Every finished member's events, folded in member-id order —
    /// the fold `pegasus metrics --from-events m0.events,m1.events,…`
    /// performs offline, which is order-dependent, so the scrape
    /// matches it byte-for-byte only while members finish in id order.
    metrics: MetricsRegistry,
    /// The highest member id folded into `metrics`.
    folded: Option<usize>,
    /// A member finished below `folded`: `metrics` is no longer the
    /// id-order fold, and the next scrape rebuilds it from the logs.
    stale: bool,
    journal: File,
}

impl Daemon {
    /// The one way submission state changes: the ledger rules on the
    /// entry before a byte is written, the line is appended and
    /// flushed, and only then does the ledger take it. A refused or
    /// unwritable entry leaves journal and ledger as they were.
    fn record(&mut self, entry: JournalEntry) -> Result<(), String> {
        self.ledger.check(&entry)?;
        let line = proto::render_journal_entry(&entry);
        self.journal
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.journal.flush())
            .map_err(|e| format!("cannot append journal: {e}"))?;
        self.ledger.apply(entry)
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
        self.members.push(None);
        Ok(ResponseHead::Ok(vec![("id".into(), id.to_string())]))
    }

    fn handle_cancel(&mut self, id: usize) -> Result<ResponseHead, String> {
        self.record(JournalEntry::Cancel { id })?;
        Ok(ResponseHead::Ok(vec![("id".into(), id.to_string())]))
    }

    /// Executes one journaled round: its planned batch runs as one
    /// ensemble on a fresh backend seeded by the round seed, member
    /// logs are written as it goes, and the runs come back in batch
    /// order. A member log that could not be appended fails the round.
    fn execute_round(
        &mut self,
        site: SiteId,
        round_seed: u64,
        ids: &[usize],
        batch: Vec<Submission>,
    ) -> Result<Vec<WorkflowRun>, String> {
        let _round = prof::scope("serve.round");
        let mut backend = self.registry.backend(site, round_seed);
        // The trace id rides as a comment line under the header: every
        // event-log parser skips it, so the *events* stay byte-identical
        // to an untraced log, while `pegasus trace --from-events`
        // recovers the id offline.
        let (dir, ledger) = (&self.opts.dir, &self.ledger);
        let open = |&id: &usize| {
            let trace = ledger.submissions[id].trace;
            LogWriter::new(File::create(member_log_path(dir, id))?, trace)
        };
        let mut logs: Vec<LogWriter<File>> = (ids.iter().map(open).collect::<io::Result<_>>())
            .map_err(|e| format!("cannot open member logs: {e}"))?;
        let (mut failed, config) = (None, self.opts.ensemble_config());
        let mut observe = write_member_logs(&mut logs, &mut failed, self.opts.crash_after_members);
        let ens = Ensemble::run_to_completion_monitored(&mut backend, batch, &config, &mut observe)
            .map_err(|e| format!("round failed: {e}"))?;
        drop(observe);
        match failed.and_then(|at| Some((ids[at], logs[at].error()?))) {
            Some((id, e)) => Err(format!("cannot append member log m{id}.events: {e}")),
            None => Ok(ens.runs),
        }
    }

    /// Keeps a finished member's statistics row and drops its run but
    /// for the event stream, which the metrics fold still needs:
    /// returned sized to its length.
    fn summarise(&mut self, id: usize, run: WorkflowRun) -> Vec<WorkflowEvent> {
        self.members[id] = Some(statistics::summary(&run, &mut self.names));
        let mut events = run.events;
        events.shrink_to_fit();
        events
    }

    /// Folds a finished member's events into the running registry,
    /// unless a member above it was folded first.
    fn fold(&mut self, id: usize, events: &[WorkflowEvent]) -> Result<(), String> {
        self.stale |= self.folded.is_some_and(|high| id < high);
        if !self.stale {
            metrics::record_events(&mut self.metrics, events)
                .map_err(|e| format!("cannot record metrics: {e}"))?;
            self.folded = Some(id);
        }
        Ok(())
    }

    /// Summarises and folds every finished member from its log, in id
    /// order and one run at a time, into a fresh registry: how a
    /// restart learns its history, and how a stale registry is rebuilt.
    fn absorb_logs(&mut self) -> Result<(), String> {
        (self.metrics, self.folded, self.stale) = (MetricsRegistry::new(), None, false);
        let finished: Vec<usize> = finished_members(&self.ledger).collect();
        let absorbed = finished.into_iter().try_for_each(|id| {
            let mut monitor = MetricsMonitor::labelled_by_header(&mut self.metrics);
            let run = read_member_run(&self.opts.dir, id, &mut monitor)?;
            self.members[id] = Some(statistics::summary(&run, &mut self.names));
            self.folded = Some(id);
            Ok(())
        });
        self.stale = absorbed.is_err();
        absorbed
    }

    /// `run`: one round per site over everything queued, sites in
    /// lexicographic order, members in id order. Each member is
    /// summarised as its round returns; then the events of every
    /// member the request finished are folded, whether or not its
    /// last round failed.
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
        // Rounds go by site name, not by member id, so the event
        // streams wait for the request's last round and are folded in
        // id order. Every id here is above every earlier request's.
        let mut finished: Vec<(usize, Vec<WorkflowEvent>)> = Vec::new();
        let ran = self.run_rounds(by_site, &mut finished);
        finished.sort_by_key(|(id, _)| *id);
        for (id, events) in finished {
            self.fold(id, &events)?;
        }
        let (rounds, count) = ran?;
        Ok(ResponseHead::Ok(vec![
            ("rounds".into(), rounds.to_string()),
            ("members".into(), count.to_string()),
        ]))
    }

    /// Each round is planned once, journaled, executed, and journaled
    /// done; its members are summarised and their event streams join
    /// `finished`. Returns how many rounds and members ran.
    fn run_rounds(
        &mut self,
        by_site: BTreeMap<String, (SiteId, Vec<usize>)>,
        finished: &mut Vec<(usize, Vec<WorkflowEvent>)>,
    ) -> Result<(usize, usize), String> {
        let mut rounds = 0usize;
        let mut count = 0usize;
        for (_, (site, ids)) in by_site {
            let round = self.ledger.rounds.len();
            let seed = proto::round_seed(self.opts.seed, round);
            // Plan before journaling so a bad member (e.g. a DAX file
            // deleted since submit) rejects the whole run cleanly
            // instead of leaving an open round.
            let batch = plan_round(&self.registry, &self.ledger, self.opts.retries, seed, &ids)?;
            self.record(JournalEntry::RoundStarted {
                round,
                seed,
                members: ids.clone(),
            })?;
            let runs = self.execute_round(site, seed, &ids, batch)?;
            self.record(JournalEntry::RoundFinished { round })?;
            rounds += 1;
            count += ids.len();
            for (id, run) in ids.into_iter().zip(runs) {
                finished.push((id, self.summarise(id, run)));
            }
        }
        Ok((rounds, count))
    }

    fn rollup_csv(&self) -> Result<String, String> {
        let rows: Vec<_> = self.members.iter().flatten().cloned().collect();
        if rows.is_empty() {
            return Err("no completed members".into());
        }
        Ok(render_ensemble_csv(&EnsembleStatistics::from_rows(rows)))
    }

    /// The Prometheus exposition over every finished member: the
    /// running registry, rebuilt first if members finished out of id
    /// order — so the scrape is always the offline id-order fold.
    fn exposition(&mut self) -> Result<String, String> {
        if self.stale {
            self.absorb_logs()?;
        }
        Ok(self.metrics.render())
    }

    /// `trace id=<n>`: the span tree of a finished member, read back
    /// from its event log and keyed by its journaled trace id — what
    /// `pegasus trace --from-events members/m<n>.events` renders
    /// offline, byte-for-byte.
    fn handle_trace(&self, id: usize) -> Result<String, String> {
        self.members
            .get(id)
            .ok_or_else(|| format!("unknown submission {id}"))?
            .as_ref()
            .ok_or_else(|| format!("submission {id} has not run"))?;
        let run = read_member_run(&self.opts.dir, id, &mut NoopMonitor)?;
        let tree = trace::of_run(&run, self.ledger.submissions[id].trace);
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
                &status_lines(&self.ledger, &self.members).join("\n"),
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
    let registry = load_registry(opts.sites.as_deref())?;
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
        crate::outln!("discarding torn journal tail bytes={torn}");
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
    let mut daemon = Daemon {
        opts: opts.clone(),
        registry,
        members: vec![None; ledger.submissions.len()],
        names: NamePool::default(),
        ledger,
        metrics: MetricsRegistry::new(),
        folded: None,
        stale: false,
        journal,
    };

    if let Some(open) = daemon.ledger.interrupted().cloned() {
        // Report how far each in-flight member got, then re-execute
        // the whole round with its journaled seed: deterministic
        // engines make the re-run byte-identical to the one the
        // crash destroyed. A log the crash cut inside a line counts
        // its whole lines, as the journal reader does.
        for &id in &open.members {
            let path = member_log_path(&opts.dir, id);
            let (text, mut n) = (fs::read_to_string(&path).unwrap_or_default(), 0);
            let read = events::log::read(proto::whole_lines(&text).as_bytes(), |_, _| n += 1);
            if !matches!(read, Ok(Ok(_))) {
                n = 0;
            }
            crate::outln!("recovering member id={id} events={n}");
            let _ = fs::remove_file(&path);
        }
        let site = daemon
            .registry
            .resolve(&daemon.ledger.submissions[open.members[0]].site)
            .map_err(|e| e.to_string())?;
        crate::outln!(
            "re-executing interrupted round id={} seed={} members={}",
            open.round,
            open.seed,
            open.members.len()
        );
        let (seed, ids) = (open.seed, &open.members);
        let batch = plan_round(&daemon.registry, &daemon.ledger, opts.retries, seed, ids)?;
        // The runs go: their logs are read back below with the rest.
        daemon.execute_round(site, seed, ids, batch)?;
        daemon.record(JournalEntry::RoundFinished { round: open.round })?;
    }
    daemon.absorb_logs()?;
    Ok(daemon)
}

/// The longest line either port reads, newline excluded. The longest
/// request the grammar admits is a `submit` naming a 4,096-byte
/// (`PATH_MAX`) path with every byte escaped, about 8.3 kB with its
/// fields; a longer line is refused before it is held.
pub const MAX_LINE: usize = 64 * 1024;

/// [`BufRead::read_line`] of at most [`MAX_LINE`] bytes and a newline:
/// past that, an [`io::ErrorKind::InvalidInput`] error naming the bound,
/// with the rest of the line unread.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    let n = reader.take(MAX_LINE as u64 + 1).read_line(line)?;
    if n > MAX_LINE && !line.ends_with('\n') {
        let e = format!("request line longer than {MAX_LINE} bytes");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, e));
    }
    Ok(n)
}

/// Handles one protocol connection: greeting, then request/response
/// lines until the peer hangs up, asks for shutdown or sends a line
/// longer than [`MAX_LINE`], which is answered with one `error`.
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
    let (mut reader, mut line) = (BufReader::new(stream), String::new());
    loop {
        line.clear();
        let (req, oversize) = match read_bounded_line(&mut reader, &mut line) {
            Ok(0) => break,
            Ok(_) => {
                let line = line
                    .strip_suffix('\n')
                    .map_or(&*line, |l| l.strip_suffix('\r').unwrap_or(l));
                if line.trim().is_empty() {
                    continue;
                }
                (proto::parse_request(line).map_err(|e| e.to_string()), false)
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => (Err(e.to_string()), true),
            Err(_) => break,
        };
        let req = match req {
            Ok(req) => req,
            Err(e) => {
                let head = proto::render_response_head(&ResponseHead::Error(e));
                if writer.write_all(format!("{head}\n").as_bytes()).is_err() || oversize {
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
    if read_bounded_line(&mut reader, &mut request_line).is_err() {
        return;
    }
    // Drain headers; scrape requests carry no body.
    loop {
        let mut header = String::new();
        match read_bounded_line(&mut reader, &mut header) {
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

    crate::outln!("listening addr={proto_addr} metrics={scrape_addr}");

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
    let (mut members, mut names) = (vec![None; ledger.submissions.len()], NamePool::default());
    for id in finished_members(&ledger) {
        let run = read_member_run(dir, id, &mut NoopMonitor)?;
        members[id] = Some(statistics::summary(&run, &mut names));
    }
    Ok(status_lines(&ledger, &members))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::builtin_registry;
    use std::cell::Cell;

    /// Shares one write counter across a round's logs and refuses the
    /// `fail_at`-th write.
    struct Flaky<'a> {
        calls: &'a Cell<usize>,
        fail_at: usize,
        written: &'a Cell<usize>,
    }

    impl Write for Flaky<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls.set(self.calls.get() + 1);
            if self.calls.get() == self.fail_at {
                return Err(io::Error::other("disk full"));
            }
            self.written.set(self.written.get() + buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_member_log_append_is_remembered_and_ends_the_writing() {
        let engine = EngineConfig::builder().retries(3).build();
        let run = crate::experiment::simulate_blast2cap3("sandhills", 4, 7, &engine, None);
        let chunks: Vec<&[WorkflowEvent]> = run.events.chunks(5).collect();
        let header = events::log::write(&[]).len();
        // The two headers are the first two writes; chunk `fail_at`
        // (one-based) is write `fail_at + 2`.
        for fail_at in 1..=chunks.len() {
            let (calls, written) = (Cell::new(0), Cell::new(0));
            let (calls, written) = (&calls, &written);
            let log = || {
                let flaky = Flaky {
                    calls,
                    fail_at: fail_at + 2,
                    written,
                };
                LogWriter::new(flaky, None).expect("the header is written")
            };
            let mut logs = vec![log(), log()];
            let mut failed = None;
            let mut observe = write_member_logs(&mut logs, &mut failed, None);
            // Two members' chunks interleave, as in a round.
            for (k, chunk) in chunks.iter().enumerate() {
                observe(k % 2, chunk);
            }
            drop(observe);
            let at = failed.expect("the failure is kept");
            let e = logs[at].error().expect("its log keeps the error");
            assert_eq!((at, e.to_string()), ((fail_at - 1) % 2, "disk full".into()));
            assert_eq!(calls.get(), fail_at + 2, "nothing is written after it");
            let before = events::log::write(&run.events[..5 * (fail_at - 1)]).len();
            assert_eq!(written.get(), header + before, "fail_at={fail_at}");
        }
        // A header that cannot be written fails the open.
        let (calls, written) = (Cell::new(0), Cell::new(0));
        let flaky = Flaky {
            calls: &calls,
            fail_at: 1,
            written: &written,
        };
        let e = LogWriter::new(flaky, None).err().expect("the open fails");
        assert_eq!((e.to_string(), written.get()), ("disk full".into(), 0));
    }

    #[test]
    fn a_round_planned_as_one_batch_equals_its_members_planned_alone() {
        // (n, own seed, retries, priority): 5 is also the round's seed.
        let members = [
            (10, None, None, 0),
            (10, None, Some(7), 2),
            (12, None, None, 0),
            (10, Some(99), None, 0),
            (10, Some(99), None, -1),
            (12, Some(5), None, 0),
        ];
        let mut ledger = Ledger::default();
        for (id, (n, seed, retries, priority)) in members.into_iter().enumerate() {
            let sub = SubmitRequest {
                tenant: format!("tenant{}", id % 3),
                site: "osg".into(),
                seed,
                retries,
                priority,
                trace: None,
                source: SubmitSource::Generated { n },
            };
            ledger
                .apply(JournalEntry::Submission { id, sub })
                .expect("a legal journal");
        }
        let plan =
            |ids: &[usize]| plan_round(builtin_registry(), &ledger, 3, 5, ids).expect("plans");
        let batch = plan(&[0, 1, 2, 3, 4, 5]);
        for (id, member) in batch.iter().enumerate() {
            // A batch of one has nothing to share a plan with.
            let alone = plan(&[id]).remove(0);
            assert_eq!(member.workflow, alone.workflow, "member {id}");
            let cfg = |m: &Submission| (m.config.seed, m.config.retry.max_attempts);
            assert_eq!(cfg(member), cfg(&alone), "member {id}");
            assert_eq!(
                (&member.tenant, member.priority),
                (&alone.tenant, alone.priority)
            );
        }
        assert_eq!(
            (batch[3].config.seed, batch[1].config.retry.max_attempts),
            (99, 8)
        );
        assert_ne!(batch[0].workflow, batch[3].workflow, "a seed of its own");
        assert_eq!(
            batch[2].workflow, batch[5].workflow,
            "the round's seed, spelled out"
        );
    }
}
