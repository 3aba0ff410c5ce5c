//! `serve-soak-4k`: the daemon journey.
//!
//! A real `pegasus serve` process takes 4000 small workflows from 400
//! tenants over its socket in ten rounds, answers the read verbs and
//! an HTTP scrape after each, is shut down, and restarts on the same
//! state directory. Many small DAGs instead of one huge one: the
//! protocol, the journal, per-member planning and log writes, the
//! ensemble scheduler and the scrape fold carry the time, and both
//! the scrape and the restart grow with history.
//!
//! Closed loop: one client thread, each request waits for its reply.
//! Connection A carries the writes (`submit`, `run`), connection B the
//! reads.

use crate::harness::{fail, fnv1a, heavy_tailed_costs, median, peak_rss_mb, quantile};
use crate::harness::{Bench, Protocol, Workload, FNV_BASIS};
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::experiment::{builtin_registry, plan_blast2cap3_at};
use blast2cap3_pegasus::serve::client::{scrape, Connection};
use blast2cap3_pegasus::serve::status_lines_offline;
use pegasus_wms::catalog::paper_catalogs;
use pegasus_wms::dax;
use pegasus_wms::engine::EngineConfig;
use pegasus_wms::ensemble::MemberState;
use pegasus_wms::ensemble::{Ensemble, EnsembleConfig, Submission};
use pegasus_wms::planner::{plan, PlannerConfig};
use pegasus_wms::serve::{
    parse_request, parse_status_line, render_request, round_seed, Ledger, Request, ResponseHead,
    SubmitRequest, SubmitSource,
};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

pub const NAME: &str = "serve-soak-4k";

const ROUNDS: usize = 10;
const SUBMITS_PER_ROUND: usize = 400;
const TENANTS: usize = 400;
const MEMBERS: usize = ROUNDS * SUBMITS_PER_ROUND;
/// OSG members need this many retries under shared-capacity
/// contention (see the repository's ensemble notes).
const RETRIES: u32 = 20;
const SITES: [&str; 2] = ["sandhills", "osg"];

/// A `pegasus serve` child. Dropping it kills the process and waits
/// for it, so no exit path leaves a daemon behind.
struct Daemon {
    child: Child,
    addr: String,
    metrics_addr: String,
    /// Drains the child's standard output so the pipe never fills.
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on ephemeral ports and waits for its
    /// `listening` line, which arrives only once recovery is done.
    fn spawn(pegasus: &Path, dir: &Path, seed: u64) -> Daemon {
        let mut child = Command::new(pegasus)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"])
            .arg("--dir")
            .arg(dir)
            .args(["--seed", &seed.to_string()])
            .args(["--retries", &RETRIES.to_string()])
            .args(["--tenant-active", "8"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn pegasus serve");
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            metrics_addr: String::new(),
            drain: None,
        };
        loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read daemon stdout");
            assert!(n > 0, "daemon exited before printing its listening line");
            if let Some(rest) = line.trim_end().strip_prefix("listening addr=") {
                let (a, m) = rest.split_once(" metrics=").expect("listening line shape");
                daemon.addr = a.to_string();
                daemon.metrics_addr = m.to_string();
                break;
            }
        }
        daemon.drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        }));
        daemon
    }

    fn connect(&self) -> Connection {
        Connection::open(&self.addr).expect("connect to the daemon")
    }

    /// `shutdown` over a fresh connection, then waits for the process.
    /// Returns whether the reply was `ok` and the exit clean, and the
    /// daemon's peak resident set read just before.
    fn shutdown(mut self) -> (bool, f64) {
        let rss = peak_rss_mb(Some(self.child.id()));
        let replied = matches!(
            self.connect().request(&Request::Shutdown),
            Ok((ResponseHead::Ok(_), _))
        );
        let exited = self.child.wait().is_ok_and(|s| s.success());
        (replied && exited, rss)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

pub struct ServeSoak {
    pegasus: PathBuf,
    sessions: usize,
}

impl ServeSoak {
    /// Finds the `pegasus` binary beside this one.
    pub fn new() -> Self {
        let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("no current_exe: {e}")));
        let pegasus = exe.with_file_name("pegasus");
        if !pegasus.is_file() {
            fail(&format!(
                "{} not found; build it first:\n  \
                 cargo build --release --locked --bin pegasus -p blast2cap3-pegasus",
                pegasus.display()
            ));
        }
        ServeSoak {
            pegasus,
            sessions: 0,
        }
    }
}

pub struct State {
    dir: PathBuf,
    dax_path: String,
    daemon_seed: u64,
    /// `None` once the session has shut it down.
    daemon: Option<Daemon>,
    writes: Option<Connection>,
    reads: Option<Connection>,
}

impl Drop for State {
    fn drop(&mut self) {
        self.daemon = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The `i`-th submission of the session: tenants round-robin, sites
/// alternate, and of every ten pairs eight are Fig. 2 at n = 10, one
/// at n = 100 and one a DAX file, which goes through admission
/// preflight.
fn submission(i: usize, dax_path: &str) -> SubmitRequest {
    let source = match (i / 2) % 10 {
        8 => SubmitSource::Generated { n: 100 },
        9 => SubmitSource::Dax {
            path: dax_path.to_string(),
        },
        _ => SubmitSource::Generated { n: 10 },
    };
    SubmitRequest {
        tenant: format!("tenant{:03}", i % TENANTS),
        site: SITES[i % 2].to_string(),
        seed: None,
        retries: None,
        priority: 0,
        trace: None,
        source,
    }
}

/// What the session saw, for the untimed check.
pub struct Output {
    requests: u64,
    errors: u64,
    status: Vec<String>,
    rollup: Vec<String>,
    metrics: String,
    scraped: String,
    status_after_restart: Vec<String>,
    clean_shutdowns: bool,
    daemon_rss_mb: f64,
}

/// One request on `conn`; an `error` head or a broken transport counts
/// as an error and yields no payload.
fn ask(conn: &mut Connection, req: &Request, out: &mut Output) -> Vec<String> {
    out.requests += 1;
    match conn.request(req) {
        Ok((ResponseHead::Error(msg), _)) => {
            out.errors += 1;
            eprintln!("ledger: {NAME}: daemon answered error: {msg}");
            Vec::new()
        }
        Ok((_, payload)) => payload,
        Err(e) => {
            out.errors += 1;
            eprintln!("ledger: {NAME}: request failed: {e}");
            Vec::new()
        }
    }
}

impl Workload for ServeSoak {
    type State = State;
    type Output = Output;

    const PROTOCOL: Protocol = Protocol {
        setups: 25,
        warm_up: false,
        min_reps: 1,
        traced_reps: 1,
        setup_per_rep: true,
    };

    /// A daemon on a fresh state directory, both connections open, and
    /// the one DAX file the session submits by path.
    fn setup(&mut self, b: &mut Bench) -> State {
        self.sessions += 1;
        let dir = b.scratch().join(format!("state-{}", self.sessions));
        std::fs::create_dir_all(&dir).expect("create the state directory");
        let dax_path = dir.join("fig2_n50.dax");
        let params = WorkflowParams::with_n(50).with_chunk_costs(heavy_tailed_costs(b.seed, 50));
        std::fs::write(&dax_path, dax::to_dax(&build_workflow(&params))).expect("write the DAX");
        let daemon_seed = b.subseed(5);
        let daemon = Daemon::spawn(&self.pegasus, &dir, daemon_seed);
        State {
            dax_path: dax_path.to_string_lossy().into_owned(),
            daemon_seed,
            writes: Some(daemon.connect()),
            reads: Some(daemon.connect()),
            daemon: Some(daemon),
            dir,
        }
    }

    fn journey(&mut self, b: &mut Bench, st: &mut State) -> Output {
        let mut out = Output {
            requests: 0,
            errors: 0,
            status: Vec::new(),
            rollup: Vec::new(),
            metrics: String::new(),
            scraped: String::new(),
            status_after_restart: Vec::new(),
            clean_shutdowns: true,
            daemon_rss_mb: 0.0,
        };
        let daemon = st.daemon.take().expect("set-up left a daemon");
        let mut writes = st.writes.take().expect("set-up left connection A");
        let mut reads = st.reads.take().expect("set-up left connection B");

        for round in 0..ROUNDS {
            let whole = b.rec.open("serve.round_trip");
            for i in round * SUBMITS_PER_ROUND..(round + 1) * SUBMITS_PER_ROUND {
                let sub = submission(i, &st.dax_path);
                let span = match sub.source {
                    SubmitSource::Dax { .. } => "serve.submit_dax",
                    SubmitSource::Generated { .. } => "serve.submit",
                };
                let req = Request::Submit(sub);
                b.span(span, || ask(&mut writes, &req, &mut out));
            }
            b.span("serve.round", || ask(&mut writes, &Request::Run, &mut out));
            out.status = b.span("serve.status", || {
                ask(&mut reads, &Request::Status, &mut out)
            });
            out.rollup = b.span("serve.rollup", || {
                ask(&mut reads, &Request::Rollup, &mut out)
            });
            out.metrics = b
                .span("serve.metrics", || {
                    ask(&mut reads, &Request::Metrics, &mut out)
                })
                .join("\n");
            out.requests += 1;
            out.scraped = b
                .span("serve.scrape", || scrape(&daemon.metrics_addr))
                .unwrap_or_else(|e| {
                    out.errors += 1;
                    eprintln!("ledger: {NAME}: scrape failed: {e}");
                    String::new()
                });
            let traced = Request::Trace {
                id: round * SUBMITS_PER_ROUND,
            };
            b.span("serve.trace", || ask(&mut reads, &traced, &mut out));
            b.rec.close(whole);
        }

        drop((writes, reads));
        let (clean, rss) = b.span("serve.shutdown", || daemon.shutdown());
        let restarted = b.span("serve.recovery", || {
            Daemon::spawn(&self.pegasus, &st.dir, st.daemon_seed)
        });
        out.status_after_restart = b.span("serve.status_recovered", || {
            ask(&mut restarted.connect(), &Request::Status, &mut out)
        });
        let (clean_again, rss_again) = b.span("serve.shutdown", || restarted.shutdown());
        out.requests += 2;
        out.clean_shutdowns = clean && clean_again;
        out.daemon_rss_mb = rss.max(rss_again);
        out
    }

    fn check(&mut self, b: &mut Bench, st: &State, out: Output) -> u64 {
        b.units = MEMBERS as f64;
        b.peak_rss_mb = Some(out.daemon_rss_mb);
        b.tally(out.requests, out.errors);
        b.check("both daemons shut down cleanly", out.clean_shutdowns);
        let states: Vec<Option<MemberState>> = out
            .status
            .iter()
            .map(|l| parse_status_line(l).ok().map(|s| s.state))
            .collect();
        let finished = |s: &Option<MemberState>| {
            matches!(s, Some(MemberState::Succeeded | MemberState::Failed))
        };
        b.check(
            "every member ran to a final state",
            states.len() == MEMBERS && states.iter().all(finished),
        );
        let offline = status_lines_offline(&st.dir);
        b.check(
            "live status == status_lines_offline",
            matches!(&offline, Ok(lines) if *lines == out.status),
        );
        b.check(
            "protocol metrics == HTTP scrape",
            !out.metrics.is_empty() && out.metrics.trim_end() == out.scraped.trim_end(),
        );
        b.check(
            "status after restart == status before shutdown",
            out.status_after_restart == out.status,
        );
        let failed_sim = states
            .iter()
            .filter(|s| **s == Some(MemberState::Failed))
            .count();
        b.metric("serve.errors", out.errors as f64);
        b.metric("serve.members_failed_sim", failed_sim as f64);
        [out.status.join("\n"), out.rollup.join("\n"), out.metrics]
            .iter()
            .fold(FNV_BASIS, |h, text| fnv1a(h, text.as_bytes()))
    }

    /// Per-request figures of the traced session, the sizes it left on
    /// disk, and four in-process measurements on the same state: what
    /// restart and the read verbs cost without a socket, and what a
    /// round costs without the daemon around the ensemble.
    fn layers(&mut self, b: &mut Bench, st: &mut State) {
        let us = |seconds: f64| seconds * 1e6;
        let submits = b.rec.durations("serve.submit");
        b.metric("serve.submit_p50_us", us(median(&submits)));
        b.metric("serve.submit_p99_us", us(quantile(&submits, 0.99)));
        b.metric(
            "serve.submit_dax_p50_us",
            us(median(&b.rec.durations("serve.submit_dax"))),
        );
        let rounds = b.rec.durations("serve.round");
        b.metric("serve.round_s", median(&rounds));
        b.metric(
            "serve.round_first_s",
            rounds.first().copied().unwrap_or(0.0),
        );
        b.metric("serve.round_last_s", rounds.last().copied().unwrap_or(0.0));
        b.metric(
            "serve.round_ms_per_member",
            rounds.iter().sum::<f64>() * 1e3 / MEMBERS as f64,
        );
        // The read verbs fold the whole history, so the last round's
        // reading is the one at 4000 members.
        for verb in ["status", "rollup", "metrics", "scrape", "trace"] {
            let last = b.rec.durations(&format!("serve.{verb}")).last().copied();
            b.metric(&format!("serve.{verb}_s"), last.unwrap_or(0.0));
        }
        let recovery = b.rec.fastest_seconds("serve.recovery");
        b.metric("serve.recovery_s", recovery);
        b.metric(
            "serve.recovery_us_per_member",
            us(recovery) / MEMBERS as f64,
        );

        let journal = std::fs::read_to_string(st.dir.join("journal")).unwrap_or_default();
        b.metric("serve.journal_bytes", journal.len() as f64);
        let member_log_bytes: u64 = std::fs::read_dir(st.dir.join("members"))
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        b.metric("serve.member_log_bytes", member_log_bytes as f64);

        let ledger = b.span("serve.ledger_replay", || Ledger::replay(&journal));
        b.check(
            "journal replays to every submission",
            ledger.is_ok_and(|l| l.submissions.len() == MEMBERS),
        );
        let offline = b.span("serve.status_offline", || status_lines_offline(&st.dir));
        b.check("offline status renders", offline.is_ok());

        let lines: Vec<String> = (0..MEMBERS)
            .map(|i| render_request(&Request::Submit(submission(i, &st.dax_path))))
            .collect();
        let id = b.rec.open("serve.proto_roundtrip");
        let round_trips = lines
            .iter()
            .filter(|line| parse_request(line).is_ok_and(|req| render_request(&req) == **line))
            .count();
        b.rec.close(id);
        b.check("every request line round-trips", round_trips == MEMBERS);
        let seconds = b.rec.fastest_seconds("serve.proto_roundtrip");
        b.metric("serve.proto_roundtrip_ns", seconds * 1e9 / MEMBERS as f64);

        // Round 1's batch as the daemon runs it: one ensemble per site,
        // sites in name order, seeded per round — but planned up front
        // and with no journal, socket or member log.
        let registry = builtin_registry();
        let mut by_site: Vec<&str> = SITES.to_vec();
        by_site.sort_unstable();
        for (round, site_name) in by_site.into_iter().enumerate() {
            let site = registry.resolve(site_name).expect("built-in site");
            let seed = round_seed(st.daemon_seed, round);
            let submissions: Vec<Submission> = (0..SUBMITS_PER_ROUND)
                .map(|i| submission(i, &st.dax_path))
                .filter(|sub| sub.site == site_name)
                .map(|sub| {
                    let exec = match &sub.source {
                        SubmitSource::Generated { n } => {
                            plan_blast2cap3_at(registry, site, *n, seed)
                        }
                        SubmitSource::Dax { path } => {
                            let text = std::fs::read_to_string(path).expect("read the DAX");
                            let wf = dax::from_dax(&text).expect("the DAX parses");
                            let (_, tc) = paper_catalogs();
                            let mut rc = crate::run_sandhills::paper_replicas();
                            registry.register_replicas(&mut rc);
                            let cfg = PlannerConfig::for_site(registry.catalog_name(site));
                            plan(&wf, &registry.site_catalog(), &tc, &rc, &cfg).expect("plans")
                        }
                    };
                    let cfg = EngineConfig::builder().retries(RETRIES).seed(seed).build();
                    Submission::new(exec, cfg).with_tenant(sub.tenant)
                })
                .collect();
            let mut backend = registry.backend(site, seed);
            let ran = b.span("ensemble.round", || {
                Ensemble::run_to_completion(&mut backend, submissions, &EnsembleConfig::default())
            });
            b.check(
                "in-process round ran every member",
                ran.is_ok_and(|r| r.runs.len() == SUBMITS_PER_ROUND / SITES.len()),
            );
        }
    }
}
