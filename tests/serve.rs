//! End-to-end tests of the `pegasus serve` daemon: a real daemon
//! process per test (via `CARGO_BIN_EXE_pegasus`), driven over its
//! protocol socket with the library client.
//!
//! The invariants under test are the acceptance criteria of the
//! daemon design:
//!
//! * two tenants submit over concurrent connections, and the same
//!   submissions under the same seed produce a byte-identical rollup
//!   CSV from a second daemon;
//! * the live `status` view, the offline `--dir` replay, the protocol
//!   `metrics` payload, the HTTP `/metrics` scrape, and the offline
//!   `metrics --from-events` fold are all byte-identical;
//! * per-tenant queue quota rejects excess submissions at the socket;
//! * a daemon killed mid-round (`--crash-after-members`) recovers on
//!   restart by re-executing the interrupted round, leaving rollup,
//!   status, member event logs, and per-member span traces
//!   byte-identical to an uninterrupted daemon — across several seeds;
//! * trace ids (explicit or admission-derived) are journaled, so a
//!   crash/restart cannot re-key a member's spans;
//! * a cancelled member survives journal replay: a restarted daemon
//!   reports the same `cancelled` state and never runs it;
//! * a journal cut anywhere inside its final record recovers to the
//!   state of the journal without that record; a journal no daemon
//!   could have written refuses the start before any member runs;
//! * malformed request lines get `error` responses without killing
//!   the connection, and DAX submissions are lint-checked at
//!   admission time;
//! * a line longer than `MAX_LINE` is one `error` reply and the end of
//!   its connection (the scrape port just closes), never a buffer that
//!   grows with what the peer sends;
//! * the daemon keeps no run: a scrape before any member finished is
//!   empty, `trace` reads the member log on demand (a damaged log is
//!   an `error` reply naming it, and the daemon keeps serving), and
//!   over random sessions — three sites sharing two label sets,
//!   cancels, several `run`s, a crash, restarts — every live view
//!   equals its offline fold and its own rendering after a restart.

use blast2cap3::workflow::WorkflowParams;
use blast2cap3_pegasus::serve::client::{self, Connection};
use blast2cap3_pegasus::serve::{status_lines_offline, MAX_LINE};
use pegasus_wms::events;
use pegasus_wms::metrics::{self, MetricsRegistry};
use pegasus_wms::serve::{Request, ResponseHead, SubmitRequest, SubmitSource};
use pegasus_wms::trace::TraceId;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// A daemon child process plus its resolved listen addresses.
struct Daemon {
    child: Child,
    addr: String,
    metrics_addr: String,
    /// What recovery printed before the `listening` line.
    startup: Vec<String>,
}

impl Daemon {
    /// Spawns `pegasus serve` on ephemeral ports and waits for its
    /// `listening` line (which arrives only after recovery finishes).
    fn start(dir: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pegasus"))
            .arg("serve")
            .args([
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
                "--dir",
            ])
            .arg(dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn pegasus serve");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let mut startup = Vec::new();
        let (addr, metrics_addr) = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read daemon stdout");
            assert!(n > 0, "daemon exited before printing its listening line");
            if let Some(rest) = line.trim_end().strip_prefix("listening addr=") {
                let (a, m) = rest.split_once(" metrics=").expect("listening line shape");
                break (a.to_string(), m.to_string());
            }
            startup.push(line.trim_end().to_string());
        };
        // Keep draining stdout so the pipe can never block the daemon.
        std::thread::spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                if reader.read_line(&mut sink).unwrap_or(0) == 0 {
                    break;
                }
            }
        });
        Daemon {
            child,
            addr,
            metrics_addr,
            startup,
        }
    }

    fn connect(&self) -> Connection {
        Connection::open(&self.addr).expect("connect to daemon")
    }

    /// Clean stop: `shutdown` must answer `ok` before the process exits.
    fn shutdown(mut self) {
        let (head, _) = self
            .connect()
            .request(&Request::Shutdown)
            .expect("shutdown round-trip");
        assert_eq!(head, ResponseHead::Ok(vec![]), "shutdown must answer ok");
        let status = self.child.wait().expect("wait for daemon");
        assert!(status.success(), "daemon must exit cleanly after shutdown");
    }

    /// Waits for the process to die on its own (crash tests).
    fn wait_for_death(mut self) {
        let status = self.child.wait().expect("wait for daemon");
        assert!(!status.success(), "the crash hook must abort the process");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A per-test scratch directory under the target tmpdir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pegasus-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn dax_submission(tenant: &str, path: &Path) -> Request {
    Request::Submit(SubmitRequest {
        tenant: tenant.into(),
        site: "sandhills".into(),
        seed: None,
        retries: None,
        priority: 0,
        trace: None,
        source: SubmitSource::Dax {
            path: path.display().to_string(),
        },
    })
}

fn generated(tenant: &str, site: &str, n: usize) -> Request {
    Request::Submit(SubmitRequest {
        tenant: tenant.into(),
        site: site.into(),
        seed: None,
        retries: None,
        priority: 0,
        trace: None,
        source: SubmitSource::Generated { n },
    })
}

/// Sends a request that must succeed with `ok`, returning its
/// key=value pairs.
fn expect_ok(conn: &mut Connection, req: &Request) -> Vec<(String, String)> {
    match conn.request(req).expect("request round-trip") {
        (ResponseHead::Ok(pairs), _) => pairs,
        (other, _) => panic!("expected ok for {req:?}, got {other:?}"),
    }
}

/// Sends a request that must succeed with a counted payload.
fn expect_lines(conn: &mut Connection, req: &Request) -> Vec<String> {
    match conn.request(req).expect("request round-trip") {
        (ResponseHead::Lines(n), payload) => {
            assert_eq!(payload.len(), n);
            payload
        }
        (other, _) => panic!("expected lines for {req:?}, got {other:?}"),
    }
}

/// The offline `pegasus metrics --from-events` fold over a daemon
/// directory: parse each member log in id order into a fresh registry.
fn offline_exposition(dir: &Path, member_ids: &[usize]) -> String {
    let mut registry = MetricsRegistry::new();
    for id in member_ids {
        let path = dir.join("members").join(format!("m{id}.events"));
        let text = std::fs::read_to_string(&path).expect("read member log");
        let stream = events::log::parse(&text).expect("parse member log");
        metrics::record_events(&mut registry, &stream).expect("record member stream");
    }
    registry.render()
}

/// One full two-tenant session: interleaved submissions over two live
/// connections, one `run`, then every rendered view. Returns
/// `(status, rollup, metrics)` payloads.
fn two_tenant_session(dir: &Path) -> (Vec<String>, Vec<String>, Vec<String>) {
    let daemon = Daemon::start(
        dir,
        &["--seed", "20140519", "--slots", "8", "--tenant-slots", "6"],
    );
    // Two tenants hold live connections at the same time; their
    // submissions interleave on one socket each.
    let mut alice = daemon.connect();
    let mut bob = daemon.connect();
    assert_eq!(
        expect_ok(&mut alice, &generated("alice", "sandhills", 10)),
        vec![("id".to_string(), "0".to_string())]
    );
    assert_eq!(
        expect_ok(&mut bob, &generated("bob", "sandhills", 10)),
        vec![("id".to_string(), "1".to_string())]
    );
    assert_eq!(
        expect_ok(&mut alice, &generated("alice", "sandhills", 40)),
        vec![("id".to_string(), "2".to_string())]
    );
    expect_ok(&mut bob, &Request::Ping);

    let run = expect_ok(&mut alice, &Request::Run);
    assert!(
        run.contains(&("members".to_string(), "3".to_string())),
        "all three members must run: {run:?}"
    );

    let status = expect_lines(&mut bob, &Request::Status);
    assert_eq!(status.len(), 3);
    for line in &status {
        assert!(line.contains("state=succeeded"), "member failed: {line}");
    }
    let rollup = expect_lines(&mut alice, &Request::Rollup);
    let metrics_payload = expect_lines(&mut bob, &Request::Metrics);

    // Live status ≡ offline replay of the state directory.
    let offline = status_lines_offline(dir).expect("offline status");
    assert_eq!(
        status, offline,
        "live and offline status must be byte-identical"
    );

    // Protocol metrics ≡ HTTP scrape ≡ offline --from-events fold.
    let proto_text = metrics_payload.join("\n") + "\n";
    let scraped = client::scrape(&daemon.metrics_addr).expect("HTTP scrape");
    assert_eq!(proto_text, scraped, "protocol and HTTP metrics must match");
    assert_eq!(
        proto_text,
        offline_exposition(dir, &[0, 1, 2]),
        "live metrics must match the offline event-log fold"
    );

    daemon.shutdown();
    (status, rollup, metrics_payload)
}

#[test]
fn two_concurrent_tenants_replay_byte_identical_under_one_seed() {
    let a = two_tenant_session(&scratch("tenants-a"));
    let b = two_tenant_session(&scratch("tenants-b"));
    assert_eq!(a.0, b.0, "status must be byte-identical across daemons");
    assert_eq!(a.1, b.1, "rollup CSV must be byte-identical across daemons");
    assert_eq!(a.2, b.2, "metrics must be byte-identical across daemons");
}

/// The daemon flags of the two-site session.
const TWO_SITE_FLAGS: [&str; 4] = ["--seed", "11", "--retries", "10"];

/// The two-site session's submissions: alice at n = 100 on Sandhills,
/// bob at n = 100 on OSG. Returns the connection they went over.
fn submit_two_sites(daemon: &Daemon) -> Connection {
    let mut conn = daemon.connect();
    expect_ok(&mut conn, &generated("alice", "sandhills", 100));
    expect_ok(&mut conn, &generated("bob", "osg", 100));
    conn
}

/// A payload as the committed file holds it: one line each, every
/// line newline-terminated.
fn payload_text(lines: &[String]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Two tenants on two sites scrape the committed exposition live, from
/// the offline fold of their logs, after a restart over a torn journal
/// tail and after a crash in the first round.
#[test]
fn two_site_scrape_matches_the_golden_live_offline_torn_and_recovered() {
    let golden = std::fs::read_to_string("tests/fixtures/serve/two_site.prom").unwrap();
    let flags = TWO_SITE_FLAGS;
    let crash = [&flags[..], &["--crash-after-members", "1"]].concat();
    let scrape = |daemon: &Daemon| client::scrape(&daemon.metrics_addr).expect("HTTP scrape");
    let submit = submit_two_sites;
    let dir = scratch("golden");
    let daemon = Daemon::start(&dir, &flags);
    expect_ok(&mut submit(&daemon), &Request::Run);
    assert_eq!(scrape(&daemon), golden, "live");
    assert_eq!(offline_exposition(&dir, &[0, 1]), golden, "offline");
    daemon.shutdown();
    let journal = std::fs::read(dir.join("journal")).expect("journal");
    std::fs::write(dir.join("journal"), &journal[..journal.len() - 7]).expect("tear");
    let torn = Daemon::start(&dir, &flags);
    assert_eq!(scrape(&torn), golden, "after a torn tail");
    torn.shutdown();
    let dir = scratch("golden-crash");
    let crashing = Daemon::start(&dir, &crash);
    assert!(submit(&crashing).request(&Request::Run).is_err());
    crashing.wait_for_death();
    let recovered = Daemon::start(&dir, &flags);
    expect_ok(&mut recovered.connect(), &Request::Run);
    assert_eq!(scrape(&recovered), golden, "after a crash");
    recovered.shutdown();
}

/// The two-site session's `status` and `rollup` payloads equal the
/// committed bytes live, from the offline replay of its directory and
/// after a restart that reads every member back from its log.
#[test]
fn two_site_status_and_rollup_match_their_goldens_live_offline_and_restarted() {
    let read = |name: &str| std::fs::read_to_string(format!("tests/fixtures/serve/{name}"));
    let status = read("two_site.status").unwrap();
    let rollup = read("two_site.rollup.csv").unwrap();
    let views = |daemon: &Daemon| {
        let mut conn = daemon.connect();
        let mut view = |req| payload_text(&expect_lines(&mut conn, &req));
        (view(Request::Status), view(Request::Rollup))
    };
    let dir = scratch("golden-views");
    let daemon = Daemon::start(&dir, &TWO_SITE_FLAGS);
    expect_ok(&mut submit_two_sites(&daemon), &Request::Run);
    assert_eq!(views(&daemon), (status.clone(), rollup.clone()), "live");
    let offline = status_lines_offline(&dir).expect("offline status");
    assert_eq!(payload_text(&offline), status, "offline");
    daemon.shutdown();
    let restarted = Daemon::start(&dir, &TWO_SITE_FLAGS);
    assert_eq!(views(&restarted), (status, rollup), "after a restart");
    restarted.shutdown();
}

#[test]
fn tenant_queue_quota_rejects_excess_submissions_at_the_socket() {
    let dir = scratch("quota");
    let daemon = Daemon::start(&dir, &["--tenant-active", "2"]);
    let mut conn = daemon.connect();
    expect_ok(&mut conn, &generated("alice", "sandhills", 10));
    expect_ok(&mut conn, &generated("alice", "sandhills", 10));
    let (head, _) = conn
        .request(&generated("alice", "sandhills", 10))
        .expect("request round-trip");
    match head {
        ResponseHead::Error(msg) => {
            assert!(msg.contains("alice") && msg.contains("quota"), "{msg}");
        }
        other => panic!("third alice submission must be rejected, got {other:?}"),
    }
    // The quota is per tenant: bob is unaffected.
    expect_ok(&mut conn, &generated("bob", "sandhills", 10));
    // Cancelling frees alice's queue depth.
    expect_ok(&mut conn, &Request::Cancel { id: 0 });
    expect_ok(&mut conn, &generated("alice", "sandhills", 10));
    daemon.shutdown();
}

#[test]
fn malformed_lines_and_bad_dax_submissions_are_rejected_inline() {
    let dir = scratch("reject");
    let daemon = Daemon::start(&dir, &[]);

    // Raw socket: a garbage line gets `error` and the connection lives.
    let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("greeting");
    assert!(line.starts_with("# pegasus serve"), "greeting: {line:?}");
    stream.write_all(b"frobnicate the queue\n").expect("send");
    line.clear();
    reader.read_line(&mut line).expect("error response");
    assert!(line.starts_with("error "), "got {line:?}");
    stream.write_all(b"ping\n").expect("send after error");
    line.clear();
    reader.read_line(&mut line).expect("ping response");
    assert_eq!(line.trim_end(), "ok", "connection must survive a bad line");

    // A DAX that fails the admission lint is rejected before journaling.
    let bad = dir.join("bad.dax");
    std::fs::write(&bad, "job id=a name=\n").expect("write bad dax");
    let mut conn = daemon.connect();
    let (head, _) = conn
        .request(&dax_submission("alice", &bad))
        .expect("request round-trip");
    assert!(
        matches!(head, ResponseHead::Error(_)),
        "bad DAX must be rejected, got {head:?}"
    );

    // What the daemon refuses a DAX for is what `pegasus lint` reports
    // about it: same code, same message.
    for fixture in [
        "e0101_syntax.dax",
        "e0102_duplicate_job.dax",
        "e0103_self_edge.dax",
        "e0104_repeated_output.dax",
        "e0105_unknown_edge.dax",
    ] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint");
        let path = path.join(fixture);
        let lint = Command::new(env!("CARGO_BIN_EXE_pegasus"))
            .arg("lint")
            .arg(&path)
            .output()
            .expect("pegasus lint");
        let lint = String::from_utf8_lossy(&lint.stdout).into_owned();
        let (code, message) = lint
            .strip_prefix("error[")
            .and_then(|rest| rest.lines().next()?.split_once("]: "))
            .unwrap_or_else(|| panic!("{fixture}: lint opens with its error: {lint}"));
        assert_eq!(code, &fixture[..5].to_uppercase(), "{fixture}: {lint}");
        match conn.request(&dax_submission("alice", &path)) {
            Ok((ResponseHead::Error(msg), _)) => {
                assert_eq!(msg, format!("lint {code}: {message}"), "{fixture}")
            }
            other => panic!("{fixture} must be rejected, got {other:?}"),
        }
    }

    // A `runtime` that is not a finite duration panicked the round that
    // ran it, and every restart re-ran the journaled round: it is
    // refused at admission, and the connection lives.
    let clean = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint/clean_small.dax");
    let clean = std::fs::read_to_string(clean).expect("read clean_small.dax");
    for runtime in ["NaN", "inf", "-1"] {
        let path = dir.join(format!("rt_{runtime}.dax"));
        let text = clean.replacen("runtime=\"10\"", &format!("runtime=\"{runtime}\""), 1);
        std::fs::write(&path, text).expect("write dax");
        match conn.request(&dax_submission("alice", &path)) {
            Ok((ResponseHead::Error(msg), _)) => {
                assert_eq!(msg, format!("lint E0101: bad runtime \"{runtime}\""))
            }
            other => panic!("runtime {runtime} must be rejected, got {other:?}"),
        }
        expect_ok(&mut conn, &Request::Ping);
    }

    // An unknown site is an `error` reply naming the registered
    // sites — refused before journaling, not a failure inside a
    // later `run` round.
    let (head, _) = conn
        .request(&generated("alice", "mars", 10))
        .expect("request round-trip");
    match head {
        ResponseHead::Error(msg) => assert!(
            msg.contains("known sites: osg, osg_churning, osg_prestaged, sandhills"),
            "error must list the registry: {msg}"
        ),
        other => panic!("unknown site must be rejected, got {other:?}"),
    }

    // Nothing was admitted: status is empty and nothing was journaled.
    assert_eq!(
        expect_lines(&mut conn, &Request::Status),
        Vec::<String>::new()
    );
    let journal = std::fs::read_to_string(dir.join("journal")).expect("journal");
    assert!(!journal.contains("submission"), "{journal}");
    daemon.shutdown();
}

#[test]
fn dax_submissions_pass_admission_lint_and_run() {
    let dir = scratch("dax");
    let dax = dir.join("b2c3.dax");
    let out = Command::new(env!("CARGO_BIN_EXE_pegasus"))
        .args(["generate-dax", "--n", "5", "--out"])
        .arg(&dax)
        .output()
        .expect("generate-dax");
    assert!(out.status.success());

    let daemon = Daemon::start(&dir, &[]);
    let mut conn = daemon.connect();
    expect_ok(&mut conn, &dax_submission("carol", &dax));
    expect_ok(&mut conn, &Request::Run);
    let status = expect_lines(&mut conn, &Request::Status);
    assert_eq!(status.len(), 1);
    assert!(
        status[0].contains("tenant=carol") && status[0].contains("state=succeeded"),
        "{}",
        status[0]
    );

    // A member whose DAX file vanished since admission rejects the
    // whole `run` before a `round` line is journaled: the member stays
    // queued and the daemon stays up.
    let gone = dir.join("gone.dax");
    std::fs::copy(&dax, &gone).expect("copy dax");
    expect_ok(&mut conn, &dax_submission("carol", &gone));
    expect_ok(&mut conn, &generated("dave", "sandhills", 10));
    std::fs::remove_file(&gone).expect("remove dax");
    match conn.request(&Request::Run).expect("request round-trip") {
        (ResponseHead::Error(msg), _) => assert!(msg.contains("gone.dax"), "{msg}"),
        other => panic!("run over a vanished DAX must be rejected, got {other:?}"),
    }
    let journal = std::fs::read_to_string(dir.join("journal")).expect("journal");
    assert_eq!(
        journal.matches("\nround id=").count(),
        1,
        "the rejected run must not journal a round:\n{journal}"
    );
    let status = expect_lines(&mut conn, &Request::Status);
    assert!(
        status[1].contains("state=queued") && status[2].contains("state=queued"),
        "{status:?}"
    );
    daemon.shutdown();
}

#[test]
fn cancelled_member_survives_journal_replay() {
    let dir = scratch("cancel-replay");
    let daemon = Daemon::start(&dir, &["--seed", "20140519"]);
    let mut conn = daemon.connect();
    expect_ok(&mut conn, &generated("alice", "sandhills", 10));
    expect_ok(&mut conn, &generated("bob", "sandhills", 10));
    expect_ok(&mut conn, &Request::Cancel { id: 0 });
    let run = expect_ok(&mut conn, &Request::Run);
    assert!(
        run.contains(&("members".to_string(), "1".to_string())),
        "only bob may run: {run:?}"
    );
    let status = expect_lines(&mut conn, &Request::Status);
    assert_eq!(status.len(), 2);
    assert!(status[0].contains("state=cancelled"), "{}", status[0]);
    assert!(status[1].contains("state=succeeded"), "{}", status[1]);
    // A cancelled member has no run, hence no spans to serve.
    match conn.request(&Request::Trace { id: 0 }) {
        Ok((ResponseHead::Error(msg), _)) => assert!(msg.contains("not run"), "{msg}"),
        other => panic!("trace of a cancelled member must error, got {other:?}"),
    }
    drop(conn);
    daemon.shutdown();

    // The cancelled member never opened an event log.
    assert!(
        !dir.join("members").join("m0.events").exists(),
        "cancelled member must not write an event log"
    );

    // Restart: the journal replay must reconstruct the cancel — same
    // status lines, member 0 still cancelled and still not run.
    let restarted = Daemon::start(&dir, &["--seed", "20140519"]);
    let mut conn = restarted.connect();
    let replayed = expect_lines(&mut conn, &Request::Status);
    assert_eq!(
        replayed, status,
        "status must be byte-identical across journal replay"
    );
    drop(conn);
    restarted.shutdown();

    // The offline replay of the state directory agrees too.
    let offline = status_lines_offline(&dir).expect("offline status");
    assert_eq!(offline, status);
}

/// Runs the reference (uninterrupted) and the crash/restart session
/// for one seed, asserting every view and every member log matches
/// byte-for-byte.
fn crash_recovery_round_trip(seed: u64) {
    let seed_s = seed.to_string();
    // Bob pins an explicit trace id; alice lets the daemon derive one
    // at admission. Both must survive the crash via the journal — the
    // recovered daemon re-reads them rather than re-deriving.
    let bob_trace: TraceId = "deadbeef".parse().expect("hex trace id");
    let submit_all = |daemon: &Daemon| {
        let mut conn = daemon.connect();
        expect_ok(&mut conn, &generated("alice", "sandhills", 10));
        expect_ok(
            &mut conn,
            &Request::Submit(SubmitRequest {
                tenant: "bob".into(),
                site: "sandhills".into(),
                seed: None,
                retries: None,
                priority: 0,
                trace: Some(bob_trace),
                source: SubmitSource::Generated { n: 40 },
            }),
        );
    };
    let traces = |daemon: &Daemon| -> Vec<Vec<String>> {
        let mut conn = daemon.connect();
        (0..2)
            .map(|id| expect_lines(&mut conn, &Request::Trace { id }))
            .collect()
    };

    // Reference: the run the crash is never allowed to perturb.
    let ref_dir = scratch(&format!("ref-{seed}"));
    let reference = Daemon::start(&ref_dir, &["--seed", &seed_s]);
    submit_all(&reference);
    let mut conn = reference.connect();
    expect_ok(&mut conn, &Request::Run);
    let ref_status = expect_lines(&mut conn, &Request::Status);
    let ref_rollup = expect_lines(&mut conn, &Request::Rollup);
    drop(conn);
    let ref_traces = traces(&reference);
    reference.shutdown();

    // Crash: same submissions, but the daemon aborts after the first
    // member completion — mid-round, journal round left open.
    let crash_dir = scratch(&format!("crash-{seed}"));
    let crashing = Daemon::start(
        &crash_dir,
        &["--seed", &seed_s, "--crash-after-members", "1"],
    );
    submit_all(&crashing);
    let mut conn = crashing.connect();
    assert!(
        conn.request(&Request::Run).is_err(),
        "the run request must die with the daemon"
    );
    drop(conn);
    crashing.wait_for_death();
    let journal = std::fs::read_to_string(crash_dir.join("journal")).expect("journal");
    assert!(
        journal.contains("round id=0") && !journal.contains("round-done id=0"),
        "the crash must leave round 0 open:\n{journal}"
    );

    // Restart: recovery re-executes the interrupted round before
    // listening; every view must match the uninterrupted reference.
    let recovered = Daemon::start(&crash_dir, &["--seed", &seed_s]);
    let mut conn = recovered.connect();
    let status = expect_lines(&mut conn, &Request::Status);
    let rollup = expect_lines(&mut conn, &Request::Rollup);
    assert_eq!(status, ref_status, "seed {seed}: status must match");
    assert_eq!(rollup, ref_rollup, "seed {seed}: rollup CSV must match");
    drop(conn);
    let rec_traces = traces(&recovered);
    assert_eq!(
        rec_traces, ref_traces,
        "seed {seed}: span trees must survive crash/restart byte-identically"
    );
    assert!(
        rec_traces[1]
            .first()
            .is_some_and(|l| l.contains("00000000deadbeef")),
        "seed {seed}: bob's explicit trace id must key his recovered spans: {:?}",
        rec_traces[1].first()
    );
    recovered.shutdown();

    for id in 0..2 {
        let name = format!("m{id}.events");
        let a = std::fs::read(ref_dir.join("members").join(&name)).expect("reference log");
        let b = std::fs::read(crash_dir.join("members").join(&name)).expect("recovered log");
        assert_eq!(a, b, "seed {seed}: {name} must be byte-identical");
        let expect = if id == 1 {
            bob_trace
        } else {
            TraceId::derive(seed, id as u64)
        };
        let read = pegasus_wms::events::log::read(&b[..], |_, _| {});
        assert_eq!(
            read.expect("utf8 member log"),
            Ok(Some(expect)),
            "seed {seed}: {name} must carry its journaled trace id in the header"
        );
    }
}

#[test]
fn crash_mid_round_then_restart_recovers_byte_identical_state() {
    for seed in [7, 11, 42] {
        crash_recovery_round_trip(seed);
    }
}

/// Recovery reports how far an in-flight member got by the whole lines
/// of its log: a log the crash cut inside its last line counts the
/// events before the cut, and the restart recovers exactly what a
/// restart over the uncut log recovers.
#[test]
fn recovery_counts_the_whole_lines_of_a_member_log_cut_mid_line() {
    let crashed = |name: &str| {
        let dir = scratch(name);
        let daemon = Daemon::start(&dir, &["--seed", "7", "--crash-after-members", "1"]);
        let mut conn = daemon.connect();
        expect_ok(&mut conn, &generated("alice", "sandhills", 10));
        expect_ok(&mut conn, &generated("bob", "sandhills", 40));
        assert!(conn.request(&Request::Run).is_err());
        drop(conn);
        daemon.wait_for_death();
        dir
    };
    let (uncut, cut) = (crashed("whole-lines-uncut"), crashed("whole-lines-cut"));

    // The member the crash left in flight is the one with no trailer.
    let log_of = |id: usize| cut.join("members").join(format!("m{id}.events"));
    let id = (0..2)
        .find(|&id| {
            let text = std::fs::read_to_string(log_of(id)).expect("member log");
            !text.contains("workflow-finished")
        })
        .expect("one member is in flight");
    let text = std::fs::read_to_string(log_of(id)).expect("member log");
    let events = events::log::parse(&text)
        .expect("an uncut prefix parses")
        .len();
    let last = text.lines().last().expect("the log has lines");
    assert!(events > 1 && !last.starts_with('#'), "last line {last:?}");
    std::fs::write(log_of(id), &text[..text.len() - last.len() / 2]).expect("cut the log");

    let views = |dir: &Path, events: usize| {
        let daemon = Daemon::start(dir, &["--seed", "7"]);
        let line = format!("recovering member id={id} events={events}");
        assert!(daemon.startup.contains(&line), "{:?}", daemon.startup);
        let status = expect_lines(&mut daemon.connect(), &Request::Status);
        let scrape = client::scrape(&daemon.metrics_addr).expect("HTTP scrape");
        daemon.shutdown();
        (status, scrape)
    };
    assert_eq!(views(&cut, events - 1), views(&uncut, events));
}

#[test]
fn journal_torn_inside_its_final_record_recovers_to_the_record_before() {
    // Two rounds, one cancel: the journal's final record is round 1's
    // `round-done`.
    let dir = scratch("torn-ref");
    let daemon = Daemon::start(&dir, &["--seed", "20140519"]);
    let mut conn = daemon.connect();
    expect_ok(&mut conn, &generated("alice", "sandhills", 10));
    expect_ok(&mut conn, &generated("bob", "sandhills", 10));
    expect_ok(&mut conn, &Request::Run);
    expect_ok(&mut conn, &generated("alice", "sandhills", 10));
    expect_ok(&mut conn, &generated("bob", "sandhills", 10));
    expect_ok(&mut conn, &Request::Cancel { id: 3 });
    expect_ok(&mut conn, &Request::Run);
    let status = expect_lines(&mut conn, &Request::Status);
    drop(conn);
    daemon.shutdown();
    let journal = std::fs::read(dir.join("journal")).expect("journal");
    let last = journal[..journal.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("a record before the last")
        + 1;
    assert_eq!(&journal[last..], b"round-done id=1\n");
    let log2 = std::fs::read(dir.join("members").join("m2.events")).expect("m2 log");

    // Without that record round 1 is open: recovery re-executes it to
    // the same bytes and journals the `round-done` again. Every cut
    // inside the record must land in exactly that state.
    for keep in 0..journal.len() - last {
        let cut_dir = scratch(&format!("torn-{keep}"));
        std::fs::create_dir_all(cut_dir.join("members")).expect("members dir");
        for id in 0..3 {
            let name = format!("m{id}.events");
            std::fs::copy(
                dir.join("members").join(&name),
                cut_dir.join("members").join(&name),
            )
            .expect("copy member log");
        }
        std::fs::write(cut_dir.join("journal"), &journal[..last + keep]).expect("cut journal");

        let recovered = Daemon::start(&cut_dir, &["--seed", "20140519"]);
        let torn = format!("discarding torn journal tail bytes={keep}");
        assert_eq!(
            recovered.startup.contains(&torn),
            keep > 0,
            "keep={keep}: {:?}",
            recovered.startup
        );
        assert!(
            recovered
                .startup
                .iter()
                .any(|l| l.starts_with("re-executing interrupted round id=1")),
            "keep={keep}: {:?}",
            recovered.startup
        );
        let mut conn = recovered.connect();
        assert_eq!(
            expect_lines(&mut conn, &Request::Status),
            status,
            "keep={keep}"
        );
        drop(conn);
        recovered.shutdown();
        assert_eq!(
            std::fs::read(cut_dir.join("journal")).expect("journal"),
            journal,
            "keep={keep}: the fragment is cut off before the next record is appended"
        );
        assert_eq!(
            std::fs::read(cut_dir.join("members").join("m2.events")).expect("m2 log"),
            log2,
            "keep={keep}"
        );
        assert_eq!(
            status_lines_offline(&cut_dir).expect("offline status"),
            status
        );
        let _ = std::fs::remove_dir_all(&cut_dir);
    }
}

#[test]
fn a_journal_no_daemon_could_have_written_refuses_the_start() {
    let submission =
        "# pegasus serve journal v2\nsubmission id=0 tenant=alice site=sandhills n=10\n";
    for (name, tail, line) in [
        // A double cancel, then a round naming the cancelled member
        // twice: replay used to accept this and run member 0 twice
        // into one log.
        (
            "illegal",
            "cancel id=0\ncancel id=0\nround id=0 seed=5 members=0,0\n",
            "line 4",
        ),
        // A record cut short but newline-terminated was written that
        // way: corrupt, not torn.
        ("malformed", "submission id=1 tenant=alice si\n", "line 3"),
    ] {
        let dir = scratch(&format!("{name}-journal"));
        std::fs::write(dir.join("journal"), format!("{submission}{tail}")).expect("write journal");
        let out = Command::new(env!("CARGO_BIN_EXE_pegasus"))
            .args(["serve", "--addr", "127.0.0.1:0", "--metrics-addr"])
            .args(["127.0.0.1:0", "--dir"])
            .arg(&dir)
            .output()
            .expect("run pegasus serve");
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("corrupt journal") && stderr.contains(line),
            "{name}: {stderr}"
        );
        assert!(!String::from_utf8_lossy(&out.stdout).contains("discarding"));
        let members = std::fs::read_dir(dir.join("members")).map_or(0, |d| d.count());
        assert_eq!(
            members, 0,
            "{name}: no member may run off a corrupt journal"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("journal")).expect("journal"),
            format!("{submission}{tail}"),
            "{name}: a refused journal is left as it was"
        );
    }
}

/// A journal written before `n=` had a ceiling may hold a generated
/// size past it. Restart refuses it at its line, in the range's own
/// sentence, as a journal no daemon could write today; the offline
/// reader does the same. Nothing runs and nothing panics.
#[test]
fn a_journaled_size_past_the_ceiling_refuses_the_start_at_its_line() {
    let dir = scratch("oversized-journal");
    let journal = "# pegasus serve journal v2\n\
                   submission id=0 tenant=alice site=sandhills n=10\n\
                   submission id=1 tenant=alice site=sandhills n=100000000000000\n";
    std::fs::write(dir.join("journal"), journal).expect("write journal");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pegasus"))
        .args(["serve", "--addr", "127.0.0.1:0", "--metrics-addr"])
        .args(["127.0.0.1:0", "--dir"])
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pegasus serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while child.try_wait().expect("poll the daemon").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the daemon started on a journal holding n=100000000000000");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let serve = child.wait_with_output().expect("daemon output");
    let status = Command::new(env!("CARGO_BIN_EXE_pegasus"))
        .args(["status", "--dir"])
        .arg(&dir)
        .output()
        .expect("run pegasus status");
    for out in [serve, status] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("corrupt journal"), "{stderr}");
        assert!(stderr.contains("line 3"), "{stderr}");
        let refusal = "n must be in 1..=20000, not \"100000000000000\"";
        assert!(stderr.contains(refusal), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let members = std::fs::read_dir(dir.join("members")).map_or(0, |d| d.count());
    assert_eq!(members, 0, "no member may run off a refused journal");
    assert_eq!(
        std::fs::read_to_string(dir.join("journal")).expect("journal"),
        journal,
        "a refused journal is left as it was"
    );
}

#[test]
fn a_daemon_whose_stdout_reader_is_gone_exits_0_without_panicking() {
    // The first start-up line is `listening` in a fresh directory and
    // `discarding torn journal tail` over a torn one.
    let torn = "# pegasus serve journal v2\nsubmission id=0 tenant=alice site=sandhills n=10\nsub";
    for (name, journal) in [("fresh", None), ("torn", Some(torn))] {
        let dir = scratch(&format!("closed-stdout-{name}"));
        if let Some(text) = journal {
            std::fs::write(dir.join("journal"), text).expect("write journal");
        }
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let mut child = Command::new(env!("CARGO_BIN_EXE_pegasus"))
            .args(["serve", "--addr", "127.0.0.1:0", "--metrics-addr"])
            .args(["127.0.0.1:0", "--dir"])
            .arg(&dir)
            .stdout(writer)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pegasus serve");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while child.try_wait().expect("poll the daemon").is_none() {
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                panic!("{name}: the daemon kept running with no reader");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("daemon output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

/// A stdout that refuses the start-up line for any other reason (a full
/// device) fails the start in the words every verb's stdout fails with.
#[cfg(target_os = "linux")]
#[test]
fn a_daemon_that_cannot_write_its_listening_line_exits_1() {
    let dir = scratch("full-stdout");
    let full = std::fs::File::options()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_pegasus"))
        .args(["serve", "--addr", "127.0.0.1:0", "--metrics-addr"])
        .args(["127.0.0.1:0", "--dir"])
        .arg(&dir)
        .stdout(full)
        .output()
        .expect("run pegasus serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("cannot write to stdout: "), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// A line longer than the bound is one `error` reply and the end of its
/// connection, not a buffer that grows with what the peer sends; the
/// scrape port closes on it. The daemon serves the next connection.
#[test]
fn a_request_line_past_the_bound_is_refused_and_its_connection_closed() {
    let dir = scratch("long-line");
    let daemon = Daemon::start(&dir, &[]);
    let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("greeting");
    stream.write_all(&vec![b'x'; MAX_LINE + 1]).expect("send");
    line.clear();
    reader.read_line(&mut line).expect("error response");
    assert_eq!(
        line,
        format!("error request line longer than {MAX_LINE} bytes\n")
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("end of connection"),
        0,
        "{line:?}"
    );

    let mut scrape = std::net::TcpStream::connect(&daemon.metrics_addr).expect("connect");
    scrape.write_all(&vec![b'x'; MAX_LINE + 1]).expect("send");
    let mut reply = Vec::new();
    std::io::Read::read_to_end(&mut scrape, &mut reply).expect("closed");
    assert!(reply.is_empty(), "{}", String::from_utf8_lossy(&reply));

    let mut conn = daemon.connect();
    assert_eq!(
        expect_lines(&mut conn, &Request::Status),
        Vec::<String>::new()
    );
    drop(conn);
    daemon.shutdown();
}

#[test]
fn a_daemon_with_no_finished_member_scrapes_empty() {
    let dir = scratch("empty-scrape");
    let daemon = Daemon::start(&dir, &[]);
    let mut conn = daemon.connect();
    let scrape = || client::scrape(&daemon.metrics_addr).expect("HTTP scrape");
    assert_eq!(scrape(), "");
    expect_ok(&mut conn, &generated("alice", "sandhills", 10));
    expect_ok(&mut conn, &generated("bob", "osg", 10));
    expect_ok(&mut conn, &Request::Cancel { id: 1 });
    // Queued and cancelled members have no events to fold.
    assert_eq!(scrape(), "");
    assert_eq!(
        expect_lines(&mut conn, &Request::Metrics),
        Vec::<String>::new()
    );
    drop(conn);
    daemon.shutdown();
}

/// Every member log a round writes is the event-log header, its trace
/// comment, then exactly the lines `log::write` renders for the stream
/// it holds: the daemon's writer and the whole-log writer agree byte
/// for byte, whether the trace id was derived at admission or given.
#[test]
fn every_member_log_is_its_header_trace_line_and_written_stream() {
    let dir = scratch("member-logs");
    let daemon = Daemon::start(&dir, &["--seed", "11", "--retries", "10"]);
    let mut conn = daemon.connect();
    let given = TraceId::new(0x5eed);
    expect_ok(&mut conn, &generated("alice", "sandhills", 20));
    let traced = SubmitRequest {
        tenant: "bob".into(),
        site: "osg".into(),
        seed: None,
        retries: None,
        priority: 0,
        trace: Some(given),
        source: SubmitSource::Generated { n: 20 },
    };
    expect_ok(&mut conn, &Request::Submit(traced));
    expect_ok(&mut conn, &Request::Run);
    drop(conn);
    daemon.shutdown();
    let header = events::log::write(&[]);
    for (id, trace) in [(0, TraceId::derive(11, 0)), (1, given)] {
        let path = dir.join("members").join(format!("m{id}.events"));
        let text = std::fs::read_to_string(&path).expect("member log");
        let stream = events::log::parse(&text).expect("member log parses");
        assert!(stream.len() > 20, "m{id} holds a whole run");
        let body = &events::log::write(&stream)[header.len()..];
        assert_eq!(text, format!("{header}# trace id={trace}\n{body}"), "m{id}");
    }
}

#[test]
fn a_damaged_member_log_fails_its_trace_and_nothing_else() {
    let dir = scratch("trace-damage");
    let daemon = Daemon::start(&dir, &["--seed", "20140519"]);
    let mut conn = daemon.connect();
    expect_ok(&mut conn, &generated("alice", "sandhills", 10));
    expect_ok(&mut conn, &generated("bob", "sandhills", 10));
    expect_ok(&mut conn, &Request::Run);
    let status = expect_lines(&mut conn, &Request::Status);
    let rollup = expect_lines(&mut conn, &Request::Rollup);
    let scraped = client::scrape(&daemon.metrics_addr).expect("HTTP scrape");
    let traced = expect_lines(&mut conn, &Request::Trace { id: 0 });
    assert!(!traced.is_empty());

    let log = dir.join("members").join("m0.events");
    let whole = std::fs::read_to_string(&log).expect("member log");
    let trailer = whole
        .trim_end()
        .rfind('\n')
        .expect("a line before the trailer")
        + 1;
    let damages: [(&str, Option<&str>); 3] = [
        ("has no trailer", Some(&whole[..trailer])),
        ("cannot parse", Some("# pegasus events v1\nfrobnicate\n")),
        ("cannot read", None),
    ];
    for (what, text) in damages {
        match text {
            Some(text) => std::fs::write(&log, text).expect("damage the log"),
            None => std::fs::remove_file(&log).expect("delete the log"),
        }
        match conn.request(&Request::Trace { id: 0 }) {
            Ok((ResponseHead::Error(msg), _)) => assert!(
                msg.contains(what) && msg.contains("m0.events"),
                "{what}: {msg}"
            ),
            other => panic!("{what}: trace must answer error, got {other:?}"),
        }
        // The daemon keeps serving, from what it kept of the member.
        assert_eq!(expect_lines(&mut conn, &Request::Status), status, "{what}");
        assert_eq!(expect_lines(&mut conn, &Request::Rollup), rollup, "{what}");
        let again = client::scrape(&daemon.metrics_addr).expect("HTTP scrape");
        assert_eq!(again, scraped, "{what}");
        assert!(!expect_lines(&mut conn, &Request::Trace { id: 1 }).is_empty());
    }
    drop(conn);
    daemon.shutdown();
}

/// The three sites of the random sessions. `osg_prestaged` plans
/// under `osg`'s catalog entry, so members of the two share every
/// metric label set: folded out of id order, the scrape's bytes
/// really differ.
const SESSION_SITES: [&str; 3] = ["sandhills", "osg", "osg_prestaged"];

/// One drawn submission: site, size and whether it brings its own seed.
type Draw = (usize, usize, bool);

fn drawn(i: usize, (site, n, own_seed): Draw) -> Request {
    Request::Submit(SubmitRequest {
        tenant: format!("tenant{}", i % 3),
        site: SESSION_SITES[site].into(),
        seed: own_seed.then_some(40 + n as u64),
        retries: None,
        priority: 0,
        trace: None,
        source: SubmitSource::Generated { n: 8 + 2 * n },
    })
}

/// Submits `draws` in order; `next` counts the session's submissions.
fn submit(conn: &mut Connection, next: &mut usize, draws: &[Draw]) {
    for &draw in draws {
        expect_ok(conn, &drawn(*next, draw));
        *next += 1;
    }
}

/// Every rendered view of a live daemon, checked against the offline
/// folds of its directory on the way: `(status, rollup, scrape)`.
fn views(daemon: &Daemon, dir: &Path) -> Result<(Vec<String>, Vec<String>, String), String> {
    let mut conn = daemon.connect();
    let status = expect_lines(&mut conn, &Request::Status);
    let finished: Vec<usize> = (0..status.len())
        .filter(|&id| dir.join("members").join(format!("m{id}.events")).exists())
        .collect();
    let rollup = match conn.request(&Request::Rollup).expect("rollup round-trip") {
        (ResponseHead::Lines(_), payload) => payload,
        (ResponseHead::Error(_), _) if finished.is_empty() => Vec::new(),
        other => return Err(format!("rollup answered {other:?}")),
    };
    let scraped = client::scrape(&daemon.metrics_addr).expect("HTTP scrape");
    let payload = expect_lines(&mut conn, &Request::Metrics);
    prop_assert_eq!(payload.join("\n") + "\n", scraped.clone());
    prop_assert_eq!(&scraped, &offline_exposition(dir, &finished));
    prop_assert_eq!(&status, &status_lines_offline(dir).expect("offline status"));
    Ok((status, rollup, scraped))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_sessions_render_their_offline_folds_live_and_after_restart(
        seed in 1u64..1000,
        rounds in proptest::collection::vec(
            proptest::collection::vec((0usize..3, 0usize..2, any::<bool>()), 1..4),
            3..5,
        ),
        doomed in proptest::collection::vec((0usize..3, 0usize..2, any::<bool>()), 0..3),
        cancel in 0usize..4,
    ) {
        // The crash always strands an `osg_prestaged` member behind an
        // `osg` member of the same size with a higher id: `osg` sorts
        // first, so the lower id finishes later, into the same series.
        let doomed = [&[(2, 0, false), (1, 0, false)], &doomed[..]].concat();
        let dir = scratch(&format!("session-{seed}"));
        let seed = seed.to_string();
        let args = ["--seed", seed.as_str(), "--retries", "20"];
        let mut submitted = 0usize;

        // Several `run` requests, one cancel, every view checked after
        // each.
        let daemon = Daemon::start(&dir, &args);
        let mut conn = daemon.connect();
        for (k, draws) in rounds.iter().enumerate() {
            submit(&mut conn, &mut submitted, draws);
            if k == 1 {
                // Still queued: the run below is what would claim it.
                let id = submitted - 1 - cancel % draws.len();
                expect_ok(&mut conn, &Request::Cancel { id });
            }
            expect_ok(&mut conn, &Request::Run);
            views(&daemon, &dir)?;
        }
        drop(conn);
        daemon.shutdown();

        // A batch over several sites dies inside its first round...
        let crashing = Daemon::start(&dir, &[&args[..], &["--crash-after-members", "1"]].concat());
        let mut conn = crashing.connect();
        submit(&mut conn, &mut submitted, &doomed);
        prop_assert!(conn.request(&Request::Run).is_err(), "the run request dies with the daemon");
        drop(conn);
        crashing.wait_for_death();

        // ...restart re-executes that round, and the next `run` brings
        // in the other sites' members: lower ids, finishing later.
        let recovered = Daemon::start(&dir, &args);
        views(&recovered, &dir)?;
        let mut conn = recovered.connect();
        expect_ok(&mut conn, &Request::Run);
        submit(&mut conn, &mut submitted, &rounds[0]);
        expect_ok(&mut conn, &Request::Run);
        let before = views(&recovered, &dir)?;

        // A member that finished in the first request, many rounds
        // ago, still traces: from its log, as the offline command does.
        let old = (0..rounds[0].len())
            .find(|id| dir.join("members").join(format!("m{id}.events")).exists())
            .expect("the first request ran a member");
        let traced = expect_lines(&mut conn, &Request::Trace { id: old });
        let offline = Command::new(env!("CARGO_BIN_EXE_pegasus"))
            .args(["trace", "--from-events"])
            .arg(dir.join("members").join(format!("m{old}.events")))
            .output()
            .expect("pegasus trace");
        let offline = String::from_utf8(offline.stdout).expect("utf8 trace");
        prop_assert_eq!(traced, offline.lines().map(str::to_string).collect::<Vec<_>>());
        drop(conn);
        recovered.shutdown();

        let restarted = Daemon::start(&dir, &args);
        prop_assert_eq!(views(&restarted, &dir)?, before);
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A site file the lint refuses refuses the start: a zero-slot site
/// used to load, and the first round on it panicked the daemon on
/// every restart.
#[test]
fn a_site_file_the_lint_refuses_refuses_the_start() {
    let dir = scratch("zero-slot-sites");
    let def = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/lint/e0504_zero_slots.def"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_pegasus"))
        .args(["serve", "--addr", "127.0.0.1:0", "--metrics-addr"])
        .args(["127.0.0.1:0", "--sites", def, "--dir"])
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pegasus serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while child.try_wait().expect("poll the daemon").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the daemon started on a zero-slot site file");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("daemon output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    for needle in ["cannot load site definitions", "E0504", "pegasus lint"] {
        assert!(stderr.contains(needle), "{stderr}");
    }
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// The daemon's resident set in bytes, read from `/proc`.
fn resident_bytes(daemon: &Daemon) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{}/status", daemon.child.id()))
        .expect("read the daemon's /proc status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("a VmRSS line in kB");
    kb * 1024
}

/// A finished member costs the daemon its summary row and no more:
/// from 4 000 to 12 000 finished members in the benchmark's mix
/// (400 tenants round-robin, sites alternating, of every ten pairs
/// eight generated at n = 10, one at n = 100 and one a DAX file), the
/// resident set read after a `status` grows by at most 1 000 bytes a
/// member. Slow: run with `cargo test --release -- --ignored`.
#[test]
#[ignore]
#[cfg(target_os = "linux")]
fn the_daemon_grows_at_most_1000_bytes_per_finished_member() {
    const PER_ROUND: usize = 400;
    const SIZES: [usize; 3] = [4_000, 8_000, 12_000];
    let dir = scratch("growth");
    let dax = dir.join("fig2_n50.dax");
    let wf = blast2cap3::workflow::build_workflow(&WorkflowParams::with_n(50));
    std::fs::write(&dax, pegasus_wms::dax::to_dax(&wf)).expect("write the DAX");
    let flags = ["--seed", "1", "--retries", "20", "--tenant-active", "8"];
    let daemon = Daemon::start(&dir.join("state"), &flags);
    let mut conn = daemon.connect();
    let mut readings = Vec::new();
    for round in 0..SIZES[SIZES.len() - 1] / PER_ROUND {
        for i in round * PER_ROUND..(round + 1) * PER_ROUND {
            let source = match (i / 2) % 10 {
                8 => SubmitSource::Generated { n: 100 },
                9 => SubmitSource::Dax {
                    path: dax.display().to_string(),
                },
                _ => SubmitSource::Generated { n: 10 },
            };
            let sub = SubmitRequest {
                tenant: format!("tenant{:03}", i % 400),
                site: ["sandhills", "osg"][i % 2].into(),
                seed: None,
                retries: None,
                priority: 0,
                trace: None,
                source,
            };
            expect_ok(&mut conn, &Request::Submit(sub));
        }
        expect_ok(&mut conn, &Request::Run);
        let members = (round + 1) * PER_ROUND;
        if SIZES.contains(&members) {
            assert_eq!(expect_lines(&mut conn, &Request::Status).len(), members);
            readings.push((members, resident_bytes(&daemon)));
        }
    }
    drop(conn);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("resident bytes by finished members: {readings:?}");
    let ((first, low), (last, high)) = (readings[0], readings[readings.len() - 1]);
    let per_member = high.saturating_sub(low) as f64 / (last - first) as f64;
    assert!(
        per_member <= 1000.0,
        "{per_member:.0} bytes per finished member: {readings:?}"
    );
}
