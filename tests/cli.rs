//! Smoke tests for the two command-line tools, run as real processes
//! (Cargo builds the bins and exposes their paths via
//! `CARGO_BIN_EXE_*`). These are the "does a user session work"
//! checks: generate → plan → run → fail → rescue → resume, plus the
//! `b2c3` simulate → align → run data path.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("b2c3_cli_tests")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pegasus() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pegasus"))
}

fn b2c3() -> Command {
    Command::new(env!("CARGO_BIN_EXE_b2c3"))
}

/// Every verb `pegasus` answers to, in usage-screen order.
const PEGASUS_VERBS: [&str; 16] = [
    "generate-dax",
    "generate-workload",
    "catalogs",
    "plan",
    "run",
    "statistics",
    "analyze",
    "ensemble",
    "breakdown",
    "trace",
    "metrics",
    "lint",
    "verify",
    "serve",
    "submit",
    "status",
];

/// What `pegasus` says about itself is pinned byte for byte: the usage
/// screen (asked for and not), an unknown verb, an unknown flag and
/// every verb's `--help`. The golden was written before the verb tables
/// moved into the modules that read their flags; bless it again only
/// for an intended change of the help text, with `PEGASUS_BLESS=1`.
#[test]
fn pegasus_help_matches_the_golden() {
    let mut sessions: Vec<Vec<&str>> = vec![vec!["help"], vec![], vec!["no-such-verb"]];
    sessions.push(vec!["run", "--bogus"]);
    sessions.extend(PEGASUS_VERBS.iter().map(|v| vec![*v, "--help"]));
    let mut text = String::new();
    for argv in sessions {
        let out = pegasus().args(&argv).output().unwrap();
        let code = out.status.code().expect("exit code");
        text += &format!(
            "$ {}\nexit {code}\n",
            [&["pegasus"], &argv[..]].concat().join(" ")
        );
        text += &format!("--- stdout\n{}", String::from_utf8_lossy(&out.stdout));
        text += &format!("--- stderr\n{}", String::from_utf8_lossy(&out.stderr));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/equivalence/pegasus_help.txt");
    if std::env::var_os("PEGASUS_BLESS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden");
    assert!(
        text == golden,
        "pegasus help differs from {}:\n{text}",
        path.display()
    );
}

#[test]
fn pegasus_generate_plan_run_session() {
    let dir = tmpdir("session");
    let dax = dir.join("wf.dax");

    let out = pegasus()
        .args(["generate-dax", "--n", "12", "--calibrated"])
        .args(["--out", dax.to_str().unwrap()])
        .output()
        .expect("spawn pegasus");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dax.exists());

    let out = pegasus()
        .args(["plan", "--dax", dax.to_str().unwrap(), "--site", "osg"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("compute"), "{text}");
    assert!(text.contains("install time"), "{text}");

    let out = pegasus()
        .args(["run", "--dax", dax.to_str().unwrap()])
        .args(["--site", "sandhills", "--quiet"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Workflow Wall Time"), "{text}");
    assert!(text.contains("run_cap3"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--profile` adds one `profile:` line on stderr naming every scope
/// the verb passes through, and changes no stdout byte; without it no
/// such line appears.
#[test]
fn profile_prints_one_stderr_line_of_the_verbs_scopes() {
    let dir = tmpdir("profile");
    let dax = dir.join("wf.dax");
    let dax = dax.to_str().unwrap();
    let out = pegasus()
        .args(["generate-dax", "--n", "12", "--out", dax])
        .output()
        .unwrap();
    assert!(out.status.success());
    let sessions: [(&[&str], &[&str]); 3] = [
        (
            &["plan", "--dax", dax, "--site", "sandhills"],
            &[
                "dax.build",
                "dax.parse",
                "dax.scan",
                "dax.validate",
                "graph.csr",
                "plan",
            ],
        ),
        (
            &["run", "--dax", dax, "--site", "sandhills"],
            &[
                "dax.build",
                "dax.parse",
                "dax.scan",
                "engine.run",
                "graph.csr",
                "plan",
            ],
        ),
        (
            &["ensemble", "--sizes", "10,20"],
            &["ensemble.join", "graph.csr", "plan"],
        ),
    ];
    let profile_lines = |stderr: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(stderr)
            .lines()
            .filter(|l| l.starts_with("profile:"))
            .map(String::from)
            .collect()
    };
    for (argv, scopes) in sessions {
        let run = |flag: &[&str]| {
            let out = pegasus()
                .current_dir(&dir)
                .args(argv)
                .args(flag)
                .output()
                .unwrap();
            assert!(out.status.success(), "{argv:?} {flag:?}");
            out
        };
        let (on, off) = (run(&["--profile"]), run(&[]));
        assert_eq!(on.stdout, off.stdout, "{argv:?}: stdout must not change");
        assert_eq!(profile_lines(&off.stderr), Vec::<String>::new(), "{argv:?}");
        let lines = profile_lines(&on.stderr);
        assert_eq!(lines.len(), 1, "{argv:?}: {lines:?}");
        let mut named: Vec<&str> = lines[0]["profile:".len()..]
            .split_whitespace()
            .map(|scope| scope.split_once('=').expect("label=seconds").0)
            .collect();
        named.sort_unstable();
        assert_eq!(named, scopes, "{argv:?}: {}", lines[0]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pegasus_failure_rescue_resume_session() {
    let dir = tmpdir("rescue");
    let dax = dir.join("wf.dax");
    let rescue = dir.join("wf.rescue");
    pegasus()
        .args(["generate-dax", "--n", "10", "--calibrated"])
        .args(["--out", dax.to_str().unwrap()])
        .status()
        .unwrap();

    // Hostile OSG, no retries: must fail and leave a rescue file.
    let out = pegasus()
        .args(["run", "--dax", dax.to_str().unwrap()])
        .args(["--site", "osg", "--retries", "0", "--seed", "7", "--quiet"])
        .args(["--rescue-out", rescue.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "hostile run must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("pegasus-analyzer"), "{err}");
    assert!(rescue.exists());
    let rescue_text = std::fs::read_to_string(&rescue).unwrap();
    assert!(rescue_text.contains("DONE"), "{rescue_text}");

    // Resume on the campus cluster: must succeed.
    let out = pegasus()
        .args(["run", "--dax", dax.to_str().unwrap()])
        .args(["--site", "sandhills", "--quiet"])
        .args(["--resume", rescue.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A rescue DAG skips jobs by name, so another workflow's rescue would
/// skip whatever names the two share: `--resume` refuses it, naming
/// both workflows. The site may differ, as the session above shows.
#[test]
fn resume_refuses_another_workflows_rescue_dag() {
    let dir = tmpdir("foreign_rescue");
    let (n2, n3, plan) = (
        dir.join("n2.dax"),
        dir.join("n3.dax"),
        dir.join("storm.plan"),
    );
    let rescue = dir.join("n2.rescue");
    for (n, dax) in [("2", &n2), ("3", &n3)] {
        pegasus()
            .args(["generate-dax", "--n", n, "--out", dax.to_str().unwrap()])
            .status()
            .unwrap();
    }
    let storm = "plan p\npreemption-storm start=0 duration=1e12 kill-probability=1 target=merge\n";
    std::fs::write(&plan, storm).unwrap();
    let out = pegasus()
        .args(["run", "--dax", n2.to_str().unwrap(), "--site", "sandhills"])
        .args([
            "--retries",
            "0",
            "--fault-plan",
            plan.to_str().unwrap(),
            "--quiet",
        ])
        .args(["--rescue-out", rescue.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "the storm fails merge");

    let out = pegasus()
        .args(["run", "--dax", n3.to_str().unwrap(), "--site", "sandhills"])
        .args(["--resume", rescue.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("\"blast2cap3_n2\"") && err.contains("\"blast2cap3_n3\""),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crashed_submit_host_submits_nothing_more() {
    let dir = tmpdir("crash");
    let (dax, plan, log) = (
        dir.join("wf.dax"),
        dir.join("crash.plan"),
        dir.join("run.events"),
    );
    pegasus()
        .args(["generate-dax", "--n", "20", "--out", dax.to_str().unwrap()])
        .status()
        .unwrap();
    std::fs::write(&plan, "plan crash\nsubmit-host-crash after-events=6\n").unwrap();
    let out = pegasus()
        .args(["run", "--dax", dax.to_str().unwrap(), "--site", "sandhills"])
        .args(["--seed", "11", "--fault-plan", plan.to_str().unwrap()])
        .args(["--events", log.to_str().unwrap()])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "a crashed run fails");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rfind(|l| l.starts_with("status:"));
    assert!(
        last.is_some_and(|l| l.contains("| 0 running |")),
        "{stdout}"
    );
    // Nothing is submitted after the sixth terminal event, the one the
    // crash fires on.
    let log = std::fs::read_to_string(&log).unwrap();
    let terminal = ["completed ", "failed ", "timed-out "];
    let lines: Vec<&str> = log.lines().collect();
    let crash = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| terminal.iter().any(|t| l.starts_with(t)))
        .nth(5)
        .map(|(at, _)| at)
        .expect("six terminal events");
    let late = lines[crash..]
        .iter()
        .filter(|l| l.starts_with("submitted "));
    assert_eq!(late.count(), 0, "{log}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A plan's `submit-host-crash` crashes the live run of `trace` and
/// `verify` as it crashes `run`: one setup arms it for every verb, so
/// the live log is the event for event log of `run --events`.
#[test]
fn live_trace_and_verify_crash_where_run_does() {
    let dir = tmpdir("live_crash");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (dax, plan) = (path("wf.dax"), path("crash.plan"));
    std::fs::write(&plan, "plan crash\nsubmit-host-crash after-events=5\n").unwrap();
    let generated = pegasus()
        .args(["generate-dax", "--n", "10", "--calibrated", "--out", &dax])
        .status()
        .unwrap();
    assert!(generated.success());
    let site = ["--site", "sandhills", "--fault-plan", &plan];
    let run = pegasus()
        .args(["run", "--dax", &dax, "--retries", "20", "--quiet"])
        .args(site)
        .args(["--events", &path("r.events")])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(1), "the crashed run fails");

    let trace = pegasus()
        .args(["trace", "--n", "10", "--quiet"])
        .args(site)
        .args(["--events", &path("t.events")])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&trace.stdout);
    assert_eq!(trace.status.code(), Some(1), "{stdout}");
    let first = stdout.lines().next().unwrap_or_default();
    assert!(first.contains("succeeded=false"), "{stdout}");
    let body = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        let lines = text.lines().filter(|l| !l.starts_with('#'));
        lines.map(String::from).collect::<Vec<_>>()
    };
    assert_eq!(body("t.events"), body("r.events"));

    pegasus()
        .args(["verify", "--n", "10"])
        .args(site)
        .args(["--events", &path("v.events")])
        .output()
        .unwrap();
    let verified = body("v.events");
    let trailer = verified.last().expect("a logged run");
    assert!(trailer.ends_with("succeeded=false"), "{trailer}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pegasus_statistics_emits_csv() {
    let dir = tmpdir("stats");
    let dax = dir.join("wf.dax");
    pegasus()
        .args(["generate-dax", "--n", "6"])
        .args(["--out", dax.to_str().unwrap()])
        .status()
        .unwrap();
    let out = pegasus()
        .args([
            "statistics",
            "--dax",
            dax.to_str().unwrap(),
            "--site",
            "sandhills",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("task_type,"), "{text}");
    assert!(text.contains("run_cap3,6,"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pegasus_offline_statistics_from_event_log() {
    let dir = tmpdir("events");
    let dax = dir.join("wf.dax");
    let events = dir.join("run.events");
    pegasus()
        .args(["generate-dax", "--n", "8"])
        .args(["--out", dax.to_str().unwrap()])
        .status()
        .unwrap();

    // Live run on hostile OSG, recording the provenance event log.
    let common = [
        "--dax",
        dax.to_str().unwrap(),
        "--site",
        "osg",
        "--seed",
        "11",
        "--retries",
        "10",
    ];
    let out = pegasus()
        .arg("run")
        .args(common)
        .args(["--quiet", "--events", events.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(events.exists());

    // Live statistics (same deterministic sim) vs offline statistics
    // recomputed from the log, with no simulation at all.
    let live = pegasus().arg("statistics").args(common).output().unwrap();
    assert!(live.status.success());
    let offline = pegasus()
        .args(["statistics", "--from-events", events.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        offline.status.success(),
        "{}",
        String::from_utf8_lossy(&offline.stderr)
    );
    let live_csv = String::from_utf8_lossy(&live.stdout);
    let offline_csv = String::from_utf8_lossy(&offline.stdout);
    assert!(offline_csv.starts_with("task_type,"), "{offline_csv}");
    assert_eq!(offline_csv, live_csv, "offline CSV must match the live run");

    // The analyzer works offline too.
    let out = pegasus()
        .args(["analyze", "--from-events", events.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pegasus-analyzer"), "{text}");
    assert!(text.contains("SUCCESS"), "{text}");

    // A failed run's log still replays: the analyzer reports FAILED
    // and exits nonzero. (Calibrated n = 10 on hostile OSG with no
    // retries reliably fails, as in the rescue-resume session test.)
    let failing_dax = dir.join("failing.dax");
    pegasus()
        .args(["generate-dax", "--n", "10", "--calibrated"])
        .args(["--out", failing_dax.to_str().unwrap()])
        .status()
        .unwrap();
    let failed_events = dir.join("failed.events");
    let out = pegasus()
        .args(["run", "--dax", failing_dax.to_str().unwrap()])
        .args(["--site", "osg", "--retries", "0", "--seed", "7", "--quiet"])
        .args(["--rescue-out", dir.join("wf.rescue").to_str().unwrap()])
        .args(["--events", failed_events.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "hostile run must fail");
    let out = pegasus()
        .args(["analyze", "--from-events", failed_events.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "analyze mirrors the run's failure");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAILED"), "{text}");
    assert!(text.contains("hint:"), "{text}");

    // A live run is read like its log: live statistics of the failed
    // run prints the offline CSV, both exit 1, and the live one leaves
    // no rescue file and no report behind.
    let cwd = dir.join("live");
    std::fs::create_dir_all(&cwd).unwrap();
    let live = pegasus()
        .args(["statistics", "--dax", failing_dax.to_str().unwrap()])
        .args(["--site", "osg", "--retries", "0", "--seed", "7"])
        .current_dir(&cwd)
        .output()
        .unwrap();
    let offline = pegasus()
        .args([
            "statistics",
            "--from-events",
            failed_events.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(live.status.code(), Some(1));
    assert_eq!(offline.status.code(), Some(1));
    assert_eq!(live.stdout, offline.stdout);
    assert!(live.stdout.starts_with(b"task_type,"));
    assert_eq!(String::from_utf8_lossy(&live.stderr), "");
    assert_eq!(std::fs::read_dir(&cwd).unwrap().count(), 0, "files left");

    // Live and offline breakdown of one sweep agree on its outcome, and
    // a log's outcome is the one it records: a submit host that died
    // after every compute job completed still failed the run.
    let sweep = dir.join("sweep");
    let live = pegasus()
        .args(["breakdown", "--site", "osg", "--sizes", "10", "--seed", "7"])
        .args([
            "--retries",
            "0",
            "--quiet",
            "--events-dir",
            sweep.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let offline = pegasus()
        .args(["breakdown", "--quiet", "--from-events"])
        .arg(sweep.join("osg_n10.events"))
        .output()
        .unwrap();
    assert_eq!(live.status.code(), offline.status.code());
    assert_eq!(live.stdout, offline.stdout);
    let (small, plan, crashed) = (
        dir.join("n4.dax"),
        dir.join("crash.plan"),
        dir.join("crashed.events"),
    );
    pegasus()
        .args(["generate-dax", "--n", "4", "--out", small.to_str().unwrap()])
        .status()
        .unwrap();
    std::fs::write(&plan, "plan late\nsubmit-host-crash after-events=12\n").unwrap();
    let run = pegasus()
        .args([
            "run",
            "--dax",
            small.to_str().unwrap(),
            "--site",
            "sandhills",
        ])
        .args([
            "--seed",
            "11",
            "--fault-plan",
            plan.to_str().unwrap(),
            "--quiet",
        ])
        .args(["--rescue-out", dir.join("n4.rescue").to_str().unwrap()])
        .args(["--events", crashed.to_str().unwrap()])
        .output()
        .unwrap();
    let offline = pegasus()
        .args(["breakdown", "--from-events", crashed.to_str().unwrap()])
        .output()
        .unwrap();
    let csv = String::from_utf8_lossy(&offline.stdout);
    assert!(csv.contains("\nsandhills,4,9,9,"), "{csv}");
    assert_eq!(run.status.code(), Some(1));
    assert_eq!(offline.status.code(), Some(1), "{csv}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pegasus_verify_reports_an_unparsable_log_and_checks_the_rest() {
    // The first log stops parsing at line 4; that is a finding like
    // any other (`E0708`), not a reason to drop the report or to skip
    // the second log, whose attempt terminates without having started.
    let out = pegasus()
        .args(["verify", "--format", "json", "--from-events"])
        .arg(
            "tests/fixtures/lint/e0708_syntax.events,\
             tests/fixtures/lint/e0803_completed_before_started.events",
        )
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.starts_with("[\n  {") && json.ends_with("}\n]\n"),
        "{json}"
    );
    let entries: Vec<&str> = json.lines().filter(|l| l.starts_with("  {")).collect();
    assert_eq!(entries.len() + 2, json.lines().count(), "{json}");
    // Sorted by file.
    assert!(entries[0].starts_with("  {\"code\":\"E0708\""), "{json}");
    assert!(entries[0].contains("\"line\":4,"), "{json}");
    assert!(entries[1].starts_with("  {\"code\":\"E0803\""), "{json}");

    // What the engine writes verifies clean, and a live verdict is the
    // verdict over the log it wrote.
    let dir = tmpdir("verify");
    let (log, dax) = (dir.join("live.events"), dir.join("n300.dax"));
    let (log, dax) = (log.to_str().unwrap(), dax.to_str().unwrap());
    let clean = |flags: &str, path: &str| {
        let out = pegasus().args(flags.split(' ')).arg(path).output().unwrap();
        assert!(out.status.success(), "{flags} {path}");
        out.stdout
    };
    let logs: Vec<String> = (std::fs::read_dir("tests/fixtures/equivalence").unwrap())
        .map(|e| e.unwrap().path().display().to_string())
        .filter(|p| p.ends_with(".events"))
        .collect();
    assert_eq!(logs.len(), 12);
    clean("verify --from-events", &logs.join(","));
    clean("verify", "tests/fixtures/osg_n8.events");
    let live = clean("verify --site osg --n 50 --seed 11 --events", log);
    assert_eq!(live, clean("verify --from-events", log));
    clean("generate-dax --n 300 --out", dax);
    clean("verify --site osg --dax", dax);
    let run = "run --site osg --seed 11 --retries 10 --verify --quiet --dax";
    clean(run, dax);
    std::fs::remove_dir_all(&dir).ok();
}

/// A header counting more jobs than a job id can name is the reader's
/// bad-value error at its line, for both faces of the stream checker.
#[test]
fn a_job_count_beyond_every_job_id_is_a_parse_error_at_its_line() {
    let dir = tmpdir("job_count");
    let log = dir.join("big.events");
    let header = "workflow-started time=0 jobs=4294967296 site=s name=w";
    std::fs::write(&log, format!("# pegasus event log v1\n{header}\n")).unwrap();
    let (log, dax) = (log.to_str().unwrap(), "tests/fixtures/lint/clean_small.dax");
    for args in [vec!["verify", log], vec!["lint", dax, "--events", log]] {
        let out = pegasus().args(&args).output().unwrap();
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stdout}{stderr}");
        let want = format!("error[E0708]: bad integer \"4294967296\" for jobs\n  --> {log}:2\n");
        assert!(stdout.starts_with(&want), "{args:?}: {stdout}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The fold verbs read each log as they fold it, so three rows differ
/// from reading every log whole first. A log that is not text is found
/// when it is read: after the output of the logs before it, and after
/// a later log that cannot be opened at all (every file is opened
/// first). And `metrics` labels a run when its header comes: `n` is the
/// name's `_n<k>`, else the header's `jobs=`, not the manifest's count.
#[test]
fn the_fold_verbs_read_each_log_as_they_fold_it() {
    let dir = tmpdir("streamed");
    let (good, text_less) = (dir.join("good.events"), dir.join("binary.events"));
    std::fs::copy("tests/fixtures/osg_n8.events", &good).unwrap();
    std::fs::write(&text_less, b"# pegasus event log v1\n\xff\n").unwrap();
    let (good, text_less) = (good.to_str().unwrap(), text_less.to_str().unwrap());
    let missing = dir.join("missing.events");
    let missing = missing.to_str().unwrap();
    let run = |args: &[&str]| {
        let out = pegasus().args(args).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        (
            out.status.code(),
            String::from_utf8(out.stdout).unwrap(),
            stderr,
        )
    };

    let both = format!("{good},{text_less}");
    let (code, stdout, stderr) = run(&["statistics", "--from-events", &both]);
    assert_eq!(code, Some(1));
    assert_eq!(stdout, run(&["statistics", "--from-events", good]).1);
    let not_text =
        format!("cannot read event log {text_less}: stream did not contain valid UTF-8\n");
    assert_eq!(stderr, not_text);

    let later = format!("{text_less},{missing}");
    let (code, stdout, stderr) = run(&["verify", "--from-events", &later]);
    assert_eq!((code, stdout.as_str()), (Some(1), ""));
    assert!(
        stderr.starts_with(&format!("cannot read event log {missing}: ")),
        "{stderr}"
    );

    let log = dir.join("five.events");
    #[rustfmt::skip]
    std::fs::write(&log, "workflow-started time=0 jobs=5 site=s name=w\n\
        job id=0 kind=compute transformation=t name=a\n\
        submitted time=0 job=0 attempt=0\n\
        completed job=0 attempt=0 submitted=0 started=1 install-done=1 finished=2\n\
        workflow-finished time=2 wall-time=2 succeeded=true\n").unwrap();
    let (code, stdout, _) = run(&["metrics", "--from-events", log.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("pegasus_job_completions_total{n=\"5\",site=\"s\"} 1\n"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The examples with a golden print what they printed before the
/// rewrites they exercise. `cargo test` builds every example beside
/// this test's own executable, in `target/<profile>/examples/`; one
/// older than a source it is built from (a `--test` filter builds
/// none) is refused, not run.
#[test]
fn examples_print_their_goldens() {
    let exe = std::env::current_exe().unwrap();
    let examples = exe.parent().unwrap().parent().unwrap().join("examples");
    for name in ["hierarchical_workflow", "assembly_pipeline"] {
        let bin = examples.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
        if let Some(source) = newer_source(&bin) {
            panic!("example {name} is older than {source}: run `cargo build --examples`");
        }
        let out = Command::new(&bin).output();
        let out = out.expect("an example a bare `cargo test` builds");
        assert!(out.status.success(), "{name}");
        let golden = format!("tests/fixtures/equivalence/{name}.out");
        let golden = std::fs::read(golden).unwrap();
        assert!(out.stdout == golden, "{name} differs from its golden");
    }
}

/// A source the binary `bin` was built from, as cargo's dep-info file
/// beside it lists them, that is newer than `bin` or gone.
fn newer_source(bin: &Path) -> Option<String> {
    let modified = |path: &Path| std::fs::metadata(path).and_then(|m| m.modified()).ok();
    let built = modified(bin).expect("an example a bare `cargo test` builds");
    let deps = std::fs::read_to_string(bin.with_extension("d")).expect("the example's dep-info");
    let (_, sources) = deps.lines().next()?.split_once(": ")?;
    // Paths are separated by spaces; one inside a path is `\ `.
    let (mut paths, mut path, mut chars) = (Vec::new(), String::new(), sources.chars());
    while let Some(c) = chars.next() {
        match c {
            '\\' => path.extend(chars.next()),
            ' ' => paths.extend((!path.is_empty()).then(|| std::mem::take(&mut path))),
            c => path.push(c),
        }
    }
    paths.extend((!path.is_empty()).then_some(path));
    let stale = |source: &String| modified(Path::new(source)).is_none_or(|at| at > built);
    paths.into_iter().find(stale)
}

/// A path from the command line that cannot be read or written is an
/// exit-1 `cannot …` line, never a panic: the simulation may already
/// have run, so the error must say which output was lost.
#[test]
fn pegasus_unusable_paths_exit_1_without_panicking() {
    let dir = tmpdir("badpaths");
    let dax = dir.join("wf.dax");
    let out = pegasus()
        .args(["generate-dax", "--n", "4", "--out", dax.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let dax = dax.to_str().unwrap();
    let missing = dir.join("no-such-dir");
    let under = |file: &str| missing.join(file).to_str().unwrap().to_string();
    let run = ["run", "--dax", dax, "--site", "sandhills", "--quiet"];

    let sessions: Vec<(Vec<&str>, Vec<String>, &str)> = vec![
        (
            run.to_vec(),
            vec!["--resume".into(), under("x.rescue")],
            "cannot read rescue file",
        ),
        (
            run.to_vec(),
            vec!["--events".into(), under("x.events")],
            "cannot write event log",
        ),
        (
            vec![
                "breakdown",
                "--sizes",
                "10",
                "--site",
                "sandhills",
                "--quiet",
            ],
            vec!["--out".into(), under("b.csv")],
            "cannot write output",
        ),
        (
            vec![
                "breakdown",
                "--sizes",
                "10",
                "--site",
                "sandhills",
                "--quiet",
            ],
            vec!["--events-dir".into(), format!("{dax}/sub")],
            "cannot create events dir",
        ),
        (
            vec!["metrics", "--sizes", "10", "--site", "sandhills"],
            vec!["--out".into(), under("m.prom")],
            "cannot write output",
        ),
        (
            vec!["trace", "--n", "10"],
            vec!["--out".into(), under("t.txt")],
            "cannot write output",
        ),
    ];
    for (verb, path_args, expected) in sessions {
        let out = pegasus().args(&verb).args(&path_args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{verb:?} {path_args:?}: {err}");
        assert!(!err.contains("panicked"), "{verb:?} {path_args:?}: {err}");
        let lines: Vec<&str> = err.lines().collect();
        assert!(
            lines.len() == 1 && lines[0].starts_with(expected),
            "{verb:?} {path_args:?}: want one `{expected} …` line, got {err:?}"
        );
    }

    // A catalog that does not parse is refused as a catalog, at its
    // line: an INI file at its first section, which points the sites
    // it describes at `--sites`.
    let catalog = dir.join("bad.ini");
    std::fs::write(&catalog, "# old\n[site x]\n\nshared_fs = maybe\n").unwrap();
    let catalog = catalog.to_str().unwrap();
    let out = pegasus().args(run).args(["--catalog", catalog]).output();
    let out = out.unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "cannot parse catalog {catalog}: catalog parse error at line 2: \"[site\" is not a \
             catalog entry (transformation or replica); site facts belong in --sites\n"
        )
    );
}

/// `--out` naming the file stdout is open on writes through stdout:
/// under `>> o.txt` the exposition lands after what o.txt held, as it
/// does without `--out`, and no `written to` note follows it. A file
/// renamed over o.txt would drop its old content and send the note to
/// the unlinked file.
#[test]
fn pegasus_out_naming_stdouts_own_file_appends_through_stdout() {
    let dir = tmpdir("out_stdout");
    let events = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/osg_n8.events");
    let metrics = ["metrics", "--from-events", events];
    let plain = pegasus().args(metrics).output().unwrap();
    assert!(plain.status.success());
    let earlier = "an earlier line\n";
    let o = dir.join("o.txt");
    std::fs::write(&o, earlier).unwrap();
    let append = std::fs::OpenOptions::new().append(true).open(&o).unwrap();
    let out = pegasus()
        .args(metrics)
        .args(["--out", "/dev/stdout"])
        .stdout(append)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (have, want) = (
        std::fs::read(&o).unwrap(),
        [earlier.as_bytes(), &plain.stdout].concat(),
    );
    assert!(
        have == want,
        "o.txt holds {} bytes, starting {:?}; want the earlier line and the {}-byte exposition",
        have.len(),
        String::from_utf8_lossy(&have[..have.len().min(40)]),
        plain.stdout.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag that names a file for one of `run`'s outputs (`--metrics`
/// here, `--events`, `--timeline`, `--rescue-out`) and names stdout's
/// own file appends through stdout, as `--out` does: a file renamed
/// into place would take it from under the shell's `>>`.
#[test]
fn pegasus_flag_named_outputs_append_through_stdouts_own_file() {
    let dir = tmpdir("flag_stdout");
    let dax = dir.join("w.dax");
    let out = pegasus()
        .args(["generate-dax", "--n", "4", "--out", dax.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let run = [
        "run",
        "--dax",
        dax.to_str().unwrap(),
        "--site",
        "sandhills",
        "--quiet",
    ];
    let prom = dir.join("m.prom");
    let out = pegasus()
        .args(run)
        .args(["--metrics", prom.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let exposition = std::fs::read(&prom).unwrap();
    let earlier = "an earlier line\n";
    let o = dir.join("o.txt");
    std::fs::write(&o, earlier).unwrap();
    let append = std::fs::OpenOptions::new().append(true).open(&o).unwrap();
    let out = pegasus()
        .args(run)
        .args(["--metrics", "/dev/stdout"])
        .stdout(append)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let have = std::fs::read(&o).unwrap();
    assert!(
        have.starts_with(earlier.as_bytes()),
        "o.txt lost its earlier line"
    );
    assert!(
        have.ends_with(&exposition),
        "o.txt does not end with the exposition"
    );
    assert!(!String::from_utf8_lossy(&have).contains("written to"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A `written to` note goes to stderr, so stdout holds only what the
/// verb renders, and `--quiet` silences it wherever the verb declares
/// the flag: `run --quiet --timeline` notes nothing at all.
#[test]
fn written_to_notes_go_to_stderr_and_quiet_silences_them() {
    let dir = tmpdir("notes");
    let events = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/osg_n8.events");
    let prom = dir.join("x.prom");
    let out = pegasus()
        .args(["metrics", "--from-events", events, "--out"])
        .arg(&prom)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("metrics exposition written to {}\n", prom.display())
    );
    let (dax, timeline) = (dir.join("w.dax"), dir.join("t.csv"));
    let out = pegasus()
        .args(["generate-dax", "--n", "4", "--out"])
        .arg(&dax)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = pegasus()
        .args(["run", "--site", "sandhills", "--quiet", "--dax"])
        .arg(&dax)
        .arg("--timeline")
        .arg(&timeline)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(timeline.exists());
    for stream in [&out.stdout, &out.stderr] {
        let text = String::from_utf8_lossy(stream);
        assert!(!text.contains("written to"), "{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `trace` writes each log's tree as soon as it is folded. A log that
/// does not fold after one that did leaves `--out`'s file as it was,
/// with no `.part` beside it; on stdout, the trees before it stand.
#[test]
fn pegasus_trace_streams_and_a_bad_log_leaves_out_as_it_was() {
    let dir = tmpdir("trace_stream");
    let fixture = |name: &str| format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let (good, bad) = (
        fixture("osg_n8.events"),
        fixture("lint/e0708_syntax.events"),
    );
    let alone = pegasus()
        .args(["trace", "--from-events", &good])
        .output()
        .unwrap();
    assert!(alone.status.success());
    let both = format!("{good},{bad}");
    let out = pegasus()
        .args(["trace", "--from-events", &both])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stdout == alone.stdout,
        "the first tree is written whole"
    );
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("bad event log"));
    let t = dir.join("t.txt");
    std::fs::write(&t, "old\n").unwrap();
    let out = pegasus()
        .args([
            "trace",
            "--from-events",
            &both,
            "--out",
            t.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(std::fs::read_to_string(&t).unwrap(), "old\n");
    assert!(!dir.join("t.txt.part").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that stops early (`pegasus trace | head -1`) ends the
/// writer quietly, as `yes | head` leaves `yes`: exit 0, no panic.
#[test]
fn pegasus_exits_0_when_its_reader_closes_the_pipe() {
    use std::io::BufRead;
    use std::process::Stdio;
    // Each writes far more than a pipe buffers.
    for verb in [
        &["generate-dax", "--n", "2000"][..],
        &["trace", "--site", "osg", "--n", "300", "--retries", "20"],
    ] {
        let mut child = pegasus()
            .args(verb)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut first = String::new();
        let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        stdout.read_line(&mut first).unwrap();
        assert!(!first.is_empty(), "{verb:?}");
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{verb:?}: {err}");
        assert!(!err.contains("panicked"), "{verb:?}: {err}");
    }
}

/// A site is described once: with `--sites` naming a site the built-in
/// registry does not hold, every verb that reads `--catalog` plans
/// against it and prints what it prints without the catalog — the
/// file holds transformations and replicas only. `trace` and
/// `ensemble` plan the paper's own workflow and take no catalog.
#[test]
fn every_planning_verb_plans_against_the_sites_file_with_or_without_a_catalog() {
    let dir = tmpdir("one_site");
    let (dax, cat) = (dir.join("wf.dax"), dir.join("catalogs.txt"));
    let (dax, cat) = (dax.to_str().unwrap(), cat.to_str().unwrap());
    for argv in [
        &["generate-dax", "--n", "6", "--out", dax][..],
        &["catalogs", "--out", cat],
    ] {
        assert!(pegasus().args(argv).status().unwrap().success(), "{argv:?}");
    }
    let sites = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/sites/third_site.def"
    );
    for verb in [
        &["plan", "--dax", dax][..],
        &["run", "--quiet", "--dax", dax],
        &["statistics", "--dax", dax],
        &["lint", dax],
        &["verify", "--dax", dax],
    ] {
        let session = |catalog: &[&str]| {
            let out = pegasus()
                .args(verb)
                .args(["--sites", sites, "--site", "tundra"])
                .args(catalog)
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(out.status.code(), Some(0), "{verb:?} {catalog:?}: {err}");
            (String::from_utf8_lossy(&out.stdout).into_owned(), err)
        };
        let with = session(&["--catalog", cat]);
        assert_eq!(with, session(&[]), "{verb:?}");
        // `statistics` and `lint` print no site name.
        if ["plan", "run", "verify"].contains(&verb[0]) {
            assert!(with.0.contains("tundra"), "{verb:?}: {}", with.0);
        }
    }
    for verb in ["trace", "ensemble"] {
        let out = pegasus().args([verb, "--catalog", "x"]).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{verb}: {err}");
        assert!(err.contains("unknown flag --catalog"), "{verb}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon refuses `submit n=0`; so does every verb that takes a
/// decomposition size, in the same sentence, as a usage error — the
/// library would quietly build the one-chunk workflow instead.
#[test]
fn pegasus_refuses_a_decomposition_of_zero_chunks() {
    for verb in [
        &["generate-dax", "--n", "0"][..],
        &["trace", "--n", "0"],
        &["verify", "--n", "0"],
        &["breakdown", "--sizes", "0"],
        &["breakdown", "--sizes", "10,0", "--site", "sandhills"],
        &["metrics", "--sizes", "0"],
        &["ensemble", "--sizes", "0,10"],
    ] {
        let out = pegasus().args(verb).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{verb:?}: {err}");
        let refusal = format!("{} must be in 1..=", verb[1]);
        assert!(err.contains(&refusal), "{verb:?}: {err}");
        assert!(err.contains(", not \"0\"\n"), "{verb:?}: {err}");
        assert!(out.stdout.is_empty(), "{verb:?} printed a result");
    }
}

/// Every verb of both binaries is a table of flags, and `--help` prints
/// the range each number is judged by. Worked from that text alone, a
/// value one past either end of every range is a usage error before
/// any work: exit 2, the one sentence, nothing on stdout, and no
/// panic or failed allocation. A flag that gains a range is covered
/// here without a new row.
#[test]
fn every_range_in_the_help_refuses_one_past_each_end() {
    let bins = [
        ("pegasus", pegasus as fn() -> Command, &PEGASUS_VERBS[..]),
        ("b2c3", b2c3, &["simulate", "align", "run"]),
    ];
    let mut ranged = Vec::new();
    for (bin, command, verbs) in bins {
        for &verb in verbs {
            let help = command().args([verb, "--help"]).output().unwrap();
            let help = String::from_utf8_lossy(&help.stdout).into_owned();
            for line in help.lines().filter(|l| l.starts_with("  --")) {
                let Some((_, range)) = line.strip_suffix(']').and_then(|l| l.rsplit_once(" ["))
                else {
                    continue;
                };
                let flag = line[4..].split(' ').next().unwrap();
                ranged.push(format!("{bin} {verb} --{flag}"));
                let below = |min: &str| (min.parse::<i64>().unwrap() - 1).to_string();
                let probes = match range.split_once(' ').unwrap() {
                    ("in", span) => {
                        let (min, max) = span.split_once("..=").unwrap();
                        let above = max.parse::<u64>().unwrap() + 1;
                        vec![below(min), above.to_string()]
                    }
                    (">=", min) => vec![below(min)],
                    (">", min) => vec![min.to_string()],
                    other => panic!("{bin} {verb} --{flag}: unknown range {other:?}"),
                };
                for value in probes {
                    let argv = [verb, &format!("--{flag}"), &value];
                    let out = command().args(argv).output().unwrap();
                    let err = String::from_utf8_lossy(&out.stderr);
                    assert_eq!(out.status.code(), Some(2), "{bin} {argv:?}: {err}");
                    let want = format!(
                        "{bin} {verb}: --{flag} must be {range}, not {value:?}\n\
                         (see `{bin} {verb} --help`)\n"
                    );
                    assert_eq!(err, want, "{bin} {argv:?}");
                    assert!(out.stdout.is_empty(), "{bin} {argv:?} printed a result");
                    assert!(!err.contains("panicked") && !err.contains("memory allocation"));
                }
            }
        }
    }
    // The doors each range closed: past them a value aborted the
    // process allocating for it, or ran as a value it is not.
    for door in [
        "pegasus generate-dax --n",
        "pegasus generate-workload --size",
        "pegasus plan --cluster",
        "pegasus ensemble --sizes",
        "pegasus ensemble --slots",
        "pegasus trace --n",
        "pegasus verify --n",
        "pegasus run --backoff",
        "pegasus run --timeout",
        "pegasus serve --tenant-active",
        "b2c3 simulate --families",
        "b2c3 run --chunks",
        "b2c3 align --threads",
        "b2c3 run --threads",
    ] {
        assert!(ranged.iter().any(|r| r == door), "{door} declares no range");
    }
}

/// A slot budget or tenant quota of 0 is refused by every verb that
/// runs under it, in the same sentence as `--n 0`: the library would run
/// it as 1 (`ensemble`), or a daemon would refuse every DAX at
/// preflight while running every generated workload on one slot, or
/// (`--tenant-active`) start and then refuse every submission.
/// The address is one no daemon can bind, so nothing stays up if a
/// quota of 0 gets through.
#[test]
fn pegasus_refuses_a_zero_slot_budget_where_it_runs() {
    let dir = tmpdir("zero_slots");
    let state = dir.join("state");
    let state = state.to_str().unwrap();
    let serve = ["serve", "--addr", "127.0.0.1:99999", "--dir", state];
    let slots = "in 1..=1000000";
    for (argv, flag, range) in [
        (
            vec!["ensemble", "--sizes", "10", "--slots", "0"],
            "slots",
            slots,
        ),
        ([&serve[..], &["--slots", "0"]].concat(), "slots", slots),
        (
            [&serve[..], &["--tenant-slots", "0"]].concat(),
            "tenant-slots",
            slots,
        ),
        (
            [&serve[..], &["--tenant-active", "0"]].concat(),
            "tenant-active",
            ">= 1",
        ),
    ] {
        let out = pegasus().args(&argv).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        let want = format!(
            "pegasus {0}: --{flag} must be {range}, not \"0\"\n(see `pegasus {0} --help`)\n",
            argv[0]
        );
        assert_eq!(err, want, "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?} printed a result");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--backoff` and `--timeout` are seconds: a NaN, an infinity or a
/// negative number, and a timeout of 0, are refused where the retry
/// policy is built, as bad values of their flag. A NaN backoff used to
/// fail the run's own shadow verifier against the envelope `[NaN,
/// NaN]`, and a negative timeout timed out every attempt.
#[test]
fn pegasus_refuses_a_retry_delay_that_is_not_a_finite_duration() {
    const LOG: &str = "tests/fixtures/osg_n8.events";
    let dir = tmpdir("retry_delays");
    let dax = dir.join("s.dax");
    let dax = dax.to_str().unwrap();
    let plan = dir.join("storm.plan");
    std::fs::write(
        &plan,
        "plan storm\npreemption-storm start=0 duration=2000 kill-probability=0.5\n",
    )
    .unwrap();
    let plan = plan.to_str().unwrap();
    let made = pegasus()
        .args(["generate-dax", "--n", "10", "--out", dax])
        .output()
        .unwrap();
    assert!(made.status.success());
    let run = [
        "run",
        "--dax",
        dax,
        "--site",
        "sandhills",
        "--retries",
        "5",
        "--fault-plan",
        plan,
        "--verify",
        "--quiet",
    ];
    for (verb, flag, value) in [
        (&run[..], "backoff", "nan"),
        (&run[..], "backoff", "inf"),
        (&run[..], "backoff", "-1"),
        (&run[..], "timeout", "-5"),
        (&run[..], "timeout", "0"),
        (&["lint", dax][..], "backoff", "nan"),
        // verify builds the policy even where it asserts no envelope.
        (&["verify", LOG][..], "timeout", "nan"),
        (&["verify", LOG][..], "timeout", "-3"),
        (&["verify", LOG][..], "backoff", "nan"),
    ] {
        let flag_arg = format!("--{flag}");
        let argv = [verb, &[&flag_arg, value]].concat();
        let out = pegasus().args(&argv).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        let range = if flag == "timeout" { "> 0" } else { ">= 0" };
        let want = format!(
            "pegasus {0}: --{flag} must be {range}, not {value:?}\n(see `pegasus {0} --help`)\n",
            verb[0]
        );
        assert_eq!(err, want, "{argv:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A DAX `runtime` is a finite number of seconds, at least 0: `NaN`
/// panicked the planner's critical path and the simulator's clock, and
/// `inf` planned a critical path of `infs`. Each is refused at its
/// `<job>` tag, by lint as E0101 and by `plan` and `run` before work.
#[test]
fn pegasus_refuses_a_dax_runtime_that_is_not_a_finite_duration() {
    let dir = tmpdir("bad_runtime");
    let clean = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/lint/clean_small.dax"
    );
    let clean = std::fs::read_to_string(clean).unwrap();
    for runtime in ["NaN", "inf", "-1"] {
        let dax = dir.join(format!("rt_{runtime}.dax"));
        let text = clean.replacen("runtime=\"10\"", &format!("runtime=\"{runtime}\""), 1);
        std::fs::write(&dax, text).unwrap();
        let dax = dax.to_str().unwrap();
        let refusal = format!("bad runtime \"{runtime}\"");
        for (verb, expected) in [
            (
                &["lint", dax][..],
                format!("error[E0101]: {refusal}\n  --> {dax}:3:3"),
            ),
            (
                &["plan", "--dax", dax, "--site", "sandhills"],
                format!("at line 3, col 3: {refusal}"),
            ),
            (
                &["run", "--dax", dax, "--site", "sandhills", "--quiet"],
                format!("at line 3, col 3: {refusal}"),
            ),
        ] {
            let out = pegasus().args(verb).output().unwrap();
            let text = [out.stdout, out.stderr].concat();
            let text = String::from_utf8_lossy(&text);
            assert_eq!(out.status.code(), Some(1), "{verb:?}: {text}");
            assert!(!text.contains("panicked"), "{verb:?}: {text}");
            assert!(
                text.contains(&expected),
                "{verb:?}: want {expected:?} in {text}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Clustering Fig. 2 at k = 2 names its chunk clusters
/// `cluster_run_cap3_2_<i>`; a DAX whose own jobs already hold two of
/// those names is refused at the first collision in declaration order.
#[test]
fn pegasus_plan_refuses_a_job_named_like_a_merged_cluster() {
    let dir = tmpdir("cluster_collision");
    let dax = dir.join("fig2.dax");
    let out = pegasus()
        .args(["generate-dax", "--n", "4", "--out", dax.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let probes = r#"  <job id="cluster_run_cap3_2_1" name="probe_a" runtime="1"/>
  <job id="cluster_run_cap3_2_0" name="probe_b" runtime="1"/>
</adag>"#;
    let text = std::fs::read_to_string(&dax).unwrap();
    std::fs::write(&dax, text.replace("</adag>", probes)).unwrap();
    let plan = |extra: &[&str]| {
        let args = [
            "plan",
            "--dax",
            dax.to_str().unwrap(),
            "--site",
            "sandhills",
        ];
        pegasus().args(args).args(extra).output().unwrap()
    };
    assert!(plan(&[]).status.success());
    let out = plan(&["--cluster", "2"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "planning failed: duplicate job id \"cluster_run_cap3_2_0\"\n"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A transformation name with whitespace in it must not make `run
/// --events` write a log `--from-events` cannot read.
#[test]
fn pegasus_reads_back_the_log_of_a_dax_whose_names_hold_whitespace() {
    let dir = tmpdir("spaced");
    let (dax, log) = (dir.join("spaced.dax"), dir.join("spaced.events"));
    let text = r#"<?xml version="1.0" encoding="UTF-8"?>
<adag name="two words" jobCount="2">
  <job id="a" name="my tool" runtime="5">
    <uses file="in.txt" link="input" size="10"/>
    <uses file="mid.txt" link="output" size="10"/>
  </job>
  <job id="b" name="tab&#9;bed\tool" runtime="5">
    <uses file="mid.txt" link="input" size="10"/>
    <uses file="out.txt" link="output" size="10"/>
  </job>
</adag>
"#
    .replace("&#9;", "\t");
    std::fs::write(&dax, text).unwrap();
    let live = pegasus()
        .args(["run", "--dax", dax.to_str().unwrap(), "--site", "sandhills"])
        .args(["--events", log.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(
        live.status.success(),
        "{}",
        String::from_utf8_lossy(&live.stderr)
    );
    let written = std::fs::read_to_string(&log).unwrap();
    assert!(
        written.contains("transformation=my\\stool name=a\n"),
        "{written}"
    );
    for verb in ["statistics", "analyze", "verify"] {
        let out = pegasus()
            .args([verb, "--from-events", log.to_str().unwrap()])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{verb}: {err}");
        if verb == "statistics" {
            let csv = String::from_utf8_lossy(&out.stdout);
            assert!(csv.contains("\nmy tool,1,"), "{csv}");
            assert!(csv.contains("\ntab\tbed\\tool,1,"), "{csv}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pegasus_breakdown_and_metrics_sessions() {
    let dir = tmpdir("breakdown");

    // Live sweep: one hostile-OSG point, recording the event log and
    // the CSV.
    let live_csv = dir.join("live.csv");
    let out = pegasus()
        .args(["breakdown", "--site", "osg", "--sizes", "8", "--seed", "11"])
        .args(["--events-dir", dir.to_str().unwrap()])
        .args(["--out", live_csv.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = dir.join("osg_n8.events");
    assert!(events.exists());
    let live = std::fs::read_to_string(&live_csv).unwrap();
    assert!(live.starts_with("site,n,compute_jobs,"), "{live}");

    // Offline breakdown from the log alone must be byte-identical.
    let offline_csv = dir.join("offline.csv");
    let out = pegasus()
        .args(["breakdown", "--from-events", events.to_str().unwrap()])
        .args(["--out", offline_csv.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(std::fs::read_to_string(&offline_csv).unwrap(), live);

    // Same for the metrics exposition: the live sweep and the offline
    // replay of its event log render the same bytes.
    let live_prom = pegasus()
        .args(["metrics", "--site", "osg", "--sizes", "8", "--seed", "11"])
        .output()
        .unwrap();
    assert!(live_prom.status.success());
    let offline_prom = pegasus()
        .args(["metrics", "--from-events", events.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(offline_prom.status.success());
    let text = String::from_utf8_lossy(&offline_prom.stdout);
    assert!(text.starts_with("# HELP"), "{text}");
    assert!(text.contains("pegasus_phase_seconds_bucket"), "{text}");
    assert!(text.contains("reason=\"preempted\""), "{text}");
    assert_eq!(offline_prom.stdout, live_prom.stdout);

    // `pegasus run` wires the monitor too: the one-liner gains the
    // kickstart quantiles and --metrics dumps the exposition.
    let dax = dir.join("wf.dax");
    pegasus()
        .args(["generate-dax", "--n", "8"])
        .args(["--out", dax.to_str().unwrap()])
        .status()
        .unwrap();
    let prom = dir.join("run.prom");
    let out = pegasus()
        .args(["run", "--dax", dax.to_str().unwrap(), "--site", "sandhills"])
        .args(["--metrics", prom.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kickstart p50"), "{text}");
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("pegasus_workflows_total"), "{prom_text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper's simulated figures are `pegasus` sessions under the
/// default seed, pinned byte for byte in `tests/fixtures/equivalence/
/// paper/`: Fig. 4's wall times and retries (`metrics`) and its
/// ensemble makespans (`ensemble`), Fig. 5's per-task means
/// (`statistics` of each log the `breakdown` sweep records) beside the
/// phase breakdown itself, and the §VI-A optimum sweep (`metrics`).
#[test]
fn the_papers_simulated_figures_are_pegasus_sessions() {
    let dir = tmpdir("paper_figures");
    let golden = |args: &[&str], name: &str| {
        let out = pegasus().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {err}");
        let path = dir.join(name);
        std::fs::write(&path, out.stdout).unwrap();
        assert_matches_golden(&path, &format!("paper/{name}"));
    };
    let sweep = ["--sizes", "10,100,300,500", "--retries", "10"];
    let metrics = [&["metrics", "--site", "both"], &sweep[..]].concat();
    golden(&metrics, "sweep_r10.prom");
    for site in ["sandhills", "osg"] {
        let ensemble = ["ensemble", "--site", site, "--retries", "20", "--quiet"];
        golden(&ensemble, &format!("ensemble_{site}_r20.csv"));
    }
    let events_dir = ["--events-dir", dir.to_str().unwrap(), "--quiet"];
    let breakdown = [&["breakdown", "--site", "both"], &sweep[..], &events_dir].concat();
    golden(&breakdown, "sweep_r10.breakdown.csv");
    for site in ["sandhills", "osg"] {
        for n in [10, 100, 300, 500] {
            let log = dir.join(format!("{site}_n{n}.events"));
            let statistics = ["statistics", "--from-events", log.to_str().unwrap()];
            golden(&statistics, &format!("{site}_n{n}.stats.csv"));
        }
    }
    let optimum = [
        "--sizes",
        "10,25,50,100,200,300,400,500,750,1000",
        "--retries",
        "3",
    ];
    let metrics = [&["metrics", "--site", "sandhills"], &optimum[..]].concat();
    golden(&metrics, "optimum_r3.prom");
    std::fs::remove_dir_all(&dir).ok();
}

/// `BENCH_breakdown.json` is the `--json` rendering of the paper's
/// breakdown sweep, byte for byte.
#[test]
fn bench_breakdown_json_is_the_verbs_output() {
    let dir = tmpdir("bench_breakdown");
    let path = dir.join("BENCH_breakdown.json");
    let out = pegasus()
        .args(["breakdown", "--site", "both", "--sizes", "10,100,300,500"])
        .args(["--retries", "10", "--json", "--quiet", "--out"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_breakdown.json");
    assert!(
        std::fs::read(&path).unwrap() == std::fs::read(committed).unwrap(),
        "BENCH_breakdown.json differs from `pegasus breakdown --json`"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pegasus_workload_gallery_and_catalogs() {
    let dir = tmpdir("gallery");
    for shape in ["montage", "cybershake", "epigenomics", "ligo"] {
        let dax = dir.join(format!("{shape}.dax"));
        let out = pegasus()
            .args(["generate-workload", "--shape", shape, "--size", "8"])
            .args(["--out", dax.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{shape}");
        // Plans against the built-in catalogs.
        let out = pegasus()
            .args([
                "plan",
                "--dax",
                dax.to_str().unwrap(),
                "--site",
                "sandhills",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{shape}");
    }
    // Dump catalogs, then plan against the dumped file.
    let cat = dir.join("catalogs.txt");
    pegasus()
        .args(["catalogs", "--out", cat.to_str().unwrap()])
        .status()
        .unwrap();
    let dax = dir.join("montage.dax");
    let out = pegasus()
        .args(["plan", "--dax", dax.to_str().unwrap(), "--site", "osg"])
        .args(["--catalog", cat.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// The verbs a binary's usage screen lists, each with the flags its
/// `--help` lists.
fn verb_table(bin: fn() -> Command) -> Vec<(String, Vec<String>)> {
    let usage = bin().arg("help").output().unwrap();
    assert_eq!(usage.status.code(), Some(0));
    let usage = String::from_utf8(usage.stdout).unwrap();
    let verbs: Vec<String> = usage
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    verbs
        .into_iter()
        .map(|verb| {
            let help = bin().args([&verb, "--help"]).output().unwrap();
            assert_eq!(help.status.code(), Some(0), "{verb}");
            let help = String::from_utf8(help.stdout).unwrap();
            let flags = help
                .lines()
                .filter_map(|l| l.trim_start().strip_prefix("--"))
                .map(|l| l.split_whitespace().next().unwrap().to_string())
                .collect();
            (verb, flags)
        })
        .collect()
}

#[test]
fn every_verb_name_and_flag_is_unique() {
    for (bin, verbs) in [(pegasus as fn() -> Command, 16), (b2c3, 3)] {
        let table = verb_table(bin);
        assert_eq!(table.len(), verbs);
        for (i, (verb, flags)) in table.iter().enumerate() {
            assert!(table[i + 1..].iter().all(|(v, _)| v != verb), "{verb}");
            for (j, flag) in flags.iter().enumerate() {
                assert!(!flags[j + 1..].contains(flag), "{verb} --{flag}");
            }
        }
    }
}

/// A value a verb cannot parse is a usage error naming the flag and
/// the verb's `--help`, never a default quietly used instead; a flag
/// with a range says it.
#[test]
fn typed_getters_report_bad_values() {
    let bad_value = |flag: &str, v: &str| format!("bad value for {flag}: {v:?}");
    for (bin, argv, verb, refusal) in [
        (
            pegasus as fn() -> Command,
            &["serve", "--seed", "x"][..],
            "pegasus serve",
            bad_value("--seed", "x"),
        ),
        (
            pegasus,
            &["ensemble", "--slots", "-1"],
            "pegasus ensemble",
            "--slots must be in 1..=1000000, not \"-1\"".to_string(),
        ),
        (
            b2c3,
            &["simulate", "--seed", "x", "--dir", "d"],
            "b2c3 simulate",
            bad_value("--seed", "x"),
        ),
    ] {
        let out = bin().args(argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("{verb}: {refusal}\n(see `{verb} --help`)\n")
        );
    }
}

/// `b2c3` reads its command line through the one table-driven parser:
/// an unknown flag is refused, and the usage screen and every verb's
/// `--help` are generated from the table.
#[test]
fn b2c3_refuses_unknown_flags_and_documents_its_verbs() {
    let out = b2c3()
        .args(["align", "--transcripts", "t.fa", "--treads", "2"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown flag --treads"), "{err}");

    let usage = b2c3().arg("--help").output().unwrap();
    assert_eq!(usage.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&usage.stdout);
    assert!(usage.starts_with("usage: b2c3 <verb>"), "{usage}");
    for verb in ["simulate", "align", "run"] {
        assert!(usage.contains(&format!("\n  {verb} ")), "{usage}");
    }
    let help = b2c3().args(["run", "--help"]).output().unwrap();
    assert_eq!(help.status.code(), Some(0));
    let help = String::from_utf8_lossy(&help.stdout);
    assert!(help.starts_with("usage: b2c3 run [flags]"), "{help}");
    for flag in [
        "--transcripts <fasta>",
        "--alignments",
        "--serial",
        "--chunks",
    ] {
        assert!(help.contains(flag), "{help}");
    }
    let help = b2c3().args(["simulate", "--help"]).output().unwrap();
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("--families <n>"));
}

/// What `b2c3` cannot do is an exit code and one line, never a panic:
/// a closed stdout ends it quietly, an unwritable `--dir` is an I/O
/// error (exit 1), and zero families a usage error (exit 2) in the
/// sentence `pegasus` refuses `--n 0` with.
#[test]
fn b2c3_exits_cleanly_on_closed_stdout_bad_dirs_and_zero_families() {
    let dir = tmpdir("b2c3_doors");
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = b2c3()
        .args(["simulate", "--families", "5", "--dir"])
        .arg(dir.join("data"))
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    let file = dir.join("file");
    std::fs::write(&file, "").unwrap();
    let out = b2c3()
        .args(["simulate", "--families", "5", "--dir"])
        .arg(file.join("sub"))
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("cannot create "), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");

    let out = b2c3()
        .args(["simulate", "--families", "0", "--dir"])
        .arg(dir.join("zero"))
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("--families must be in 1..=100000, not \"0\""),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blast2cap3_simulate_then_run_both_modes() {
    let dir = tmpdir("b2c3");
    let out = b2c3()
        .args(["simulate", "--families", "30"])
        .args(["--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let transcripts = dir.join("transcripts.fasta");
    let alignments = dir.join("alignments.out");
    assert!(transcripts.exists() && alignments.exists());

    // Re-derive alignments with the align subcommand and check they
    // cluster the same transcripts.
    let proteins = dir.join("proteins.fasta");
    assert!(proteins.exists());
    let realigned = dir.join("realigned.out");
    let out = b2c3()
        .args(["align", "--transcripts", transcripts.to_str().unwrap()])
        .args(["--proteins", proteins.to_str().unwrap()])
        .args(["--out", realigned.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(realigned.exists());
    let rows = blastx::tabular::read_file(&realigned).unwrap();
    assert!(!rows.is_empty());

    let mut counts = Vec::new();
    for (mode, extra) in [
        ("parallel", vec!["--chunks", "8"]),
        ("serial", vec!["--serial"]),
    ] {
        let final_path = dir.join(format!("final_{mode}.fasta"));
        let out = b2c3()
            .args(["run", "--transcripts", transcripts.to_str().unwrap()])
            .args(["--alignments", alignments.to_str().unwrap()])
            .args(["--out", final_path.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let records = bioseq::fasta::read_file(&final_path).unwrap();
        assert!(!records.is_empty());
        counts.push(records.len());
    }
    assert_eq!(counts[0], counts[1], "modes must agree");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn b2c3_threads_past_the_ceiling_are_refused_before_any_work_and_the_ceiling_runs() {
    let dir = tmpdir("b2c3_threads");
    let out = b2c3()
        .args([
            "simulate",
            "--families",
            "2",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (transcripts, proteins) = (dir.join("transcripts.fasta"), dir.join("proteins.fasta"));
    let align = |threads: &str, tsv: &str| {
        b2c3()
            .args(["align", "--transcripts"])
            .arg(&transcripts)
            .arg("--proteins")
            .arg(&proteins)
            .args(["--threads", threads, "--out"])
            .arg(dir.join(tsv))
            .output()
            .unwrap()
    };
    // Refused where the flag is read: no file is opened, no thread
    // started, nothing written.
    for threads in ["257", "100000000"] {
        let out = align(threads, "refused.tsv");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{err}");
        let want = format!("--threads must be in 0..=256, not \"{threads}\"");
        assert!(err.contains(&want), "{err}");
        assert!(!dir.join("refused.tsv").exists());
    }
    // The ceiling itself runs, and finds what one thread finds.
    let (one, most) = (align("1", "one.tsv"), align("256", "most.tsv"));
    for out in [&one, &most] {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let read = |tsv: &str| std::fs::read_to_string(dir.join(tsv)).unwrap();
    assert!(!read("one.tsv").is_empty());
    assert_eq!(read("one.tsv"), read("most.tsv"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Simulates the 300-family, seed-7 transcriptome in a fresh `tag`
/// directory and aligns it with two threads into
/// `blastx_f300_s7.tsv` there.
fn aligned_f300_s7(tag: &str) -> PathBuf {
    let dir = tmpdir(tag);
    let out = b2c3()
        .args(["simulate", "--families", "300", "--seed", "7"])
        .args(["--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = b2c3()
        .args(["align", "--transcripts"])
        .arg(dir.join("transcripts.fasta"))
        .arg("--proteins")
        .arg(dir.join("proteins.fasta"))
        .args(["--threads", "2", "--out"])
        .arg(dir.join("blastx_f300_s7.tsv"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

/// Asserts that `path` holds the bytes of the equivalence golden `name`.
fn assert_matches_golden(path: &Path, name: &str) {
    let golden = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/equivalence")
            .join(name),
    )
    .unwrap();
    assert!(
        std::fs::read(path).unwrap() == golden,
        "{} differs from tests/fixtures/equivalence/{name}",
        path.display()
    );
}

/// Every HSP `b2c3 align` reports is pinned byte for byte: the golden
/// was written by the aligner before its kernels ran on lookup tables.
#[test]
fn blast2cap3_align_matches_the_blastx_golden() {
    let dir = aligned_f300_s7("blastx_golden");
    assert_matches_golden(&dir.join("blastx_f300_s7.tsv"), "blastx_f300_s7.tsv");
    std::fs::remove_dir_all(&dir).ok();
}

/// Both in-process drivers are pinned byte for byte on the aligned
/// 300-family transcriptome: the goldens were written before the
/// drivers borrowed the transcripts instead of copying them.
#[test]
fn blast2cap3_run_matches_the_serial_and_parallel_goldens() {
    let dir = aligned_f300_s7("run_golden");
    for (golden, extra) in [
        ("b2c3_serial_f300_s7.fasta", vec!["--serial"]),
        (
            "b2c3_parallel_c64_t2_f300_s7.fasta",
            vec!["--chunks", "64", "--threads", "2"],
        ),
    ] {
        let assembly = dir.join(golden);
        let out = b2c3()
            .args(["run", "--transcripts"])
            .arg(dir.join("transcripts.fasta"))
            .arg("--alignments")
            .arg(dir.join("blastx_f300_s7.tsv"))
            .arg("--out")
            .arg(&assembly)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_matches_golden(&assembly, golden);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The settings `b2c3` exposes, and the protein reader behind `align`,
/// keep what they refuse and what they filter: a protein database with
/// a non-residue byte or a line before its first header is an I/O
/// error naming the database, an overlap below CAP3's seed k-mer is
/// refused before any work, and a tighter `--max-evalue` keeps fewer
/// rows than the default.
#[test]
fn b2c3_refuses_bad_proteins_and_short_overlaps_and_filters_by_evalue() {
    let dir = aligned_f300_s7("settings_pins");
    let transcripts = dir.join("transcripts.fasta");
    let align = |proteins: &Path, extra: &[&str], out: &Path| {
        b2c3()
            .args(["align", "--transcripts"])
            .arg(&transcripts)
            .arg("--proteins")
            .arg(proteins)
            .args(["--threads", "2"])
            .args(extra)
            .arg("--out")
            .arg(out)
            .output()
            .unwrap()
    };
    let ignored = dir.join("ignored.tsv");
    for (name, text, wants) in [
        ("residue.fasta", ">p\nMK1V\n", "record \"p\""),
        ("headless.fasta", "MKV\n>p\nMKV\n", "line 1"),
    ] {
        let proteins = dir.join(name);
        std::fs::write(&proteins, text).unwrap();
        let out = align(&proteins, &[], &ignored);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains("cannot read proteins"), "{name}: {err}");
        assert!(err.contains(wants), "{name}: {err}");
    }
    assert!(!ignored.exists());

    let out = b2c3()
        .args(["run", "--transcripts"])
        .arg(&transcripts)
        .arg("--alignments")
        .arg(dir.join("blastx_f300_s7.tsv"))
        .arg("--out")
        .arg(dir.join("never.fasta"))
        .args(["--min-overlap", "11"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("seed_k 12 exceeds min_overlap_len 11"),
        "{err}"
    );
    assert!(!dir.join("never.fasta").exists());

    let strict = dir.join("strict.tsv");
    let out = align(
        &dir.join("proteins.fasta"),
        &["--max-evalue", "1e-30"],
        &strict,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows = |p: &Path| std::fs::read_to_string(p).unwrap().lines().count();
    let (strict, default) = (rows(&strict), rows(&dir.join("blastx_f300_s7.tsv")));
    assert!(0 < strict && strict < default, "{strict} vs {default}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `bin` with `args` under a file-size limit of `blocks` (the
/// shell's `ulimit -f` unit), so the kernel kills it (SIGXFSZ) at the
/// first write past that size.
fn under_file_limit(blocks: usize, bin: &str, args: &[&str]) -> std::process::Output {
    Command::new("sh")
        .args([
            "-c",
            "ulimit -f \"$0\"; exec \"$@\"",
            &blocks.to_string(),
            bin,
        ])
        .args(args)
        .output()
        .unwrap()
}

/// A verb killed mid-write leaves its target whole: the old bytes or
/// the complete new ones, never a prefix. Each child runs under every
/// file-size limit below its output's size (in 512-byte blocks, the
/// smaller unit a shell's `ulimit -f` counts in), each time over a
/// target holding old bytes; afterwards an unlimited run succeeds
/// beside whatever stale `.part` the killed ones left.
#[test]
fn a_verb_killed_mid_write_leaves_its_target_old_or_whole() {
    let dir = tmpdir("killed_writes");
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (pegasus, b2c3) = (env!("CARGO_BIN_EXE_pegasus"), env!("CARGO_BIN_EXE_b2c3"));
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/osg_n8.events");
    let ran = |bin: &str, args: &[&str]| {
        let out = Command::new(bin).args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    ran(
        pegasus,
        &["generate-dax", "--n", "20", "--out", &at("wf.dax")],
    );
    ran(
        b2c3,
        &[
            "simulate",
            "--families",
            "40",
            "--seed",
            "7",
            "--dir",
            &at(""),
        ],
    );
    ran(
        b2c3,
        &[
            "align",
            "--transcripts",
            &at("transcripts.fasta"),
            "--proteins",
            &at("proteins.fasta"),
            "--threads",
            "1",
            "--out",
            &at("hits.tsv"),
        ],
    );

    let (wf, transcripts, proteins, hits) = (
        at("wf.dax"),
        at("transcripts.fasta"),
        at("proteins.fasta"),
        at("hits.tsv"),
    );
    let (prom, chrome, events, tsv, fasta) = (
        at("x.prom"),
        at("x.json"),
        at("x.events"),
        at("x.tsv"),
        at("x.fasta"),
    );
    let sessions: [(&str, Vec<&str>, &str); 5] = [
        (
            pegasus,
            vec!["metrics", "--from-events", fixture, "--out", &prom],
            &prom,
        ),
        (
            pegasus,
            vec![
                "trace",
                "--from-events",
                fixture,
                "--format",
                "chrome",
                "--quiet",
                "--out",
                &chrome,
            ],
            &chrome,
        ),
        (
            pegasus,
            vec![
                "run", "--dax", &wf, "--site", "osg", "--quiet", "--events", &events,
            ],
            &events,
        ),
        (
            b2c3,
            vec![
                "align",
                "--transcripts",
                &transcripts,
                "--proteins",
                &proteins,
                "--threads",
                "1",
                "--out",
                &tsv,
            ],
            &tsv,
        ),
        (
            b2c3,
            vec![
                "run",
                "--transcripts",
                &transcripts,
                "--alignments",
                &hits,
                "--chunks",
                "4",
                "--threads",
                "1",
                "--out",
                &fasta,
            ],
            &fasta,
        ),
    ];
    let old = b"old bytes\n";
    for (bin, args, target) in &sessions {
        ran(bin, args);
        let whole = std::fs::read(target).unwrap();
        let mut killed = 0;
        for blocks in (0..).take_while(|k| k * 512 < whole.len()) {
            std::fs::write(target, old).unwrap();
            let out = under_file_limit(blocks, bin, args);
            killed += usize::from(!out.status.success());
            let left = std::fs::read(target).unwrap();
            assert!(
                left == old || left == whole,
                "{target} after a kill at {blocks} blocks holds {} of {} bytes",
                left.len(),
                whole.len()
            );
        }
        assert!(
            killed > 0,
            "no limit stopped {args:?} ({} bytes)",
            whole.len()
        );
        std::fs::write(format!("{target}.part"), "a stale prefix").unwrap();
        ran(bin, args);
        assert_eq!(std::fs::read(target).unwrap(), whole, "{target}");
        assert!(
            !Path::new(&format!("{target}.part")).exists(),
            "{target}.part"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
