//! The streaming gate: the verbs that fold an event log hold what the
//! run's jobs need, not the log. A 10^5-job OSG run under a preemption
//! storm writes its log with `pegasus run --events`, and `statistics`,
//! `analyze`, `breakdown`, `metrics --from-events`, `verify` and
//! `trace` in both formats read it back as children whose peak
//! resident set (`VmHWM`) is read from outside, by polling
//! `/proc/<pid>/status` while each runs. `trace` holds the span tree
//! besides the run, never its rendered text.
//!
//! `#[ignore]`-gated because the bounds only mean anything in release
//! mode — CI runs it with `cargo test --release -- --ignored`.

use std::path::Path;
use std::process::{Command, Stdio};

const PEGASUS: &str = env!("CARGO_BIN_EXE_pegasus");

/// The verbs under the fold ceiling, each reading the log as its one
/// source.
const FOLDS: [&[&str]; 5] = [
    &["statistics", "--from-events"],
    &["analyze", "--from-events"],
    &["breakdown", "--quiet", "--from-events"],
    &["metrics", "--from-events"],
    &["verify"],
];

/// The verbs under the trace ceiling.
const TRACES: [&[&str]; 2] = [
    &["trace", "--from-events"],
    &["trace", "--format", "chrome", "--from-events"],
];

/// The storms and each one's fold and trace ceilings in MB. Failed
/// attempts are fold state (one table entry each), so the harsher
/// storm may hold more: at a kill probability of 0.5 the log is 59.6 MB
/// with 47,918 failures, at 0.8 it is 74.1 MB with 79,258. On a 2-vCPU
/// VM the fold verbs peaked at 101–158 and 123–196 MB while they read
/// the whole text, at 30–41 and 37–47 MB streamed with a `Vec` of
/// failures per failed job, and at 21–32 and 23–34 MB with one table
/// (`verify` the highest: its walker holds the records). `trace` peaked
/// at 98–118 and 107–143 MB while it rendered its output whole, and at
/// 38–39 and 42 MB writing it as it renders.
const STORMS: [(f64, f64, f64); 2] = [(0.5, 35.0, 45.0), (0.8, 38.0, 50.0)];

/// The highest `VmHWM` seen while `pegasus <args>` runs, in MB, with
/// its stdout sent to a file (a pipe nobody reads would stall it). The
/// poll does not sleep: a peak reached just before the child exits is
/// read only if the poll comes round in time.
fn peak_mb(args: &[&str], dir: &Path) -> f64 {
    let out = std::fs::File::create(dir.join("stdout")).unwrap();
    let mut child = Command::new(PEGASUS)
        .args(args)
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let status = format!("/proc/{}/status", child.id());
    let mut peak_kb = 0.0f64;
    loop {
        // A zombie's status has no VmHWM line: the last reading stands.
        let hwm = std::fs::read_to_string(&status).ok().and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
        peak_kb = peak_kb.max(hwm.unwrap_or(0.0));
        if let Some(exit) = child.try_wait().unwrap() {
            assert!(exit.success(), "pegasus {args:?}: {exit}");
            return peak_kb / 1024.0;
        }
        std::thread::yield_now();
    }
}

fn pegasus(args: &[&str]) {
    let out = Command::new(PEGASUS).args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "pegasus {args:?}: {err}");
}

#[test]
#[ignore = "release-mode memory gate; run with --release -- --ignored"]
fn the_fold_verbs_stream_a_storm_log_within_a_ceiling() {
    let dir = std::env::temp_dir().join(format!("stream_rss_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let dax = path("d.dax");
    pegasus(&["generate-dax", "--n", "100000", "--out", &dax]);
    let mut over = Vec::new();
    for (kill, folds, traces) in STORMS {
        let plan = path("storm.plan");
        let storm = format!(
            "plan storm\npreemption-storm start=3000 duration=1000000 kill-probability={kill}\n"
        );
        std::fs::write(&plan, storm).unwrap();
        let log = path("storm.events");
        #[rustfmt::skip]
        pegasus(&["run", "--dax", &dax, "--site", "osg", "--retries", "30", "--backoff", "60",
                  "--fault-plan", &plan, "--events", &log, "--quiet"]);
        let bytes = std::fs::metadata(&log).unwrap().len() as f64 / 1e6;
        let bounded = (FOLDS.into_iter().map(|verb| (verb, folds)))
            .chain(TRACES.into_iter().map(|verb| (verb, traces)));
        for (verb, ceiling) in bounded {
            let peak = peak_mb(&[verb, &[log.as_str()]].concat(), &dir);
            println!("kill-probability={kill} log {bytes:.1} MB: {verb:?} peaked at {peak:.1} MB");
            if peak > ceiling {
                over.push(format!("{verb:?} at {kill}: {peak:.1} MB > {ceiling} MB"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(over.is_empty(), "over the ceiling: {over:?}");
}
