//! End-to-end tests of `pegasus trace`: the span layer's CLI surface,
//! run as a real process.
//!
//! The invariant under test is the one every provenance surface in
//! this repo upholds: the *live* fold (simulate, then fold the
//! in-memory stream) and the *offline* fold (parse the written event
//! log, then fold) must render byte-identically — for the plain-text
//! tree and for the Chrome Trace Event JSON, across seeds and sites.
//! On top of that, the Chrome export must be structurally valid:
//! balanced, one event per line, timestamps monotone per track.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("b2c3_trace_tests")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pegasus() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pegasus"))
}

fn run_ok(cmd: &mut Command) {
    let out = cmd.output().expect("spawn pegasus");
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One live run that writes its event log, then the offline fold of
/// that log, in `format`; returns `(live, offline)` rendered bytes.
fn live_and_offline(dir: &Path, site: &str, seed: u64, format: &str) -> (String, String) {
    let log = dir.join(format!("{site}-{seed}.events"));
    let live = dir.join(format!("{site}-{seed}-live.{format}"));
    let offline = dir.join(format!("{site}-{seed}-offline.{format}"));
    run_ok(
        pegasus()
            .args(["trace", "--site", site, "--n", "30"])
            .args(["--seed", &seed.to_string(), "--format", format])
            .args(["--events", log.to_str().unwrap()])
            .args(["--out", live.to_str().unwrap(), "--quiet"]),
    );
    run_ok(
        pegasus()
            .args(["trace", "--from-events", log.to_str().unwrap()])
            .args(["--format", format])
            .args(["--out", offline.to_str().unwrap(), "--quiet"]),
    );
    (
        std::fs::read_to_string(live).unwrap(),
        std::fs::read_to_string(offline).unwrap(),
    )
}

#[test]
fn live_and_offline_folds_are_byte_identical_across_seeds_and_sites() {
    let dir = tmpdir("equiv");
    for site in ["sandhills", "osg"] {
        for seed in [7u64, 11, 42] {
            for format in ["text", "chrome"] {
                let (live, offline) = live_and_offline(&dir, site, seed, format);
                assert_eq!(
                    live, offline,
                    "{site} seed {seed} {format}: live and offline must be byte-identical"
                );
                assert!(!live.is_empty());
            }
            // The written log carries the derived trace id, and the
            // text tree leads with it.
            let log = std::fs::File::open(dir.join(format!("{site}-{seed}.events"))).unwrap();
            let read = pegasus_wms::events::log::read(log, |_, _| {}).unwrap();
            let id = read.unwrap().expect("log carries a trace id");
            assert_eq!(id, pegasus_wms::trace::TraceId::derive(seed, 0));
            let text =
                std::fs::read_to_string(dir.join(format!("{site}-{seed}-live.text"))).unwrap();
            assert!(text.starts_with(&format!("trace {id} ")), "{text}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chrome_export_is_structurally_valid_with_monotone_tracks() {
    let dir = tmpdir("chrome");
    let (json, _) = live_and_offline(&dir, "osg", 42, "chrome");

    assert!(json.starts_with("{\"traceEvents\":[\n"), "{json}");
    assert!(json.ends_with("]}\n"), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());

    // One event object per line; every line but the framing ones is a
    // complete object, optionally comma-terminated.
    let lines: Vec<&str> = json.lines().collect();
    assert!(lines.len() > 4, "a 30-cluster run has many spans");
    let field = |line: &str, key: &str| -> Option<i64> {
        let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        let end = rest.find([',', '}']).unwrap();
        rest[..end].parse().ok()
    };
    let mut tracks: std::collections::BTreeMap<(i64, i64), i64> = std::collections::BTreeMap::new();
    let mut saw_metadata = false;
    let mut saw_complete = false;
    for line in &lines[1..lines.len() - 1] {
        let body = line.strip_suffix(',').unwrap_or(line);
        assert!(body.starts_with('{') && body.ends_with('}'), "{line}");
        if body.contains("\"ph\":\"M\"") {
            saw_metadata = true;
            continue;
        }
        assert!(body.contains("\"ph\":\"X\""), "only M and X events: {line}");
        saw_complete = true;
        let pid = field(body, "pid").expect("pid");
        let tid = field(body, "tid").expect("tid");
        let ts = field(body, "ts").expect("ts");
        let dur = field(body, "dur").expect("dur");
        assert!(dur >= 0, "negative duration: {line}");
        let last = tracks.entry((pid, tid)).or_insert(i64::MIN);
        assert!(
            ts >= *last,
            "track ({pid},{tid}) ts must be monotone: {line}"
        );
        *last = ts;
    }
    assert!(saw_metadata && saw_complete);
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed Chrome-trace goldens (n=100, seed 20140519, both
/// sites) pin the whole pipeline — simulation, fold, export — to the
/// byte. Regenerate with:
/// `pegasus trace --site <site> --n 100 --seed 20140519 --format
/// chrome --out tests/fixtures/trace/<site>_n100.json`.
#[test]
fn golden_chrome_traces_are_byte_stable() {
    let dir = tmpdir("golden");
    for site in ["sandhills", "osg"] {
        let out = dir.join(format!("{site}.json"));
        run_ok(
            pegasus()
                .args(["trace", "--site", site, "--n", "100"])
                .args(["--seed", "20140519", "--format", "chrome"])
                .args(["--out", out.to_str().unwrap(), "--quiet"]),
        );
        let got = std::fs::read_to_string(&out).unwrap();
        let golden = std::fs::read_to_string(format!(
            "{}/tests/fixtures/trace/{site}_n100.json",
            env!("CARGO_MANIFEST_DIR")
        ))
        .unwrap();
        assert_eq!(
            got, golden,
            "{site}: Chrome trace drifted from the committed golden"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_dir_mode_folds_every_member_of_a_serve_state_directory() {
    let dir = tmpdir("events-dir");
    let members = dir.join("members");
    std::fs::create_dir_all(&members).unwrap();
    // Two member logs written the way the daemon writes them: one
    // live traced run each, ids derived from distinct seeds.
    for (i, seed) in [7u64, 11].into_iter().enumerate() {
        run_ok(
            pegasus()
                .args(["trace", "--site", "sandhills", "--n", "10"])
                .args(["--seed", &seed.to_string(), "--quiet"])
                .args(["--out", dir.join("ignore.txt").to_str().unwrap()])
                .args([
                    "--events",
                    members.join(format!("m{i}.events")).to_str().unwrap(),
                ]),
        );
    }
    let out = dir.join("all.txt");
    run_ok(
        pegasus()
            .args(["trace", "--events-dir", dir.to_str().unwrap()])
            .args(["--out", out.to_str().unwrap(), "--quiet"]),
    );
    let text = std::fs::read_to_string(&out).unwrap();
    let trees: Vec<&str> = text.lines().filter(|l| l.starts_with("trace ")).collect();
    assert_eq!(trees.len(), 2, "one tree per member: {text}");
    assert!(trees[0].contains(&pegasus_wms::trace::TraceId::derive(7, 0).to_string()));
    assert!(trees[1].contains(&pegasus_wms::trace::TraceId::derive(11, 0).to_string()));
    std::fs::remove_dir_all(&dir).ok();
}
