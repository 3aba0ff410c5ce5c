//! The figure table of `wms-bench` is the only list: the documents and
//! CI spell their commands from it and cannot drift from it.

use std::collections::BTreeSet;
use std::process::{Command, Stdio};

/// First word of every table line in `text`.
fn names(text: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(text);
    let rows = text.lines().filter(|l| !l.starts_with("usage"));
    let first = |l: &str| Some(l.split_whitespace().next()?.to_string());
    rows.filter_map(first).collect()
}

/// Every subcommand `file` spells: the word after the `--` of a
/// `cargo run -p wms-bench … -- <name>`, or straight after a quoted or
/// path-invoked `wms-bench`. Flags and placeholders are not names.
fn spelled(file: &str) -> BTreeSet<String> {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut found = BTreeSet::new();
    for (at, invoked) in text.match_indices("wms-bench ") {
        let rest = text[at + invoked.len()..].lines().next().unwrap_or("");
        let direct = text[..at].ends_with(['`', '/']);
        let after = if direct {
            rest
        } else {
            rest.split_once("-- ").map_or("", |r| r.1)
        };
        let name = |c: &char| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_';
        let word: String = after.chars().take_while(name).collect();
        if !word.is_empty() {
            found.insert(word);
        }
    }
    found
}

#[test]
fn the_table_is_the_only_list() {
    let bin = env!("CARGO_BIN_EXE_wms-bench");
    let listed = Command::new(bin).arg("--list").output().unwrap();
    assert!(listed.status.success());
    let table = names(&listed.stdout);
    let unique: BTreeSet<String> = table.iter().cloned().collect();
    assert_eq!(unique.len(), table.len(), "duplicate name in {table:?}");

    let ci = ".github/workflows/ci.yml";
    for (i, file) in ["README.md", "EXPERIMENTS.md", "DESIGN.md", ci]
        .iter()
        .enumerate()
    {
        let spelled = spelled(file);
        let unknown: Vec<_> = spelled.difference(&unique).collect();
        assert!(
            unknown.is_empty(),
            "{file} spells {unknown:?}, not in the table"
        );
        // The two user-facing documents each run every figure.
        let missing: Vec<_> = unique.difference(&spelled).collect();
        assert!(
            i >= 2 || missing.is_empty(),
            "{file} never runs {missing:?}"
        );
    }

    let nope = Command::new(bin).arg("nope").output().unwrap();
    assert_eq!(nope.status.code(), Some(2));
    assert_eq!(names(&nope.stderr), table, "an unknown name prints it");
}

/// The deterministic figure `reduction` runs to completion.
#[test]
fn the_deterministic_reduction_figure_runs() {
    let bin = env!("CARGO_BIN_EXE_wms-bench");
    let out = Command::new(bin).arg("reduction").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A reader that has gone away ends `wms-bench` quietly, as it ends
/// `pegasus`: exit 0, no panic.
#[test]
fn a_closed_stdout_exits_0() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_wms-bench"))
        .arg("--list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
