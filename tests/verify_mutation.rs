//! Mutation harness for the `pegasus verify` temporal invariant
//! catalog: the detection-power half of its test suite.
//!
//! The unit tests in `pegasus_wms::verify` show each invariant fires
//! on a hand-built violation; this harness shows the catalog has no
//! blind spots over *real* streams. Every golden event log under
//! `tests/fixtures/equivalence/` is corrupted one event at a time —
//! drop a line, duplicate a line, swap two adjacent lines, mutate one
//! field, add a field no event has, give a field twice — and every
//! corruption must either be flagged with a
//! specific `E08xx` code or be provably harmless (a swap of two
//! commuting events that replays to the byte-identical run).
//!
//! The untouched goldens themselves must verify clean, and the
//! verifier's verdict must not depend on whether a stream arrived
//! live or from a log — both pinned here too. So is `lint --events`,
//! which runs the same walker: it accepts every prefix of a golden as
//! a truncated run, and every finding it makes on a mutant is one the
//! verifier makes, under the same code.

use pegasus_wms::engine::RetryPolicy;
use pegasus_wms::events::{self, log};
use pegasus_wms::lint::{self, Diagnostic};
use pegasus_wms::statistics::{compute, render_csv};
use pegasus_wms::verify::{self, VerifyOptions};
use std::path::PathBuf;

const SEEDS: [u64; 3] = [7, 11, 42];
const SITES: [&str; 2] = ["sandhills", "osg"];

/// The retry budget the goldens were captured with (see
/// `tests/interning_equivalence.rs`): flat policy, no backoff, so the
/// envelope check demands `backoff=0` on every retry-scheduled line.
fn golden_opts() -> VerifyOptions {
    VerifyOptions {
        slot_capacity: None,
        retry: Some(RetryPolicy::flat(50)),
    }
}

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/equivalence")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn check_text(text: &str, label: &str, opts: &VerifyOptions) -> Vec<Diagnostic> {
    match log::parse_lines(text) {
        Ok(evs) => verify::check_stream(&evs, label, opts),
        // A mutation that breaks the line grammar itself is caught
        // one layer down; surface it as a synthetic framing finding
        // so the sweep counts it as detected.
        Err(_) => vec![Diagnostic::new(
            "E0807",
            label,
            pegasus_wms::error::Span::none(),
            "mutated line no longer parses",
        )],
    }
}

#[test]
fn untouched_goldens_verify_clean() {
    let opts = golden_opts();
    for site in SITES {
        for n in [10usize, 300] {
            for seed in SEEDS {
                let name = format!("{site}_n{n}_s{seed}.events");
                let diags = check_text(&fixture(&name), &name, &opts);
                assert!(
                    diags.is_empty(),
                    "{name}: expected a clean verdict, got:\n{}",
                    pegasus_wms::lint::render_text(&diags)
                );
            }
        }
    }
    // The older standalone fixture predates the equivalence set but
    // is an engine stream all the same.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/osg_n8.events");
    let text = std::fs::read_to_string(&path).expect("read osg_n8.events");
    let diags = check_text(&text, "osg_n8.events", &VerifyOptions::default());
    assert!(
        diags.is_empty(),
        "osg_n8.events: {}",
        pegasus_wms::lint::render_text(&diags)
    );
}

/// Prefix closure of `lint --events`: every clause it reports is
/// judged as its event arrives, looking only backwards, so a golden
/// cut after any k events draws nothing but the truncation warning —
/// in particular the manifest's length is held against the header's
/// count when the manifest closes, not at the end — and the whole log
/// draws nothing at all.
fn assert_prefix_closed(n: usize) {
    let codes = |diags: Vec<Diagnostic>| diags.iter().map(|d| d.code).collect::<Vec<_>>();
    for site in SITES {
        for seed in SEEDS {
            let name = format!("{site}_n{n}_s{seed}.events");
            let events = log::parse_lines(&fixture(&name)).expect("goldens parse");
            for k in 0..=events.len() {
                let want: &[&str] = match k {
                    0 => &["E0807"],
                    k if k < events.len() => &["W0707"],
                    _ => &[],
                };
                let got = codes(lint::check_events(&events[..k], &name));
                assert_eq!(got, want, "{name} cut after {k} events");
            }
        }
    }
}

#[test]
fn every_prefix_of_the_n10_goldens_lints_as_truncated_and_nothing_else() {
    assert_prefix_closed(10);
}

#[test]
#[ignore = "quadratic in the log length; run with -- --ignored"]
fn every_prefix_of_the_n300_goldens_lints_as_truncated_and_nothing_else() {
    assert_prefix_closed(300);
}

/// The line indices (into `text.lines()`) holding events — header and
/// comment lines are not part of the stream and are skipped by the
/// parser anyway.
fn event_line_indices(text: &str) -> Vec<usize> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.trim().starts_with('#'))
        .map(|(i, _)| i)
        .collect()
}

fn splice(lines: &[&str], f: impl FnOnce(&mut Vec<String>)) -> String {
    let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
    f(&mut out);
    let mut text = out.join("\n");
    text.push('\n');
    text
}

/// Mutates one field of an event line, deterministically: bump the
/// attempt if the line has one, otherwise shift its time by 1000s,
/// otherwise flip the succeeded flag.
fn mutate_field(line: &str) -> String {
    let mut toks: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    for t in &mut toks {
        if let Some(v) = t
            .strip_prefix("attempt=")
            .or(t.strip_prefix("next-attempt="))
        {
            let n: u32 = v.parse().expect("attempt field parses");
            let key = t.split('=').next().unwrap().to_string();
            *t = format!("{key}={}", n + 1);
            return toks.join(" ");
        }
    }
    for t in &mut toks {
        if let Some(v) = t.strip_prefix("time=") {
            let x: f64 = v.parse().expect("time field parses");
            *t = format!("time={}", x + 1000.0);
            return toks.join(" ");
        }
    }
    // Manifest lines (`job id=... kind=...`) carry neither attempt
    // nor time; corrupt the declared id instead.
    for t in &mut toks {
        if let Some(v) = t.strip_prefix("id=") {
            let n: u32 = v.parse().expect("id field parses");
            *t = format!("id={}", n + 1);
            return toks.join(" ");
        }
    }
    for t in &mut toks {
        if t.starts_with("succeeded=") {
            *t = if t.ends_with("true") {
                "succeeded=false".into()
            } else {
                "succeeded=true".into()
            };
            return toks.join(" ");
        }
    }
    // Terminal event lines carry no time=/attempt= head tokens only
    // when already matched above; falling through means the grammar
    // grew a new event kind — fail loudly so the harness is extended.
    panic!("no mutable field on line: {line}");
}

/// Adds one `key=value` field to an event line where the grammar
/// reads it as a field: at the end, or ahead of the `name=` /
/// `detail=` that opens the line's free text (what follows those is
/// their value, whatever it looks like).
fn add_field(line: &str, field: &str) -> String {
    match [" name=", " detail="].iter().find_map(|t| line.find(t)) {
        Some(at) => format!("{} {field}{}", &line[..at], &line[at..]),
        None => format!("{line} {field}"),
    }
}

/// The line's first field again, with another value.
fn repeat_field(line: &str) -> String {
    let first = line.split_whitespace().nth(1).expect("an event has fields");
    add_field(line, &format!("{first}1"))
}

/// A swap that goes undetected is acceptable only if it is harmless:
/// the swapped stream must replay to the byte-identical run (same
/// statistics, same outcome) as the original. Everything else is a
/// blind spot.
fn replay_equivalent(original: &str, mutated: &str) -> bool {
    let a = log::parse(original)
        .ok()
        .and_then(|e| events::replay(&e).ok());
    let b = log::parse(mutated)
        .ok()
        .and_then(|e| events::replay(&e).ok());
    match (a, b) {
        (Some(a), Some(b)) => {
            a.succeeded() == b.succeeded() && render_csv(&compute(&a)) == render_csv(&compute(&b))
        }
        _ => false,
    }
}

/// One full single-event corruption sweep over one golden log.
/// Returns human-readable descriptions of every undetected corruption.
fn sweep(name: &str, text: &str, opts: &VerifyOptions) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let targets = event_line_indices(text);
    let mut misses = Vec::new();

    let flagged = |mutated: &str| -> bool {
        let verdict = check_text(mutated, name, opts);
        // `lint --events` is the same walker minus the end-of-stream
        // clauses: each of its findings but the truncation warning is
        // one of verify's, under the same code, at the same line.
        if let Ok(evs) = log::parse_lines(mutated) {
            let same = |l: &Diagnostic, v: &Diagnostic| {
                (l.code, l.span, &l.message) == (v.code, v.span, &v.message)
            };
            for found in lint::check_events(&evs, name) {
                assert!(
                    found.code == "W0707" || verdict.iter().any(|v| same(&found, v)),
                    "{name}: lint --events finds what verify does not: {found:?}\n{mutated}"
                );
            }
        }
        verdict.iter().any(|d| d.code.starts_with("E08"))
    };

    for &i in &targets {
        let dropped = splice(&lines, |v| {
            v.remove(i);
        });
        if !flagged(&dropped) {
            misses.push(format!("{name}: drop line {} undetected", i + 1));
        }

        let duplicated = splice(&lines, |v| v.insert(i + 1, lines[i].to_string()));
        if !flagged(&duplicated) {
            misses.push(format!("{name}: duplicate line {} undetected", i + 1));
        }

        let mutated = splice(&lines, |v| v[i] = mutate_field(lines[i]));
        if !flagged(&mutated) {
            misses.push(format!(
                "{name}: field mutation on line {} undetected ({})",
                i + 1,
                mutate_field(lines[i])
            ));
        }

        // Two corruptions of the line's text rather than of its
        // event: a field no event has, and a field the line already
        // had. Neither names a different event, so only a reader that
        // accounts for every field can see them.
        for (what, line) in [
            ("unknown field", add_field(lines[i], "x=1")),
            ("repeated field", repeat_field(lines[i])),
        ] {
            if !flagged(&splice(&lines, |v| v[i] = line.clone())) {
                misses.push(format!(
                    "{name}: {what} on line {} undetected ({line})",
                    i + 1
                ));
            }
        }
    }

    // Adjacent swaps of consecutive event lines. Two events carrying
    // the same emission time commute — the log format orders them by
    // emission index, but either order replays identically — so an
    // undetected swap is only a miss if the replays diverge.
    for pair in targets.windows(2) {
        let (i, j) = (pair[0], pair[1]);
        if j != i + 1 {
            continue;
        }
        let swapped = splice(&lines, |v| v.swap(i, j));
        if !flagged(&swapped) && !replay_equivalent(text, &swapped) {
            misses.push(format!(
                "{name}: swap of lines {}/{} undetected and not replay-equivalent",
                i + 1,
                j + 1
            ));
        }
    }

    misses
}

#[test]
fn every_single_event_corruption_of_the_n10_goldens_is_detected() {
    let opts = golden_opts();
    let mut misses = Vec::new();
    for site in SITES {
        for seed in SEEDS {
            let name = format!("{site}_n10_s{seed}.events");
            misses.extend(sweep(&name, &fixture(&name), &opts));
        }
    }
    assert!(
        misses.is_empty(),
        "{} undetected corruption(s):\n{}",
        misses.len(),
        misses.join("\n")
    );
}

/// The same sweep over the n=300 goldens: ~10x the mutations, so it
/// only runs when asked (`cargo test -- --ignored`); CI runs it on
/// the full gate.
#[test]
#[ignore = "large sweep; run with -- --ignored"]
fn every_single_event_corruption_of_the_n300_goldens_is_detected() {
    let opts = golden_opts();
    let mut misses = Vec::new();
    for site in SITES {
        for seed in SEEDS {
            let name = format!("{site}_n300_s{seed}.events");
            misses.extend(sweep(&name, &fixture(&name), &opts));
        }
    }
    assert!(
        misses.is_empty(),
        "{} undetected corruption(s):\n{}",
        misses.len(),
        misses.join("\n")
    );
}
