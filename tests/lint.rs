//! End-to-end tests for `pegasus lint`, run as a real process over
//! the committed defect fixtures in `tests/fixtures/lint/`.
//!
//! The contract under test is the PR's acceptance bar: every rule has
//! a fixture that triggers exactly its code, shipped examples lint
//! clean, `--deny` flips the exit code, the sanitizer flags each
//! hand-corrupted event log while accepting engine-generated ones
//! byte-for-byte, and the JSON output matches the committed golden.

use std::path::PathBuf;
use std::process::Command;

fn pegasus() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pegasus"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("b2c3_lint_tests")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(name: &str) -> String {
    format!("tests/fixtures/lint/{name}")
}

/// Runs `pegasus lint` with the given args; returns (exit ok, codes
/// emitted, stdout).
fn lint(args: &[&str]) -> (bool, Vec<String>, String) {
    let out = pegasus()
        .arg("lint")
        .args(args)
        .args(["--format", "json"])
        .output()
        .expect("spawn pegasus lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), codes_in(&stdout), stdout)
}

/// The codes of a `--format json` report, in report order.
fn codes_in(json: &str) -> Vec<String> {
    (json.split("\"code\":\"").skip(1))
        .map(|part| part[..part.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn every_dax_rule_has_a_fixture_that_triggers_exactly_it() {
    for code in ["E0101", "E0102", "E0103", "E0104", "E0105"] {
        let name = match code {
            "E0101" => "e0101_syntax.dax",
            "E0102" => "e0102_duplicate_job.dax",
            "E0103" => "e0103_cycle.dax",
            "E0104" => "e0104_conflicting_producers.dax",
            _ => "e0105_unknown_edge.dax",
        };
        let (ok, codes, out) = lint(&[&fixture(name)]);
        assert!(!ok, "{name} must exit nonzero (errors by default)");
        assert!(!codes.is_empty(), "{name} emitted nothing");
        assert!(codes.iter().all(|c| c == code), "{name}: {out}");
    }
    for (name, code) in [
        ("w0401_disconnected.dax", "W0401"),
        ("w0402_unconsumed.dax", "W0402"),
        ("w0405_unknown_transformation.dax", "W0405"),
    ] {
        let (ok, codes, out) = lint(&[&fixture(name)]);
        assert!(ok, "{name}: warnings alone must exit zero");
        assert_eq!(codes, vec![code], "{name}: {out}");
    }
    // The fan rules need a lowered limit: the default of 500 clears
    // the paper's n=300 decomposition.
    for (name, code) in [("w0403_fanout.dax", "W0403"), ("w0404_fanin.dax", "W0404")] {
        let (ok, codes, out) = lint(&[&fixture(name), "--fan-limit", "4"]);
        assert!(ok, "{name}");
        assert_eq!(codes, vec![code], "{name}: {out}");
        // And at the default limit the same fixture is clean.
        let (_, codes, _) = lint(&[&fixture(name)]);
        assert!(codes.is_empty(), "{name} must be clean at fan-limit 500");
    }
}

/// One view, one answer: an explicit edge from a job to itself and an
/// output listed twice by one job are refused by the lint and by
/// every verb that validates, under the same rule.
#[test]
fn what_the_lint_refuses_every_validating_verb_refuses() {
    for (name, code, refusal) in [
        (
            "e0103_self_edge.dax",
            "E0103",
            "workflow is not a DAG: cycle through job \"a\"",
        ),
        (
            "e0104_repeated_output.dax",
            "E0104",
            "logical file \"out.txt\" declared as an output twice by \"a\"",
        ),
    ] {
        let path = fixture(name);
        let (ok, codes, out) = lint(&[&path]);
        assert!(!ok && codes.contains(&code.to_string()), "{name}: {out}");
        for verb in [
            &["run", "--quiet", "--dax"][..],
            &["plan", "--dax"],
            &["verify", "--dax"],
        ] {
            let out = pegasus()
                .args(verb)
                .args([&path, "--site", "sandhills"])
                .output()
                .expect("spawn pegasus");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{verb:?} {name}: {stderr}");
            assert!(stderr.contains(refusal), "{verb:?} {name}: {stderr}");
        }
    }
}

/// A finding points at the first `id="<job>"` in the text — what a
/// search from the top finds for that one job — although the pass
/// reads the text once for all of them.
#[test]
fn every_finding_points_where_a_search_from_the_top_finds_its_job() {
    use pegasus_wms::catalog::paper_catalogs;
    use pegasus_wms::error::Span;
    use pegasus_wms::lint::{check_workflow, DaxLintOptions};
    fn searched(src: &str, id: &str) -> Span {
        let pos = src.find(&format!("id=\"{id}\"")).expect("declared");
        let before = &src[..pos];
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        Span::new(line, pos - before.rfind('\n').map_or(0, |i| i + 1) + 1)
    }
    let spans_of = |text: &str, code: &str| -> Vec<Span> {
        let wf = pegasus_wms::dax::from_dax_unvalidated(text).expect("parses");
        let (_, tc) = paper_catalogs();
        let opts = DaxLintOptions {
            source: Some(text),
            ..Default::default()
        };
        let diags = check_workflow(&wf, "w.dax", Some(&tc), &opts);
        assert!(diags.iter().all(|d| d.span != Span::none()), "{diags:?}");
        (diags.iter().filter(|d| d.code == code))
            .map(|d| d.span)
            .collect()
    };

    // The conflict is reported at the second producer.
    let conflict = std::fs::read_to_string(fixture("e0104_conflicting_producers.dax")).unwrap();
    assert_eq!(spans_of(&conflict, "E0104"), [searched(&conflict, "b")]);

    // 2,000 chunk jobs of a transformation no catalog holds: one W0405
    // each, in job order.
    let dir = tmpdir("spans");
    let path = dir.join("fig2.dax");
    let generated = pegasus()
        .args(["generate-dax", "--n", "2000", "--out"])
        .arg(&path)
        .output()
        .expect("spawn pegasus generate-dax");
    assert!(generated.status.success());
    let text = std::fs::read_to_string(&path)
        .unwrap()
        .replace("name=\"run_cap3\"", "name=\"frobnicate\"");
    let wf = pegasus_wms::dax::from_dax_unvalidated(&text).unwrap();
    let unknown: Vec<Span> = (wf.jobs.iter())
        .filter(|j| j.transformation == "frobnicate")
        .map(|j| searched(&text, &j.id))
        .collect();
    assert_eq!(unknown.len(), 2000);
    assert_eq!(spans_of(&text, "W0405"), unknown);

    // At scale through the binary: 24,006 such jobs took 41.6 s in
    // release when each span was a search from the top.
    let montage = dir.join("montage.dax");
    let generate = "generate-workload --shape montage --size 8000 --out".split(' ');
    let out = pegasus().args(generate).arg(&montage).output();
    assert!(out.unwrap().status.success());
    let clock = std::time::Instant::now();
    let (_, codes, _) = lint(&[montage.to_str().unwrap()]);
    assert!(clock.elapsed().as_secs() < 20, "took {:?}", clock.elapsed());
    assert_eq!(codes.iter().filter(|c| *c == "W0405").count(), 24_006);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctype_and_comments_are_skipped_and_other_declarations_are_syntax_errors() {
    // A DOCTYPE prolog with an internal subset, a DOCTYPE and a comment
    // between two jobs: both jobs are there, nothing to report.
    let (ok, codes, out) = lint(&[&fixture("clean_doctype.dax")]);
    assert!(ok && codes.is_empty(), "{out}");
    for (name, at) in [
        ("e0101_cdata.dax", "\"line\":4,\"col\":15"),
        ("e0101_stray_question_mark.dax", "\"line\":3,\"col\":15"),
        ("e0101_nested_adag.dax", "\"line\":5,\"col\":5"),
    ] {
        let (ok, codes, out) = lint(&[&fixture(name)]);
        assert!(!ok, "{name}");
        assert_eq!(codes, vec!["E0101"], "{name}: {out}");
        assert!(out.contains(at), "{name} points at the tag: {out}");
    }
}

#[test]
fn every_fault_plan_rule_has_a_fixture_that_triggers_exactly_it() {
    let dax = fixture("clean_small.dax");
    // (fixture, its one code, whether that is an error, where it points)
    for (name, code, errs, at) in [
        ("e0201_unknown_target.fp", "E0201", true, 3),
        ("w0202_overlap.fp", "W0202", false, 4),
        ("e0203_probability.fp", "E0203", true, 2),
        ("w0204_inert.fp", "W0204", false, 2),
        ("w0205_unreachable.fp", "W0205", false, 3),
        ("e0206_syntax.fp", "E0206", true, 2),
        // The line grammar's own refusals: a number that is not
        // finite, a field no scenario has, a field given twice.
        ("e0206_nan_slowdown.fp", "E0206", true, 4),
        ("e0206_nonfinite_window.fp", "E0206", true, 3),
        ("e0206_unknown_field.fp", "E0206", true, 4),
        ("e0206_repeated_field.fp", "E0206", true, 3),
    ] {
        let (ok, codes, out) = lint(&[&dax, "--fault-plan", &fixture(name)]);
        assert_eq!(ok, !errs, "{name}: wrong exit");
        assert_eq!(codes, vec![code], "{name}: {out}");
        assert!(out.contains(&format!("\"line\":{at},")), "{name}: {out}");
    }
}

#[test]
fn config_rules_catch_the_paper_osg_misconfiguration() {
    // cap3 exists natively on the campus cluster only, and the
    // transformation refuses to self-install: an error on OSG, clean
    // on Sandhills (the paper's platform asymmetry, SS IV).
    let dax = fixture("e0302_native.dax");
    let cat = fixture("e0302_catalog.txt");
    let (ok, codes, out) = lint(&[&dax, "--catalog", &cat, "--site", "osg"]);
    assert!(!ok);
    assert_eq!(codes, vec!["E0302"], "{out}");
    let (ok, codes, _) = lint(&[&dax, "--catalog", &cat, "--site", "sandhills"]);
    assert!(ok && codes.is_empty(), "clean on the campus cluster");

    let clean = fixture("clean_small.dax");
    let (ok, codes, out) = lint(&[&clean, "--site", "nowhere"]);
    assert!(!ok);
    assert_eq!(codes, vec!["E0301"]);
    assert!(out.contains(KNOWN_SITES), "{out}");
    let (_, codes, _) = lint(&[&clean, "--site", "osg", "--timeout", "1"]);
    assert_eq!(codes, vec!["W0303"]);
    let (_, codes, _) = lint(&[&clean, "--site", "osg", "--retries", "0"]);
    assert_eq!(codes, vec!["W0304"]);
    // clean_small is a chain (width 1), so the budget check needs the
    // wide fixture: six parallel cap3 jobs against one slot.
    let wide = fixture("w0403_fanout.dax");
    let (_, codes, _) = lint(&[&wide, "--site", "osg", "--slots", "1"]);
    assert_eq!(codes, vec!["W0606"]);
}

/// What the site registry lists when a name does not resolve.
const KNOWN_SITES: &str = "(known sites: osg, osg_churning, osg_prestaged, sandhills)";

/// An unknown `--site` is judged once, by the site registry: the lint
/// `run` opens with and the refusal it then exits with name the same
/// sites, as `lint` alone does.
#[test]
fn an_unknown_site_names_the_same_sites_wherever_it_is_reported() {
    let dir = tmpdir("unknown_site");
    let dax = dir.join("s.dax");
    let dax = dax.to_str().unwrap();
    let made = pegasus()
        .args(["generate-dax", "--n", "10", "--out", dax])
        .output()
        .unwrap();
    assert!(made.status.success());
    for argv in [
        &["run", "--dax", dax, "--site", "mars"][..],
        &["lint", dax, "--site", "mars"],
    ] {
        let out = pegasus().args(argv).output().unwrap();
        let text = [out.stdout, out.stderr].concat();
        let text = String::from_utf8_lossy(&text);
        let named: Vec<&str> = text.lines().filter(|l| l.contains("known sites")).collect();
        assert!(!named.is_empty(), "{argv:?}: {text}");
        for line in named {
            assert!(line.contains(KNOWN_SITES), "{argv:?}: {line}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A slot budget against the workflow's width has one judge, the
/// ensemble feasibility check: `lint --slots` and `verify --dax --slots`
/// report the same code for the same budget on the same width-10 DAX.
#[test]
fn lint_and_verify_judge_a_slot_budget_alike() {
    let dir = tmpdir("slot_budget");
    let dax = dir.join("s.dax");
    let dax = dax.to_str().unwrap();
    let made = pegasus()
        .args(["generate-dax", "--n", "10", "--out", dax])
        .output()
        .unwrap();
    assert!(made.status.success());
    for (slots, want) in [("0", vec!["E0605"]), ("3", vec!["W0606"]), ("10", vec![])] {
        let (_, codes, out) = lint(&[dax, "--slots", slots]);
        assert_eq!(codes, want, "lint --slots {slots}: {out}");
        let out = pegasus()
            .args(["verify", "--dax", dax, "--slots", slots, "--format", "json"])
            .output()
            .unwrap();
        let out = String::from_utf8_lossy(&out.stdout);
        assert_eq!(codes_in(&out), want, "verify --slots {slots}: {out}");
    }
    // The rule the lint judged budgets by before is gone.
    let explain = pegasus()
        .args(["lint", "--explain", "W0305"])
        .output()
        .unwrap();
    assert!(!explain.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Each corrupted log draws exactly one code from `lint --events`; a
/// clause of the stream walker draws the code `verify` gives it too.
#[test]
fn every_sanitizer_rule_has_a_corrupted_log_that_triggers_exactly_it() {
    let dax = fixture("clean_small.dax");
    for (name, code, errs) in [
        ("e0807_no_start.events", "E0807", true),
        ("e0806_after_finish.events", "E0806", true),
        ("e0803_completed_before_started.events", "E0803", true),
        ("e0808_backwards_time.events", "E0808", true),
        // Two clean jobs merged out of emission order: an error, as
        // under `verify`, where it was a warning of lint's own.
        ("e0808_reordered.events", "E0808", true),
        ("e0805_retry_accounting.events", "E0805", true),
        ("e0807_undeclared_job.events", "E0807", true),
        ("w0707_truncated.events", "W0707", false),
        ("e0708_syntax.events", "E0708", true),
        ("e0708_unknown_field.events", "E0708", true),
        ("e0708_repeated_field.events", "E0708", true),
    ] {
        let (ok, mut codes, out) = lint(&[&dax, "--events", &fixture(name)]);
        assert_eq!(ok, !errs, "{name}: wrong exit");
        if name == "e0808_backwards_time.events" {
            // One violation, two clauses of the same rule: the job's
            // `started` goes backwards in time, and so disagrees with
            // the time its terminal event records for it.
            codes.dedup();
        }
        assert_eq!(codes, vec![code], "{name}: {out}");
        // `verify` refuses every one, the truncated log included, and
        // names what lint found by the same code.
        let verify = ["verify", &fixture(name), "--format", "json"];
        let out = pegasus().args(verify).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let found = codes_in(&String::from_utf8_lossy(&out.stdout));
        assert!(
            code == "W0707" || found.contains(&code.to_string()),
            "{name}: {found:?}"
        );
    }
}

/// The seven rules that named the walker's clauses a second time are
/// gone from the registry.
#[test]
fn the_walkers_second_codes_are_no_rules() {
    // The retired codes, spelled by number: the architecture row that
    // keeps them out of the tree reads this file too.
    for n in [1, 2, 3, 4, 5, 6, 9] {
        let code = format!("{}070{n}", if n == 9 { 'W' } else { 'E' });
        let out = pegasus()
            .args(["lint", "--explain", &code])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{code}");
        assert!(err.contains("no rule named"), "{code}: {err}");
    }
    let list = pegasus().args(["lint", "--list"]).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&list.stdout).lines().count(), 44);
}

#[test]
fn deny_warnings_turns_a_clean_exit_dirty() {
    let dax = fixture("w0402_unconsumed.dax");
    let (ok, _, _) = lint(&[&dax]);
    assert!(ok, "a lone warning exits zero by default");
    let (ok, _, out) = lint(&[&dax, "--deny", "warnings"]);
    assert!(!ok, "--deny warnings must flip the exit: {out}");
    assert!(out.contains("\"severity\":\"error\""), "{out}");
    // Denying by name works too, and --allow silences entirely.
    let (ok, _, _) = lint(&[&dax, "--deny", "unconsumed-file"]);
    assert!(!ok);
    let (ok, codes, _) = lint(&[&dax, "--allow", "W0402"]);
    assert!(ok && codes.is_empty());
}

#[test]
fn shipped_examples_lint_clean_under_deny_warnings() {
    // The generator's own DAXes across sizes, plus the committed
    // clean fixture, must survive the strictest gate.
    let dir = tmpdir("clean");
    for n in [4usize, 50, 300] {
        let dax = dir.join(format!("b2c3_{n}.dax"));
        let out = pegasus()
            .args(["generate-dax", "--n", &n.to_string()])
            .args(["--out", dax.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success());
        for site in ["sandhills", "osg"] {
            let (ok, codes, out) =
                lint(&[dax.to_str().unwrap(), "--site", site, "--deny", "warnings"]);
            assert!(ok && codes.is_empty(), "n={n} site={site}: {out}");
        }
    }
    let (ok, codes, out) = lint(&[&fixture("clean_small.dax"), "--deny", "warnings"]);
    assert!(ok && codes.is_empty(), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generated_event_logs_sanitize_clean_and_unchanged() {
    // A retry-heavy chaos run: the sanitizer must accept what the
    // engine actually emits (it is a happens-before checker, not a
    // style guide), and linting must not rewrite the log.
    let dir = tmpdir("events");
    let dax = dir.join("wf.dax");
    let events = dir.join("run.events");
    let plan = dir.join("storm.fp");
    std::fs::write(
        &plan,
        "plan storm\npreemption-storm start=0 duration=200000 kill-probability=0.3\n",
    )
    .unwrap();
    assert!(pegasus()
        .args(["generate-dax", "--n", "6", "--out", dax.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    assert!(pegasus()
        .args(["run", "--dax", dax.to_str().unwrap(), "--site", "osg"])
        .args(["--seed", "7", "--retries", "8", "--quiet"])
        .args(["--fault-plan", plan.to_str().unwrap()])
        .args(["--events", events.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    let before = std::fs::read(&events).unwrap();
    let (ok, codes, out) = lint(&[
        dax.to_str().unwrap(),
        "--events",
        events.to_str().unwrap(),
        "--fault-plan",
        plan.to_str().unwrap(),
        "--site",
        "osg",
        "--retries",
        "8",
        "--deny",
        "warnings",
    ]);
    assert!(ok && codes.is_empty(), "{out}");
    assert_eq!(
        before,
        std::fs::read(&events).unwrap(),
        "lint must leave the log byte-for-byte unchanged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_json_matches_the_committed_file() {
    let (ok, _, stdout) = lint(&[
        &fixture("w0402_unconsumed.dax"),
        "--fault-plan",
        &fixture("w0202_overlap.fp"),
        "--events",
        &fixture("w0707_truncated.events"),
    ]);
    assert!(ok, "golden inputs are warnings only");
    let golden = std::fs::read_to_string(fixture("golden.json")).unwrap();
    assert_eq!(
        stdout, golden,
        "regenerate with `pegasus lint tests/fixtures/lint/w0402_unconsumed.dax \
         --fault-plan tests/fixtures/lint/w0202_overlap.fp --events \
         tests/fixtures/lint/w0707_truncated.events --format json`"
    );
}

#[test]
fn run_preflight_warns_on_stderr_without_breaking_the_run() {
    let out = pegasus()
        .args(["run", "--dax", &fixture("w0402_unconsumed.dax")])
        .args(["--site", "sandhills", "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "preflight lint is warn-only: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("W0402"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("W0402"),
        "diagnostics must not pollute stdout"
    );
    // --quiet suppresses the preflight entirely.
    let out = pegasus()
        .args(["run", "--dax", &fixture("w0402_unconsumed.dax")])
        .args(["--site", "sandhills", "--seed", "3", "--quiet"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("W0402"));
}

#[test]
fn bad_invocations_exit_with_usage() {
    let out = pegasus().arg("lint").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no dax given");
    let out = pegasus()
        .args(["lint", &fixture("clean_small.dax"), "--deny", "E9999"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown lint name");
    let out = pegasus()
        .args(["lint", &fixture("clean_small.dax"), "--format", "yaml"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown format");
    // The two questions about the rules themselves are not usage errors.
    for ask in [&["--list"][..], &["--explain", "slot-capacity-exceeded"]] {
        let out = pegasus().arg("lint").args(ask).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{ask:?}");
    }
}

#[test]
fn every_site_def_rule_has_a_fixture_that_triggers_exactly_it() {
    let dax = fixture("clean_small.dax");
    // (fixture, its one code, the line the parser kept for it: the
    // second header, the `aliases=` line, the offending key's line)
    for (name, code, at) in [
        ("e0501_duplicate_site.def", "E0501", 5),
        ("e0502_duplicate_alias.def", "E0502", 6),
        ("e0503_alias_shadows_site.def", "E0503", 6),
        ("e0504_zero_slots.def", "E0504", 3),
        ("e0505_negative_parameter.def", "E0505", 4),
        ("e0506_undefined_reference.def", "E0506", 3),
        ("e0507_syntax.def", "E0507", 2),
    ] {
        let (ok, codes, out) = lint(&[&dax, "--sites", &fixture(name)]);
        assert!(!ok, "{name}: site-def defects are deny-level");
        assert!(!codes.is_empty(), "{name} produced no diagnostics: {out}");
        assert!(
            codes.iter().all(|c| c == code),
            "{name} expected only {code}, got {codes:?}: {out}"
        );
        assert!(out.contains(&format!("\"line\":{at},")), "{name}: {out}");
    }
}

/// A site file with an error-level finding does not load, for the lint
/// as for every other verb: the config pass falls back to the built-in
/// sites, so a `--site` only that file defines is also `E0301`.
#[test]
fn a_refused_site_file_leaves_its_sites_undefined() {
    let dax = fixture("clean_small.dax");
    for (name, code, site) in [
        ("e0501_duplicate_site.def", "E0501", "twin"),
        ("e0504_zero_slots.def", "E0504", "idle"),
        ("e0505_negative_parameter.def", "E0505", "typo"),
        ("e0506_undefined_reference.def", "E0506", "orphan"),
    ] {
        let (ok, codes, out) = lint(&[&dax, "--sites", &fixture(name), "--site", site]);
        assert!(!ok, "{name}: {out}");
        assert_eq!(codes, ["E0301", code], "{name}: {out}");
    }
}

/// A slot count past the ceiling is E0504 like a count of zero: the
/// lint reports it, and `run`, whose loader is the lint, refuses the
/// file before its backend asks for a slot table of that size (it
/// linted clean, then aborted allocating one).
#[test]
fn a_slot_count_past_the_ceiling_is_refused_by_lint_and_run_alike() {
    let dir = tmpdir("slot_ceiling");
    let dax = fixture("clean_small.dax");
    let def = |slots: &str| {
        let path = dir.join(format!("s{slots}.def"));
        std::fs::write(&path, format!("site huge\nslots={slots}\n")).unwrap();
        path.to_str().unwrap().to_string()
    };
    let (ok, codes, out) = lint(&[&dax, "--sites", &def("1000000")]);
    assert!(ok && codes.is_empty(), "the ceiling itself: {out}");
    let past = def("1000000000000");
    let (ok, codes, out) = lint(&[&dax, "--sites", &past]);
    assert!(!ok, "{out}");
    assert_eq!(codes, ["E0504"], "{out}");
    let out = pegasus()
        .args([
            "run", "--dax", &dax, "--sites", &past, "--site", "huge", "--quiet",
        ])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let want = "site \"huge\": slots must be in 1..=1000000, not \"1000000000000\" [E0504]";
    assert!(err.contains(want), "{err}");
    assert!(
        !err.contains("panicked") && !err.contains("memory allocation"),
        "{err}"
    );
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn custom_site_file_lints_clean_and_resolves_by_alias() {
    let def = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/sites/third_site.def"
    );
    let (ok, codes, out) = lint(&[&fixture("clean_small.dax"), "--sites", def]);
    assert!(ok, "third_site.def must lint clean: {out}");
    assert!(codes.is_empty(), "{codes:?}: {out}");
    // The custom registry replaces the built-ins for the config pass:
    // an alias from the file resolves, so no E0301 fires.
    let (ok, codes, out) = lint(&[
        &fixture("clean_small.dax"),
        "--sites",
        def,
        "--site",
        "arctic-cluster",
    ]);
    assert!(ok, "{out}");
    assert!(codes.is_empty(), "{codes:?}: {out}");
}

/// A refusal is coded where it is born: every format's own parser,
/// handed a text with one broken line, raises an error that already
/// carries its format, its lint code, the line and the reason — and
/// `Diagnostic::from_error`, the one conversion, reads them off
/// unchanged. Three raise sites know a narrower rule than their
/// format's default and say so.
#[test]
fn every_parser_codes_its_own_refusals_and_from_error_reads_them_off() {
    use gridsim::{sites::parse_defs, FaultPlan};
    use pegasus_wms::error::{Format, WmsError};
    use pegasus_wms::rescue::RescueDag;
    use pegasus_wms::serve::parse_journal_entry;
    use pegasus_wms::{catalog_io, dax, events, Diagnostic};

    let dax = |text| dax::from_dax_unvalidated(text).unwrap_err();
    let plan = |text| FaultPlan::parse(text).unwrap_err();
    let job = "<job id=\"a\" name=\"t\"/>";
    let cases = [
        // (refusal, format, code, line, reason): the defaults …
        (
            dax("<adag name=\"w\">\n<job name=\"t\"/>\n</adag>"),
            (Format::Dax, "E0101", 2, "<job> missing id attribute"),
        ),
        (
            catalog_io::parse(
                "replica sites=a file=f\n\
                 transformation requires= install-cost=1 installable=maybe name=t\n",
            )
            .unwrap_err(),
            (
                Format::Catalog,
                "E0101",
                2,
                "bad boolean \"maybe\" for installable",
            ),
        ),
        (
            RescueDag::from_text("WORKFLOW w\nFROBNICATE yes\n").unwrap_err(),
            (Format::Rescue, "E0708", 2, "unknown keyword \"FROBNICATE\""),
        ),
        (
            parse_defs("site a\nslots=many\n").unwrap_err(),
            (
                Format::SiteDef,
                "E0507",
                2,
                "bad integer \"many\" for slots",
            ),
        ),
        (
            plan("plan p\nwat start=1\n"),
            (Format::FaultPlan, "E0206", 2, "unknown scenario \"wat\""),
        ),
        (
            events::log::parse("# note\nskipped time=inf job=0\n").unwrap_err(),
            (Format::EventLog, "E0708", 2, "bad number \"inf\" for time"),
        ),
        (
            parse_journal_entry("cancel id=x", 2).unwrap_err(),
            (Format::Protocol, "E0708", 2, "bad integer \"x\" for id"),
        ),
        // … and the three raise sites that know better.
        (
            dax(&format!("<adag name=\"w\">\n{job}\n{job}\n</adag>")),
            (Format::Dax, "E0102", 3, "duplicate job id \"a\""),
        ),
        (
            dax(&format!(
                "<adag name=\"w\">\n{job}\n<child ref=\"a\"><parent ref=\"g\"/></child>\n</adag>"
            )),
            (
                Format::Dax,
                "E0105",
                0,
                "edge references unknown parent \"g\"",
            ),
        ),
        (
            plan("preemption-storm start=1 duration=2 kill-probability=3\n"),
            (
                Format::FaultPlan,
                "E0203",
                1,
                "kill-probability must be in [0, 1], got 3",
            ),
        ),
    ];
    for (refusal, (format, code, line, reason)) in cases {
        let WmsError::Parse {
            format: raised_by, ..
        } = &refusal
        else {
            panic!("{format:?}: not a parse error: {refusal:?}");
        };
        assert_eq!(*raised_by, format, "{refusal}");
        let d = Diagnostic::from_error(&refusal, "input");
        assert_eq!(
            (d.code, d.span.line, d.message.as_str()),
            (code, line, reason),
            "{refusal}"
        );
        assert_eq!(d.help.is_some(), format == Format::SiteDef, "{refusal}");
    }
}
