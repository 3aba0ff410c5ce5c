//! Custom-site integration: the whole point of the declarative site
//! registry is that `pegasus run --sites my_sites.def --site my-cluster`
//! works with ZERO code changes. These tests exercise that promise as
//! real processes against the committed `tests/fixtures/sites/` files:
//!
//! * plan → run against a third site the paper never measured, by
//!   primary name and by alias;
//! * a breakdown sweep over the custom site matching a committed
//!   golden CSV byte-for-byte (seed-determinism extends to custom
//!   sites, not just the built-ins);
//! * an unknown `--site` is a clean CLI error listing the registered
//!   names, not a panic or a silent fall-through.

use std::path::PathBuf;
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("b2c3_sites_tests")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pegasus() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pegasus"))
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/sites/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn custom_third_site_runs_end_to_end_by_name_and_alias() {
    let dir = tmpdir("third_run");
    let dax = dir.join("wf.dax");
    let out = pegasus()
        .args(["generate-dax", "--n", "8", "--out", dax.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for site in ["tundra", "third", "arctic-cluster"] {
        let out = pegasus()
            .args(["run", "--dax", dax.to_str().unwrap()])
            .args(["--sites", &fixture("third_site.def")])
            .args(["--site", site, "--quiet"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--site {site}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("@ tundra"),
            "the report names the primary site, whatever alias was given: {stdout}"
        );
    }
}

#[test]
fn custom_site_breakdown_matches_the_committed_golden() {
    let dir = tmpdir("third_breakdown");
    let csv = dir.join("breakdown.csv");
    let out = pegasus()
        .args(["breakdown", "--sites", &fixture("third_site.def")])
        .args(["--site", "tundra", "--sizes", "8,40", "--quiet"])
        .args(["--out", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&csv).unwrap();
    let golden = std::fs::read_to_string(fixture("third_site_breakdown.csv")).unwrap();
    assert_eq!(
        got, golden,
        "regenerate with: pegasus breakdown --sites tests/fixtures/sites/third_site.def \
         --site tundra --sizes 8,40 --quiet --out tests/fixtures/sites/third_site_breakdown.csv"
    );
}

#[test]
fn unknown_site_is_a_clean_cli_error_listing_the_registered_names() {
    let dir = tmpdir("unknown_site");
    let dax = dir.join("wf.dax");
    let out = pegasus()
        .args(["generate-dax", "--n", "8", "--out", dax.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Against the built-in registry.
    let out = pegasus()
        .args(["run", "--dax", dax.to_str().unwrap(), "--site", "mars"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage error, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("known sites: osg, osg_churning, osg_prestaged, sandhills"),
        "{stderr}"
    );

    // Against a custom registry the suggestion lists ITS sites.
    let out = pegasus()
        .args(["breakdown", "--sites", &fixture("third_site.def")])
        .args(["--site", "sandhills", "--sizes", "8", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "--sites REPLACES the built-ins; sandhills is gone"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("known sites: tundra"), "{stderr}");
}

#[test]
fn sites_file_that_fails_to_parse_points_at_the_lint() {
    let out = pegasus()
        .args(["breakdown", "--sizes", "8", "--quiet"])
        .args([
            "--sites",
            &format!(
                "{}/tests/fixtures/lint/e0507_syntax.def",
                env!("CARGO_MANIFEST_DIR")
            ),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load site definitions"), "{stderr}");
    assert!(stderr.contains("pegasus lint"), "{stderr}");
}

/// Every site file `pegasus lint` refuses is refused at load, by the
/// same finding: `plan` and `run` exit 1 with the rule's code and the
/// pointer to the lint, never a panic, a run, or a later error.
#[test]
fn every_site_file_lint_refuses_is_refused_at_load_with_its_code() {
    let dir = tmpdir("refused_at_load");
    let dax = dir.join("wf.dax");
    let out = pegasus()
        .args(["generate-dax", "--n", "8", "--out", dax.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    // (fixture, its code, its first site)
    for (name, code, site) in [
        ("e0501_duplicate_site.def", "E0501", "twin"),
        ("e0502_duplicate_alias.def", "E0502", "north"),
        ("e0503_alias_shadows_site.def", "E0503", "base"),
        ("e0504_zero_slots.def", "E0504", "idle"),
        ("e0505_negative_parameter.def", "E0505", "typo"),
        ("e0506_undefined_reference.def", "E0506", "orphan"),
    ] {
        let def = format!("{}/tests/fixtures/lint/{name}", env!("CARGO_MANIFEST_DIR"));
        for verb in [&["run", "--quiet"][..], &["plan"]] {
            let out = pegasus()
                .args(verb)
                .args(["--dax", dax.to_str().unwrap(), "--sites", &def])
                .args(["--site", site])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{verb:?} {name}: {stderr}");
            assert!(!stderr.contains("panicked"), "{verb:?} {name}: {stderr}");
            for needle in ["cannot load site definitions", code, "pegasus lint"] {
                assert!(stderr.contains(needle), "{verb:?} {name}: {stderr}");
            }
        }
    }
}
