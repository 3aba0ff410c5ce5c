//! Byte-level equivalence harness for the interned-id engine.
//!
//! The goldens under `tests/fixtures/equivalence/` were captured from
//! the tree *before* the interning/CSR/calendar-queue refactor landed
//! (ISSUE 6). Every observable artifact of a run — the statistics CSV,
//! the provenance event log, the phase-breakdown CSV, and the
//! Prometheus metrics exposition — must stay byte-identical across
//! seeds, sites, and workflow sizes, or the refactor changed
//! behaviour, not just representation.
//!
//! Regenerate (only when an *intentional* format change lands) with:
//!
//! ```sh
//! PEGASUS_BLESS=1 cargo test --test interning_equivalence
//! ```

use blast2cap3_pegasus::experiment::{builtin_registry, plan_blast2cap3_at, simulate_blast2cap3};
use pegasus_wms::breakdown;
use pegasus_wms::engine::EngineConfig;
use pegasus_wms::events;
use pegasus_wms::metrics::{self, MetricsRegistry};
use pegasus_wms::statistics::{compute, render_csv};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

const SEEDS: [u64; 3] = [7, 11, 42];
const SITES: [&str; 2] = ["sandhills", "osg"];
const SIZES: [usize; 2] = [10, 300];

/// Retry budget used for every golden run: deep enough that OSG's
/// preemption hazard cannot sink small workflows under any golden
/// seed (n=10 puts only ten eggs in the preemption basket, so one
/// unlucky task needs a long leash; seed 42 needs more than the
/// `pegasus breakdown` default of 20).
const RETRIES: u32 = 50;

/// The four rendered artifacts of one simulated run.
#[derive(Clone)]
struct Artifacts {
    stats_csv: String,
    event_log: String,
    breakdown_csv: String,
    prom: String,
}

fn artifacts_for(site: &str, n: usize, seed: u64) -> Artifacts {
    let cfg = EngineConfig::builder().retries(RETRIES).seed(seed).build();
    let run = simulate_blast2cap3(site, n, seed, &cfg, None);
    assert!(
        run.succeeded(),
        "{site} n={n} seed={seed}: golden runs must succeed"
    );
    let mut registry = MetricsRegistry::new();
    metrics::record_events(&mut registry, &run.events).expect("engine streams replay");
    Artifacts {
        stats_csv: render_csv(&compute(&run)),
        event_log: events::log::write(&run.events),
        breakdown_csv: breakdown::render_csv(&[breakdown::of_run(&run)]),
        prom: registry.render(),
    }
}

/// Runs each (site, n, seed) combination exactly once per test
/// process, whichever artifact test asks first.
fn cached(site: &str, n: usize, seed: u64) -> Artifacts {
    type Cache = Mutex<HashMap<(String, usize, u64), Artifacts>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&(site.to_string(), n, seed)) {
        return hit.clone();
    }
    let made = artifacts_for(site, n, seed);
    cache
        .lock()
        .unwrap()
        .insert((site.to_string(), n, seed), made.clone());
    made
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/equivalence")
        .join(name)
}

fn blessing() -> bool {
    std::env::var_os("PEGASUS_BLESS").is_some()
}

/// Compares `content` against the committed golden, or rewrites the
/// golden under `PEGASUS_BLESS=1`.
fn check_golden(name: &str, content: &str) {
    let path = fixture_path(name);
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
        std::fs::write(&path, content).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with PEGASUS_BLESS=1", name));
    if golden != content {
        // Locate the first differing line so the failure is readable
        // without dumping two multi-kilobyte artifacts.
        let mismatch = golden
            .lines()
            .zip(content.lines())
            .position(|(g, c)| g != c)
            .map(|i| {
                format!(
                    "first diff at line {}:\n  golden: {}\n  actual: {}",
                    i + 1,
                    golden.lines().nth(i).unwrap_or(""),
                    content.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs actual {}",
                    golden.lines().count(),
                    content.lines().count()
                )
            });
        panic!("{name} is not byte-identical to the pre-interning golden\n{mismatch}");
    }
}

fn for_all_combos(mut f: impl FnMut(&str, usize, u64)) {
    for site in SITES {
        for n in SIZES {
            for seed in SEEDS {
                f(site, n, seed);
            }
        }
    }
}

#[test]
fn statistics_csv_is_byte_identical_to_pre_interning_goldens() {
    for_all_combos(|site, n, seed| {
        let a = cached(site, n, seed);
        check_golden(&format!("{site}_n{n}_s{seed}.stats.csv"), &a.stats_csv);
    });
}

#[test]
fn event_log_is_byte_identical_to_pre_interning_goldens() {
    for_all_combos(|site, n, seed| {
        let a = cached(site, n, seed);
        check_golden(&format!("{site}_n{n}_s{seed}.events"), &a.event_log);
    });
}

#[test]
fn breakdown_csv_is_byte_identical_to_pre_interning_goldens() {
    for_all_combos(|site, n, seed| {
        let a = cached(site, n, seed);
        check_golden(
            &format!("{site}_n{n}_s{seed}.breakdown.csv"),
            &a.breakdown_csv,
        );
    });
}

#[test]
fn metrics_exposition_is_byte_identical_to_pre_interning_goldens() {
    for_all_combos(|site, n, seed| {
        let a = cached(site, n, seed);
        check_golden(&format!("{site}_n{n}_s{seed}.prom"), &a.prom);
    });
}

/// Satellite regression for the `to_dot` dedupe: the rendered DOT
/// graph (shapes, colors, install-phase highlighting, edge list) must
/// not change when the formatting moves through the shared writer.
#[test]
fn planner_to_dot_output_is_unchanged() {
    let reg = builtin_registry();
    for site in SITES {
        let exec = plan_blast2cap3_at(reg, reg.resolve(site).unwrap(), 10, 7);
        check_golden(&format!("to_dot_{site}_n10.dot"), &exec.to_dot());
    }
}
