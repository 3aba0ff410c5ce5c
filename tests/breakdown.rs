//! Acceptance test for the phase-breakdown profiler: the paper's
//! finding 4 (the Fig. 7–8 per-task decomposition) must be
//! reproducible *from the event stream alone*, and the offline
//! (`--from-events`) rendering must be byte-identical to the live one
//! under the same seed.

use blast2cap3_pegasus::experiment::simulate_blast2cap3;
use pegasus_wms::breakdown::{self, BreakdownRow};
use pegasus_wms::engine::EngineConfig;
use pegasus_wms::events;

const SEED: u64 = 11;
const SIZES: [usize; 4] = [10, 100, 300, 500];

/// The `pegasus breakdown` default: OSG's preemption hazard needs a
/// deep retry budget at small n for every compute job to finish.
fn config() -> EngineConfig {
    EngineConfig::builder().retries(20).seed(SEED).build()
}

/// Runs one sweep point and computes its row from the emitted events
/// only — no peeking at the in-memory run.
fn row(site: &str, n: usize) -> BreakdownRow {
    let run = simulate_blast2cap3(site, n, SEED, &config(), None);
    assert!(run.succeeded(), "{site} n={n} did not complete");
    breakdown::from_events(&run.events).expect("engine streams replay")
}

#[test]
fn finding4_reproduced_from_events_alone() {
    let sandhills: Vec<BreakdownRow> = SIZES.iter().map(|&n| row("sandhills", n)).collect();
    let osg: Vec<BreakdownRow> = SIZES.iter().map(|&n| row("osg", n)).collect();

    for r in sandhills.iter().chain(&osg) {
        assert_eq!(r.completed, r.compute_jobs, "{}/n={}", r.site, r.n);
    }

    // Kickstart Time decreases with n on both sites...
    for rows in [&sandhills, &osg] {
        for pair in rows.windows(2) {
            assert!(
                pair[1].kickstart_mean < pair[0].kickstart_mean,
                "{} kickstart must fall with n: {:?}",
                pair[0].site,
                rows.iter().map(|r| r.kickstart_mean).collect::<Vec<_>>()
            );
        }
    }
    // ...and faster on OSG: its fleet has no task-overhead floor, so
    // the n=10 → n=500 contraction is sharper.
    let contraction = |rows: &[BreakdownRow]| rows[0].kickstart_mean / rows[3].kickstart_mean;
    assert!(
        contraction(&osg) > contraction(&sandhills),
        "OSG contracts {:.1}x, Sandhills {:.1}x",
        contraction(&osg),
        contraction(&sandhills)
    );

    for (sh, og) in sandhills.iter().zip(&osg) {
        // Pure kickstart is better on OSG (faster opportunistic
        // nodes)...
        assert!(
            og.kickstart_mean < sh.kickstart_mean,
            "n={}: OSG kickstart {:.0}s !< Sandhills {:.0}s",
            sh.n,
            og.kickstart_mean,
            sh.kickstart_mean
        );
        // ...but its per-task total is worse: install overhead,
        // queue-wait variance, and retry badput eat the difference.
        assert!(
            og.total_mean > sh.total_mean,
            "n={}: OSG total {:.0}s !> Sandhills {:.0}s",
            sh.n,
            og.total_mean,
            sh.total_mean
        );
        // The structural contrasts behind that: install exists only on
        // OSG, and waiting is far larger there.
        assert_eq!(sh.install_mean, 0.0);
        assert!(og.install_mean > 0.0);
        assert!(og.queue_wait_mean > 10.0 * sh.queue_wait_mean);
    }
}

/// The committed fixture log must keep rendering the committed `.prom`
/// snapshot byte-for-byte, through the fold `pegasus metrics
/// --from-events tests/fixtures/osg_n8.events` prints.
#[test]
fn committed_fixture_matches_golden_exposition() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let log = std::fs::read_to_string(fixtures.join("osg_n8.events")).unwrap();
    let golden = std::fs::read_to_string(fixtures.join("osg_n8.prom")).unwrap();

    let stream = events::log::parse(&log).unwrap();
    let mut registry = pegasus_wms::metrics::MetricsRegistry::new();
    pegasus_wms::metrics::record_events(&mut registry, &stream).unwrap();
    assert_eq!(registry.render(), golden);
}

#[test]
fn offline_rendering_is_byte_identical_to_live() {
    let run = simulate_blast2cap3("osg", 100, SEED, &config(), None);
    assert!(run.succeeded());
    let live = breakdown::from_events(&run.events).unwrap();

    // Round-trip the stream through the text log — the exact
    // `--events-dir` → `--from-events` path.
    let parsed = events::log::parse(&events::log::write(&run.events)).unwrap();
    let offline = breakdown::from_events(&parsed).unwrap();

    assert_eq!(
        breakdown::render_csv(&[live]),
        breakdown::render_csv(&[offline])
    );
}
