//! Engine self-profiling: a wall-clock scope stack over the hot path.
//!
//! Workflow-time spans ([`crate::trace`]) measure *simulated* seconds;
//! this module measures where the engine itself spends *real* time —
//! DAX parsing, interning, CSR construction, planning, simulation, and
//! serve round execution. Each instrumented region opens a [`scope`]
//! whose RAII guard records an `(label, seconds)` sample on drop.
//!
//! Profiling is **off by default** and gated behind a single global
//! flag ([`set_enabled`]). While disabled, [`scope`] is a relaxed
//! atomic load and an empty guard — no clock reads, no allocation —
//! so instrumented code paths stay byte-identical in output and
//! within noise in throughput (pinned by the bench gate). The CLI
//! turns it on under `--profile` and renders the collected samples as
//! a one-line summary plus `pegasus_engine_phase_seconds` histograms
//! through the metrics registry.
//!
//! Samples are thread-local: the engine is single-threaded per run,
//! and the serve daemon's scheduler thread owns all rounds, so the
//! collecting thread is always the thread that ran the scopes.

use crate::metrics::MetricsRegistry;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static SAMPLES: RefCell<Vec<(&'static str, f64)>> = const { RefCell::new(Vec::new()) };
}

/// Turns sample collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when profiling scopes are currently recording.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The RAII guard of one profiled region; records its sample when
/// dropped (only if profiling was enabled when the scope opened).
#[must_use = "a profiling scope measures until it is dropped"]
pub struct Scope {
    label: &'static str,
    start: Option<Instant>,
}

/// Opens a profiled region labelled `label` (e.g. `"plan.parse"`).
/// A no-op unless [`set_enabled`]\(true) was called. Inlined, like the
/// guard's drop, so both clock reads happen in the caller's code.
#[inline]
pub fn scope(label: &'static str) -> Scope {
    Scope {
        label,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Scope {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let secs = start.elapsed().as_secs_f64();
            SAMPLES.with(|s| s.borrow_mut().push((self.label, secs)));
        }
    }
}

/// Drains every sample the current thread collected, in scope-close
/// order.
pub fn take_samples() -> Vec<(&'static str, f64)> {
    SAMPLES.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Aggregates samples per label (first-seen order) into `(label,
/// total seconds, count)` triples.
pub(crate) fn aggregate(samples: &[(&'static str, f64)]) -> Vec<(&'static str, f64, usize)> {
    let mut agg: Vec<(&'static str, f64, usize)> = Vec::new();
    for &(label, secs) in samples {
        match agg.iter_mut().find(|(l, _, _)| *l == label) {
            Some((_, total, count)) => {
                *total += secs;
                *count += 1;
            }
            None => agg.push((label, secs, 1)),
        }
    }
    agg
}

/// Renders the `--profile` one-liner: `profile: plan.parse=0.012s
/// plan=0.034s ...`, phases in first-seen order; `profile: (no
/// samples)` when nothing was recorded.
pub fn summary(samples: &[(&'static str, f64)]) -> String {
    let agg = aggregate(samples);
    if agg.is_empty() {
        return "profile: (no samples)".to_string();
    }
    let mut out = String::from("profile:");
    for (label, total, _) in agg {
        out.push_str(&format!(" {label}={total:.3}s"));
    }
    out
}

/// Histogram buckets for engine phases: geometric decades from 1 µs
/// to 100 s of *wall-clock* time (workflow-time phases use the much
/// coarser [`crate::metrics::PHASE_BUCKETS`]).
pub(crate) const ENGINE_PHASE_BUCKETS: &[f64] =
    &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// Folds samples into `registry` as `pegasus_engine_phase_seconds`
/// histograms labelled by phase. Callers gate this behind the
/// `--profile` flag so expositions stay byte-identical when profiling
/// is off.
pub fn export(registry: &mut MetricsRegistry, samples: &[(&'static str, f64)]) {
    registry.declare_histogram(
        crate::metrics::names::ENGINE_PHASE_SECONDS,
        "Wall-clock seconds the engine spent in each internal phase.",
        ENGINE_PHASE_BUCKETS,
    );
    for &(label, secs) in samples {
        registry.observe(
            crate::metrics::names::ENGINE_PHASE_SECONDS,
            &[("phase", label)],
            secs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scopes_record_nothing() {
        set_enabled(false);
        let _ = take_samples();
        {
            let _s = scope("noop.phase");
        }
        assert!(take_samples().is_empty());
    }

    #[test]
    fn enabled_scopes_record_and_drain() {
        set_enabled(true);
        let _ = take_samples();
        {
            let _s = scope("test.outer");
            let _inner = scope("test.inner");
        }
        set_enabled(false);
        let samples = take_samples();
        // Inner closes first, then outer.
        let labels: Vec<&str> = samples.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["test.inner", "test.outer"]);
        assert!(samples.iter().all(|(_, s)| *s >= 0.0));
        assert!(take_samples().is_empty(), "drained");
    }

    #[test]
    fn summary_aggregates_per_label_in_first_seen_order() {
        let samples = vec![("b.phase", 0.5), ("a.phase", 1.0), ("b.phase", 0.25)];
        let agg = aggregate(&samples);
        assert_eq!(agg, vec![("b.phase", 0.75, 2), ("a.phase", 1.0, 1)]);
        let line = summary(&samples);
        assert_eq!(line, "profile: b.phase=0.750s a.phase=1.000s");
        assert_eq!(summary(&[]), "profile: (no samples)");
    }

    #[test]
    fn export_lands_in_the_engine_phase_histogram() {
        let mut reg = MetricsRegistry::new();
        export(&mut reg, &[("plan", 0.005), ("plan", 0.015), ("sim", 2.0)]);
        let text = reg.render();
        assert!(
            text.contains("pegasus_engine_phase_seconds_bucket{phase=\"plan\""),
            "{text}"
        );
        assert!(text.contains("phase=\"sim\""), "{text}");
        // Nothing is exported without an explicit call: a fresh
        // registry stays empty, which is what keeps goldens stable.
        assert_eq!(MetricsRegistry::new().render(), "");
    }
}
