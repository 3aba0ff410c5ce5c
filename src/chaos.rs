//! Bridges gridsim's seeded [`FaultScript`] to the real
//! [`condor::pool::LocalPool`].
//!
//! The same chaos script drives both backends: the simulator consumes
//! it natively (see `gridsim::SimBackend::with_faults`), while the
//! local pool consults the [`condor::pool::FaultInjector`] built here.
//! Fault-plan times are written in *virtual* (simulated) seconds; the
//! pool runs at laptop scale, so the adapter converts through the same
//! `time_scale` used for the pool's synthetic sleeps. Because every
//! per-attempt decision is a pure function of `(seed, job, attempt)`,
//! the kill/slowdown verdicts — and therefore the retry counts and
//! the typed failures, category and detail — replay identically on
//! either backend. On the
//! simulator, where timestamps are deterministic too, this extends to
//! the engine's typed provenance stream: the same seed and plan write
//! a byte-identical `pegasus_wms::events` log (see
//! `tests/events_replay.rs`).

use condor::pool::{FaultInjector, FaultProbe, InjectedFault};
use gridsim::{AttemptTiming, FaultScript};
use std::sync::Arc;

/// Builds a pool fault injector from a compiled chaos script.
///
/// `time_scale` is real seconds per virtual second, normally the
/// pool's own `time_scale`. The probe timings the pool reports in real
/// seconds are mapped back to virtual seconds before consulting the
/// script, and the eviction offset is mapped forward again.
pub fn fault_injector_for(script: FaultScript, time_scale: f64) -> FaultInjector {
    let scale = if time_scale > 0.0 { time_scale } else { 1.0 };
    Arc::new(move |probe: &FaultProbe| {
        let timing = AttemptTiming {
            start: probe.started / scale,
            install_duration: probe.install_duration / scale,
            exec_duration: probe.exec_duration / scale,
        };
        let decision = script.decide(&probe.job, probe.attempt, &timing);
        let mut faults = Vec::new();
        if decision.slowdown != 1.0 {
            faults.push(InjectedFault::Slowdown(decision.slowdown));
        }
        if let Some((at, failure)) = decision.kill {
            faults.push(InjectedFault::Evict {
                after: (at - timing.start).max(0.0) * scale,
                failure,
            });
        }
        faults
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim::FaultPlan;
    use pegasus_wms::engine::FaultReason;

    #[test]
    fn injector_maps_virtual_times_through_the_scale() {
        // Storm over virtual [0, 1000) with certain kills; at scale
        // 0.01 a probe 1 real second in is 100 virtual seconds in —
        // inside the window — and the eviction offset comes back in
        // real seconds.
        let plan =
            FaultPlan::parse("preemption-storm start=0 duration=1000 kill-probability=1.0\n")
                .unwrap();
        let script = FaultScript::new(plan, 4);
        let injector = fault_injector_for(script.clone(), 0.01);
        let probe = FaultProbe {
            job: "victim".into(),
            attempt: 0,
            started: 1.0,
            install_duration: 0.0,
            exec_duration: 2.0, // 200 virtual seconds
        };
        let faults = injector(&probe);
        assert_eq!(faults.len(), 1);
        match &faults[0] {
            InjectedFault::Evict { after, failure } => {
                // The script's category crosses the bridge with it.
                assert_eq!(failure.reason, FaultReason::Preemption);
                assert_eq!(failure.detail, "preempted:storm");
                assert!(
                    (0.0..=2.0).contains(after),
                    "real-second offset expected, got {after}"
                );
                // The same query in virtual units matches the script's
                // own verdict.
                let timing = AttemptTiming {
                    start: 100.0,
                    install_duration: 0.0,
                    exec_duration: 200.0,
                };
                let direct = script.decide("victim", 0, &timing).kill.unwrap();
                assert!((direct.0 - (100.0 + after / 0.01)).abs() < 1e-6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clean_attempts_inject_nothing() {
        let plan =
            FaultPlan::parse("preemption-storm start=5000 duration=10 kill-probability=1.0\n")
                .unwrap();
        let injector = fault_injector_for(FaultScript::new(plan, 4), 0.01);
        let probe = FaultProbe {
            job: "safe".into(),
            attempt: 0,
            started: 0.0,
            install_duration: 0.0,
            exec_duration: 1.0,
        };
        assert!(injector(&probe).is_empty());
    }

    #[test]
    fn straggler_decisions_become_slowdowns() {
        let plan = FaultPlan::parse("straggler start=0 duration=1e9 slowdown=5 probability=1.0\n")
            .unwrap();
        let injector = fault_injector_for(FaultScript::new(plan, 4), 0.01);
        let probe = FaultProbe {
            job: "slowpoke".into(),
            attempt: 0,
            started: 0.0,
            install_duration: 0.0,
            exec_duration: 1.0,
        };
        let faults = injector(&probe);
        assert!(matches!(faults.as_slice(), [InjectedFault::Slowdown(s)] if *s == 5.0));
    }
}
