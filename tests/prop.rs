//! Property test for `pegasus_wms::metrics`: the monitor's resolved
//! series handles change what an event costs, never what it records.
//!
//! [`MetricsMonitor`] looks each `(family, label set)` up once per run
//! and then mutates the series through its handle; the registry's
//! public by-name `inc`/`add`/`set`/`observe` look it up on every
//! call. `ByName` below is the monitor written against that public
//! API — the reference. Over arbitrary event sequences (not only ones
//! an engine could emit: the monitor validates nothing), several runs
//! sharing one registry and some sharing a label set, both must
//! render byte-identical expositions: the same series exist, created
//! by the same first touch, holding the same `f64`s summed in the same
//! order.

use pegasus_wms::engine::{FaultReason, JobTimes};
use pegasus_wms::events::{EventSink, WorkflowEvent};
use pegasus_wms::metrics::{names, MetricsMonitor, MetricsRegistry};
use pegasus_wms::planner::JobKind;
use pegasus_wms::workflow::JobId;
use proptest::prelude::*;

const REASONS: [FaultReason; 5] = [
    FaultReason::Preemption,
    FaultReason::Eviction,
    FaultReason::InstallFailure,
    FaultReason::Timeout,
    FaultReason::Other,
];

/// The monitor's event handling spelled with the registry's by-name
/// calls, one lookup per call.
struct ByName<'a> {
    registry: &'a mut MetricsRegistry,
    site: &'a str,
    n: &'a str,
    kinds: Vec<JobKind>,
}

impl ByName<'_> {
    fn in_flight(&mut self, delta: f64) {
        let labels = [("site", self.site), ("n", self.n)];
        let cur = self
            .registry
            .value(names::IN_FLIGHT, &labels)
            .unwrap_or(0.0);
        self.registry.set(names::IN_FLIGHT, &labels, cur + delta);
    }

    fn event(&mut self, ev: &WorkflowEvent) {
        let [site, n] = [("site", self.site), ("n", self.n)];
        match ev {
            WorkflowEvent::WorkflowStarted { .. } => self.kinds.clear(),
            WorkflowEvent::JobDeclared { kind, .. } => self.kinds.push(*kind),
            WorkflowEvent::Submitted { .. } => {
                self.registry.inc(names::SUBMITTED, &[site, n]);
                self.in_flight(1.0);
            }
            WorkflowEvent::RetryScheduled {
                backoff, reason, ..
            } => {
                let labels = [site, n, ("reason", reason.prefix())];
                self.registry.inc(names::RETRIES, &labels);
                self.registry.add(names::BACKOFF_WAIT, &[site, n], *backoff);
            }
            WorkflowEvent::WorkflowFinished {
                succeeded,
                wall_time,
                ..
            } => {
                self.registry.set(names::WALL_TIME, &[site, n], *wall_time);
                let outcome = if *succeeded { "success" } else { "failed" };
                self.registry
                    .inc(names::WORKFLOWS, &[site, n, ("outcome", outcome)]);
            }
            _ => {
                let Some(end) = ev.termination() else { return };
                self.in_flight(-1.0);
                if let Some((reason, _)) = end.failure {
                    let labels = [site, n, ("reason", reason.prefix())];
                    self.registry.inc(names::FAILURES, &labels);
                    return;
                }
                self.registry.inc(names::COMPLETIONS, &[site, n]);
                if self.kinds.get(end.job.idx()) == Some(&JobKind::Compute) {
                    for (phase, seconds) in [
                        ("queue_wait", end.times.waiting()),
                        ("install", end.times.install()),
                        ("kickstart", end.times.kickstart()),
                    ] {
                        let labels = [site, n, ("phase", phase)];
                        self.registry
                            .observe(names::PHASE_SECONDS, &labels, seconds);
                    }
                }
            }
        }
    }
}

/// One drawn event: which variant, which job, two numbers, a reason.
type Draw = (usize, usize, f64, f64, usize, bool);

fn event((variant, job, a, b, reason, flag): Draw) -> WorkflowEvent {
    let job = JobId::new(job);
    let reason = REASONS[reason];
    let times = JobTimes {
        submitted: a,
        started: a + b,
        install_done: a + b * 1.5,
        finished: a + b * 40.0,
    };
    match variant {
        0 => WorkflowEvent::WorkflowStarted {
            name: "drawn".into(),
            site: "anywhere".into(),
            jobs: 4,
            time: a,
        },
        1 => WorkflowEvent::JobDeclared {
            job,
            name: "j".into(),
            transformation: "t".into(),
            kind: if flag {
                JobKind::Compute
            } else {
                JobKind::StageIn
            },
        },
        2 => WorkflowEvent::Submitted {
            job,
            attempt: 0,
            time: a,
        },
        3 => WorkflowEvent::Started {
            job,
            attempt: 0,
            time: a,
        },
        4 => WorkflowEvent::Completed {
            job,
            attempt: 0,
            times,
        },
        5 if reason == FaultReason::Timeout => WorkflowEvent::TimedOut {
            job,
            attempt: 0,
            detail: reason.bare().detail,
            times: Box::new(times),
        },
        5 => WorkflowEvent::Failed {
            job,
            attempt: 0,
            reason,
            detail: reason.bare().detail,
            times: Box::new(times),
        },
        6 => WorkflowEvent::RetryScheduled {
            job,
            next_attempt: 1,
            backoff: b,
            reason,
            detail: reason.bare().detail,
            time: a,
        },
        _ => WorkflowEvent::WorkflowFinished {
            succeeded: flag,
            wall_time: b,
            time: a,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resolved_handles_render_what_by_name_calls_render(
        runs in proptest::collection::vec(
            (
                0usize..2,
                0usize..2,
                proptest::collection::vec(
                    (0usize..8, 0usize..5, 0.0f64..1e5, 0.001f64..3e3, 0usize..5, any::<bool>()),
                    0..60,
                ),
            ),
            1..5,
        ),
    ) {
        let mut handled = MetricsRegistry::new();
        let mut by_name = MetricsRegistry::new();
        for (site, n, draws) in runs {
            // Two sites by two sizes: later runs land in earlier
            // runs' series as often as in fresh ones.
            let (site, n) = (["osg", "sandhills"][site], ["10", "100"][n]);
            let stream: Vec<WorkflowEvent> = draws.into_iter().map(event).collect();
            let mut monitor = MetricsMonitor::new(&mut handled, site, n);
            for ev in &stream {
                monitor.event(ev);
            }
            // Declares the same families with the same help text.
            drop(MetricsMonitor::new(&mut by_name, site, n));
            let mut reference = ByName { registry: &mut by_name, site, n, kinds: Vec::new() };
            for ev in &stream {
                reference.event(ev);
            }
            prop_assert_eq!(handled.render(), by_name.render());
        }
    }
}
