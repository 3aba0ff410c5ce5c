//! Seeded, scriptable fault plans — the chaos layer.
//!
//! A [`FaultPlan`] is a declarative schedule of fault scenarios
//! (preemption storms, slot blackout windows, straggler slowdowns,
//! install-failure bursts, a submit-host crash) parsed from a small
//! line-oriented text format. Compiling a plan with a seed yields a
//! [`FaultScript`], whose per-attempt decisions are drawn from a hash
//! of `(seed, job name, attempt)` rather than from a shared stream —
//! so the *same* `(job, attempt)` pair receives the *same* coin flips
//! on every backend and under any event ordering. That is what lets
//! one chaos script replay identically on the discrete-event
//! [`crate::SimBackend`] and on the real `condor` thread pool.
//!
//! Scenario scope:
//!
//! * per-attempt scenarios ([`Scenario::PreemptionStorm`],
//!   [`Scenario::Straggler`], [`Scenario::InstallFailureBurst`]) are
//!   consumed through [`FaultScript::decide`] by every backend;
//! * [`Scenario::SlotBlackout`] is capacity-level: the simulation
//!   backend turns it into slot-down/slot-up events
//!   (via `FaultScript::blackouts`);
//! * [`Scenario::SubmitHostCrash`] is engine-level: the DAGMan loop
//!   stops after N completion events
//!   (via [`FaultScript::submit_host_crash_after`]) and leaves a
//!   rescue DAG behind, exactly like a submit host dying mid-run.

use pegasus_wms::engine::{Failure, FaultReason};
use pegasus_wms::error::{Format, Span, WmsError};
use pegasus_wms::line::{self, Fields};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fault scenario inside a plan. Times are in backend seconds
/// (simulated seconds on `SimBackend`; for real pools the adapter maps
/// wall-clock seconds through its time scale).
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// During `[start, start+duration)` every running attempt is
    /// killed with probability `kill_probability`, at a uniformly
    /// drawn moment inside the overlap of its execution window with
    /// the storm window. Fails as a preemption, `"preempted:storm"`.
    PreemptionStorm {
        /// Window start.
        start: f64,
        /// Window length.
        duration: f64,
        /// Per-attempt kill probability.
        kill_probability: f64,
        /// Restrict the storm to jobs whose name starts with this
        /// prefix (`None` = every job).
        target: Option<String>,
    },
    /// Slots `[first_slot, first_slot+slot_count)` leave the pool at
    /// `start` and return at `start+duration`; their occupants are
    /// evicted, `"evicted:blackout"`.
    SlotBlackout {
        /// Window start.
        start: f64,
        /// Window length.
        duration: f64,
        /// First slot index taken down.
        first_slot: usize,
        /// Number of consecutive slots taken down.
        slot_count: usize,
    },
    /// Attempts *starting* inside `[start, start+duration)` land on a
    /// slow node with probability `probability` and run `slowdown`
    /// times longer.
    Straggler {
        /// Window start.
        start: f64,
        /// Window length.
        duration: f64,
        /// Execution-time multiplier (> 1 slows the attempt down).
        slowdown: f64,
        /// Probability an attempt is placed on a straggler node.
        probability: f64,
        /// Restrict the slowdown to jobs whose name starts with this
        /// prefix (`None` = every job).
        target: Option<String>,
    },
    /// Attempts whose install phase overlaps `[start, start+duration)`
    /// fail during provisioning with probability `fail_probability`.
    /// Fails as an install failure, `"install:burst"`.
    InstallFailureBurst {
        /// Window start.
        start: f64,
        /// Window length.
        duration: f64,
        /// Per-attempt install-failure probability.
        fail_probability: f64,
        /// Restrict the burst to jobs whose name starts with this
        /// prefix (`None` = every job).
        target: Option<String>,
    },
    /// The submit host crashes after `after_events` completion events
    /// have been processed by the engine; the run stops with a rescue
    /// DAG of everything already done.
    SubmitHostCrash {
        /// Completion events processed before the crash.
        after_events: u64,
    },
}

/// A named schedule of fault scenarios.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Plan name (from the `plan <name>` line; empty if absent).
    pub name: String,
    /// Scenarios, in file order.
    pub scenarios: Vec<Scenario>,
    /// The line [`FaultPlan::parse`] read each scenario from, parallel
    /// to `scenarios`; empty for a plan built in code.
    pub spans: Vec<Span>,
}

impl PartialEq for FaultPlan {
    /// Where a plan was read from is not part of its value.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.scenarios == other.scenarios
    }
}

fn probability(f: &mut Fields<'_, '_>, key: &str) -> Result<f64, WmsError> {
    let v: f64 = f.get(key)?;
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(f.err_as("E0203", format!("{key} must be in [0, 1], got {v}")))
    }
}

fn target(f: &mut Fields<'_, '_>) -> Result<Option<String>, WmsError> {
    Ok(f.opt::<&str>("target")?.map(str::to_string))
}

impl FaultPlan {
    /// Parses the line-oriented fault-plan format (the
    /// [`pegasus_wms::line`] grammar: an unknown or repeated field is
    /// an error, numbers are finite):
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// plan osg-preemption-storm
    /// preemption-storm start=2000 duration=4000 kill-probability=0.6
    /// slot-blackout start=1000 duration=600 first-slot=0 count=8
    /// straggler start=0 duration=1e12 slowdown=4 probability=0.05
    /// install-failure-burst start=0 duration=1500 fail-probability=0.5
    /// submit-host-crash after-events=150
    /// ```
    pub fn parse(text: &str) -> Result<FaultPlan, WmsError> {
        let mut plan = FaultPlan::default();
        let mut buf = Vec::new();
        for line in line::lines(text) {
            if line.keyword == "plan" {
                if line.rest.is_empty() {
                    return Err(Format::FaultPlan.at(line.number, "plan line needs a name"));
                }
                plan.name = line.rest.to_string();
                continue;
            }
            let f = &mut Fields::split(line.rest, None, line.number, Format::FaultPlan, &mut buf)?;
            let scenario = match line.keyword {
                "preemption-storm" => Scenario::PreemptionStorm {
                    start: f.get("start")?,
                    duration: f.get("duration")?,
                    kill_probability: probability(f, "kill-probability")?,
                    target: target(f)?,
                },
                "slot-blackout" => Scenario::SlotBlackout {
                    start: f.get("start")?,
                    duration: f.get("duration")?,
                    first_slot: f.get("first-slot")?,
                    slot_count: f.get("count")?,
                },
                "straggler" => {
                    let slowdown: f64 = f.get("slowdown")?;
                    if slowdown < 1.0 {
                        return Err(f.err(format!("slowdown must be >= 1, got {slowdown}")));
                    }
                    Scenario::Straggler {
                        start: f.get("start")?,
                        duration: f.get("duration")?,
                        slowdown,
                        probability: probability(f, "probability")?,
                        target: target(f)?,
                    }
                }
                "install-failure-burst" => Scenario::InstallFailureBurst {
                    start: f.get("start")?,
                    duration: f.get("duration")?,
                    fail_probability: probability(f, "fail-probability")?,
                    target: target(f)?,
                },
                "submit-host-crash" => Scenario::SubmitHostCrash {
                    after_events: f.get("after-events")?,
                },
                other => return Err(f.err(format!("unknown scenario {other:?}"))),
            };
            f.finish()?;
            plan.scenarios.push(scenario);
            plan.spans.push(Span::line(line.number));
        }
        Ok(plan)
    }
}

/// Timing of one attempt, as known at assignment: when it starts
/// executing and how long its install and execution phases would take
/// fault-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptTiming {
    /// Execution start (slot acquired), backend seconds.
    pub start: f64,
    /// Install/download phase length.
    pub install_duration: f64,
    /// Execution phase length (before any straggler slowdown).
    pub exec_duration: f64,
}

/// The script's verdict for one attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDecision {
    /// Execution-time multiplier (1.0 = no straggler).
    pub slowdown: f64,
    /// Kill the attempt at this absolute time with this failure, if
    /// any. The time always falls inside the attempt's (slowed) busy
    /// window.
    pub kill: Option<(f64, Failure)>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fault plan compiled with a seed: the object backends consult.
///
/// Every query derives a private RNG from
/// `(seed, job name, attempt, scenario index)`, so decisions are a
/// pure function of those four values — independent of event ordering,
/// of other jobs, and of which backend asks.
#[derive(Debug, Clone)]
pub struct FaultScript {
    plan: FaultPlan,
    seed: u64,
    /// The two failures the script kills with, allocated once: every
    /// attempt it fails shares them.
    install_burst: Failure,
    storm: Failure,
}

impl FaultScript {
    /// Compiles `plan` under `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultScript {
            plan,
            seed,
            install_burst: FaultReason::InstallFailure.tagged("burst"),
            storm: FaultReason::Preemption.tagged("storm"),
        }
    }

    /// Private per-(job, attempt, scenario) generator.
    fn rng_for(&self, job: &str, attempt: u32, scenario_idx: usize) -> StdRng {
        let h = mix(self.seed)
            ^ fnv1a(job)
            ^ mix(attempt as u64 + 1)
            ^ mix(scenario_idx as u64).rotate_left(17);
        StdRng::seed_from_u64(h)
    }

    /// Decides the fate of one attempt given its fault-free timing.
    ///
    /// Order of application: straggler slowdowns first (they stretch
    /// the execution window), then install-failure bursts and
    /// preemption storms against the stretched window; the earliest
    /// kill wins.
    pub fn decide(&self, job: &str, attempt: u32, timing: &AttemptTiming) -> FaultDecision {
        fn targeted(target: &Option<String>, job: &str) -> bool {
            target.as_ref().is_none_or(|t| job.starts_with(t.as_str()))
        }
        let mut slowdown = 1.0_f64;
        for (k, s) in self.plan.scenarios.iter().enumerate() {
            if let Scenario::Straggler {
                start,
                duration,
                slowdown: factor,
                probability,
                target,
            } = s
            {
                if targeted(target, job)
                    && timing.start >= *start
                    && timing.start < start + duration
                {
                    let mut rng = self.rng_for(job, attempt, k);
                    if rng.gen_bool(*probability) {
                        slowdown *= factor;
                    }
                }
            }
        }

        let install_end = timing.start + timing.install_duration;
        let busy_end = install_end + timing.exec_duration * slowdown;
        let mut kill: Option<(f64, Failure)> = None;
        let mut propose = |at: f64, failure: &Failure| {
            if kill.as_ref().is_none_or(|(t, _)| at < *t) {
                kill = Some((at, failure.clone()));
            }
        };
        for (k, s) in self.plan.scenarios.iter().enumerate() {
            match s {
                Scenario::InstallFailureBurst {
                    start,
                    duration,
                    fail_probability,
                    target,
                } => {
                    let lo = timing.start.max(*start);
                    let hi = install_end.min(start + duration);
                    if targeted(target, job) && lo < hi {
                        let mut rng = self.rng_for(job, attempt, k);
                        if rng.gen_bool(*fail_probability) {
                            propose(
                                lo + rng.gen_range(0.0..1.0) * (hi - lo),
                                &self.install_burst,
                            );
                        }
                    }
                }
                Scenario::PreemptionStorm {
                    start,
                    duration,
                    kill_probability,
                    target,
                } => {
                    let lo = timing.start.max(*start);
                    let hi = busy_end.min(start + duration);
                    if targeted(target, job) && lo < hi {
                        let mut rng = self.rng_for(job, attempt, k);
                        if rng.gen_bool(*kill_probability) {
                            propose(lo + rng.gen_range(0.0..1.0) * (hi - lo), &self.storm);
                        }
                    }
                }
                Scenario::Straggler { .. }
                | Scenario::SlotBlackout { .. }
                | Scenario::SubmitHostCrash { .. } => {}
            }
        }
        FaultDecision { slowdown, kill }
    }

    /// Blackout windows as `(start, duration, first_slot, slot_count)`
    /// tuples, for backends that model slot capacity.
    pub(crate) fn blackouts(&self) -> Vec<(f64, f64, usize, usize)> {
        self.plan
            .scenarios
            .iter()
            .filter_map(|s| match *s {
                Scenario::SlotBlackout {
                    start,
                    duration,
                    first_slot,
                    slot_count,
                } => Some((start, duration, first_slot, slot_count)),
                _ => None,
            })
            .collect()
    }

    /// The earliest scripted submit-host crash, if any: the engine
    /// stops after this many completion events.
    pub fn submit_host_crash_after(&self) -> Option<u64> {
        self.plan
            .scenarios
            .iter()
            .filter_map(|s| match *s {
                Scenario::SubmitHostCrash { after_events } => Some(after_events),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
impl FaultPlan {
    /// Renders the plan back into the text format (inverse of
    /// [`FaultPlan::parse`] up to whitespace and comments): the writer
    /// the tests read the parser's output back through.
    fn to_text(&self) -> String {
        use std::fmt::Write as _;
        fn suffix(target: &Option<String>) -> String {
            target
                .as_ref()
                .map(|t| format!(" target={t}"))
                .unwrap_or_default()
        }
        let mut out = String::new();
        if !self.name.is_empty() {
            let _ = writeln!(out, "plan {}", self.name);
        }
        for s in &self.scenarios {
            match s {
                Scenario::PreemptionStorm {
                    start,
                    duration,
                    kill_probability,
                    target,
                } => {
                    let _ = writeln!(
                        out,
                        "preemption-storm start={start} duration={duration} kill-probability={kill_probability}{}",
                        suffix(target)
                    );
                }
                Scenario::SlotBlackout {
                    start,
                    duration,
                    first_slot,
                    slot_count,
                } => {
                    let _ = writeln!(
                        out,
                        "slot-blackout start={start} duration={duration} first-slot={first_slot} count={slot_count}"
                    );
                }
                Scenario::Straggler {
                    start,
                    duration,
                    slowdown,
                    probability,
                    target,
                } => {
                    let _ = writeln!(
                        out,
                        "straggler start={start} duration={duration} slowdown={slowdown} probability={probability}{}",
                        suffix(target)
                    );
                }
                Scenario::InstallFailureBurst {
                    start,
                    duration,
                    fail_probability,
                    target,
                } => {
                    let _ = writeln!(
                        out,
                        "install-failure-burst start={start} duration={duration} fail-probability={fail_probability}{}",
                        suffix(target)
                    );
                }
                Scenario::SubmitHostCrash { after_events } => {
                    let _ = writeln!(out, "submit-host-crash after-events={after_events}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The no-fault decision.
    const CLEAN: FaultDecision = FaultDecision {
        slowdown: 1.0,
        kill: None,
    };

    const SAMPLE: &str = "\
# chaos for the OSG run
plan osg-storm

preemption-storm start=2000 duration=4000 kill-probability=0.6
slot-blackout start=1000 duration=600 first-slot=0 count=8
straggler start=0 duration=100000 slowdown=4 probability=0.5
install-failure-burst start=0 duration=1500 fail-probability=0.5
submit-host-crash after-events=150
";

    #[test]
    fn parse_reads_every_scenario() {
        let plan = FaultPlan::parse(SAMPLE).unwrap();
        assert_eq!(plan.name, "osg-storm");
        assert_eq!(plan.scenarios.len(), 5);
        assert!(matches!(
            plan.scenarios[0],
            Scenario::PreemptionStorm {
                kill_probability, ..
            } if kill_probability == 0.6
        ));
        assert!(matches!(
            plan.scenarios[4],
            Scenario::SubmitHostCrash { after_events: 150 }
        ));
    }

    #[test]
    fn text_round_trip() {
        let plan = FaultPlan::parse(SAMPLE).unwrap();
        let back = FaultPlan::parse(&plan.to_text()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = FaultPlan::parse("plan p\nwat start=1\n").unwrap_err();
        match err {
            WmsError::Parse { span, reason, .. } => {
                assert_eq!(span, Span::line(2));
                assert!(reason.contains("wat"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(FaultPlan::parse("preemption-storm start=1 duration=2").is_err());
        assert!(
            FaultPlan::parse("preemption-storm start=1 duration=2 kill-probability=3").is_err()
        );
        assert!(
            FaultPlan::parse("straggler start=0 duration=1 slowdown=0.5 probability=1").is_err()
        );
        assert!(FaultPlan::parse("plan\n").is_err());
    }

    #[test]
    fn unknown_repeated_and_non_finite_fields_are_refused_at_their_line() {
        for (bad, want) in [
            (
                "preemption-storm start=0 duration=9 kill-probability=1 taget=run_cap3",
                "unknown field taget",
            ),
            (
                "preemption-storm start=0 duration=9 start=5 kill-probability=1",
                "repeated field start",
            ),
            (
                "submit-host-crash after-events=1 after-events=2",
                "repeated field after-events",
            ),
            (
                "straggler start=0 duration=9 slowdown=nan probability=1",
                "bad number \"nan\" for slowdown",
            ),
            (
                "slot-blackout start=nan duration=inf first-slot=0 count=1",
                "bad number \"nan\" for start",
            ),
            (
                "slot-blackout start=0 duration=inf first-slot=0 count=1",
                "bad number \"inf\" for duration",
            ),
        ] {
            let err = FaultPlan::parse(&format!("plan p\n# storm\n{bad}\n")).unwrap_err();
            assert_eq!(err, Format::FaultPlan.at(3, want), "{bad}");
        }
    }

    #[test]
    fn parse_keeps_the_line_of_every_scenario() {
        let plan = FaultPlan::parse(SAMPLE).unwrap();
        let lines: Vec<usize> = plan.spans.iter().map(|s| s.line).collect();
        assert_eq!(lines, [4, 5, 6, 7, 8]);
        // Where it was read is not part of a plan's value.
        assert_eq!(FaultPlan::parse(&plan.to_text()).unwrap(), plan);
    }

    #[test]
    fn decisions_are_a_pure_function_of_job_attempt_seed() {
        let plan = FaultPlan::parse(SAMPLE).unwrap();
        let a = FaultScript::new(plan.clone(), 42);
        let b = FaultScript::new(plan.clone(), 42);
        let c = FaultScript::new(plan, 43);
        let t = AttemptTiming {
            start: 2500.0,
            install_duration: 100.0,
            exec_duration: 1000.0,
        };
        let mut diverged = false;
        for job in ["run_cap3_1", "run_cap3_2", "split", "merge"] {
            for attempt in 0..4 {
                assert_eq!(a.decide(job, attempt, &t), b.decide(job, attempt, &t));
                if a.decide(job, attempt, &t) != c.decide(job, attempt, &t) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds must change some decision");
    }

    #[test]
    fn decisions_ignore_query_order() {
        let plan = FaultPlan::parse(SAMPLE).unwrap();
        let s = FaultScript::new(plan, 7);
        let t = AttemptTiming {
            start: 2500.0,
            install_duration: 50.0,
            exec_duration: 800.0,
        };
        let forward: Vec<_> = (0..8).map(|i| s.decide(&format!("j{i}"), 0, &t)).collect();
        let mut backward: Vec<_> = (0..8)
            .rev()
            .map(|i| s.decide(&format!("j{i}"), 0, &t))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn storm_kills_fall_inside_the_overlap_window() {
        let plan =
            FaultPlan::parse("preemption-storm start=100 duration=50 kill-probability=1.0\n")
                .unwrap();
        let s = FaultScript::new(plan, 1);
        let t = AttemptTiming {
            start: 90.0,
            install_duration: 0.0,
            exec_duration: 200.0,
        };
        for i in 0..32 {
            let d = s.decide(&format!("job{i}"), 0, &t);
            let (at, failure) = d.kill.expect("probability 1 storm always kills");
            assert!((100.0..150.0).contains(&at), "kill at {at}");
            assert_eq!(failure.reason, FaultReason::Preemption);
            assert_eq!(failure.detail, "preempted:storm");
        }
        // An attempt entirely outside the window is untouched.
        let outside = AttemptTiming {
            start: 200.0,
            install_duration: 0.0,
            exec_duration: 50.0,
        };
        assert_eq!(s.decide("job0", 0, &outside), CLEAN);
    }

    #[test]
    fn install_burst_only_bites_install_phases() {
        let plan =
            FaultPlan::parse("install-failure-burst start=0 duration=1000 fail-probability=1.0\n")
                .unwrap();
        let s = FaultScript::new(plan, 3);
        let with_install = AttemptTiming {
            start: 10.0,
            install_duration: 40.0,
            exec_duration: 100.0,
        };
        let (at, failure) = s.decide("a", 0, &with_install).kill.unwrap();
        assert!((10.0..50.0).contains(&at));
        assert_eq!(failure.reason, FaultReason::InstallFailure);
        assert_eq!(failure.detail, "install:burst");
        let no_install = AttemptTiming {
            start: 10.0,
            install_duration: 0.0,
            exec_duration: 100.0,
        };
        assert_eq!(s.decide("a", 0, &no_install), CLEAN);
    }

    #[test]
    fn straggler_slowdown_stretches_the_storm_target_window() {
        // Slowdown 10 on a 10s job starting at t=0; a storm covering
        // only [50, 80) can then reach it.
        let plan = FaultPlan::parse(
            "straggler start=0 duration=100 slowdown=10 probability=1.0\n\
             preemption-storm start=50 duration=30 kill-probability=1.0\n",
        )
        .unwrap();
        let s = FaultScript::new(plan, 9);
        let t = AttemptTiming {
            start: 0.0,
            install_duration: 0.0,
            exec_duration: 10.0,
        };
        let d = s.decide("x", 0, &t);
        assert_eq!(d.slowdown, 10.0);
        let (at, _) = d.kill.expect("slowed attempt runs into the storm");
        assert!((50.0..80.0).contains(&at));
    }

    #[test]
    fn targeted_scenarios_only_bite_matching_jobs() {
        let text = "preemption-storm start=0 duration=100 kill-probability=1.0 target=run_cap3\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert!(matches!(
            &plan.scenarios[0],
            Scenario::PreemptionStorm { target: Some(t), .. } if t == "run_cap3"
        ));
        // target= round-trips through the text format.
        assert_eq!(FaultPlan::parse(&plan.to_text()).unwrap(), plan);

        let s = FaultScript::new(plan, 5);
        let t = AttemptTiming {
            start: 10.0,
            install_duration: 0.0,
            exec_duration: 50.0,
        };
        assert!(s.decide("run_cap3_7", 0, &t).kill.is_some());
        assert_eq!(s.decide("merge", 0, &t), CLEAN);
    }

    #[test]
    fn capacity_and_engine_scenarios_are_exposed_separately() {
        let plan = FaultPlan::parse(SAMPLE).unwrap();
        let s = FaultScript::new(plan, 1);
        assert_eq!(s.blackouts(), vec![(1000.0, 600.0, 0, 8)]);
        assert_eq!(s.submit_host_crash_after(), Some(150));
        let empty = FaultScript::new(FaultPlan::default(), 1);
        assert!(empty.blackouts().is_empty());
        assert_eq!(empty.submit_host_crash_after(), None);
    }
}
