//! Property-based tests for the discrete-event simulator.

use gridsim::dist::Dist;
use gridsim::event::EventQueue;
use gridsim::faults::{FaultPlan, Scenario};
use gridsim::platform::PlatformModel;
use gridsim::PlanLintContext;
use gridsim::SimBackend;
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor, RetryPolicy, WorkflowRun};
use pegasus_wms::planner::{ExecutableJob, ExecutableWorkflow, JobKind};
use pegasus_wms::symbols::Args;
use pegasus_wms::workflow::AbstractWorkflow;
use proptest::prelude::*;

fn run_workflow(
    wf: &ExecutableWorkflow,
    backend: &mut SimBackend,
    cfg: &EngineConfig,
) -> WorkflowRun {
    Engine::run(backend, wf, cfg, &mut NoopMonitor)
}

fn job(id: usize, runtime: f64, install: f64) -> ExecutableJob {
    ExecutableJob {
        id: pegasus_wms::workflow::JobId::new(id),
        name: format!("job{id}").into(),
        transformation: "work".into(),
        kind: JobKind::Compute,
        args: Default::default(),
        runtime_hint: runtime,
        install_hint: install,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..50)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn makespan_bounds_hold(
        runtimes in proptest::collection::vec(1.0f64..100.0, 1..40),
        slots in 1usize..16,
        seed in 0u64..10_000,
    ) {
        let platform = PlatformModel::uniform("u", slots, 1.0);
        let wf = ExecutableWorkflow {
            name: "flat".into(),
            site: "sim".into(),
            jobs: runtimes
                .iter()
                .enumerate()
                .map(|(i, &r)| job(i, r, 0.0))
                .collect(),
            edges: vec![],
        };
        let mut backend = SimBackend::new(platform, seed);
        let run = run_workflow(&wf, &mut backend, &EngineConfig::default());
        prop_assert!(run.succeeded());
        let total: f64 = runtimes.iter().sum();
        let max: f64 = runtimes.iter().cloned().fold(0.0, f64::max);
        // Classic makespan bounds for independent jobs on identical
        // machines: max(longest job, total/slots) <= makespan <= total.
        let lower = (total / slots as f64).max(max);
        prop_assert!(run.wall_time >= lower - 1e-6,
            "wall {} < lower bound {}", run.wall_time, lower);
        prop_assert!(run.wall_time <= total + 1e-6,
            "wall {} > serial bound {}", run.wall_time, total);
    }

    #[test]
    fn job_times_are_monotone_and_consistent(
        runtimes in proptest::collection::vec(1.0f64..50.0, 1..20),
        installs in proptest::collection::vec(0.0f64..20.0, 1..20),
        slots in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let n = runtimes.len().min(installs.len());
        let mut platform = PlatformModel::uniform("u", slots, 1.0);
        platform.queue_delay = Dist::Uniform(0.0, 10.0);
        let wf = ExecutableWorkflow {
            name: "flat".into(),
            site: "sim".into(),
            jobs: (0..n).map(|i| job(i, runtimes[i], installs[i])).collect(),
            edges: vec![],
        };
        let mut backend = SimBackend::new(platform, seed);
        let run = run_workflow(&wf, &mut backend, &EngineConfig::default());
        for (job, rec) in run.records.iter().enumerate() {
            let t = rec.times.unwrap();
            prop_assert!(t.submitted <= t.started);
            prop_assert!(t.started <= t.install_done);
            prop_assert!(t.install_done <= t.finished);
            prop_assert!((t.install() - installs[job]).abs() < 1e-9);
            prop_assert!((t.kickstart() - runtimes[job]).abs() < 1e-9);
            prop_assert!(t.finished <= run.wall_time + 1e-9);
        }
    }

    #[test]
    fn simulation_is_seed_deterministic(
        runtimes in proptest::collection::vec(1.0f64..50.0, 1..20),
        seed in 0u64..10_000,
    ) {
        let mut platform = PlatformModel::uniform("u", 4, 1.0);
        platform.queue_delay = Dist::lognormal_median(30.0, 1.0);
        platform.runtime_jitter_sigma = 0.3;
        let wf = ExecutableWorkflow {
            name: "flat".into(),
            site: "sim".into(),
            jobs: runtimes.iter().enumerate().map(|(i, &r)| job(i, r, 0.0)).collect(),
            edges: vec![],
        };
        let run1 = run_workflow(&wf, &mut SimBackend::new(platform.clone(), seed), &EngineConfig::default());
        let run2 = run_workflow(&wf, &mut SimBackend::new(platform, seed), &EngineConfig::default());
        prop_assert_eq!(run1.wall_time, run2.wall_time);
        for (a, b) in run1.records.iter().zip(&run2.records) {
            prop_assert_eq!(a.times, b.times);
        }
    }

    /// The fault-plan lint pass is total: scenarios built
    /// programmatically from raw bit patterns (NaN, infinities,
    /// subnormals, negative zero) never panic it, with or without a
    /// workflow/retry context, and every diagnostic it emits carries
    /// a registered rule code.
    #[test]
    fn lint_plan_never_panics_on_arbitrary_scenarios(
        specs in proptest::collection::vec(
            (0u8..5, any::<u64>(), any::<u64>(), any::<u64>(), 0u8..4),
            0..8
        ),
    ) {
        let scenario = |kind: u8, a: u64, b: u64, c: u64, tsel: u8| {
            let f = f64::from_bits;
            let target = match tsel {
                0 => None,
                1 => Some("run_cap3".to_string()),
                2 => Some("stage_in".to_string()),
                _ => Some("zzz_nonexistent".to_string()),
            };
            match kind {
                0 => Scenario::PreemptionStorm {
                    start: f(a), duration: f(b), kill_probability: f(c), target,
                },
                1 => Scenario::SlotBlackout {
                    start: f(a), duration: f(b),
                    first_slot: (a % 64) as usize, slot_count: (c % 64) as usize,
                },
                2 => Scenario::Straggler {
                    start: f(a), duration: f(b), slowdown: f(c),
                    probability: f(a ^ b), target,
                },
                3 => Scenario::InstallFailureBurst {
                    start: f(a), duration: f(b), fail_probability: f(c), target,
                },
                _ => Scenario::SubmitHostCrash { after_events: a },
            }
        };
        let mut plan = FaultPlan {
            name: "prop".into(),
            scenarios: specs
                .iter()
                .map(|&(k, a, b, c, t)| scenario(k, a, b, c, t))
                .collect(),
            spans: Vec::new(),
        };

        let mut wf = AbstractWorkflow::new("w");
        let mut rows = wf.declare();
        let none: [(&str, u64); 0] = [];
        rows.job("run_cap3_1", "run_cap3", Args::new(), 5.0, none, none).unwrap();
        rows.job("merge", "merge", Args::new(), 2.0, none, none).unwrap();
        drop(rows);
        let retry = RetryPolicy::exponential(2, 13.0);

        for ctx in [
            PlanLintContext::default(),
            PlanLintContext {
                workflow: Some(&wf),
                retry: Some(&retry),
            },
        ] {
            // Built in code, the plan has no lines to point at; the
            // second time round it has fewer lines than scenarios.
            let diags = gridsim::lint_plan(&plan, "prop.fp", &ctx);
            plan.spans = vec![pegasus_wms::error::Span::line(2)];
            for d in &diags {
                prop_assert!(
                    pegasus_wms::lint::rule(d.code).is_some(),
                    "unregistered {}",
                    d.code
                );
            }
        }
    }

    #[test]
    fn speed_scales_kickstart_inverse_linearly(
        runtime in 10.0f64..1000.0,
        speed in 0.25f64..4.0,
    ) {
        let platform = PlatformModel::uniform("u", 1, speed);
        let wf = ExecutableWorkflow {
            name: "one".into(),
            site: "sim".into(),
            jobs: vec![job(0, runtime, 0.0)],
            edges: vec![],
        };
        let mut backend = SimBackend::new(platform, 1);
        let run = run_workflow(&wf, &mut backend, &EngineConfig::default());
        let t = run.records[0].times.unwrap();
        prop_assert!((t.kickstart() - runtime / speed).abs() < 1e-6);
    }
}

// --- sites.def grammar properties -----------------------------------

use gridsim::platform::ChurnModel;
use gridsim::sites::{parse_defs, render_defs, SiteDef, SiteRegistry, SpeedSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `parse_defs(render_defs(x)) == x` for arbitrary definitions,
    /// including non-ASCII names and a variant chaining to the base
    /// site through one of its aliases. Name and alias alphabets are
    /// case-disjoint so the generated registry always loads.
    #[test]
    fn site_defs_round_trip_through_text(
        name in "[a-z\u{430}-\u{44f}][a-z0-9_.\u{430}-\u{44f}-]{0,9}",
        alias in "[A-Z\u{391}-\u{3a9}][A-Z0-9-]{0,6}",
        (slots, speed_pick, dist_pick) in (1usize..500, 0u8..2, 0u8..4),
        (startup, install, hazard) in (0.0f64..1e4, 0.0f64..4.0, 0.0f64..0.01),
        (d_a, d_b) in (0.001f64..1e3, 0.01f64..2.0),
        (churny, cpu, bandwidth) in (0u8..2, 0.1f64..8.0, 1e6f64..1e9),
    ) {
        let mut def = SiteDef::new(&name);
        def.aliases = vec![alias.clone()];
        def.slots = slots;
        def.speed = match speed_pick {
            0 => SpeedSpec::Fixed(cpu),
            _ => SpeedSpec::LognormalMedian { median: cpu, sigma: hazard * 10.0 },
        };
        def.queue_delay = match dist_pick {
            0 => Dist::Fixed(d_a),
            1 => Dist::Uniform(d_a, d_a + d_b),
            2 => Dist::Exponential(d_b),
            _ => Dist::LogNormal(d_a.ln(), d_b),
        };
        def.startup_delay = startup;
        def.install_time_factor = install;
        def.preemption_rate = hazard;
        def.runtime_jitter_sigma = hazard * 2.0;
        def.task_overhead = startup / 2.0;
        def.churn = (churny == 1).then_some(ChurnModel { mean_up: d_a, mean_down: d_b });
        def.shared_fs = churny == 0;
        def.cpu_speed = cpu;
        def.bandwidth_bps = bandwidth;
        def.packages = vec!["python".to_string(), "cap3".to_string()];
        def.replicas = vec!["big.db".to_string()];

        // A variant reaching the base site through its alias — the
        // catalog-site chain the registry has to resolve end-to-end.
        let mut variant = SiteDef::new(format!("{name}_v"));
        variant.catalog_site = Some(alias.clone());
        variant.slots = slots;
        variant.install_time_factor = 0.0;
        variant.preemption_rate = hazard;

        let defs = vec![def, variant];
        let text = render_defs(&defs);
        let reparsed = parse_defs(&text).unwrap();
        prop_assert_eq!(&reparsed, &defs, "text was:\n{}", text);

        // Second round trip: rendering the reparse is byte-identical.
        prop_assert_eq!(render_defs(&reparsed), text);

        let reg = SiteRegistry::from_defs(defs).unwrap();
        let base = reg.resolve(&name).unwrap();
        prop_assert_eq!(reg.resolve(&alias).unwrap(), base);
        let v = reg.resolve(&format!("{name}_v")).unwrap();
        prop_assert_eq!(reg.catalog_name(v), name.as_str());
        prop_assert_eq!(reg.sweep(), vec![base]);
    }

    /// The platform a registry builds from a rendered-and-reparsed
    /// registry is identical to the original — the text format loses
    /// no information the simulator reads.
    #[test]
    fn reparsed_registry_builds_identical_platforms(
        seed in 0u64..10_000,
        slots in 1usize..64,
        sigma in 0.0f64..1.0,
        median in 0.1f64..4.0,
    ) {
        let mut def = SiteDef::new("prop-site");
        def.slots = slots;
        def.speed = SpeedSpec::LognormalMedian { median, sigma };
        def.queue_delay = Dist::lognormal_median(median * 100.0, sigma.max(0.01));
        let reg = SiteRegistry::from_defs(vec![def]).unwrap();
        let reg2 = SiteRegistry::parse(&reg.to_text()).unwrap();
        let id = reg.resolve("prop-site").unwrap();
        let id2 = reg2.resolve("prop-site").unwrap();
        prop_assert_eq!(reg.platform(id, seed), reg2.platform(id2, seed));
    }
}
