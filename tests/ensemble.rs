//! Ensemble integration: the paper's decomposition sweep run as ONE
//! ensemble over the shared simulated platform.
//!
//! * same seed → byte-identical rollup CSV (determinism across the
//!   whole multi-workflow schedule, not just one engine loop);
//! * a size-1 ensemble with an unbounded slot budget is bit-identical
//!   to a plain `Engine::run` of the same workflow;
//! * a crashed member leaves a rescue DAG and ONE resubmission of that
//!   member completes it, without disturbing the others;
//! * the paper's platform contrast survives ensemble scheduling:
//!   the Sandhills rollup beats the OSG rollup, and n = 300 stays the
//!   optimal decomposition among the members;
//! * the admission order of a contended multi-tenant round is pinned by
//!   a golden (`tests/fixtures/equivalence/ensemble_admission.txt`),
//!   written by the commit that still scanned every ready job per
//!   admission. Never re-bless it to make a change pass.

use blast2cap3_pegasus::experiment::{
    builtin_registry, plan_blast2cap3_at, simulate_blast2cap3_ensemble,
};
use gridsim::SimBackend;
use pegasus_wms::engine::scripted::ScriptedBackend;
use pegasus_wms::engine::{Engine, EngineConfig, JobState, NoopMonitor};
use pegasus_wms::ensemble::{Ensemble, EnsembleConfig, EnsembleRun, Submission};
use pegasus_wms::planner::{ExecutableJob, ExecutableWorkflow, JobKind};
use pegasus_wms::rescue::RescueDag;
use pegasus_wms::statistics::{compute, compute_ensemble, render_ensemble_csv, render_summary_csv};
use pegasus_wms::workflow::JobId;

const SEED: u64 = 20140519;

/// The Fig. 2 workflow with `n` chunks, planned for `site` under SEED.
fn plan(site: &str, n: usize) -> ExecutableWorkflow {
    let reg = builtin_registry();
    plan_blast2cap3_at(reg, reg.resolve(site).unwrap(), n, SEED)
}

/// `site`'s simulated platform under SEED.
fn backend(site: &str) -> SimBackend {
    let reg = builtin_registry();
    reg.backend(reg.resolve(site).unwrap(), SEED)
}

#[test]
fn same_seed_ensemble_sweep_replays_byte_identical_rollup_csv() {
    let cfg = EngineConfig::builder().retries(10).seed(SEED).build();
    let a = simulate_blast2cap3_ensemble("osg", &[10, 40], SEED, &cfg);
    let b = simulate_blast2cap3_ensemble("osg", &[10, 40], SEED, &cfg);
    assert!(a.succeeded());
    let rollup = |run: &EnsembleRun| render_ensemble_csv(&compute_ensemble(&run.runs));
    assert_eq!(
        rollup(&a),
        rollup(&b),
        "rollup CSV must be byte-identical under a fixed seed"
    );
    // Different seed ⇒ different schedule on the opportunistic model.
    let cfg_c = EngineConfig::builder().retries(10).seed(SEED + 1).build();
    let c = simulate_blast2cap3_ensemble("osg", &[10, 40], SEED + 1, &cfg_c);
    assert_ne!(rollup(&a), rollup(&c));
}

#[test]
fn singleton_unbounded_ensemble_is_bit_identical_to_engine_run() {
    let cfg = EngineConfig::builder().retries(10).seed(SEED).build();

    let exec = plan("osg", 40);
    let mut be_single = backend("osg");
    let single = Engine::run(&mut be_single, &exec, &cfg, &mut NoopMonitor);

    let subs = vec![Submission::new(plan("osg", 40), cfg)];
    let mut be_ens = backend("osg");
    let ens = Ensemble::run_to_completion(&mut be_ens, subs, &EnsembleConfig::unbounded()).unwrap();

    assert_eq!(ens.runs.len(), 1);
    let member = &ens.runs[0];
    assert_eq!(member.wall_time, single.wall_time);
    assert_eq!(member.records.len(), single.records.len());
    for (a, b) in member.records.iter().zip(&single.records) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.state, b.state);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.times, b.times);
        assert!(member.failures(a).eq(single.failures(b)));
    }
    assert_eq!(
        render_summary_csv(&compute(member)),
        render_summary_csv(&compute(&single)),
        "summary CSV of the singleton member must match the plain run byte-for-byte"
    );
}

#[test]
fn crashed_member_rescues_and_one_resubmission_completes_it() {
    // Member 1 suffers a scripted submit-host crash mid-run; member 0
    // must be unaffected.
    let healthy_cfg = EngineConfig::builder().retries(10).seed(SEED).build();
    let mut crashing_cfg = EngineConfig::builder().retries(10).seed(SEED).build();
    crashing_cfg.crash_after_events = Some(30);

    let subs = vec![
        Submission::new(plan("sandhills", 10), healthy_cfg.clone()),
        Submission::new(plan("sandhills", 40), crashing_cfg),
    ];
    let mut sandhills = backend("sandhills");
    let ens =
        Ensemble::run_to_completion(&mut sandhills, subs, &EnsembleConfig::default()).unwrap();

    assert!(ens.runs[0].succeeded(), "healthy member must finish");
    assert!(!ens.runs[1].succeeded(), "the crashed member must fail");
    let rescue = RescueDag::of(&ens.runs[1]);
    assert!(!rescue.done.is_empty(), "crash happened mid-run");

    // Resubmit ONLY the crashed member, resuming from its rescue DAG.
    let resume_cfg = EngineConfig::builder()
        .retries(10)
        .seed(SEED)
        .rescue(&rescue)
        .build();
    let exec = plan("sandhills", 40);
    let resumed = Engine::run(
        &mut backend("sandhills"),
        &exec,
        &resume_cfg,
        &mut NoopMonitor,
    );
    assert!(
        resumed.succeeded(),
        "one resubmission must complete the member"
    );
    let skipped = resumed
        .records
        .iter()
        .filter(|r| r.state == JobState::SkippedDone)
        .count();
    assert_eq!(skipped, rescue.done.len());
}

#[test]
fn two_tenant_fair_share_is_deterministic_under_one_seed() {
    // Two tenants contend for a tight slot budget on the simulated
    // platform. The admission order (and hence the whole schedule and
    // the rollup CSV) must be a pure function of the seed — the
    // property the `pegasus serve` daemon's byte-identical recovery
    // rests on.
    let run_once = || {
        let cfg = EngineConfig::builder().retries(10).seed(SEED).build();
        let subs = vec![
            Submission::new(plan("sandhills", 10), cfg.clone()).with_tenant("alice"),
            Submission::new(plan("sandhills", 40), cfg.clone()).with_tenant("alice"),
            Submission::new(plan("sandhills", 10), cfg).with_tenant("bob"),
        ];
        let ens = Ensemble::run_to_completion(
            &mut backend("sandhills"),
            subs,
            &EnsembleConfig::with_slot_budget(8).with_tenant_slots(6),
        )
        .unwrap();
        assert!(ens.succeeded());
        // The per-member event streams capture every admission (each
        // `submitted` line carries its timestamp), so comparing the
        // logged streams compares the admission order exactly.
        let logs: Vec<String> = ens
            .runs
            .iter()
            .map(|r| pegasus_wms::events::log::write(&r.events))
            .collect();
        (logs, render_ensemble_csv(&compute_ensemble(&ens.runs)))
    };
    let (logs_a, csv_a) = run_once();
    let (logs_b, csv_b) = run_once();
    assert_eq!(logs_a, logs_b, "admission order must be seed-determined");
    assert_eq!(csv_a, csv_b, "rollup CSV must be byte-identical");
}

#[test]
fn sandhills_rollup_beats_osg_with_n300_optimal() {
    let sizes = [10usize, 100, 300, 500];
    // The OSG members need a deeper retry budget than a standalone run:
    // shared-capacity contention stretches attempts into the preemption
    // hazard. The seed picks one concrete deterministic schedule.
    let seed = 11u64;
    let cfg = EngineConfig::builder().retries(20).seed(seed).build();
    let sandhills = simulate_blast2cap3_ensemble("sandhills", &sizes, seed, &cfg);
    let osg = simulate_blast2cap3_ensemble("osg", &sizes, seed, &cfg);
    assert!(sandhills.succeeded() && osg.succeeded());

    // §VI-A: the dedicated campus allocation finishes the whole sweep
    // sooner than the opportunistic grid.
    assert!(
        sandhills.makespan < osg.makespan,
        "sandhills rollup {:.0}s must beat osg rollup {:.0}s",
        sandhills.makespan,
        osg.makespan
    );

    // Within the Sandhills rollup, n = 300 remains the optimal
    // decomposition: no other member finishes faster.
    let wall_of = |name: &str| {
        sandhills
            .runs
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.wall_time)
            .expect("member present")
    };
    let w300 = wall_of("blast2cap3_n300");
    for other in ["blast2cap3_n10", "blast2cap3_n100", "blast2cap3_n500"] {
        assert!(
            w300 <= wall_of(other),
            "n=300 must be optimal in the rollup: {w300:.0}s vs {other} {:.0}s",
            wall_of(other)
        );
    }
}

/// A fan: `root` → `width` workers → `sink`, worker `i` taking
/// `runtime + i` seconds.
fn fan(name: &str, width: usize, runtime: f64) -> ExecutableWorkflow {
    let job = |id: usize, suffix: String, runtime: f64| ExecutableJob {
        id: JobId::new(id),
        name: format!("{name}_{suffix}").into(),
        transformation: "t".into(),
        kind: JobKind::Compute,
        args: Default::default(),
        runtime_hint: runtime,
        install_hint: 0.0,
    };
    let mut jobs = vec![job(0, "root".into(), 1.0)];
    let mut edges = Vec::new();
    for i in 0..width {
        jobs.push(job(1 + i, format!("w{i}"), runtime + i as f64));
        edges.push((JobId::new(0), JobId::new(1 + i)));
        edges.push((JobId::new(1 + i), JobId::new(1 + width)));
    }
    jobs.push(job(1 + width, "sink".into(), 2.0));
    ExecutableWorkflow {
        name: name.into(),
        site: "test".into(),
        jobs,
        edges,
    }
}

/// One contended round on a scripted backend, as text: the backend's
/// submission tape, then every member's event log. Seven members over
/// three tenants at mixed priorities; two members retry scripted
/// failures, one exhausts its retries, one crashes its submit host with
/// workers released.
fn admission_round(config: &EnsembleConfig) -> String {
    let retries = |n: u32, seed: u64| EngineConfig::builder().retries(n).seed(seed).build();
    let mut crashing = retries(2, 4);
    crashing.crash_after_events = Some(2);
    let subs = vec![
        Submission::new(fan("a0", 3, 4.0), retries(2, 1)).with_tenant("alice"),
        Submission::new(fan("a1", 1, 3.0), retries(2, 2))
            .with_tenant("alice")
            .with_priority(1),
        Submission::new(fan("b0", 4, 2.0), retries(3, 3)).with_tenant("bob"),
        Submission::new(fan("b1", 3, 5.0), crashing).with_tenant("bob"),
        Submission::new(fan("c0", 2, 6.0), retries(2, 5))
            .with_tenant("carol")
            .with_priority(2),
        Submission::new(fan("c1", 2, 1.0), retries(2, 6)).with_tenant("carol"),
        Submission::new(fan("a2", 5, 3.0), retries(1, 7)).with_tenant("alice"),
    ];
    let mut backend = ScriptedBackend::new();
    for (job, attempt) in [
        ("b0_w1", 0),
        ("b0_w1", 1),
        ("c0_root", 0),
        ("a2_w4", 0),
        ("a2_w4", 1),
        ("c1_w0", 0),
    ] {
        backend.fail_plan.insert((job.into(), attempt));
    }
    let ens = Ensemble::run_to_completion(&mut backend, subs, config).unwrap();
    let mut text = String::from("tape\n");
    for (name, attempt) in &backend.log {
        text += &format!("{name} {attempt}\n");
    }
    for (i, run) in ens.runs.iter().enumerate() {
        text += &format!("member {i}\n");
        text += &pegasus_wms::events::log::write(&run.events);
    }
    text
}

#[test]
fn admission_order_matches_the_golden_on_a_contended_multi_tenant_round() {
    let mut text = String::from("# slot budget 2, tenant slots 1\n");
    text += &admission_round(&EnsembleConfig::with_slot_budget(2).with_tenant_slots(1));
    text += "# default\n";
    text += &admission_round(&EnsembleConfig::default());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/equivalence/ensemble_admission.txt");
    if std::env::var_os("PEGASUS_BLESS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("the admission golden");
    let first_diff = golden.lines().zip(text.lines()).position(|(g, t)| g != t);
    assert!(
        golden == text,
        "admission diverges from the golden at line {:?}",
        first_diff.map(|l| l + 1)
    );
}
