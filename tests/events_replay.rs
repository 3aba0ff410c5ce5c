//! Offline provenance at paper scale: the n = 300 blast2cap3 workflow
//! under a scripted OSG preemption storm, with the event log written
//! to text, parsed back, and replayed. The replayed run must
//! reproduce the live per-task-type statistics CSV byte for byte —
//! fault counters included — on both platforms, and a crashed run's
//! rescue DAG must be recoverable from the log alone.

use blast2cap3_pegasus::experiment::simulate_blast2cap3;
use gridsim::{FaultPlan, FaultScript};
use pegasus_wms::engine::{EngineConfig, RetryPolicy, WorkflowRun};
use pegasus_wms::events;
use pegasus_wms::rescue::RescueDag;
use pegasus_wms::statistics::{compute, render_csv, render_summary_csv};

// The storm covers the heart of the n = 300 chunk-execution phase.
const STORM: &str = "\
plan osg-preemption-storm
preemption-storm start=3000 duration=5000 kill-probability=0.5
";

const SEED: u64 = 20140519;

fn storm_cfg() -> EngineConfig {
    EngineConfig::builder()
        .policy(RetryPolicy::exponential(10, 60.0))
        .seed(SEED)
        .build()
}

fn storm_run(site: &str) -> WorkflowRun {
    let plan = FaultPlan::parse(STORM).expect("valid plan");
    let script = FaultScript::new(plan, SEED);
    simulate_blast2cap3(site, 300, SEED, &storm_cfg(), Some(script))
}

#[test]
fn storm_statistics_survive_the_event_log_round_trip_on_both_platforms() {
    for site in ["sandhills", "osg"] {
        let run = storm_run(site);
        let live = compute(&run);
        assert!(run.succeeded(), "{site}: storm run must complete");
        assert!(
            live.faults.preemptions > 0,
            "{site}: the storm must actually preempt attempts: {:?}",
            live.faults
        );

        let text = events::log::write(&run.events);
        let parsed = events::log::parse(&text).expect("parse event log");
        assert_eq!(parsed, run.events, "{site}: log must round-trip");
        let replayed = events::replay(&parsed).expect("replay");
        let offline = compute(&replayed);
        assert_eq!(
            render_csv(&offline),
            render_csv(&live),
            "{site}: per-task-type CSV from the log must match the live run"
        );
        assert_eq!(
            render_summary_csv(&offline),
            render_summary_csv(&live),
            "{site}: summary CSV (fault counters included) must match"
        );
    }
}

#[test]
fn same_seed_and_plan_write_byte_identical_event_logs() {
    let a = storm_run("osg");
    let b = storm_run("osg");
    assert_eq!(
        events::log::write(&a.events),
        events::log::write(&b.events),
        "the event log is part of the deterministic replay surface"
    );
}

#[test]
fn crashed_run_rescue_is_recoverable_from_the_log_alone() {
    const CRASHING_STORM: &str = "\
plan osg-preemption-storm
preemption-storm start=3000 duration=5000 kill-probability=0.5
submit-host-crash after-events=150
";
    let plan = FaultPlan::parse(CRASHING_STORM).expect("valid plan");
    let script = FaultScript::new(plan, SEED);
    let mut cfg = storm_cfg();
    cfg.crash_after_events = script.submit_host_crash_after();
    let crashed = simulate_blast2cap3("osg", 300, SEED, &cfg, Some(script));
    assert!(!crashed.succeeded(), "the scripted crash must fail the run");
    let live_rescue = RescueDag::of(&crashed);

    let parsed = events::log::parse(&events::log::write(&crashed.events)).expect("parse");
    let offline_rescue = events::rescue_from_events(&parsed)
        .expect("replay")
        .expect("crashed run must yield a rescue DAG");
    assert_eq!(offline_rescue.to_text(), live_rescue.to_text());
}
