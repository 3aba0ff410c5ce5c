//! Provenance chain integration: one simulated paper-scale run emits
//! a single typed event stream, and every downstream consumer —
//! status monitor, timeline monitor, Condor user log, statistics,
//! analyzer, even the engine's own records — is re-derivable from a
//! replay of that stream. Where the old version of this test
//! cross-checked five independently maintained reconstructions, it
//! now reduces to assertions over one source of truth: the events.
//! The other two tests pin the two ends of that chain: every observer
//! is handed exactly the recorded stream, and a fold of a run in hand
//! equals the same fold of its written log.

use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::experiment::{
    builtin_registry, calibrate_workload, calibrated_chunk_costs, plan_blast2cap3_at,
};
use condor::joblog::{EventCode, JobLogMonitor};
use gridsim::platforms::osg;
use gridsim::{FaultPlan, FaultScript, SimBackend};
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::engine::{Engine, EngineConfig, NoopMonitor, RetryPolicy, WorkflowRun};
use pegasus_wms::ensemble::{Ensemble, EnsembleConfig, Submission};
use pegasus_wms::events::{self, EventSink, WorkflowEvent};
use pegasus_wms::metrics::{MetricsMonitor, MetricsRegistry};
use pegasus_wms::monitor::{MultiMonitor, StatusMonitor, TimelineMonitor};
use pegasus_wms::planner::ExecutableWorkflow;
use pegasus_wms::statistics::{compute, render_csv, render_summary_csv};
use pegasus_wms::trace::TraceId;
use pegasus_wms::{breakdown, trace};

#[test]
fn every_consumer_is_a_fold_of_one_event_stream() {
    // A smallish calibrated workflow on the failure-prone OSG model,
    // so retries appear in the provenance.
    let cal = calibrate_workload(99);
    let costs = calibrated_chunk_costs(&cal, 40);
    let wf = build_workflow(&WorkflowParams::with_n(costs.len()).with_chunk_costs(costs));
    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    let exec = pegasus_wms::planner::plan(
        &wf,
        &sites,
        &tc,
        &rc,
        &pegasus_wms::planner::PlannerConfig::for_site("osg"),
    )
    .unwrap();

    let mut backend = SimBackend::new(osg(99), 99);
    let mut status = StatusMonitor::new(exec.jobs.len());
    let mut timeline = TimelineMonitor::new();
    let mut joblog = JobLogMonitor::new();
    let run = {
        let mut multi = MultiMonitor::new();
        multi.push(&mut status);
        multi.push(&mut timeline);
        multi.push(&mut joblog);
        Engine::run(
            &mut backend,
            &exec,
            &EngineConfig::builder().retries(20).build(),
            &mut multi,
        )
    };
    assert!(run.succeeded());

    // --- the stream itself vs the engine's records -----------------
    let submissions: u32 = run.records.iter().map(|r| r.attempts).sum();
    let count = |pred: fn(&WorkflowEvent) -> bool| run.events.iter().filter(|e| pred(e)).count();
    assert_eq!(
        count(|e| matches!(e, WorkflowEvent::Submitted { .. })) as u32,
        submissions
    );
    let failed_attempts: usize = run.records.iter().map(|r| run.failures(r).count()).sum();
    assert_eq!(
        count(|e| matches!(
            e,
            WorkflowEvent::Failed { .. } | WorkflowEvent::TimedOut { .. }
        )),
        failed_attempts
    );
    assert_eq!(
        count(|e| matches!(e, WorkflowEvent::Completed { .. })),
        exec.jobs.len()
    );
    assert_eq!(
        count(|e| matches!(e, WorkflowEvent::WorkflowFinished { .. })),
        1
    );

    // --- replay reconstructs the run exactly -----------------------
    let replayed = events::replay(&run.events).expect("replay");
    assert_eq!(replayed, run);

    // --- the text log round-trips the stream exactly ----------------
    let text = events::log::write(&run.events);
    let parsed = events::log::parse(&text).expect("parse event log");
    assert_eq!(parsed, run.events);

    // --- live monitors are folds of the stream ----------------------
    let mut status2 = StatusMonitor::new(exec.jobs.len());
    let mut timeline2 = TimelineMonitor::new();
    {
        let mut multi = MultiMonitor::new();
        multi.push(&mut status2);
        multi.push(&mut timeline2);
        for ev in &parsed {
            multi.event(ev);
        }
    }
    assert!(status2.history().eq(status.history()));
    assert_eq!(status2.done, status.done);
    assert_eq!(status2.failed_attempts, status.failed_attempts);
    assert_eq!(timeline2.entries, timeline.entries);
    assert_eq!(timeline2.peak_concurrency(), timeline.peak_concurrency());

    // --- the Condor user log is a fold of the stream ----------------
    let offline_log = JobLogMonitor::from_events(&exec.jobs, &parsed);
    assert_eq!(offline_log.events, joblog.events);
    assert_eq!(offline_log.to_text(), joblog.to_text());
    // Preemptions are machine-initiated, so they log as Condor "004"
    // evicted events, not aborts.
    let evictions = offline_log
        .events
        .iter()
        .filter(|e| e.code == EventCode::Evicted)
        .count();
    assert_eq!(evictions, failed_attempts, "every preemption is logged");
    assert!(
        offline_log
            .events
            .iter()
            .all(|e| e.code != EventCode::Aborted),
        "no user aborts in this run"
    );

    // --- a sink that watches a second run reads that run's manifest -
    // One sink, two streams in sequence (a rescue resubmission, a
    // sweep): the first run's job 0 is a compute job called `other`,
    // and none of that may leak into the names, transformations or
    // phase histograms of the second.
    let prelude = events::log::parse(
        "workflow-started time=0 jobs=1 site=osg name=prelude\n\
         job id=0 kind=compute transformation=other name=other\n\
         workflow-finished time=0 wall-time=0 succeeded=true\n",
    )
    .expect("prelude parses");
    let mut timeline3 = TimelineMonitor::new();
    let mut joblog3 = JobLogMonitor::new();
    let (mut reused, mut fresh) = (MetricsRegistry::new(), MetricsRegistry::new());
    {
        let mut metrics = MetricsMonitor::new(&mut reused, "osg", "40");
        for ev in prelude.iter().chain(&parsed) {
            timeline3.event(ev);
            joblog3.event(ev);
            metrics.event(ev);
        }
    }
    for stream in [&prelude, &parsed] {
        let mut metrics = MetricsMonitor::new(&mut fresh, "osg", "40");
        stream.iter().for_each(|ev| metrics.event(ev));
    }
    assert_eq!(timeline3.entries, timeline.entries);
    assert_eq!(joblog3.events, joblog.events);
    assert_eq!(reused.render(), fresh.render());

    // --- statistics from the replay match the live run --------------
    let live = compute(&run);
    let offline = compute(&replayed);
    assert_eq!(render_csv(&offline), render_csv(&live));
    assert_eq!(render_summary_csv(&offline), render_summary_csv(&live));
    assert_eq!(live.retries as usize, failed_attempts);
    assert!(live.cumulative_badput > 0.0, "preemptions imply badput");

    // --- the analyzer agrees too ------------------------------------
    assert_eq!(
        pegasus_wms::analyzer::analyze(&replayed),
        pegasus_wms::analyzer::analyze(&run)
    );
}

const SEED: u64 = 20140519;

/// The OSG platform under the preemption storm of
/// `tests/events_replay.rs`, which covers the n = 300 chunk phase.
fn stormy_osg() -> SimBackend {
    let plan = FaultPlan::parse(
        "plan osg-preemption-storm\n\
         preemption-storm start=3000 duration=5000 kill-probability=0.5\n",
    )
    .expect("valid plan");
    let reg = builtin_registry();
    reg.backend(reg.resolve("osg").expect("osg is built in"), SEED)
        .with_faults(FaultScript::new(plan, SEED))
}

/// The Fig. 2 workflow with `n` chunks, planned for OSG under SEED.
fn osg_plan(n: usize) -> ExecutableWorkflow {
    let reg = builtin_registry();
    plan_blast2cap3_at(reg, reg.resolve("osg").expect("osg is built in"), n, SEED)
}

fn storm_cfg() -> EngineConfig {
    EngineConfig::builder()
        .policy(RetryPolicy::exponential(10, 60.0))
        .seed(SEED)
        .build()
}

#[test]
fn every_observer_is_handed_exactly_the_recorded_stream() {
    /// Every member's events as delivered, and how many deliveries
    /// ended with a `WorkflowFinished` trailer — the count the serve
    /// daemon's `--crash-after-members` hook keeps.
    #[derive(Default)]
    struct Tape(Vec<Vec<WorkflowEvent>>, usize);
    impl Tape {
        fn deliver(&mut self, index: usize, events: &[WorkflowEvent]) {
            self.0.resize(self.0.len().max(index + 1), Vec::new());
            self.0[index].extend_from_slice(events);
            if matches!(events.last(), Some(WorkflowEvent::WorkflowFinished { .. })) {
                self.1 += 1;
            }
        }
    }
    impl EventSink for Tape {
        fn event(&mut self, ev: &WorkflowEvent) {
            self.deliver(0, std::slice::from_ref(ev));
        }
        fn events(&mut self, batch: &[WorkflowEvent]) {
            self.deliver(0, batch);
        }
    }
    let trailer = |run: &WorkflowRun| {
        matches!(
            run.events.last(),
            Some(WorkflowEvent::WorkflowFinished { .. })
        )
    };

    let exec = osg_plan(300);
    let mut crashing = storm_cfg();
    crashing.crash_after_events = Some(150);
    for (cfg, completes) in [(storm_cfg(), true), (crashing.clone(), false)] {
        let mut tape = Tape::default();
        let run = Engine::run(&mut stormy_osg(), &exec, &cfg, &mut tape);
        assert_eq!(run.succeeded(), completes);
        assert!(run.faults().preemptions > 0, "the storm must hit the run");
        assert!(trailer(&run));
        assert_eq!(tape.0, [run.events]);
        assert_eq!(tape.1, 1);
    }

    // The same through the ensemble manager: one member rides out the
    // storm (or exhausts its retries under the contention), the
    // other's submit host dies under it.
    let mut tape = Tape::default();
    crashing.crash_after_events = Some(20);
    let members = vec![
        Submission::new(exec.clone(), storm_cfg()),
        Submission::new(osg_plan(40), crashing),
    ];
    let ens = Ensemble::run_to_completion_monitored(
        &mut stormy_osg(),
        members,
        &EnsembleConfig::unbounded(),
        &mut |index, events| tape.deliver(index, events),
    )
    .expect("the round runs");
    assert!(!ens.runs[1].succeeded(), "the scripted crash fires");
    assert!(ens.runs.iter().all(trailer));
    let recorded: Vec<&[WorkflowEvent]> = ens.runs.iter().map(|r| r.events.as_slice()).collect();
    assert_eq!(tape.0, recorded);
    assert_eq!(
        tape.1, 2,
        "one trailer-ended delivery per member, crashed or not"
    );
}

#[test]
fn folds_of_a_run_in_hand_equal_folds_of_its_written_log() {
    let exec = osg_plan(40);
    let run_with =
        |cfg: &EngineConfig| Engine::run(&mut stormy_osg(), &exec, cfg, &mut NoopMonitor);

    let completed = run_with(&storm_cfg());
    assert!(completed.succeeded() && completed.total_retries() > 0);
    // Without a retry budget the first preemption is terminal.
    let failed = run_with(&EngineConfig::builder().seed(SEED).build());
    assert!(!failed.succeeded(), "no retries under a storm must fail");
    let rescue = pegasus_wms::rescue::RescueDag::of(&failed);
    assert!(
        !rescue.done.is_empty(),
        "something finished before the storm"
    );
    let resumed = run_with(&EngineConfig::builder().rescue(&rescue).retries(20).build());
    assert!(resumed.succeeded());
    // A real submit-host crash: the log simply stops, no trailer.
    let cut = &completed.events[..completed.events.len() * 2 / 3];
    let truncated = events::replay(cut).expect("a prefix of an engine stream replays");
    assert!(!truncated.succeeded());

    let id = Some(TraceId::derive(SEED, 0));
    for (what, run) in [
        ("completed", &completed),
        ("failed with rescue", &failed),
        ("resumed from the rescue", &resumed),
        ("truncated", &truncated),
    ] {
        let parsed = events::log::parse(&events::log::write(&run.events)).expect(what);
        assert_eq!(
            breakdown::of_run(run),
            breakdown::from_events(&parsed).expect(what),
            "{what}"
        );
        assert_eq!(
            trace::of_run(run, id),
            trace::fold(&parsed, id).expect(what),
            "{what}"
        );
    }
}
