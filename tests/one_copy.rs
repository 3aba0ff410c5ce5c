//! The one-copy rule, end to end: a name is allocated at one boundary
//! (DAX parse, a backend's failure report) and every layer after it —
//! the planner, the engine's events, the run's records, a replay —
//! holds the same allocation. Plus the size guards that keep the
//! per-job and per-event structures from growing back.

use blast2cap3::workflow::{build_workflow, fig2_job_count, WorkflowParams};
use condor::joblog::{EventCode, JobLogMonitor, LogEvent};
use gridsim::platforms::{osg, sandhills};
use gridsim::{FaultPlan, FaultScript, SimBackend};
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::dax;
use pegasus_wms::engine::{
    Engine, EngineConfig, FailedAttempt, JobRecord, NoopMonitor, RetryPolicy, WorkflowRun,
};
use pegasus_wms::events::{self, WorkflowEvent};
use pegasus_wms::planner::{plan, ExecutableJob, ExecutableWorkflow, JobKind, PlannerConfig};
use pegasus_wms::symbols::{Args, Name};
use pegasus_wms::trace::{self, AttemptSpan, JobTrace};

fn planned_from_dax(
    n: usize,
    site: &str,
) -> (pegasus_wms::workflow::AbstractWorkflow, ExecutableWorkflow) {
    let text = dax::to_dax(&build_workflow(&WorkflowParams::with_n(n)));
    let wf = dax::from_dax(&text).expect("own DAX parses");
    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    let exec = plan(&wf, &sites, &tc, &rc, &PlannerConfig::for_site(site)).expect("plans");
    (wf, exec)
}

/// Fig. 2 at `n` chunks on OSG under a storm that kills every second
/// attempt, with retries enough to finish.
fn osg_storm_run(n: usize, seed: u64) -> (ExecutableWorkflow, WorkflowRun) {
    let (_, exec) = planned_from_dax(n, "osg");
    let storm = "plan storm\npreemption-storm start=0 duration=1000000 kill-probability=0.5\n";
    let script = FaultScript::new(FaultPlan::parse(storm).expect("storm plan"), seed);
    let mut backend = SimBackend::new(osg(seed), seed).with_faults(script);
    let cfg = EngineConfig::builder()
        .policy(RetryPolicy::exponential(40, 30.0))
        .seed(seed)
        .build();
    let run = Engine::run(&mut backend, &exec, &cfg, &mut NoopMonitor);
    (exec, run)
}

#[test]
fn a_job_name_is_one_allocation_from_parse_to_replayed_record() {
    let (wf, exec) = planned_from_dax(12, "sandhills");
    let cfg = EngineConfig::builder().retries(3).seed(7).build();
    let run = Engine::run(
        &mut SimBackend::new(sandhills(), 7),
        &exec,
        &cfg,
        &mut NoopMonitor,
    );
    assert!(run.succeeded());
    let replayed = events::replay(&run.events).expect("engine streams replay");

    let computes: Vec<&ExecutableJob> = exec
        .jobs
        .iter()
        .filter(|j| j.kind == JobKind::Compute)
        .collect();
    assert_eq!(computes.len(), wf.jobs.len());
    for (row, job) in wf.jobs.iter().zip(computes) {
        let declared = run.events.iter().find_map(|ev| match ev {
            WorkflowEvent::JobDeclared {
                job: id,
                name,
                transformation,
                ..
            } if *id == job.id => Some((name, transformation)),
            _ => None,
        });
        let (name, transformation) = declared.expect("every job is declared");
        for record in [&run.records[job.id.idx()], &replayed.records[job.id.idx()]] {
            for (what, held, origin) in [
                ("planned name", &job.name, &row.id),
                ("declared name", name, &row.id),
                ("record name", &record.name, &row.id),
                (
                    "planned transformation",
                    &job.transformation,
                    &row.transformation,
                ),
                (
                    "declared transformation",
                    transformation,
                    &row.transformation,
                ),
                (
                    "record transformation",
                    &record.transformation,
                    &row.transformation,
                ),
            ] {
                assert!(Name::ptr_eq(held, origin), "{what} of {} is a copy", row.id);
            }
        }
        assert!(
            Args::ptr_eq(&job.args, &row.args),
            "args of {} are a copy",
            row.id
        );
    }
    // One transformation name serves every job that runs it.
    let cap3: Vec<&Name> = (wf.jobs.iter())
        .filter(|j| j.transformation == "run_cap3")
        .map(|j| &j.transformation)
        .collect();
    assert_eq!(cap3.len(), 12);
    assert!(cap3.iter().all(|t| Name::ptr_eq(t, cap3[0])));
}

#[test]
fn a_failure_reason_is_one_allocation_in_its_event_its_retry_and_its_record() {
    let (_, run) = osg_storm_run(12, 3);
    let replayed = events::replay(&run.events).expect("engine streams replay");

    let mut failures = 0;
    let mut seen = vec![0usize; run.records.len()];
    for (at, ev) in run.events.iter().enumerate() {
        let WorkflowEvent::Failed { job, detail, .. } = ev else {
            continue;
        };
        failures += 1;
        let nth = seen[job.idx()];
        seen[job.idx()] += 1;
        for run in [&run, &replayed] {
            let kept = &run
                .failures(&run.records[job.idx()])
                .nth(nth)
                .unwrap()
                .detail;
            assert!(Name::ptr_eq(kept, detail), "record copies {detail}");
        }
        if let Some(WorkflowEvent::RetryScheduled {
            detail: retried, ..
        }) = run.events.get(at + 1)
        {
            assert!(Name::ptr_eq(retried, detail), "retry copies {detail}");
        }
    }
    assert!(
        failures > 3,
        "the storm must bite for the test to mean anything"
    );
    // And the storm's reason is one allocation however often it kills.
    let storms: Vec<&Name> = (run.events.iter())
        .filter_map(|ev| match ev {
            WorkflowEvent::Failed { detail, .. } if *detail == "preempted:storm" => Some(detail),
            _ => None,
        })
        .collect();
    assert!(storms.len() > 1 && storms.iter().all(|d| Name::ptr_eq(d, storms[0])));
}

#[test]
fn per_job_and_per_event_structures_stay_small() {
    assert!(std::mem::size_of::<ExecutableJob>() <= 80);
    // `Failed` and `TimedOut` box their timestamps, so no variant needs
    // more than 47 bytes; the line-numbered pairs lint reads follow.
    assert_eq!(std::mem::size_of::<WorkflowEvent>(), 48);
    assert_eq!(std::mem::size_of::<(usize, WorkflowEvent)>(), 56);
    assert!(std::mem::size_of::<Name>() == 16 && std::mem::size_of::<Args>() == 16);
    // What the offline folds hold per job, per attempt and per log line:
    // a record keeps its failures' place in the run's table, a trace
    // track its attempts' place in the tree's.
    assert!(std::mem::size_of::<JobRecord>() <= 88);
    assert!(std::mem::size_of::<FailedAttempt>() <= 56);
    assert!(std::mem::size_of::<JobTrace>() <= 96);
    assert!(std::mem::size_of::<AttemptSpan>() <= 64);
    assert!(std::mem::size_of::<LogEvent>() <= 48);
}

#[test]
fn the_offline_folds_are_exactly_sized_and_share_their_notes() {
    let (exec, run) = osg_storm_run(300, 5);
    assert!(run.total_retries() > 100, "the storm must bite");

    let tree = trace::fold(&run.events, None).expect("engine streams fold");
    let (mut attempts, mut installs) = (0, 0);
    assert_eq!(tree.attempts.capacity(), tree.attempts.len());
    for job in &tree.jobs {
        for a in tree.attempts_of(job) {
            let (t, phases) = (a.times, a.phases().collect::<Vec<_>>());
            let labels: Vec<&str> = phases.iter().map(|p| p.label).collect();
            if t.install_done > t.started {
                assert_eq!(labels, ["queue-wait", "install", "kickstart"]);
                installs += 1;
            } else {
                assert_eq!(labels, ["queue-wait", "kickstart"]);
            }
            assert_eq!(phases[0].start, t.submitted);
            assert_eq!(phases[labels.len() - 1].end, t.finished);
            assert_eq!(phases[labels.len() - 1].start, t.install_done);
            assert!(phases.windows(2).all(|w| w[0].end == w[1].start));
            attempts += 1;
        }
    }
    assert_eq!(attempts, exec.jobs.len() + run.total_retries() as usize);
    assert!(installs > 0 && installs < attempts);

    let log = JobLogMonitor::from_events(&exec.jobs, &run.events);
    let mut submits = log.events.iter().filter(|e| e.code == EventCode::Submit);
    let first = submits.next().expect("jobs were submitted");
    assert!(submits.all(|e| Name::ptr_eq(&e.note, &first.note)));
    let mut notes: Vec<&Name> = log.events.iter().map(|e| &e.note).collect();
    notes.sort();
    notes.dedup_by(|a, b| Name::ptr_eq(a, b));
    assert!(
        notes.len() <= 8,
        "{} distinct note allocations",
        notes.len()
    );
}

#[test]
fn file_uses_are_one_flat_table_not_a_vec_per_job() {
    const N: usize = 10_000;
    let wf = build_workflow(&WorkflowParams::with_n(N));
    assert_eq!(wf.jobs.len(), fig2_job_count(N));
    // Fig. 2: every chunk has its protein file and two outputs; the
    // five fixed jobs add seven files of their own.
    assert_eq!(wf.files().len(), 3 * N + 7);
    // ... and each file is used at most a handful of times: the flat
    // table has one 4-byte slot per use, inputs then outputs per job.
    let uses: usize = wf
        .job_ids()
        .map(|j| wf.inputs(j).len() + wf.outputs(j).len())
        .sum();
    assert_eq!(uses, wf.use_count());
    assert_eq!(uses, 7 * N + 11);
    // A job row holds ranges, not vectors.
    assert!(std::mem::size_of::<pegasus_wms::workflow::JobRow>() <= 72);
    // The table is the same one a DAX round trip builds.
    assert_eq!(dax::from_dax(&dax::to_dax(&wf)).expect("round trip"), wf);
}
