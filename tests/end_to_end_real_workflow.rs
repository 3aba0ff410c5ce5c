//! End-to-end integration: the real blast2cap3 workflow — real FASTA
//! and tabular files, real CAP3 merging — executed by the DAGMan
//! engine on the local Condor pool, compared against the in-memory
//! serial reference, plus failure injection and rescue-based resume
//! over the same work directory.

use bioseq::fasta;
use blast2cap3::files::names;
use blast2cap3::serial::run_serial;
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::experiment::real_local_run;
use blast2cap3_pegasus::registry::build_registry;
use cap3::Cap3Params;
use condor::pool::{FaultInjector, FaultProbe, InjectedFault, LocalPool, PoolConfig};
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::engine::{
    Engine, EngineConfig, FaultReason, JobState, NoopMonitor, WorkflowOutcome,
};
use pegasus_wms::planner::{plan, PlannerConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn real_workflow_matches_serial_reference() {
    let out = real_local_run(10, 5, 2, 42);
    assert!(
        out.run.succeeded(),
        "workflow failed: {:?}",
        out.run.records
    );

    // Re-derive the serial reference from the files the workflow wrote.
    let transcripts = fasta::read_file(out.workdir.join(names::TRANSCRIPTS)).unwrap();
    let alignments = blastx::tabular::read_file(out.workdir.join(names::ALIGNMENTS)).unwrap();
    let serial = run_serial(&transcripts, &alignments, &Cap3Params::default());

    assert_eq!(out.final_records.len(), serial.output.len());
    let file_seqs: BTreeSet<Vec<u8>> = out
        .final_records
        .iter()
        .map(|r| r.seq.as_bytes().to_vec())
        .collect();
    let mem_seqs: BTreeSet<Vec<u8>> = serial
        .output
        .iter()
        .map(|r| r.seq.as_bytes().to_vec())
        .collect();
    assert_eq!(file_seqs, mem_seqs);
    std::fs::remove_dir_all(&out.workdir).ok();
}

#[test]
fn real_workflow_statistics_are_complete() {
    let out = real_local_run(6, 3, 2, 43);
    assert!(out.run.succeeded());
    // Every compute transformation shows up in the statistics.
    for t in [
        "list_transcripts",
        "list_alignments",
        "split",
        "run_cap3",
        "merge",
        "extract_unjoined",
    ] {
        let s = out
            .stats
            .for_type(t)
            .unwrap_or_else(|| panic!("{t} missing"));
        assert!(s.count >= 1);
        assert!(s.kickstart_mean >= 0.0);
    }
    assert_eq!(out.stats.for_type("run_cap3").unwrap().count, 3);
    assert!(out.stats.workflow_wall_time > 0.0);
    std::fs::remove_dir_all(&out.workdir).ok();
}

/// Runs the real workflow with injected failures on first attempts;
/// the engine's retries must absorb them and the output must still be
/// correct.
#[test]
fn injected_failures_are_absorbed_by_retries() {
    let out = real_local_run(6, 3, 2, 44);
    assert!(out.run.succeeded());
    let transcripts = fasta::read_file(out.workdir.join(names::TRANSCRIPTS)).unwrap();
    let alignments = blastx::tabular::read_file(out.workdir.join(names::ALIGNMENTS)).unwrap();
    let reference_count = out.final_records.len();

    // Fresh workdir with the same inputs, flaky pool this time.
    let workdir = out.workdir.with_file_name("flaky_run");
    std::fs::remove_dir_all(&workdir).ok();
    std::fs::create_dir_all(&workdir).unwrap();
    fasta::write_file(workdir.join(names::TRANSCRIPTS), &transcripts).unwrap();
    blastx::tabular::write_file(workdir.join(names::ALIGNMENTS), &alignments).unwrap();

    let wf = build_workflow(&WorkflowParams {
        n_clusters: 3,
        transcripts_bytes: 0,
        alignments_bytes: 0,
        ..Default::default()
    });
    let (sites, tc) = paper_catalogs();
    let mut cfg = PlannerConfig::for_site("osg");
    cfg.stage_data = false;
    cfg.add_create_dir = false;
    let exec = plan(&wf, &sites, &tc, &ReplicaCatalog::new(), &cfg).unwrap();

    // Every task's first attempt is "preempted".
    let injector: FaultInjector = Arc::new(|probe: &FaultProbe| {
        let preempted = InjectedFault::Fail(FaultReason::Preemption.bare());
        Vec::from_iter((probe.attempt == 0).then_some(preempted))
    });
    let mut pool = LocalPool::with_fault_injector(
        PoolConfig {
            workers: 2,
            workdir: workdir.clone(),
            ..Default::default()
        },
        build_registry(Cap3Params::default()),
        Some(injector),
    );
    let run = Engine::run(
        &mut pool,
        &exec,
        &EngineConfig::builder().retries(2).build(),
        &mut NoopMonitor,
    );
    assert!(run.succeeded(), "retries must absorb injected preemptions");
    assert_eq!(run.total_retries() as usize, exec.jobs.len());
    assert_eq!(run.faults.preemptions as usize, exec.jobs.len());

    let final_records = fasta::read_file(workdir.join(names::FINAL)).unwrap();
    assert_eq!(final_records.len(), reference_count);
    std::fs::remove_dir_all(&workdir).ok();
    std::fs::remove_dir_all(&out.workdir).ok();
}

/// A permanently failing task produces a rescue DAG; resubmitting over
/// the same work directory with the rescue skips the completed tasks
/// and finishes the workflow.
#[test]
fn rescue_resume_over_shared_workdir() {
    let out = real_local_run(6, 3, 2, 45);
    assert!(out.run.succeeded());
    let transcripts = fasta::read_file(out.workdir.join(names::TRANSCRIPTS)).unwrap();
    let alignments = blastx::tabular::read_file(out.workdir.join(names::ALIGNMENTS)).unwrap();
    let reference_count = out.final_records.len();

    let workdir = out.workdir.with_file_name("rescue_run");
    std::fs::remove_dir_all(&workdir).ok();
    std::fs::create_dir_all(&workdir).unwrap();
    fasta::write_file(workdir.join(names::TRANSCRIPTS), &transcripts).unwrap();
    blastx::tabular::write_file(workdir.join(names::ALIGNMENTS), &alignments).unwrap();

    let wf = build_workflow(&WorkflowParams {
        n_clusters: 3,
        transcripts_bytes: 0,
        alignments_bytes: 0,
        ..Default::default()
    });
    let (sites, tc) = paper_catalogs();
    let mut cfg = PlannerConfig::for_site("sandhills");
    cfg.stage_data = false;
    cfg.add_create_dir = false;
    let exec = plan(&wf, &sites, &tc, &ReplicaCatalog::new(), &cfg).unwrap();

    // run_cap3_1 always fails in run 1.
    let injector: FaultInjector = Arc::new(|probe: &FaultProbe| {
        let dead = InjectedFault::Fail(FaultReason::Other.tagged("dead node"));
        Vec::from_iter((probe.job == "run_cap3_1").then_some(dead))
    });
    let mut pool1 = LocalPool::with_fault_injector(
        PoolConfig {
            workers: 2,
            workdir: workdir.clone(),
            ..Default::default()
        },
        build_registry(Cap3Params::default()),
        Some(injector),
    );
    let run1 = Engine::run(
        &mut pool1,
        &exec,
        &EngineConfig::builder().retries(1).build(),
        &mut NoopMonitor,
    );
    let rescue = match run1.outcome {
        WorkflowOutcome::Failed(r) => r,
        WorkflowOutcome::Success => panic!("run 1 should fail"),
    };
    assert!(rescue.done.contains(&"split".into()));
    assert!(!rescue.done.contains(&"merge".into()));

    // Run 2: healthy pool, same workdir, resume from the rescue.
    let mut pool2 = LocalPool::new(
        PoolConfig {
            workers: 2,
            workdir: workdir.clone(),
            ..Default::default()
        },
        build_registry(Cap3Params::default()),
    );
    let run2 = Engine::run(
        &mut pool2,
        &exec,
        &EngineConfig::builder().retries(0).rescue(&rescue).build(),
        &mut NoopMonitor,
    );
    assert!(run2.succeeded(), "resume must complete: {:?}", run2.records);
    let skipped = run2
        .records
        .iter()
        .filter(|r| r.state == JobState::SkippedDone)
        .count();
    assert_eq!(skipped, rescue.done.len());

    let final_records = fasta::read_file(workdir.join(names::FINAL)).unwrap();
    assert_eq!(final_records.len(), reference_count);
    std::fs::remove_dir_all(&workdir).ok();
    std::fs::remove_dir_all(&out.workdir).ok();
}
