//! End-to-end integration: the real blast2cap3 workflow — real FASTA
//! and tabular files, real CAP3 merging — executed by the DAGMan
//! engine on the local Condor pool through `experiment::real_run`,
//! compared against the in-memory serial reference, plus failure
//! injection and rescue-based resume over the same work directory.

use bioseq::fasta::Record;
use bioseq::simulate::{generate, TranscriptomeConfig};
use blast2cap3::files::names;
use blast2cap3::serial::run_serial;
use blast2cap3::workflow::{build_workflow, WorkflowParams};
use blast2cap3_pegasus::experiment::{plan_local, real_run, synthetic_alignments};
use blast2cap3_pegasus::registry::build_registry;
use blastx::tabular::TabularRecord;
use cap3::Cap3Params;
use condor::pool::{FaultInjector, FaultProbe, InjectedFault, LocalPool, PoolConfig};
use pegasus_wms::engine::{EngineConfig, FaultReason, JobState};
use pegasus_wms::rescue::RescueDag;
use pegasus_wms::statistics::compute;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A synthetic dataset of `n_families` gene families and its
/// `alignments.out` rows.
fn dataset(n_families: usize, seed: u64) -> (Vec<Record>, Vec<TabularRecord>) {
    let data = generate(&TranscriptomeConfig {
        n_families,
        family_size_mean: 4.0,
        family_size_cap: 16,
        ..TranscriptomeConfig::tiny(seed)
    });
    let alignments = synthetic_alignments(&data);
    (data.transcripts, alignments)
}

/// A work directory no other process or test shares.
fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("b2c3_e2e_{}_{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Two workers with the real kernels, optionally failing on cue.
fn pool(workdir: &Path, injector: Option<FaultInjector>) -> LocalPool {
    let config = PoolConfig {
        workers: 2,
        workdir: workdir.to_path_buf(),
        ..Default::default()
    };
    LocalPool::with_fault_injector(config, build_registry(Cap3Params::default()), injector)
}

fn retries(n: u32) -> EngineConfig {
    EngineConfig::builder().retries(n).build()
}

fn sequences(records: &[Record]) -> BTreeSet<Vec<u8>> {
    records.iter().map(|r| r.seq.as_bytes().to_vec()).collect()
}

#[test]
fn real_workflow_matches_serial_reference() {
    let (transcripts, alignments) = dataset(10, 42);
    let dir = workdir("serial_reference");
    let mut healthy = pool(&dir, None);
    let (run, assembly) = real_run(&mut healthy, &transcripts, &alignments, 5, &retries(0))
        .expect("the real workflow runs");
    assert!(run.succeeded(), "workflow failed: {:?}", run.records);
    std::fs::remove_dir_all(&dir).ok();

    let serial = run_serial(&transcripts, &alignments, &Cap3Params::default());
    assert_eq!(assembly.len(), serial.output.len());
    assert_eq!(sequences(&assembly), sequences(&serial.output));
}

/// `tests/fixtures/equivalence/real_run_n5_s42.{jobs,fasta}`: the jobs
/// the real workflow plans at n = 5 (name, transformation and
/// arguments, one a line) and the `final.fasta` it writes over the
/// 10-family, seed-42 dataset. Written under `PEGASUS_BLESS=1` before
/// the executor it pins was rewritten; never re-bless them to make a
/// change pass.
#[test]
fn real_workflow_matches_its_golden_plan_and_assembly() {
    let (transcripts, alignments) = dataset(10, 42);
    let dir = workdir("golden");
    let mut healthy = pool(&dir, None);
    let (run, _) = real_run(&mut healthy, &transcripts, &alignments, 5, &retries(0))
        .expect("the real workflow runs");
    assert!(run.succeeded(), "{:?}", run.records);
    let exec = plan_local(&build_workflow(&WorkflowParams {
        n_clusters: 5,
        transcripts_bytes: 0,
        alignments_bytes: 0,
        ..Default::default()
    }))
    .unwrap();
    let ran: Vec<&str> = run.records.iter().map(|r| r.name.as_str()).collect();
    let planned: Vec<&str> = exec.jobs.iter().map(|j| j.name.as_str()).collect();
    assert_eq!(ran, planned);
    let jobs: String = (exec.jobs.iter())
        .map(|j| {
            let args: Vec<&str> = j.args.iter().map(|a| a.as_str()).collect();
            format!("{} {} {}\n", j.name, j.transformation, args.join(" "))
        })
        .collect();
    let fasta = std::fs::read(dir.join(names::FINAL)).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/equivalence/real_run_n5_s42");
    let (jobs_path, fasta_path) = (
        golden.with_extension("jobs"),
        golden.with_extension("fasta"),
    );
    if std::env::var_os("PEGASUS_BLESS").is_some() {
        std::fs::write(&jobs_path, &jobs).expect("write golden");
        std::fs::write(&fasta_path, &fasta).expect("write golden");
        return;
    }
    assert_eq!(jobs, std::fs::read_to_string(jobs_path).unwrap());
    assert!(
        fasta == std::fs::read(fasta_path).unwrap(),
        "final.fasta moved"
    );
}

#[test]
fn real_workflow_statistics_are_complete() {
    let (transcripts, alignments) = dataset(6, 43);
    let dir = workdir("statistics");
    let mut healthy = pool(&dir, None);
    let (run, _) = real_run(&mut healthy, &transcripts, &alignments, 3, &retries(0))
        .expect("the real workflow runs");
    assert!(run.succeeded());
    std::fs::remove_dir_all(&dir).ok();
    let stats = compute(&run);
    // Every compute transformation shows up in the statistics.
    for t in [
        "list_transcripts",
        "list_alignments",
        "split",
        "run_cap3",
        "merge",
        "extract_unjoined",
    ] {
        let s = stats.for_type(t).unwrap_or_else(|| panic!("{t} missing"));
        assert!(s.count >= 1);
        assert!(s.kickstart_mean >= 0.0);
    }
    assert_eq!(stats.for_type("run_cap3").unwrap().count, 3);
    assert!(stats.workflow_wall_time > 0.0);
}

/// Runs the real workflow with injected failures on first attempts;
/// the engine's retries must absorb them and the output must still be
/// correct.
#[test]
fn injected_failures_are_absorbed_by_retries() {
    let (transcripts, alignments) = dataset(6, 44);
    let serial = run_serial(&transcripts, &alignments, &Cap3Params::default());

    // Every task's first attempt is "preempted".
    let injector: FaultInjector = Arc::new(|probe: &FaultProbe| {
        let preempted = InjectedFault::Fail(FaultReason::Preemption.bare());
        Vec::from_iter((probe.attempt == 0).then_some(preempted))
    });
    let dir = workdir("flaky");
    let mut flaky = pool(&dir, Some(injector));
    let (run, assembly) = real_run(&mut flaky, &transcripts, &alignments, 3, &retries(2))
        .expect("the real workflow runs");
    assert!(run.succeeded(), "retries must absorb injected preemptions");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(run.total_retries() as usize, run.records.len());
    assert_eq!(run.faults().preemptions as usize, run.records.len());
    assert_eq!(sequences(&assembly), sequences(&serial.output));
}

/// A permanently failing task produces a rescue DAG; resubmitting over
/// the same work directory with the rescue skips the completed tasks
/// and finishes the workflow.
#[test]
fn rescue_resume_over_shared_workdir() {
    let (transcripts, alignments) = dataset(6, 45);
    let serial = run_serial(&transcripts, &alignments, &Cap3Params::default());

    // run_cap3_1 always fails in run 1.
    let injector: FaultInjector = Arc::new(|probe: &FaultProbe| {
        let dead = InjectedFault::Fail(FaultReason::Other.tagged("dead node"));
        Vec::from_iter((probe.job == "run_cap3_1").then_some(dead))
    });
    let dir = workdir("rescue");
    let mut dying = pool(&dir, Some(injector));
    let (run1, nothing) = real_run(&mut dying, &transcripts, &alignments, 3, &retries(1))
        .expect("a failed run is still a run");
    assert!(nothing.is_empty());
    assert!(!run1.succeeded(), "run 1 should fail");
    let rescue = RescueDag::of(&run1);
    assert!(rescue.done.contains(&"split".into()));
    assert!(!rescue.done.contains(&"merge".into()));

    // Run 2: healthy pool, same workdir, resume from the rescue.
    let resume = EngineConfig::builder().retries(0).rescue(&rescue).build();
    let (run2, assembly) = real_run(&mut pool(&dir, None), &transcripts, &alignments, 3, &resume)
        .expect("the resumed workflow runs");
    assert!(run2.succeeded(), "resume must complete: {:?}", run2.records);
    std::fs::remove_dir_all(&dir).ok();
    let skipped = run2
        .records
        .iter()
        .filter(|r| r.state == JobState::SkippedDone)
        .count();
    assert_eq!(skipped, rescue.done.len());
    assert_eq!(sequences(&assembly), sequences(&serial.output));
}

/// A work directory that cannot hold the inputs is a typed error naming
/// the path it could not write, not a panic.
#[test]
fn a_work_directory_that_is_a_file_is_an_error_naming_it() {
    let (transcripts, alignments) = dataset(4, 46);
    let dir = workdir("not_a_directory");
    std::fs::write(&dir, "a regular file").unwrap();
    let err = real_run(
        &mut pool(&dir, None),
        &transcripts,
        &alignments,
        2,
        &retries(0),
    )
    .expect_err("no input can be written under a regular file");
    std::fs::remove_file(&dir).ok();
    let path = dir.join(names::TRANSCRIPTS);
    let expected = format!("cannot write {}: ", path.display());
    assert!(err.starts_with(&expected), "{err}");
}
