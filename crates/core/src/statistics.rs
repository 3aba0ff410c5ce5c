//! pegasus-statistics equivalents.
//!
//! After a run, `pegasus-statistics` reports workflow-level and
//! per-transformation numbers. The paper's evaluation is built on four
//! of them, all reproduced here:
//!
//! * **Workflow Wall Time** — first submission to last termination;
//! * **Kickstart Time** — actual remote execution duration per task;
//! * **Waiting Time** — submit-host + remote-queue wait per task;
//! * **Download/Install Time** — software provisioning per task
//!   (OSG only; zero wherever software is preinstalled).

use crate::csv::csv_row;
use crate::engine::{FaultCounters, JobState, JobTimes, WorkflowRun};
use crate::symbols::{Name, NamePool};
use std::collections::BTreeMap;

/// Column header shared by [`render_summary_csv`] and
/// [`render_ensemble_csv`]: one row describes one workflow (or the
/// whole ensemble, in the rollup row named `ensemble`).
pub(crate) const SUMMARY_CSV_HEADER: &str =
    "name,site,wall_time,cumulative_walltime,badput,succeeded,\
                                      failed,unready,retries,preemptions,evictions,\
                                      install_failures,timeouts,backoff_wait";

/// Aggregated timing for one transformation (task type).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTypeStats {
    /// Transformation name.
    pub(crate) transformation: String,
    /// Number of successful jobs of this type.
    pub count: usize,
    /// Total kickstart seconds across jobs.
    pub(crate) kickstart_total: f64,
    /// Mean kickstart seconds.
    pub kickstart_mean: f64,
    /// Maximum kickstart seconds.
    pub(crate) kickstart_max: f64,
    /// Mean waiting seconds.
    pub waiting_mean: f64,
    /// Maximum waiting seconds.
    pub(crate) waiting_max: f64,
    /// Total download/install seconds.
    pub(crate) install_total: f64,
    /// Mean download/install seconds.
    pub install_mean: f64,
}

/// Workflow-level statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowStatistics {
    /// Workflow name.
    pub(crate) name: Name,
    /// Execution site.
    pub(crate) site: Name,
    /// Workflow Wall Time in seconds.
    pub workflow_wall_time: f64,
    /// Sum of kickstart times over successful jobs — the work a
    /// serial execution would pay end to end.
    pub(crate) cumulative_job_walltime: f64,
    /// Time burnt in failed attempts ("badput").
    pub cumulative_badput: f64,
    /// Jobs that completed.
    pub(crate) jobs_succeeded: usize,
    /// Jobs that exhausted retries.
    pub jobs_failed: usize,
    /// Jobs never released.
    pub(crate) jobs_unready: usize,
    /// Total retries consumed.
    pub retries: u32,
    /// Failure breakdown by cause and the backoff sum, as
    /// [`WorkflowRun::faults`] counts them.
    pub faults: FaultCounters,
    /// The run's verdict: whether the whole workflow completed.
    pub succeeded: bool,
    /// Mean per-job queue wait (started − submitted) across every job
    /// that recorded times; `None` when none did.
    pub(crate) queue_wait: Option<f64>,
    /// Per-transformation breakdown, keyed and ordered by name.
    pub(crate) per_type: Vec<TaskTypeStats>,
}

impl WorkflowStatistics {
    /// Parallel efficiency proxy: cumulative job wall time divided by
    /// workflow wall time (the average concurrency achieved).
    pub(crate) fn speedup_over_serial(&self) -> f64 {
        if self.workflow_wall_time <= 0.0 {
            return 1.0;
        }
        self.cumulative_job_walltime / self.workflow_wall_time
    }

    /// Looks up one transformation's stats.
    pub fn for_type(&self, transformation: &str) -> Option<&TaskTypeStats> {
        self.per_type
            .iter()
            .find(|t| t.transformation == transformation)
    }
}

/// Computes statistics from a run: its `summary` plus the
/// per-transformation breakdown.
pub fn compute(run: &WorkflowRun) -> WorkflowStatistics {
    WorkflowStatistics {
        per_type: per_type(run),
        ..summary(run, &mut NamePool::default())
    }
}

/// Every [`WorkflowStatistics`] field of a run but `per_type`, which
/// stays empty: the row a summary CSV prints and a service keeps of a
/// finished member, live or replayed. The workflow and site names are
/// `names`' handles.
pub fn summary(run: &WorkflowRun, names: &mut NamePool) -> WorkflowStatistics {
    let mut cumulative = 0.0;
    let mut badput = 0.0;
    let mut succeeded = 0;
    let mut failed = 0;
    let mut unready = 0;
    // Summed from -0.0 in record order, as `Iterator::sum` does.
    let (mut waited, mut timed) = (-0.0, 0usize);
    for rec in &run.records {
        if let Some(t) = rec.times {
            waited += t.waiting();
            timed += 1;
        }
        match rec.state {
            JobState::Done => {
                succeeded += 1;
                if let Some(t) = rec.times {
                    cumulative += t.kickstart();
                }
            }
            JobState::SkippedDone => succeeded += 1,
            JobState::Failed => failed += 1,
            JobState::Unready => unready += 1,
        }
        for f in run.failures(rec) {
            badput += f.times.total();
        }
    }
    WorkflowStatistics {
        name: names.share(&run.name),
        site: names.share(&run.site),
        workflow_wall_time: run.wall_time,
        cumulative_job_walltime: cumulative,
        cumulative_badput: badput,
        jobs_succeeded: succeeded,
        jobs_failed: failed,
        jobs_unready: unready,
        retries: run.total_retries(),
        faults: run.faults(),
        succeeded: run.succeeded(),
        queue_wait: (timed > 0).then(|| waited / timed as f64),
        per_type: Vec::new(),
    }
}

/// The per-transformation breakdown of a run's completed jobs, keyed
/// and ordered by transformation name.
fn per_type(run: &WorkflowRun) -> Vec<TaskTypeStats> {
    let mut by_type: BTreeMap<&str, Vec<JobTimes>> = BTreeMap::new();
    for rec in &run.records {
        if rec.state == JobState::Done {
            by_type
                .entry(&rec.transformation)
                .or_default()
                .extend(rec.times);
        }
    }
    by_type
        .into_iter()
        .map(|(name, times)| {
            let count = times.len();
            let kick: Vec<f64> = times.iter().map(|t| t.kickstart()).collect();
            let waits: Vec<f64> = times.iter().map(|t| t.waiting()).collect();
            let installs: Vec<f64> = times.iter().map(|t| t.install()).collect();
            let sum = |v: &[f64]| v.iter().sum::<f64>();
            let mean = |v: &[f64]| {
                if v.is_empty() {
                    0.0
                } else {
                    sum(v) / v.len() as f64
                }
            };
            let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);
            TaskTypeStats {
                transformation: name.to_string(),
                count,
                kickstart_total: sum(&kick),
                kickstart_mean: mean(&kick),
                kickstart_max: max(&kick),
                waiting_mean: mean(&waits),
                waiting_max: max(&waits),
                install_total: sum(&installs),
                install_mean: mean(&installs),
            }
        })
        .collect()
}

/// Renders a pegasus-statistics-style text report.
pub fn render_text(stats: &WorkflowStatistics) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# pegasus-statistics: {} @ {}", stats.name, stats.site);
    let _ = writeln!(
        out,
        "Workflow Wall Time        : {:>12.1} s",
        stats.workflow_wall_time
    );
    let _ = writeln!(
        out,
        "Cumulative Job Wall Time  : {:>12.1} s",
        stats.cumulative_job_walltime
    );
    let _ = writeln!(
        out,
        "Cumulative Badput         : {:>12.1} s",
        stats.cumulative_badput
    );
    let _ = writeln!(
        out,
        "Jobs (succeeded/failed/unready): {}/{}/{}",
        stats.jobs_succeeded, stats.jobs_failed, stats.jobs_unready
    );
    let _ = writeln!(out, "Retries                   : {:>12}", stats.retries);
    let _ = writeln!(
        out,
        "Average concurrency       : {:>12.2}",
        stats.speedup_over_serial()
    );
    let f = &stats.faults;
    if f.total_failures() > 0 || f.backoff_wait > 0.0 {
        let _ = writeln!(
            out,
            "Failures by cause         : preempted {} / evicted {} / install {} / timeout {} / other {}",
            f.preemptions, f.evictions, f.install_failures, f.timeouts, f.other_failures
        );
        let _ = writeln!(
            out,
            "Backoff Wait              : {:>12.1} s",
            f.backoff_wait
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "TASK TYPE", "COUNT", "KICK MEAN", "KICK MAX", "WAIT MEAN", "INSTALL MEAN"
    );
    for t in &stats.per_type {
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            t.transformation,
            t.count,
            t.kickstart_mean,
            t.kickstart_max,
            t.waiting_mean,
            t.install_mean
        );
    }
    out
}

/// Renders statistics as CSV rows (`task_type,count,kick_mean,...`),
/// the machine-readable side of the report used by the figure
/// harness.
pub fn render_csv(stats: &WorkflowStatistics) -> String {
    let mut out = String::from(
        "task_type,count,kickstart_total,kickstart_mean,kickstart_max,waiting_mean,waiting_max,install_total,install_mean\n",
    );
    for t in &stats.per_type {
        out.push_str(&csv_row(&[
            t.transformation.clone(),
            t.count.to_string(),
            format!("{:.3}", t.kickstart_total),
            format!("{:.3}", t.kickstart_mean),
            format!("{:.3}", t.kickstart_max),
            format!("{:.3}", t.waiting_mean),
            format!("{:.3}", t.waiting_max),
            format!("{:.3}", t.install_total),
            format!("{:.3}", t.install_mean),
        ]));
    }
    out
}

/// Renders a one-row workflow-level summary CSV (header + one data
/// row) covering wall time, throughput, and the fault/retry counters.
///
/// This is the artifact the chaos determinism tests compare
/// byte-for-byte: two runs with the same seed and fault plan must
/// produce identical summaries.
pub fn render_summary_csv(stats: &WorkflowStatistics) -> String {
    format!("{SUMMARY_CSV_HEADER}\n{}", summary_row(stats))
}

/// One data row in the summary-CSV schema (with trailing newline).
fn summary_row(stats: &WorkflowStatistics) -> String {
    let f = &stats.faults;
    csv_row(&[
        stats.name.to_string(),
        stats.site.to_string(),
        format!("{:.3}", stats.workflow_wall_time),
        format!("{:.3}", stats.cumulative_job_walltime),
        format!("{:.3}", stats.cumulative_badput),
        stats.jobs_succeeded.to_string(),
        stats.jobs_failed.to_string(),
        stats.jobs_unready.to_string(),
        stats.retries.to_string(),
        f.preemptions.to_string(),
        f.evictions.to_string(),
        f.install_failures.to_string(),
        f.timeouts.to_string(),
        format!("{:.3}", f.backoff_wait),
    ])
}

/// Ensemble-level statistics: the per-workflow breakdowns plus the
/// cross-workflow rollup the paper's throughput comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleStatistics {
    /// Ensemble start to last workflow completion, in backend seconds.
    pub(crate) makespan: f64,
    /// Per-member statistics, in submission order.
    pub per_workflow: Vec<WorkflowStatistics>,
    /// Members that completed successfully.
    pub(crate) workflows_succeeded: usize,
    /// Members that failed or crashed.
    pub workflows_failed: usize,
    /// Sum of kickstart time over every member's successful jobs.
    pub(crate) cumulative_job_walltime: f64,
    /// Sum of badput over every member.
    pub(crate) cumulative_badput: f64,
    /// Job totals across members (succeeded, failed, unready).
    pub(crate) jobs_succeeded: usize,
    /// Jobs that exhausted retries, across members.
    pub(crate) jobs_failed: usize,
    /// Jobs never released, across members.
    pub(crate) jobs_unready: usize,
    /// Retries consumed across members.
    pub retries: u32,
    /// Merged fault counters across members.
    pub(crate) faults: FaultCounters,
}

impl EnsembleStatistics {
    /// The rollup over per-member rows, in submission order. The
    /// makespan is the longest member wall time: every member's clock
    /// starts at round start.
    pub fn from_rows(per_workflow: Vec<WorkflowStatistics>) -> Self {
        let workflows_succeeded = per_workflow.iter().filter(|w| w.succeeded).count();
        let workflows_failed = per_workflow.len() - workflows_succeeded;
        let mut faults = FaultCounters::default();
        for w in &per_workflow {
            faults.merge(&w.faults);
        }
        let walls = per_workflow.iter().map(|w| w.workflow_wall_time);
        EnsembleStatistics {
            makespan: walls.fold(0.0, f64::max),
            workflows_succeeded,
            workflows_failed,
            cumulative_job_walltime: per_workflow.iter().map(|w| w.cumulative_job_walltime).sum(),
            cumulative_badput: per_workflow.iter().map(|w| w.cumulative_badput).sum(),
            jobs_succeeded: per_workflow.iter().map(|w| w.jobs_succeeded).sum(),
            jobs_failed: per_workflow.iter().map(|w| w.jobs_failed).sum(),
            jobs_unready: per_workflow.iter().map(|w| w.jobs_unready).sum(),
            retries: per_workflow.iter().map(|w| w.retries).sum(),
            faults,
            per_workflow,
        }
    }

    /// Aggregate throughput proxy: total useful work over makespan —
    /// the average concurrency the shared platform sustained.
    pub(crate) fn aggregate_concurrency(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        self.cumulative_job_walltime / self.makespan
    }

    /// The rollup as a pseudo-workflow row (named `ensemble`, wall
    /// time = makespan), for tools that consume the summary schema.
    fn rollup_row_stats(&self) -> WorkflowStatistics {
        let site = match self.per_workflow.as_slice() {
            [] => "none".into(),
            [first, rest @ ..] if rest.iter().all(|w| w.site == first.site) => first.site.clone(),
            _ => "mixed".into(),
        };
        WorkflowStatistics {
            name: "ensemble".into(),
            site,
            workflow_wall_time: self.makespan,
            cumulative_job_walltime: self.cumulative_job_walltime,
            cumulative_badput: self.cumulative_badput,
            jobs_succeeded: self.jobs_succeeded,
            jobs_failed: self.jobs_failed,
            jobs_unready: self.jobs_unready,
            retries: self.retries,
            faults: self.faults,
            succeeded: self.workflows_failed == 0,
            queue_wait: None,
            per_type: vec![],
        }
    }
}

/// Computes per-workflow and rollup statistics over the member runs
/// of an ensemble, borrowed from wherever they live:
/// [`EnsembleStatistics::from_rows`] over each run's [`compute`] row.
pub fn compute_ensemble<'a>(runs: impl IntoIterator<Item = &'a WorkflowRun>) -> EnsembleStatistics {
    EnsembleStatistics::from_rows(runs.into_iter().map(compute).collect())
}

/// Renders the ensemble as summary-schema CSV: the shared header, one
/// row per member workflow, then the rollup row named `ensemble`
/// whose wall time is the makespan.
///
/// This is the artifact the ensemble determinism test compares
/// byte-for-byte across same-seed runs.
pub fn render_ensemble_csv(stats: &EnsembleStatistics) -> String {
    let mut out = format!("{SUMMARY_CSV_HEADER}\n");
    for w in &stats.per_workflow {
        out.push_str(&summary_row(w));
    }
    out.push_str(&summary_row(&stats.rollup_row_stats()));
    out
}

/// Renders a human-readable ensemble report: the rollup block followed
/// by a one-line-per-member table.
pub fn render_ensemble_text(stats: &EnsembleStatistics) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# pegasus-statistics: ensemble of {} workflows",
        stats.per_workflow.len()
    );
    let _ = writeln!(
        out,
        "Ensemble Makespan         : {:>12.1} s",
        stats.makespan
    );
    let _ = writeln!(
        out,
        "Cumulative Job Wall Time  : {:>12.1} s",
        stats.cumulative_job_walltime
    );
    let _ = writeln!(
        out,
        "Cumulative Badput         : {:>12.1} s",
        stats.cumulative_badput
    );
    let _ = writeln!(
        out,
        "Workflows (succeeded/failed): {}/{}",
        stats.workflows_succeeded, stats.workflows_failed
    );
    let _ = writeln!(out, "Retries                   : {:>12}", stats.retries);
    let _ = writeln!(
        out,
        "Aggregate concurrency     : {:>12.2}",
        stats.aggregate_concurrency()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<28} {:<12} {:>12} {:>10} {:>8} {:>8}",
        "WORKFLOW", "SITE", "WALL TIME", "SUCCEEDED", "FAILED", "RETRIES"
    );
    for w in &stats.per_workflow {
        let _ = writeln!(
            out,
            "{:<28} {:<12} {:>12.1} {:>10} {:>8} {:>8}",
            w.name, w.site, w.workflow_wall_time, w.jobs_succeeded, w.jobs_failed, w.retries
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FailedAttempt, FaultReason, JobRecord, JobTimes};
    use crate::planner::JobKind;
    use crate::workflow::JobId;

    fn times(submitted: f64, wait: f64, install: f64, kick: f64) -> JobTimes {
        JobTimes {
            submitted,
            started: submitted + wait,
            install_done: submitted + wait + install,
            finished: submitted + wait + install + kick,
        }
    }

    fn record(job: usize, transformation: &str, state: JobState, t: Option<JobTimes>) -> JobRecord {
        JobRecord {
            name: format!("{transformation}_{job}").into(),
            transformation: transformation.into(),
            kind: JobKind::Compute,
            state,
            attempts: 1,
            times: t,
            failures: crate::engine::FailureChain::NONE,
        }
    }

    fn sample_run() -> WorkflowRun {
        WorkflowRun {
            name: "w".into(),
            site: "sandhills".into(),
            succeeded: true,
            wall_time: 100.0,
            records: vec![
                record(0, "split", JobState::Done, Some(times(0.0, 2.0, 0.0, 10.0))),
                record(
                    1,
                    "run_cap3",
                    JobState::Done,
                    Some(times(12.0, 3.0, 45.0, 50.0)),
                ),
                record(
                    2,
                    "run_cap3",
                    JobState::Done,
                    Some(times(12.0, 5.0, 45.0, 70.0)),
                ),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn computes_workflow_level_numbers() {
        let stats = compute(&sample_run());
        assert_eq!(stats.workflow_wall_time, 100.0);
        assert_eq!(stats.cumulative_job_walltime, 130.0);
        assert_eq!(stats.jobs_succeeded, 3);
        assert_eq!(stats.jobs_failed, 0);
        assert!((stats.speedup_over_serial() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn per_type_breakdown_is_grouped_and_sorted() {
        let stats = compute(&sample_run());
        let names: Vec<&str> = stats
            .per_type
            .iter()
            .map(|t| t.transformation.as_str())
            .collect();
        assert_eq!(names, vec!["run_cap3", "split"]);
        let cap3 = stats.for_type("run_cap3").unwrap();
        assert_eq!(cap3.count, 2);
        assert_eq!(cap3.kickstart_total, 120.0);
        assert_eq!(cap3.kickstart_mean, 60.0);
        assert_eq!(cap3.kickstart_max, 70.0);
        assert_eq!(cap3.waiting_mean, 4.0);
        assert_eq!(cap3.waiting_max, 5.0);
        assert_eq!(cap3.install_total, 90.0);
        assert_eq!(cap3.install_mean, 45.0);
    }

    /// Appends `n` zero-length failed attempts of job 1, for `reason`.
    fn fail(run: &mut WorkflowRun, reason: FaultReason, n: u32) {
        for attempt in 0..n {
            let (times, detail) = (JobTimes::default(), "x".into());
            let failure = FailedAttempt {
                attempt,
                times,
                reason,
                detail,
            };
            run.push_failure(JobId::new(1), failure);
        }
    }

    #[test]
    fn badput_counts_failed_attempts() {
        let mut run = sample_run();
        let failure = FailedAttempt {
            attempt: 0,
            times: times(0.0, 1.0, 45.0, 20.0),
            reason: FaultReason::Preemption,
            detail: "preempted".into(),
        };
        run.push_failure(JobId::new(1), failure);
        let stats = compute(&run);
        assert_eq!(stats.cumulative_badput, 66.0);
    }

    #[test]
    fn failed_and_unready_jobs_are_counted() {
        let mut run = sample_run();
        run.records.push(record(3, "merge", JobState::Failed, None));
        run.records
            .push(record(4, "extract_unjoined", JobState::Unready, None));
        let stats = compute(&run);
        assert_eq!(stats.jobs_failed, 1);
        assert_eq!(stats.jobs_unready, 1);
        assert_eq!(stats.jobs_succeeded, 3);
    }

    #[test]
    fn text_report_mentions_key_lines() {
        let text = render_text(&compute(&sample_run()));
        assert!(text.contains("Workflow Wall Time"));
        assert!(text.contains("run_cap3"));
        assert!(text.contains("INSTALL MEAN"));
    }

    #[test]
    fn csv_has_header_plus_one_row_per_type() {
        let csv = render_csv(&compute(&sample_run()));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("task_type,"));
        assert!(csv.contains("run_cap3,2,"));
    }

    #[test]
    fn summary_csv_is_header_plus_one_row_with_fault_counters() {
        let mut run = sample_run();
        fail(&mut run, FaultReason::Preemption, 2);
        run.backoff_wait = 12.5;
        let csv = render_summary_csv(&compute(&run));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("name,site,wall_time"));
        assert!(csv.contains("w,sandhills,100.000"));
        assert!(csv.ends_with(",2,0,0,0,12.500\n"));
    }

    #[test]
    fn summary_csv_quotes_awkward_names_via_shared_helper() {
        let mut run = sample_run();
        run.name = "w,v2".into();
        let csv = render_summary_csv(&compute(&run));
        let row = csv.lines().nth(1).unwrap();
        assert!(row.starts_with("\"w,v2\",sandhills,"), "{row}");
    }

    #[test]
    fn text_report_breaks_out_fault_causes() {
        let mut run = sample_run();
        fail(&mut run, FaultReason::InstallFailure, 4);
        fail(&mut run, FaultReason::Timeout, 1);
        let text = render_text(&compute(&run));
        assert!(text.contains("Failures by cause"));
        assert!(text.contains("install 4"));
        assert!(text.contains("timeout 1"));
        // Clean runs stay clean: no fault lines when nothing failed.
        let clean = render_text(&compute(&sample_run()));
        assert!(!clean.contains("Failures by cause"));
    }

    fn sample_ensemble() -> Vec<WorkflowRun> {
        let mut second = sample_run();
        second.name = "w2".into();
        second.site = "osg".into();
        second.wall_time = 150.0;
        // Retries are the extra attempts on the record, their
        // failures rows of the failure table.
        second.records[1].attempts = 3;
        fail(&mut second, FaultReason::InstallFailure, 2);
        vec![sample_run(), second]
    }

    #[test]
    fn ensemble_rollup_sums_members() {
        let stats = compute_ensemble(&sample_ensemble());
        assert_eq!(stats.per_workflow.len(), 2);
        assert_eq!(stats.makespan, 150.0);
        assert_eq!(stats.workflows_succeeded, 2);
        assert_eq!(stats.workflows_failed, 0);
        assert_eq!(stats.jobs_succeeded, 6);
        assert_eq!(stats.cumulative_job_walltime, 260.0);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.faults.install_failures, 2);
        assert!((stats.aggregate_concurrency() - 260.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn ensemble_csv_has_member_rows_plus_rollup() {
        let csv = render_ensemble_csv(&compute_ensemble(&sample_ensemble()));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 members + rollup");
        assert_eq!(lines[0], SUMMARY_CSV_HEADER);
        assert!(lines[1].starts_with("w,sandhills,100.000"));
        assert!(lines[2].starts_with("w2,osg,150.000"));
        assert!(
            lines[3].starts_with("ensemble,mixed,150.000"),
            "rollup row carries the makespan: {}",
            lines[3]
        );
    }

    #[test]
    fn ensemble_rollup_site_collapses_when_unanimous() {
        let ens = [sample_run(), sample_run()];
        let csv = render_ensemble_csv(&compute_ensemble(&ens));
        assert!(csv
            .lines()
            .last()
            .unwrap()
            .starts_with("ensemble,sandhills,"));
    }

    #[test]
    fn ensemble_text_report_lists_members_and_rollup() {
        let text = render_ensemble_text(&compute_ensemble(&sample_ensemble()));
        assert!(text.contains("Ensemble Makespan"));
        assert!(text.contains("ensemble of 2 workflows"));
        assert!(text.contains("w2"));
        assert!(text.contains("WORKFLOW"));
    }

    /// A storm on five jobs: `split` completes after a preemption,
    /// `run_cap3_0` after a timeout, `run_cap3_1` exhausts its retries
    /// on task errors, `merge` is never released and `run_cap3_2` was
    /// done before the run began.
    fn storm_run() -> WorkflowRun {
        let log = "\
workflow-started time=0 jobs=5 site=osg name=storm
job id=0 kind=compute transformation=split name=split
job id=1 kind=compute transformation=run_cap3 name=run_cap3_0
job id=2 kind=compute transformation=run_cap3 name=run_cap3_1
job id=3 kind=compute transformation=merge name=merge
job id=4 kind=compute transformation=run_cap3 name=run_cap3_2
skipped time=0 job=4
submitted time=0 job=0 attempt=0
started time=1 job=0 attempt=0
failed job=0 attempt=0 reason=preempted submitted=0 started=1 install-done=1 finished=5 detail=preempted:storm
retry-scheduled time=5 job=0 next-attempt=1 backoff=0 reason=preempted detail=preempted:storm
submitted time=5 job=0 attempt=1
started time=6 job=0 attempt=1
completed job=0 attempt=1 submitted=5 started=6 install-done=6 finished=10
submitted time=10 job=1 attempt=0
submitted time=10 job=2 attempt=0
started time=12 job=1 attempt=0
started time=13 job=2 attempt=0
failed job=2 attempt=0 reason=error submitted=10 started=13 install-done=14 finished=20 detail=error:bad chunk
retry-scheduled time=20 job=2 next-attempt=1 backoff=30 reason=error detail=error:bad chunk
timed-out job=1 attempt=0 submitted=10 started=12 install-done=15 finished=40 detail=timeout: exceeded 28s
retry-scheduled time=40 job=1 next-attempt=1 backoff=0 reason=timeout detail=timeout: exceeded 28s
submitted time=40 job=1 attempt=1
submitted time=50 job=2 attempt=1
started time=41 job=1 attempt=1
started time=52 job=2 attempt=1
completed job=1 attempt=1 submitted=40 started=41 install-done=44 finished=60
failed job=2 attempt=1 reason=error submitted=50 started=52 install-done=53 finished=61 detail=error:bad chunk
workflow-finished time=61 wall-time=61 succeeded=false
";
        crate::events::replay(&crate::events::log::parse(log).unwrap()).unwrap()
    }

    #[test]
    fn summary_is_compute_without_the_per_type_breakdown() {
        let run = storm_run();
        let mut full = compute(&run);
        assert_eq!(full.retries, 3);
        assert_eq!(full.faults.timeouts, 1);
        assert_eq!(full.faults.preemptions, 1);
        assert_eq!(full.jobs_failed, 1);
        assert_eq!(full.jobs_unready, 1);
        assert_eq!(full.jobs_succeeded, 3);
        assert!(full.cumulative_badput > 0.0);
        assert_eq!(full.per_type.len(), 2, "split and run_cap3 completed");
        full.per_type.clear();
        assert_eq!(summary(&run, &mut NamePool::default()), full);
    }

    #[test]
    fn empty_run_is_all_zero() {
        let run = WorkflowRun {
            name: "w".into(),
            site: "s".into(),
            succeeded: true,
            wall_time: 0.0,
            records: vec![],
            ..Default::default()
        };
        let stats = compute(&run);
        assert_eq!(stats.cumulative_job_walltime, 0.0);
        assert_eq!(stats.speedup_over_serial(), 1.0);
        assert!(stats.per_type.is_empty());
    }
}
