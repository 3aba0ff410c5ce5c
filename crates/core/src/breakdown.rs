//! The per-task phase profiler — the paper's Fig. 7–8 decomposition.
//!
//! The paper's central per-task finding is a *phase breakdown*:
//! Kickstart Time (the actual remote runtime) slowly decreases with
//! `n` on Sandhills and faster on OSG, and OSG's pure kickstart beats
//! Sandhills even though its per-task total is worse — install
//! overhead, queue-wait variance, and retry badput eat the
//! difference. This module computes that breakdown from the
//! [`WorkflowRun`] the provenance stream folds into: `job_spans`
//! turns its records into per-job [`JobSpan`]s
//!
//! > `queue-wait → install → kickstart → post-overhead → retry-badput`
//!
//! and [`BreakdownRow`] aggregates the compute jobs of one run into a
//! per-site/per-n table row. A live run already holds its records
//! ([`of_run`]); a parsed `--events` log is folded into the same
//! records first ([`from_events`]), so `pegasus breakdown
//! --from-events` reproduces the live sweep byte-for-byte under the
//! same seed.

use crate::engine::WorkflowRun;
use crate::error::WmsError;
use crate::events::{self, WorkflowEvent};
use crate::metrics::n_label;
use crate::planner::JobKind;
use crate::symbols::Name;
use crate::workflow::JobId;

/// One job's phase decomposition, from first submission to final
/// completion.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpan {
    /// Job index in the executable workflow.
    pub job: JobId,
    /// Display name.
    pub name: Name,
    /// Transformation name.
    pub transformation: Name,
    /// Job role.
    pub kind: JobKind,
    /// Total attempts submitted.
    pub attempts: u32,
    /// Whether the job eventually completed.
    pub completed: bool,
    /// Successful attempt: submission → slot acquisition, seconds.
    pub queue_wait: f64,
    /// Successful attempt: download/install phase, seconds.
    pub install: f64,
    /// Successful attempt: actual execution (Kickstart Time), seconds.
    pub kickstart: f64,
    /// Inter-attempt overhead: backoff delays and resubmission gaps
    /// between the first attempt's release and the successful
    /// attempt's release that are not accounted to any failed
    /// attempt, seconds.
    pub post_overhead: f64,
    /// Badput: total time consumed by failed attempts (their own
    /// queue, install, and execution up to the failure), seconds.
    pub retry_badput: f64,
}

impl JobSpan {
    /// The job's end-to-end span: the sum of all five phases (first
    /// release to the remote queue → final completion for a completed
    /// job). Time held at the submit host by the DAGMan-style
    /// throttle is deliberately excluded — per-task phases are
    /// measured from the job log, the way pegasus-statistics does.
    pub(crate) fn total(&self) -> f64 {
        self.queue_wait + self.install + self.kickstart + self.post_overhead + self.retry_badput
    }
}

/// One [`JobSpan`] per job record of `run`, in record order.
///
/// Jobs that never completed keep zero success-phase durations but
/// still accumulate `retry_badput` from their failed attempts.
pub(crate) fn job_spans(run: &WorkflowRun) -> impl Iterator<Item = JobSpan> + '_ {
    run.records.iter().enumerate().map(|(job, r)| {
        let retry_badput = run
            .failures(r)
            .fold(0.0, |sum, f| sum + (f.times.finished - f.times.submitted));
        let ok = r.times.unwrap_or_default();
        // Per-task phases are measured from the first attempt's
        // *release* into the remote queue (its
        // `JobTimes::submitted`), not from the engine-side
        // hand-off: time a job sits held at the submit host behind
        // the DAGMan-style throttle is a workflow-level scheduling
        // artefact, not a per-task cost, and pegasus-statistics
        // likewise derives per-job phases from the Condor job log.
        let origin = run.failures(r).next().map_or(ok, |f| f.times).submitted;
        JobSpan {
            job: JobId::new(job),
            name: r.name.clone(),
            transformation: r.transformation.clone(),
            kind: r.kind,
            attempts: r.attempts,
            completed: r.times.is_some(),
            queue_wait: ok.waiting(),
            install: ok.install(),
            kickstart: ok.kickstart(),
            // Whatever lies between the first attempt's release
            // and the successful attempt's release, minus the time
            // the failed attempts consumed, is inter-attempt
            // overhead (backoff waits, resubmission gaps).
            post_overhead: r
                .times
                .map_or(0.0, |ok| (ok.submitted - origin - retry_badput).max(0.0)),
            retry_badput,
        }
    })
}

/// One per-site/per-n row of the breakdown table: phase means over the
/// run's *compute* jobs (the paper's per-task view; auxiliary staging
/// and directory jobs are excluded).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Execution site handle.
    pub site: String,
    /// Decomposition label (`n`), from the workflow name or job count.
    pub n: String,
    /// Number of compute jobs aggregated.
    pub compute_jobs: usize,
    /// Compute jobs that completed.
    pub completed: usize,
    /// Mean queue wait of the successful attempts, seconds.
    pub queue_wait_mean: f64,
    /// Mean download/install phase, seconds.
    pub install_mean: f64,
    /// Mean Kickstart Time, seconds.
    pub kickstart_mean: f64,
    /// Mean inter-attempt overhead, seconds.
    pub post_overhead_mean: f64,
    /// Mean retry badput, seconds.
    pub retry_badput_mean: f64,
    /// Mean end-to-end per-task total, seconds.
    pub total_mean: f64,
}

/// Aggregates already-computed spans into one row labelled
/// `site`/`n`. Means are over all compute jobs (failed ones
/// contribute their badput and zeros elsewhere).
pub(crate) fn aggregate(site: &str, n: &str, spans: &[JobSpan]) -> BreakdownRow {
    let compute: Vec<&JobSpan> = spans
        .iter()
        .filter(|s| s.kind == JobKind::Compute)
        .collect();
    let count = compute.len();
    let mean = |f: &dyn Fn(&JobSpan) -> f64| -> f64 {
        if count == 0 {
            0.0
        } else {
            compute.iter().map(|s| f(s)).sum::<f64>() / count as f64
        }
    };
    BreakdownRow {
        site: site.to_string(),
        n: n.to_string(),
        compute_jobs: count,
        completed: compute.iter().filter(|s| s.completed).count(),
        queue_wait_mean: mean(&|s| s.queue_wait),
        install_mean: mean(&|s| s.install),
        kickstart_mean: mean(&|s| s.kickstart),
        post_overhead_mean: mean(&|s| s.post_overhead),
        retry_badput_mean: mean(&|s| s.retry_badput),
        total_mean: mean(&|s| s.total()),
    }
}

/// The breakdown row of a run in hand: site and `n` (from the workflow
/// name, or the job count) off the run, phases from `job_spans` over
/// its records. Reads nothing from `run.events`.
pub fn of_run(run: &WorkflowRun) -> BreakdownRow {
    let n = n_label(&run.name, run.records.len());
    aggregate(&run.site, &n, &job_spans(run).collect::<Vec<_>>())
}

/// The breakdown row of a recorded event stream: folds it once into
/// the run it records, then [`of_run`].
///
/// # Errors
/// Returns [`WmsError::Parse`] when the stream is not a valid
/// engine emission (no header first, undeclared or out-of-order jobs).
pub fn from_events(stream: &[WorkflowEvent]) -> Result<BreakdownRow, WmsError> {
    Ok(of_run(&events::fed(stream).finish()?))
}

/// Header of the CSV rendering.
pub(crate) const CSV_HEADER: &str = "site,n,compute_jobs,completed,queue_wait_mean_s,install_mean_s,\
                              kickstart_mean_s,post_overhead_mean_s,retry_badput_mean_s,total_mean_s";

/// Renders rows as CSV under `CSV_HEADER`, durations with
/// millisecond precision — byte-stable for a given event stream.
pub fn render_csv(rows: &[BreakdownRow]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in rows {
        out.push_str(&crate::csv::csv_row(&[
            r.site.clone(),
            r.n.clone(),
            r.compute_jobs.to_string(),
            r.completed.to_string(),
            format!("{:.3}", r.queue_wait_mean),
            format!("{:.3}", r.install_mean),
            format!("{:.3}", r.kickstart_mean),
            format!("{:.3}", r.post_overhead_mean),
            format!("{:.3}", r.retry_badput_mean),
            format!("{:.3}", r.total_mean),
        ]));
    }
    out
}

/// Renders rows as a JSON array (the `pegasus breakdown --json`
/// machine interface): one object per row, keys matching the
/// `CSV_HEADER` columns, durations with millisecond precision —
/// byte-stable for a given event stream. Hand-rolled JSON, like the
/// lint and trace renderers: the repo's no-serde discipline.
pub fn render_json(rows: &[BreakdownRow]) -> String {
    use crate::trace::write_json_str;
    use std::fmt::Write as _;
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("  {\"site\":\"");
        let _ = write_json_str(&mut out, &r.site);
        out.push_str("\",\"n\":\"");
        let _ = write_json_str(&mut out, &r.n);
        let _ = write!(
            out,
            "\",\"compute_jobs\":{},\"completed\":{},\
             \"queue_wait_mean_s\":{:.3},\"install_mean_s\":{:.3},\"kickstart_mean_s\":{:.3},\
             \"post_overhead_mean_s\":{:.3},\"retry_badput_mean_s\":{:.3},\"total_mean_s\":{:.3}}}",
            r.compute_jobs,
            r.completed,
            r.queue_wait_mean,
            r.install_mean,
            r.kickstart_mean,
            r.post_overhead_mean,
            r.retry_badput_mean,
            r.total_mean,
        );
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

/// Renders rows as an aligned text table (the `pegasus breakdown`
/// terminal view), durations in whole seconds.
pub fn render_table(rows: &[BreakdownRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>6} {:>11} {:>9} {:>11} {:>10} {:>9} {:>11}",
        "site", "n", "tasks", "queue-wait", "install", "kickstart", "post-ovh", "badput", "total"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>6} {:>10.0}s {:>8.0}s {:>10.0}s {:>9.0}s {:>8.0}s {:>10.0}s",
            r.site,
            r.n,
            r.compute_jobs,
            r.queue_wait_mean,
            r.install_mean,
            r.kickstart_mean,
            r.post_overhead_mean,
            r.retry_badput_mean,
            r.total_mean,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::scripted::ScriptedBackend;
    use crate::engine::{Engine, EngineConfig, RetryPolicy};
    use crate::planner::{ExecutableJob, ExecutableWorkflow};

    fn wf() -> ExecutableWorkflow {
        let job =
            |id: usize, name: &str, kind: JobKind, runtime: f64, install: f64| ExecutableJob {
                id: crate::workflow::JobId::new(id),
                name: name.into(),
                transformation: name.into(),
                kind,
                args: Default::default(),
                runtime_hint: runtime,
                install_hint: install,
            };
        ExecutableWorkflow {
            name: "mini_n2".into(),
            site: "test".into(),
            jobs: vec![
                job(0, "stage_in", JobKind::StageIn, 4.0, 0.0),
                job(1, "run_cap3_0", JobKind::Compute, 10.0, 2.0),
                job(2, "run_cap3_1", JobKind::Compute, 20.0, 0.0),
            ],
            edges: vec![
                (
                    crate::workflow::JobId::new(0),
                    crate::workflow::JobId::new(1),
                ),
                (
                    crate::workflow::JobId::new(0),
                    crate::workflow::JobId::new(2),
                ),
            ],
        }
    }

    #[test]
    fn spans_decompose_a_clean_run() {
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &wf(),
            &EngineConfig::default(),
            &mut crate::engine::NoopMonitor,
        );
        assert!(run.succeeded());
        let spans: Vec<_> = job_spans(&run).collect();
        assert_eq!(spans.len(), 3);
        let s = &spans[1];
        assert!(s.completed);
        assert_eq!(s.attempts, 1);
        assert_eq!(s.install, 2.0);
        assert_eq!(s.kickstart, 10.0);
        assert_eq!(s.post_overhead, 0.0);
        assert_eq!(s.retry_badput, 0.0);
        // The span total reproduces the record's end-to-end duration.
        let t = run.records[1].times.unwrap();
        assert!((s.total() - (t.finished - t.submitted)).abs() < 1e-9);
    }

    #[test]
    fn retries_land_in_badput_and_backoff_in_post_overhead() {
        let mut be = ScriptedBackend::new();
        be.fail_plan.insert(("run_cap3_0".into(), 0));
        let cfg = EngineConfig::builder()
            .policy(RetryPolicy::exponential(3, 7.0))
            .build();
        let run = Engine::run(&mut be, &wf(), &cfg, &mut crate::engine::NoopMonitor);
        assert!(run.succeeded());
        let spans: Vec<_> = job_spans(&run).collect();
        let s = &spans[1];
        assert_eq!(s.attempts, 2);
        assert!(s.completed);
        // The failed attempt ran (install + some execution) before
        // dying: that time is badput, and the 7 s backoff shows up as
        // post-overhead.
        assert!(s.retry_badput > 0.0, "{s:?}");
        assert!(s.post_overhead > 0.0, "{s:?}");
        let t = run.records[1].times.unwrap();
        let first_submit = run
            .failures(&run.records[1])
            .next()
            .unwrap()
            .times
            .submitted;
        assert!((s.total() - (t.finished - first_submit)).abs() < 1e-9);
    }

    #[test]
    fn aggregate_filters_to_compute_jobs() {
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &wf(),
            &EngineConfig::default(),
            &mut crate::engine::NoopMonitor,
        );
        let row = from_events(&run.events).unwrap();
        assert_eq!(row.site, "test");
        assert_eq!(row.n, "2");
        assert_eq!(row.compute_jobs, 2);
        assert_eq!(row.completed, 2);
        assert!((row.kickstart_mean - 15.0).abs() < 1e-9);
        assert!((row.install_mean - 1.0).abs() < 1e-9);
        assert!(
            (row.total_mean
                - (row.queue_wait_mean
                    + row.install_mean
                    + row.kickstart_mean
                    + row.post_overhead_mean
                    + row.retry_badput_mean))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn renderings_are_stable_and_carry_the_header() {
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &wf(),
            &EngineConfig::default(),
            &mut crate::engine::NoopMonitor,
        );
        let row = from_events(&run.events).unwrap();
        let csv = render_csv(std::slice::from_ref(&row));
        assert!(csv.starts_with("site,n,compute_jobs,"), "{csv}");
        assert_eq!(csv.lines().count(), 2);
        assert_eq!(csv, render_csv(std::slice::from_ref(&row)));
        let table = render_table(&[row]);
        assert!(table.contains("kickstart"), "{table}");
        assert!(table.contains("test"), "{table}");
    }

    #[test]
    fn json_rendering_mirrors_the_csv_columns() {
        let run = Engine::run(
            &mut ScriptedBackend::new(),
            &wf(),
            &EngineConfig::default(),
            &mut crate::engine::NoopMonitor,
        );
        let row = from_events(&run.events).unwrap();
        let json = render_json(std::slice::from_ref(&row));
        // One object per row between the brackets, no trailing comma.
        assert!(json.starts_with("[\n  {\"site\":\"test\""), "{json}");
        assert!(json.ends_with("}\n]\n"), "{json}");
        for key in CSV_HEADER.split(',') {
            let key = key.trim();
            assert!(json.contains(&format!("\"{key}\":")), "{json} misses {key}");
        }
        assert!(json.contains("\"kickstart_mean_s\":15.000"), "{json}");
        assert_eq!(json, render_json(std::slice::from_ref(&row)));
        // Two rows: comma-separated lines, still balanced.
        let two = render_json(&[row.clone(), row]);
        assert_eq!(two.matches("},\n").count(), 1, "{two}");
        assert_eq!(two.matches('{').count(), 2);
        assert_eq!(two.matches('}').count(), 2);
        assert_eq!(render_json(&[]), "[\n]\n");
    }

    #[test]
    fn malformed_streams_are_rejected() {
        assert!(from_events(&[]).is_err());
    }
}
