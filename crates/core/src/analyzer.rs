//! Post-mortem analysis — the `pegasus-analyzer` equivalent.
//!
//! After a (possibly failed) run, the analyzer summarises what went
//! wrong: which jobs exhausted their retries and why, which never ran
//! because an ancestor failed, how much time was burnt in failed
//! attempts, and what to do next (resubmit with the rescue DAG, raise
//! the retry budget, avoid the site). The paper's §VI-A discussion of
//! OSG failures and retries is exactly the situation this tool exists
//! for.

use crate::engine::{FaultReason, JobState, WorkflowRun};
use crate::symbols::Name;
use std::collections::BTreeMap;

/// Analysis of one failed job.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FailedJobReport {
    /// Job display name.
    pub(crate) name: Name,
    /// Transformation name.
    pub(crate) transformation: Name,
    /// Attempts consumed.
    pub(crate) attempts: u32,
    /// Distinct failure reasons with occurrence counts, sorted by
    /// reason.
    pub(crate) reasons: Vec<(Name, usize)>,
    /// Distinct typed failure categories, sorted.
    pub(crate) kinds: Vec<FaultReason>,
    /// Seconds burnt across the failed attempts.
    pub(crate) badput: f64,
}

/// The full analysis of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Workflow name.
    pub(crate) workflow: String,
    /// Site the run targeted.
    pub(crate) site: String,
    /// Whether the run succeeded.
    pub(crate) succeeded: bool,
    /// Jobs that completed (including rescue-skipped).
    pub(crate) done: usize,
    /// Jobs that exhausted retries, with details.
    pub(crate) failed: Vec<FailedJobReport>,
    /// Jobs that never became ready.
    pub(crate) unready: Vec<Name>,
    /// Transient failures that retries absorbed: (job name, attempts).
    pub(crate) recovered: Vec<(Name, u32)>,
    /// Fraction of jobs already complete (useful before a rescue
    /// resubmission).
    pub(crate) completion_fraction: f64,
}

impl Analysis {
    /// Actionable suggestions derived from the failure pattern.
    pub(crate) fn suggestions(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.succeeded {
            if !self.recovered.is_empty() {
                out.push(format!(
                    "{} job(s) needed retries; the site is flaky but the retry budget held",
                    self.recovered.len()
                ));
            }
            return out;
        }
        out.push(format!(
            "resubmit with the rescue DAG: {:.0}% of the workflow is already complete",
            100.0 * self.completion_fraction
        ));
        let preempted = self.failed.iter().any(|f| {
            f.kinds
                .iter()
                .any(|k| matches!(k, FaultReason::Preemption | FaultReason::Eviction))
        });
        if preempted {
            out.push(
                "failures are preemptions: raise the retry budget or move to a dedicated site"
                    .to_string(),
            );
        }
        if self
            .failed
            .iter()
            .any(|f| f.kinds.contains(&FaultReason::InstallFailure))
        {
            out.push(
                "install phases failed: pre-stage the software so compute jobs skip the download-and-install step"
                    .to_string(),
            );
        }
        if self
            .failed
            .iter()
            .any(|f| f.kinds.contains(&FaultReason::Timeout))
        {
            out.push("jobs hit the walltime cap: raise the timeout or split the task".to_string());
        }
        if self.failed.iter().any(|f| f.attempts == 1) {
            out.push("some jobs were never retried: set max_retries > 0".to_string());
        }
        out
    }

    /// Renders a pegasus-analyzer-style text report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# pegasus-analyzer: {} @ {}", self.workflow, self.site);
        let _ = writeln!(
            out,
            "status: {}",
            if self.succeeded { "SUCCESS" } else { "FAILED" }
        );
        let _ = writeln!(
            out,
            "jobs: {} done, {} failed, {} never ran ({:.0}% complete)",
            self.done,
            self.failed.len(),
            self.unready.len(),
            100.0 * self.completion_fraction
        );
        for f in &self.failed {
            let _ = writeln!(
                out,
                "\nFAILED {} ({}) after {} attempt(s), {:.1}s badput",
                f.name, f.transformation, f.attempts, f.badput
            );
            for (reason, count) in &f.reasons {
                let _ = writeln!(out, "    {count}x {reason}");
            }
        }
        if !self.unready.is_empty() {
            let _ = writeln!(out, "\nnever ran: {}", self.unready.join(", "));
        }
        for s in self.suggestions() {
            let _ = writeln!(out, "hint: {s}");
        }
        out
    }
}

/// Analyses a run.
pub fn analyze(run: &WorkflowRun) -> Analysis {
    let mut failed = Vec::new();
    let mut unready = Vec::new();
    let mut recovered = Vec::new();
    let mut done = 0usize;
    for rec in &run.records {
        match rec.state {
            JobState::Done | JobState::SkippedDone => {
                done += 1;
                if rec.attempts > 1 {
                    recovered.push((rec.name.clone(), rec.attempts));
                }
            }
            JobState::Failed => {
                let mut reasons: BTreeMap<Name, usize> = BTreeMap::new();
                for f in run.failures(rec) {
                    *reasons.entry(f.detail.clone()).or_insert(0) += 1;
                }
                let mut kinds: Vec<FaultReason> = run.failures(rec).map(|f| f.reason).collect();
                kinds.sort();
                kinds.dedup();
                failed.push(FailedJobReport {
                    name: rec.name.clone(),
                    transformation: rec.transformation.clone(),
                    attempts: rec.attempts,
                    reasons: reasons.into_iter().collect(),
                    kinds,
                    badput: run.failures(rec).map(|f| f.times.total()).sum(),
                });
            }
            JobState::Unready => unready.push(rec.name.clone()),
        }
    }
    let total = run.records.len().max(1);
    Analysis {
        workflow: run.name.clone(),
        site: run.site.clone(),
        succeeded: run.succeeded(),
        done,
        failed,
        unready,
        recovered,
        completion_fraction: done as f64 / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FailedAttempt, FailureChain, JobRecord, JobTimes};
    use crate::planner::JobKind;
    use crate::workflow::JobId;

    fn times(total: f64) -> JobTimes {
        JobTimes {
            submitted: 0.0,
            started: 0.0,
            install_done: 0.0,
            finished: total,
        }
    }

    fn failure(total: f64, reason: FaultReason, detail: &str) -> FailedAttempt {
        FailedAttempt {
            attempt: 0,
            times: times(total),
            reason,
            detail: detail.into(),
        }
    }

    fn record(name: &str, state: JobState, attempts: u32) -> JobRecord {
        JobRecord {
            name: name.into(),
            transformation: "t".into(),
            kind: JobKind::Compute,
            state,
            attempts,
            times: (state == JobState::Done).then(|| times(5.0)),
            failures: FailureChain::NONE,
        }
    }

    fn failed_run() -> WorkflowRun {
        let bad = record("bad", JobState::Failed, 3);
        let mut run = WorkflowRun {
            name: "wf".into(),
            site: "osg".into(),
            wall_time: 100.0,
            records: vec![
                record("ok", JobState::Done, 1),
                bad,
                record("never", JobState::Unready, 0),
                record("flaky_but_fine", JobState::Done, 2),
            ],
            ..Default::default()
        };
        for failure in [
            failure(10.0, FaultReason::Preemption, "preempted"),
            failure(20.0, FaultReason::Preemption, "preempted"),
            failure(5.0, FaultReason::Other, "node vanished"),
        ] {
            run.push_failure(JobId::new(1), failure);
        }
        run
    }

    #[test]
    fn analysis_classifies_jobs() {
        let a = analyze(&failed_run());
        assert!(!a.succeeded);
        assert_eq!(a.done, 2);
        assert_eq!(a.failed.len(), 1);
        assert_eq!(a.unready, vec!["never"]);
        assert_eq!(a.recovered, vec![("flaky_but_fine".into(), 2)]);
        assert!((a.completion_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failure_details_are_aggregated() {
        let a = analyze(&failed_run());
        let f = &a.failed[0];
        assert_eq!(f.attempts, 3);
        assert_eq!(
            f.reasons,
            vec![("node vanished".into(), 1), ("preempted".into(), 2)]
        );
        assert_eq!(f.badput, 35.0);
        assert_eq!(f.kinds, vec![FaultReason::Preemption, FaultReason::Other]);
    }

    #[test]
    fn typed_kinds_drive_suggestions_even_with_opaque_wire_text() {
        // The wire string need not mention "preempt" — the enum does.
        let bad = record("bad", JobState::Failed, 2);
        let mut run = WorkflowRun {
            name: "wf".into(),
            site: "osg".into(),
            wall_time: 50.0,
            records: vec![record("ok", JobState::Done, 1), bad],
            ..Default::default()
        };
        for total in [10.0, 5.0] {
            let failure = failure(total, FaultReason::Preemption, "slot reclaimed by owner");
            run.push_failure(JobId::new(1), failure);
        }
        let text = analyze(&run).suggestions().join("\n");
        assert!(text.contains("preemptions"), "{text}");
    }

    #[test]
    fn suggestions_mention_rescue_and_preemption() {
        let a = analyze(&failed_run());
        let text = a.suggestions().join("\n");
        assert!(text.contains("rescue"), "{text}");
        assert!(text.contains("preempt"), "{text}");
    }

    #[test]
    fn successful_run_with_retries_notes_flakiness() {
        let run = WorkflowRun {
            name: "wf".into(),
            site: "osg".into(),
            succeeded: true,
            wall_time: 10.0,
            records: vec![record("flaky", JobState::Done, 4)],
            ..Default::default()
        };
        let a = analyze(&run);
        assert!(a.succeeded);
        let s = a.suggestions();
        assert_eq!(s.len(), 1);
        assert!(s[0].contains("retries"));
    }

    #[test]
    fn report_text_mentions_everything() {
        let text = analyze(&failed_run()).render_text();
        assert!(text.contains("FAILED bad"));
        assert!(text.contains("2x preempted"));
        assert!(text.contains("never ran: never"));
        assert!(text.contains("hint:"));
        assert!(text.contains("50% complete"));
    }

    #[test]
    fn clean_success_has_no_suggestions() {
        let run = WorkflowRun {
            name: "wf".into(),
            site: "sandhills".into(),
            succeeded: true,
            wall_time: 10.0,
            records: vec![record("a", JobState::Done, 1)],
            ..Default::default()
        };
        let a = analyze(&run);
        assert!(a.suggestions().is_empty());
        assert!(a.render_text().contains("SUCCESS"));
    }
}
