//! Rescue DAGs.
//!
//! When a Pegasus workflow fails, DAGMan leaves behind a *rescue file*
//! marking every node that already completed; resubmitting the
//! workflow with the rescue file skips that work. The paper relies on
//! this on OSG, where job preemption makes partial failures routine.
//!
//! The text format here mirrors DAGMan's rescue files: a header, then
//! one `DONE <job-name>` line per completed node.

use crate::engine::{JobState, WorkflowRun};
use crate::error::{Format, Span, WmsError};
use crate::line::{self, Value};
use crate::symbols::Name;

/// The re-submittable remainder of a partially executed workflow.
///
/// ```
/// use pegasus_wms::rescue::RescueDag;
///
/// let rescue = RescueDag {
///     workflow_name: "blast2cap3".into(),
///     site: "osg".into(),
///     done: vec!["split".into(), "run_cap3_0".into()],
/// };
/// let text = rescue.to_text();
/// assert!(text.contains("DONE split"));
/// assert_eq!(RescueDag::from_text(&text).unwrap(), rescue);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RescueDag {
    /// Name of the workflow the rescue belongs to.
    pub workflow_name: String,
    /// Site the failed run targeted.
    pub site: String,
    /// Names of jobs that completed successfully.
    pub done: Vec<Name>,
}

impl RescueDag {
    /// The rescue DAG of `run`: its name and site, and every job its
    /// records hold done or skipped as done, in job order. A failed
    /// run resubmits with it; a successful one lists every job.
    pub fn of(run: &WorkflowRun) -> RescueDag {
        let done = run.records.iter();
        let done = done.filter(|r| matches!(r.state, JobState::Done | JobState::SkippedDone));
        RescueDag {
            workflow_name: run.name.clone(),
            site: run.site.clone(),
            done: done.map(|r| r.name.clone()).collect(),
        }
    }

    /// Fraction of `total_jobs` already completed.
    pub fn completion_fraction(&self, total_jobs: usize) -> f64 {
        if total_jobs == 0 {
            return 1.0;
        }
        self.done.len() as f64 / total_jobs as f64
    }

    /// Serializes to the DAGMan-style rescue text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# Rescue DAG (DAGMan-style)\n");
        out.push_str(&format!("WORKFLOW {}\n", self.workflow_name));
        out.push_str(&format!("SITE {}\n", self.site));
        out.push_str(&format!("TOTAL_DONE {}\n", self.done.len()));
        for name in &self.done {
            out.push_str(&format!("DONE {name}\n"));
        }
        out
    }

    /// Parses the rescue text format: [`line::lines`] keywords, each
    /// line's `rest` its one value.
    pub fn from_text(text: &str) -> Result<RescueDag, WmsError> {
        let mut rescue = RescueDag::default();
        let mut declared: Option<usize> = None;
        for line in line::lines(text) {
            let err = |reason: String| Format::Rescue.at(line.number, reason);
            let rest = line.rest;
            match line.keyword {
                "WORKFLOW" => rescue.workflow_name = rest.to_string(),
                "SITE" => rescue.site = rest.to_string(),
                "TOTAL_DONE" => {
                    let bad = || err(format!("bad TOTAL_DONE value {rest:?}"));
                    declared = Some(usize::read(rest).ok_or_else(bad)?)
                }
                "DONE" => {
                    if rest.is_empty() {
                        return Err(err("DONE with no job name".into()));
                    }
                    rescue.done.push(rest.into());
                }
                other => return Err(err(format!("unknown keyword {other:?}"))),
            }
        }
        if let Some(n) = declared {
            if n != rescue.done.len() {
                let reason = format!(
                    "TOTAL_DONE {n} does not match {} DONE lines",
                    rescue.done.len()
                );
                return Err(Format::Rescue.error(Span::none(), reason));
            }
        }
        Ok(rescue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RescueDag {
        RescueDag {
            workflow_name: "blast2cap3".into(),
            site: "osg".into(),
            done: vec!["create_dir_osg".into(), "stage_in_alignments.out".into()],
        }
    }

    #[test]
    fn round_trip() {
        let r = sample();
        let text = r.to_text();
        assert!(text.contains("DONE create_dir_osg"));
        let back = RescueDag::from_text(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn completion_fraction() {
        let r = sample();
        assert!((r.completion_fraction(4) - 0.5).abs() < 1e-12);
        assert_eq!(r.completion_fraction(0), 1.0);
    }

    #[test]
    fn blank_lines_and_comments_tolerated() {
        let text = "# comment\n\nWORKFLOW w\nSITE s\nDONE a\n\n# trailing\n";
        let r = RescueDag::from_text(text).unwrap();
        assert_eq!(r.done, vec!["a"]);
        assert_eq!(r.workflow_name, "w");
    }

    #[test]
    fn job_names_with_spaces_survive() {
        let mut r = sample();
        r.done.push("stage_in_my file.txt".into());
        let back = RescueDag::from_text(&r.to_text()).unwrap();
        assert_eq!(back.done.last().unwrap(), "stage_in_my file.txt");
        // Only ASCII whitespace separates or trims, as in every line
        // format: a no-break space is part of the name.
        let back = RescueDag::from_text("DONE \u{a0}a b\u{a0}\t\n").unwrap();
        assert_eq!(back.done, vec!["\u{a0}a b\u{a0}"]);
    }

    #[test]
    fn mismatched_total_is_rejected() {
        let text = "WORKFLOW w\nTOTAL_DONE 3\nDONE a\n";
        assert!(RescueDag::from_text(text).is_err());
    }

    #[test]
    fn unknown_keyword_is_rejected() {
        let err = RescueDag::from_text("FROBNICATE yes\n").unwrap_err();
        assert!(err.to_string().contains("FROBNICATE"));
    }

    #[test]
    fn empty_done_line_is_rejected() {
        assert!(RescueDag::from_text("DONE \n").is_err());
        assert!(RescueDag::from_text("DONE\n").is_err());
    }
}
