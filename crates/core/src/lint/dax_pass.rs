//! Pass 1: DAX structural analysis.
//!
//! Runs over an [`AbstractWorkflow`] parsed with
//! [`crate::dax::from_dax_unvalidated`], so graphs that
//! [`AbstractWorkflow::validate`] would reject outright (cycles,
//! conflicting producers) can still be analyzed and reported with
//! richer context — the full cycle path, every producer conflict —
//! instead of stopping at the first typed error. Both judge the same
//! [`AbstractWorkflow::dataflow`] view, so they refuse the same
//! workflows.

use super::Diagnostic;
use crate::catalog::TransformationCatalog;
use crate::error::Span;
use crate::workflow::{AbstractWorkflow, JobId, Readers};
use std::cell::OnceCell;
use std::collections::HashMap;

/// Knobs for [`check_workflow`].
#[derive(Debug, Clone, Copy)]
pub struct DaxLintOptions<'a> {
    /// Fan-in/fan-out beyond this is reported as suspicious.  The
    /// default of 500 clears the paper's n=300 decomposition while
    /// still catching runaway generators.
    pub fan_limit: usize,
    /// The original DAX text, used to recover job spans (the abstract
    /// workflow itself carries no positions).
    pub source: Option<&'a str>,
}

impl Default for DaxLintOptions<'_> {
    fn default() -> Self {
        DaxLintOptions {
            fan_limit: 500,
            source: None,
        }
    }
}

/// Where each `id="…"` first occurs in a DAX text, found in one pass
/// (the workflow itself carries no positions). A job's span is the
/// first place the text spells `id="<job>"` — the answer a search
/// from the top gives, for every id at once.
fn id_spans(src: &str) -> HashMap<&str, Span> {
    const OPEN: &str = "id=\"";
    let mut spans = HashMap::new();
    let (mut line, mut line_start, mut scanned) = (1, 0, 0);
    for (pos, _) in src.match_indices(OPEN) {
        let value = &src[pos + OPEN.len()..];
        let Some(close) = value.find('"') else { break };
        let skipped = &src[scanned..pos];
        line += skipped.bytes().filter(|&b| b == b'\n').count();
        if let Some(newline) = skipped.rfind('\n') {
            line_start = scanned + newline + 1;
        }
        scanned = pos;
        spans
            .entry(&value[..close])
            .or_insert_with(|| Span::new(line, pos - line_start + 1));
    }
    spans
}

/// Pass 1: structural analysis of one workflow.
///
/// Emits `E0103` (cycle, with the full path), `E0104` (every
/// conflicting output declaration), `W0401` (disconnected jobs),
/// `W0402` (never-consumed intermediate outputs), `W0403`/`W0404`
/// (fan-out and fan-in beyond `opts.fan_limit`), and `W0405`
/// (transformations with no catalog entry) when a catalog is supplied.
/// What it judges is [`AbstractWorkflow::dataflow`], the view
/// [`AbstractWorkflow::validate`] judges: it reports `E0103` or
/// `E0104` exactly when `validate` refuses.
pub fn check_workflow(
    wf: &AbstractWorkflow,
    file: &str,
    catalog: Option<&TransformationCatalog>,
    opts: &DaxLintOptions<'_>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Built by the first finding: a clean workflow never scans its text.
    let spans = OnceCell::new();
    // Every finding of this pass is about one job, and points at it.
    let mut report = |code, job: JobId, message: String, help: Option<&str>| {
        let spans = spans.get_or_init(|| opts.source.map(id_spans).unwrap_or_default());
        let span = spans.get(wf.job(job).id.as_str()).copied();
        diags.push(Diagnostic {
            help: help.map(str::to_string),
            ..Diagnostic::new(code, file, span.unwrap_or_else(Span::none), message)
        });
    };

    let view = wf.dataflow();
    for &conflict in &view.conflicts {
        let message = wf.conflict_error(conflict).to_string();
        let help = "each logical file must have exactly one producer";
        report("E0104", conflict.2, message, Some(help));
    }
    if let Some(path) = view.children.cycle_path() {
        let names: Vec<&str> = path.iter().map(|&j| wf.job(j).id.as_str()).collect();
        let message = format!("workflow is not a DAG: cycle {}", names.join(" -> "));
        let help = "remove one dependency in the cycle or rename the clashing files";
        report("E0103", path[0], message, Some(help));
    }

    let indegree = view.children.reverse_degrees();
    let limit = opts.fan_limit;
    for (j, job) in wf.job_ids().zip(&wf.jobs) {
        let id = &job.id;
        let (fan_out, fan_in) = (view.children.degree(j), indegree[j.idx()] as usize);
        // W0401: no edges at all in a multi-job workflow.
        if wf.jobs.len() >= 2 && fan_out == 0 && fan_in == 0 {
            let message =
                format!("job {id:?} shares no files or edges with the rest of the workflow");
            let help = "declare its inputs/outputs or an explicit <child> edge";
            report("W0401", j, message, Some(help));
        }
        // W0402: intermediate outputs nobody reads.  Sink jobs are
        // exempt — their outputs are the workflow's final products.
        if fan_out > 0 {
            for f in wf.outputs(j).iter() {
                let consumed = view.readers[f.file.idx()] == Readers::AnotherJob;
                if !consumed && view.producer[f.file.idx()] == Some(j) {
                    let message =
                        format!("output {:?} of job {id:?} is consumed by no job", f.name);
                    let help = "drop the declaration or add the missing consumer";
                    report("W0402", j, message, Some(help));
                }
            }
        }
        if fan_out > limit {
            let message = format!("job {id:?} fans out to {fan_out} children (limit {limit})");
            report("W0403", j, message, None);
        }
        if fan_in > limit {
            let message = format!("job {id:?} fans in from {fan_in} parents (limit {limit})");
            report("W0404", j, message, None);
        }
        if catalog.is_some_and(|tc| tc.get(&job.transformation).is_none()) {
            let message = format!(
                "job {id:?} uses transformation {:?} with no transformation-catalog entry",
                job.transformation
            );
            let help = "the planner will treat it as a plain binary with nothing to install";
            report("W0405", j, message, Some(help));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::paper_catalogs;
    use crate::dax::from_dax_unvalidated;
    use crate::workflow::declare_job;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_pipeline_is_clean() {
        let mut wf = AbstractWorkflow::new("w");
        declare_job(&mut wf, "split", "split", 1.0, &[("in", 0)], &[("mid", 0)]);
        declare_job(&mut wf, "merge", "merge", 1.0, &[("mid", 0)], &[("out", 0)]);
        let (_, tc) = paper_catalogs();
        let diags = check_workflow(&wf, "w.dax", Some(&tc), &DaxLintOptions::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cycle_reports_the_full_path() {
        let text = "<adag name=\"w\">\
                    <job id=\"a\" name=\"split\"/><job id=\"b\" name=\"merge\"/><job id=\"c\" name=\"split\"/>\
                    <child ref=\"b\"><parent ref=\"a\"/></child>\
                    <child ref=\"c\"><parent ref=\"b\"/></child>\
                    <child ref=\"a\"><parent ref=\"c\"/></child>\
                    </adag>";
        let wf = from_dax_unvalidated(text).unwrap();
        let diags = check_workflow(&wf, "w.dax", None, &DaxLintOptions::default());
        assert_eq!(codes(&diags), ["E0103"]);
        assert!(
            diags[0].message.contains("a -> b -> c -> a"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn every_producer_conflict_is_reported() {
        let mut wf = AbstractWorkflow::new("w");
        for id in ["a", "b", "c"] {
            declare_job(&mut wf, id, "t", 1.0, &[], &[("f", 0)]);
        }
        let diags = check_workflow(&wf, "w.dax", None, &DaxLintOptions::default());
        let conflicts = diags.iter().filter(|d| d.code == "E0104").count();
        assert_eq!(conflicts, 2);
    }

    #[test]
    fn disconnected_and_unconsumed_are_flagged() {
        let mut wf = AbstractWorkflow::new("w");
        declare_job(&mut wf, "a", "t", 1.0, &[], &[("mid", 0), ("scratch", 0)]);
        declare_job(&mut wf, "b", "t", 1.0, &[("mid", 0)], &[]);
        declare_job(&mut wf, "loner", "t", 1.0, &[], &[]);
        let diags = check_workflow(&wf, "w.dax", None, &DaxLintOptions::default());
        assert_eq!(codes(&diags), ["W0402", "W0401"]);
        assert!(diags[0].message.contains("scratch"));
        assert!(diags[1].message.contains("loner"));
    }

    #[test]
    fn sink_outputs_are_not_orphans() {
        let mut wf = AbstractWorkflow::new("w");
        declare_job(&mut wf, "a", "t", 1.0, &[], &[("final", 0)]);
        let diags = check_workflow(&wf, "w.dax", None, &DaxLintOptions::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn fan_limits_fire_in_both_directions() {
        let mut wf = AbstractWorkflow::new("w");
        declare_job(&mut wf, "hub", "t", 1.0, &[], &[("f", 0)]);
        let outs: Vec<String> = (0..5).map(|i| format!("o{i}")).collect();
        for (i, out) in outs.iter().enumerate() {
            declare_job(
                &mut wf,
                &format!("c{i}"),
                "t",
                1.0,
                &[("f", 0)],
                &[(out, 0)],
            );
        }
        let sink: Vec<(&str, u64)> = outs.iter().map(|o| (o.as_str(), 0)).collect();
        declare_job(&mut wf, "sink", "t", 1.0, &sink, &[]);
        let opts = DaxLintOptions {
            fan_limit: 4,
            ..Default::default()
        };
        let diags = check_workflow(&wf, "w.dax", None, &opts);
        assert_eq!(codes(&diags), ["W0403", "W0404"]);
        // The paper's n=300 split clears the default limit.
        assert!(check_workflow(&wf, "w.dax", None, &DaxLintOptions::default()).is_empty());
    }

    #[test]
    fn unknown_transformation_warns_with_spans() {
        let text = "<adag name=\"w\">\n  <job id=\"a\" name=\"frobnicate\"/>\n</adag>";
        let wf = from_dax_unvalidated(text).unwrap();
        let (_, tc) = paper_catalogs();
        let opts = DaxLintOptions {
            source: Some(text),
            ..Default::default()
        };
        let diags = check_workflow(&wf, "w.dax", Some(&tc), &opts);
        assert_eq!(codes(&diags), ["W0405"]);
        assert_eq!(diags[0].span, Span::new(2, 8));
    }
}
