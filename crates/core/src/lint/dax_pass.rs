//! Pass 1: DAX structural analysis.
//!
//! Runs over an [`AbstractWorkflow`] parsed with
//! [`crate::dax::from_dax_unvalidated`], so graphs that
//! [`AbstractWorkflow::validate`] would reject outright (cycles,
//! conflicting producers) can still be analyzed and reported with
//! richer context — the full cycle path, every producer conflict —
//! instead of stopping at the first typed error.

use super::Diagnostic;
use crate::catalog::TransformationCatalog;
use crate::error::Span;
use crate::workflow::{AbstractWorkflow, JobId};
use std::collections::{BTreeMap, BTreeSet};

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

/// Position of `id="<job>"` in the DAX text, if findable.
fn job_span(source: Option<&str>, id: &str) -> Span {
    let Some(src) = source else {
        return Span::none();
    };
    let needle = format!("id=\"{id}\"");
    let Some(pos) = src.find(&needle) else {
        return Span::none();
    };
    let before = &src[..pos];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = pos - before.rfind('\n').map(|i| i + 1).unwrap_or(0) + 1;
    Span::new(line, col)
}

/// Finds one cycle in `adj` and returns its full path
/// `[v, ..., u, v]`, or `None` when the graph is a DAG.
fn find_cycle(n: usize, adj: &[BTreeSet<usize>]) -> Option<Vec<usize>> {
    let adjv: Vec<Vec<usize>> = adj.iter().map(|s| s.iter().copied().collect()).collect();
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        color[start] = 1;
        // Iterative DFS (lint must not overflow the stack on
        // adversarial inputs); frames are (node, next edge index).
        let mut stack = vec![(start, 0usize)];
        while let Some(&(u, i)) = stack.last() {
            if let Some(&v) = adjv[u].get(i) {
                stack.last_mut().expect("nonempty").1 += 1;
                if color[v] == 0 {
                    color[v] = 1;
                    parent[v] = u;
                    stack.push((v, 0));
                } else if color[v] == 1 {
                    // Back edge u -> v: reconstruct v -> ... -> u -> v.
                    let mut path = vec![u];
                    let mut x = u;
                    while x != v {
                        x = parent[x];
                        path.push(x);
                    }
                    path.reverse();
                    path.push(v);
                    return Some(path);
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// Pass 1: structural analysis of one workflow.
///
/// Emits `E0103` (cycle, with the full path), `E0104` (every
/// conflicting-producer pair), `W0401` (disconnected jobs), `W0402`
/// (never-consumed intermediate outputs), `W0403`/`W0404` (fan-out and
/// fan-in beyond `opts.fan_limit`), and `W0405` (transformations with
/// no catalog entry) when a catalog is supplied.
pub fn check_workflow(
    wf: &AbstractWorkflow,
    file: &str,
    catalog: Option<&TransformationCatalog>,
    opts: &DaxLintOptions<'_>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = wf.jobs.len();
    let span = |id: &str| job_span(opts.source, id);

    // Producers and consumers of every logical file; conflicts are
    // reported (all of them) and the first producer wins for edges,
    // matching AbstractWorkflow::edges.
    let mut producer: BTreeMap<&str, usize> = BTreeMap::new();
    let mut consumers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for j in 0..n {
        for f in wf.outputs(JobId::new(j)).iter() {
            match producer.get(f.name) {
                None => {
                    producer.insert(f.name, j);
                }
                Some(&first) if first != j => {
                    diags.push(
                        Diagnostic::new(
                            "E0104",
                            file,
                            span(&wf.jobs[j].id),
                            format!(
                                "logical file {:?} produced by both {:?} and {:?}",
                                f.name, wf.jobs[first].id, wf.jobs[j].id
                            ),
                        )
                        .with_help("each logical file must have exactly one producer"),
                    );
                }
                Some(_) => {}
            }
        }
        for f in wf.inputs(JobId::new(j)).iter() {
            consumers.entry(f.name).or_default().push(j);
        }
    }

    // Combined dependency graph: dataflow plus explicit edges.
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (&f, cs) in &consumers {
        if let Some(&p) = producer.get(f) {
            for &c in cs {
                if p != c {
                    adj[p].insert(c);
                }
            }
        }
    }
    let mut self_loop = None;
    for &(p, c) in &wf.explicit_edges {
        if p == c {
            self_loop = Some(p);
        } else if p.idx() < n && c.idx() < n {
            adj[p.idx()].insert(c.idx());
        }
    }

    if let Some(j) = self_loop {
        diags.push(Diagnostic::new(
            "E0103",
            file,
            span(&wf.jobs[j.idx()].id),
            format!(
                "workflow is not a DAG: cycle {} -> {}",
                wf.jobs[j.idx()].id,
                wf.jobs[j.idx()].id
            ),
        ));
    } else if let Some(path) = find_cycle(n, &adj) {
        let names: Vec<&str> = path.iter().map(|&j| wf.jobs[j].id.as_str()).collect();
        diags.push(
            Diagnostic::new(
                "E0103",
                file,
                span(names[0]),
                format!("workflow is not a DAG: cycle {}", names.join(" -> ")),
            )
            .with_help("remove one dependency in the cycle or rename the clashing files"),
        );
    }

    let mut indegree = vec![0usize; n];
    for children in &adj {
        for &c in children {
            indegree[c] += 1;
        }
    }

    for (j, job) in wf.jobs.iter().enumerate() {
        // W0401: no edges at all in a multi-job workflow.
        if n >= 2 && adj[j].is_empty() && indegree[j] == 0 {
            diags.push(
                Diagnostic::new(
                    "W0401",
                    file,
                    span(&job.id),
                    format!(
                        "job {:?} shares no files or edges with the rest of the workflow",
                        job.id
                    ),
                )
                .with_help("declare its inputs/outputs or an explicit <child> edge"),
            );
        }
        // W0402: intermediate outputs nobody reads.  Sink jobs are
        // exempt — their outputs are the workflow's final products.
        if !adj[j].is_empty() {
            for f in wf.outputs(JobId::new(j)).iter() {
                let consumed = consumers
                    .get(f.name)
                    .is_some_and(|cs| cs.iter().any(|&c| c != j));
                if !consumed && producer.get(f.name) == Some(&j) {
                    diags.push(
                        Diagnostic::new(
                            "W0402",
                            file,
                            span(&job.id),
                            format!(
                                "output {:?} of job {:?} is consumed by no job",
                                f.name, job.id
                            ),
                        )
                        .with_help("drop the declaration or add the missing consumer"),
                    );
                }
            }
        }
        if adj[j].len() > opts.fan_limit {
            diags.push(Diagnostic::new(
                "W0403",
                file,
                span(&job.id),
                format!(
                    "job {:?} fans out to {} children (limit {})",
                    job.id,
                    adj[j].len(),
                    opts.fan_limit
                ),
            ));
        }
        if indegree[j] > opts.fan_limit {
            diags.push(Diagnostic::new(
                "W0404",
                file,
                span(&job.id),
                format!(
                    "job {:?} fans in from {} parents (limit {})",
                    job.id, indegree[j], opts.fan_limit
                ),
            ));
        }
        if let Some(tc) = catalog {
            if tc.get(&job.transformation).is_none() {
                diags.push(
                    Diagnostic::new(
                        "W0405",
                        file,
                        span(&job.id),
                        format!(
                            "job {:?} uses transformation {:?} with no transformation-catalog entry",
                            job.id, job.transformation
                        ),
                    )
                    .with_help(
                        "the planner will treat it as a plain binary with nothing to install",
                    ),
                );
            }
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::paper_catalogs;
    use crate::dax::from_dax_unvalidated;
    use crate::workflow::{Job, LogicalFile};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_pipeline_is_clean() {
        let mut wf = AbstractWorkflow::new("w");
        wf.add_job(
            Job::new("split", "split")
                .input(LogicalFile::named("in"))
                .output(LogicalFile::named("mid")),
        )
        .unwrap();
        wf.add_job(
            Job::new("merge", "merge")
                .input(LogicalFile::named("mid"))
                .output(LogicalFile::named("out")),
        )
        .unwrap();
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
            wf.add_job(Job::new(id, "t").output(LogicalFile::named("f")))
                .unwrap();
        }
        let diags = check_workflow(&wf, "w.dax", None, &DaxLintOptions::default());
        let conflicts = diags.iter().filter(|d| d.code == "E0104").count();
        assert_eq!(conflicts, 2);
    }

    #[test]
    fn disconnected_and_unconsumed_are_flagged() {
        let mut wf = AbstractWorkflow::new("w");
        wf.add_job(
            Job::new("a", "t")
                .output(LogicalFile::named("mid"))
                .output(LogicalFile::named("scratch")),
        )
        .unwrap();
        wf.add_job(Job::new("b", "t").input(LogicalFile::named("mid")))
            .unwrap();
        wf.add_job(Job::new("loner", "t")).unwrap();
        let diags = check_workflow(&wf, "w.dax", None, &DaxLintOptions::default());
        assert_eq!(codes(&diags), ["W0402", "W0401"]);
        assert!(diags[0].message.contains("scratch"));
        assert!(diags[1].message.contains("loner"));
    }

    #[test]
    fn sink_outputs_are_not_orphans() {
        let mut wf = AbstractWorkflow::new("w");
        wf.add_job(Job::new("a", "t").output(LogicalFile::named("final")))
            .unwrap();
        let diags = check_workflow(&wf, "w.dax", None, &DaxLintOptions::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn fan_limits_fire_in_both_directions() {
        let mut wf = AbstractWorkflow::new("w");
        wf.add_job(Job::new("hub", "t").output(LogicalFile::named("f")))
            .unwrap();
        for i in 0..5 {
            wf.add_job(
                Job::new(format!("c{i}"), "t")
                    .input(LogicalFile::named("f"))
                    .output(LogicalFile::named(format!("o{i}"))),
            )
            .unwrap();
        }
        wf.add_job({
            let mut j = Job::new("sink", "t");
            for i in 0..5 {
                j = j.input(LogicalFile::named(format!("o{i}")));
            }
            j
        })
        .unwrap();
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
