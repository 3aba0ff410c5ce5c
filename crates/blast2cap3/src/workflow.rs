//! The blast2cap3 abstract workflow — the paper's Fig. 2 DAG.
//!
//! Job shape, for `n` clusters of transcripts:
//!
//! ```text
//! transcripts.fasta → list_transcripts ─┐            alignments.out
//!                                       │                  │
//!                                       │           list_alignments
//!                                       │                  │
//!                                       │               split (n)
//!                                       │       ┌─────┬────┴────┬──────┐
//!                                       ├──► run_cap3_0 ... run_cap3_n-1
//!                                       │       └─────┴────┬────┴──────┘
//!                                       │                merge
//!                                       └────────► extract_unjoined
//!                                                          │
//!                                                     final.fasta
//! ```
//!
//! The OSG variant (Fig. 3) is *not* built here: the paper derives it
//! by decorating every task with download/install steps, and in this
//! repository that decoration is the planner's job (the site catalog
//! says OSG lacks the software; `pegasus_wms::planner::plan` attaches
//! the install phases).

use pegasus_wms::symbols::Name;
use pegasus_wms::workflow::{AbstractWorkflow, Job, LogicalFile};
use std::fmt::Write as _;

/// Parameters for workflow construction.
#[derive(Debug, Clone)]
pub struct WorkflowParams {
    /// The paper's `n`: how many cluster groups `split` emits and how
    /// many `run_cap3` tasks run in parallel.
    pub n_clusters: usize,
    /// Size of `transcripts.fasta` in bytes (the paper's is 404 MB).
    pub transcripts_bytes: u64,
    /// Size of `alignments.out` in bytes (the paper's is 155 MB).
    pub alignments_bytes: u64,
    /// Estimated runtime of each `run_cap3` chunk, in reference
    /// seconds. Length must be `n_clusters` (or empty to default
    /// every chunk to `default_chunk_seconds`).
    pub chunk_costs: Vec<f64>,
    /// Fallback per-chunk cost when `chunk_costs` is empty.
    pub default_chunk_seconds: f64,
}

impl Default for WorkflowParams {
    fn default() -> Self {
        WorkflowParams {
            n_clusters: 300,
            transcripts_bytes: 404_000_000,
            alignments_bytes: 155_000_000,
            chunk_costs: Vec::new(),
            default_chunk_seconds: 1_200.0,
        }
    }
}

impl WorkflowParams {
    /// Paper-shaped parameters for a given `n`.
    pub fn with_n(n_clusters: usize) -> Self {
        WorkflowParams {
            n_clusters,
            ..Default::default()
        }
    }

    /// Sets calibrated per-chunk costs.
    ///
    /// # Panics
    /// Panics if `costs.len() != n_clusters`.
    pub fn with_chunk_costs(mut self, costs: Vec<f64>) -> Self {
        assert_eq!(
            costs.len(),
            self.n_clusters,
            "need one cost per run_cap3 chunk"
        );
        self.chunk_costs = costs;
        self
    }
}

/// Expected job count of the Fig. 2 DAG for a given `n`:
/// 2 list tasks + split + n × run_cap3 + merge + extract_unjoined.
pub fn fig2_job_count(n: usize) -> usize {
    n + 5
}

/// Builds the Fig. 2 abstract workflow.
pub fn build_workflow(params: &WorkflowParams) -> AbstractWorkflow {
    let n = params.n_clusters.max(1);
    let mut wf = AbstractWorkflow::new(format!("blast2cap3_n{n}"));
    // Jobs are collected and added as one batch: `add_jobs` checks the
    // whole batch against a single hash set, so building at n = 10^6
    // stays linear where per-job `add_job` scans would be quadratic.
    let mut batch = Vec::with_capacity(fig2_job_count(n));

    batch.push(
        Job::new("list_transcripts", "list_transcripts")
            .arg("transcripts.fasta")
            .input(LogicalFile::sized(
                "transcripts.fasta",
                params.transcripts_bytes,
            ))
            .output(LogicalFile::sized(
                "transcripts_dict.txt",
                params.transcripts_bytes,
            ))
            .runtime(120.0),
    );

    batch.push(
        Job::new("list_alignments", "list_alignments")
            .arg("alignments.out")
            .input(LogicalFile::sized(
                "alignments.out",
                params.alignments_bytes,
            ))
            .output(LogicalFile::sized(
                "alignments_list.txt",
                params.alignments_bytes,
            ))
            .runtime(90.0),
    );

    // A generator is where names are allocated: each is made once —
    // formatted into a reused buffer, so without a throw-away
    // `String` — and its producer and consumers share the handle.
    let mut text = String::new();
    let mut name = |args: std::fmt::Arguments<'_>| {
        text.clear();
        text.write_fmt(args).expect("writing to a String");
        Name::from(text.as_str())
    };
    let (dash_n, count) = (Name::from("-n"), name(format_args!("{n}")));
    let run_cap3 = Name::from("run_cap3");
    let dict = LogicalFile::sized("transcripts_dict.txt", params.transcripts_bytes);

    let mut split = Job::new("split", "split")
        .arg(dash_n.clone())
        .arg(count.clone())
        .input(LogicalFile::sized(
            "alignments_list.txt",
            params.alignments_bytes,
        ))
        .runtime(60.0);
    let mut merge = Job::new("merge", "merge")
        .arg(dash_n)
        .arg(count)
        .output(LogicalFile::named("joined_all.fasta"))
        .output(LogicalFile::named("joined_ids_all.txt"))
        .runtime(30.0);
    split.outputs.reserve(n);
    merge.inputs.reserve(2 * n);
    let mut chunks = Vec::with_capacity(n);
    for i in 0..n {
        let cost = params
            .chunk_costs
            .get(i)
            .copied()
            .unwrap_or(params.default_chunk_seconds);
        let protein = LogicalFile::named(name(format_args!("protein_{i}.txt")));
        let joined = LogicalFile::named(name(format_args!("joined_{i}.fasta")));
        let joined_ids = LogicalFile::named(name(format_args!("joined_ids_{i}.txt")));
        split = split.output(protein.clone());
        merge = merge.input(joined.clone()).input(joined_ids.clone());
        chunks.push(
            Job::new(name(format_args!("run_cap3_{i}")), run_cap3.clone())
                .arg(name(format_args!("{i}")))
                .input(dict.clone())
                .input(protein)
                .output(joined)
                .output(joined_ids)
                .runtime(cost),
        );
    }
    batch.push(split);
    batch.append(&mut chunks);
    batch.push(merge);

    batch.push(
        Job::new("extract_unjoined", "extract_unjoined")
            .input(dict)
            .input(LogicalFile::named("joined_all.fasta"))
            .input(LogicalFile::named("joined_ids_all.txt"))
            .output(LogicalFile::named("final.fasta"))
            .runtime(45.0),
    );

    wf.add_jobs(batch).expect("fresh workflow");

    debug_assert!(wf.validate().is_ok());
    wf
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_wms::dax;

    #[test]
    fn job_count_matches_fig2() {
        for n in [1usize, 10, 100, 300, 500] {
            let wf = build_workflow(&WorkflowParams::with_n(n));
            assert_eq!(wf.jobs.len(), fig2_job_count(n), "n={n}");
            wf.validate().unwrap();
        }
    }

    #[test]
    fn dag_shape_matches_fig2() {
        let wf = build_workflow(&WorkflowParams::with_n(4));
        let levels = wf.levels().unwrap();
        let by_name = |name: &str| levels[wf.job_by_name(name).unwrap().idx()];
        // list tasks are roots.
        assert_eq!(by_name("list_transcripts"), 0);
        assert_eq!(by_name("list_alignments"), 0);
        assert_eq!(by_name("split"), 1);
        for i in 0..4 {
            assert_eq!(by_name(&format!("run_cap3_{i}")), 2);
        }
        assert_eq!(by_name("merge"), 3);
        assert_eq!(by_name("extract_unjoined"), 4);
        // The parallel width is n (the cap3 fan-out).
        assert_eq!(wf.width().unwrap(), 4);
    }

    #[test]
    fn run_cap3_depends_on_both_dict_and_chunk() {
        let wf = build_workflow(&WorkflowParams::with_n(2));
        let edges = wf.edges().unwrap();
        let lt = wf.job_by_name("list_transcripts").unwrap();
        let sp = wf.job_by_name("split").unwrap();
        let c0 = wf.job_by_name("run_cap3_0").unwrap();
        assert!(edges.contains(&(lt, c0)));
        assert!(edges.contains(&(sp, c0)));
    }

    #[test]
    fn chunk_costs_land_on_run_cap3_jobs() {
        let params = WorkflowParams::with_n(3).with_chunk_costs(vec![10.0, 20.0, 30.0]);
        let wf = build_workflow(&params);
        for (i, expect) in [(0usize, 10.0), (1, 20.0), (2, 30.0)] {
            let j = wf.job_by_name(&format!("run_cap3_{i}")).unwrap();
            assert_eq!(wf.jobs[j.idx()].runtime_hint, expect);
        }
    }

    #[test]
    #[should_panic(expected = "one cost per run_cap3 chunk")]
    fn wrong_cost_count_panics() {
        let _ = WorkflowParams::with_n(3).with_chunk_costs(vec![1.0]);
    }

    #[test]
    fn external_inputs_are_the_papers_two_files() {
        let wf = build_workflow(&WorkflowParams::with_n(5));
        let mut inputs: Vec<Name> = wf.external_inputs().into_iter().map(|f| f.name).collect();
        inputs.sort();
        assert_eq!(inputs, vec!["alignments.out", "transcripts.fasta"]);
        let outputs: Vec<Name> = wf.final_outputs().into_iter().map(|f| f.name).collect();
        assert_eq!(outputs, vec!["final.fasta"]);
    }

    #[test]
    fn workflow_round_trips_through_dax() {
        let wf = build_workflow(&WorkflowParams::with_n(10));
        let text = dax::to_dax(&wf);
        let back = dax::from_dax(&text).unwrap();
        assert_eq!(back.jobs.len(), wf.jobs.len());
        assert_eq!(back.edges().unwrap(), wf.edges().unwrap());
    }

    #[test]
    fn n_zero_is_clamped_to_one() {
        let wf = build_workflow(&WorkflowParams::with_n(0));
        assert_eq!(wf.jobs.len(), fig2_job_count(1));
    }
}
