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

use pegasus_wms::error::WmsError;
use pegasus_wms::line::push_u64;
use pegasus_wms::symbols::{Args, Name};
use pegasus_wms::workflow::{AbstractWorkflow, Declare};

/// Reference seconds of a `run_cap3` chunk without a calibrated cost.
pub const DEFAULT_CHUNK_SECONDS: f64 = 1_200.0;

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
    /// every chunk to [`DEFAULT_CHUNK_SECONDS`]).
    pub chunk_costs: Vec<f64>,
}

impl Default for WorkflowParams {
    fn default() -> Self {
        WorkflowParams {
            n_clusters: 300,
            transcripts_bytes: 404_000_000,
            alignments_bytes: 155_000_000,
            chunk_costs: Vec::new(),
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

/// Builds the Fig. 2 abstract workflow; an `n_clusters` of 0 is built
/// as 1 (callers that take `n` from a user refuse 0 themselves).
pub fn build_workflow(params: &WorkflowParams) -> AbstractWorkflow {
    let n = params.n_clusters.max(1);
    let mut wf = AbstractWorkflow::new(format!("blast2cap3_n{n}"));
    // A chunk's `protein_<i>.txt`, `joined_<i>.fasta` and
    // `joined_ids_<i>.txt` are 12 + 13 + 15 bytes around three copies
    // of `i`; the seven names of the list, merge and extract steps are
    // 115 bytes together.
    let digits = |i: usize| i.checked_ilog10().map_or(1, |d| d as usize + 1);
    let names: usize = (0..n).map(|i| 40 + 3 * digits(i)).sum();
    wf.reserve(fig2_job_count(n), 7 * n + 11, 3 * n + 7, names + 115);
    declare_fig2(&mut wf.declare(), n, params).expect("Fig. 2's job ids are distinct");
    debug_assert_eq!(wf.files().text_len(), names + 115, "the names reserved");
    debug_assert!(wf.validate().is_ok());
    wf
}

/// A generator is where names are made, each of them once: a job's id
/// and argument as the handles every later layer shares, a file's name
/// as text the file table copies where the file is first used. Every
/// later use of the file is the id that first use gave it.
fn declare_fig2(rows: &mut Declare<'_>, n: usize, params: &WorkflowParams) -> Result<(), WmsError> {
    let (transcripts, alignments) = (params.transcripts_bytes, params.alignments_bytes);
    let arg = |a: &str| Args::from([Name::from(a)]);
    let count = Args::from([Name::from("-n"), Name::from(n.to_string())]);
    let numbered = |text: &mut String, stem: &str, i: usize, extension: &str| {
        text.push_str(stem);
        push_u64(text, i as u64);
        text.push_str(extension);
    };

    let list = rows.job(
        "list_transcripts",
        "list_transcripts",
        arg("transcripts.fasta"),
        120.0,
        [("transcripts.fasta", transcripts)],
        [("transcripts_dict.txt", transcripts)],
    )?;
    let dict = (rows.outputs(list).ids()[0], transcripts);
    rows.job(
        "list_alignments",
        "list_alignments",
        arg("alignments.out"),
        90.0,
        [("alignments.out", alignments)],
        [("alignments_list.txt", alignments)],
    )?;

    // The names of one side must be alive together: a line each.
    let mut text = String::with_capacity("protein_.txt\n".len() * n);
    (0..n).for_each(|i| numbered(&mut text, "protein_", i, ".txt\n"));
    let list = [("alignments_list.txt", alignments)];
    let proteins = text.lines().map(|protein| (protein, 0));
    let split = rows.job("split", "split", count.clone(), 60.0, list, proteins)?;
    let proteins = rows.outputs(split).ids().to_vec();

    let run_cap3 = Name::from("run_cap3");
    let mut id = String::from("run_cap3_");
    let mut joined = Vec::with_capacity(2 * n);
    for (i, protein) in proteins.into_iter().enumerate() {
        let cost = params
            .chunk_costs
            .get(i)
            .copied()
            .unwrap_or(DEFAULT_CHUNK_SECONDS);
        id.truncate("run_cap3_".len());
        push_u64(&mut id, i as u64);
        let index = arg(&id["run_cap3_".len()..]);
        text.clear();
        numbered(&mut text, "joined_", i, ".fasta\n");
        numbered(&mut text, "joined_ids_", i, ".txt");
        let (inputs, outputs) = ([dict, (protein, 0)], text.lines().map(|file| (file, 0)));
        let chunk = rows.job(id.as_str(), run_cap3.clone(), index, cost, inputs, outputs)?;
        joined.extend_from_slice(rows.outputs(chunk).ids());
    }
    let joined = joined.into_iter().map(|file| (file, 0));
    let merged = [("joined_all.fasta", 0), ("joined_ids_all.txt", 0)];
    let merge = rows.job("merge", "merge", count, 30.0, joined, merged)?;
    let merged = rows.outputs(merge).ids();
    let inputs = [dict, (merged[0], 0), (merged[1], 0)];
    let outputs = [("final.fasta", 0)];
    rows.job(
        "extract_unjoined",
        "extract_unjoined",
        Args::new(),
        45.0,
        inputs,
        outputs,
    )?;
    Ok(())
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
        let view = wf.dataflow();
        let mut inputs: Vec<&str> = wf.external_inputs(&view).iter().map(|f| f.name).collect();
        inputs.sort();
        assert_eq!(inputs, vec!["alignments.out", "transcripts.fasta"]);
        let outputs: Vec<&str> = wf
            .final_outputs(&view)
            .iter()
            .map(|(_, f)| f.name)
            .collect();
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
