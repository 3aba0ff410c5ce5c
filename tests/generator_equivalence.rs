//! The generators declare jobs row by row, straight into the flat
//! tables (ISSUE 21); what they build must be what they built when
//! they handed in a `Vec<Job>`. Two witnesses: DAX documents written
//! by the parent commit's `pegasus generate-dax` / `generate-workload`
//! (`tests/fixtures/equivalence/*.dax`, never re-blessed), and the
//! retired `Job`-batch construction of Fig. 2, kept here as an oracle.

use blast2cap3::workflow::{build_workflow, WorkflowParams};
use pegasus_wms::dax::to_dax;
use pegasus_wms::symbols::Name;
use pegasus_wms::synthetic::{cybershake, epigenomics, ligo_inspiral, montage};
use pegasus_wms::workflow::{AbstractWorkflow, Job, LogicalFile};

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/equivalence/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn generated_dax_is_byte_identical_to_the_parent_commits() {
    // The sizes `generate-workload --size 20` gives each shape.
    for (name, wf) in [
        (
            "blast2cap3_n10",
            build_workflow(&WorkflowParams::with_n(10)),
        ),
        (
            "blast2cap3_n300",
            build_workflow(&WorkflowParams::with_n(300)),
        ),
        ("montage_20", montage(20)),
        ("cybershake_20", cybershake(20)),
        ("epigenomics_20", epigenomics(2, 10)),
        ("ligo_20", ligo_inspiral(4, 5)),
    ] {
        assert!(to_dax(&wf) == fixture(&format!("{name}.dax")), "{name}");
    }
}

/// `build_workflow` as it was before ISSUE 21: every job a [`Job`],
/// every file a [`LogicalFile`], the batch handed to `add_jobs`.
fn job_batch_oracle(params: &WorkflowParams) -> AbstractWorkflow {
    let n = params.n_clusters.max(1);
    let (transcripts, alignments) = (params.transcripts_bytes, params.alignments_bytes);
    let dict = LogicalFile::sized("transcripts_dict.txt", transcripts);
    let mut batch = vec![
        Job::new("list_transcripts", "list_transcripts")
            .arg("transcripts.fasta")
            .input(LogicalFile::sized("transcripts.fasta", transcripts))
            .output(dict.clone())
            .runtime(120.0),
        Job::new("list_alignments", "list_alignments")
            .arg("alignments.out")
            .input(LogicalFile::sized("alignments.out", alignments))
            .output(LogicalFile::sized("alignments_list.txt", alignments))
            .runtime(90.0),
    ];
    let count = Name::from(n.to_string());
    let mut split = Job::new("split", "split")
        .arg("-n")
        .arg(count.clone())
        .input(LogicalFile::sized("alignments_list.txt", alignments))
        .runtime(60.0);
    let mut merge = Job::new("merge", "merge")
        .arg("-n")
        .arg(count)
        .output(LogicalFile::named("joined_all.fasta"))
        .output(LogicalFile::named("joined_ids_all.txt"))
        .runtime(30.0);
    let mut chunks = Vec::new();
    for i in 0..n {
        let cost = params
            .chunk_costs
            .get(i)
            .copied()
            .unwrap_or(params.default_chunk_seconds);
        let protein = LogicalFile::named(format!("protein_{i}.txt"));
        let joined = LogicalFile::named(format!("joined_{i}.fasta"));
        let joined_ids = LogicalFile::named(format!("joined_ids_{i}.txt"));
        split = split.output(protein.clone());
        merge = merge.input(joined.clone()).input(joined_ids.clone());
        chunks.push(
            Job::new(format!("run_cap3_{i}"), "run_cap3")
                .arg(i.to_string())
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
    let mut wf = AbstractWorkflow::new(format!("blast2cap3_n{n}"));
    wf.add_jobs(batch).expect("fresh workflow");
    wf
}

#[test]
fn fig2_declared_row_by_row_equals_the_job_batch_oracle() {
    for n in [0, 1, 2, 10, 300] {
        let plain = WorkflowParams::with_n(n);
        let costs = (0..n).map(|i| 600.0 + 0.37 * i as f64).collect();
        for params in [plain.clone(), plain.with_chunk_costs(costs)] {
            let (built, oracle) = (build_workflow(&params), job_batch_oracle(&params));
            assert_eq!(built, oracle, "n={n}");
            // Same file ids: the table in the same first-use order.
            let files = |wf: &AbstractWorkflow| -> Vec<String> {
                wf.files()
                    .iter()
                    .map(|(_, name)| name.to_string())
                    .collect()
            };
            assert_eq!(files(&built), files(&oracle), "n={n}");
            assert!(to_dax(&built) == to_dax(&oracle), "n={n}");
            // What was reserved is what was used.
            assert_eq!(built.use_count(), 7 * n.max(1) + 11, "n={n}");
            assert_eq!(built.files().len(), 3 * n.max(1) + 7, "n={n}");
        }
    }
}
