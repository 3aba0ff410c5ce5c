//! The generators declare jobs row by row, straight into the flat
//! tables, naming a file by text where it is first used and by the id
//! that use gave it after; what they build must be what they built
//! before. Two witnesses: DAX documents written by the parent commit
//! of the row-by-row generators' `pegasus generate-dax` /
//! `generate-workload` (`tests/fixtures/equivalence/*.dax`, never
//! re-blessed), and an oracle of Fig. 2 declared one plain way, every
//! file named by its text.

use blast2cap3::workflow::{build_workflow, WorkflowParams, DEFAULT_CHUNK_SECONDS};
use pegasus_wms::dax::to_dax;
use pegasus_wms::symbols::{Args, Name};
use pegasus_wms::synthetic::{cybershake, epigenomics, ligo_inspiral, montage};
use pegasus_wms::workflow::AbstractWorkflow;

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

/// `build_workflow` written out as one batch of declared jobs, every
/// file named by its text and never by an id, so the table's order
/// comes from interning alone: an independent witness of the
/// generator's id reuse.
fn job_batch_oracle(params: &WorkflowParams) -> AbstractWorkflow {
    let n = params.n_clusters.max(1);
    let (transcripts, alignments) = (params.transcripts_bytes, params.alignments_bytes);
    let names = |stem: &str, extension: &str| -> Vec<String> {
        (0..n).map(|i| format!("{stem}{i}{extension}")).collect()
    };
    let proteins = names("protein_", ".txt");
    let (joined, joined_ids) = (names("joined_", ".fasta"), names("joined_ids_", ".txt"));
    let arg = |a: &str| Args::from([Name::from(a)]);
    let count = Args::from([Name::from("-n"), Name::from(n.to_string())]);
    let dict = ("transcripts_dict.txt", transcripts);
    let list = ("alignments_list.txt", alignments);
    let merged = [("joined_all.fasta", 0), ("joined_ids_all.txt", 0)];

    let mut wf = AbstractWorkflow::new(format!("blast2cap3_n{n}"));
    let mut rows = wf.declare();
    let mut job = |id: &str,
                   transformation: &str,
                   args: Args,
                   runtime: f64,
                   inputs: &[(&str, u64)],
                   outputs: &[(&str, u64)]| {
        let (inputs, outputs) = (inputs.iter().copied(), outputs.iter().copied());
        (rows.job(id, transformation, args, runtime, inputs, outputs)).expect("distinct ids");
    };
    let transcripts_in = [("transcripts.fasta", transcripts)];
    job(
        "list_transcripts",
        "list_transcripts",
        arg("transcripts.fasta"),
        120.0,
        &transcripts_in,
        &[dict],
    );
    let alignments_in = [("alignments.out", alignments)];
    job(
        "list_alignments",
        "list_alignments",
        arg("alignments.out"),
        90.0,
        &alignments_in,
        &[list],
    );
    let split_out: Vec<(&str, u64)> = proteins.iter().map(|p| (p.as_str(), 0)).collect();
    job("split", "split", count.clone(), 60.0, &[list], &split_out);
    for i in 0..n {
        let cost = (params.chunk_costs.get(i).copied()).unwrap_or(DEFAULT_CHUNK_SECONDS);
        let inputs = [dict, (proteins[i].as_str(), 0)];
        let outputs = [(joined[i].as_str(), 0), (joined_ids[i].as_str(), 0)];
        job(
            &format!("run_cap3_{i}"),
            "run_cap3",
            arg(&i.to_string()),
            cost,
            &inputs,
            &outputs,
        );
    }
    let merge_in: Vec<(&str, u64)> = (joined.iter().zip(&joined_ids))
        .flat_map(|(f, ids)| [(f.as_str(), 0), (ids.as_str(), 0)])
        .collect();
    job("merge", "merge", count, 30.0, &merge_in, &merged);
    let extract_in = [dict, merged[0], merged[1]];
    job(
        "extract_unjoined",
        "extract_unjoined",
        Args::new(),
        45.0,
        &extract_in,
        &[("final.fasta", 0)],
    );
    drop(rows);
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
