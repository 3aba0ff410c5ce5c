//! The planner's three rewrites — horizontal clustering, data-reuse
//! reduction and sub-workflow inlining — must build what they built
//! when each row went through an owned builder and back. Every case
//! writes the rewritten workflow with `to_dax` and compares it byte for
//! byte against `tests/fixtures/equivalence/passes/`, written by the
//! commit before the passes ran row → row. `to_dax` round-trips
//! exactly, so equal documents are equal workflows (file table
//! included). Never re-bless these files to make a change pass; to add
//! a case, bless it at a commit that predates the change under test:
//!
//! ```sh
//! PEGASUS_BLESS=1 cargo test --test pass_equivalence
//! ```
//!
//! The refusals a rewrite raises are pinned here too: a colliding job
//! id is `DuplicateJob`, naming the first collision in the order the
//! rewrite declares its jobs.

use blast2cap3::workflow::{build_workflow, WorkflowParams};
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::dax::to_dax;
use pegasus_wms::error::WmsError;
use pegasus_wms::planner::{cluster_workflow, plan, reduce_workflow, PlannerConfig};
use pegasus_wms::symbols::Args;
use pegasus_wms::synthetic::{cybershake, epigenomics, ligo_inspiral, montage};
use pegasus_wms::workflow::{AbstractWorkflow, JobId};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/equivalence/passes")
        .join(name)
}

/// Compares `wf`'s DAX against the golden `name`, or writes the golden
/// under `PEGASUS_BLESS=1`.
fn check_golden(name: &str, wf: &AbstractWorkflow) {
    let (path, text) = (fixture_path(name), to_dax(wf));
    if std::env::var_os("PEGASUS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless it at the parent"));
    if golden != text {
        let line = (golden.lines().zip(text.lines()))
            .position(|(g, t)| g != t)
            .unwrap_or_else(|| golden.lines().count().min(text.lines().count()));
        panic!(
            "{name} differs from the golden at line {}:\n  golden: {}\n  actual: {}",
            line + 1,
            golden.lines().nth(line).unwrap_or("<end>"),
            text.lines().nth(line).unwrap_or("<end>")
        );
    }
}

/// Declares one job with no arguments, its files named by text with
/// the sizes given.
fn job(
    wf: &mut AbstractWorkflow,
    id: &str,
    transformation: &str,
    runtime_hint: f64,
    inputs: &[(&str, u64)],
    outputs: &[(&str, u64)],
) -> JobId {
    let (inputs, outputs) = (inputs.iter().copied(), outputs.iter().copied());
    (wf.declare())
        .job(
            id,
            transformation,
            Args::new(),
            runtime_hint,
            inputs,
            outputs,
        )
        .expect("unique job id")
}

/// The planner tests' Fig. 2 miniature: two list jobs, split, `n`
/// run_cap3, merge, extract_unjoined.
fn mini_blast2cap3(n: usize) -> AbstractWorkflow {
    let mut wf = AbstractWorkflow::new("blast2cap3");
    let transcripts = [("transcripts.fasta", 404_000_000)];
    job(
        &mut wf,
        "list_transcripts",
        "list_transcripts",
        120.0,
        &transcripts,
        &[("transcripts_dict.txt", 0)],
    );
    let alignments = [("alignments.out", 155_000_000)];
    job(
        &mut wf,
        "list_alignments",
        "list_alignments",
        90.0,
        &alignments,
        &[("alignments_list.txt", 0)],
    );
    let proteins: Vec<String> = (0..n).map(|i| format!("protein_{i}.txt")).collect();
    let joined: Vec<String> = (0..n).map(|i| format!("joined_{i}.fasta")).collect();
    fn sized(names: &[String]) -> Vec<(&str, u64)> {
        names.iter().map(|f| (f.as_str(), 0)).collect()
    }
    job(
        &mut wf,
        "split",
        "split",
        60.0,
        &[("alignments_list.txt", 0)],
        &sized(&proteins),
    );
    for i in 0..n {
        let inputs = [("transcripts_dict.txt", 0), (proteins[i].as_str(), 0)];
        job(
            &mut wf,
            &format!("run_cap3_{i}"),
            "run_cap3",
            1000.0,
            &inputs,
            &[(joined[i].as_str(), 0)],
        );
    }
    job(
        &mut wf,
        "merge",
        "merge",
        30.0,
        &sized(&joined),
        &[("joined_all.fasta", 0)],
    );
    let inputs = [("transcripts_dict.txt", 0), ("joined_all.fasta", 0)];
    job(
        &mut wf,
        "extract_unjoined",
        "extract_unjoined",
        45.0,
        &inputs,
        &[("final.fasta", 0)],
    );
    wf
}

/// A root, five middle jobs and a sink joined by explicit edges only;
/// clustering the middle leaves repeated edges to the merged jobs.
fn explicit_fan() -> AbstractWorkflow {
    let mut wf = AbstractWorkflow::new("explicit_fan");
    let root = job(&mut wf, "root", "t0", 2.0, &[], &[]);
    let middle: Vec<JobId> = (0..5)
        .map(|i| job(&mut wf, &format!("c{i}"), "t1", 1.5 + i as f64, &[], &[]))
        .collect();
    let sink = job(&mut wf, "sink", "t2", 3.0, &[], &[]);
    for &c in &middle {
        wf.add_edge(root, c).unwrap();
        wf.add_edge(c, sink).unwrap();
    }
    wf
}

/// Same-level jobs of one transformation that read one file at two
/// sizes, and one that reads what it writes itself.
fn file_quirks() -> AbstractWorkflow {
    let mut wf = AbstractWorkflow::new("file_quirks");
    job(&mut wf, "q0", "q", 0.1, &[("shared", 5)], &[("o0", 1)]);
    job(
        &mut wf,
        "q1",
        "q",
        0.2,
        &[("shared", 7), ("scratch", 0)],
        &[("scratch", 3)],
    );
    job(
        &mut wf,
        "q2",
        "q",
        0.3,
        &[("shared", 5), ("other", 2)],
        &[("o2", 1)],
    );
    job(
        &mut wf,
        "lone",
        "r",
        0.4,
        &[("o0", 1), ("o2", 1)],
        &[("end", 9)],
    );
    wf
}

fn cluster_inputs() -> Vec<(&'static str, AbstractWorkflow)> {
    vec![
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
        ("explicit_fan", explicit_fan()),
        ("file_quirks", file_quirks()),
    ]
}

#[test]
fn clustering_writes_what_the_parent_wrote() {
    for (name, wf) in cluster_inputs() {
        for k in [2, 3, 4] {
            let clustered = cluster_workflow(&wf, k).expect("clusters");
            check_golden(&format!("cluster_k{k}_{name}.dax"), &clustered);
        }
    }
}

/// The submit-host replicas every planner test registers.
fn submit_replicas() -> ReplicaCatalog {
    let mut rc = ReplicaCatalog::new();
    rc.register("transcripts.fasta", "submit");
    rc.register("alignments.out", "submit");
    rc
}

#[test]
fn reduction_writes_what_the_parent_wrote() {
    // The replica sets of the planner's data-reuse tests.
    let mut cap3_outputs = submit_replicas();
    for i in 0..3 {
        cap3_outputs.register(format!("joined_{i}.fasta"), "sandhills");
    }
    let mut intermediates = submit_replicas();
    for f in ["joined_0.fasta", "joined_1.fasta", "joined_all.fasta"] {
        intermediates.register(f, "sandhills");
    }
    intermediates.register("joined_ids_all.txt", "sandhills");
    intermediates.register("transcripts_dict.txt", "sandhills");
    for (name, n, rc) in [
        ("prunes_replicated_outputs", 3, cap3_outputs),
        ("keeps_everything_without_replicas", 3, submit_replicas()),
        ("never_prunes_final_output_producers", 2, intermediates),
    ] {
        let reduced = reduce_workflow(&mini_blast2cap3(n), &rc, "sandhills").expect("reduces");
        check_golden(&format!("reduce_{name}.dax"), &reduced);
    }
    // Reduction, then clustering, as `plan` composes them.
    let mut rc = submit_replicas();
    rc.register("joined_0.fasta", "osg");
    rc.register("joined_ids_0.txt", "osg");
    let reduced = reduce_workflow(&mini_blast2cap3(6), &rc, "osg").expect("reduces");
    check_golden(
        "reduce_then_cluster_k2.dax",
        &cluster_workflow(&reduced, 2).unwrap(),
    );
}

/// Consumes `x`, produces `sub_out` through an internal `mid`.
fn sub_workflow() -> AbstractWorkflow {
    let mut sub = AbstractWorkflow::new("sub");
    job(&mut sub, "s1", "t", 1.0, &[("x", 0)], &[("mid", 0)]);
    job(&mut sub, "s2", "t", 1.0, &[("mid", 0)], &[("sub_out", 0)]);
    sub
}

/// The `hierarchical_workflow` example's top level: Fig. 2 is the
/// `blast2cap3` placeholder.
fn rnaseq_analysis() -> (AbstractWorkflow, JobId) {
    let mut top = AbstractWorkflow::new("rnaseq_analysis");
    let reads = [("reads.fastq", 12_000_000_000)];
    job(
        &mut top,
        "assemble_reads",
        "assembler",
        7200.0,
        &reads,
        &[("transcripts.fasta", 404_000_000)],
    );
    let aligned = [("alignments.out", 155_000_000)];
    job(
        &mut top,
        "align_proteins",
        "blastx",
        5400.0,
        &[("transcripts.fasta", 0)],
        &aligned,
    );
    let inputs = [("transcripts.fasta", 0), ("alignments.out", 0)];
    let placeholder = job(
        &mut top,
        "blast2cap3",
        "pegasus::dax",
        1.0,
        &inputs,
        &[("final.fasta", 0)],
    );
    job(
        &mut top,
        "annotate",
        "annotator",
        1800.0,
        &[("final.fasta", 0)],
        &[("annotations.gff", 0)],
    );
    (top, placeholder)
}

#[test]
fn inlining_writes_what_the_parent_wrote() {
    let (top, placeholder) = rnaseq_analysis();
    let fig2 = build_workflow(&WorkflowParams::with_n(8));
    let flat = top.with_inlined_subworkflow(placeholder, &fig2).unwrap();
    check_golden("inline_hierarchical_workflow.dax", &flat);

    // a -> SUB -> d through the sub-workflow's interface files.
    let mut parent = AbstractWorkflow::new("parent");
    job(&mut parent, "a", "gen", 1.0, &[], &[("x", 0)]);
    let ph = job(
        &mut parent,
        "SUB",
        "pegasus::dax",
        1.0,
        &[("x", 0)],
        &[("sub_out", 0)],
    );
    job(
        &mut parent,
        "d",
        "join",
        1.0,
        &[("sub_out", 0)],
        &[("z", 0)],
    );
    let flat = parent
        .with_inlined_subworkflow(ph, &sub_workflow())
        .unwrap();
    check_golden("inline_dataflow.dax", &flat);

    // SUB inside SUB: OUTER/INNER/...
    let mut mid = AbstractWorkflow::new("mid");
    let inner = job(&mut mid, "INNER", "pegasus::dax", 1.0, &[], &[]);
    let mid = mid
        .with_inlined_subworkflow(inner, &sub_workflow())
        .unwrap();
    let mut top = AbstractWorkflow::new("top");
    let outer = job(&mut top, "OUTER", "pegasus::dax", 1.0, &[], &[]);
    check_golden(
        "inline_nested.dax",
        &top.with_inlined_subworkflow(outer, &mid).unwrap(),
    );

    // Explicit edges: into and out of the placeholder (redirected to
    // the sub's roots and sinks), between parent jobs, inside the sub.
    let mut parent = AbstractWorkflow::new("parent");
    let before = job(&mut parent, "before", "t", 1.0, &[], &[]);
    let ph = job(&mut parent, "SUB", "pegasus::dax", 1.0, &[], &[]);
    let after = job(&mut parent, "after", "t", 1.0, &[], &[]);
    let aside = job(&mut parent, "aside", "t", 1.0, &[], &[]);
    for (p, c) in [(before, ph), (ph, after), (before, aside), (aside, after)] {
        parent.add_edge(p, c).unwrap();
    }
    let mut sub = sub_workflow();
    let s3 = job(&mut sub, "s3", "u", 2.0, &[], &[]);
    sub.add_edge(JobId::new(0), s3).unwrap();
    let flat = parent.with_inlined_subworkflow(ph, &sub).unwrap();
    check_golden("inline_explicit_edges.dax", &flat);
}

#[test]
fn inlining_refuses_a_parent_job_named_like_a_renamed_sub_job() {
    let mut parent = AbstractWorkflow::new("parent");
    let ph = job(&mut parent, "SUB", "pegasus::dax", 1.0, &[], &[]);
    // Declared before `SUB/s1`, yet `s1` is the sub's first job.
    job(&mut parent, "SUB/s2", "t", 1.0, &[], &[]);
    job(&mut parent, "SUB/s1", "t", 1.0, &[], &[]);
    let refused = parent.with_inlined_subworkflow(ph, &sub_workflow());
    assert_eq!(refused, Err(WmsError::DuplicateJob("SUB/s1".into())));
}

#[test]
fn clustering_refuses_a_job_named_like_a_merged_cluster() {
    // Fig. 2 at k = 2 merges its run_cap3 level into
    // `cluster_run_cap3_2_<i>`. Two jobs of transformations of their
    // own take two of those names; the one declared first collides
    // first.
    let mut wf = build_workflow(&WorkflowParams::with_n(4));
    job(&mut wf, "cluster_run_cap3_2_1", "probe_a", 1.0, &[], &[]);
    job(&mut wf, "cluster_run_cap3_2_0", "probe_b", 1.0, &[], &[]);
    let duplicate = WmsError::DuplicateJob("cluster_run_cap3_2_0".into());
    assert_eq!(cluster_workflow(&wf, 2), Err(duplicate.clone()));

    let (sites, tc) = paper_catalogs();
    let mut cfg = PlannerConfig::for_site("sandhills");
    cfg.cluster_factor = Some(2);
    let planned = plan(&wf, &sites, &tc, &submit_replicas(), &cfg);
    assert_eq!(planned.map(|_| ()), Err(duplicate));
}
