//! Hierarchical workflows — Pegasus sub-DAX jobs.
//!
//! Builds a top-level pipeline in which the whole blast2cap3 workflow
//! of Fig. 2 is one placeholder job inside a larger analysis (upstream
//! assembly produces `transcripts.fasta` and `alignments.out`;
//! downstream annotation consumes `final.fasta`), then inlines the
//! sub-workflow and plans the flattened DAG.
//!
//! ```sh
//! cargo run --release --example hierarchical_workflow
//! ```

use blast2cap3::workflow::{build_workflow, WorkflowParams};
use pegasus_wms::catalog::{paper_catalogs, ReplicaCatalog};
use pegasus_wms::planner::{plan, PlannerConfig};
use pegasus_wms::symbols::Args;
use pegasus_wms::workflow::AbstractWorkflow;

fn main() {
    // Top-level analysis with a sub-DAX placeholder; a job's files are
    // (name, size in bytes) pairs.
    let mut top = AbstractWorkflow::new("rnaseq_analysis");
    let mut rows = top.declare();
    let reads = [("reads.fastq", 12_000_000_000)];
    let transcripts = [("transcripts.fasta", 404_000_000)];
    rows.job(
        "assemble_reads",
        "assembler",
        Args::new(),
        7200.0,
        reads,
        transcripts,
    )
    .unwrap();
    let transcripts = [("transcripts.fasta", 0)];
    let alignments = [("alignments.out", 155_000_000)];
    rows.job(
        "align_proteins",
        "blastx",
        Args::new(),
        5400.0,
        transcripts,
        alignments,
    )
    .unwrap();
    // The whole of Fig. 2 stands behind this one job.
    let interface = [("transcripts.fasta", 0), ("alignments.out", 0)];
    let assembly = [("final.fasta", 0)];
    let placeholder = rows
        .job(
            "blast2cap3",
            "pegasus::dax",
            Args::new(),
            1.0,
            interface,
            assembly,
        )
        .unwrap();
    let annotations = [("annotations.gff", 0)];
    rows.job(
        "annotate",
        "annotator",
        Args::new(),
        1800.0,
        assembly,
        annotations,
    )
    .unwrap();
    drop(rows);

    let sub = build_workflow(&WorkflowParams::with_n(8));
    println!(
        "top-level: {} jobs; blast2cap3 sub-DAX: {} jobs",
        top.jobs.len(),
        sub.jobs.len()
    );

    let flat = top
        .with_inlined_subworkflow(placeholder, &sub)
        .expect("inline sub-DAX");
    println!(
        "flattened: {} jobs, width {}, depth {}",
        flat.jobs.len(),
        flat.width().unwrap(),
        flat.levels().unwrap().iter().max().unwrap() + 1
    );
    let (cp_len, cp) = flat.critical_path().unwrap();
    let names: Vec<&str> = cp.iter().map(|&i| flat.jobs[i.idx()].id.as_str()).collect();
    println!("critical path ({:.0}s): {}", cp_len, names.join(" -> "));

    // The flattened workflow plans like any other.
    let (sites, tc) = paper_catalogs();
    let mut rc = ReplicaCatalog::new();
    rc.register("reads.fastq", "submit");
    let exec = plan(
        &flat,
        &sites,
        &tc,
        &rc,
        &PlannerConfig::for_site("sandhills"),
    )
    .unwrap();
    println!(
        "planned for sandhills: {} jobs, {} edges",
        exec.jobs.len(),
        exec.edges.len()
    );
    assert!(flat.job_by_name("blast2cap3/split").is_some());
    assert!(flat.job_by_name("blast2cap3/run_cap3_0").is_some());
    println!("sub-DAX jobs are namespaced: blast2cap3/split, blast2cap3/run_cap3_0, ...");
}
