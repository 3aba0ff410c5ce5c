#![forbid(unsafe_code)]

//! `b2c3` — the end-user tool, equivalent to Buffalo's Python
//! blast2cap3 script the paper parallelised.
//!
//! ```sh
//! # make a synthetic dataset to play with
//! b2c3 simulate --families 80 --dir ./data
//!
//! # protein-guided assembly over real files
//! b2c3 run --transcripts data/transcripts.fasta \
//!          --alignments data/alignments.out \
//!          --out final.fasta --chunks 32 --threads 0
//! ```
//!
//! `run` executes the same kernels the Pegasus workflow schedules,
//! either serially (`--serial`, the original script's behaviour) or
//! with the parallel chunk decomposition. `b2c3 <verb> --help` lists a
//! verb's flags.

use bioseq::fasta;
use bioseq::simulate::{generate, TranscriptomeConfig};
use bioseq::stats::{assembly_stats, reduction_ratio};
use blast2cap3::parallel::run_parallel;
use blast2cap3::serial::run_serial;
use blast2cap3_pegasus::cli::{self, opt, or_exit, switch, Args, Flag, Verb};
use blast2cap3_pegasus::experiment::synthetic_alignments;
use blast2cap3_pegasus::outln;
use blastx::search::{SearchParams, Searcher};
use blastx::tabular::{self, TabularRecord};
use cap3::Cap3Params;
use std::path::Path;
use std::process::ExitCode;

const VERBS: &[Verb] = &[SIMULATE, ALIGN, RUN];

fn main() -> ExitCode {
    cli::main("b2c3", VERBS)
}

const TRANSCRIPTS: Flag = opt("transcripts", "fasta", "transcripts to assemble");
/// Each worker is an OS thread of its own, so the count has a ceiling:
/// more than a machine has cores only queues work, and a value in the
/// thousands would start that many threads.
const THREADS: Flag = opt("threads", "k", "worker threads (default 0: every core)").count(0, 256);

const SIMULATE: Verb = Verb {
    name: "simulate",
    summary: "write a synthetic transcriptome, its proteins and its alignments",
    positional: None,
    flags: &[
        // The paper's 236,529 transcripts: 2.8 per family (60,000
        // families wrote 169,480), so about 84,000 families, rounded up.
        opt("families", "n", "gene families to simulate (default 80)").count(1, 100_000),
        opt("dir", "outdir", "directory the three files are written to"),
        opt("seed", "u64", "deterministic seed (default 20140519)"),
    ],
    run: cmd_simulate,
};

const ALIGN: Verb = Verb {
    name: "align",
    summary: "BLASTX the transcripts against a protein database, in tabular form",
    positional: None,
    flags: &[
        TRANSCRIPTS,
        opt("proteins", "protein-fasta", "protein database"),
        opt("out", "tabular", "alignments file to write"),
        THREADS,
        opt("max-evalue", "e", "E-value cutoff (default 1e-5)"),
    ],
    run: cmd_align,
};

const RUN: Verb = Verb {
    name: "run",
    summary: "protein-guided assembly of the transcripts (blast2cap3)",
    positional: None,
    flags: &[
        TRANSCRIPTS,
        opt("alignments", "tabular", "BLASTX hits to cluster by"),
        opt("out", "fasta", "assembly file to write"),
        opt("chunks", "n", "parallel decomposition size (default 300)").at_least(1),
        THREADS,
        switch("serial", "run the original serial script instead"),
        opt("min-overlap", "bp", "CAP3 minimum overlap (default 40)"),
        opt("min-identity", "pct", "CAP3 overlap identity (default 90)"),
    ],
    run: cmd_run,
};

fn cmd_simulate(args: &Args) -> ExitCode {
    let families: usize = args.parsed("families", 80);
    let seed: u64 = args.parsed("seed", 20140519);
    let dir = Path::new(args.require("dir"));
    let created = std::fs::create_dir_all(dir);
    or_exit(&format!("cannot create {}", dir.display()), created);

    let data = generate(&TranscriptomeConfig {
        n_families: families,
        family_size_mean: 4.0,
        family_size_cap: 24,
        ..TranscriptomeConfig::tiny(seed)
    });
    let alignments = synthetic_alignments(&data);

    let doing = |path: &Path| format!("cannot write {}", path.display());
    let path = dir.join("transcripts.fasta");
    or_exit(&doing(&path), fasta::write_file(&path, &data.transcripts));
    let path = dir.join("alignments.out");
    or_exit(&doing(&path), tabular::write_file(&path, &alignments));
    // The related-species protein database, as protein FASTA.
    let prot_records: Vec<fasta::ProteinRecord> = data
        .proteins
        .iter()
        .map(|(id, p)| fasta::ProteinRecord::new(id.clone(), "", p.clone()))
        .collect();
    let path = dir.join("proteins.fasta");
    or_exit(&doing(&path), fasta::write_file(&path, &prot_records));

    outln!(
        "wrote {} transcripts ({} families) and {} alignment rows to {}",
        data.transcripts.len(),
        families,
        alignments.len(),
        dir.display()
    );
    ExitCode::SUCCESS
}

fn cmd_align(args: &Args) -> ExitCode {
    let transcripts = fasta::read_file(args.require("transcripts"));
    let transcripts = or_exit("cannot read transcripts", transcripts);
    let proteins = fasta::read_protein_file(args.require("proteins"));
    let proteins = or_exit("cannot read proteins", proteins);
    let db: Vec<(String, bioseq::seq::ProteinSeq)> =
        proteins.into_iter().map(|r| (r.id, r.seq)).collect();
    let params = SearchParams {
        max_evalue: args.parsed("max-evalue", 1e-5),
    };
    let searcher = or_exit("cannot build searcher", Searcher::new(db, params));
    let queries: Vec<(String, bioseq::seq::DnaSeq)> = transcripts
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let threads: usize = args.parsed("threads", 0);
    let hsps = searcher.search_many(&queries, threads);
    let records: Vec<TabularRecord> = hsps.iter().map(TabularRecord::from).collect();
    let out_path = args.require("out");
    or_exit(
        "cannot write alignments",
        tabular::write_file(out_path, &records),
    );
    outln!(
        "aligned {} transcripts against {} proteins: {} HSPs -> {out_path}",
        transcripts.len(),
        searcher.database().len(),
        records.len()
    );
    ExitCode::SUCCESS
}

fn cmd_run(args: &Args) -> ExitCode {
    let transcripts = fasta::read_file(args.require("transcripts"));
    let transcripts = or_exit("cannot read transcripts", transcripts);
    let alignments = tabular::read_file(args.require("alignments"));
    let alignments = or_exit("cannot read alignments", alignments);
    let params = Cap3Params {
        min_overlap_len: args.parsed("min-overlap", 40),
        min_overlap_identity: args.parsed("min-identity", 90.0),
    };
    or_exit("bad CAP3 parameters", params.validate());

    let input_count = transcripts.len();
    let (output, label, elapsed) = if args.flag("serial") {
        let rep = run_serial(&transcripts, &alignments, &params);
        (rep.output, "serial", rep.elapsed)
    } else {
        let chunks: usize = args.parsed("chunks", 300);
        let threads: usize = args.parsed("threads", 0);
        let rep = run_parallel(&transcripts, &alignments, &params, chunks, threads);
        (rep.output, "parallel", rep.elapsed)
    };

    let out_path = args.require("out");
    or_exit("cannot write output", fasta::write_file(out_path, &output));
    let stats = assembly_stats(&output);
    outln!(
        "{label} blast2cap3: {input_count} -> {} sequences ({:.1}% reduction) in {:.3}s",
        output.len(),
        100.0 * reduction_ratio(input_count, output.len()),
        elapsed.as_secs_f64()
    );
    outln!(
        "output N50 = {} bp over {} bases -> {}",
        stats.n50,
        stats.total_len,
        out_path
    );
    ExitCode::SUCCESS
}
