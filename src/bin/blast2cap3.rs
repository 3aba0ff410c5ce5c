#![forbid(unsafe_code)]

//! `blast2cap3` — the end-user tool, equivalent to Buffalo's Python
//! script the paper parallelised.
//!
//! ```sh
//! # make a synthetic dataset to play with
//! blast2cap3 simulate --families 80 --dir ./data
//!
//! # protein-guided assembly over real files
//! blast2cap3 run --transcripts data/transcripts.fasta \
//!                --alignments data/alignments.out \
//!                --out final.fasta --chunks 32 --threads 0
//! ```
//!
//! `run` executes the same kernels the Pegasus workflow schedules,
//! either serially (`--serial`, the original script's behaviour) or
//! with the parallel chunk decomposition.

use bioseq::fasta;
use bioseq::simulate::{generate, TranscriptomeConfig};
use bioseq::stats::{assembly_stats, reduction_ratio};
use blast2cap3::parallel::run_parallel;
use blast2cap3::serial::run_serial;
use blast2cap3_pegasus::experiment::synthetic_alignments;
use blastx::search::{SearchParams, Searcher};
use blastx::tabular::{self, TabularRecord};
use cap3::Cap3Params;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         blast2cap3 simulate --families <n> --dir <outdir> [--seed <u64>]\n  \
         blast2cap3 align --transcripts <fasta> --proteins <protein-fasta> --out <tabular>\n             \
         [--threads <k>] [--max-evalue <e>]\n  \
         blast2cap3 run --transcripts <fasta> --alignments <tabular> --out <fasta>\n             \
         [--chunks <n>] [--threads <k>] [--serial] [--min-overlap <bp>] [--min-identity <pct>]"
    );
    std::process::exit(2);
}

struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], bool_flags: &[&str]) -> Args {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let Some(key) = raw[i].strip_prefix("--") else {
                eprintln!("unexpected argument {:?}", raw[i]);
                usage();
            };
            if bool_flags.contains(&key) {
                flags.push(key.to_string());
                i += 1;
            } else if i + 1 < raw.len() {
                values.insert(key.to_string(), raw[i + 1].clone());
                i += 2;
            } else {
                eprintln!("missing value for --{key}");
                usage();
            }
        }
        Args { values, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> &str {
        self.get(key).unwrap_or_else(|| {
            eprintln!("missing required --{key}");
            usage()
        })
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{key}: {v:?}");
                usage()
            }),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn cmd_simulate(args: &Args) -> ExitCode {
    let families: usize = args.parsed("families", 80);
    let seed: u64 = args.parsed("seed", 20140519);
    let dir = Path::new(args.require("dir"));
    std::fs::create_dir_all(dir).expect("create output dir");

    let data = generate(&TranscriptomeConfig {
        n_families: families,
        family_size_mean: 4.0,
        family_size_cap: 24,
        ..TranscriptomeConfig::tiny(seed)
    });
    let alignments = synthetic_alignments(&data);

    fasta::write_file(dir.join("transcripts.fasta"), &data.transcripts).expect("write transcripts");
    tabular::write_file(dir.join("alignments.out"), &alignments).expect("write alignments");
    // The related-species protein database, as protein FASTA.
    let prot_records: Vec<fasta::ProteinRecord> = data
        .proteins
        .iter()
        .map(|(id, p)| fasta::ProteinRecord::new(id.clone(), "", p.clone()))
        .collect();
    fasta::write_protein_file(dir.join("proteins.fasta"), &prot_records).expect("write proteins");

    println!(
        "wrote {} transcripts ({} families) and {} alignment rows to {}",
        data.transcripts.len(),
        families,
        alignments.len(),
        dir.display()
    );
    ExitCode::SUCCESS
}

fn cmd_align(args: &Args) -> ExitCode {
    let transcripts = fasta::read_file(args.require("transcripts")).unwrap_or_else(|e| {
        eprintln!("cannot read transcripts: {e}");
        std::process::exit(1);
    });
    let proteins = fasta::read_protein_file(args.require("proteins")).unwrap_or_else(|e| {
        eprintln!("cannot read proteins: {e}");
        std::process::exit(1);
    });
    let db: Vec<(String, bioseq::seq::ProteinSeq)> =
        proteins.into_iter().map(|r| (r.id, r.seq)).collect();
    let params = SearchParams {
        max_evalue: args.parsed("max-evalue", 1e-5),
        ..Default::default()
    };
    let searcher = Searcher::new(db, params).unwrap_or_else(|e| {
        eprintln!("cannot build searcher: {e}");
        std::process::exit(1);
    });
    let queries: Vec<(String, bioseq::seq::DnaSeq)> = transcripts
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let threads: usize = args.parsed("threads", 0);
    let hsps = searcher.search_many(&queries, threads);
    let records: Vec<TabularRecord> = hsps.iter().map(TabularRecord::from).collect();
    let out_path = args.require("out");
    tabular::write_file(out_path, &records).unwrap_or_else(|e| {
        eprintln!("cannot write alignments: {e}");
        std::process::exit(1);
    });
    println!(
        "aligned {} transcripts against {} proteins: {} HSPs -> {out_path}",
        transcripts.len(),
        searcher.database().len(),
        records.len()
    );
    ExitCode::SUCCESS
}

fn cmd_run(args: &Args) -> ExitCode {
    let transcripts = fasta::read_file(args.require("transcripts")).unwrap_or_else(|e| {
        eprintln!("cannot read transcripts: {e}");
        std::process::exit(1);
    });
    let alignments = tabular::read_file(args.require("alignments")).unwrap_or_else(|e| {
        eprintln!("cannot read alignments: {e}");
        std::process::exit(1);
    });
    let params = Cap3Params {
        min_overlap_len: args.parsed("min-overlap", 40),
        min_overlap_identity: args.parsed("min-identity", 90.0),
        ..Default::default()
    };
    if let Err(msg) = params.validate() {
        eprintln!("bad CAP3 parameters: {msg}");
        return ExitCode::FAILURE;
    }

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
    fasta::write_file(out_path, &output).unwrap_or_else(|e| {
        eprintln!("cannot write output: {e}");
        std::process::exit(1);
    });
    let stats = assembly_stats(&output);
    println!(
        "{label} blast2cap3: {input_count} -> {} sequences ({:.1}% reduction) in {:.3}s",
        output.len(),
        100.0 * reduction_ratio(input_count, output.len()),
        elapsed.as_secs_f64()
    );
    println!(
        "output N50 = {} bp over {} bases -> {}",
        stats.n50, stats.total_len, out_path
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().map(String::as_str) else {
        usage();
    };
    let args = Args::parse(&raw[1..], &["serial"]);
    match cmd {
        "simulate" => cmd_simulate(&args),
        "align" => cmd_align(&args),
        "run" => cmd_run(&args),
        _ => usage(),
    }
}
