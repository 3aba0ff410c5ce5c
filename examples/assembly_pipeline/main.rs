//! Fig. 1 — the general transcriptome assembly pipeline.
//!
//! Walks the whole preprocessing → assembly → post-processing path on
//! synthetic data:
//!
//! 1. simulate shotgun reads from a set of mRNAs (the sequencing run);
//! 2. *preprocess*: drop short/low-complexity reads (data cleaning);
//! 3. *assemble*: overlap-layout-consensus over the reads (de novo
//!    assembly — our CAP3 engine standing in for Velvet/Oases);
//! 4. *post-process*: protein-guided merging with blast2cap3 to remove
//!    redundancy across the per-gene assemblies.
//!
//! ```sh
//! cargo run --release --example assembly_pipeline
//! ```
//!
//! The FASTQ record, read simulator and quality trimmer it uses live
//! beside it in `fastq.rs`, whose unit tests `tests/fastq.rs` runs.

mod fastq;

use bioseq::fasta::Record;
use bioseq::simulate::{generate, TranscriptomeConfig};
use bioseq::stats::assembly_stats;
use blast2cap3::serial::run_serial;
use blastx::search::{SearchParams, Searcher};
use blastx::tabular::TabularRecord;
use cap3::{Assembler, Cap3Params};
use fastq::{simulate_fastq_reads, FastqRecord};

fn main() {
    // The "organism": gene families with ancestral proteins.
    let data = generate(&TranscriptomeConfig {
        n_families: 12,
        family_size_mean: 1.0,
        family_size_cap: 1, // one true mRNA per family here
        mutation_rate: 0.0,
        flip_prob: 0.0,
        utr_len: 40,
        ..TranscriptomeConfig::tiny(7)
    });

    // 1. Sequencing: Illumina-style FASTQ reads per mRNA (declining
    //    qualities, errors concentrated in the tails), plus junk
    //    artifacts the cleaning stage must remove.
    let mut raw: Vec<FastqRecord> = Vec::new();
    for (i, rec) in data.transcripts.iter().enumerate() {
        let mut r = simulate_fastq_reads(&rec.seq, 12.0, 120, 100 + i as u64);
        for (k, read) in r.iter_mut().enumerate() {
            read.id = format!("g{i}_r{k}");
        }
        raw.extend(r);
    }
    let n_real = raw.len();
    for j in 0..25 {
        raw.push(
            FastqRecord::new(
                format!("junk_polya_{j}"),
                "",
                bioseq::seq::DnaSeq::from_ascii(&b"A".repeat(120)).unwrap(),
                vec![2; 120], // CASAVA flags these with Q2
            )
            .unwrap(),
        );
    }
    let mean_q: f64 = raw.iter().map(|r| r.mean_quality()).sum::<f64>() / raw.len() as f64;
    println!(
        "1. sequencing     : {} FASTQ reads ({} genuine + {} artifacts), mean Q{:.0}",
        raw.len(),
        n_real,
        raw.len() - n_real,
        mean_q
    );

    // 2. Preprocessing: sliding-window quality trimming plus a
    //    complexity filter — the Fig. 1 "data cleaning" stage.
    let before = raw.len();
    let reads: Vec<Record> = raw
        .iter()
        .filter_map(|r| r.trim_quality(8, 15.0, 6, 80))
        .filter(|r| r.seq.gc_content() > 0.15 && r.seq.gc_content() < 0.85)
        .map(FastqRecord::into_fasta)
        .collect();
    println!(
        "2. preprocessing  : {} reads kept ({} trimmed away/filtered)",
        reads.len(),
        before - reads.len()
    );

    // 3. De novo assembly — run twice on alternating halves of the
    //    reads, as pipelines do with multiple assemblers or k-mer
    //    settings (Fig. 1 lists several), then pool the outputs. The
    //    pooled set is redundant: that redundancy is exactly what
    //    blast2cap3 exists to remove.
    let assembler = Assembler::new(Cap3Params {
        min_overlap_len: 30,
        ..Default::default()
    });
    let mut half_a: Vec<Record> = Vec::new();
    let mut half_b: Vec<Record> = Vec::new();
    for (i, rec) in reads.iter().cloned().enumerate() {
        if i % 2 == 0 {
            half_a.push(rec);
        } else {
            half_b.push(rec);
        }
    }
    let mut transcripts: Vec<Record> = Vec::new();
    for (tag, half) in [("a", half_a), ("b", half_b)] {
        let assembly = assembler.assemble(&half);
        for (k, mut rec) in assembly.all_records().into_iter().enumerate() {
            rec.id = format!("asm{tag}_{k}");
            transcripts.push(rec);
        }
    }
    let stats = assembly_stats(&transcripts);
    println!(
        "3. de novo assembly: two assembler runs pooled to {} transcripts, N50 = {}bp",
        transcripts.len(),
        stats.n50
    );

    // 4. Post-processing: protein-guided redundancy removal.
    let searcher = Searcher::new(data.proteins.clone(), SearchParams::default()).unwrap();
    let queries: Vec<(String, bioseq::seq::DnaSeq)> = transcripts
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let alignments: Vec<TabularRecord> = searcher
        .search_many(&queries, 0)
        .iter()
        .map(TabularRecord::from)
        .collect();
    let guided = run_serial(&transcripts, &alignments, &Cap3Params::default());
    let final_stats = assembly_stats(&guided.output);
    println!(
        "4. blast2cap3     : {} -> {} sequences ({:.1}% reduction), N50 = {}bp",
        transcripts.len(),
        guided.output.len(),
        100.0 * guided.reduction(transcripts.len()),
        final_stats.n50
    );
    println!(
        "\nground truth: {} genes; final assembly carries {} sequences",
        data.proteins.len(),
        guided.output.len()
    );
}
