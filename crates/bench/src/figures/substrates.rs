//! Micro-timings of the four substrate kernels no ledger metric
//! isolates: FASTA parsing, k-mer iteration, the translated search of
//! one transcript, and the overlap assembly of one cluster. The "is
//! the infrastructure itself fast enough to be credible" numbers; the
//! DAX round trip and raw engine throughput are the ledger's
//! `dax.parse_s` and `engine.simulate_s`.
//!
//! No verb reproduces it: no `pegasus` verb runs a real kernel.

use bioseq::fasta;
use bioseq::kmer::KmerIter;
use bioseq::simulate::{generate, TranscriptomeConfig};
use blastx::search::{SearchParams, Searcher};
use cap3::{Assembler, Cap3Params};

pub fn run() {
    let data = generate(&TranscriptomeConfig {
        n_families: 40,
        ..TranscriptomeConfig::tiny(3)
    });

    let fasta_text = fasta::to_string(&data.transcripts);
    timed("substrates/fasta_parse", 10, || {
        fasta::parse_str(&fasta_text).unwrap().len()
    });

    // K-mer iteration over the whole transcript set.
    timed("substrates/kmer_iteration_k16", 10, || {
        data.transcripts
            .iter()
            .map(|r| KmerIter::new(r.seq.as_bytes(), 16).unwrap().count())
            .sum::<usize>()
    });

    // Translated search of one transcript against the protein DB.
    let searcher = Searcher::new(data.proteins.clone(), SearchParams::default()).unwrap();
    let query = &data.transcripts[0];
    timed("substrates/blastx_search_one", 10, || {
        searcher.search_one(&query.id, &query.seq).len()
    });

    // CAP3 assembly of one family-sized cluster.
    let family0: Vec<_> = data
        .transcripts
        .iter()
        .zip(&data.truth)
        .filter(|(_, &f)| f == 0)
        .map(|(r, _)| r.clone())
        .collect();
    let asm = Assembler::new(Cap3Params::default());
    timed("substrates/cap3_assemble_cluster", 10, || {
        asm.assemble(&family0).output_count()
    });
}

/// Prints the mean wall time of `passes` calls of `f`, after one
/// untimed warm-up call.
fn timed<O>(label: &str, passes: u32, mut f: impl FnMut() -> O) {
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..passes {
        std::hint::black_box(f());
    }
    outln!("{label}: mean {:?}", start.elapsed() / passes.max(1));
}
