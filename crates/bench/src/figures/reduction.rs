//! §II — blast2cap3's assembly-quality claims.
//!
//! Two claims from the paper's background section, reproduced on
//! synthetic data:
//!
//! 1. blast2cap3 "reduces the total number of transcripts by 8-9%"
//!    (measured on wheat; here we report the analogous reduction on a
//!    low-redundancy synthetic transcriptome).
//! 2. blast2cap3 "generates fewer artificially fused sequences
//!    compared to assembling the entire dataset with CAP3". We inject
//!    shared repeat sequence between pairs of unrelated gene families;
//!    whole-set CAP3 happily fuses across families through the repeat,
//!    while protein-guided clustering makes such fusions impossible
//!    across clusters.
//!
//! Output: `target/experiments/reduction.csv`.
//!
//! No verb reproduces it: no `pegasus` verb runs a real kernel.

use bioseq::fasta::Record;
use bioseq::seq::DnaSeq;
use bioseq::simulate::{generate, TranscriptomeConfig};
use blast2cap3::serial::run_serial;
use blast2cap3_pegasus::experiment::synthetic_alignments;
use cap3::{Assembler, Cap3Params};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use wms_bench::{write_experiment_file, DEFAULT_SEED};

/// Family index parsed from a `tx_<fam>_<ord>` id.
fn family_of(tx_id: &str) -> Option<usize> {
    tx_id.strip_prefix("tx_")?.split('_').next()?.parse().ok()
}

/// Families represented among the reads of a contig description
/// (`... reads=a,b,c`).
fn families_in_desc(desc: &str) -> BTreeSet<usize> {
    let Some(reads) = desc.split("reads=").nth(1) else {
        return BTreeSet::new();
    };
    reads
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter_map(family_of)
        .collect()
}

fn count_fused(records: &[Record]) -> usize {
    records
        .iter()
        .filter(|r| families_in_desc(&r.desc).len() > 1)
        .count()
}

pub fn run() {
    let mut csv = String::from("experiment,metric,value\n");

    // ── Claim 1: transcript-count reduction ────────────────────────
    let cfg = TranscriptomeConfig {
        n_families: 250,
        family_size_mean: 1.35, // mostly singletons, like a cleaned assembly
        family_size_cap: 6,
        ..TranscriptomeConfig::tiny(DEFAULT_SEED)
    };
    let data = generate(&cfg);
    let alignments = synthetic_alignments(&data);
    let report = run_serial(&data.transcripts, &alignments, &Cap3Params::default());
    let reduction = report.reduction(data.transcripts.len());
    outln!(
        "claim 1: transcript reduction: {} -> {} sequences = {:.1}% (paper reports 8-9% on wheat)",
        data.transcripts.len(),
        report.output.len(),
        100.0 * reduction
    );
    // Assembly-validation check (Fig. 1 post-processing): merging must
    // not break reading frames.
    let coding_before = bioseq::orf::coding_fraction(&data.transcripts, 30);
    let coding_after = bioseq::orf::coding_fraction(&report.output, 30);
    outln!(
        "         coding fraction (ORF >= 30aa): {:.1}% before merge, {:.1}% after",
        100.0 * coding_before,
        100.0 * coding_after
    );
    csv.push_str(&format!("reduction,coding_before,{coding_before:.4}\n"));
    csv.push_str(&format!("reduction,coding_after,{coding_after:.4}\n"));
    assert!(
        coding_after >= coding_before - 0.02,
        "merging must preserve reading frames"
    );
    csv.push_str(&format!(
        "reduction,input_count,{}\n",
        data.transcripts.len()
    ));
    csv.push_str(&format!("reduction,output_count,{}\n", report.output.len()));
    csv.push_str(&format!("reduction,fraction,{reduction:.4}\n"));

    // ── Claim 2: artificially fused sequences ──────────────────────
    // Inject a distinct shared repeat between each pair of unrelated
    // families: appended to one family's transcript, prepended to the
    // other's, so whole-set CAP3 sees a clean suffix-prefix overlap.
    let cfg = TranscriptomeConfig {
        n_families: 40,
        family_size_mean: 3.0,
        family_size_cap: 8,
        ..TranscriptomeConfig::tiny(DEFAULT_SEED + 1)
    };
    let mut data = generate(&cfg);
    let mut rng = StdRng::seed_from_u64(DEFAULT_SEED + 2);
    let n_pairs = 10;
    for p in 0..n_pairs {
        let repeat: Vec<u8> = (0..150)
            .map(|_| bioseq::alphabet::DNA_BASES[rng.gen_range(0..4)])
            .collect();
        // One transcript of family 2p gets the repeat appended, one of
        // family 2p + 1 gets it prepended.
        for (family, repeat_first) in [(2 * p, false), (2 * p + 1, true)] {
            let first_of = |r: &&mut Record| family_of(&r.id) == Some(family);
            if let Some(rec) = data.transcripts.iter_mut().find(first_of) {
                let seq = rec.seq.as_bytes();
                let parts = if repeat_first {
                    [&repeat[..], seq]
                } else {
                    [seq, &repeat[..]]
                };
                rec.seq = DnaSeq::from_ascii_unchecked(parts.concat());
            }
        }
    }

    // Whole-set CAP3 (no protein guidance).
    let whole = Assembler::default().assemble(&data.transcripts);
    let whole_fused = count_fused(&whole.contigs);

    // blast2cap3 (protein-guided).
    let alignments = synthetic_alignments(&data);
    let guided = run_serial(&data.transcripts, &alignments, &Cap3Params::default());
    let guided_fused = count_fused(&guided.output);

    outln!(
        "claim 2: artificially fused contigs: whole-set CAP3 = {whole_fused}, blast2cap3 = {guided_fused} (paper: protein guidance produces fewer)"
    );
    csv.push_str(&format!("fusion,whole_set_fused,{whole_fused}\n"));
    csv.push_str(&format!("fusion,blast2cap3_fused,{guided_fused}\n"));
    assert!(
        whole_fused > guided_fused,
        "protein guidance must reduce artificial fusions ({whole_fused} vs {guided_fused})"
    );
    outln!(
        "verdict: REPRODUCED — protein guidance eliminated {} of {} repeat-induced fusions",
        whole_fused - guided_fused,
        whole_fused
    );

    let path = write_experiment_file("reduction.csv", &csv);
    outln!("series written to {}", path.display());
}
