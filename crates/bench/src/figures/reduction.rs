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

use bioseq::codon::{six_frame_translations, Frame};
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

// ── ORF discovery ─────────────────────────────────────────────────
// Assembly validation — the last stage of the paper's Fig. 1 pipeline
// — checks that merged transcripts still carry long ORFs (a fused or
// chimeric transcript often breaks the reading frame), across all six
// frames.

/// One open reading frame.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Orf {
    /// The frame the ORF lies in.
    frame: Frame,
    /// Start offset in the frame's translation, in residues
    /// (position of the `M`).
    aa_start: usize,
    /// Length in residues, including the initial `M`, excluding the
    /// stop.
    aa_len: usize,
}

/// Finds every ORF of at least `min_aa` residues: a run starting at
/// `M` and ending at a stop (`*`) or the end of the translation.
fn find_orfs(dna: &DnaSeq, min_aa: usize) -> Vec<Orf> {
    let mut out = Vec::new();
    for (frame, prot) in six_frame_translations(dna) {
        let bytes = prot.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            if bytes[i] != b'M' {
                i += 1;
                continue;
            }
            // Extend to the next stop or end.
            let mut j = i;
            while j < bytes.len() && bytes[j] != b'*' {
                j += 1;
            }
            let len = j - i;
            if len >= min_aa {
                out.push(Orf {
                    frame,
                    aa_start: i,
                    aa_len: len,
                });
            }
            // Restart after this ORF's stop; nested Ms inside it are
            // sub-ORFs of the same stop and shorter, so skip them.
            i = j + 1;
        }
    }
    out.sort_by(|a, b| b.aa_len.cmp(&a.aa_len).then(a.frame.0.cmp(&b.frame.0)));
    out
}

/// The longest ORF, if any reaches `min_aa` residues.
fn longest_orf(dna: &DnaSeq, min_aa: usize) -> Option<Orf> {
    find_orfs(dna, min_aa).into_iter().next()
}

/// Fraction of `records` carrying an ORF of at least `min_aa`
/// residues — the coding-completeness metric used to compare an
/// assembly before and after merging.
fn coding_fraction(records: &[Record], min_aa: usize) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let coding = records
        .iter()
        .filter(|r| longest_orf(&r.seq, min_aa).is_some())
        .count();
    coding as f64 / records.len() as f64
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
    let coding_before = coding_fraction(&data.transcripts, 30);
    let coding_after = coding_fraction(&report.output, 30);
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

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::codon::reverse_translate;
    use bioseq::seq::ProteinSeq;

    #[test]
    fn finds_a_simple_forward_orf() {
        // M + 9 residues + stop, in frame +1.
        let prot = ProteinSeq::from_ascii(b"MKWVLLLFAA").unwrap();
        let mut dna_bytes = reverse_translate(&prot, |i| i).as_bytes().to_vec();
        dna_bytes.extend_from_slice(b"TAA");
        let dna = DnaSeq::from_ascii_unchecked(dna_bytes);
        let orf = longest_orf(&dna, 5).expect("orf found");
        assert_eq!(orf.frame, Frame(1));
        assert_eq!(orf.aa_start, 0);
        assert_eq!(orf.aa_len, 10);
    }

    #[test]
    fn finds_reverse_strand_orfs() {
        let prot = ProteinSeq::from_ascii(b"MKWVLLLFAARNDC").unwrap();
        let mut dna_bytes = reverse_translate(&prot, |i| i * 2).as_bytes().to_vec();
        dna_bytes.extend_from_slice(b"TGA");
        let fwd = DnaSeq::from_ascii_unchecked(dna_bytes);
        let rc = fwd.reverse_complement();
        let orf = longest_orf(&rc, 10).expect("orf on reverse strand");
        assert!(!orf.frame.is_forward());
        assert_eq!(orf.aa_len, 14);
    }

    #[test]
    fn min_length_filters() {
        let prot = ProteinSeq::from_ascii(b"MKW").unwrap();
        let dna = reverse_translate(&prot, |i| i);
        assert!(longest_orf(&dna, 4).is_none());
        assert!(longest_orf(&dna, 3).is_some());
    }

    #[test]
    fn orf_without_stop_extends_to_translation_end() {
        let prot = ProteinSeq::from_ascii(b"MAAAAAAAAA").unwrap();
        let dna = reverse_translate(&prot, |i| i);
        let orf = longest_orf(&dna, 5).unwrap();
        assert_eq!(orf.aa_len, 10);
    }

    #[test]
    fn multiple_orfs_sorted_longest_first() {
        // Two ORFs in frame +1 separated by a stop: M AAAA * M AA.
        let p1 = ProteinSeq::from_ascii(b"MAAAA").unwrap();
        let p2 = ProteinSeq::from_ascii(b"MAA").unwrap();
        let mut bytes = reverse_translate(&p1, |i| i).as_bytes().to_vec();
        bytes.extend_from_slice(b"TAA");
        bytes.extend_from_slice(reverse_translate(&p2, |i| i).as_bytes());
        bytes.extend_from_slice(b"TAG");
        let dna = DnaSeq::from_ascii_unchecked(bytes);
        let orfs: Vec<Orf> = find_orfs(&dna, 2)
            .into_iter()
            .filter(|o| o.frame == Frame(1))
            .collect();
        assert_eq!(orfs.len(), 2);
        assert!(orfs[0].aa_len >= orfs[1].aa_len);
        assert_eq!(orfs[0].aa_len, 5);
        assert_eq!(orfs[1].aa_len, 3);
    }

    #[test]
    fn no_start_codon_means_no_orf() {
        // Poly-G translates to poly-G: no M anywhere, either strand
        // (rc is poly-C -> P).
        let dna = DnaSeq::from_ascii_unchecked(b"G".repeat(60));
        assert!(find_orfs(&dna, 1).is_empty());
    }

    #[test]
    fn coding_fraction_over_records() {
        let prot = ProteinSeq::from_ascii(b"MKWVLLLFAA").unwrap();
        let coding = Record::new("c", "", reverse_translate(&prot, |i| i));
        let junk = Record::new("j", "", DnaSeq::from_ascii_unchecked(b"G".repeat(60)));
        let f = coding_fraction(&[coding, junk], 5);
        assert!((f - 0.5).abs() < 1e-12);
        assert_eq!(coding_fraction(&[], 5), 0.0);
    }

    #[test]
    fn merged_transcript_preserves_orf() {
        // blast2cap3's promise: merging fragments of one gene keeps
        // the reading frame. Simulate: full CDS vs its consensus from
        // the assembler path is covered elsewhere; here just check an
        // mRNA with UTRs still reports its ORF.
        let prot = ProteinSeq::from_ascii(b"MKWVLLLFAARNDCEQGHIK").unwrap();
        let mut bytes = b"GGCC".to_vec(); // 5' UTR shifts the frame
        bytes.extend_from_slice(reverse_translate(&prot, |i| i).as_bytes());
        bytes.extend_from_slice(b"TAACCGG");
        let dna = DnaSeq::from_ascii_unchecked(bytes);
        let orf = longest_orf(&dna, 15).expect("orf across UTRs");
        assert_eq!(orf.aa_len, 20);
        assert_eq!(orf.frame, Frame(2), "4-base UTR puts the CDS in +2... ");
    }
}
