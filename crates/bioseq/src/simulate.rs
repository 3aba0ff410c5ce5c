//! Synthetic transcriptome generation.
//!
//! The paper's input is the Triticum urartu transcriptome (NCBI
//! BioProject PRJNA191053): 236,529 assembled transcripts whose BLASTX
//! alignment against related wheat proteins yields 1,717,454 hits.
//! That dataset is not redistributable at this scale, so this module
//! manufactures a *statistically equivalent* workload:
//!
//! * a set of ancestral **proteins** (one per gene family) plays the
//!   role of the related-species protein database;
//! * each family emits a heavy-tailed number of **transcript
//!   fragments** cut from the family's coding mRNA with guaranteed
//!   mutual overlap, so that (a) BLASTX-style alignment clusters them
//!   onto their ancestral protein and (b) a CAP3-style assembler can
//!   actually merge them — which is exactly the redundancy blast2cap3
//!   exists to remove;
//! * point mutations and strand flips provide the noise that makes
//!   identity cutoffs meaningful.
//!
//! All randomness is driven by a caller-supplied seed, so every
//! experiment in the repository is reproducible.

use crate::codon::reverse_translate;
use crate::fasta::Record;
use crate::seq::{DnaSeq, ProteinSeq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inclusive range of protein lengths, in residues.
const PROTEIN_LEN: (usize, usize) = (60, 120);

/// Pareto shape of the transcripts-per-family distribution; smaller
/// values give heavier tails, and the paper's data clusters very
/// unevenly.
const FAMILY_SIZE_SHAPE: f64 = 1.3;

/// Minimum overlap, in bases, between consecutive fragments of a
/// family's mRNA (above CAP3's default 40-base overlap cutoff).
const MIN_OVERLAP: usize = 60;

/// Configuration for synthetic transcriptome generation.
#[derive(Debug, Clone)]
pub struct TranscriptomeConfig {
    /// Number of gene families (== number of database proteins).
    pub n_families: usize,
    /// Mean transcripts per family (the Pareto scale is derived from
    /// this and the fixed shape 1.3).
    pub family_size_mean: f64,
    /// Hard cap on transcripts per family.
    pub family_size_cap: usize,
    /// Per-base substitution probability applied to each fragment.
    pub mutation_rate: f64,
    /// Probability that a fragment is emitted reverse-complemented.
    pub flip_prob: f64,
    /// Length of untranslated padding added before/after the CDS.
    pub utr_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TranscriptomeConfig {
    /// A small configuration suitable for unit tests, and the base
    /// every caller overrides fields of.
    pub fn tiny(seed: u64) -> Self {
        TranscriptomeConfig {
            n_families: 12,
            family_size_mean: 3.0,
            family_size_cap: 8,
            mutation_rate: 0.004,
            flip_prob: 0.15,
            utr_len: 30,
            seed,
        }
    }
}

/// A generated workload: protein database, transcript set, and the
/// ground-truth family of every transcript.
#[derive(Debug, Clone)]
pub struct SyntheticTranscriptome {
    /// The protein database, one entry per family (`prot_<family>`).
    pub proteins: Vec<(String, ProteinSeq)>,
    /// The redundant transcript set (`tx_<family>_<ordinal>`).
    pub transcripts: Vec<Record>,
    /// `truth[i]` is the family index of `transcripts[i]`.
    pub truth: Vec<usize>,
}

/// Draws a family size: a Pareto-distributed integer in `1..=cap` with
/// shape 1.3, scaled so that its mean is approximately `mean`.
pub fn family_size(rng: &mut StdRng, mean: f64, cap: usize) -> usize {
    // Pareto(x_m, alpha) has mean alpha*x_m/(alpha-1) for alpha > 1.
    let alpha = FAMILY_SIZE_SHAPE;
    let x_m = mean * (alpha - 1.0) / alpha;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let v = x_m / u.powf(1.0 / alpha);
    (v.round() as usize).clamp(1, cap)
}

/// Generates a random protein with mildly non-uniform residue usage
/// (leucine-rich, tryptophan-poor, like real proteomes).
fn random_protein(rng: &mut StdRng, len: usize) -> ProteinSeq {
    // Weighted residue pool: common residues repeated more often.
    const POOL: &[u8] = b"AAAALLLLLLGGGGVVVVSSSSEEEKKKIIITTTDDRRPPNNFFQQYHMCW";
    let bytes: Vec<u8> = (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len())])
        .collect();
    ProteinSeq::from_ascii_unchecked(bytes)
}

fn random_utr(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| crate::alphabet::DNA_BASES[rng.gen_range(0..4)])
        .collect()
}

fn mutate(rng: &mut StdRng, seq: &mut [u8], rate: f64) {
    if rate <= 0.0 {
        return;
    }
    for b in seq.iter_mut() {
        if rng.gen_bool(rate) {
            // Substitute with a different base.
            let cur = crate::alphabet::base_code(*b);
            let mut nb = rng.gen_range(0..4u8);
            if Some(nb) == cur {
                nb = (nb + 1) % 4;
            }
            *b = crate::alphabet::code_base(nb);
        }
    }
}

/// Cuts `mrna` into `m` fragments that tile it end to end with at
/// least [`MIN_OVERLAP`] bases of overlap between neighbours.
///
/// Fragments are placed at evenly spaced ideal positions with a small
/// random forward jitter whose bound is derived so the overlap
/// guarantee holds for any jitter combination.
fn tile_fragments(rng: &mut StdRng, mrna: &[u8], m: usize) -> Vec<(usize, usize)> {
    let len = mrna.len();
    if m <= 1 || len <= MIN_OVERLAP * 2 {
        return vec![(0, len)];
    }
    // Fragment length chosen so m fragments with the required overlap
    // cover the mRNA: frag_len >= (len + (m-1)*overlap) / m.
    let frag_len = (len + (m - 1) * MIN_OVERLAP)
        .div_ceil(m)
        .max(MIN_OVERLAP * 2)
        .min(len);
    if frag_len >= len {
        return vec![(0, len)];
    }
    let span = len - frag_len;
    let step_max = span.div_ceil(m - 1);
    // Jitter bound: overlap = frag_len - (step +/- jitters) stays
    // >= MIN_OVERLAP as long as jitter <= (frag_len - overlap - step)/2.
    let slack = (frag_len - MIN_OVERLAP).saturating_sub(step_max) / 2;
    let mut out = Vec::with_capacity(m);
    for i in 0..m {
        let ideal = i * span / (m - 1);
        let jitter = if slack > 0 && i != 0 && i != m - 1 {
            rng.gen_range(0..=slack)
        } else {
            0
        };
        let start = (ideal + jitter).min(span);
        out.push((start, start + frag_len));
    }
    out
}

/// Generates a synthetic transcriptome per `cfg`.
pub fn generate(cfg: &TranscriptomeConfig) -> SyntheticTranscriptome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut proteins = Vec::with_capacity(cfg.n_families);
    let mut transcripts = Vec::new();
    let mut truth = Vec::new();

    for fam in 0..cfg.n_families {
        let plen = rng.gen_range(PROTEIN_LEN.0..=PROTEIN_LEN.1);
        let protein = random_protein(&mut rng, plen);
        // Reverse-translate with randomised codon choice so family
        // members differ from other families at the DNA level.
        let mut codon_rng =
            StdRng::seed_from_u64(cfg.seed ^ (fam as u64).wrapping_mul(0x9E37_79B9));
        let cds = reverse_translate(&protein, |_| codon_rng.gen_range(0..6usize));
        let mut mrna = random_utr(&mut rng, cfg.utr_len);
        mrna.extend_from_slice(cds.as_bytes());
        mrna.extend_from_slice(&random_utr(&mut rng, cfg.utr_len));

        let m = family_size(&mut rng, cfg.family_size_mean, cfg.family_size_cap);
        let windows = tile_fragments(&mut rng, &mrna, m);
        for (ord, (s, e)) in windows.iter().enumerate() {
            let mut frag = mrna[*s..*e].to_vec();
            mutate(&mut rng, &mut frag, cfg.mutation_rate);
            let mut seq = DnaSeq::from_ascii_unchecked(frag);
            if rng.gen_bool(cfg.flip_prob) {
                seq = seq.reverse_complement();
            }
            transcripts.push(Record::new(
                format!("tx_{fam}_{ord}"),
                format!("family={fam} span={s}-{e}"),
                seq,
            ));
            truth.push(fam);
        }
        proteins.push((format!("prot_{fam}"), protein));
    }

    SyntheticTranscriptome {
        proteins,
        transcripts,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codon::{six_frame_translations, translate_frame};

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&TranscriptomeConfig::tiny(7));
        let b = generate(&TranscriptomeConfig::tiny(7));
        assert_eq!(a.transcripts, b.transcripts);
        assert_eq!(a.proteins.len(), b.proteins.len());
        let c = generate(&TranscriptomeConfig::tiny(8));
        assert_ne!(a.transcripts, c.transcripts);
    }

    #[test]
    fn every_family_has_at_least_one_transcript() {
        let t = generate(&TranscriptomeConfig::tiny(1));
        let mut sizes = vec![0usize; t.proteins.len()];
        for &f in &t.truth {
            sizes[f] += 1;
        }
        assert_eq!(sizes.len(), 12);
        assert!(sizes.iter().all(|&s| s >= 1));
        assert_eq!(sizes.iter().sum::<usize>(), t.transcripts.len());
        assert_eq!(t.truth.len(), t.transcripts.len());
    }

    #[test]
    fn fragments_of_unmutated_family_contain_protein_signal() {
        // With zero mutation and no flips, the first fragment's frame
        // translation must contain a long run of the ancestral protein.
        let cfg = TranscriptomeConfig {
            mutation_rate: 0.0,
            flip_prob: 0.0,
            n_families: 3,
            utr_len: 0,
            ..TranscriptomeConfig::tiny(42)
        };
        let t = generate(&cfg);
        for (i, rec) in t.transcripts.iter().enumerate() {
            let fam = t.truth[i];
            let prot = &t.proteins[fam].1;
            let prot_str = String::from_utf8(prot.as_bytes().to_vec()).unwrap();
            // One of the frames must align to a window of the protein:
            // check that some 15-residue window of a frame translation
            // occurs in the ancestral protein.
            let mut found = false;
            for off in 0..3 {
                let tr = translate_frame(&rec.seq, off);
                let trb = tr.as_bytes();
                if trb.len() >= 15 {
                    for w in trb.windows(15) {
                        if prot_str.contains(std::str::from_utf8(w).unwrap()) {
                            found = true;
                            break;
                        }
                    }
                }
                if found {
                    break;
                }
            }
            assert!(found, "transcript {} lost its protein signal", rec.id);
        }
    }

    #[test]
    fn flipped_fragments_recover_signal_on_reverse_frames() {
        let cfg = TranscriptomeConfig {
            mutation_rate: 0.0,
            flip_prob: 1.0,
            n_families: 2,
            utr_len: 0,
            ..TranscriptomeConfig::tiny(11)
        };
        let t = generate(&cfg);
        let rec = &t.transcripts[0];
        let prot = &t.proteins[t.truth[0]].1;
        let prot_str = String::from_utf8(prot.as_bytes().to_vec()).unwrap();
        let mut found = false;
        for (frame, tr) in six_frame_translations(&rec.seq) {
            if frame.is_forward() {
                continue;
            }
            let trb = tr.as_bytes();
            if trb.len() >= 15 {
                for w in trb.windows(15) {
                    if prot_str.contains(std::str::from_utf8(w).unwrap()) {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "reverse frames should carry the protein signal");
    }

    #[test]
    fn consecutive_fragments_overlap_by_construction() {
        let mut rng = StdRng::seed_from_u64(3);
        let mrna = vec![b'A'; 1000];
        let wins = tile_fragments(&mut rng, &mrna, 6);
        assert!(wins.len() >= 2);
        for pair in wins.windows(2) {
            let (_, e0) = pair[0];
            let (s1, _) = pair[1];
            assert!(e0 >= s1 + MIN_OVERLAP, "overlap too small: {pair:?}");
        }
        // Full coverage of the template.
        assert_eq!(wins[0].0, 0);
        assert_eq!(wins.last().unwrap().1, 1000);
    }

    #[test]
    fn pareto_sizes_are_heavy_tailed_but_bounded() {
        let mut rng = StdRng::seed_from_u64(5);
        let sizes: Vec<usize> = (0..5000).map(|_| family_size(&mut rng, 4.0, 64)).collect();
        assert!(sizes.iter().all(|&s| (1..=64).contains(&s)));
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean > 1.5 && mean < 8.0, "mean={mean}");
        // Heavy tail: some family should be much larger than the mean.
        assert!(*sizes.iter().max().unwrap() >= 16);
    }

    #[test]
    fn mutation_rate_zero_means_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seq = b"ACGTACGT".to_vec();
        mutate(&mut rng, &mut seq, 0.0);
        assert_eq!(seq, b"ACGTACGT");
    }

    #[test]
    fn mutation_changes_bases_at_high_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seq = vec![b'A'; 1000];
        mutate(&mut rng, &mut seq, 1.0);
        assert!(seq.iter().all(|&b| b != b'A'));
        assert!(seq.iter().all(|&b| crate::alphabet::base_code(b).is_some()));
    }
}
