//! DUST-style low-complexity masking.
//!
//! BLAST masks low-complexity query regions (poly-A tails, simple
//! repeats) before seeding, because such regions generate mountains of
//! spurious hits. This is the classic symmetric-DUST scheme: score a
//! window by its triplet-composition concentration and mask windows
//! whose score exceeds a threshold.
//!
//! The score of a window with triplet counts `c_t` is
//! `sum_t c_t * (c_t - 1) / 2` divided by `(L - 1)` where `L` is the
//! number of triplets in the window; a uniform-random window scores
//! ≈ 0.5, a homopolymer scores ≈ `(L - 1) / 2`.

use crate::alphabet::base_code;
use crate::seq::DnaSeq;

/// Window length in bases (DUST uses 64).
const WINDOW: usize = 64;

/// Score threshold (DUST level 20 ≈ 2.0 in this scale).
const THRESHOLD: f64 = 2.0;

/// Triplet-concentration score of a base window; 0.0 for windows with
/// fewer than two triplets or with ambiguous bases only.
pub(crate) fn window_score(window: &[u8]) -> f64 {
    if window.len() < 4 {
        return 0.0;
    }
    let mut counts = [0u32; 64];
    let mut triplets = 0u32;
    for w in window.windows(3) {
        let (Some(a), Some(b), Some(c)) = (base_code(w[0]), base_code(w[1]), base_code(w[2]))
        else {
            continue;
        };
        counts[(a as usize) * 16 + (b as usize) * 4 + c as usize] += 1;
        triplets += 1;
    }
    if triplets < 2 {
        return 0.0;
    }
    let sum: u64 = counts
        .iter()
        .map(|&c| (c as u64) * (c as u64).saturating_sub(1) / 2)
        .sum();
    sum as f64 / (triplets - 1) as f64
}

/// Masked intervals `[start, end)` of `seq`; overlapping windows are
/// merged.
fn dust_intervals(seq: &[u8]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < seq.len() {
        let end = (i + WINDOW).min(seq.len());
        if window_score(&seq[i..end]) > THRESHOLD {
            match out.last_mut() {
                Some(last) if last.1 >= i => last.1 = end,
                _ => out.push((i, end)),
            }
        }
        // Half-window stride balances sensitivity and cost.
        i += WINDOW / 2;
    }
    out
}

/// Returns a copy of `seq` with low-complexity regions replaced by `N`.
///
/// ```
/// use bioseq::dust::dust_mask;
/// use bioseq::seq::DnaSeq;
///
/// let poly_a = DnaSeq::from_ascii(&b"A".repeat(100)).unwrap();
/// let masked = dust_mask(&poly_a);
/// assert!(masked.as_bytes().iter().all(|&b| b == b'N'));
/// ```
pub fn dust_mask(seq: &DnaSeq) -> DnaSeq {
    let mut bytes = seq.as_bytes().to_vec();
    for (s, e) in dust_intervals(seq.as_bytes()) {
        bytes[s..e].fill(b'N');
    }
    DnaSeq::from_ascii_unchecked(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dna(seed: u64, len: usize) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(seed);
        DnaSeq::from_ascii_unchecked(
            (0..len)
                .map(|_| crate::alphabet::DNA_BASES[rng.gen_range(0..4)])
                .collect(),
        )
    }

    #[test]
    fn homopolymer_scores_high_random_scores_low() {
        let poly_a = vec![b'A'; 64];
        assert!(window_score(&poly_a) > 20.0);
        let random = random_dna(1, 64);
        assert!(window_score(random.as_bytes()) < 1.5);
        // Dinucleotide repeat is also low complexity.
        let at: Vec<u8> = b"AT".repeat(32);
        assert!(window_score(&at) > 10.0);
    }

    #[test]
    fn short_and_ambiguous_windows_score_zero() {
        assert_eq!(window_score(b"ACG"), 0.0);
        assert_eq!(window_score(&[b'N'; 64]), 0.0);
    }

    #[test]
    fn poly_a_tail_is_masked_random_body_is_not() {
        let mut bytes = random_dna(2, 200).as_bytes().to_vec();
        bytes.extend_from_slice(&[b'A'; 80]);
        let seq = DnaSeq::from_ascii_unchecked(bytes);
        let masked = dust_mask(&seq);
        // The tail is now N.
        let tail = &masked.as_bytes()[220..];
        assert!(tail.iter().all(|&b| b == b'N'), "tail must be masked");
        // The head is untouched.
        assert_eq!(&masked.as_bytes()[..160], &seq.as_bytes()[..160]);
    }

    #[test]
    fn fully_random_sequence_is_untouched() {
        let seq = random_dna(3, 500);
        let masked = dust_mask(&seq);
        assert_eq!(masked, seq);
    }

    #[test]
    fn fully_repetitive_sequence_is_fully_masked() {
        let seq = DnaSeq::from_ascii_unchecked(b"CA".repeat(100));
        let masked = dust_mask(&seq);
        assert!(masked.as_bytes().iter().all(|&b| b == b'N'));
    }

    #[test]
    fn intervals_merge_overlaps() {
        let seq: Vec<u8> = [b"ACGT".repeat(10), b"A".repeat(200).to_vec()].concat();
        let iv = dust_intervals(&seq);
        assert_eq!(iv.len(), 1, "contiguous masked windows must merge: {iv:?}");
    }

    #[test]
    fn empty_sequence() {
        assert_eq!(dust_mask(&DnaSeq::default()), DnaSeq::default());
        assert!(dust_intervals(b"").is_empty());
    }
}
