//! Pairwise overlap detection.
//!
//! Candidate diagonals between two reads are found by voting with
//! shared k-mers; the best few diagonals are then evaluated exactly by
//! counting identities over the implied overlap region. This is the
//! substitution-tolerant, indel-light regime of transcript merging —
//! the same regime CAP3's banded alignment targets — at a fraction of
//! the cost.

use crate::params::{Cap3Params, DIAGONAL_SLOP, MAX_BUCKET, MIN_SEED_VOTES, SEED_K};
use bioseq::fxhash::FxHashMap;
use bioseq::kmer::KmerIter;

/// An accepted overlap between oriented read `a` (forward) and read
/// `b` in orientation `flip` (false = forward, true = reverse
/// complement), with `b` starting at position `shift` of `a`'s frame
/// (negative when `b` hangs off `a`'s left end).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Overlap {
    /// Index of read `a` in the caller's read set.
    pub(crate) a: u32,
    /// Index of read `b`.
    pub(crate) b: u32,
    /// Orientation of `b` relative to `a`.
    pub(crate) flip: bool,
    /// Start position of oriented `b` in `a`'s coordinate frame.
    pub(crate) shift: isize,
    /// Overlap length in bases.
    pub(crate) len: usize,
    /// Percent identity over the overlap.
    pub(crate) identity: f64,
}

impl Overlap {
    /// Score used to rank competing overlaps.
    pub(crate) fn score(&self) -> f64 {
        self.len as f64 * self.identity / 100.0
    }
}

/// Evaluates the overlap between `a` and `b` implied by diagonal
/// `shift` (`b[i]` pairs with `a[i + shift]`), returning
/// `(length, identity_percent)`; length 0 when the diagonal implies no
/// overlap.
pub(crate) fn evaluate_diagonal(a: &[u8], b: &[u8], shift: isize) -> (usize, f64) {
    let a_len = a.len() as isize;
    let b_len = b.len() as isize;
    let start_a = shift.max(0);
    let end_a = (shift + b_len).min(a_len);
    if end_a <= start_a {
        return (0, 0.0);
    }
    let len = (end_a - start_a) as usize;
    let mut matches = 0usize;
    for p in start_a..end_a {
        let qa = a[p as usize];
        let qb = b[(p - shift) as usize];
        if qa == qb && qa != b'N' {
            matches += 1;
        }
    }
    (len, 100.0 * matches as f64 / len as f64)
}

/// Finds the best acceptable overlap between `a` (forward) and the
/// oriented bytes of `b`, or `None` if no diagonal passes the cutoffs.
///
/// `a_idx`/`b_idx`/`flip` are carried through into the returned
/// [`Overlap`] untouched.
pub(crate) fn detect(
    a: &[u8],
    b: &[u8],
    a_idx: u32,
    b_idx: u32,
    flip: bool,
    params: &Cap3Params,
) -> Option<Overlap> {
    if a.len() < params.min_overlap_len || b.len() < params.min_overlap_len {
        return None;
    }
    // Index a's k-mers.
    let mut index: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (pos, km) in KmerIter::new(a, SEED_K).ok()? {
        index.entry(km).or_default().push(pos);
    }
    // Vote on diagonals with b's k-mers.
    let mut votes: FxHashMap<isize, usize> = FxHashMap::default();
    for (bpos, km) in KmerIter::new(b, SEED_K).ok()? {
        if let Some(apositions) = index.get(&km) {
            if apositions.len() > MAX_BUCKET {
                continue;
            }
            for &apos in apositions {
                *votes.entry(apos as isize - bpos as isize).or_insert(0) += 1;
            }
        }
    }
    if votes.is_empty() {
        return None;
    }
    // Evaluate the most-voted diagonals (plus slop neighbours).
    let mut ranked: Vec<(isize, usize)> = votes
        .iter()
        .filter(|&(_, &v)| v >= MIN_SEED_VOTES)
        .map(|(&d, &v)| (d, v))
        .collect();
    ranked.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    ranked.truncate(4);

    let mut best: Option<Overlap> = None;
    for (d, _) in ranked {
        let lo = d - DIAGONAL_SLOP as isize;
        let hi = d + DIAGONAL_SLOP as isize;
        for shift in lo..=hi {
            let (len, identity) = evaluate_diagonal(a, b, shift);
            if len < params.min_overlap_len || identity < params.min_overlap_identity {
                continue;
            }
            let cand = Overlap {
                a: a_idx,
                b: b_idx,
                flip,
                shift,
                len,
                identity,
            };
            if best.as_ref().is_none_or(|b0| cand.score() > b0.score()) {
                best = Some(cand);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::seq::DnaSeq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dna(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| bioseq::alphabet::DNA_BASES[rng.gen_range(0..4)])
            .collect()
    }

    fn params() -> Cap3Params {
        Cap3Params {
            min_overlap_len: 30,
            ..Default::default()
        }
    }

    #[test]
    fn evaluate_diagonal_counts_matches() {
        let a = b"ACGTACGTACGT";
        let b = b"ACGTACGT";
        let (len, id) = evaluate_diagonal(a, b, 0);
        assert_eq!(len, 8);
        assert!((id - 100.0).abs() < 1e-9);
        let (len, id) = evaluate_diagonal(a, b, 4);
        assert_eq!(len, 8);
        assert!((id - 100.0).abs() < 1e-9);
        // Diagonal pushing b fully past a.
        let (len, _) = evaluate_diagonal(a, b, 12);
        assert_eq!(len, 0);
        // Negative shift: b hangs off the left.
        let (len, id) = evaluate_diagonal(a, b, -4);
        assert_eq!(len, 4);
        assert!((id - 100.0).abs() < 1e-9);
    }

    #[test]
    fn n_bases_never_count_as_matches() {
        let (len, id) = evaluate_diagonal(b"NNNN", b"NNNN", 0);
        assert_eq!(len, 4);
        assert_eq!(id, 0.0);
    }

    #[test]
    fn detects_clean_suffix_prefix_overlap() {
        let mut rng = StdRng::seed_from_u64(1);
        let template = random_dna(&mut rng, 200);
        let a = &template[..120];
        let b = &template[80..];
        let ov = detect(a, b, 0, 1, false, &params()).expect("overlap");
        assert_eq!(ov.shift, 80);
        assert_eq!(ov.len, 40);
        assert!(ov.identity > 99.0);
    }

    #[test]
    fn detects_overlap_with_substitutions() {
        let mut rng = StdRng::seed_from_u64(2);
        let template = random_dna(&mut rng, 300);
        let a = &template[..200];
        let mut b = template[120..].to_vec();
        // ~2.5% substitutions in the overlap region.
        for i in (0..b.len()).step_by(40) {
            b[i] = if b[i] == b'A' { b'C' } else { b'A' };
        }
        let ov = detect(a, &b, 0, 1, false, &params()).expect("overlap survives noise");
        assert_eq!(ov.shift, 120);
        assert!(ov.identity >= 95.0);
    }

    #[test]
    fn rejects_low_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_dna(&mut rng, 100);
        let b = random_dna(&mut rng, 100);
        assert!(detect(&a, &b, 0, 1, false, &params()).is_none());
    }

    #[test]
    fn rejects_short_overlap() {
        let mut rng = StdRng::seed_from_u64(4);
        let template = random_dna(&mut rng, 200);
        let a = &template[..110];
        let b = &template[90..]; // only 20 bases shared
        assert!(detect(a, b, 0, 1, false, &params()).is_none());
    }

    #[test]
    fn containment_is_detected() {
        let mut rng = StdRng::seed_from_u64(5);
        let template = random_dna(&mut rng, 200);
        let inner = &template[50..150];
        let ov = detect(&template, inner, 0, 1, false, &params()).expect("containment");
        assert_eq!(ov.shift, 50);
        assert_eq!(ov.len, 100);
    }

    #[test]
    fn reverse_complement_overlap_via_flip() {
        let mut rng = StdRng::seed_from_u64(6);
        let template = random_dna(&mut rng, 200);
        let a = &template[..120];
        let b_fwd = DnaSeq::from_ascii(&template[80..]).unwrap();
        let b_rc = b_fwd.reverse_complement();
        // Caller passes the oriented bytes; flip is just metadata.
        let ov = detect(
            a,
            b_rc.reverse_complement().as_bytes(),
            0,
            1,
            true,
            &params(),
        )
        .expect("flip overlap");
        assert!(ov.flip);
        assert_eq!(ov.shift, 80);
    }

    #[test]
    fn reads_shorter_than_cutoff_are_skipped() {
        let a = b"ACGTACGTACGTACGTACGTACGT"; // 24 < 30
        assert!(detect(a, a, 0, 1, false, &params()).is_none());
    }

    #[test]
    fn identical_reads_fully_overlap() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_dna(&mut rng, 80);
        let ov = detect(&a, &a, 0, 1, false, &params()).expect("self overlap");
        assert_eq!(ov.shift, 0);
        assert_eq!(ov.len, 80);
        assert!((ov.identity - 100.0).abs() < 1e-9);
    }
}
