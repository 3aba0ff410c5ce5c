//! 2-bit packed k-mer iteration over DNA.
//!
//! The CAP3-like assembler seeds candidate overlaps with shared k-mers;
//! this module provides a rolling encoder that skips windows containing
//! ambiguous (`N`) bases, exactly as seed indices in real assemblers do.

use crate::alphabet::base_code;
use crate::error::{BioError, Result};

/// A packed k-mer: the 2-bit codes of `k` bases in the low `2k` bits.
pub(crate) type PackedKmer = u64;

/// Rolling k-mer iterator over a DNA byte slice.
///
/// Yields `(start_position, packed_kmer)` for every window of `k`
/// canonical bases; windows containing `N` are skipped.
pub struct KmerIter<'a> {
    seq: &'a [u8],
    k: usize,
    mask: u64,
    /// Next position to consider as window end (exclusive).
    pos: usize,
    /// Number of valid bases accumulated in `current`.
    valid: usize,
    current: u64,
}

impl<'a> KmerIter<'a> {
    /// Creates an iterator over `seq` with window size `k` (1..=32).
    pub fn new(seq: &'a [u8], k: usize) -> Result<Self> {
        if k == 0 || k > 32 {
            return Err(BioError::BadKmerSize(k));
        }
        let mask = if k == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * k)) - 1
        };
        Ok(KmerIter {
            seq,
            k,
            mask,
            pos: 0,
            valid: 0,
            current: 0,
        })
    }
}

impl Iterator for KmerIter<'_> {
    type Item = (usize, PackedKmer);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.seq.len() {
            let b = self.seq[self.pos];
            self.pos += 1;
            match base_code(b) {
                Some(code) => {
                    self.current = ((self.current << 2) | code as u64) & self.mask;
                    self.valid += 1;
                    if self.valid >= self.k {
                        return Some((self.pos - self.k, self.current));
                    }
                }
                None => {
                    // Ambiguous base breaks the rolling window.
                    self.valid = 0;
                    self.current = 0;
                }
            }
        }
        None
    }
}

/// Unpacks a k-mer of known size back to ASCII bases.
pub fn unpack(kmer: PackedKmer, k: usize) -> Vec<u8> {
    assert!((1..=32).contains(&k), "k out of range");
    let mut out = vec![0u8; k];
    let mut v = kmer;
    for i in (0..k).rev() {
        out[i] = crate::alphabet::code_base((v & 0b11) as u8);
        v >>= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DnaSeq;

    /// Convenience: all `(position, kmer)` pairs of a sequence.
    fn kmers(seq: &DnaSeq, k: usize) -> Result<Vec<(usize, PackedKmer)>> {
        Ok(KmerIter::new(seq.as_bytes(), k)?.collect())
    }

    /// Packs a short DNA slice (length 1..=32, canonical bases only) into a
    /// k-mer, or `None` if any base is ambiguous: the naive encoder the
    /// rolling iterator is checked against.
    fn pack(seq: &[u8]) -> Option<PackedKmer> {
        if seq.is_empty() || seq.len() > 32 {
            return None;
        }
        let mut v: u64 = 0;
        for &b in seq {
            v = (v << 2) | base_code(b)? as u64;
        }
        Some(v)
    }

    #[test]
    fn iterates_all_windows() {
        let s = DnaSeq::from_ascii(b"ACGTAC").unwrap();
        let ks = kmers(&s, 3).unwrap();
        assert_eq!(ks.len(), 4);
        assert_eq!(ks[0].0, 0);
        assert_eq!(ks[0].1, pack(b"ACG").unwrap());
        assert_eq!(ks[3].1, pack(b"TAC").unwrap());
    }

    #[test]
    fn skips_windows_containing_n() {
        let s = DnaSeq::from_ascii(b"ACGNACGT").unwrap();
        let ks = kmers(&s, 3).unwrap();
        // Valid windows: ACG (0), then after the N: ACG (4), CGT (5).
        let positions: Vec<usize> = ks.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, vec![0, 4, 5]);
    }

    #[test]
    fn k_equal_to_length_yields_one() {
        let s = DnaSeq::from_ascii(b"ACGT").unwrap();
        let ks = kmers(&s, 4).unwrap();
        assert_eq!(ks.len(), 1);
        assert_eq!(unpack(ks[0].1, 4), b"ACGT");
    }

    #[test]
    fn k_larger_than_length_yields_none() {
        let s = DnaSeq::from_ascii(b"ACG").unwrap();
        assert!(kmers(&s, 4).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_k() {
        let s = DnaSeq::from_ascii(b"ACGT").unwrap();
        assert!(matches!(kmers(&s, 0), Err(BioError::BadKmerSize(0))));
        assert!(matches!(kmers(&s, 33), Err(BioError::BadKmerSize(33))));
    }

    #[test]
    fn pack_unpack_round_trip() {
        for s in [&b"A"[..], b"ACGT", b"TTTTTTTT", b"GATTACA"] {
            let packed = pack(s).unwrap();
            assert_eq!(unpack(packed, s.len()), s);
        }
        assert_eq!(pack(b"ACN"), None);
        assert_eq!(pack(b""), None);
    }

    #[test]
    fn k32_mask_does_not_overflow() {
        let s = DnaSeq::from_ascii(&b"ACGT".repeat(10)).unwrap();
        let ks = kmers(&s, 32).unwrap();
        assert_eq!(ks.len(), 40 - 32 + 1);
        assert_eq!(unpack(ks[0].1, 32), &b"ACGT".repeat(8)[..]);
    }

    #[test]
    fn rolling_matches_naive_pack() {
        let s = DnaSeq::from_ascii(b"GATTACAGATTACACCGGTT").unwrap();
        for k in [1usize, 2, 5, 11] {
            let rolled = kmers(&s, k).unwrap();
            let bytes = s.as_bytes();
            let naive: Vec<(usize, PackedKmer)> = (0..=bytes.len() - k)
                .filter_map(|i| pack(&bytes[i..i + k]).map(|km| (i, km)))
                .collect();
            assert_eq!(rolled, naive, "k={k}");
        }
    }
}
