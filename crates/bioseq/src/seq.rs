//! Owned nucleotide and protein sequence types.
//!
//! Both types normalise to upper-case ASCII on construction and
//! validate against their alphabet, so downstream code (alignment,
//! assembly) can index raw bytes without re-checking.

use crate::alphabet::{complement, is_dna, is_protein};
use crate::error::{BioError, Result};
use std::fmt;

/// An owned, validated, upper-case DNA sequence.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    bytes: Vec<u8>,
}

impl DnaSeq {
    /// Builds a sequence from ASCII bytes, normalising case and
    /// validating every byte against the DNA alphabet (`ACGTN`).
    pub fn from_ascii(bytes: &[u8]) -> Result<Self> {
        let mut out = Vec::with_capacity(bytes.len());
        for (pos, &b) in bytes.iter().enumerate() {
            let u = b.to_ascii_uppercase();
            if !is_dna(u) {
                return Err(BioError::InvalidBase { byte: b, pos });
            }
            out.push(u);
        }
        Ok(DnaSeq { bytes: out })
    }

    /// Builds a sequence from bytes already known to be valid
    /// upper-case `ACGTN`.
    ///
    /// This is the hot-path constructor used by the simulator and the
    /// assembler, which only ever emit alphabet bytes.
    ///
    /// # Panics
    /// In debug builds, panics if a byte is outside the alphabet.
    pub fn from_ascii_unchecked(bytes: Vec<u8>) -> Self {
        debug_assert!(bytes.iter().all(|&b| is_dna(b) && b.is_ascii_uppercase()));
        DnaSeq { bytes }
    }

    /// Raw upper-case ASCII view of the sequence.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Sequence length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` if the sequence has no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reverse complement as a new sequence.
    pub fn reverse_complement(&self) -> DnaSeq {
        let bytes = self.bytes.iter().rev().map(|&b| complement(b)).collect();
        DnaSeq { bytes }
    }

    /// Sub-sequence covering `start..end` (half-open, base coordinates).
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, start: usize, end: usize) -> DnaSeq {
        DnaSeq {
            bytes: self.bytes[start..end].to_vec(),
        }
    }

    /// Fraction of G/C bases (0.0 for an empty sequence).
    pub fn gc_content(&self) -> f64 {
        if self.bytes.is_empty() {
            return 0.0;
        }
        let gc = self
            .bytes
            .iter()
            .filter(|&&b| b == b'G' || b == b'C')
            .count();
        gc as f64 / self.bytes.len() as f64
    }

    /// Count of ambiguous (`N`) bases.
    pub fn n_count(&self) -> usize {
        self.bytes.iter().filter(|&&b| b == b'N').count()
    }
}

impl fmt::Debug for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Sequences can be hundreds of kilobases; show a bounded prefix.
        let shown = &self.bytes[..self.bytes.len().min(32)];
        let s = std::str::from_utf8(shown).unwrap_or("<non-utf8>");
        if self.bytes.len() > 32 {
            write!(f, "DnaSeq(\"{s}…\", len={})", self.bytes.len())
        } else {
            write!(f, "DnaSeq(\"{s}\")")
        }
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::str::from_utf8(&self.bytes).map_err(|_| fmt::Error)?)
    }
}

/// An owned, validated, upper-case protein sequence.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct ProteinSeq {
    bytes: Vec<u8>,
}

impl ProteinSeq {
    /// Builds a protein from ASCII bytes, normalising case and
    /// validating against the amino-acid alphabet (20 residues, `X`, `*`).
    pub fn from_ascii(bytes: &[u8]) -> Result<Self> {
        let mut out = Vec::with_capacity(bytes.len());
        for (pos, &b) in bytes.iter().enumerate() {
            let u = b.to_ascii_uppercase();
            if !is_protein(u) {
                return Err(BioError::InvalidResidue { byte: b, pos });
            }
            out.push(u);
        }
        Ok(ProteinSeq { bytes: out })
    }

    /// Builds from bytes already known to be valid upper-case residues.
    ///
    /// # Panics
    /// In debug builds, panics if a byte is outside the alphabet.
    pub(crate) fn from_ascii_unchecked(bytes: Vec<u8>) -> Self {
        debug_assert!(bytes.iter().all(|&b| is_protein(b)));
        ProteinSeq { bytes }
    }

    /// Raw upper-case ASCII view of the residues.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` if the protein has no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl fmt::Debug for ProteinSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shown = &self.bytes[..self.bytes.len().min(32)];
        let s = std::str::from_utf8(shown).unwrap_or("<non-utf8>");
        if self.bytes.len() > 32 {
            write!(f, "ProteinSeq(\"{s}…\", len={})", self.bytes.len())
        } else {
            write!(f, "ProteinSeq(\"{s}\")")
        }
    }
}

impl fmt::Display for ProteinSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::str::from_utf8(&self.bytes).map_err(|_| fmt::Error)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ascii_normalises_case() {
        let s = DnaSeq::from_ascii(b"acgtN").unwrap();
        assert_eq!(s.as_bytes(), b"ACGTN");
    }

    #[test]
    fn from_ascii_rejects_bad_bytes_with_position() {
        let err = DnaSeq::from_ascii(b"ACGQ").unwrap_err();
        match err {
            BioError::InvalidBase { byte, pos } => {
                assert_eq!(byte, b'Q');
                assert_eq!(pos, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reverse_complement_basics() {
        let s = DnaSeq::from_ascii(b"AACGTT").unwrap();
        assert_eq!(s.reverse_complement().as_bytes(), b"AACGTT");
        let s = DnaSeq::from_ascii(b"ACGTN").unwrap();
        assert_eq!(s.reverse_complement().as_bytes(), b"NACGT");
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s = DnaSeq::from_ascii(b"ACGGTTANCA").unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn gc_content_and_n_count() {
        let s = DnaSeq::from_ascii(b"GGCCAATT").unwrap();
        assert!((s.gc_content() - 0.5).abs() < 1e-12);
        assert_eq!(s.n_count(), 0);
        let s = DnaSeq::from_ascii(b"NNNN").unwrap();
        assert_eq!(s.gc_content(), 0.0);
        assert_eq!(s.n_count(), 4);
        assert_eq!(DnaSeq::default().gc_content(), 0.0);
    }

    #[test]
    fn slicing() {
        let s = DnaSeq::from_ascii(b"ACGTACGT").unwrap();
        assert_eq!(s.slice(2, 6).as_bytes(), b"GTAC");
        assert_eq!(s.slice(0, 0).len(), 0);
    }

    #[test]
    fn protein_validation() {
        let p = ProteinSeq::from_ascii(b"mkHL*x").unwrap();
        assert_eq!(p.as_bytes(), b"MKHL*X");
        assert!(ProteinSeq::from_ascii(b"MK1").is_err());
    }

    #[test]
    fn debug_truncates_long_sequences() {
        let s = DnaSeq::from_ascii(&[b'A'; 100]).unwrap();
        let d = format!("{s:?}");
        assert!(d.contains("len=100"));
        assert!(d.len() < 100);
    }

    #[test]
    fn display_round_trips() {
        let s = DnaSeq::from_ascii(b"ACGT").unwrap();
        assert_eq!(s.to_string(), "ACGT");
        let p = ProteinSeq::from_ascii(b"MKL").unwrap();
        assert_eq!(p.to_string(), "MKL");
    }
}
