//! The FASTQ record and quality-based preprocessing.
//!
//! The paper's dataset was "sequenced using the 100 bp paired-end
//! protocol on ... Illumina HiSeq2000 machines" and base-called with
//! CASAVA — i.e. the raw input to Fig. 1's preprocessing stage is
//! FASTQ. This module provides the record (a sequence with per-base
//! Phred scores) and the sliding-window quality trimming that "data
//! cleaning" tools (Trimmomatic, Sickle) perform.

use crate::error::{BioError, Result};
use crate::fasta::Record;
use crate::seq::DnaSeq;

/// Highest sane Phred score (Illumina caps around Q41; we allow Q60).
pub(crate) const MAX_PHRED: u8 = 60;

/// A FASTQ record: sequence plus per-base Phred qualities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Identifier (text after `@`, before whitespace).
    pub id: String,
    /// Remainder of the header line.
    pub(crate) desc: String,
    /// The bases.
    pub seq: DnaSeq,
    /// Phred scores (NOT ASCII-encoded), one per base.
    pub(crate) qual: Vec<u8>,
}

impl FastqRecord {
    /// Creates a record, validating that qualities match the sequence
    /// length and stay within the Phred range.
    pub fn new(
        id: impl Into<String>,
        desc: impl Into<String>,
        seq: DnaSeq,
        qual: Vec<u8>,
    ) -> Result<Self> {
        if qual.len() != seq.len() {
            return Err(BioError::MalformedFasta {
                line: 0,
                reason: format!(
                    "quality length {} != sequence length {}",
                    qual.len(),
                    seq.len()
                ),
            });
        }
        if let Some(&q) = qual.iter().find(|&&q| q > MAX_PHRED) {
            return Err(BioError::MalformedFasta {
                line: 0,
                reason: format!("phred score {q} above {MAX_PHRED}"),
            });
        }
        Ok(FastqRecord {
            id: id.into(),
            desc: desc.into(),
            seq,
            qual,
        })
    }

    /// Mean Phred score (0.0 for an empty read).
    pub fn mean_quality(&self) -> f64 {
        if self.qual.is_empty() {
            return 0.0;
        }
        self.qual.iter().map(|&q| q as f64).sum::<f64>() / self.qual.len() as f64
    }

    /// Drops the quality track, yielding a FASTA record.
    pub fn into_fasta(self) -> Record {
        Record::new(self.id, self.desc, self.seq)
    }

    /// Trims the read with a sliding window: scanning from the 5' end,
    /// the read is cut at the first window of `window` bases whose
    /// mean quality falls below `min_mean_q`; leading bases below
    /// `min_lead_q` are removed first. Returns `None` when fewer than
    /// `min_len` bases survive.
    pub fn trim_quality(
        &self,
        window: usize,
        min_mean_q: f64,
        min_lead_q: u8,
        min_len: usize,
    ) -> Option<FastqRecord> {
        let n = self.qual.len();
        let start = self.qual.iter().position(|&q| q >= min_lead_q).unwrap_or(n);
        let mut end = n;
        if window > 0 && start < n {
            let w = window.min(n - start);
            let mut i = start;
            while i + w <= n {
                let mean: f64 =
                    self.qual[i..i + w].iter().map(|&q| q as f64).sum::<f64>() / w as f64;
                if mean < min_mean_q {
                    end = i;
                    break;
                }
                i += 1;
            }
        }
        if end <= start || end - start < min_len {
            return None;
        }
        Some(FastqRecord {
            id: self.id.clone(),
            desc: self.desc.clone(),
            seq: self.seq.slice(start, end),
            qual: self.qual[start..end].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, seq: &str, quals: &[u8]) -> FastqRecord {
        FastqRecord::new(
            id,
            "",
            DnaSeq::from_ascii(seq.as_bytes()).unwrap(),
            quals.to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_range() {
        assert!(
            FastqRecord::new("a", "", DnaSeq::from_ascii(b"ACGT").unwrap(), vec![30; 3]).is_err()
        );
        assert!(
            FastqRecord::new("a", "", DnaSeq::from_ascii(b"ACGT").unwrap(), vec![99; 4]).is_err()
        );
        assert!(rec("a", "ACGT", &[30, 30, 30, 30]).mean_quality() == 30.0);
        assert_eq!(rec("e", "", &[]).mean_quality(), 0.0);
    }

    #[test]
    fn trimming_cuts_low_quality_tail() {
        // 8 good bases then 4 terrible ones. The cut lands at the
        // start of the first window whose mean falls below the
        // threshold: windows at 5 (mean 29) and 6 (mean 20) pass, the
        // window at 7 (mean 11) fails, so 7 bases survive.
        let quals = [38, 38, 38, 38, 38, 38, 38, 38, 2, 2, 2, 2];
        let r = rec("a", "ACGTACGTACGT", &quals);
        let t = r.trim_quality(4, 20.0, 10, 4).unwrap();
        assert_eq!(t.seq.len(), 7);
        assert_eq!(t.qual.len(), 7);
        assert_eq!(t.seq.as_bytes(), b"ACGTACG");
    }

    #[test]
    fn trimming_removes_bad_leading_bases() {
        let quals = [2, 2, 38, 38, 38, 38, 38, 38];
        let r = rec("a", "NNACGTAC", &quals);
        let t = r.trim_quality(4, 20.0, 10, 4).unwrap();
        assert_eq!(t.seq.as_bytes(), b"ACGTAC");
    }

    #[test]
    fn trimming_rejects_hopeless_reads() {
        let quals = [2u8; 10];
        let r = rec("junk", "ACGTACGTAC", &quals);
        assert!(r.trim_quality(4, 20.0, 10, 4).is_none());
        // Survivor shorter than min_len is also rejected.
        let quals = [38, 38, 2, 2, 2, 2, 2, 2, 2, 2];
        let r = rec("short", "ACGTACGTAC", &quals);
        assert!(r.trim_quality(2, 20.0, 10, 4).is_none());
    }

    #[test]
    fn perfect_read_is_untouched() {
        let r = rec("good", "ACGTACGT", &[40; 8]);
        let t = r.trim_quality(4, 20.0, 10, 4).unwrap();
        assert_eq!(t, r);
    }

    #[test]
    fn into_fasta_drops_quality() {
        let r = rec("x", "ACGT", &[40; 4]);
        let f = r.clone().into_fasta();
        assert_eq!(f.id, "x");
        assert_eq!(f.seq, r.seq);
    }
}
