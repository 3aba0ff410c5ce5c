//! The FASTQ record and quality-based preprocessing.
//!
//! The paper's dataset was "sequenced using the 100 bp paired-end
//! protocol on ... Illumina HiSeq2000 machines" and base-called with
//! CASAVA — i.e. the raw input to Fig. 1's preprocessing stage is
//! FASTQ. This module provides the record (a sequence with per-base
//! Phred scores), a simulator of Illumina-style reads, and the
//! sliding-window quality trimming that "data cleaning" tools
//! (Trimmomatic, Sickle) perform.

use bioseq::alphabet::{base_code, code_base};
use bioseq::fasta::Record;
use bioseq::seq::DnaSeq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Highest sane Phred score (Illumina caps around Q41; we allow Q60).
const MAX_PHRED: u8 = 60;

/// A FASTQ record: sequence plus per-base Phred qualities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Identifier (text after `@`, before whitespace).
    pub id: String,
    /// Remainder of the header line.
    desc: String,
    /// The bases.
    pub seq: DnaSeq,
    /// Phred scores (NOT ASCII-encoded), one per base.
    qual: Vec<u8>,
}

impl FastqRecord {
    /// Creates a record, validating that qualities match the sequence
    /// length and stay within the Phred range.
    pub fn new(
        id: impl Into<String>,
        desc: impl Into<String>,
        seq: DnaSeq,
        qual: Vec<u8>,
    ) -> Result<Self, String> {
        if qual.len() != seq.len() {
            let (q, s) = (qual.len(), seq.len());
            return Err(format!("quality length {q} != sequence length {s}"));
        }
        if let Some(&q) = qual.iter().find(|&&q| q > MAX_PHRED) {
            return Err(format!("phred score {q} above {MAX_PHRED}"));
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

/// Simulates Illumina-style FASTQ reads: qualities start high and
/// decay along the read (with noise), and each base's substitution
/// probability equals its Phred error probability — so trimming by
/// quality genuinely removes the error-dense tails.
pub fn simulate_fastq_reads(
    template: &DnaSeq,
    coverage: f64,
    read_len: usize,
    seed: u64,
) -> Vec<FastqRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tlen = template.len();
    if tlen == 0 || read_len == 0 {
        return Vec::new();
    }
    let rl = read_len.min(tlen);
    let n_reads = ((coverage * tlen as f64) / rl as f64).ceil() as usize;
    let mut out = Vec::with_capacity(n_reads);
    for i in 0..n_reads {
        let start = rng.gen_range(0..=tlen - rl);
        let mut bytes = template.as_bytes()[start..start + rl].to_vec();
        let mut qual = Vec::with_capacity(rl);
        for (pos, b) in bytes.iter_mut().enumerate() {
            // Quality decays from ~Q40 to ~Q10 across the read.
            let base_q = 40.0 - 30.0 * (pos as f64 / rl as f64);
            let q = (base_q + 4.0 * (rng.gen_range(0.0..1.0f64) - 0.5) * 2.0)
                .clamp(2.0, MAX_PHRED as f64) as u8;
            qual.push(q);
            let p_err = 10f64.powf(-(q as f64) / 10.0);
            if rng.gen_bool(p_err.min(0.75)) {
                let cur = base_code(*b);
                let mut nb = rng.gen_range(0..4u8);
                if Some(nb) == cur {
                    nb = (nb + 1) % 4;
                }
                *b = code_base(nb);
            }
        }
        let seq = DnaSeq::from_ascii_unchecked(bytes);
        out.push(
            FastqRecord::new(format!("read_{i}"), format!("pos={start}"), seq, qual)
                .expect("generated qualities are valid"),
        );
    }
    out
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

    #[test]
    fn fastq_reads_have_declining_quality_and_valid_structure() {
        let template = DnaSeq::from_ascii_unchecked(vec![b'A'; 600]);
        let reads = simulate_fastq_reads(&template, 8.0, 100, 17);
        assert_eq!(reads.len(), 48);
        for r in &reads {
            assert_eq!(r.qual.len(), r.seq.len());
        }
        // Head qualities beat tail qualities on average.
        let head: f64 = reads.iter().map(|r| r.qual[0] as f64).sum::<f64>() / reads.len() as f64;
        let tail: f64 = reads.iter().map(|r| r.qual[99] as f64).sum::<f64>() / reads.len() as f64;
        assert!(head > tail + 15.0, "head {head} vs tail {tail}");
        // Errors concentrate in the low-quality tail (template is
        // all-A, so any non-A base is an error).
        let errors_head: usize = reads
            .iter()
            .flat_map(|r| r.seq.as_bytes()[..50].iter())
            .filter(|&&b| b != b'A')
            .count();
        let errors_tail: usize = reads
            .iter()
            .flat_map(|r| r.seq.as_bytes()[50..].iter())
            .filter(|&&b| b != b'A')
            .count();
        assert!(
            errors_tail > errors_head * 2,
            "{errors_tail} vs {errors_head}"
        );
        // Trimming removes most of the error mass.
        let trimmed: Vec<_> = reads
            .iter()
            .filter_map(|r| r.trim_quality(8, 18.0, 10, 40))
            .collect();
        assert!(!trimmed.is_empty());
        let mean_len =
            trimmed.iter().map(|r| r.seq.len()).sum::<usize>() as f64 / trimmed.len() as f64;
        assert!(mean_len < 100.0, "tails must be cut (mean {mean_len})");
    }
}
