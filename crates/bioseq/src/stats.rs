//! Assembly summary statistics.
//!
//! The paper cites blast2cap3's effect on assembly quality (a 8–9 %
//! reduction in transcript count, fewer artificially fused sequences);
//! these summary statistics let tests and the `reduction` experiment
//! quantify the same effects on synthetic data.

use crate::fasta::Record;

/// Summary statistics over a set of sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct AssemblyStats {
    /// Number of sequences.
    pub count: usize,
    /// Total bases across all sequences.
    pub total_len: usize,
    /// Length of the shortest sequence (0 if empty set).
    pub min_len: usize,
    /// Length of the longest sequence (0 if empty set).
    pub max_len: usize,
    /// Mean sequence length (0.0 if empty set).
    pub mean_len: f64,
    /// N50: length `L` such that sequences of length >= `L` cover at
    /// least half the total bases (0 if empty set).
    pub n50: usize,
    /// Overall GC fraction (0.0 if empty set).
    pub(crate) gc: f64,
}

/// Computes [`AssemblyStats`] over FASTA records.
pub fn assembly_stats(records: &[Record]) -> AssemblyStats {
    if records.is_empty() {
        return AssemblyStats {
            count: 0,
            total_len: 0,
            min_len: 0,
            max_len: 0,
            mean_len: 0.0,
            n50: 0,
            gc: 0.0,
        };
    }
    let mut lens: Vec<usize> = records.iter().map(|r| r.seq.len()).collect();
    let total_len: usize = lens.iter().sum();
    let gc_bases: usize = records
        .iter()
        .map(|r| {
            r.seq
                .as_bytes()
                .iter()
                .filter(|&&b| b == b'G' || b == b'C')
                .count()
        })
        .sum();
    lens.sort_unstable_by(|a, b| b.cmp(a));
    let half = total_len.div_ceil(2);
    let mut acc = 0usize;
    let mut n50 = 0usize;
    for &l in &lens {
        acc += l;
        if acc >= half {
            n50 = l;
            break;
        }
    }
    AssemblyStats {
        count: records.len(),
        total_len,
        min_len: *lens.last().expect("non-empty"),
        max_len: lens[0],
        mean_len: total_len as f64 / records.len() as f64,
        n50,
        gc: if total_len == 0 {
            0.0
        } else {
            gc_bases as f64 / total_len as f64
        },
    }
}

/// Relative reduction in sequence count going from `before` to
/// `after`, as a fraction in `[0, 1]` (0 if `before` is 0 or counts grew).
pub fn reduction_ratio(before: usize, after: usize) -> f64 {
    if before == 0 || after >= before {
        return 0.0;
    }
    (before - after) as f64 / before as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DnaSeq;

    fn rec(id: &str, seq: &str) -> Record {
        Record::new(id, "", DnaSeq::from_ascii(seq.as_bytes()).unwrap())
    }

    #[test]
    fn empty_set_is_all_zero() {
        let s = assembly_stats(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.n50, 0);
        assert_eq!(s.gc, 0.0);
    }

    #[test]
    fn single_sequence() {
        let s = assembly_stats(&[rec("a", "GGCC")]);
        assert_eq!(s.count, 1);
        assert_eq!(s.total_len, 4);
        assert_eq!(s.min_len, 4);
        assert_eq!(s.max_len, 4);
        assert_eq!(s.n50, 4);
        assert!((s.gc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn n50_textbook_example() {
        // Lengths 80, 70, 50, 40, 30, 20 -> total 290, half 145.
        // Cumulative: 80, 150 -> N50 = 70.
        let recs: Vec<Record> = [80usize, 70, 50, 40, 30, 20]
            .iter()
            .enumerate()
            .map(|(i, &l)| rec(&format!("s{i}"), &"A".repeat(l)))
            .collect();
        let s = assembly_stats(&recs);
        assert_eq!(s.n50, 70);
        assert_eq!(s.min_len, 20);
        assert_eq!(s.max_len, 80);
    }

    #[test]
    fn n50_is_order_independent() {
        let mut recs = vec![rec("a", &"A".repeat(10)), rec("b", &"A".repeat(90))];
        let s1 = assembly_stats(&recs);
        recs.reverse();
        let s2 = assembly_stats(&recs);
        assert_eq!(s1, s2);
        assert_eq!(s1.n50, 90);
    }

    #[test]
    fn reduction_ratio_matches_paper_range() {
        // 236,529 -> ~8.5% reduction keeps ~216,424 transcripts.
        let r = reduction_ratio(236_529, 216_424);
        assert!(r > 0.08 && r < 0.09, "r={r}");
        assert_eq!(reduction_ratio(0, 10), 0.0);
        assert_eq!(reduction_ratio(10, 10), 0.0);
        assert_eq!(reduction_ratio(10, 12), 0.0);
        assert_eq!(reduction_ratio(10, 5), 0.5);
    }
}
