//! Karlin–Altschul statistics: bit scores and E-values.
//!
//! We use the standard ungapped BLOSUM62 parameters
//! (`lambda = 0.3176`, `K = 0.134`) because the extension stage is
//! X-drop-ungapped by default. The numbers feed the `evalue` and
//! `bitscore` columns of the tabular output and the significance
//! filter in the search driver; blast2cap3 itself only consumes the
//! (query, subject) pairing, so approximate statistics are sufficient
//! as long as they are monotone in the raw score — which these are by
//! construction.

/// Karlin–Altschul parameters for a scoring system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarlinParams {
    /// Scale parameter lambda (per raw-score unit).
    pub(crate) lambda: f64,
    /// Search-space constant K.
    pub(crate) k: f64,
}

/// Standard parameters for ungapped BLOSUM62.
pub const BLOSUM62_UNGAPPED: KarlinParams = KarlinParams {
    lambda: 0.3176,
    k: 0.134,
};

impl KarlinParams {
    /// Normalised bit score for a raw alignment score.
    pub fn bit_score(&self, raw: i32) -> f64 {
        (self.lambda * raw as f64 - self.k.ln()) / std::f64::consts::LN_2
    }

    /// Expected number of chance alignments with score >= `raw` in a
    /// search space of `m` query residues by `n` total database
    /// residues.
    pub fn evalue(&self, raw: i32, m: usize, n: usize) -> f64 {
        self.k * (m as f64) * (n as f64) * (-self.lambda * raw as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_score_is_monotone_in_raw_score() {
        let p = BLOSUM62_UNGAPPED;
        assert!(p.bit_score(100) > p.bit_score(50));
        assert!(p.bit_score(50) > p.bit_score(0));
    }

    #[test]
    fn evalue_decreases_with_score_and_grows_with_space() {
        let p = BLOSUM62_UNGAPPED;
        assert!(p.evalue(100, 300, 100_000) < p.evalue(50, 300, 100_000));
        assert!(p.evalue(50, 300, 100_000) < p.evalue(50, 300, 1_000_000));
    }

    #[test]
    fn typical_magnitudes_are_sane() {
        let p = BLOSUM62_UNGAPPED;
        // A raw score of 100 in a modest search space is overwhelmingly
        // significant; a raw score of 20 is marginal.
        assert!(p.evalue(100, 500, 1_000_000) < 1e-5);
        assert!(p.evalue(20, 500, 1_000_000) > 1e-3);
    }

    #[test]
    fn bit_score_round_numbers() {
        let p = BLOSUM62_UNGAPPED;
        // lambda*S - ln K at S=0 gives a small positive bit score
        // offset; check the formula directly.
        let expected = (0.3176 * 40.0 - 0.134f64.ln()) / std::f64::consts::LN_2;
        assert!((p.bit_score(40) - expected).abs() < 1e-12);
    }
}
