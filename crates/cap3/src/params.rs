//! Assembler tuning parameters.

/// Seed k-mer size for overlap detection; an overlap shorter than one
/// seed cannot be found, so `min_overlap_len` may not be below it.
pub(crate) const SEED_K: usize = 12;

/// Minimum shared-seed votes on a diagonal before the overlap is
/// evaluated exactly.
pub(crate) const MIN_SEED_VOTES: usize = 2;

/// Diagonals within this distance of the best are also evaluated, to
/// tolerate small indels near read ends.
pub(crate) const DIAGONAL_SLOP: usize = 2;

/// K-mer buckets larger than this are skipped during candidate
/// generation (repeat masking).
pub(crate) const MAX_BUCKET: usize = 64;

/// The two CAP3 command-line cutoffs the paper's pipeline sets; the
/// seeding behind them (a 12-mer seed, two votes per diagonal, a slop
/// of two diagonals, buckets of at most 64 reads) is fixed.
#[derive(Debug, Clone)]
pub struct Cap3Params {
    /// Minimum overlap length in bases (CAP3 `-o`, default 40), at
    /// least the 12-base seed.
    pub min_overlap_len: usize,
    /// Minimum overlap percent identity in `[0, 100]` (CAP3 `-p`,
    /// default 90).
    pub min_overlap_identity: f64,
}

impl Default for Cap3Params {
    fn default() -> Self {
        Cap3Params {
            min_overlap_len: 40,
            min_overlap_identity: 90.0,
        }
    }
}

impl Cap3Params {
    /// Validates parameter ranges, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_overlap_len == 0 {
            return Err("min_overlap_len must be positive".into());
        }
        if !(0.0..=100.0).contains(&self.min_overlap_identity) {
            return Err(format!(
                "min_overlap_identity {} outside [0, 100]",
                self.min_overlap_identity
            ));
        }
        if SEED_K > self.min_overlap_len {
            return Err(format!(
                "seed_k {SEED_K} exceeds min_overlap_len {}",
                self.min_overlap_len
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_cap3_conventions() {
        let p = Cap3Params::default();
        assert_eq!(p.min_overlap_len, 40);
        assert!((p.min_overlap_identity - 90.0).abs() < 1e-12);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let bad = [
            Cap3Params {
                min_overlap_len: 0,
                ..Default::default()
            },
            Cap3Params {
                min_overlap_identity: 101.0,
                ..Default::default()
            },
            Cap3Params {
                min_overlap_len: SEED_K - 1,
                ..Default::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?} should be invalid");
        }
    }
}
