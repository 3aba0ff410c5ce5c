//! The BLOSUM62 amino-acid substitution matrix.
//!
//! Scores are exposed through [`blosum62`], which accepts any ASCII
//! residue byte (case-insensitive). Unknown residues (`X` and any
//! letter outside the 20 standard codes) score -1 against everything;
//! a stop (`*`) scores -4 against everything except another stop (+1),
//! matching NCBI conventions.

use bioseq::alphabet::residue_index;

/// Canonical BLOSUM62 row/column order used by the raw table below.
const CANONICAL: [u8; 20] = [
    b'A', b'R', b'N', b'D', b'C', b'Q', b'E', b'G', b'H', b'I', b'L', b'K', b'M', b'F', b'P', b'S',
    b'T', b'W', b'Y', b'V',
];

/// Raw BLOSUM62 in [`CANONICAL`] order.
#[rustfmt::skip]
const RAW: [[i8; 20]; 20] = [
    [ 4,-1,-2,-2, 0,-1,-1, 0,-2,-1,-1,-1,-1,-2,-1, 1, 0,-3,-2, 0],
    [-1, 5, 0,-2,-3, 1, 0,-2, 0,-3,-2, 2,-1,-3,-2,-1,-1,-3,-2,-3],
    [-2, 0, 6, 1,-3, 0, 0, 0, 1,-3,-3, 0,-2,-3,-2, 1, 0,-4,-2,-3],
    [-2,-2, 1, 6,-3, 0, 2,-1,-1,-3,-4,-1,-3,-3,-1, 0,-1,-4,-3,-3],
    [ 0,-3,-3,-3, 9,-3,-4,-3,-3,-1,-1,-3,-1,-2,-3,-1,-1,-2,-2,-1],
    [-1, 1, 0, 0,-3, 5, 2,-2, 0,-3,-2, 1, 0,-3,-1, 0,-1,-2,-1,-2],
    [-1, 0, 0, 2,-4, 2, 5,-2, 0,-3,-3, 1,-2,-3,-1, 0,-1,-3,-2,-2],
    [ 0,-2, 0,-1,-3,-2,-2, 6,-2,-4,-4,-2,-3,-3,-2, 0,-2,-2,-3,-3],
    [-2, 0, 1,-1,-3, 0, 0,-2, 8,-3,-3,-1,-2,-1,-2,-1,-2,-2, 2,-3],
    [-1,-3,-3,-3,-1,-3,-3,-4,-3, 4, 2,-3, 1, 0,-3,-2,-1,-3,-1, 3],
    [-1,-2,-3,-4,-1,-2,-3,-4,-3, 2, 4,-2, 2, 0,-3,-2,-1,-2,-1, 1],
    [-1, 2, 0,-1,-3, 1, 1,-2,-1,-3,-2, 5,-1,-3,-1, 0,-1,-3,-2,-2],
    [-1,-1,-2,-3,-1, 0,-2,-3,-2, 1, 2,-1, 5, 0,-2,-1,-1,-1,-1, 1],
    [-2,-3,-3,-3,-2,-3,-3,-3,-1, 0, 0,-3, 0, 6,-4,-2,-2, 1, 3,-1],
    [-1,-2,-2,-1,-3,-1,-1,-2,-2,-3,-3,-1,-2,-4, 7,-1,-1,-4,-3,-2],
    [ 1,-1, 1, 0,-1, 0, 0, 0,-1,-2,-2, 0,-1,-2,-1, 4, 1,-3,-2,-2],
    [ 0,-1, 0,-1,-1,-1,-1,-2,-2,-1,-1,-1,-1,-2,-1, 1, 5,-2,-2, 0],
    [-3,-3,-4,-4,-2,-2,-3,-2,-2,-3,-2,-3,-1, 1,-4,-3,-2,11, 2,-3],
    [-2,-2,-2,-3,-2,-1,-2,-3, 2,-1,-1,-2,-1, 3,-3,-2,-2, 2, 7,-1],
    [ 0,-3,-3,-3,-1,-2,-2,-3,-3, 3, 1,-2, 1,-1,-2,-2, 0,-3,-1, 4],
];

/// Matrix indexed by [`residue_index`] order (alphabetical + unknown),
/// built once at first use.
fn table() -> &'static [[i8; 21]; 21] {
    static TABLE: std::sync::OnceLock<[[i8; 21]; 21]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[-1i8; 21]; 21];
        for (ci, &ca) in CANONICAL.iter().enumerate() {
            for (cj, &cb) in CANONICAL.iter().enumerate() {
                t[residue_index(ca)][residue_index(cb)] = RAW[ci][cj];
            }
        }
        t
    })
}

/// BLOSUM62 score between two ASCII residue bytes (case-insensitive).
#[inline]
pub fn blosum62(a: u8, b: u8) -> i32 {
    let au = a.to_ascii_uppercase();
    let bu = b.to_ascii_uppercase();
    if au == b'*' || bu == b'*' {
        return if au == bu { 1 } else { -4 };
    }
    table()[residue_index(au)][residue_index(bu)] as i32
}

/// Score of an ungapped alignment of two equal-length residue slices.
#[cfg(test)]
pub(crate) fn score_slices(a: &[u8], b: &[u8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| blosum62(x, y)).sum()
}

/// The maximum self-score of any residue (W/W = 11); useful for
/// bounding seed-word thresholds.
#[cfg(test)]
const MAX_SELF_SCORE: i32 = 11;

/// Verifies internal consistency of the remapped table (symmetry and
/// positive diagonal).
#[cfg(test)]
fn is_consistent() -> bool {
    use bioseq::alphabet::AMINO_ACIDS;
    for &a in AMINO_ACIDS.iter() {
        if blosum62(a, a) <= 0 {
            return false;
        }
        for &b in AMINO_ACIDS.iter() {
            if blosum62(a, b) != blosum62(b, a) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::AMINO_ACIDS;

    #[test]
    fn known_scores() {
        assert_eq!(blosum62(b'A', b'A'), 4);
        assert_eq!(blosum62(b'W', b'W'), 11);
        assert_eq!(blosum62(b'W', b'A'), -3);
        assert_eq!(blosum62(b'E', b'D'), 2);
        assert_eq!(blosum62(b'I', b'V'), 3);
        assert_eq!(blosum62(b'C', b'C'), 9);
        assert_eq!(blosum62(b'P', b'P'), 7);
        assert_eq!(blosum62(b'K', b'R'), 2);
        assert_eq!(blosum62(b'F', b'Y'), 3);
        assert_eq!(blosum62(b'G', b'G'), 6);
    }

    #[test]
    fn matrix_is_symmetric_with_positive_diagonal() {
        assert!(is_consistent());
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(blosum62(b'a', b'A'), 4);
        assert_eq!(blosum62(b'w', b'w'), 11);
    }

    #[test]
    fn unknowns_and_stops() {
        assert_eq!(blosum62(b'X', b'A'), -1);
        assert_eq!(blosum62(b'X', b'X'), -1);
        assert_eq!(blosum62(b'*', b'A'), -4);
        assert_eq!(blosum62(b'*', b'*'), 1);
        assert_eq!(blosum62(b'B', b'A'), -1); // non-standard letter
    }

    #[test]
    fn slice_scoring_sums_pairs() {
        assert_eq!(score_slices(b"AW", b"AW"), 4 + 11);
        assert_eq!(score_slices(b"AW", b"WA"), -3 + -3);
        assert_eq!(score_slices(b"", b""), 0);
    }

    #[test]
    fn max_self_score_is_tryptophan() {
        let max = AMINO_ACIDS.iter().map(|&a| blosum62(a, a)).max().unwrap();
        assert_eq!(max, MAX_SELF_SCORE);
    }
}
