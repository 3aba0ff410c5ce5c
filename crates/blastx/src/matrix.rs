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

/// The score of every pair of bytes, indexed by [`pair`] and computed at
/// compile time. Case, the stop rule and the unknown rule are folded
/// in here, so a lookup is one load.
pub(crate) static BLOSUM62: [i8; 1 << 16] = {
    // RAW re-indexed by `residue_index`; row and column 20 (unknown)
    // score -1 against everything.
    let mut by_index = [[-1i8; 21]; 21];
    let mut ci = 0;
    while ci < 20 {
        let mut cj = 0;
        while cj < 20 {
            by_index[residue_index(CANONICAL[ci])][residue_index(CANONICAL[cj])] = RAW[ci][cj];
            cj += 1;
        }
        ci += 1;
    }
    let mut table = [0i8; 1 << 16];
    let mut i = 0;
    while i < table.len() {
        let (a, b) = ((i >> 8) as u8, i as u8);
        table[i] = if a == b'*' || b == b'*' {
            if a == b {
                1
            } else {
                -4
            }
        } else {
            by_index[residue_index(a)][residue_index(b)]
        };
        i += 1;
    }
    table
};

/// Index of the byte pair `(a, b)` in [`BLOSUM62`].
#[inline]
pub(crate) fn pair(a: u8, b: u8) -> usize {
    (a as usize) << 8 | b as usize
}

/// BLOSUM62 score between two ASCII residue bytes (case-insensitive).
#[inline]
pub fn blosum62(a: u8, b: u8) -> i32 {
    BLOSUM62[pair(a, b)] as i32
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

/// The rule the table replaced, kept as its oracle: two case folds, the
/// stop branch, and a binary search of the alphabet per residue into a
/// 21 × 21 matrix.
#[cfg(test)]
fn blosum62_by_rule(by_index: &[[i8; 21]; 21], a: u8, b: u8) -> i32 {
    let au = a.to_ascii_uppercase();
    let bu = b.to_ascii_uppercase();
    if au == b'*' || bu == b'*' {
        return if au == bu { 1 } else { -4 };
    }
    by_index[index_by_search(au)][index_by_search(bu)] as i32
}

#[cfg(test)]
fn index_by_search(b: u8) -> usize {
    bioseq::alphabet::AMINO_ACIDS
        .binary_search(&b.to_ascii_uppercase())
        .unwrap_or(20)
}

/// The 21 × 21 matrix the rule indexed, built as it was at first use.
#[cfg(test)]
fn by_index_table() -> [[i8; 21]; 21] {
    let mut t = [[-1i8; 21]; 21];
    for (ci, &ca) in CANONICAL.iter().enumerate() {
        for (cj, &cb) in CANONICAL.iter().enumerate() {
            t[index_by_search(ca)][index_by_search(cb)] = RAW[ci][cj];
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::AMINO_ACIDS;

    #[test]
    fn pair_table_matches_the_rule_on_every_byte_pair() {
        let by_index = by_index_table();
        for a in 0..=u8::MAX {
            for b in 0..=u8::MAX {
                assert_eq!(
                    blosum62(a, b),
                    blosum62_by_rule(&by_index, a, b),
                    "pair ({a}, {b})"
                );
            }
        }
    }

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
