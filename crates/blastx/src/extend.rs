//! Seed extension: ungapped X-drop.
//!
//! A seed gives a shared diagonal between the translated query frame
//! and a subject protein. [`xdrop_extend`] grows the seed in both
//! directions along the diagonal, remembering the best prefix/suffix
//! and abandoning a direction once the running score falls `x_drop`
//! below the best seen (the classic BLAST heuristic). The result is an
//! ungapped HSP.

use crate::matrix::{pair, BLOSUM62};

/// An ungapped extension result in *protein* coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extension {
    /// Start of the alignment in the query frame translation.
    pub(crate) q_start: usize,
    /// End (exclusive) in the query frame translation.
    pub(crate) q_end: usize,
    /// Start of the alignment in the subject.
    pub(crate) s_start: usize,
    /// End (exclusive) in the subject.
    pub(crate) s_end: usize,
    /// Raw BLOSUM62 score of the aligned segment.
    pub score: i32,
    /// Number of identical residue pairs.
    pub(crate) identities: usize,
}

impl Extension {
    /// Alignment length in residues.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.q_end - self.q_start
    }

    /// `true` if the extension is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.q_end == self.q_start
    }

    /// Percent identity over the alignment length (0.0 for empty).
    pub(crate) fn percent_identity(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            100.0 * self.identities as f64 / self.len() as f64
        }
    }
}

/// Extends a seed match at `(q_pos, s_pos)` of length `seed_len` along
/// its diagonal with X-drop `x_drop`, returning the best-scoring
/// ungapped segment containing the seed.
pub fn xdrop_extend(
    query: &[u8],
    subject: &[u8],
    q_pos: usize,
    s_pos: usize,
    seed_len: usize,
    x_drop: i32,
) -> Extension {
    debug_assert!(q_pos + seed_len <= query.len());
    debug_assert!(s_pos + seed_len <= subject.len());

    let scores = &BLOSUM62;
    // Score of the seed itself.
    let mut seed_score = 0i32;
    for i in 0..seed_len {
        seed_score += scores[pair(query[q_pos + i], subject[s_pos + i])] as i32;
    }

    // Right extension.
    let mut best_right = 0i32;
    let mut right_len = 0usize;
    {
        let mut run = 0i32;
        let mut i = seed_len;
        while q_pos + i < query.len() && s_pos + i < subject.len() {
            run += scores[pair(query[q_pos + i], subject[s_pos + i])] as i32;
            i += 1;
            if run > best_right {
                best_right = run;
                right_len = i - seed_len;
            }
            if run < best_right - x_drop {
                break;
            }
        }
    }

    // Left extension.
    let mut best_left = 0i32;
    let mut left_len = 0usize;
    {
        let mut run = 0i32;
        let mut i = 0usize;
        while i < q_pos && i < s_pos {
            run += scores[pair(query[q_pos - 1 - i], subject[s_pos - 1 - i])] as i32;
            i += 1;
            if run > best_left {
                best_left = run;
                left_len = i;
            }
            if run < best_left - x_drop {
                break;
            }
        }
    }

    let q_start = q_pos - left_len;
    let q_end = q_pos + seed_len + right_len;
    let s_start = s_pos - left_len;
    let identities = (0..q_end - q_start)
        .filter(|&i| query[q_start + i].eq_ignore_ascii_case(&subject[s_start + i]))
        .count();
    Extension {
        q_start,
        q_end,
        s_start,
        s_end: s_start + (q_end - q_start),
        score: seed_score + best_left + best_right,
        identities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::score_slices;

    #[test]
    fn identical_sequences_extend_fully() {
        let s = b"MKWVLLLFAARNDCEQ";
        let ext = xdrop_extend(s, s, 6, 6, 4, 20);
        assert_eq!(ext.q_start, 0);
        assert_eq!(ext.q_end, s.len());
        assert_eq!(ext.identities, s.len());
        assert_eq!(ext.score, score_slices(s, s));
        assert!((ext.percent_identity() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn extension_stops_at_junk() {
        // Seed in the middle of a conserved core flanked by strongly
        // mismatching residues (W vs P is -4).
        let q = b"PPPPPPMKWVLLLFPPPPPP";
        let s = b"WWWWWWMKWVLLLFWWWWWW";
        let ext = xdrop_extend(q, s, 6, 6, 4, 5);
        assert_eq!(ext.q_start, 6);
        assert_eq!(ext.q_end, 14);
        assert_eq!(ext.identities, 8);
    }

    #[test]
    fn extension_keeps_best_prefix_not_last() {
        // After the core, one good residue then strong negatives: the
        // best right extension includes the good residue only.
        let q = b"MKWVW";
        let s = b"MKWVW";
        let ext = xdrop_extend(q, s, 0, 0, 4, 100);
        assert_eq!(ext.q_end, 5);
        assert_eq!(ext.score, score_slices(q, s));
    }

    #[test]
    fn seed_at_sequence_edges() {
        let q = b"MKWV";
        let s = b"MKWV";
        let ext = xdrop_extend(q, s, 0, 0, 4, 10);
        assert_eq!((ext.q_start, ext.q_end), (0, 4));
        let longer = b"AAMKWV";
        let ext = xdrop_extend(longer, q, 2, 0, 4, 10);
        assert_eq!((ext.q_start, ext.q_end), (2, 6));
        assert_eq!((ext.s_start, ext.s_end), (0, 4));
    }
}
