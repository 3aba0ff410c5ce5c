//! Seed extension: ungapped X-drop and banded gapped refinement.
//!
//! A seed gives a shared diagonal between the translated query frame
//! and a subject protein. [`xdrop_extend`] grows the seed in both
//! directions along the diagonal, remembering the best prefix/suffix
//! and abandoning a direction once the running score falls `x_drop`
//! below the best seen (the classic BLAST heuristic). The result is an
//! ungapped HSP; `banded_align` optionally rescoring it with gaps in
//! a fixed-width band for more faithful identity statistics.

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

/// Result of a banded gapped alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BandedAlignment {
    /// Raw score with affine-approximated (linear) gap costs.
    pub(crate) score: i32,
    /// Identical pairs on the traced path.
    pub(crate) identities: usize,
    /// Aligned columns (matches + mismatches + gaps).
    pub(crate) length: usize,
    /// Number of gap openings on the traced path.
    pub(crate) gap_opens: usize,
    /// Mismatched (aligned, non-identical) pairs.
    pub(crate) mismatches: usize,
}

/// Global alignment of `a` vs `b` restricted to a band of half-width
/// `band` around the main diagonal, with linear gap penalty
/// `gap_penalty` per gapped column. Intended for rescoring short HSP
/// segments, so O(len * band) cost is fine.
pub(crate) fn banded_align(a: &[u8], b: &[u8], band: usize, gap_penalty: i32) -> BandedAlignment {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return BandedAlignment {
            score: -(gap_penalty) * (n + m) as i32,
            identities: 0,
            length: n + m,
            gap_opens: usize::from(n + m > 0),
            mismatches: 0,
        };
    }
    let band = band.max(n.abs_diff(m)) + 1;
    const NEG: i32 = i32::MIN / 4;
    let scores = &BLOSUM62;
    // dp[i][j] over the band only: store full rows for simplicity of
    // traceback; HSP segments are short so memory is acceptable.
    let mut dp = vec![vec![NEG; m + 1]; n + 1];
    dp[0][0] = 0;
    #[allow(clippy::needless_range_loop)] // `j` is also the gap length
    for j in 1..=m.min(band) {
        dp[0][j] = -(gap_penalty * j as i32);
    }
    for i in 1..=n {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(m);
        if i <= band {
            dp[i][0] = -(gap_penalty * i as i32);
        }
        for j in lo..=hi {
            let diag = dp[i - 1][j - 1].saturating_add(scores[pair(a[i - 1], b[j - 1])] as i32);
            let up = dp[i - 1][j].saturating_add(-gap_penalty);
            let left = dp[i][j - 1].saturating_add(-gap_penalty);
            dp[i][j] = diag.max(up).max(left);
        }
    }
    // Traceback.
    let mut i = n;
    let mut j = m;
    let mut identities = 0usize;
    let mut mismatches = 0usize;
    let mut length = 0usize;
    let mut gap_opens = 0usize;
    let mut in_gap = false;
    while i > 0 || j > 0 {
        length += 1;
        let cur = dp[i][j];
        if i > 0
            && j > 0
            && cur == dp[i - 1][j - 1].saturating_add(scores[pair(a[i - 1], b[j - 1])] as i32)
        {
            if a[i - 1].eq_ignore_ascii_case(&b[j - 1]) {
                identities += 1;
            } else {
                mismatches += 1;
            }
            in_gap = false;
            i -= 1;
            j -= 1;
        } else if i > 0 && cur == dp[i - 1][j].saturating_add(-gap_penalty) {
            if !in_gap {
                gap_opens += 1;
                in_gap = true;
            }
            i -= 1;
        } else {
            if !in_gap {
                gap_opens += 1;
                in_gap = true;
            }
            j -= 1;
        }
    }
    BandedAlignment {
        score: dp[n][m],
        identities,
        length,
        gap_opens,
        mismatches,
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

    #[test]
    fn banded_identical_is_all_matches() {
        let a = b"MKWVLLLF";
        let r = banded_align(a, a, 3, 11);
        assert_eq!(r.identities, 8);
        assert_eq!(r.length, 8);
        assert_eq!(r.gap_opens, 0);
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.score, score_slices(a, a));
    }

    #[test]
    fn banded_single_insertion_is_one_gap_open() {
        let a = b"MKWVLLLF";
        let b = b"MKWVALLLF"; // A inserted
        let r = banded_align(a, b, 3, 11);
        assert_eq!(r.length, 9);
        assert_eq!(r.gap_opens, 1);
        assert_eq!(r.identities, 8);
        assert_eq!(r.score, score_slices(a, a) - 11);
    }

    #[test]
    fn banded_handles_empty_inputs() {
        let r = banded_align(b"", b"", 3, 11);
        assert_eq!(r.length, 0);
        assert_eq!(r.score, 0);
        let r = banded_align(b"MK", b"", 3, 11);
        assert_eq!(r.length, 2);
        assert!(r.score < 0);
    }

    #[test]
    fn banded_mismatch_counted() {
        let a = b"MKWV";
        let b = b"MKYV";
        let r = banded_align(a, b, 2, 11);
        assert_eq!(r.mismatches, 1);
        assert_eq!(r.identities, 3);
    }
}
