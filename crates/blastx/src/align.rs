//! Full Smith–Waterman local alignment with affine gaps.
//!
//! The seed-and-extend pipeline in [`crate::extend`] is a heuristic;
//! this module is the exact O(nm) reference: affine-gap local
//! alignment (Gotoh's algorithm) with full traceback to a CIGAR
//! string. It serves three purposes: an oracle for testing the
//! heuristics, a rescoring option for final reported alignments, and
//! the standard API any sequence-analysis library is expected to ship.

use crate::matrix::{pair, BLOSUM62};

/// Affine gap parameters (costs are positive; BLASTP defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapParams {
    /// Cost of opening a gap (charged on the first gapped column).
    pub(crate) open: i32,
    /// Cost of each additional gapped column.
    pub(crate) extend: i32,
}

impl Default for GapParams {
    fn default() -> Self {
        GapParams {
            open: 11,
            extend: 1,
        }
    }
}

/// One CIGAR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CigarOp {
    /// Aligned pair (match or mismatch), `M`.
    AlignedPair,
    /// Insertion in the query relative to the subject, `I`.
    Insertion,
    /// Deletion in the query relative to the subject, `D`.
    Deletion,
}

/// The result of a local alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalAlignment {
    /// Optimal local score (0 when the sequences share nothing).
    pub score: i32,
    /// Query range `[start, end)` of the aligned segment.
    pub query_range: (usize, usize),
    /// Subject range `[start, end)` of the aligned segment.
    pub subject_range: (usize, usize),
    /// Run-length CIGAR: `(count, op)` pairs.
    pub cigar: Vec<(usize, CigarOp)>,
    /// Identical aligned pairs.
    pub identities: usize,
}

impl LocalAlignment {
    /// Total aligned columns.
    pub fn length(&self) -> usize {
        self.cigar.iter().map(|(n, _)| n).sum()
    }
}

/// Traceback direction per cell/state.
#[derive(Clone, Copy, PartialEq)]
enum Tb {
    Stop,
    Diag,
    Up,   // gap in subject (query consumes): Insertion
    Left, // gap in query (subject consumes): Deletion
}

/// Smith–Waterman–Gotoh local alignment of `query` vs `subject`
/// (protein residues scored by BLOSUM62).
pub fn local_align(query: &[u8], subject: &[u8], gaps: GapParams) -> LocalAlignment {
    let n = query.len();
    let m = subject.len();
    const NEG: i32 = i32::MIN / 4;
    if n == 0 || m == 0 {
        return LocalAlignment {
            score: 0,
            query_range: (0, 0),
            subject_range: (0, 0),
            cigar: Vec::new(),
            identities: 0,
        };
    }
    // Three-state DP: h = best ending in pair, e = gap in query
    // (Left), f = gap in subject (Up). Full matrices for traceback.
    let w = m + 1;
    let mut h = vec![0i32; (n + 1) * w];
    let mut e = vec![NEG; (n + 1) * w];
    let mut fmat = vec![NEG; (n + 1) * w];
    let mut tb_h = vec![Tb::Stop; (n + 1) * w];
    let mut best = (0i32, 0usize, 0usize);
    let scores = &BLOSUM62;
    for i in 1..=n {
        for j in 1..=m {
            let idx = i * w + j;
            let up = idx - w;
            let left = idx - 1;
            // f: gap in subject, consuming query (vertical).
            fmat[idx] = (h[up] - gaps.open).max(fmat[up] - gaps.extend);
            // e: gap in query, consuming subject (horizontal).
            e[idx] = (h[left] - gaps.open).max(e[left] - gaps.extend);
            let diag = h[up - 1] + scores[pair(query[i - 1], subject[j - 1])] as i32;
            let mut val = 0;
            let mut tb = Tb::Stop;
            if diag > val {
                val = diag;
                tb = Tb::Diag;
            }
            if fmat[idx] > val {
                val = fmat[idx];
                tb = Tb::Up;
            }
            if e[idx] > val {
                val = e[idx];
                tb = Tb::Left;
            }
            h[idx] = val;
            tb_h[idx] = tb;
            if val > best.0 {
                best = (val, i, j);
            }
        }
    }
    let (score, mut i, mut j) = best;
    if score == 0 {
        return LocalAlignment {
            score: 0,
            query_range: (0, 0),
            subject_range: (0, 0),
            cigar: Vec::new(),
            identities: 0,
        };
    }
    let (qe, se) = (i, j);
    let mut ops: Vec<CigarOp> = Vec::new();
    let mut identities = 0usize;
    // Traceback through the H matrix; gap runs follow E/F recurrences.
    loop {
        let idx = i * w + j;
        match tb_h[idx] {
            Tb::Stop => break,
            Tb::Diag => {
                if query[i - 1].eq_ignore_ascii_case(&subject[j - 1]) {
                    identities += 1;
                }
                ops.push(CigarOp::AlignedPair);
                i -= 1;
                j -= 1;
            }
            Tb::Up => {
                // Walk the F gap run: keep moving up while extension
                // was the better choice.
                loop {
                    ops.push(CigarOp::Insertion);
                    let cur = i * w + j;
                    let from_open = h[cur - w] - gaps.open;
                    let from_ext = fmat[cur - w] - gaps.extend;
                    i -= 1;
                    if from_open >= from_ext {
                        break;
                    }
                }
            }
            Tb::Left => loop {
                ops.push(CigarOp::Deletion);
                let cur = i * w + j;
                let from_open = h[cur - 1] - gaps.open;
                let from_ext = e[cur - 1] - gaps.extend;
                j -= 1;
                if from_open >= from_ext {
                    break;
                }
            },
        }
    }
    ops.reverse();
    // Run-length encode.
    let mut cigar: Vec<(usize, CigarOp)> = Vec::new();
    for op in ops {
        match cigar.last_mut() {
            Some((n, last)) if *last == op => *n += 1,
            _ => cigar.push((1, op)),
        }
    }
    LocalAlignment {
        score,
        query_range: (i, qe),
        subject_range: (j, se),
        cigar,
        identities,
    }
}

/// The CIGAR as text, e.g. `"17M2I40M"`: what the tests read an
/// alignment's shape from.
#[cfg(test)]
impl LocalAlignment {
    fn cigar_string(&self) -> String {
        let letter = |op: &CigarOp| match op {
            CigarOp::AlignedPair => 'M',
            CigarOp::Insertion => 'I',
            CigarOp::Deletion => 'D',
        };
        self.cigar
            .iter()
            .map(|(n, op)| format!("{n}{}", letter(op)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::score_slices;

    #[test]
    fn identical_sequences_align_end_to_end() {
        let s = b"MKWVLLLFAARNDCEQ";
        let a = local_align(s, s, GapParams::default());
        assert_eq!(a.score, score_slices(s, s));
        assert_eq!(a.query_range, (0, s.len()));
        assert_eq!(a.subject_range, (0, s.len()));
        assert_eq!(a.cigar_string(), format!("{}M", s.len()));
        assert_eq!(a.identities, s.len());
    }

    #[test]
    fn local_alignment_trims_junk_flanks() {
        let q = b"PPPPPMKWVLLLFPPPPP";
        let s = b"GGGGGMKWVLLLFGGGGG";
        let a = local_align(q, s, GapParams::default());
        // Core MKWVLLLF aligns (P/P and G/G flanks match themselves
        // but P-G cross pairs are negative, so the local optimum is
        // the core... P vs G = -2; flanks align P-to-G? No: both
        // flanks differ, so only the core survives.
        assert_eq!(a.query_range, (5, 13));
        assert_eq!(a.subject_range, (5, 13));
        assert_eq!(a.score, score_slices(b"MKWVLLLF", b"MKWVLLLF"));
    }

    #[test]
    fn insertion_produces_i_op() {
        let q = b"MKWVAAALLLF"; // AAA inserted
        let s = b"MKWVLLLF";
        let a = local_align(q, s, GapParams { open: 5, extend: 1 });
        assert_eq!(a.cigar_string(), "4M3I4M");
        assert_eq!(a.identities, 8);
        // Score: 8 matched residues minus open+2*extend.
        assert_eq!(a.score, score_slices(s, s) - 5 - 2);
    }

    #[test]
    fn deletion_produces_d_op() {
        let q = b"MKWVLLLF";
        let s = b"MKWVAAALLLF";
        let a = local_align(q, s, GapParams { open: 5, extend: 1 });
        assert_eq!(a.cigar_string(), "4M3D4M");
    }

    #[test]
    fn affine_gaps_prefer_one_long_gap() {
        // With affine costs, one 2-gap beats two 1-gaps.
        let q = b"MKWVLLLFCC";
        let s = b"MKWVXXLLLFCC"; // two consecutive extra residues
        let a = local_align(
            q,
            s,
            GapParams {
                open: 10,
                extend: 1,
            },
        );
        let d_runs: Vec<usize> = a
            .cigar
            .iter()
            .filter(|(_, op)| *op == CigarOp::Deletion)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(d_runs, vec![2], "cigar was {}", a.cigar_string());
    }

    #[test]
    fn unrelated_sequences_score_zero_or_tiny() {
        let a = local_align(b"WWWWWW", b"PPPPPP", GapParams::default());
        assert_eq!(a.score, 0);
        assert!(a.cigar.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let a = local_align(b"", b"MK", GapParams::default());
        assert_eq!(a.score, 0);
        assert_eq!(a.length(), 0);
    }

    #[test]
    fn alignment_score_at_least_ungapped_heuristic() {
        // SW is exact: it must never score below the ungapped
        // extension over the same pair.
        use crate::extend::xdrop_extend;
        let q = b"MKWVLLLFAARNDCEQGHIKWWY";
        let mut s_owned = q.to_vec();
        s_owned[10] = b'P'; // one mismatch
        let s = &s_owned;
        let ext = xdrop_extend(q, s, 0, 0, 4, 100);
        let sw = local_align(q, s, GapParams::default());
        assert!(
            sw.score >= ext.score,
            "sw {} < xdrop {}",
            sw.score,
            ext.score
        );
    }

    #[test]
    fn cigar_lengths_match_ranges() {
        let q = b"MKWVAAALLLFCCHH";
        let s = b"MKWVLLLFCCHHEE";
        let a = local_align(q, s, GapParams::default());
        let q_cols: usize = a
            .cigar
            .iter()
            .filter(|(_, op)| matches!(op, CigarOp::AlignedPair | CigarOp::Insertion))
            .map(|(n, _)| n)
            .sum();
        let s_cols: usize = a
            .cigar
            .iter()
            .filter(|(_, op)| matches!(op, CigarOp::AlignedPair | CigarOp::Deletion))
            .map(|(n, _)| n)
            .sum();
        assert_eq!(q_cols, a.query_range.1 - a.query_range.0);
        assert_eq!(s_cols, a.subject_range.1 - a.subject_range.0);
    }
}
