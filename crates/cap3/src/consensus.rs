//! Per-column majority consensus over a contig layout.

use crate::layout::Layout;
use bioseq::seq::DnaSeq;

/// Builds the consensus sequence for `layout` over the oriented reads.
///
/// `reads[i]` must be the forward sequence of read `i`; flipped
/// placements are reverse-complemented on the fly. Columns covered by
/// no read (possible only with inconsistent layouts) are emitted as
/// `N`. Ties are broken in `ACGT` order for determinism.
pub(crate) fn consensus(layout: &Layout, reads: &[DnaSeq]) -> DnaSeq {
    let mut end = 0usize;
    for p in &layout.placements {
        let len = reads[p.read as usize].len();
        end = end.max(p.offset as usize + len);
    }
    if end == 0 {
        return DnaSeq::default();
    }
    // counts[col][code]: votes per base; N votes are ignored.
    let mut counts = vec![[0u32; 4]; end];
    let mut covered = vec![false; end];
    for p in &layout.placements {
        let fwd = &reads[p.read as usize];
        let oriented;
        let bytes: &[u8] = if p.flipped {
            oriented = fwd.reverse_complement();
            oriented.as_bytes()
        } else {
            fwd.as_bytes()
        };
        let off = p.offset as usize;
        for (i, &b) in bytes.iter().enumerate() {
            covered[off + i] = true;
            if let Some(code) = bioseq::alphabet::base_code(b) {
                counts[off + i][code as usize] += 1;
            }
        }
    }
    let mut out = Vec::with_capacity(end);
    for col in 0..end {
        if !covered[col] {
            out.push(b'N');
            continue;
        }
        let votes = &counts[col];
        let (mut best_code, mut best_votes) = (0usize, votes[0]);
        #[allow(clippy::needless_range_loop)] // `code` is a base code, not just an index
        for code in 1..4 {
            if votes[code] > best_votes {
                best_code = code;
                best_votes = votes[code];
            }
        }
        if best_votes == 0 {
            out.push(b'N'); // covered only by N bases
        } else {
            out.push(bioseq::alphabet::code_base(best_code as u8));
        }
    }
    DnaSeq::from_ascii_unchecked(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Placement;

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_ascii(s.as_bytes()).unwrap()
    }

    fn place(read: u32, offset: isize, flipped: bool) -> Placement {
        Placement {
            read,
            offset,
            flipped,
        }
    }

    #[test]
    fn single_read_consensus_is_the_read() {
        let layout = Layout {
            placements: vec![place(0, 0, false)],
        };
        let reads = vec![seq("ACGTACGT")];
        assert_eq!(consensus(&layout, &reads), reads[0]);
    }

    #[test]
    fn overlapping_reads_extend_each_other() {
        let reads = vec![seq("ACGTACGT"), seq("ACGTTTTT")];
        let layout = Layout {
            placements: vec![place(0, 0, false), place(1, 4, false)],
        };
        // Positions 4..8 agree (ACGT); read 1 extends to 12.
        assert_eq!(consensus(&layout, &reads).as_bytes(), b"ACGTACGTTTTT");
    }

    #[test]
    fn majority_vote_corrects_errors() {
        // Three identical reads, one with an error in the middle.
        let reads = vec![seq("ACGTACGT"), seq("ACGAACGT"), seq("ACGTACGT")];
        let layout = Layout {
            placements: vec![place(0, 0, false), place(1, 0, false), place(2, 0, false)],
        };
        assert_eq!(consensus(&layout, &reads).as_bytes(), b"ACGTACGT");
    }

    #[test]
    fn flipped_read_contributes_reverse_complement() {
        let reads = vec![seq("ACGT"), seq("ACGT")];
        // Read 1 flipped at the same offset: rc(ACGT) == ACGT, so the
        // consensus is unchanged; use an asymmetric sequence instead.
        let reads2 = vec![seq("AACC"), seq("GGTT")]; // rc(GGTT) = AACC
        let layout = Layout {
            placements: vec![place(0, 0, false), place(1, 0, true)],
        };
        assert_eq!(consensus(&layout, &reads2).as_bytes(), b"AACC");
        let _ = reads;
    }

    #[test]
    fn n_bases_lose_to_real_bases() {
        let reads = vec![seq("ANNT"), seq("ACGT")];
        let layout = Layout {
            placements: vec![place(0, 0, false), place(1, 0, false)],
        };
        assert_eq!(consensus(&layout, &reads).as_bytes(), b"ACGT");
    }

    #[test]
    fn all_n_column_stays_n() {
        let reads = vec![seq("ANT")];
        let layout = Layout {
            placements: vec![place(0, 0, false)],
        };
        assert_eq!(consensus(&layout, &reads).as_bytes(), b"ANT");
    }

    #[test]
    fn uncovered_gap_becomes_n() {
        // Inconsistent layout: two reads with a hole between them.
        let reads = vec![seq("AAAA"), seq("TTTT")];
        let layout = Layout {
            placements: vec![place(0, 0, false), place(1, 6, false)],
        };
        assert_eq!(consensus(&layout, &reads).as_bytes(), b"AAAANNTTTT");
    }

    #[test]
    fn empty_layout_gives_empty_consensus() {
        let layout = Layout { placements: vec![] };
        assert!(consensus(&layout, &[]).is_empty());
    }

    #[test]
    fn tie_breaks_in_acgt_order() {
        let reads = vec![seq("G"), seq("C")];
        let layout = Layout {
            placements: vec![place(0, 0, false), place(1, 0, false)],
        };
        // One vote each: C (code 1) beats G (code 2) in ACGT order.
        assert_eq!(consensus(&layout, &reads).as_bytes(), b"C");
    }
}
