//! Open reading frame (ORF) discovery.
//!
//! Assembly validation — the last stage of the paper's Fig. 1
//! pipeline — routinely checks that merged transcripts still carry
//! long ORFs (a fused or chimeric transcript often breaks the reading
//! frame). This module finds ORFs across all six frames.

use crate::codon::{six_frame_translations, Frame};
use crate::seq::DnaSeq;

/// One open reading frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Orf {
    /// The frame the ORF lies in.
    pub(crate) frame: Frame,
    /// Start offset in the frame's translation, in residues
    /// (position of the `M`).
    pub(crate) aa_start: usize,
    /// Length in residues, including the initial `M`, excluding the
    /// stop.
    pub(crate) aa_len: usize,
}

/// Finds every ORF of at least `min_aa` residues: a run starting at
/// `M` and ending at a stop (`*`) or the end of the translation.
pub(crate) fn find_orfs(dna: &DnaSeq, min_aa: usize) -> Vec<Orf> {
    let mut out = Vec::new();
    for (frame, prot) in six_frame_translations(dna) {
        let bytes = prot.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            if bytes[i] != b'M' {
                i += 1;
                continue;
            }
            // Extend to the next stop or end.
            let mut j = i;
            while j < bytes.len() && bytes[j] != b'*' {
                j += 1;
            }
            let len = j - i;
            if len >= min_aa {
                out.push(Orf {
                    frame,
                    aa_start: i,
                    aa_len: len,
                });
            }
            // Restart after this ORF's stop; nested Ms inside it are
            // sub-ORFs of the same stop and shorter, so skip them.
            i = j + 1;
        }
    }
    out.sort_by(|a, b| b.aa_len.cmp(&a.aa_len).then(a.frame.0.cmp(&b.frame.0)));
    out
}

/// The longest ORF, if any reaches `min_aa` residues.
pub(crate) fn longest_orf(dna: &DnaSeq, min_aa: usize) -> Option<Orf> {
    find_orfs(dna, min_aa).into_iter().next()
}

/// Fraction of `records` carrying an ORF of at least `min_aa`
/// residues — the coding-completeness metric used to compare an
/// assembly before and after merging.
pub fn coding_fraction(records: &[crate::fasta::Record], min_aa: usize) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let coding = records
        .iter()
        .filter(|r| longest_orf(&r.seq, min_aa).is_some())
        .count();
    coding as f64 / records.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codon::reverse_translate;
    use crate::seq::ProteinSeq;

    #[test]
    fn finds_a_simple_forward_orf() {
        // M + 9 residues + stop, in frame +1.
        let prot = ProteinSeq::from_ascii(b"MKWVLLLFAA").unwrap();
        let mut dna_bytes = reverse_translate(&prot, |i| i).as_bytes().to_vec();
        dna_bytes.extend_from_slice(b"TAA");
        let dna = DnaSeq::from_ascii_unchecked(dna_bytes);
        let orf = longest_orf(&dna, 5).expect("orf found");
        assert_eq!(orf.frame, Frame(1));
        assert_eq!(orf.aa_start, 0);
        assert_eq!(orf.aa_len, 10);
    }

    #[test]
    fn finds_reverse_strand_orfs() {
        let prot = ProteinSeq::from_ascii(b"MKWVLLLFAARNDC").unwrap();
        let mut dna_bytes = reverse_translate(&prot, |i| i * 2).as_bytes().to_vec();
        dna_bytes.extend_from_slice(b"TGA");
        let fwd = DnaSeq::from_ascii_unchecked(dna_bytes);
        let rc = fwd.reverse_complement();
        let orf = longest_orf(&rc, 10).expect("orf on reverse strand");
        assert!(!orf.frame.is_forward());
        assert_eq!(orf.aa_len, 14);
    }

    #[test]
    fn min_length_filters() {
        let prot = ProteinSeq::from_ascii(b"MKW").unwrap();
        let dna = reverse_translate(&prot, |i| i);
        assert!(longest_orf(&dna, 4).is_none());
        assert!(longest_orf(&dna, 3).is_some());
    }

    #[test]
    fn orf_without_stop_extends_to_translation_end() {
        let prot = ProteinSeq::from_ascii(b"MAAAAAAAAA").unwrap();
        let dna = reverse_translate(&prot, |i| i);
        let orf = longest_orf(&dna, 5).unwrap();
        assert_eq!(orf.aa_len, 10);
    }

    #[test]
    fn multiple_orfs_sorted_longest_first() {
        // Two ORFs in frame +1 separated by a stop: M AAAA * M AA.
        let p1 = ProteinSeq::from_ascii(b"MAAAA").unwrap();
        let p2 = ProteinSeq::from_ascii(b"MAA").unwrap();
        let mut bytes = reverse_translate(&p1, |i| i).as_bytes().to_vec();
        bytes.extend_from_slice(b"TAA");
        bytes.extend_from_slice(reverse_translate(&p2, |i| i).as_bytes());
        bytes.extend_from_slice(b"TAG");
        let dna = DnaSeq::from_ascii_unchecked(bytes);
        let orfs: Vec<Orf> = find_orfs(&dna, 2)
            .into_iter()
            .filter(|o| o.frame == Frame(1))
            .collect();
        assert_eq!(orfs.len(), 2);
        assert!(orfs[0].aa_len >= orfs[1].aa_len);
        assert_eq!(orfs[0].aa_len, 5);
        assert_eq!(orfs[1].aa_len, 3);
    }

    #[test]
    fn no_start_codon_means_no_orf() {
        // Poly-G translates to poly-G: no M anywhere, either strand
        // (rc is poly-C -> P).
        let dna = DnaSeq::from_ascii_unchecked(b"G".repeat(60));
        assert!(find_orfs(&dna, 1).is_empty());
    }

    #[test]
    fn coding_fraction_over_records() {
        use crate::fasta::Record;
        let prot = ProteinSeq::from_ascii(b"MKWVLLLFAA").unwrap();
        let coding = Record::new("c", "", reverse_translate(&prot, |i| i));
        let junk = Record::new("j", "", DnaSeq::from_ascii_unchecked(b"G".repeat(60)));
        let f = coding_fraction(&[coding, junk], 5);
        assert!((f - 0.5).abs() < 1e-12);
        assert_eq!(coding_fraction(&[], 5), 0.0);
    }

    #[test]
    fn merged_transcript_preserves_orf() {
        // blast2cap3's promise: merging fragments of one gene keeps
        // the reading frame. Simulate: full CDS vs its consensus from
        // the assembler path is covered elsewhere; here just check an
        // mRNA with UTRs still reports its ORF.
        let prot = ProteinSeq::from_ascii(b"MKWVLLLFAARNDCEQGHIK").unwrap();
        let mut bytes = b"GGCC".to_vec(); // 5' UTR shifts the frame
        bytes.extend_from_slice(reverse_translate(&prot, |i| i).as_bytes());
        bytes.extend_from_slice(b"TAACCGG");
        let dna = DnaSeq::from_ascii_unchecked(bytes);
        let orf = longest_orf(&dna, 15).expect("orf across UTRs");
        assert_eq!(orf.aa_len, 20);
        assert_eq!(orf.frame, Frame(2), "4-base UTR puts the CDS in +2... ");
    }
}
