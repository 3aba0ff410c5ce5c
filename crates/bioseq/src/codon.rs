//! The standard genetic code and frame translation.
//!
//! BLASTX conceptually translates the nucleotide query in all six
//! reading frames and searches each translation against the protein
//! database; [`six_frame_translations`] provides exactly that.

use crate::alphabet::{base_code, residue_index, DNA_BASES};
use crate::seq::{DnaSeq, ProteinSeq};

/// One-letter amino-acid codes of the standard genetic code, indexed
/// by `16*a + 4*b + c` where `a`, `b`, `c` are the 2-bit codes of the
/// codon bases (`A=0, C=1, G=2, T=3`). `*` denotes a stop codon.
pub(crate) const STANDARD_CODE: [u8; 64] = {
    let mut table = [b'X'; 64];
    // Build the table codon-by-codon; index = a*16 + b*4 + c.
    // Row order below follows base codes A, C, G, T.
    let mut i = 0;
    // Codons listed in index order (AAA, AAC, AAG, AAT, ACA, ...).
    let flat: &[u8; 64] = b"KNKNTTTTRSRSIIMIQHQHPPPPRRRRLLLLEDEDAAAAGGGGVVVV*Y*YSSSS*CWCLFLF";
    while i < 64 {
        table[i] = flat[i];
        i += 1;
    }
    table
};

/// Translates one codon (three 2-bit base codes) to an amino acid.
#[inline]
pub(crate) fn translate_codon_codes(a: u8, b: u8, c: u8) -> u8 {
    STANDARD_CODE[(a as usize) * 16 + (b as usize) * 4 + c as usize]
}

/// Translates one codon given as ASCII bases; any ambiguous base
/// yields `X`.
#[inline]
pub(crate) fn translate_codon(bases: [u8; 3]) -> u8 {
    match (
        base_code(bases[0]),
        base_code(bases[1]),
        base_code(bases[2]),
    ) {
        (Some(a), Some(b), Some(c)) => translate_codon_codes(a, b, c),
        _ => b'X',
    }
}

/// Translates `dna` starting at `offset` (0, 1, or 2) on the forward
/// strand; trailing partial codons are dropped. Stops are emitted as
/// `*` — the aligner decides what to do with them.
pub fn translate_frame(dna: &DnaSeq, offset: usize) -> ProteinSeq {
    debug_assert!(offset < 3);
    let bytes = dna.as_bytes();
    let mut out = Vec::with_capacity(bytes.len().saturating_sub(offset) / 3);
    let mut i = offset;
    while i + 3 <= bytes.len() {
        out.push(translate_codon([bytes[i], bytes[i + 1], bytes[i + 2]]));
        i += 3;
    }
    ProteinSeq::from_ascii_unchecked(out)
}

/// A reading frame identifier matching BLASTX conventions:
/// `+1, +2, +3` on the forward strand, `-1, -2, -3` on the reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame(pub i8);

impl Frame {
    /// `true` for forward-strand frames.
    #[inline]
    pub fn is_forward(self) -> bool {
        self.0 > 0
    }

    /// The 0-based codon offset within the (possibly
    /// reverse-complemented) strand.
    #[inline]
    pub fn offset(self) -> usize {
        (self.0.unsigned_abs() as usize) - 1
    }
}

impl std::fmt::Display for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:+}", self.0)
    }
}

/// All six frame translations of `dna`, in BLASTX order (`+1, +2, +3,
/// -1, -2, -3`).
pub fn six_frame_translations(dna: &DnaSeq) -> [(Frame, ProteinSeq); 6] {
    let rc = dna.reverse_complement();
    [
        (Frame(1), translate_frame(dna, 0)),
        (Frame(2), translate_frame(dna, 1)),
        (Frame(3), translate_frame(dna, 2)),
        (Frame(-1), translate_frame(&rc, 0)),
        (Frame(-2), translate_frame(&rc, 1)),
        (Frame(-3), translate_frame(&rc, 2)),
    ]
}

/// The synonymous codons of each residue, indexed by [`residue_index`]
/// and computed at compile time: residue `r` has the first
/// `SYNONYMS[r].1` codons of `SYNONYMS[r].0`, in [`STANDARD_CODE`]
/// order (`AAA`, `AAC`, …). Slot 20 (`X`, `*`, unknowns) has none.
static SYNONYMS: [([[u8; 3]; 6], usize); 21] = {
    let mut table = [([[0u8; 3]; 6], 0usize); 21];
    let mut i = 0;
    while i < 64 {
        let aa = STANDARD_CODE[i];
        if aa != b'*' {
            let slot = &mut table[residue_index(aa)];
            slot.0[slot.1] = [DNA_BASES[i / 16], DNA_BASES[i / 4 % 4], DNA_BASES[i % 4]];
            slot.1 += 1;
        }
        i += 1;
    }
    table
};

/// Reverse-translates a protein into one valid coding DNA sequence,
/// choosing for each residue the codon given by `pick` (a value in
/// `0..n_codons` is reduced modulo the number of synonymous codons).
///
/// Used by the transcriptome simulator to manufacture mRNA whose
/// translation provably matches a generated protein.
pub fn reverse_translate(protein: &ProteinSeq, mut pick: impl FnMut(usize) -> usize) -> DnaSeq {
    let mut out = Vec::with_capacity(protein.len() * 3);
    for (i, &aa) in protein.as_bytes().iter().enumerate() {
        let (codons, n) = &SYNONYMS[residue_index(aa)];
        let choices = &codons[..*n];
        if choices.is_empty() {
            // Stop or unknown residue: encode as TAA / NNN respectively.
            if aa == b'*' {
                out.extend_from_slice(b"TAA");
            } else {
                out.extend_from_slice(b"NNN");
            }
            continue;
        }
        let codon = choices[pick(i) % choices.len()];
        out.extend_from_slice(&codon);
    }
    DnaSeq::from_ascii_unchecked(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_codons_translate_correctly() {
        assert_eq!(translate_codon(*b"ATG"), b'M');
        assert_eq!(translate_codon(*b"TGG"), b'W');
        assert_eq!(translate_codon(*b"TAA"), b'*');
        assert_eq!(translate_codon(*b"TAG"), b'*');
        assert_eq!(translate_codon(*b"TGA"), b'*');
        assert_eq!(translate_codon(*b"AAA"), b'K');
        assert_eq!(translate_codon(*b"TTT"), b'F');
        assert_eq!(translate_codon(*b"GGG"), b'G');
        assert_eq!(translate_codon(*b"GCT"), b'A');
        assert_eq!(translate_codon(*b"CGA"), b'R');
    }

    #[test]
    fn ambiguous_bases_give_x() {
        assert_eq!(translate_codon(*b"ANG"), b'X');
        assert_eq!(translate_codon(*b"NNN"), b'X');
    }

    #[test]
    fn table_has_expected_composition() {
        let stops = STANDARD_CODE.iter().filter(|&&a| a == b'*').count();
        assert_eq!(stops, 3);
        let mets = STANDARD_CODE.iter().filter(|&&a| a == b'M').count();
        assert_eq!(mets, 1);
        let leus = STANDARD_CODE.iter().filter(|&&a| a == b'L').count();
        assert_eq!(leus, 6);
        let args = STANDARD_CODE.iter().filter(|&&a| a == b'R').count();
        assert_eq!(args, 6);
        let trps = STANDARD_CODE.iter().filter(|&&a| a == b'W').count();
        assert_eq!(trps, 1);
    }

    #[test]
    fn frame_translation_drops_partial_codons() {
        let dna = DnaSeq::from_ascii(b"ATGAAAT").unwrap();
        assert_eq!(translate_frame(&dna, 0).as_bytes(), b"MK");
        assert_eq!(translate_frame(&dna, 1).as_bytes(), b"*N");
        assert_eq!(translate_frame(&dna, 2).as_bytes(), b"E"); // GAA + partial AT
    }

    #[test]
    fn six_frames_have_expected_lengths() {
        let dna = DnaSeq::from_ascii(b"ATGAAACCCGGGTTT").unwrap(); // 15 nt
        let frames = six_frame_translations(&dna);
        assert_eq!(frames[0].1.len(), 5);
        assert_eq!(frames[1].1.len(), 4);
        assert_eq!(frames[2].1.len(), 4);
        assert_eq!(frames[3].1.len(), 5);
        assert_eq!(frames[0].0, Frame(1));
        assert_eq!(frames[5].0, Frame(-3));
    }

    #[test]
    fn reverse_translate_round_trips_through_translation() {
        let prot = ProteinSeq::from_ascii(b"MKWLFARNDCEQGHIPSTVY").unwrap();
        for variant in 0..5usize {
            let dna = reverse_translate(&prot, |i| i * 7 + variant);
            let back = translate_frame(&dna, 0);
            assert_eq!(back, prot, "variant {variant}");
        }
    }

    /// The inverse codon table as `reverse_translate` built it on every
    /// call before it was a `static`: the oracle for [`SYNONYMS`].
    fn synonyms_built_per_call() -> [Vec<[u8; 3]>; 21] {
        let mut by_aa: [Vec<[u8; 3]>; 21] = Default::default();
        for a in 0..4u8 {
            for b in 0..4u8 {
                for c in 0..4u8 {
                    let aa = translate_codon_codes(a, b, c);
                    let idx = crate::alphabet::residue_index(aa);
                    let codon = [
                        crate::alphabet::code_base(a),
                        crate::alphabet::code_base(b),
                        crate::alphabet::code_base(c),
                    ];
                    if aa != b'*' {
                        by_aa[idx].push(codon);
                    }
                }
            }
        }
        by_aa
    }

    #[test]
    fn static_synonyms_match_the_per_call_build_in_every_slot() {
        let oracle = synonyms_built_per_call();
        for (slot, (codons, n)) in SYNONYMS.iter().enumerate() {
            assert_eq!(&codons[..*n], oracle[slot].as_slice(), "slot {slot}");
        }
        assert_eq!(SYNONYMS[20].1, 0, "X, * and unknowns have no codon");
        assert_eq!(SYNONYMS.iter().map(|s| s.1).sum::<usize>(), 61);
    }

    #[test]
    fn pick_is_asked_only_for_standard_residues() {
        let prot = ProteinSeq::from_ascii(b"MX*KwL").unwrap();
        let mut asked = Vec::new();
        let dna = reverse_translate(&prot, |i| {
            asked.push(i);
            i
        });
        assert_eq!(asked, vec![0, 3, 4, 5]);
        assert_eq!(&dna.as_bytes()[3..9], b"NNNTAA");
    }

    #[test]
    fn display_format_is_signed() {
        assert_eq!(Frame(1).to_string(), "+1");
        assert_eq!(Frame(-3).to_string(), "-3");
    }
}
