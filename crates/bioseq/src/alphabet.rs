//! Nucleotide and amino-acid alphabets.
//!
//! Sequences are stored as upper-case ASCII bytes. The nucleotide
//! alphabet accepts the four canonical bases plus `N` (unknown); the
//! amino-acid alphabet accepts the 20 standard residues plus `X`
//! (unknown) and `*` (stop).

/// The four canonical DNA bases in encoding order (`A=0, C=1, G=2, T=3`).
pub const DNA_BASES: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// The 20 standard amino acids, alphabetical by one-letter code.
pub const AMINO_ACIDS: [u8; 20] = [
    b'A', b'C', b'D', b'E', b'F', b'G', b'H', b'I', b'K', b'L', b'M', b'N', b'P', b'Q', b'R', b'S',
    b'T', b'V', b'W', b'Y',
];

/// Returns `true` if `b` (case-insensitive) is a canonical base or `N`.
#[inline]
pub(crate) fn is_dna(b: u8) -> bool {
    matches!(b.to_ascii_uppercase(), b'A' | b'C' | b'G' | b'T' | b'N')
}

/// [`RESIDUE_CODE`] of `X`, `*`: in the protein alphabet, but not a
/// standard residue.
const UNKNOWN: u8 = 20;

/// [`RESIDUE_CODE`] of a byte outside the protein alphabet.
const NOT_PROTEIN: u8 = 21;

/// The residue code of every byte, computed at compile time: `0..20`
/// for the standard residues in [`AMINO_ACIDS`] order (either case),
/// [`UNKNOWN`] for `X`, `x` and `*`, [`NOT_PROTEIN`] for the rest.
const RESIDUE_CODE: [u8; 256] = {
    let mut table = [NOT_PROTEIN; 256];
    let mut i = 0;
    while i < AMINO_ACIDS.len() {
        table[AMINO_ACIDS[i] as usize] = i as u8;
        table[AMINO_ACIDS[i].to_ascii_lowercase() as usize] = i as u8;
        i += 1;
    }
    table[b'X' as usize] = UNKNOWN;
    table[b'x' as usize] = UNKNOWN;
    table[b'*' as usize] = UNKNOWN;
    table
};

/// Returns `true` if `b` (case-insensitive) is a standard residue, `X`, or `*`.
#[inline]
pub(crate) fn is_protein(b: u8) -> bool {
    RESIDUE_CODE[b as usize] != NOT_PROTEIN
}

/// Watson–Crick complement of a single (possibly lower-case) base.
///
/// `N` complements to `N`; any other byte is returned unchanged so that
/// the caller's validation, not this function, decides policy.
#[inline]
pub(crate) fn complement(b: u8) -> u8 {
    match b {
        b'A' => b'T',
        b'T' => b'A',
        b'C' => b'G',
        b'G' => b'C',
        b'a' => b't',
        b't' => b'a',
        b'c' => b'g',
        b'g' => b'c',
        b'N' => b'N',
        b'n' => b'n',
        other => other,
    }
}

/// 2-bit code for a canonical base (`A=0, C=1, G=2, T=3`).
///
/// Returns `None` for `N` or any non-base byte.
#[inline]
pub fn base_code(b: u8) -> Option<u8> {
    match b.to_ascii_uppercase() {
        b'A' => Some(0),
        b'C' => Some(1),
        b'G' => Some(2),
        b'T' => Some(3),
        _ => None,
    }
}

/// Inverse of [`base_code`]: maps `0..=3` back to `ACGT`.
///
/// # Panics
/// Panics if `code > 3`.
#[inline]
pub fn code_base(code: u8) -> u8 {
    DNA_BASES[code as usize]
}

/// Dense index for an amino acid (case-insensitive): `0..20` for the
/// standard residues in [`AMINO_ACIDS`] order, `20` for anything else
/// (`X`, `*`, unknowns). A `const fn`, so other tables can be built
/// from it at compile time.
#[inline]
pub const fn residue_index(b: u8) -> usize {
    let code = RESIDUE_CODE[b as usize];
    (if code < UNKNOWN { code } else { UNKNOWN }) as usize
}

/// The alphabet checks the table replaced, kept as its oracles.
#[cfg(test)]
mod oracle {
    use super::AMINO_ACIDS;

    pub(super) fn residue_index(b: u8) -> usize {
        AMINO_ACIDS
            .binary_search(&b.to_ascii_uppercase())
            .unwrap_or(20)
    }

    pub(super) fn is_protein(b: u8) -> bool {
        let u = b.to_ascii_uppercase();
        u == b'X' || u == b'*' || AMINO_ACIDS.binary_search(&u).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residue_table_matches_the_binary_search_on_every_byte() {
        for b in 0..=u8::MAX {
            assert_eq!(residue_index(b), oracle::residue_index(b), "byte {b}");
            assert_eq!(is_protein(b), oracle::is_protein(b), "byte {b}");
        }
    }

    #[test]
    fn canonical_bases_are_dna() {
        for b in DNA_BASES {
            assert!(is_dna(b));
            assert!(is_dna(b.to_ascii_lowercase()));
        }
        assert!(is_dna(b'N'));
        assert!(!is_dna(b'Q'));
        assert!(!is_dna(b' '));
    }

    #[test]
    fn complement_is_involution_on_bases() {
        for b in [b'A', b'C', b'G', b'T', b'N', b'a', b'c', b'g', b't'] {
            assert_eq!(complement(complement(b)), b);
        }
        assert_eq!(complement(b'A'), b'T');
        assert_eq!(complement(b'g'), b'c');
    }

    #[test]
    fn base_code_round_trips() {
        for (i, b) in DNA_BASES.iter().enumerate() {
            assert_eq!(base_code(*b), Some(i as u8));
            assert_eq!(code_base(i as u8), *b);
        }
        assert_eq!(base_code(b'N'), None);
        assert_eq!(base_code(b'a'), Some(0));
    }

    #[test]
    fn protein_alphabet_accepts_extended_codes() {
        for aa in AMINO_ACIDS {
            assert!(is_protein(aa));
            assert!(is_protein(aa.to_ascii_lowercase()));
        }
        assert!(is_protein(b'X'));
        assert!(is_protein(b'*'));
        assert!(!is_protein(b'B'));
        assert!(!is_protein(b'1'));
    }

    #[test]
    fn residue_index_is_dense_and_total() {
        for (i, aa) in AMINO_ACIDS.iter().enumerate() {
            assert_eq!(residue_index(*aa), i);
        }
        assert_eq!(residue_index(b'X'), 20);
        assert_eq!(residue_index(b'*'), 20);
        assert_eq!(residue_index(b'?'), 20);
    }

    #[test]
    fn amino_acids_are_sorted_for_binary_search() {
        let mut sorted = AMINO_ACIDS;
        sorted.sort_unstable();
        assert_eq!(sorted, AMINO_ACIDS);
    }
}
