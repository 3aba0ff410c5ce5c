//! Word index over the protein database.
//!
//! Protein words of length [`WORD_SIZE`] are packed base-21 (20
//! residues + unknown) into a `u32` and hashed to the list of
//! `(subject, position)` pairs where they occur. Queries look up each
//! of their translated words; exact word matches become extension
//! seeds. Words containing unknown residues or stops are not indexed.

use bioseq::alphabet::residue_index;
use bioseq::fxhash::FxHashMap;
use bioseq::seq::ProteinSeq;

/// Seed word length in residues. Four residues of BLOSUM62 self-score
/// give a seed score comparable to BLAST's default two-hit threshold,
/// so single exact 4-mers are a reasonable seeding rule.
pub(crate) const WORD_SIZE: usize = 4;

/// A packed protein word.
pub(crate) type PackedWord = u32;

/// Packs `WORD_SIZE` residues base-21; `None` if any residue is
/// unknown (`X`, `*`, or a non-standard letter).
#[inline]
pub(crate) fn pack_word(residues: &[u8]) -> Option<PackedWord> {
    debug_assert_eq!(residues.len(), WORD_SIZE);
    let mut v: u32 = 0;
    for &r in residues {
        let idx = residue_index(r);
        if idx >= 20 {
            return None;
        }
        v = v * 21 + idx as u32;
    }
    Some(v)
}

/// Location of a word occurrence in the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WordHit {
    /// Index of the subject protein in the database entry list.
    pub(crate) subject: u32,
    /// Residue offset of the word within the subject.
    pub(crate) pos: u32,
}

/// Inverted word index over a set of proteins.
#[derive(Debug, Default)]
pub(crate) struct WordIndex {
    map: FxHashMap<PackedWord, Vec<WordHit>>,
    /// Total residues indexed, used for E-value search-space size.
    total_residues: usize,
}

impl WordIndex {
    /// Builds an index over `proteins` (order defines subject ids).
    pub(crate) fn build(proteins: &[(String, ProteinSeq)]) -> Self {
        let mut map: FxHashMap<PackedWord, Vec<WordHit>> = FxHashMap::default();
        let mut total_residues = 0usize;
        for (sid, (_, prot)) in proteins.iter().enumerate() {
            let bytes = prot.as_bytes();
            total_residues += bytes.len();
            if bytes.len() < WORD_SIZE {
                continue;
            }
            for pos in 0..=bytes.len() - WORD_SIZE {
                if let Some(w) = pack_word(&bytes[pos..pos + WORD_SIZE]) {
                    map.entry(w).or_default().push(WordHit {
                        subject: sid as u32,
                        pos: pos as u32,
                    });
                }
            }
        }
        WordIndex {
            map,
            total_residues,
        }
    }

    /// Occurrences of a packed word, if any.
    #[inline]
    pub(crate) fn lookup(&self, word: PackedWord) -> &[WordHit] {
        self.map.get(&word).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total residues across all indexed proteins.
    pub(crate) fn total_residues(&self) -> usize {
        self.total_residues
    }

    /// Iterates the packed words of `query`, yielding
    /// `(query_position, packed_word)` and skipping unknown-containing
    /// windows.
    pub(crate) fn query_words(query: &[u8]) -> impl Iterator<Item = (usize, PackedWord)> + '_ {
        (0..query.len().saturating_sub(WORD_SIZE - 1))
            .filter_map(|i| pack_word(&query[i..i + WORD_SIZE]).map(|w| (i, w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prot(id: &str, s: &str) -> (String, ProteinSeq) {
        (
            id.to_string(),
            ProteinSeq::from_ascii(s.as_bytes()).unwrap(),
        )
    }

    #[test]
    fn pack_word_distinguishes_words() {
        let a = pack_word(b"MKWL").unwrap();
        let b = pack_word(b"MKWV").unwrap();
        let c = pack_word(b"LWKM").unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(pack_word(b"MKWL"), pack_word(b"mkwl"));
    }

    #[test]
    fn pack_word_rejects_unknowns() {
        assert_eq!(pack_word(b"MKX L".get(0..4).unwrap()), None);
        assert_eq!(pack_word(b"MK*L"), None);
    }

    #[test]
    fn index_finds_all_occurrences() {
        let db = vec![prot("a", "MKWLMKWL"), prot("b", "AAMKWLAA")];
        let idx = WordIndex::build(&db);
        let hits = idx.lookup(pack_word(b"MKWL").unwrap());
        assert_eq!(hits.len(), 3);
        assert!(hits.contains(&WordHit { subject: 0, pos: 0 }));
        assert!(hits.contains(&WordHit { subject: 0, pos: 4 }));
        assert!(hits.contains(&WordHit { subject: 1, pos: 2 }));
        assert_eq!(idx.total_residues(), 16);
    }

    #[test]
    fn short_proteins_are_skipped_but_counted() {
        let db = vec![prot("tiny", "MK")];
        let idx = WordIndex::build(&db);
        assert!(idx.map.is_empty());
        assert_eq!(idx.total_residues(), 2);
    }

    #[test]
    fn missing_word_yields_empty_slice() {
        let db = vec![prot("a", "MKWL")];
        let idx = WordIndex::build(&db);
        assert!(idx.lookup(pack_word(b"WWWW").unwrap()).is_empty());
    }

    #[test]
    fn query_words_skip_unknown_windows() {
        let words: Vec<(usize, PackedWord)> = WordIndex::query_words(b"MKXLAAAA").collect();
        // Windows starting at 0,1,2 contain X; 3..=4 are clean.
        let positions: Vec<usize> = words.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, vec![3, 4]);
    }

    #[test]
    fn query_shorter_than_word_yields_nothing() {
        assert_eq!(WordIndex::query_words(b"MK").count(), 0);
    }
}
