//! Word index over the protein database.
//!
//! Protein words of length [`WORD_SIZE`] are packed base-21 (20
//! residues + unknown) into a `u32`, which addresses a compressed
//! sparse row table of the `(subject, position)` pairs where each word
//! occurs. Queries look up each of their translated words; exact word
//! matches become extension seeds. Words containing unknown residues or
//! stops are not indexed.

use bioseq::alphabet::residue_index;
use bioseq::seq::ProteinSeq;

/// Seed word length in residues. Four residues of BLOSUM62 self-score
/// give a seed score comparable to BLAST's default two-hit threshold,
/// so single exact 4-mers are a reasonable seeding rule.
pub(crate) const WORD_SIZE: usize = 4;

/// A packed protein word.
pub(crate) type PackedWord = u32;

/// Every packed word is below this: `21^WORD_SIZE`.
const WORDS: usize = 21 * 21 * 21 * 21;

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

/// Inverted word index over a set of proteins, addressed directly by
/// packed word: word `w`'s hits are `hits[starts[w]..starts[w + 1]]`,
/// in subject then position order.
#[derive(Debug)]
pub(crate) struct WordIndex {
    starts: Vec<u32>,
    hits: Vec<WordHit>,
    /// Total residues indexed, used for E-value search-space size.
    total_residues: usize,
}

impl WordIndex {
    /// Builds an index over `proteins` (order defines subject ids): a
    /// count pass, a prefix sum, and a fill pass in the same order.
    pub(crate) fn build(proteins: &[(String, ProteinSeq)]) -> Self {
        // Word `w` is counted at `starts[w + 2]`, so that after the
        // prefix sum `starts[w + 1]` is where its first hit goes. The
        // fill advances it to the end of `w`'s hits, which is where
        // `w + 1`'s begin: `starts[w]..starts[w + 1]` is then `w`'s.
        let mut starts = vec![0u32; WORDS + 2];
        for (_, prot) in proteins {
            for (_, w) in Self::words(prot.as_bytes()) {
                starts[w as usize + 2] += 1;
            }
        }
        for i in 2..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut hits = vec![WordHit { subject: 0, pos: 0 }; starts[WORDS + 1] as usize];
        let mut total_residues = 0usize;
        for (sid, (_, prot)) in proteins.iter().enumerate() {
            total_residues += prot.len();
            for (pos, w) in Self::words(prot.as_bytes()) {
                let next = &mut starts[w as usize + 1];
                hits[*next as usize] = WordHit {
                    subject: sid as u32,
                    pos: pos as u32,
                };
                *next += 1;
            }
        }
        starts.pop();
        WordIndex {
            starts,
            hits,
            total_residues,
        }
    }

    /// Occurrences of a packed word, if any.
    #[inline]
    pub(crate) fn lookup(&self, word: PackedWord) -> &[WordHit] {
        let w = word as usize;
        &self.hits[self.starts[w] as usize..self.starts[w + 1] as usize]
    }

    /// Total residues across all indexed proteins.
    pub(crate) fn total_residues(&self) -> usize {
        self.total_residues
    }

    /// Iterates the packed words of `residues`, yielding
    /// `(position, packed_word)` and skipping unknown-containing
    /// windows.
    pub(crate) fn words(residues: &[u8]) -> impl Iterator<Item = (usize, PackedWord)> + '_ {
        (0..residues.len().saturating_sub(WORD_SIZE - 1))
            .filter_map(|i| pack_word(&residues[i..i + WORD_SIZE]).map(|w| (i, w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::fxhash::FxHashMap;
    use proptest::prelude::*;

    fn prot(id: &str, s: &str) -> (String, ProteinSeq) {
        (
            id.to_string(),
            ProteinSeq::from_ascii(s.as_bytes()).unwrap(),
        )
    }

    /// The index as a hash map of per-word lists, built as it was before
    /// it was direct-addressed (words packed through a binary search of
    /// the alphabet): the oracle for `WordIndex::build`.
    fn hash_map_index(proteins: &[(String, ProteinSeq)]) -> FxHashMap<PackedWord, Vec<WordHit>> {
        let pack = |residues: &[u8]| {
            residues.iter().try_fold(0u32, |v, r| {
                let idx = bioseq::alphabet::AMINO_ACIDS.binary_search(&r.to_ascii_uppercase());
                idx.ok().map(|i| v * 21 + i as u32)
            })
        };
        let mut map: FxHashMap<PackedWord, Vec<WordHit>> = FxHashMap::default();
        for (sid, (_, prot)) in proteins.iter().enumerate() {
            let bytes = prot.as_bytes();
            if bytes.len() < WORD_SIZE {
                continue;
            }
            for pos in 0..=bytes.len() - WORD_SIZE {
                if let Some(w) = pack(&bytes[pos..pos + WORD_SIZE]) {
                    map.entry(w).or_default().push(WordHit {
                        subject: sid as u32,
                        pos: pos as u32,
                    });
                }
            }
        }
        map
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn csr_index_returns_the_hash_map_oracles_hit_lists(
            seqs in proptest::collection::vec(
                proptest::string::string_regex("[ACKWXackw*]{0,40}").expect("valid regex"),
                1..16,
            ),
        ) {
            let db: Vec<(String, ProteinSeq)> = seqs
                .iter()
                .enumerate()
                .map(|(i, s)| prot(&format!("p{i}"), s))
                .collect();
            let idx = WordIndex::build(&db);
            let oracle = hash_map_index(&db);
            for w in 0..WORDS as PackedWord {
                let want = oracle.get(&w).map(Vec::as_slice).unwrap_or(&[]);
                prop_assert_eq!(idx.lookup(w), want);
            }
            prop_assert_eq!(
                idx.total_residues(),
                db.iter().map(|(_, p)| p.len()).sum::<usize>()
            );
        }
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
    fn every_packed_word_has_a_row() {
        // The largest packed word: 19 (`Y`) in every base-21 digit.
        assert_eq!(
            pack_word(b"YYYY"),
            Some(19 * (21 * 21 * 21 + 21 * 21 + 21 + 1))
        );
        let idx = WordIndex::build(&[prot("y", "YYYYY")]);
        assert_eq!(idx.lookup(pack_word(b"YYYY").unwrap()).len(), 2);
        assert_eq!(idx.starts.len(), WORDS + 1);
    }

    #[test]
    fn index_finds_all_occurrences() {
        let db = vec![prot("a", "MKWLMKWL"), prot("b", "AAMKWLAA")];
        let idx = WordIndex::build(&db);
        let hits = idx.lookup(pack_word(b"MKWL").unwrap());
        assert_eq!(
            hits,
            [
                WordHit { subject: 0, pos: 0 },
                WordHit { subject: 0, pos: 4 },
                WordHit { subject: 1, pos: 2 },
            ]
        );
        assert_eq!(idx.total_residues(), 16);
    }

    #[test]
    fn short_proteins_are_skipped_but_counted() {
        let db = vec![prot("tiny", "MK")];
        let idx = WordIndex::build(&db);
        assert!(idx.hits.is_empty());
        assert_eq!(idx.total_residues(), 2);
    }

    #[test]
    fn missing_word_yields_empty_slice() {
        let db = vec![prot("a", "MKWL")];
        let idx = WordIndex::build(&db);
        assert!(idx.lookup(pack_word(b"WWWW").unwrap()).is_empty());
    }

    #[test]
    fn words_skip_unknown_windows() {
        let words: Vec<(usize, PackedWord)> = WordIndex::words(b"MKXLAAAA").collect();
        // Windows starting at 0,1,2 contain X; 3..=4 are clean.
        let positions: Vec<usize> = words.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, vec![3, 4]);
    }

    #[test]
    fn query_shorter_than_word_yields_nothing() {
        assert_eq!(WordIndex::words(b"MK").count(), 0);
    }
}
