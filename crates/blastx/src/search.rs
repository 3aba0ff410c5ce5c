//! The translated search driver.
//!
//! For each query transcript the driver DUST-masks low-complexity
//! regions, translates all six reading frames, looks every translated
//! word up in the database word index, X-drop-extends each seed,
//! filters by E-value, and reports the surviving ungapped HSPs ranked
//! by bit score. [`Searcher::search_many`] fans queries out over
//! scoped threads — the aligner is embarrassingly parallel over
//! queries, which is exactly the parallelism the paper's workflow
//! exploits at coarser granularity.

use crate::evalue::{KarlinParams, BLOSUM62_UNGAPPED};
use crate::extend::xdrop_extend;
use crate::seed::{WordIndex, WORD_SIZE};
use bioseq::codon::{six_frame_translations, Frame};
use bioseq::fxhash::FxHashSet;
use bioseq::seq::{DnaSeq, ProteinSeq};

/// X-drop threshold for ungapped extension.
const X_DROP: i32 = 16;

/// At most this many HSPs are reported per query.
const MAX_HITS_PER_QUERY: usize = 25;

/// The one search setting a caller chooses: the report threshold.
/// Every query is DUST-masked before translation (BLAST's default),
/// so masked bases become `N`, translate to `X`, and are never seeded.
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// Report threshold: maximum E-value.
    pub max_evalue: f64,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams { max_evalue: 1e-5 }
    }
}

/// A high-scoring segment pair in BLAST tabular conventions.
#[derive(Debug, Clone, PartialEq)]
pub struct Hsp {
    /// Query (transcript) identifier.
    pub(crate) query_id: String,
    /// Subject (protein) identifier.
    pub subject_id: String,
    /// Reading frame of the query.
    pub frame: Frame,
    /// Percent identity over the alignment.
    pub percent_identity: f64,
    /// Alignment length in residues.
    pub length: usize,
    /// Mismatched aligned pairs.
    pub(crate) mismatches: usize,
    /// 1-based query start on the DNA (qstart > qend on reverse frames).
    pub q_start: usize,
    /// 1-based query end on the DNA.
    pub q_end: usize,
    /// 1-based subject start in residues.
    pub s_start: usize,
    /// 1-based subject end in residues.
    pub s_end: usize,
    /// Expectation value.
    pub evalue: f64,
    /// Normalised bit score.
    pub(crate) bit_score: f64,
    /// Raw BLOSUM62 score.
    pub(crate) raw_score: i32,
}

/// Errors from searcher construction.
#[derive(Debug, PartialEq, Eq)]
pub enum SearchError {
    /// The protein database contains no sequences.
    EmptyDatabase,
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::EmptyDatabase => write!(f, "protein database is empty"),
        }
    }
}

impl std::error::Error for SearchError {}

/// A reusable translated-search engine over a fixed protein database.
#[derive(Debug)]
pub struct Searcher {
    db: Vec<(String, ProteinSeq)>,
    index: WordIndex,
    params: SearchParams,
    karlin: KarlinParams,
}

impl Searcher {
    /// Builds the word index over `db`.
    pub fn new(db: Vec<(String, ProteinSeq)>, params: SearchParams) -> Result<Self, SearchError> {
        if db.is_empty() {
            return Err(SearchError::EmptyDatabase);
        }
        let index = WordIndex::build(&db);
        Ok(Searcher {
            db,
            index,
            params,
            karlin: BLOSUM62_UNGAPPED,
        })
    }

    /// The database this searcher was built over.
    pub fn database(&self) -> &[(String, ProteinSeq)] {
        &self.db
    }

    /// Maps protein-frame coordinates back to 1-based DNA tabular
    /// coordinates (`qstart > qend` on reverse frames).
    fn dna_coords(frame: Frame, q_start: usize, q_end: usize, dna_len: usize) -> (usize, usize) {
        let off = frame.offset();
        if frame.is_forward() {
            (off + 3 * q_start + 1, off + 3 * q_end)
        } else {
            // Positions are on the reverse-complement strand; flip back.
            (
                dna_len - (off + 3 * q_start),
                dna_len - (off + 3 * q_end) + 1,
            )
        }
    }

    /// Searches one transcript, returning HSPs sorted by descending
    /// bit score (ties broken by subject id for determinism).
    pub fn search_one(&self, query_id: &str, dna: &DnaSeq) -> Vec<Hsp> {
        let dna_len = dna.len();
        let dna = &bioseq::dust::dust_mask(dna);
        let mut hsps: Vec<Hsp> = Vec::new();
        // Keyed by positions the search computed, never by outside
        // bytes, so the Fx hasher is safe here.
        let mut seen: FxHashSet<(u32, i8, usize, usize)> = FxHashSet::default();

        for (frame, prot) in six_frame_translations(dna) {
            let qbytes = prot.as_bytes();
            if qbytes.len() < WORD_SIZE {
                continue;
            }
            for (qpos, word) in WordIndex::words(qbytes) {
                for hit in self.index.lookup(word) {
                    let sbytes = self.db[hit.subject as usize].1.as_bytes();
                    let ext =
                        xdrop_extend(qbytes, sbytes, qpos, hit.pos as usize, WORD_SIZE, X_DROP);
                    if ext.score <= 0 {
                        continue;
                    }
                    // Identical extensions arise from every seed inside
                    // one HSP; report each segment once per frame.
                    if !seen.insert((hit.subject, frame.0, ext.q_start, ext.s_start)) {
                        continue;
                    }
                    let evalue =
                        self.karlin
                            .evalue(ext.score, qbytes.len(), self.index.total_residues());
                    if evalue > self.params.max_evalue {
                        continue;
                    }
                    let (q_start_dna, q_end_dna) =
                        Self::dna_coords(frame, ext.q_start, ext.q_end, dna_len);
                    hsps.push(Hsp {
                        query_id: query_id.to_string(),
                        subject_id: self.db[hit.subject as usize].0.clone(),
                        frame,
                        percent_identity: ext.percent_identity(),
                        length: ext.len(),
                        mismatches: ext.len() - ext.identities,
                        q_start: q_start_dna,
                        q_end: q_end_dna,
                        s_start: ext.s_start + 1,
                        s_end: ext.s_end,
                        evalue,
                        bit_score: self.karlin.bit_score(ext.score),
                        raw_score: ext.score,
                    });
                }
            }
        }

        hsps.sort_by(|a, b| {
            b.bit_score
                .partial_cmp(&a.bit_score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.subject_id.cmp(&b.subject_id))
                .then_with(|| a.s_start.cmp(&b.s_start))
        });
        hsps.truncate(MAX_HITS_PER_QUERY);
        hsps
    }

    /// Searches many transcripts in parallel over `threads` workers
    /// (0 means one worker per available core). Results are
    /// concatenated in query order, so output is deterministic.
    pub fn search_many(&self, queries: &[(String, DnaSeq)], threads: usize) -> Vec<Hsp> {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        if threads <= 1 || queries.len() <= 1 {
            return queries
                .iter()
                .flat_map(|(id, dna)| self.search_one(id, dna))
                .collect();
        }
        let chunk = queries.len().div_ceil(threads);
        let mut slots: Vec<Vec<Hsp>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|qs| {
                    scope.spawn(move || {
                        qs.iter()
                            .flat_map(|(id, dna)| self.search_one(id, dna))
                            .collect::<Vec<Hsp>>()
                    })
                })
                .collect();
            for h in handles {
                slots.push(h.join().expect("search worker panicked"));
            }
        });
        slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::codon::reverse_translate;

    fn db_of(entries: &[(&str, &str)]) -> Vec<(String, ProteinSeq)> {
        entries
            .iter()
            .map(|(id, s)| {
                (
                    id.to_string(),
                    ProteinSeq::from_ascii(s.as_bytes()).unwrap(),
                )
            })
            .collect()
    }

    const P1: &str = "MKWVLLLFAARNDCEQGHIKWWYEEDDKKHHMMLLVVPPQQ";
    const P2: &str = "GGGGSSSSTTTTPPPPYYYYHHHHWWWWCCCCDDDDEEEE";

    fn forward_query_for(prot: &str) -> DnaSeq {
        let p = ProteinSeq::from_ascii(prot.as_bytes()).unwrap();
        reverse_translate(&p, |i| i * 3 + 1)
    }

    #[test]
    fn empty_database_is_rejected() {
        assert_eq!(
            Searcher::new(vec![], SearchParams::default()).unwrap_err(),
            SearchError::EmptyDatabase
        );
    }

    #[test]
    fn finds_forward_frame_hit() {
        let s = Searcher::new(db_of(&[("p1", P1), ("p2", P2)]), SearchParams::default()).unwrap();
        let q = forward_query_for(P1);
        let hits = s.search_one("tx", &q);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].subject_id, "p1");
        assert_eq!(hits[0].frame, Frame(1));
        assert!(hits[0].percent_identity > 99.0);
        assert!(hits[0].evalue < 1e-10);
        assert!(hits[0].q_start < hits[0].q_end);
        assert_eq!(hits[0].q_start, 1);
        assert_eq!(hits[0].q_end, q.len());
        assert_eq!(hits[0].s_start, 1);
        assert_eq!(hits[0].s_end, P1.len());
    }

    #[test]
    fn finds_reverse_frame_hit_with_swapped_coords() {
        let s = Searcher::new(db_of(&[("p1", P1)]), SearchParams::default()).unwrap();
        let q = forward_query_for(P1).reverse_complement();
        let hits = s.search_one("tx", &q);
        assert!(!hits.is_empty());
        assert!(!hits[0].frame.is_forward());
        assert!(hits[0].q_start > hits[0].q_end, "reverse hits swap coords");
        assert_eq!(hits[0].q_start, q.len());
        assert_eq!(hits[0].q_end, 1);
    }

    #[test]
    fn unrelated_query_finds_nothing() {
        let s = Searcher::new(db_of(&[("p1", P1)]), SearchParams::default()).unwrap();
        // Poly-A translates to poly-K; P1 has no KKKK run at the needed
        // density for a significant E-value within default threshold.
        let q = DnaSeq::from_ascii(&b"ACGT".repeat(30)).unwrap();
        let hits = s.search_one("junk", &q);
        assert!(hits.is_empty(), "got {hits:?}");
    }

    #[test]
    fn query_with_offset_maps_dna_coordinates() {
        // One leading base shifts the signal into frame +2.
        let mut bytes = b"G".to_vec();
        bytes.extend_from_slice(forward_query_for(P1).as_bytes());
        let q = DnaSeq::from_ascii(&bytes).unwrap();
        let s = Searcher::new(db_of(&[("p1", P1)]), SearchParams::default()).unwrap();
        let hits = s.search_one("tx", &q);
        assert_eq!(hits[0].frame, Frame(2));
        assert_eq!(hits[0].q_start, 2);
    }

    #[test]
    fn hits_are_ranked_by_bit_score() {
        // Query matches p1 fully and p_partial only partially.
        let partial = &P1[..16];
        let s = Searcher::new(
            db_of(&[("full", P1), ("partial", partial)]),
            SearchParams::default(),
        )
        .unwrap();
        let q = forward_query_for(P1);
        let hits = s.search_one("tx", &q);
        assert!(hits.len() >= 2);
        assert_eq!(hits[0].subject_id, "full");
        assert!(hits[0].bit_score >= hits[1].bit_score);
    }

    #[test]
    fn max_hits_truncates() {
        let ids: Vec<String> = (0..MAX_HITS_PER_QUERY + 5)
            .map(|i| format!("s{i:02}"))
            .collect();
        let db: Vec<(&str, &str)> = ids.iter().map(|id| (id.as_str(), P1)).collect();
        let s = Searcher::new(db_of(&db), SearchParams::default()).unwrap();
        let hits = s.search_one("tx", &forward_query_for(P1));
        assert_eq!(hits.len(), MAX_HITS_PER_QUERY);
        // Equal scores rank by subject id, so the first 25 ids survive.
        assert_eq!(hits.last().unwrap().subject_id, ids[MAX_HITS_PER_QUERY - 1]);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let s = Searcher::new(db_of(&[("p1", P1), ("p2", P2)]), SearchParams::default()).unwrap();
        let queries: Vec<(String, DnaSeq)> = (0..8)
            .map(|i| {
                let prot = if i % 2 == 0 { P1 } else { P2 };
                (format!("tx{i}"), forward_query_for(prot))
            })
            .collect();
        let serial = s.search_many(&queries, 1);
        let parallel = s.search_many(&queries, 4);
        assert_eq!(serial, parallel);
        assert!(!serial.is_empty());
        // Query order is preserved.
        let first_q = serial.first().unwrap().query_id.clone();
        assert_eq!(first_q, "tx0");
    }

    #[test]
    fn low_complexity_queries_are_masked_out() {
        // A lysine-rich protein would normally be found by a poly-A
        // query (AAA -> K); DUST masking kills the spurious seed.
        let poly_k = "K".repeat(60);
        let s = Searcher::new(db_of(&[("junkprot", &poly_k)]), SearchParams::default()).unwrap();
        let poly_a = DnaSeq::from_ascii(&b"A".repeat(200)).unwrap();
        assert!(
            s.search_one("polyA", &poly_a).is_empty(),
            "masked poly-A must not hit poly-K"
        );
        // Unmasked, the query would seed: its +1 frame is all lysine,
        // and every one of its words is in the poly-K index.
        let [(frame, prot), ..] = six_frame_translations(&poly_a);
        assert_eq!(frame, Frame(1));
        assert!(prot.as_bytes().iter().all(|&r| r == b'K'));
        let mut words = WordIndex::words(prot.as_bytes()).peekable();
        assert!(words.peek().is_some());
        assert!(words.all(|(_, w)| !s.index.lookup(w).is_empty()));
    }

    #[test]
    fn masking_does_not_hurt_real_queries() {
        let s = Searcher::new(db_of(&[("p1", P1)]), SearchParams::default()).unwrap();
        let hits = s.search_one("tx", &forward_query_for(P1));
        assert!(!hits.is_empty());
        assert_eq!(hits[0].subject_id, "p1");
    }

    #[test]
    fn zero_threads_means_auto() {
        let s = Searcher::new(db_of(&[("p1", P1)]), SearchParams::default()).unwrap();
        let queries = vec![("tx".to_string(), forward_query_for(P1))];
        assert!(!s.search_many(&queries, 0).is_empty());
    }
}
