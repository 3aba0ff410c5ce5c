#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! A BLASTX-like translated aligner.
//!
//! blast2cap3 consumes the tabular output of a BLASTX run of the
//! transcript set against a related-species protein database; this
//! crate reimplements that producer from scratch:
//!
//! * [`matrix`] — the BLOSUM62 substitution matrix;
//! * `seed` — a packed-word index over the protein database;
//! * [`extend`] — ungapped X-drop extension of seed hits into HSPs;
//! * [`evalue`] — Karlin–Altschul bit scores and E-values;
//! * [`search`] — the per-query 6-frame search driver (DUST masking,
//!   seeding, extension, the E-value cutoff) with a scoped-thread
//!   parallel front end;
//! * [`tabular`] — reader/writer for the 12-column `-outfmt 6` format
//!   (the `alignments.out` file of the paper).
//!
//! # Example
//!
//! ```
//! use bioseq::seq::{DnaSeq, ProteinSeq};
//! use bioseq::codon::reverse_translate;
//! use blastx::search::{SearchParams, Searcher};
//!
//! let prot = ProteinSeq::from_ascii(b"MKWVLLLFAARNDCEQGHIKWWYEEDDKKHH").unwrap();
//! let db = vec![("p1".to_string(), prot.clone())];
//! let searcher = Searcher::new(db, SearchParams::default()).unwrap();
//! // A transcript encoding p1 on the forward strand:
//! let q = reverse_translate(&prot, |i| i);
//! let hits = searcher.search_one("tx1", &q);
//! assert!(hits.iter().any(|h| h.subject_id == "p1"));
//! ```

pub mod align;
pub mod evalue;
pub mod extend;
pub mod matrix;
pub mod search;
pub(crate) mod seed;
pub mod tabular;

pub use search::{Hsp, SearchParams, Searcher};
