#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! A CAP3-like overlap–layout–consensus assembler.
//!
//! blast2cap3 hands each cluster of protein-sharing transcripts to
//! CAP3, which merges transcripts whose ends overlap with high
//! identity into contigs and reports everything else as singlets. This
//! crate implements that contract:
//!
//! * `overlap` — k-mer-seeded diagonal detection of suffix–prefix
//!   overlaps (both orientations) with CAP3-style length (`-o`) and
//!   identity (`-p`) cutoffs;
//! * `layout` — union-find clustering of accepted overlaps and a
//!   BFS placement that assigns every read an offset and orientation
//!   in its contig frame;
//! * `consensus` — per-column majority consensus over the layout;
//! * `assemble` — the public driver producing contigs + singlets,
//!   mirroring CAP3's `.cap.contigs` / `.cap.singlets` outputs.
//!
//! # Example
//!
//! ```
//! use bioseq::fasta::Record;
//! use bioseq::seq::DnaSeq;
//! use cap3::{Assembler, Cap3Params};
//!
//! // Two fragments of one template overlapping by 30 bases.
//! let template = "ACGTACGGTTCAGATCCGATAAGCTTGCGATCGATTACGGATCCGGGTTACGTAGCATGC";
//! let a = Record::new("a", "", DnaSeq::from_ascii(&template.as_bytes()[..40]).unwrap());
//! let b = Record::new("b", "", DnaSeq::from_ascii(&template.as_bytes()[10..]).unwrap());
//! let asm = Assembler::new(Cap3Params { min_overlap_len: 20, ..Default::default() });
//! let result = asm.assemble(&[a, b]);
//! assert_eq!(result.contigs.len(), 1);
//! assert_eq!(result.singlets.len(), 0);
//! assert_eq!(result.contigs[0].seq.as_bytes(), template.as_bytes());
//! ```

pub(crate) mod assemble;
pub(crate) mod consensus;
pub(crate) mod layout;
pub(crate) mod overlap;
pub(crate) mod params;

pub use assemble::{Assembler, Assembly};
pub use params::Cap3Params;
