#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! Biological sequence substrate for the blast2cap3/Pegasus reproduction.
//!
//! This crate replaces the Python/Biopython layer of the original
//! blast2cap3 tool chain. It provides:
//!
//! * nucleotide and amino-acid alphabets with validation and
//!   complementation ([`alphabet`]);
//! * owned sequence types with the handful of operations the pipeline
//!   needs — reverse complement, slicing, GC content ([`seq`]);
//! * one FASTA reader/writer for both alphabets, which round-trips the
//!   `transcripts.fasta` files exchanged between workflow tasks and
//!   reads the aligner's protein database ([`fasta`]);
//! * the standard codon table and 6-frame translation used by the
//!   BLASTX-like aligner ([`codon`]);
//! * 2-bit packed k-mer iteration used for alignment seeding ([`kmer`]);
//! * assembly summary statistics (N50 and friends) used to validate
//!   CAP3 output ([`stats`]);
//! * a synthetic transcriptome generator that stands in for the
//!   Triticum urartu dataset (NCBI PRJNA191053) the paper used
//!   ([`simulate`]).
//!
//! # Example
//!
//! ```
//! use bioseq::fasta::Record;
//! use bioseq::seq::DnaSeq;
//!
//! let rec = Record::new("tx1", "", DnaSeq::from_ascii(b"ACGTACGT").unwrap());
//! let fasta = rec.to_fasta_string(60);
//! assert!(fasta.starts_with(">tx1\n"));
//! ```

pub mod alphabet;
pub mod codon;
pub mod dust;
pub mod error;
pub mod fasta;
pub mod fxhash;
pub mod kmer;
pub mod output;
pub mod seq;
pub mod simulate;
pub mod stats;
