#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! blast2cap3: protein-guided transcript assembly.
//!
//! This is the application the paper turns into a Pegasus workflow.
//! Given an assembled (redundant) transcript set and the BLASTX
//! alignment of those transcripts against a related-species protein
//! database, blast2cap3:
//!
//! 1. assigns each transcript to the protein it hits best
//!    ([`cluster`]), so transcripts sharing a protein form a cluster;
//! 2. hands each cluster to CAP3, which merges overlapping cluster
//!    members into contigs (`tasks::run_cap3_chunk`);
//! 3. concatenates the merged contigs with every transcript that
//!    joined nothing (`tasks::extract_unjoined`).
//!
//! Two drivers exist:
//!
//! * [`serial`] — the faithful port of the original Python script:
//!   clusters are processed strictly one after another (the 100-hour
//!   baseline of the paper);
//! * [`parallel`] — an in-process thread-parallel runner that
//!   processes the same task decomposition the Pegasus workflow uses
//!   (split into `n` chunks, CAP3 per chunk, merge), for measuring
//!   real speedups without a workflow engine.
//!
//! The workflow-facing task kernels in `tasks` correspond one-to-one
//! to the ovals of the paper's Fig. 2/Fig. 3 DAGs; the `pegasus-wms` +
//! `condor` crates execute them as a real DAG.

pub mod cluster;
pub mod files;
pub mod parallel;
pub mod pipeline;
pub mod serial;
pub mod split;
pub(crate) mod tasks;
pub mod workflow;
