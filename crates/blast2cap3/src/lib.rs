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
//! [`serial`] is the faithful port of the original Python script:
//! clusters are processed strictly one after another (the 100-hour
//! baseline of the paper). The parallel blast2cap3 is the Fig. 2
//! workflow itself: [`workflow`] builds its DAG, and the task kernels
//! in `tasks` correspond one-to-one to the ovals of the paper's
//! Fig. 2/Fig. 3 DAGs. The `pegasus-wms` + `condor` crates execute
//! them as a real DAG, and the umbrella crate's `experiment::real_run`
//! is that one real executor. [`parallel`] remains only as `b2c3 run`'s
//! in-process thread pool over the same decomposition, until the
//! workflow path is no slower than it.

pub mod cluster;
pub mod files;
pub mod parallel;
pub mod serial;
pub mod split;
pub(crate) mod tasks;
pub mod workflow;

/// End-to-end checks of the paper's dataflow (synthetic transcriptome,
/// BLASTX-like alignment, protein-guided CAP3 merging) through the two
/// in-process drivers.
#[cfg(test)]
mod pipeline {
    #[cfg(test)]
    mod tests {
        use crate::parallel::run_parallel;
        use crate::serial::run_serial;
        use bioseq::fasta::Record;
        use bioseq::simulate::{generate, TranscriptomeConfig};
        use bioseq::stats::{assembly_stats, reduction_ratio};
        use blastx::search::{SearchParams, Searcher};
        use blastx::tabular::TabularRecord;
        use cap3::Cap3Params;

        fn small_dataset() -> (Vec<Record>, Vec<TabularRecord>) {
            let data = generate(&TranscriptomeConfig {
                n_families: 15,
                family_size_mean: 3.5,
                family_size_cap: 10,
                ..TranscriptomeConfig::tiny(21)
            });
            let searcher = Searcher::new(data.proteins.clone(), SearchParams::default())
                .expect("non-empty protein db");
            let queries: Vec<_> = (data.transcripts.iter())
                .map(|r| (r.id.clone(), r.seq.clone()))
                .collect();
            let hsps = searcher.search_many(&queries, 2);
            (
                data.transcripts,
                hsps.iter().map(TabularRecord::from).collect(),
            )
        }

        #[test]
        fn pipeline_reduces_transcript_count() {
            let (transcripts, alignments) = small_dataset();
            let output = run_serial(&transcripts, &alignments, &Cap3Params::default()).output;
            assert!(transcripts.len() > 15);
            assert!(!alignments.is_empty(), "aligner must find family hits");
            assert!(
                output.len() < transcripts.len(),
                "protein-guided merging must reduce redundancy: {} -> {}",
                transcripts.len(),
                output.len()
            );
            assert!(reduction_ratio(transcripts.len(), output.len()) > 0.0);
            // Merged output has longer sequences on average.
            assert!(assembly_stats(&output).mean_len >= assembly_stats(&transcripts).mean_len);
        }

        #[test]
        fn serial_and_parallel_modes_agree_on_counts() {
            let (transcripts, alignments) = small_dataset();
            let params = Cap3Params::default();
            let s = run_serial(&transcripts, &alignments, &params);
            let p = run_parallel(&transcripts, &alignments, &params, 4, 2);
            assert_eq!(s.output.len(), p.output.len());
            assert_eq!(s.joined, p.joined);
        }

        #[test]
        fn report_reduction_matches_paper_mechanism_range() {
            // Not the exact 8-9% (that depends on dataset scale), but the
            // reduction must be material and below total collapse.
            let (transcripts, alignments) = small_dataset();
            let output = run_serial(&transcripts, &alignments, &Cap3Params::default()).output;
            let reduction = reduction_ratio(transcripts.len(), output.len());
            assert!(reduction > 0.05, "reduction={reduction}");
            assert!(reduction < 0.95, "reduction={reduction}");
        }
    }
}
