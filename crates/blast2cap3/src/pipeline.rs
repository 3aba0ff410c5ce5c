//! End-to-end convenience pipeline over synthetic data.
//!
//! Bundles the full paper dataflow — synthetic transcriptome in place
//! of the wheat data, BLASTX-like alignment, protein-guided CAP3
//! merging — behind one call, for examples and experiments.

use crate::parallel::{run_parallel, ParallelReport};
use crate::serial::run_serial;
use bioseq::simulate::{generate, TranscriptomeConfig};
use bioseq::stats::{assembly_stats, reduction_ratio, AssemblyStats};
use blastx::search::{SearchParams, Searcher};
use blastx::tabular::TabularRecord;
use cap3::Cap3Params;

/// How the merging stage is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Original one-cluster-at-a-time control flow.
    Serial,
    /// Workflow decomposition: `n_chunks` chunks over `threads`
    /// workers.
    Parallel {
        /// Number of `run_cap3` chunks (the paper's `n`).
        n_chunks: usize,
        /// Worker threads (0 = one per core).
        threads: usize,
    },
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Synthetic transcriptome shape.
    pub transcriptome: TranscriptomeConfig,
    /// Aligner tuning.
    pub search: SearchParams,
    /// Aligner worker threads (0 = one per core).
    pub search_threads: usize,
    /// CAP3 cutoffs.
    pub cap3: Cap3Params,
    /// Merge-stage driver.
    pub mode: Mode,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            transcriptome: TranscriptomeConfig::default(),
            search: SearchParams::default(),
            search_threads: 0,
            cap3: Cap3Params::default(),
            mode: Mode::Parallel {
                n_chunks: 300,
                threads: 0,
            },
        }
    }
}

/// What happened, end to end.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Number of input transcripts.
    pub input_count: usize,
    /// Number of BLASTX tabular rows produced.
    pub alignment_rows: usize,
    /// Number of output sequences (contigs + unjoined).
    pub output_count: usize,
    /// Input-to-output sequence-count reduction fraction (the paper
    /// cites 8–9 % on wheat).
    pub reduction: f64,
    /// Summary statistics of the input transcript set.
    pub input_stats: AssemblyStats,
    /// Summary statistics of the output set.
    pub output_stats: AssemblyStats,
    /// The parallel report, when `Mode::Parallel` was used.
    pub parallel: Option<ParallelReport>,
}

/// Runs the full synthetic pipeline per `cfg`.
pub fn run_pipeline(cfg: &PipelineConfig) -> PipelineReport {
    let data = generate(&cfg.transcriptome);
    let searcher =
        Searcher::new(data.proteins.clone(), cfg.search.clone()).expect("non-empty protein db");
    let queries: Vec<(String, bioseq::seq::DnaSeq)> = data
        .transcripts
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let hsps = searcher.search_many(&queries, cfg.search_threads);
    let alignments: Vec<TabularRecord> = hsps.iter().map(TabularRecord::from).collect();

    let input_count = data.transcripts.len();
    let input_stats = assembly_stats(&data.transcripts);
    let (output, parallel) = match cfg.mode {
        Mode::Serial => (
            run_serial(&data.transcripts, &alignments, &cfg.cap3).output,
            None,
        ),
        Mode::Parallel { n_chunks, threads } => {
            let rep = run_parallel(&data.transcripts, &alignments, &cfg.cap3, n_chunks, threads);
            (rep.output.clone(), Some(rep))
        }
    };
    PipelineReport {
        input_count,
        alignment_rows: alignments.len(),
        output_count: output.len(),
        reduction: reduction_ratio(input_count, output.len()),
        input_stats,
        output_stats: assembly_stats(&output),
        parallel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(mode: Mode) -> PipelineConfig {
        PipelineConfig {
            transcriptome: TranscriptomeConfig {
                n_families: 15,
                family_size_mean: 3.5,
                family_size_cap: 10,
                ..TranscriptomeConfig::tiny(21)
            },
            search_threads: 2,
            mode,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_reduces_transcript_count() {
        let report = run_pipeline(&small_cfg(Mode::Serial));
        assert!(report.input_count > 15);
        assert!(report.alignment_rows > 0, "aligner must find family hits");
        assert!(
            report.output_count < report.input_count,
            "protein-guided merging must reduce redundancy: {} -> {}",
            report.input_count,
            report.output_count
        );
        assert!(report.reduction > 0.0);
        // Merged output has longer sequences on average.
        assert!(report.output_stats.mean_len >= report.input_stats.mean_len);
    }

    #[test]
    fn serial_and_parallel_modes_agree_on_counts() {
        let s = run_pipeline(&small_cfg(Mode::Serial));
        let p = run_pipeline(&small_cfg(Mode::Parallel {
            n_chunks: 4,
            threads: 2,
        }));
        assert_eq!(s.input_count, p.input_count);
        assert_eq!(s.output_count, p.output_count);
        assert!((s.reduction - p.reduction).abs() < 1e-12);
        assert!(s.parallel.is_none() && p.parallel.is_some());
    }

    #[test]
    fn report_reduction_matches_paper_mechanism_range() {
        // Not the exact 8-9% (that depends on dataset scale), but the
        // reduction must be material and below total collapse.
        let report = run_pipeline(&small_cfg(Mode::Serial));
        assert!(report.reduction > 0.05, "reduction={}", report.reduction);
        assert!(report.reduction < 0.95, "reduction={}", report.reduction);
    }
}
