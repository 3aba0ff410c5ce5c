//! The serial blast2cap3 baseline.
//!
//! A faithful port of the original Python control flow: one cluster of
//! protein-sharing transcripts is built and handed to CAP3, and only
//! after CAP3 terminates is the next cluster processed. This is the
//! configuration the paper reports as taking ~100 hours on the full
//! wheat dataset.

use crate::cluster::cluster_by_best_hit;
use crate::tasks::{extract_unjoined, finalize, merge_contigs, run_cap3_chunk, TranscriptDict};
use bioseq::fasta::Record;
use blastx::tabular::TabularRecord;
use cap3::Cap3Params;
use std::time::{Duration, Instant};

/// Outcome of a serial blast2cap3 run.
#[derive(Debug, Clone)]
pub struct SerialReport {
    /// Final output: merged contigs followed by unjoined transcripts.
    pub output: Vec<Record>,
    /// Number of input transcripts that were merged into contigs.
    pub joined: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl SerialReport {
    /// Input-to-output reduction in sequence count, as a fraction.
    pub fn reduction(&self, input_count: usize) -> f64 {
        bioseq::stats::reduction_ratio(input_count, self.output.len())
    }
}

/// Runs the serial blast2cap3 pipeline over the caller's
/// `transcripts`, which it indexes but never copies.
pub fn run_serial(
    transcripts: &[Record],
    alignments: &[TabularRecord],
    params: &Cap3Params,
) -> SerialReport {
    let start = Instant::now();
    let dict = TranscriptDict::new(transcripts);
    let clusters = cluster_by_best_hit(alignments);
    // One cluster at a time, exactly like the Python script.
    let outputs: Vec<_> = (clusters.groups.iter())
        .map(|group| run_cap3_chunk(&dict, std::slice::from_ref(group), params))
        .collect();
    let joined = outputs.iter().map(|o| o.joined_ids.len()).sum();
    let unjoined = extract_unjoined(&dict, &outputs);
    let merged = merge_contigs(outputs);
    SerialReport {
        output: finalize(merged, unjoined),
        joined,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::seq::DnaSeq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_template(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| bioseq::alphabet::DNA_BASES[rng.gen_range(0..4)])
            .collect()
    }

    fn rec(id: &str, bytes: &[u8]) -> Record {
        Record::new(id, "", DnaSeq::from_ascii(bytes).unwrap())
    }

    fn aln(q: &str, s: &str) -> TabularRecord {
        TabularRecord {
            query_id: q.into(),
            subject_id: s.into(),
            percent_identity: 98.0,
            length: 100,
            mismatches: 2,
            gap_opens: 0,
            q_start: 1,
            q_end: 300,
            s_start: 1,
            s_end: 100,
            evalue: 1e-40,
            bit_score: 200.0,
        }
    }

    #[test]
    fn serial_run_merges_families_and_passes_orphans() {
        let ta = random_template(1, 300);
        let tb = random_template(2, 400);
        let transcripts = vec![
            rec("a1", &ta[..200]),
            rec("a2", &ta[140..]),
            rec("b1", &tb[..250]),
            rec("b2", &tb[180..]),
            rec("orphan", &random_template(3, 150)),
        ];
        let alignments = vec![
            aln("a1", "pA"),
            aln("a2", "pA"),
            aln("b1", "pB"),
            aln("b2", "pB"),
        ];
        let report = run_serial(&transcripts, &alignments, &Cap3Params::default());
        assert_eq!(report.joined, 4);
        // 5 inputs -> 2 contigs + 1 orphan.
        assert_eq!(report.output.len(), 3);
        assert!(report.reduction(5) > 0.0);
    }

    #[test]
    fn no_alignments_means_passthrough() {
        let transcripts = vec![
            rec("x", &random_template(4, 100)),
            rec("y", &random_template(5, 100)),
        ];
        let report = run_serial(&transcripts, &[], &Cap3Params::default());
        assert_eq!(report.joined, 0);
        assert_eq!(report.output.len(), 2);
        assert_eq!(report.reduction(2), 0.0);
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let report = run_serial(&[], &[], &Cap3Params::default());
        assert!(report.output.is_empty());
    }
}
