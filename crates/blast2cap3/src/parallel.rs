//! In-process parallel blast2cap3.
//!
//! This driver executes the same task decomposition the Pegasus
//! workflow uses — split the clusters into `n` chunks, run CAP3 over
//! each chunk, merge — but inside one process on a scoped worker
//! pool. It exists so the headline experiment can measure the *real*
//! (not simulated) speedup of the parallel decomposition over
//! [`crate::serial::run_serial`] on identical inputs, isolating the
//! algorithmic effect from workflow-engine overheads.

use crate::cluster::cluster_by_best_hit;
use crate::split::split_clusters;
use crate::tasks::{
    extract_unjoined, finalize, merge_contigs, run_cap3_chunk, ChunkOutput, TranscriptDict,
};
use bioseq::fasta::Record;
use blastx::tabular::TabularRecord;
use cap3::Cap3Params;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Outcome of a parallel blast2cap3 run.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Final output: merged contigs followed by unjoined transcripts.
    pub output: Vec<Record>,
    /// Number of chunks the clusters were split into.
    pub n_chunks: usize,
    /// Number of transcripts merged into contigs.
    pub joined: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

/// Runs blast2cap3 with the workflow decomposition: `n_chunks`
/// cluster groups processed by `threads` workers (0 = one per core)
/// over the caller's `transcripts`, which it indexes but never copies.
pub fn run_parallel(
    transcripts: &[Record],
    alignments: &[TabularRecord],
    params: &Cap3Params,
    n_chunks: usize,
    threads: usize,
) -> ParallelReport {
    let start = Instant::now();
    let dict = TranscriptDict::new(transcripts);
    let clusters = cluster_by_best_hit(alignments);
    let chunks = split_clusters(&clusters, n_chunks);

    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };

    let mut outputs: Vec<Option<ChunkOutput>> = vec![None; chunks.len()];
    if !chunks.is_empty() {
        let next = AtomicUsize::new(0);
        // Work-stealing by atomic counter: each worker claims the next
        // chunk index until exhausted; results land in per-index slots
        // via a channel to keep the ownership simple.
        let (tx, rx) = std::sync::mpsc::channel::<(usize, ChunkOutput)>();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(chunks.len()) {
                let tx = tx.clone();
                let next = &next;
                let dict = &dict;
                let chunks = &chunks;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks.len() {
                        break;
                    }
                    let out = run_cap3_chunk(dict, &chunks[i].clusters, params);
                    tx.send((i, out)).expect("collector alive");
                });
            }
            drop(tx);
            for (i, out) in rx {
                outputs[i] = Some(out);
            }
        });
    }

    let chunk_outputs: Vec<ChunkOutput> = outputs
        .into_iter()
        .map(|slot| slot.expect("every chunk processed"))
        .collect();
    let joined = chunk_outputs.iter().map(|o| o.joined_ids.len()).sum();
    let unjoined = extract_unjoined(&dict, &chunk_outputs);
    let merged = merge_contigs(chunk_outputs);
    ParallelReport {
        output: finalize(merged, unjoined),
        n_chunks: chunks.len(),
        joined,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::run_serial;
    use bioseq::seq::DnaSeq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

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

    /// Builds a workload of `families` templated families with 3
    /// overlapping fragments each.
    fn workload(families: usize) -> (Vec<Record>, Vec<TabularRecord>) {
        let mut transcripts = Vec::new();
        let mut alignments = Vec::new();
        for f in 0..families {
            let t = random_template(100 + f as u64, 400);
            for (k, range) in [(0, 0..250), (1, 120..370), (2, 150..400)] {
                let id = format!("f{f}_t{k}");
                transcripts.push(rec(&id, &t[range]));
                alignments.push(aln(&id, &format!("p{f}")));
            }
        }
        (transcripts, alignments)
    }

    fn seq_set(records: &[Record]) -> BTreeSet<Vec<u8>> {
        records.iter().map(|r| r.seq.as_bytes().to_vec()).collect()
    }

    #[test]
    fn parallel_output_matches_serial_output() {
        let (transcripts, alignments) = workload(6);
        let serial = run_serial(&transcripts, &alignments, &Cap3Params::default());
        for n_chunks in [1usize, 2, 4, 6] {
            let par = run_parallel(
                &transcripts,
                &alignments,
                &Cap3Params::default(),
                n_chunks,
                3,
            );
            assert_eq!(par.joined, serial.joined, "n_chunks={n_chunks}");
            assert_eq!(par.output.len(), serial.output.len());
            assert_eq!(seq_set(&par.output), seq_set(&serial.output));
        }
    }

    #[test]
    fn chunk_count_is_bounded_by_cluster_count() {
        let (transcripts, alignments) = workload(3);
        let par = run_parallel(&transcripts, &alignments, &Cap3Params::default(), 10, 2);
        assert_eq!(par.n_chunks, 3);
    }

    #[test]
    fn zero_threads_auto_detects() {
        let (transcripts, alignments) = workload(2);
        let par = run_parallel(&transcripts, &alignments, &Cap3Params::default(), 2, 0);
        assert_eq!(par.output.len(), 2); // one contig per family
    }

    #[test]
    fn empty_workload_is_fine() {
        let par = run_parallel(&[], &[], &Cap3Params::default(), 4, 2);
        assert!(par.output.is_empty());
        assert_eq!(par.n_chunks, 0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (transcripts, alignments) = workload(5);
        let a = run_parallel(&transcripts, &alignments, &Cap3Params::default(), 5, 1);
        let b = run_parallel(&transcripts, &alignments, &Cap3Params::default(), 5, 4);
        let ids_a: Vec<&str> = a.output.iter().map(|r| r.id.as_str()).collect();
        let ids_b: Vec<&str> = b.output.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids_a, ids_b);
        assert_eq!(seq_set(&a.output), seq_set(&b.output));
    }
}
