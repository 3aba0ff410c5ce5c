//! Workflow task kernels.
//!
//! Each public function corresponds to one oval of the paper's Fig. 2
//! workflow (and Fig. 3's OSG variant, which wraps the same kernels
//! with install steps):
//!
//! | Fig. 2 task            | kernel                     |
//! |------------------------|----------------------------|
//! | `list_transcripts()`   | [`TranscriptDict::new`]    |
//! | `list_alignments()`    | [`blastx::tabular::Reader`] |
//! | `split()`              | [`crate::split::split_clusters`] (after [`crate::cluster::cluster_by_best_hit`]) |
//! | `run_cap3()` × n       | [`run_cap3_chunk`]         |
//! | `merge()`              | [`merge_contigs`]          |
//! | `extract_unjoined()`   | [`extract_unjoined`]       |
//!
//! The kernels are pure over their inputs so the workflow engine can
//! run them on any thread, retry them after simulated failures, and
//! check file-level dataflow. None copies the transcriptome: the
//! dictionary indexes records its caller owns, contigs move into the
//! merged set, and only the unjoined transcripts are cloned, once,
//! into the output.

use bioseq::fasta::Record;
use cap3::{Assembler, Cap3Params};
use std::collections::{HashMap, HashSet};

/// The `transcripts_dict.txt` artifact: transcript id -> record, over
/// records the caller owns.
#[derive(Debug)]
pub(crate) struct TranscriptDict<'a> {
    map: HashMap<&'a str, &'a Record>,
    /// Every indexed record, duplicates included, in input order.
    all: &'a [Record],
}

impl<'a> TranscriptDict<'a> {
    /// `list_transcripts()`: indexes `records` by id. Later duplicates
    /// of an id are ignored (first record wins), matching
    /// dictionary-building semantics of the original script.
    pub(crate) fn new(records: &'a [Record]) -> Self {
        let mut map = HashMap::with_capacity(records.len());
        for rec in records {
            map.entry(rec.id.as_str()).or_insert(rec);
        }
        TranscriptDict { map, all: records }
    }

    /// Looks a transcript up by id.
    pub(crate) fn get(&self, id: &str) -> Option<&'a Record> {
        self.map.get(id).copied()
    }

    /// The first record of each id, in original input order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &'a Record> + '_ {
        let all = self.all;
        all.iter()
            .filter(|r| self.get(&r.id).is_some_and(|first| std::ptr::eq(first, *r)))
    }
}

/// Output of one `run_cap3()` task.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ChunkOutput {
    /// Contigs produced in this chunk, named `<protein>_Contig<k>`.
    pub(crate) contigs: Vec<Record>,
    /// Ids of transcripts that were merged into some contig.
    pub(crate) joined_ids: Vec<String>,
}

/// `run_cap3()`: assembles every `(protein, members)` cluster
/// independently.
///
/// Cluster members missing from `dict` are skipped (a stale alignment
/// row must not fail the task — the original script logs and moves
/// on). Singlets stay out of `joined_ids`, so they are re-emitted by
/// [`extract_unjoined`].
pub(crate) fn run_cap3_chunk(
    dict: &TranscriptDict<'_>,
    clusters: &[(String, Vec<String>)],
    params: &Cap3Params,
) -> ChunkOutput {
    let assembler = Assembler::new(params.clone());
    let mut out = ChunkOutput::default();
    for (protein, members) in clusters {
        let reads: Vec<Record> = members
            .iter()
            .filter_map(|id| dict.get(id).cloned())
            .collect();
        if reads.len() < 2 {
            continue; // nothing to merge
        }
        let asm = assembler.assemble(&reads);
        if asm.contigs.is_empty() {
            continue;
        }
        let singlet_ids: HashSet<&str> = asm.singlets.iter().map(|r| r.id.as_str()).collect();
        for rec in &reads {
            if !singlet_ids.contains(rec.id.as_str()) {
                out.joined_ids.push(rec.id.clone());
            }
        }
        for (k, contig) in asm.contigs.into_iter().enumerate() {
            out.contigs.push(Record::new(
                format!("{protein}_Contig{}", k + 1),
                contig.desc,
                contig.seq,
            ));
        }
    }
    out
}

/// A chunk's contig as the `k`-th (1-based) record of the
/// `joined_transcripts` artifact, its sequence moved.
pub(crate) fn renumbered(k: usize, contig: Record) -> Record {
    Record::new(
        format!("Contig{k}"),
        format!("source={} {}", contig.id, contig.desc),
        contig.seq,
    )
}

/// `merge()`: concatenates the per-chunk contigs into the
/// `joined_transcripts` artifact, renumbering globally.
pub(crate) fn merge_contigs(outputs: Vec<ChunkOutput>) -> Vec<Record> {
    let contigs = outputs.into_iter().flat_map(|o| o.contigs);
    contigs
        .enumerate()
        .map(|(k, contig)| renumbered(k + 1, contig))
        .collect()
}

/// `extract_unjoined()`: every input transcript that was not merged
/// into any contig, in input order.
pub(crate) fn extract_unjoined<'a>(
    dict: &TranscriptDict<'a>,
    outputs: &[ChunkOutput],
) -> Vec<&'a Record> {
    let joined: HashSet<&str> = outputs
        .iter()
        .flat_map(|o| o.joined_ids.iter().map(String::as_str))
        .collect();
    dict.records()
        .filter(|r| !joined.contains(r.id.as_str()))
        .collect()
}

/// Final concatenation: merged contigs followed by unjoined
/// transcripts — the protein-guided assembly result. Each unjoined
/// transcript is cloned here, once.
pub(crate) fn finalize(merged: Vec<Record>, unjoined: Vec<&Record>) -> Vec<Record> {
    let mut out = merged;
    out.extend(unjoined.into_iter().cloned());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clusters;
    use crate::split::Chunk;
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

    fn chunk_of(clusters: &[(&str, &[&str])]) -> Chunk {
        Chunk {
            clusters: clusters
                .iter()
                .map(|(p, ms)| (p.to_string(), ms.iter().map(|m| m.to_string()).collect()))
                .collect(),
        }
    }

    #[test]
    fn dict_deduplicates_and_preserves_order() {
        let t = random_template(1, 60);
        let records = vec![rec("a", &t), rec("b", &t), rec("a", &t[..30])];
        let dict = TranscriptDict::new(&records);
        assert_eq!(dict.map.len(), 2);
        assert_eq!(dict.get("a").unwrap().seq.len(), 60, "first record wins");
        let ids: Vec<&str> = dict.records().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn run_cap3_chunk_merges_overlapping_cluster() {
        let t = random_template(2, 300);
        let records = [rec("t1", &t[..200]), rec("t2", &t[140..])];
        let dict = TranscriptDict::new(&records);
        let chunk = chunk_of(&[("p1", &["t1", "t2"])]);
        let out = run_cap3_chunk(&dict, &chunk.clusters, &Cap3Params::default());
        assert_eq!(out.contigs.len(), 1);
        assert!(out.contigs[0].id.starts_with("p1_Contig"));
        let mut joined = out.joined_ids.clone();
        joined.sort();
        assert_eq!(joined, vec!["t1", "t2"]);
    }

    #[test]
    fn non_overlapping_cluster_members_stay_unjoined() {
        let records = [
            rec("t1", &random_template(3, 200)),
            rec("t2", &random_template(4, 200)),
        ];
        let dict = TranscriptDict::new(&records);
        let chunk = chunk_of(&[("p1", &["t1", "t2"])]);
        let out = run_cap3_chunk(&dict, &chunk.clusters, &Cap3Params::default());
        assert!(out.contigs.is_empty());
        assert!(out.joined_ids.is_empty());
    }

    #[test]
    fn singleton_clusters_are_skipped() {
        let records = [rec("t1", &random_template(5, 200))];
        let dict = TranscriptDict::new(&records);
        let chunk = chunk_of(&[("p1", &["t1"])]);
        let out = run_cap3_chunk(&dict, &chunk.clusters, &Cap3Params::default());
        assert!(out.contigs.is_empty());
        assert!(out.joined_ids.is_empty());
    }

    #[test]
    fn missing_dict_entries_do_not_fail_the_task() {
        let t = random_template(6, 300);
        let records = [rec("t1", &t[..200]), rec("t2", &t[140..])];
        let dict = TranscriptDict::new(&records);
        let chunk = chunk_of(&[("p1", &["t1", "t2", "ghost"])]);
        let out = run_cap3_chunk(&dict, &chunk.clusters, &Cap3Params::default());
        assert_eq!(out.contigs.len(), 1);
    }

    #[test]
    fn merge_renumbers_globally() {
        let t = random_template(7, 100);
        let c1 = ChunkOutput {
            contigs: vec![rec("p1_Contig1", &t)],
            joined_ids: vec!["a".into()],
        };
        let c2 = ChunkOutput {
            contigs: vec![rec("p2_Contig1", &t), rec("p2_Contig2", &t)],
            joined_ids: vec!["b".into()],
        };
        let merged = merge_contigs(vec![c1, c2]);
        let ids: Vec<&str> = merged.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["Contig1", "Contig2", "Contig3"]);
        assert!(merged[1].desc.contains("p2_Contig1"));
    }

    #[test]
    fn extract_unjoined_returns_complement_in_input_order() {
        let t = random_template(8, 100);
        let records = [rec("a", &t), rec("b", &t), rec("c", &t)];
        let dict = TranscriptDict::new(&records);
        let out = ChunkOutput {
            contigs: vec![],
            joined_ids: vec!["b".into()],
        };
        let unjoined = extract_unjoined(&dict, &[out]);
        let ids: Vec<&str> = unjoined.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["a", "c"]);
    }

    #[test]
    fn finalize_concatenates() {
        let t = random_template(9, 50);
        let merged = vec![rec("Contig1", &t)];
        let x = rec("x", &t);
        let unjoined = vec![&x];
        let all = finalize(merged, unjoined);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].id, "Contig1");
        assert_eq!(all[1].id, "x");
    }

    #[test]
    fn end_to_end_kernels_compose() {
        // Two families: fam A (2 overlapping tx), fam B (1 tx), plus a
        // no-hit transcript.
        let ta = random_template(10, 300);
        let tb = random_template(11, 200);
        let records = vec![
            rec("a1", &ta[..200]),
            rec("a2", &ta[140..]),
            rec("b1", &tb),
            rec("orphan", &random_template(12, 150)),
        ];
        let dict = TranscriptDict::new(&records);
        let clusters = Clusters {
            groups: vec![
                ("pA".into(), vec!["a1".into(), "a2".into()]),
                ("pB".into(), vec!["b1".into()]),
            ],
        };
        let chunks = crate::split::split_clusters(&clusters, 2);
        let outputs: Vec<ChunkOutput> = chunks
            .iter()
            .map(|c| run_cap3_chunk(&dict, &c.clusters, &Cap3Params::default()))
            .collect();
        let unjoined = extract_unjoined(&dict, &outputs);
        let merged = merge_contigs(outputs);
        let final_out = finalize(merged, unjoined);
        // a1+a2 merge into 1 contig; b1 and orphan pass through.
        assert_eq!(final_out.len(), 3);
        assert_eq!(final_out[0].id, "Contig1");
        assert_eq!(final_out[0].seq.as_bytes(), &ta[..]);
        let ids: HashSet<&str> = final_out.iter().map(|r| r.id.as_str()).collect();
        assert!(ids.contains("b1"));
        assert!(ids.contains("orphan"));
    }
}
