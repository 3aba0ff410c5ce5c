//! Clustering transcripts by shared protein hit.
//!
//! Following Buffalo's blast2cap3, each transcript is assigned to the
//! subject protein of its best alignment (highest bit score); all
//! transcripts assigned to the same protein form one cluster. A
//! transcript with no alignment belongs to no cluster and passes
//! through the pipeline unmerged.

use blastx::tabular::TabularRecord;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// The protein-keyed clustering of a transcript set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Clusters {
    /// `(protein_id, transcript_ids)` sorted by protein id; each
    /// transcript appears in exactly one cluster.
    pub groups: Vec<(String, Vec<String>)>,
}

impl Clusters {
    /// `true` if there are no clusters.
    pub(crate) fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total transcripts across all clusters.
    pub fn total_transcripts(&self) -> usize {
        self.groups.iter().map(|(_, t)| t.len()).sum()
    }
}

/// Each transcript's best protein hit, fed one alignment at a time,
/// so a caller streaming a tabular file holds one entry per
/// transcript, not the whole table. Ids are `S`: `&str` borrowed from
/// records the caller holds, or `String` moved out of records it
/// streams.
///
/// Best means highest bit score; ties are broken by subject id, then
/// by first occurrence, so the result is deterministic for any input
/// order of equal-scored records.
#[derive(Debug, Default)]
pub(crate) struct BestHits<S> {
    /// transcript -> (subject, bit_score) of its best hit so far.
    best: HashMap<S, (S, f64)>,
}

impl<S: Borrow<str> + Hash + Ord + Into<String>> BestHits<S> {
    /// Takes one alignment of `query` on `subject` into account.
    pub(crate) fn add(&mut self, query: S, subject: S, bit_score: f64) {
        match self.best.get_mut(query.borrow()) {
            Some(cur) => {
                let better =
                    bit_score > cur.1 || (bit_score == cur.1 && subject.borrow() < cur.0.borrow());
                if better {
                    *cur = (subject, bit_score);
                }
            }
            None => {
                self.best.insert(query, (subject, bit_score));
            }
        }
    }

    /// Groups the transcripts by best protein: groups sorted by
    /// protein id, members by transcript id.
    pub(crate) fn into_clusters(self) -> Clusters {
        let mut by_protein: HashMap<S, Vec<S>> = HashMap::new();
        for (tx, (subj, _)) in self.best {
            by_protein.entry(subj).or_default().push(tx);
        }
        let mut groups: Vec<(String, Vec<String>)> = by_protein
            .into_iter()
            .map(|(p, mut txs)| {
                txs.sort_unstable();
                (p.into(), txs.into_iter().map(Into::into).collect())
            })
            .collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        Clusters { groups }
    }
}

/// Clusters transcripts by their best protein hit: the `BestHits`
/// rule fed from a slice, borrowing its ids.
pub fn cluster_by_best_hit(alignments: &[TabularRecord]) -> Clusters {
    let mut best = BestHits::default();
    for rec in alignments {
        best.add(
            rec.query_id.as_str(),
            rec.subject_id.as_str(),
            rec.bit_score,
        );
    }
    best.into_clusters()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(q: &str, s: &str, bits: f64) -> TabularRecord {
        TabularRecord {
            query_id: q.into(),
            subject_id: s.into(),
            percent_identity: 95.0,
            length: 100,
            mismatches: 5,
            gap_opens: 0,
            q_start: 1,
            q_end: 300,
            s_start: 1,
            s_end: 100,
            evalue: 1e-30,
            bit_score: bits,
        }
    }

    /// The members of `protein`'s cluster.
    fn get<'c>(c: &'c Clusters, protein: &str) -> Option<&'c [String]> {
        let group = c.groups.iter().find(|(p, _)| p == protein);
        group.map(|(_, members)| members.as_slice())
    }

    #[test]
    fn empty_alignments_give_no_clusters() {
        let c = cluster_by_best_hit(&[]);
        assert!(c.is_empty());
        assert_eq!(c.total_transcripts(), 0);
    }

    #[test]
    fn transcripts_sharing_a_protein_cluster_together() {
        let c = cluster_by_best_hit(&[
            rec("t1", "p1", 100.0),
            rec("t2", "p1", 90.0),
            rec("t3", "p2", 80.0),
        ]);
        assert_eq!(c.groups.len(), 2);
        assert_eq!(get(&c, "p1").unwrap(), &["t1", "t2"]);
        assert_eq!(get(&c, "p2").unwrap(), &["t3"]);
        assert_eq!(c.total_transcripts(), 3);
    }

    #[test]
    fn best_hit_wins_for_multi_hit_transcripts() {
        let c = cluster_by_best_hit(&[
            rec("t1", "p1", 50.0),
            rec("t1", "p2", 150.0), // better
            rec("t1", "p3", 75.0),
        ]);
        assert_eq!(c.groups.len(), 1);
        assert_eq!(get(&c, "p2").unwrap(), &["t1"]);
        assert!(get(&c, "p1").is_none());
    }

    #[test]
    fn tie_breaks_by_subject_id_not_input_order() {
        let a = cluster_by_best_hit(&[rec("t1", "pB", 50.0), rec("t1", "pA", 50.0)]);
        let b = cluster_by_best_hit(&[rec("t1", "pA", 50.0), rec("t1", "pB", 50.0)]);
        assert_eq!(a, b);
        assert!(get(&a, "pA").is_some());
    }

    #[test]
    fn duplicate_rows_do_not_duplicate_membership() {
        let c = cluster_by_best_hit(&[rec("t1", "p1", 60.0), rec("t1", "p1", 60.0)]);
        assert_eq!(get(&c, "p1").unwrap(), &["t1"]);
    }

    #[test]
    fn groups_and_members_are_sorted() {
        let c = cluster_by_best_hit(&[
            rec("t9", "pZ", 10.0),
            rec("t1", "pA", 10.0),
            rec("t5", "pA", 10.0),
            rec("t2", "pA", 10.0),
        ]);
        let proteins: Vec<&str> = c.groups.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(proteins, vec!["pA", "pZ"]);
        assert_eq!(get(&c, "pA").unwrap(), &["t1", "t2", "t5"]);
    }
}
