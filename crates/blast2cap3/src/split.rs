//! The workflow's `split()` task: dividing the alignment set into `n`
//! chunks of whole clusters.
//!
//! The paper splits `alignments.out` into `n` smaller files
//! (`protein_1.txt` .. `protein_n.txt`), one per `run_cap3()` task.
//! The invariant that makes the decomposition correct is that *a
//! cluster never straddles two chunks* — CAP3 must see every
//! transcript that shares a protein at once. We therefore split at
//! cluster granularity, balancing chunks by a size-aware greedy
//! assignment (largest cluster first onto the lightest chunk), which
//! also mirrors how uneven the paper's per-task runtimes are.

use crate::cluster::Clusters;

/// One chunk of whole clusters destined for a single `run_cap3` task.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Chunk {
    /// `(protein_id, transcript_ids)` clusters assigned to this chunk.
    pub clusters: Vec<(String, Vec<String>)>,
}

impl Chunk {
    /// Total transcripts in the chunk.
    pub fn total_transcripts(&self) -> usize {
        self.clusters.iter().map(|(_, t)| t.len()).sum()
    }
}

/// Splits `clusters` into at most `n` chunks without splitting any
/// cluster, balancing estimated CAP3 cost across chunks.
///
/// Returns fewer than `n` chunks when there are fewer clusters than
/// `n`; never returns empty chunks.
///
/// ```
/// use blast2cap3::cluster::Clusters;
/// use blast2cap3::split::split_clusters;
///
/// let clusters = Clusters {
///     groups: vec![
///         ("p1".into(), vec!["t1".into(), "t2".into()]),
///         ("p2".into(), vec!["t3".into()]),
///         ("p3".into(), vec!["t4".into()]),
///     ],
/// };
/// let chunks = split_clusters(&clusters, 2);
/// assert_eq!(chunks.len(), 2);
/// let total: usize = chunks.iter().map(|c| c.total_transcripts()).sum();
/// assert_eq!(total, 4); // no transcript lost, no cluster split
/// ```
pub fn split_clusters(clusters: &Clusters, n: usize) -> Vec<Chunk> {
    if clusters.is_empty() {
        return Vec::new();
    }
    // CAP3's all-pairs overlap stage: a cluster costs its size squared.
    let costs: Vec<f64> = clusters
        .groups
        .iter()
        .map(|(_, t)| (t.len() * t.len()) as f64)
        .collect();
    balance(&costs, n)
        .into_iter()
        .map(|bin| {
            let mut clusters: Vec<_> = bin.iter().map(|&i| clusters.groups[i].clone()).collect();
            // Keep cluster order within a chunk deterministic.
            clusters.sort_by(|a, b| a.0.cmp(&b.0));
            Chunk { clusters }
        })
        .collect()
}

/// The split rule: assigns items to `min(k, items)` bins (at least
/// one), largest cost first onto the lightest bin. Equal costs keep
/// their input order and equal bins go to the lowest index, so the
/// result is deterministic. Each bin lists its items in the order they
/// were assigned.
pub fn balance(costs: &[f64], k: usize) -> Vec<Vec<usize>> {
    let k = k.clamp(1, costs.len().max(1));
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).expect("finite costs"));
    let mut bins = vec![Vec::new(); k];
    let mut loads = vec![0.0f64; k];
    for item in order {
        // `min_by` keeps the first of equal loads.
        let (lightest, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite costs"))
            .expect("k >= 1");
        loads[lightest] += costs[item];
        bins[lightest].push(item);
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters_of(sizes: &[usize]) -> Clusters {
        Clusters {
            groups: sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    (
                        format!("p{i:03}"),
                        (0..s).map(|j| format!("t{i}_{j}")).collect(),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn empty_clusters_split_to_nothing() {
        assert!(split_clusters(&Clusters::default(), 10).is_empty());
    }

    #[test]
    fn no_cluster_straddles_chunks() {
        let c = clusters_of(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let chunks = split_clusters(&c, 3);
        assert_eq!(chunks.len(), 3);
        let mut seen: Vec<&str> = Vec::new();
        for ch in &chunks {
            for (p, _) in &ch.clusters {
                seen.push(p);
            }
        }
        seen.sort_unstable();
        let expected: Vec<String> = (0..8).map(|i| format!("p{i:03}")).collect();
        let expected_refs: Vec<&str> = expected.iter().map(String::as_str).collect();
        assert_eq!(seen, expected_refs);
        // All transcripts survive the split.
        let total: usize = chunks.iter().map(Chunk::total_transcripts).sum();
        assert_eq!(total, c.total_transcripts());
    }

    #[test]
    fn more_chunks_than_clusters_returns_cluster_count() {
        let c = clusters_of(&[2, 2]);
        let chunks = split_clusters(&c, 10);
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|ch| !ch.clusters.is_empty()));
    }

    #[test]
    fn n_zero_behaves_like_one() {
        let c = clusters_of(&[1, 2, 3]);
        let chunks = split_clusters(&c, 0);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].clusters.len(), 3);
    }

    #[test]
    fn cost_balancing_separates_heavy_clusters() {
        // Two huge clusters and many tiny ones across two chunks: the
        // huge ones must land in different chunks.
        let c = clusters_of(&[20, 20, 1, 1, 1, 1]);
        let chunks = split_clusters(&c, 2);
        let heavy_per_chunk: Vec<usize> = chunks
            .iter()
            .map(|ch| ch.clusters.iter().filter(|(_, t)| t.len() == 20).count())
            .collect();
        assert_eq!(heavy_per_chunk, vec![1, 1]);
    }

    #[test]
    fn split_is_deterministic() {
        let c = clusters_of(&[5, 3, 8, 1, 1, 2, 9, 4]);
        assert_eq!(split_clusters(&c, 3), split_clusters(&c, 3));
    }

    #[test]
    fn single_cluster_single_chunk() {
        let c = clusters_of(&[7]);
        let chunks = split_clusters(&c, 5);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].total_transcripts(), 7);
    }
}
