//! Layout: grouping reads by accepted overlaps and placing each read
//! at an offset/orientation in its contig frame.
//!
//! A union-find structure groups reads connected by overlaps; a BFS
//! over the overlap edges then assigns every read a contig-frame
//! offset and orientation. The first placement of a read wins —
//! inconsistent edges (rare, from spurious overlaps) are ignored, the
//! same greedy policy CAP3 applies when overlaps disagree.

use crate::overlap::Overlap;
use std::collections::VecDeque;

/// Disjoint-set forest over read indices.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Finds the representative of `x` with path halving.
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns `false` if already
    /// joined.
    pub(crate) fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }

    /// Groups indices by representative, in ascending representative
    /// order; singleton groups are included.
    pub(crate) fn groups(&mut self) -> Vec<Vec<u32>> {
        let n = self.parent.len();
        let mut by_root: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
        for i in 0..n as u32 {
            by_root.entry(self.find(i)).or_default().push(i);
        }
        by_root.into_values().collect()
    }
}

/// The placement of one read within a contig frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    /// Read index in the caller's read set.
    pub(crate) read: u32,
    /// Offset of the read's first oriented base in the contig frame
    /// (normalised so the smallest offset is 0).
    pub(crate) offset: isize,
    /// `true` if the read participates reverse-complemented.
    pub(crate) flipped: bool,
}

/// A contig layout: placements for every read in one connected group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Layout {
    /// Placements ordered by offset (ties by read index).
    pub(crate) placements: Vec<Placement>,
}

/// Computes contig layouts from accepted overlaps.
///
/// `read_lens[i]` is the length of read `i`; `overlaps` may contain
/// multiple edges per pair (the best-scoring edge is used first).
/// Returns one [`Layout`] per multi-read group plus the list of
/// singleton read indices.
pub(crate) fn layout_groups(read_lens: &[usize], overlaps: &[Overlap]) -> (Vec<Layout>, Vec<u32>) {
    let n = read_lens.len();
    let mut uf = UnionFind::new(n);
    // Adjacency list of overlap edges, best-score-first per node.
    let mut adj: Vec<Vec<&Overlap>> = vec![Vec::new(); n];
    for ov in overlaps {
        uf.union(ov.a, ov.b);
        adj[ov.a as usize].push(ov);
        adj[ov.b as usize].push(ov);
    }
    for list in &mut adj {
        list.sort_by(|x, y| {
            y.score()
                .partial_cmp(&x.score())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    let mut layouts = Vec::new();
    let mut singlets = Vec::new();
    for group in uf.groups() {
        if group.len() == 1 {
            singlets.push(group[0]);
            continue;
        }
        // BFS placement from the longest read in the group.
        let root = *group
            .iter()
            .max_by_key(|&&r| read_lens[r as usize])
            .expect("non-empty group");
        let mut placed: Vec<Option<(isize, bool)>> = vec![None; n];
        placed[root as usize] = Some((0, false));
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            let (off_u, flip_u) = placed[u as usize].expect("queued nodes are placed");
            let len_u = read_lens[u as usize] as isize;
            for ov in &adj[u as usize] {
                // Orient the edge so it reads (u forward -> v, f, d).
                let (v, f, d) = if ov.a == u {
                    (ov.b, ov.flip, ov.shift)
                } else {
                    // Reverse the edge: see overlap frame algebra in
                    // the module docs of `overlap`.
                    let len_a = read_lens[ov.a as usize] as isize;
                    let len_b = read_lens[ov.b as usize] as isize;
                    if ov.flip {
                        (ov.a, true, len_b + ov.shift - len_a)
                    } else {
                        (ov.a, false, -ov.shift)
                    }
                };
                if placed[v as usize].is_some() {
                    continue;
                }
                let len_v = read_lens[v as usize] as isize;
                let (off_v, flip_v) = if !flip_u {
                    (off_u + d, f)
                } else {
                    (off_u + len_u - d - len_v, !f)
                };
                placed[v as usize] = Some((off_v, flip_v));
                queue.push_back(v);
            }
        }
        let mut placements: Vec<Placement> = group
            .iter()
            .filter_map(|&r| {
                placed[r as usize].map(|(offset, flipped)| Placement {
                    read: r,
                    offset,
                    flipped,
                })
            })
            .collect();
        // Normalise offsets so the leftmost read sits at 0.
        let min_off = placements.iter().map(|p| p.offset).min().unwrap_or(0);
        for p in &mut placements {
            p.offset -= min_off;
        }
        placements.sort_by_key(|p| (p.offset, p.read));
        layouts.push(Layout { placements });
    }
    (layouts, singlets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ov(a: u32, b: u32, flip: bool, shift: isize, len: usize) -> Overlap {
        Overlap {
            a,
            b,
            flip,
            shift,
            len,
            identity: 100.0,
        }
    }

    #[test]
    fn union_find_groups_connected_components() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        let groups = uf.groups();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 5);
        assert!(groups.iter().any(|g| g.len() == 3));
    }

    #[test]
    fn simple_chain_layout() {
        // Reads of length 100; read1 at +60 of read0, read2 at +60 of read1.
        let lens = vec![100, 100, 100];
        let ovs = vec![ov(0, 1, false, 60, 40), ov(1, 2, false, 60, 40)];
        let (layouts, singlets) = layout_groups(&lens, &ovs);
        assert!(singlets.is_empty());
        assert_eq!(layouts.len(), 1);
        let p = &layouts[0].placements;
        assert_eq!(p.len(), 3);
        let off: Vec<isize> = p.iter().map(|x| x.offset).collect();
        assert_eq!(off, vec![0, 60, 120]);
        assert!(p.iter().all(|x| !x.flipped));
    }

    #[test]
    fn reversed_edge_traversal() {
        // Only edge is (1 -> 0): layout must still place read 0.
        let lens = vec![100, 120];
        let ovs = vec![ov(1, 0, false, 80, 40)];
        let (layouts, _) = layout_groups(&lens, &ovs);
        let p = &layouts[0].placements;
        assert_eq!(p.len(), 2);
        // Root is the longest read (1) at 0; read 0 at +80.
        let read0 = p.iter().find(|x| x.read == 0).unwrap();
        let read1 = p.iter().find(|x| x.read == 1).unwrap();
        assert_eq!(read1.offset, 0);
        assert_eq!(read0.offset, 80);
    }

    #[test]
    fn flipped_edge_assigns_orientation() {
        let lens = vec![100, 100];
        let ovs = vec![ov(0, 1, true, 60, 40)];
        let (layouts, _) = layout_groups(&lens, &ovs);
        let p = &layouts[0].placements;
        let flips: Vec<bool> = p.iter().map(|x| x.flipped).collect();
        // Exactly one of the two reads is flipped.
        assert_eq!(flips.iter().filter(|&&f| f).count(), 1);
    }

    #[test]
    fn negative_shift_normalises_offsets() {
        // b extends to the left of a.
        let lens = vec![100, 100];
        let ovs = vec![ov(0, 1, false, -60, 40)];
        let (layouts, _) = layout_groups(&lens, &ovs);
        let p = &layouts[0].placements;
        assert!(p.iter().all(|x| x.offset >= 0));
        assert!(p.iter().any(|x| x.offset == 0));
        let a = p.iter().find(|x| x.read == 0).unwrap();
        let b = p.iter().find(|x| x.read == 1).unwrap();
        assert_eq!(a.offset - b.offset, 60);
    }

    #[test]
    fn disconnected_reads_are_singlets() {
        let lens = vec![100, 100, 100];
        let ovs = vec![ov(0, 1, false, 50, 50)];
        let (layouts, singlets) = layout_groups(&lens, &ovs);
        assert_eq!(layouts.len(), 1);
        assert_eq!(singlets, vec![2]);
    }

    #[test]
    fn no_overlaps_means_all_singlets() {
        let (layouts, singlets) = layout_groups(&[50, 60], &[]);
        assert!(layouts.is_empty());
        assert_eq!(singlets, vec![0, 1]);
    }

    #[test]
    fn flip_chain_is_consistent() {
        // 0 -(flip)- 1 -(flip)- 2: read 2 should be forward again.
        let lens = vec![100, 100, 100];
        let ovs = vec![ov(0, 1, true, 60, 40), ov(1, 2, true, 60, 40)];
        let (layouts, _) = layout_groups(&lens, &ovs);
        let p = &layouts[0].placements;
        let f0 = p.iter().find(|x| x.read == 0).unwrap().flipped;
        let f2 = p.iter().find(|x| x.read == 2).unwrap().flipped;
        assert_eq!(f0, f2, "two flips cancel");
    }
}
