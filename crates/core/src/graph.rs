//! Compressed sparse row (CSR) adjacency for workflow DAGs, and the
//! program's graph walks.
//!
//! [`Csr`] packs an adjacency into two flat arrays:
//! `offsets[v]..offsets[v+1]` brackets node `v`'s neighbor slice in
//! `targets`. Construction is a stable counting sort over the edge
//! list (two passes, no per-node allocation), and degree queries are
//! O(1) pointer arithmetic. Neighbor order is the *edge input order*,
//! so a walk that tie-breaks by adjacency position is reproducible.
//!
//! The walks live here and nowhere else: Kahn's order, which names the
//! stuck nodes when it cannot finish ([`Csr::topological_order`]), the
//! cycle path (`Csr::cycle_path`), levels ([`Csr::levels`]) and the
//! heaviest path (`Csr::longest_path`). The abstract workflow, the
//! planned one, the lint and the CLI's renderer all call these.

use crate::symbols::JobId;
use std::collections::VecDeque;

/// A directed graph's adjacency in compressed sparse row form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` brackets `v`'s neighbors; length
    /// `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists, in edge input order per node.
    targets: Vec<JobId>,
}

impl Csr {
    /// Builds the *forward* adjacency (children): `targets` of edge
    /// `(a, b)` lists `b` under `a`.
    pub fn forward(n: usize, edges: &[(JobId, JobId)]) -> Csr {
        Csr::build(n, edges, |&(a, b)| (a, b))
    }

    /// Builds the *reverse* adjacency (parents): edge `(a, b)` lists
    /// `a` under `b`.
    pub fn reverse(n: usize, edges: &[(JobId, JobId)]) -> Csr {
        Csr::build(n, edges, |&(a, b)| (b, a))
    }

    fn build(
        n: usize,
        edges: &[(JobId, JobId)],
        orient: impl Fn(&(JobId, JobId)) -> (JobId, JobId),
    ) -> Csr {
        let _prof = crate::prof::scope("graph.csr");
        let mut offsets = vec![0u32; n + 1];
        for e in edges {
            let (from, _) = orient(e);
            offsets[from.idx() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Stable fill: a per-node write cursor walks forward through
        // the node's slice as its edges appear in input order.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![JobId::default(); edges.len()];
        for e in edges {
            let (from, to) = orient(e);
            let slot = cursor[from.idx()];
            targets[slot as usize] = to;
            cursor[from.idx()] = slot + 1;
        }
        Csr { offsets, targets }
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Node `v`'s neighbor slice.
    #[inline]
    pub fn neighbors(&self, v: JobId) -> &[JobId] {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Node `v`'s degree in this orientation — O(1).
    #[inline]
    pub fn degree(&self, v: JobId) -> usize {
        (self.offsets[v.idx() + 1] - self.offsets[v.idx()]) as usize
    }

    /// Degrees in the *opposite* orientation — for a forward (children)
    /// CSR this is each node's indegree — counted in one pass over the
    /// packed targets.
    pub fn reverse_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.node_count()];
        for &t in &self.targets {
            deg[t.idx()] += 1;
        }
        deg
    }

    /// Iterates nodes as [`JobId`]s in index order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = JobId> {
        (0..self.node_count()).map(JobId::new)
    }

    /// Kahn's topological sort over this (forward) adjacency, seeded
    /// in index order and tie-broken by queue arrival.
    ///
    /// # Errors
    /// When a cycle prevents completion, the nodes left with an unmet
    /// dependency, in index order: every node on a cycle or
    /// downstream of one. A node with an edge to itself is one.
    pub fn topological_order(&self) -> Result<Vec<JobId>, Vec<JobId>> {
        let n = self.node_count();
        let mut indegree = self.reverse_degrees();
        let mut queue: VecDeque<JobId> = self.nodes().filter(|&v| indegree[v.idx()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in self.neighbors(v) {
                indegree[c.idx()] -= 1;
                if indegree[c.idx()] == 0 {
                    queue.push_back(c);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(self.nodes().filter(|&v| indegree[v.idx()] > 0).collect())
        }
    }

    /// One cycle of this (forward) adjacency as the full path
    /// `[v, .., u, v]` — `[v, v]` for an edge from `v` to itself — or
    /// `None` for a DAG: the first back edge a depth-first search
    /// meets, started from every node in index order and following
    /// neighbors in adjacency order.
    pub(crate) fn cycle_path(&self) -> Option<Vec<JobId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Unseen,
            OnPath,
            Done,
        }
        let mut mark = vec![Mark::Unseen; self.node_count()];
        for start in self.nodes() {
            if mark[start.idx()] != Mark::Unseen {
                continue;
            }
            mark[start.idx()] = Mark::OnPath;
            // Iterative (an adversarial input must not overflow the
            // call stack); a frame is (node, next neighbor index), and
            // the frames are the path from `start`.
            let mut stack = vec![(start, 0usize)];
            while let Some(frame) = stack.last_mut() {
                let (u, i) = *frame;
                let Some(&v) = self.neighbors(u).get(i) else {
                    mark[u.idx()] = Mark::Done;
                    stack.pop();
                    continue;
                };
                frame.1 += 1;
                match mark[v.idx()] {
                    Mark::Unseen => {
                        mark[v.idx()] = Mark::OnPath;
                        stack.push((v, 0));
                    }
                    Mark::OnPath => {
                        let path = stack.iter().map(|&(x, _)| x).skip_while(|&x| x != v);
                        return Some(path.chain([v]).collect());
                    }
                    Mark::Done => {}
                }
            }
        }
        None
    }

    /// The level — longest path from any root, in edges — of every
    /// node of this (forward) adjacency, given a topological `order`
    /// of it.
    pub fn levels(&self, order: &[JobId]) -> Vec<usize> {
        let mut level = vec![0usize; self.node_count()];
        for &u in order {
            for &v in self.neighbors(u) {
                level[v.idx()] = level[v.idx()].max(level[u.idx()] + 1);
            }
        }
        level
    }

    /// The heaviest path through the graph whose *reverse* (parents)
    /// adjacency this is, given a topological `order` of it and each
    /// node's `weight`: `(total weight, path)`, `(0.0, [])` for the
    /// empty graph. Among equally heavy parents the first in adjacency
    /// order is followed.
    pub(crate) fn longest_path(
        &self,
        order: &[JobId],
        weight: impl Fn(JobId) -> f64,
    ) -> (f64, Vec<JobId>) {
        let n = self.node_count();
        // dist[i] = weight of the heaviest path ending at i (inclusive).
        let mut dist = vec![0.0f64; n];
        let mut prev: Vec<Option<JobId>> = vec![None; n];
        for &i in order {
            let mut best = 0.0f64;
            for &p in self.neighbors(i) {
                if dist[p.idx()] > best {
                    best = dist[p.idx()];
                    prev[i.idx()] = Some(p);
                }
            }
            dist[i.idx()] = best + weight(i);
        }
        let Some((end, &total)) = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite weights"))
        else {
            return (0.0, Vec::new());
        };
        let mut path = vec![JobId::new(end)];
        while let Some(p) = prev[path.last().expect("non-empty").idx()] {
            path.push(p);
        }
        path.reverse();
        (total, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(i: usize) -> JobId {
        JobId::new(i)
    }

    fn diamond() -> Vec<(JobId, JobId)> {
        vec![(j(0), j(1)), (j(0), j(2)), (j(1), j(3)), (j(2), j(3))]
    }

    #[test]
    fn forward_and_reverse_views() {
        let g = Csr::forward(4, &diamond());
        assert_eq!(g.neighbors(j(0)), &[j(1), j(2)]);
        assert_eq!(g.neighbors(j(3)), &[] as &[JobId]);
        assert_eq!(g.degree(j(0)), 2);
        let r = Csr::reverse(4, &diamond());
        assert_eq!(r.neighbors(j(3)), &[j(1), j(2)]);
        assert_eq!(r.degree(j(0)), 0);
        assert_eq!(r.degree(j(3)), 2);
    }

    #[test]
    fn neighbor_order_follows_edge_input_order() {
        // Deliberately interleaved input: node 0's edges arrive
        // 0→3, 0→1, 0→2 around another node's edge.
        let edges = vec![(j(0), j(3)), (j(1), j(2)), (j(0), j(1)), (j(0), j(2))];
        let g = Csr::forward(4, &edges);
        assert_eq!(g.neighbors(j(0)), &[j(3), j(1), j(2)]);
        assert_eq!(g.neighbors(j(1)), &[j(2)]);
    }

    #[test]
    fn topological_order_matches_kahn_on_vecvec() {
        let g = Csr::forward(4, &diamond());
        assert_eq!(g.topological_order(), Ok(vec![j(0), j(1), j(2), j(3)]));
        assert_eq!(g.cycle_path(), None);
    }

    #[test]
    fn two_cycles_name_their_stuck_nodes_and_the_first_cycle_in_full() {
        // 0 -> 1 -> 2 -> 1 (a cycle with a tail), 2 -> 3 (downstream
        // of it), 4 <-> 5 (a second cycle), 6 free.
        let edges = [(1, 2), (0, 1), (2, 1), (2, 3), (4, 5), (5, 4)];
        let edges: Vec<_> = edges.iter().map(|&(a, b)| (j(a), j(b))).collect();
        let g = Csr::forward(7, &edges);
        let stuck = vec![j(1), j(2), j(3), j(4), j(5)];
        assert_eq!(g.topological_order(), Err(stuck));
        assert_eq!(g.cycle_path(), Some(vec![j(1), j(2), j(1)]));
    }

    #[test]
    fn an_edge_from_a_node_to_itself_is_a_cycle_of_length_one() {
        let g = Csr::forward(3, &[(j(0), j(1)), (j(1), j(1)), (j(1), j(2))]);
        assert_eq!(g.topological_order(), Err(vec![j(1), j(2)]));
        assert_eq!(g.cycle_path(), Some(vec![j(1), j(1)]));
    }

    #[test]
    fn levels_and_longest_path_of_a_diamond() {
        let g = Csr::forward(4, &diamond());
        let order = g.topological_order().unwrap();
        assert_eq!(g.levels(&order), vec![0, 1, 1, 2]);
        let weight = |v: JobId| [1.0, 5.0, 5.0, 2.0][v.idx()];
        let parents = Csr::reverse(4, &diamond());
        // Equal parents: the first in adjacency order is followed.
        let heaviest = (8.0, vec![j(0), j(1), j(3)]);
        assert_eq!(parents.longest_path(&order, weight), heaviest);
        assert_eq!(
            Csr::forward(0, &[]).longest_path(&[], weight),
            (0.0, vec![])
        );
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Csr::forward(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.topological_order(), Ok(vec![]));
        let g = Csr::forward(3, &[]);
        assert_eq!(g.reverse_degrees(), vec![0, 0, 0]);
        assert_eq!(g.topological_order(), Ok(vec![j(0), j(1), j(2)]));
    }
}
