//! 2-hop reachability labeling (Cohen, Halperin, Kaplan & Zwick, SODA '02 —
//! the paper's related work \[6\], hybridized by 3-hop \[11\]), implemented as
//! pruned landmark labeling.
//!
//! Every vertex stores two hub sets: `L_out(v)` (hubs reachable *from* `v`)
//! and `L_in(v)` (hubs that reach `v`). Then `u ⇝ v` iff
//! `L_out(u) ∩ L_in(v) ≠ ∅`. Hubs are processed in descending degree-product
//! order; each hub's forward/backward BFS prunes at vertices already covered
//! by earlier hubs, which is what keeps the label sets small on dense
//! DAGs.

use std::collections::VecDeque;

use wfp_graph::{topo, DiGraph};

use crate::SpecIndex;

/// Pruned 2-hop (hub) labeling index.
#[derive(Clone)]
pub struct Hop2 {
    /// per vertex: sorted hub ranks reachable from it
    out_labels: Vec<Vec<u32>>,
    /// per vertex: sorted hub ranks reaching it
    in_labels: Vec<Vec<u32>>,
    bits_per_hub: usize,
}

impl Hop2 {
    /// Hub-set sizes of `v` (for reports): `(|L_out|, |L_in|)`.
    pub fn hub_counts(&self, v: u32) -> (usize, usize) {
        (
            self.out_labels[v as usize].len(),
            self.in_labels[v as usize].len(),
        )
    }

    fn covered(&self, u: u32, v: u32) -> bool {
        sorted_intersects(&self.out_labels[u as usize], &self.in_labels[v as usize])
    }
}

fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

impl SpecIndex for Hop2 {
    fn build(graph: &DiGraph) -> Self {
        let n = graph.vertex_count();
        // Landmark order: degree product descending (classic heuristic),
        // with topological bisection as the tie-breaker — on degree-regular
        // graphs (e.g. long chains) picking the middle, then the quartiles,
        // keeps hub sets logarithmic instead of linear.
        let topo_pos = {
            let order = topo::topo_order(graph).expect("2-hop requires a DAG");
            let mut pos = vec![0usize; n];
            for (i, &v) in order.iter().enumerate() {
                pos[v as usize] = i;
            }
            pos
        };
        // depth of a position in the balanced BST over [0, n): bisection
        // order picks the topological middle first, then the quartiles, ...
        let bst_depth = |p: usize| -> usize {
            let (mut lo, mut hi, mut depth) = (0usize, n, 0usize);
            loop {
                let mid = lo + (hi - lo) / 2;
                match p.cmp(&mid) {
                    std::cmp::Ordering::Equal => return depth,
                    std::cmp::Ordering::Less => hi = mid,
                    std::cmp::Ordering::Greater => lo = mid + 1,
                }
                depth += 1;
            }
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| {
            let degree = (graph.out_degree(v) + 1) * (graph.in_degree(v) + 1);
            (std::cmp::Reverse(degree), bst_depth(topo_pos[v as usize]))
        });
        let mut index = Hop2 {
            out_labels: vec![Vec::new(); n],
            in_labels: vec![Vec::new(); n],
            bits_per_hub: (usize::BITS - n.max(2).leading_zeros()) as usize,
        };
        let mut queue = VecDeque::new();
        let mut visited = vec![false; n];
        for (rank, &h) in order.iter().enumerate() {
            let rank = rank as u32;
            // the hub covers itself in both directions
            index.out_labels[h as usize].push(rank);
            index.in_labels[h as usize].push(rank);
            // forward: h ⇝ w  ⇒  rank ∈ L_in(w), pruned where already covered
            queue.clear();
            visited.fill(false);
            visited[h as usize] = true;
            queue.push_back(h);
            while let Some(v) = queue.pop_front() {
                for w in graph.successors(v) {
                    if visited[w as usize] {
                        continue;
                    }
                    visited[w as usize] = true;
                    if index.covered(h, w) {
                        continue; // an earlier hub already certifies h ⇝ w
                    }
                    index.in_labels[w as usize].push(rank);
                    queue.push_back(w);
                }
            }
            // backward: w ⇝ h  ⇒  rank ∈ L_out(w)
            queue.clear();
            visited.fill(false);
            visited[h as usize] = true;
            queue.push_back(h);
            while let Some(v) = queue.pop_front() {
                for w in graph.predecessors(v) {
                    if visited[w as usize] {
                        continue;
                    }
                    visited[w as usize] = true;
                    if index.covered(w, h) {
                        continue;
                    }
                    index.out_labels[w as usize].push(rank);
                    queue.push_back(w);
                }
            }
        }
        // ranks were appended in increasing order, so the lists are sorted
        index
    }

    #[inline]
    fn reaches(&self, u: u32, v: u32) -> bool {
        u == v || self.covered(u, v)
    }

    fn label_bits(&self, v: u32) -> usize {
        let (o, i) = self.hub_counts(v);
        (o + i) * self.bits_per_hub
    }

    fn name(&self) -> &'static str {
        "2Hop"
    }

    fn total_bits(&self) -> usize {
        (0..self.out_labels.len() as u32)
            .map(|v| self.label_bits(v))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_rooted_dag;
    use wfp_graph::rng::Xoshiro256;
    use wfp_graph::TransitiveClosure;

    #[test]
    fn path_and_diamond() {
        let mut g = DiGraph::with_vertices(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let idx = Hop2::build(&g);
        assert!(idx.reaches(0, 3));
        assert!(idx.reaches(1, 3));
        assert!(!idx.reaches(1, 2));
        assert!(!idx.reaches(3, 0));
        assert!(idx.reaches(2, 2));
        assert_eq!(idx.name(), "2Hop");
    }

    #[test]
    fn matches_closure_on_random_dags() {
        let mut rng = Xoshiro256::seed_from_u64(606);
        for _ in 0..15 {
            let n = 2 + rng.gen_usize(50);
            let g = random_rooted_dag(&mut rng, n, 0.12);
            let oracle = TransitiveClosure::build(&g);
            let idx = Hop2::build(&g);
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    assert_eq!(idx.reaches(u, v), oracle.reaches(u, v), "({u},{v}) n={n}");
                }
            }
        }
    }

    #[test]
    fn pruning_keeps_hub_sets_small_on_a_path() {
        // on a path, the middle hub covers most pairs; hub sets stay tiny
        let mut g = DiGraph::with_vertices(64);
        for v in 0..63 {
            g.add_edge(v, v + 1);
        }
        let idx = Hop2::build(&g);
        let max_hubs = (0..64u32)
            .map(|v| {
                let (o, i) = idx.hub_counts(v);
                o + i
            })
            .max()
            .unwrap();
        assert!(
            max_hubs <= 16,
            "pruned labeling should be logarithmic-ish on a path, got {max_hubs}"
        );
        assert!(idx.total_bits() > 0);
        assert!(idx.label_bits(32) > 0);
    }
}
