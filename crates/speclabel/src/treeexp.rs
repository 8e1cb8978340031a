//! The tree-expansion baseline of Heinis & Alonso (SIGMOD '08), discussed
//! in the paper's related work (§2): transform the DAG into a tree by
//! duplicating every vertex once per incoming tree path, then label the
//! tree with the classic interval scheme [Santoro & Khatib '85].
//!
//! The paper's criticism — "the size of the transformed tree may be
//! exponential in the size of the original graph" — is exactly what this
//! implementation lets the benchmarks demonstrate: [`TreeExpansion::build`]
//! takes a node budget and reports how far the expansion blew up
//! ([`TreeExpansion::expansion_factor`]), failing gracefully when the
//! budget is exhausted.
//!
//! Queries: `u ⇝ v` iff some tree copy of `u` is an ancestor of some tree
//! copy of `v`; with per-vertex sorted interval lists this is a linear
//! merge over the two lists.

use wfp_graph::{topo, DiGraph};

/// Interval labels over the duplicated tree (DAG-to-tree baseline).
#[derive(Debug)]
pub struct TreeExpansion {
    /// per original vertex: sorted `[tin, tout)` intervals of its copies
    intervals: Vec<Vec<(u32, u32)>>,
    tree_nodes: usize,
    graph_nodes: usize,
}

/// Budget exhaustion: the expanded tree grew past the allowed node count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpansionOverflow {
    /// Nodes materialized before giving up.
    pub reached: usize,
    /// The configured budget.
    pub budget: usize,
}

impl std::fmt::Display for ExpansionOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tree expansion exceeded its budget ({} of {} nodes)",
            self.reached, self.budget
        )
    }
}

impl std::error::Error for ExpansionOverflow {}

impl TreeExpansion {
    /// Expands `graph` (a DAG with a single source) into its duplication
    /// tree, stopping with an error once more than `budget` tree nodes
    /// would be required.
    pub fn build(graph: &DiGraph, budget: usize) -> Result<Self, ExpansionOverflow> {
        let order = topo::topo_order(graph).expect("tree expansion requires a DAG");
        let n = graph.vertex_count();
        // count copies per vertex: #tree paths from a source
        let mut copies = vec![0u64; n];
        for &v in &order {
            let preds: Vec<u32> = graph.predecessors(v).collect();
            copies[v as usize] = if preds.is_empty() {
                1
            } else {
                preds
                    .iter()
                    .map(|&p| copies[p as usize])
                    .fold(0u64, |a, b| a.saturating_add(b))
            };
            let total: u64 = copies.iter().sum();
            if total > budget as u64 {
                return Err(ExpansionOverflow {
                    reached: total as usize,
                    budget,
                });
            }
        }

        // materialize intervals by an iterative DFS over the implicit tree:
        // a tree node is (vertex, parent tree context); children = graph
        // successors. tin/tout assigned on entry/exit.
        let mut intervals: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut clock = 0u32;
        let mut tree_nodes = 0usize;
        enum Step {
            Enter(u32),
            Exit(u32, u32), // vertex, its tin
        }
        for &root in &order {
            if graph.in_degree(root) != 0 {
                continue;
            }
            let mut stack = vec![Step::Enter(root)];
            while let Some(step) = stack.pop() {
                match step {
                    Step::Enter(v) => {
                        let tin = clock;
                        clock += 1;
                        tree_nodes += 1;
                        stack.push(Step::Exit(v, tin));
                        for w in graph.successors(v) {
                            stack.push(Step::Enter(w));
                        }
                    }
                    Step::Exit(v, tin) => {
                        intervals[v as usize].push((tin, clock));
                        clock += 1;
                    }
                }
            }
        }
        for list in &mut intervals {
            list.sort_unstable();
        }
        Ok(TreeExpansion {
            intervals,
            tree_nodes,
            graph_nodes: n,
        })
    }

    /// Whether `u ⇝ v` (reflexive): some copy of `u` encloses some copy of
    /// `v` in the duplication tree.
    pub fn reaches(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        let us = &self.intervals[u as usize];
        let vs = &self.intervals[v as usize];
        // two-pointer merge: for each u-interval, check the first v-copy
        // starting at or after its tin
        let mut j = 0usize;
        for &(lo, hi) in us {
            while j < vs.len() && vs[j].0 < lo {
                j += 1;
            }
            if j < vs.len() && vs[j].0 < hi {
                return true;
            }
        }
        false
    }

    /// Number of nodes in the expanded tree.
    pub fn tree_size(&self) -> usize {
        self.tree_nodes
    }

    /// `tree nodes / graph vertices` — the blow-up the paper warns about.
    pub fn expansion_factor(&self) -> f64 {
        self.tree_nodes as f64 / self.graph_nodes.max(1) as f64
    }

    /// Total index bits: two tree positions per copy.
    pub fn total_bits(&self) -> usize {
        let width = (usize::BITS - (2 * self.tree_nodes).max(2).leading_zeros()) as usize;
        self.intervals.iter().map(|l| 2 * width * l.len()).sum()
    }

    /// Label bits of one vertex.
    pub fn label_bits(&self, v: u32) -> usize {
        let width = (usize::BITS - (2 * self.tree_nodes).max(2).leading_zeros()) as usize;
        2 * width * self.intervals[v as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_rooted_dag;
    use wfp_graph::rng::Xoshiro256;
    use wfp_graph::TransitiveClosure;

    #[test]
    fn matches_closure_on_random_dags() {
        let mut rng = Xoshiro256::seed_from_u64(2024);
        for _ in 0..12 {
            let n = 2 + rng.gen_usize(24);
            let g = random_rooted_dag(&mut rng, n, 0.12);
            let oracle = TransitiveClosure::build(&g);
            let exp = TreeExpansion::build(&g, 5_000_000).expect("small DAG fits");
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    assert_eq!(exp.reaches(u, v), oracle.reaches(u, v), "({u},{v}) n={n}");
                }
            }
        }
    }

    #[test]
    fn diamond_chain_explodes_exponentially() {
        // k stacked diamonds: 2^k paths — the paper's exponential case
        let k = 18;
        let mut g = DiGraph::new();
        let mut prev = g.add_vertex();
        for _ in 0..k {
            let a = g.add_vertex();
            let b = g.add_vertex();
            let join = g.add_vertex();
            g.add_edge(prev, a);
            g.add_edge(prev, b);
            g.add_edge(a, join);
            g.add_edge(b, join);
            prev = join;
        }
        let err = TreeExpansion::build(&g, 100_000).unwrap_err();
        assert!(err.reached > 100_000);
        assert!(err.to_string().contains("budget"));
        // a small stack still fits and is correct
        let mut small = DiGraph::new();
        let mut prev = small.add_vertex();
        for _ in 0..6 {
            let a = small.add_vertex();
            let b = small.add_vertex();
            let join = small.add_vertex();
            small.add_edge(prev, a);
            small.add_edge(prev, b);
            small.add_edge(a, join);
            small.add_edge(b, join);
            prev = join;
        }
        let exp = TreeExpansion::build(&small, 1_000_000).unwrap();
        assert!(exp.expansion_factor() > 10.0, "{}", exp.expansion_factor());
        let oracle = TransitiveClosure::build(&small);
        for u in 0..small.vertex_count() as u32 {
            for v in 0..small.vertex_count() as u32 {
                assert_eq!(exp.reaches(u, v), oracle.reaches(u, v));
            }
        }
    }

    #[test]
    fn tree_shaped_graph_does_not_expand() {
        let mut g = DiGraph::with_vertices(7);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)] {
            g.add_edge(a, b);
        }
        let exp = TreeExpansion::build(&g, 100).unwrap();
        assert_eq!(exp.tree_size(), 7);
        assert!((exp.expansion_factor() - 1.0).abs() < 1e-9);
        assert!(exp.reaches(0, 6));
        assert!(!exp.reaches(1, 5));
        assert!(exp.label_bits(0) > 0);
        assert!(exp.total_bits() >= 7 * exp.label_bits(0) / 2);
    }
}
