//! Reachability labeling schemes for workflow *specifications* (paper §7).
//!
//! The skeleton-based scheme is parametric in how the (small) specification
//! is labeled. The paper evaluates the two extremes and argues that SKL is
//! robust to the choice:
//!
//! * [`Tcm`] — precomputed transitive-closure matrix: `n_G`-bit labels,
//!   `O(1)` queries (§7 "TCM").
//! * [`GraphSearch`] — no index at all; each query runs BFS or DFS over the
//!   specification: zero-length labels, `O(m_G + n_G)` queries (§7
//!   "BFS/DFS").
//!
//! For the robustness experiments we additionally implement two classic
//! schemes from the paper's related-work section (§2):
//!
//! * [`TreeCover`] — interval labels on a spanning tree with inherited
//!   interval sets (Agrawal, Borgida & Jagadish, SIGMOD '89).
//! * [`ChainDecomposition`] — a greedy path cover with per-chain successor
//!   minima (Jagadish, TODS '90).
//! * [`Hop2`] — pruned 2-hop / hub labeling (Cohen et al., SODA '02).
//!
//! All schemes answer *reflexive* reachability (`u ⇝ u` is true) so the run
//! predicate πr composes uniformly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chains;
pub mod hop2;
pub mod search;
pub mod tcm;
pub mod treecover;
pub mod treeexp;

pub use chains::ChainDecomposition;
pub use hop2::Hop2;
pub use search::{GraphSearch, SearchFlavor};
pub use tcm::Tcm;
pub use treecover::TreeCover;
pub use treeexp::{ExpansionOverflow, TreeExpansion};

use wfp_graph::DiGraph;

/// A reachability index over a specification DAG.
///
/// `reaches` takes `&self` and every scheme here is `Send + Sync`: the
/// search-based ones keep their scratch space per thread, not in the
/// index, so one index answers any number of threads by reference.
pub trait SpecIndex {
    /// Builds the index for `graph` (must be a DAG).
    fn build(graph: &DiGraph) -> Self
    where
        Self: Sized;

    /// Whether `u ⇝ v` (reflexive).
    fn reaches(&self, u: u32, v: u32) -> bool;

    /// Whether one [`reaches`](Self::reaches) probe is already a
    /// constant-time, cache-resident lookup (e.g. TCM's bit probe), making
    /// an external memo pure overhead. Batch evaluators consult this to
    /// decide whether memoizing `(u, v)` probes is worthwhile.
    fn constant_time_queries(&self) -> bool {
        false
    }

    /// Length in bits of vertex `v`'s label under the paper's accounting
    /// (TCM: `n_G`; search schemes: 0 — "we can treat the label length and
    /// construction time to be zero", §7).
    fn label_bits(&self, v: u32) -> usize;

    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Total index size in bits (the amortizable storage cost of Table 2).
    fn total_bits(&self) -> usize;
}

/// Shared indexes answer through the wrapped index: an `Arc<S>` *is* a
/// [`SpecIndex`], so spec-level state (e.g. `wfp_skl`'s `SpecContext`) can
/// be handed to any component expecting an index without cloning it —
/// every holder of the `Arc` probes the same instance.
impl<T: SpecIndex> SpecIndex for std::sync::Arc<T> {
    fn build(graph: &DiGraph) -> Self {
        std::sync::Arc::new(T::build(graph))
    }

    fn reaches(&self, u: u32, v: u32) -> bool {
        (**self).reaches(u, v)
    }

    fn constant_time_queries(&self) -> bool {
        (**self).constant_time_queries()
    }

    fn label_bits(&self, v: u32) -> usize {
        (**self).label_bits(v)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn total_bits(&self) -> usize {
        (**self).total_bits()
    }
}

/// Which specification scheme to use — the dynamic registry used by the
/// benchmark harness and by [`SpecScheme::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// Transitive-closure matrix.
    Tcm,
    /// Per-query breadth-first search.
    Bfs,
    /// Per-query depth-first search.
    Dfs,
    /// Interval tree cover.
    TreeCover,
    /// Chain decomposition.
    Chain,
    /// Pruned 2-hop (hub) labeling.
    Hop2,
}

impl SchemeKind {
    /// All kinds, for exhaustive test sweeps.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::Tcm,
        SchemeKind::Bfs,
        SchemeKind::Dfs,
        SchemeKind::TreeCover,
        SchemeKind::Chain,
        SchemeKind::Hop2,
    ];
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchemeKind::Tcm => "TCM",
            SchemeKind::Bfs => "BFS",
            SchemeKind::Dfs => "DFS",
            SchemeKind::TreeCover => "TreeCover",
            SchemeKind::Chain => "Chain",
            SchemeKind::Hop2 => "2Hop",
        };
        f.write_str(s)
    }
}

/// A dynamically chosen specification index.
#[derive(Clone)]
pub enum SpecScheme {
    /// Transitive-closure matrix.
    Tcm(Tcm),
    /// BFS / DFS at query time.
    Search(GraphSearch),
    /// Interval tree cover.
    TreeCover(TreeCover),
    /// Chain decomposition.
    Chain(ChainDecomposition),
    /// Pruned 2-hop labeling.
    Hop2(Hop2),
}

impl SpecScheme {
    /// Builds the index of the requested kind.
    pub fn build(kind: SchemeKind, graph: &DiGraph) -> SpecScheme {
        match kind {
            SchemeKind::Tcm => SpecScheme::Tcm(Tcm::build(graph)),
            SchemeKind::Bfs => {
                SpecScheme::Search(GraphSearch::with_flavor(graph, SearchFlavor::Bfs))
            }
            SchemeKind::Dfs => {
                SpecScheme::Search(GraphSearch::with_flavor(graph, SearchFlavor::Dfs))
            }
            SchemeKind::TreeCover => SpecScheme::TreeCover(TreeCover::build(graph)),
            SchemeKind::Chain => SpecScheme::Chain(ChainDecomposition::build(graph)),
            SchemeKind::Hop2 => SpecScheme::Hop2(Hop2::build(graph)),
        }
    }

    /// The kind this index was built as.
    pub fn kind(&self) -> SchemeKind {
        match self {
            SpecScheme::Tcm(_) => SchemeKind::Tcm,
            SpecScheme::Search(s) => match s.flavor() {
                SearchFlavor::Bfs => SchemeKind::Bfs,
                SearchFlavor::Dfs => SchemeKind::Dfs,
            },
            SpecScheme::TreeCover(_) => SchemeKind::TreeCover,
            SpecScheme::Chain(_) => SchemeKind::Chain,
            SpecScheme::Hop2(_) => SchemeKind::Hop2,
        }
    }
}

impl SpecIndex for SpecScheme {
    fn build(graph: &DiGraph) -> Self {
        SpecScheme::build(SchemeKind::Tcm, graph)
    }

    fn reaches(&self, u: u32, v: u32) -> bool {
        match self {
            SpecScheme::Tcm(i) => i.reaches(u, v),
            SpecScheme::Search(i) => i.reaches(u, v),
            SpecScheme::TreeCover(i) => i.reaches(u, v),
            SpecScheme::Chain(i) => i.reaches(u, v),
            SpecScheme::Hop2(i) => i.reaches(u, v),
        }
    }

    fn constant_time_queries(&self) -> bool {
        match self {
            SpecScheme::Tcm(i) => i.constant_time_queries(),
            SpecScheme::Search(i) => i.constant_time_queries(),
            SpecScheme::TreeCover(i) => i.constant_time_queries(),
            SpecScheme::Chain(i) => i.constant_time_queries(),
            SpecScheme::Hop2(i) => i.constant_time_queries(),
        }
    }

    fn label_bits(&self, v: u32) -> usize {
        match self {
            SpecScheme::Tcm(i) => i.label_bits(v),
            SpecScheme::Search(i) => i.label_bits(v),
            SpecScheme::TreeCover(i) => i.label_bits(v),
            SpecScheme::Chain(i) => i.label_bits(v),
            SpecScheme::Hop2(i) => i.label_bits(v),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            SpecScheme::Tcm(i) => i.name(),
            SpecScheme::Search(i) => i.name(),
            SpecScheme::TreeCover(i) => i.name(),
            SpecScheme::Chain(i) => i.name(),
            SpecScheme::Hop2(i) => i.name(),
        }
    }

    fn total_bits(&self) -> usize {
        match self {
            SpecScheme::Tcm(i) => i.total_bits(),
            SpecScheme::Search(i) => i.total_bits(),
            SpecScheme::TreeCover(i) => i.total_bits(),
            SpecScheme::Chain(i) => i.total_bits(),
            SpecScheme::Hop2(i) => i.total_bits(),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use wfp_graph::rng::Xoshiro256;
    use wfp_graph::DiGraph;

    /// A random DAG with a single source 0 (every vertex reachable from 0)
    /// — shaped like the specification graphs the schemes will index.
    pub fn random_rooted_dag(rng: &mut Xoshiro256, n: usize, edge_prob: f64) -> DiGraph {
        let mut g = DiGraph::with_vertices(n);
        for v in 1..n as u32 {
            // guarantee an incoming edge from an earlier vertex
            let p = rng.gen_below(v as u64) as u32;
            g.add_edge(p, v);
            for u in 0..v {
                if u != p && rng.gen_bool(edge_prob) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_graph::rng::Xoshiro256;
    use wfp_graph::TransitiveClosure;

    #[test]
    fn all_schemes_agree_with_the_closure() {
        let mut rng = Xoshiro256::seed_from_u64(99);
        for trial in 0..8 {
            let n = 3 + rng.gen_usize(40);
            let g = crate::testutil::random_rooted_dag(&mut rng, n, 0.1);
            let oracle = TransitiveClosure::build(&g);
            let schemes: Vec<SpecScheme> = SchemeKind::ALL
                .iter()
                .map(|&k| SpecScheme::build(k, &g))
                .collect();
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    let expected = oracle.reaches(u, v);
                    for s in &schemes {
                        assert_eq!(
                            s.reaches(u, v),
                            expected,
                            "scheme {} mismatch at ({u},{v}), trial {trial}, n {n}",
                            s.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kinds_round_trip() {
        let g = {
            let mut g = wfp_graph::DiGraph::with_vertices(2);
            g.add_edge(0, 1);
            g
        };
        for &k in &SchemeKind::ALL {
            let s = SpecScheme::build(k, &g);
            assert_eq!(s.kind(), k);
            assert!(!s.name().is_empty());
            assert!(s.reaches(0, 1));
            assert!(!s.reaches(1, 0));
            assert!(s.reaches(1, 1), "reflexivity under {k}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(SchemeKind::Tcm.to_string(), "TCM");
        assert_eq!(SchemeKind::TreeCover.to_string(), "TreeCover");
    }
}
