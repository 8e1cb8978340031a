//! The `BFS`/`DFS` schemes (paper §7): no index, search at query time.
//!
//! The paper treats these as degenerate labeling schemes: "since no extra
//! index structure is used, we can treat the label length and construction
//! time to be zero, but the query time ... will be linear in terms of the
//! size of the specification". The index owns a copy of the (small)
//! specification graph; each thread reuses its own scratch buffers across
//! every index it queries, so a query allocates nothing in the steady
//! state and one index serves any number of threads.

use std::cell::RefCell;
use std::collections::VecDeque;

use wfp_graph::traversal::{bfs_reaches, dfs_reaches, VisitMap};
use wfp_graph::DiGraph;

use crate::SpecIndex;

/// BFS or DFS at query time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchFlavor {
    /// Breadth-first search.
    Bfs,
    /// Depth-first search.
    Dfs,
}

struct Scratch {
    visit: VisitMap,
    queue: VecDeque<u32>,
    stack: Vec<u32>,
}

thread_local! {
    // Grown to the largest graph this thread has searched; the visit
    // map's epoch reset forgets the previous search, whatever its graph.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        visit: VisitMap::new(0),
        queue: VecDeque::new(),
        stack: Vec::new(),
    });
}

/// Query-time graph search over a stored copy of the specification.
#[derive(Clone)]
pub struct GraphSearch {
    graph: DiGraph,
    flavor: SearchFlavor,
}

impl GraphSearch {
    /// Builds a search "index" with the requested flavor.
    pub fn with_flavor(graph: &DiGraph, flavor: SearchFlavor) -> Self {
        GraphSearch {
            graph: graph.clone(),
            flavor,
        }
    }

    /// The flavor this index searches with.
    pub fn flavor(&self) -> SearchFlavor {
        self.flavor
    }
}

impl SpecIndex for GraphSearch {
    fn build(graph: &DiGraph) -> Self {
        GraphSearch::with_flavor(graph, SearchFlavor::Bfs)
    }

    fn reaches(&self, u: u32, v: u32) -> bool {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.visit.grow(self.graph.vertex_count());
            match self.flavor {
                SearchFlavor::Bfs => {
                    bfs_reaches(&self.graph, u, v, &mut scratch.visit, &mut scratch.queue)
                }
                SearchFlavor::Dfs => {
                    dfs_reaches(&self.graph, u, v, &mut scratch.visit, &mut scratch.stack)
                }
            }
        })
    }

    fn label_bits(&self, _v: u32) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        match self.flavor {
            SearchFlavor::Bfs => "BFS",
            SearchFlavor::Dfs => "DFS",
        }
    }

    fn total_bits(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_rooted_dag;
    use crate::{SchemeKind, SpecScheme};
    use wfp_graph::rng::Xoshiro256;
    use wfp_graph::TransitiveClosure;

    fn sample() -> DiGraph {
        let mut g = DiGraph::with_vertices(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 3);
        g.add_edge(3, 4);
        g
    }

    #[test]
    fn bfs_and_dfs_flavors_agree() {
        let g = sample();
        let bfs = GraphSearch::with_flavor(&g, SearchFlavor::Bfs);
        let dfs = GraphSearch::with_flavor(&g, SearchFlavor::Dfs);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(bfs.reaches(u, v), dfs.reaches(u, v), "({u},{v})");
            }
        }
        assert_eq!(bfs.name(), "BFS");
        assert_eq!(dfs.name(), "DFS");
        assert_eq!(bfs.flavor(), SearchFlavor::Bfs);
    }

    #[test]
    fn zero_cost_accounting() {
        let g = sample();
        let idx = GraphSearch::build(&g);
        assert_eq!(idx.label_bits(0), 0);
        assert_eq!(idx.total_bits(), 0);
    }

    #[test]
    fn repeated_queries_reuse_scratch() {
        let g = sample();
        let idx = GraphSearch::build(&g);
        for _ in 0..100 {
            assert!(idx.reaches(0, 2));
            assert!(!idx.reaches(2, 0));
            assert!(!idx.reaches(1, 4));
        }
    }

    // Every scheme answers any number of threads by reference.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<SpecScheme>();
    };

    #[test]
    fn one_thread_scratch_serves_graphs_of_every_size() {
        // small, large, small: the scratch must grow for the large graph
        // and forget its visits when the small one comes back
        let mut rng = Xoshiro256::seed_from_u64(5);
        let small = random_rooted_dag(&mut rng, 5, 0.3);
        let large = random_rooted_dag(&mut rng, 60, 0.05);
        for g in [&small, &large, &small] {
            let oracle = TransitiveClosure::build(g);
            let bfs = GraphSearch::with_flavor(g, SearchFlavor::Bfs);
            let dfs = GraphSearch::with_flavor(g, SearchFlavor::Dfs);
            let other = GraphSearch::with_flavor(&large, SearchFlavor::Dfs);
            let n = g.vertex_count() as u32;
            for u in 0..n {
                for v in 0..n {
                    let want = oracle.reaches(u, v);
                    assert_eq!(bfs.reaches(u, v), want, "BFS ({u},{v}) n={n}");
                    // a search over another graph between the two flavors
                    assert!(other.reaches(0, 59), "vertex 0 roots the large graph");
                    assert_eq!(dfs.reaches(u, v), want, "DFS ({u},{v}) n={n}");
                }
            }
        }
    }

    #[test]
    fn threads_share_one_index() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let g = random_rooted_dag(&mut rng, 60, 0.05);
        let oracle = TransitiveClosure::build(&g);
        let scheme = SpecScheme::build(SchemeKind::Bfs, &g);
        let (scheme, oracle) = (&scheme, &oracle);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                scope.spawn(move || {
                    // each thread walks the pairs from its own offset, so
                    // the threads search different pairs at the same time
                    for i in 0..60 * 60 {
                        let (u, v) = ((i + t * 900) % 3600 / 60, i % 60);
                        assert_eq!(scheme.reaches(u, v), oracle.reaches(u, v), "({u},{v})");
                    }
                });
            }
        });
    }
}
