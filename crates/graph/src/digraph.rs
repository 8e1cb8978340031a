//! A compact, append-only directed multigraph.
//!
//! [`DiGraph`] is the static representation used for workflow specifications
//! and runs: vertices and edges are added once and never removed, adjacency
//! is stored as per-vertex edge-index lists, and parallel edges are allowed
//! (runs of workflows with single-edge forks are genuine multigraphs, see
//! paper §3.2 / DESIGN.md §4).

/// Index of a vertex inside a [`DiGraph`].
pub type VertexIdx = u32;
/// Index of an edge inside a [`DiGraph`].
pub type EdgeIdx = u32;
/// Sentinel index meaning "none".
pub const NIL: u32 = u32::MAX;

/// A static directed multigraph over `u32` vertex indices.
#[derive(Clone, Default)]
pub struct DiGraph {
    edges: Vec<(VertexIdx, VertexIdx)>,
    out_adj: Vec<Vec<EdgeIdx>>,
    in_adj: Vec<Vec<EdgeIdx>>,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        DiGraph {
            edges: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a new isolated vertex and returns its index.
    pub fn add_vertex(&mut self) -> VertexIdx {
        let id = self.out_adj.len() as VertexIdx;
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed edge `from -> to` and returns its index.
    ///
    /// Parallel edges are allowed. Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: VertexIdx, to: VertexIdx) -> EdgeIdx {
        assert!(
            (from as usize) < self.vertex_count(),
            "vertex {from} out of range"
        );
        assert!(
            (to as usize) < self.vertex_count(),
            "vertex {to} out of range"
        );
        let id = self.edges.len() as EdgeIdx;
        self.edges.push((from, to));
        self.out_adj[from as usize].push(id);
        self.in_adj[to as usize].push(id);
        id
    }

    /// Endpoints `(from, to)` of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeIdx) -> (VertexIdx, VertexIdx) {
        self.edges[e as usize]
    }

    /// All edges as `(from, to)` pairs, indexed by [`EdgeIdx`].
    #[inline]
    pub fn edges(&self) -> &[(VertexIdx, VertexIdx)] {
        &self.edges
    }

    /// Outgoing edge indices of `v`.
    #[inline]
    pub fn out_edges(&self, v: VertexIdx) -> &[EdgeIdx] {
        &self.out_adj[v as usize]
    }

    /// Incoming edge indices of `v`.
    #[inline]
    pub fn in_edges(&self, v: VertexIdx) -> &[EdgeIdx] {
        &self.in_adj[v as usize]
    }

    /// Iterates over the heads of `v`'s outgoing edges.
    pub fn successors(&self, v: VertexIdx) -> impl Iterator<Item = VertexIdx> + '_ {
        self.out_adj[v as usize]
            .iter()
            .map(move |&e| self.edges[e as usize].1)
    }

    /// Iterates over the tails of `v`'s incoming edges.
    pub fn predecessors(&self, v: VertexIdx) -> impl Iterator<Item = VertexIdx> + '_ {
        self.in_adj[v as usize]
            .iter()
            .map(move |&e| self.edges[e as usize].0)
    }

    /// Out-degree of `v` (counting parallel edges).
    #[inline]
    pub fn out_degree(&self, v: VertexIdx) -> usize {
        self.out_adj[v as usize].len()
    }

    /// In-degree of `v` (counting parallel edges).
    #[inline]
    pub fn in_degree(&self, v: VertexIdx) -> usize {
        self.in_adj[v as usize].len()
    }

    /// Returns `true` if some edge `from -> to` exists (linear in
    /// `min(out_degree(from), in_degree(to))`).
    pub fn has_edge(&self, from: VertexIdx, to: VertexIdx) -> bool {
        if self.out_degree(from) <= self.in_degree(to) {
            self.successors(from).any(|h| h == to)
        } else {
            self.predecessors(to).any(|t| t == from)
        }
    }

    /// Iterates over all vertex indices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexIdx> {
        0..self.vertex_count() as VertexIdx
    }
}

impl std::fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "DiGraph(n={}, m={})",
            self.vertex_count(),
            self.edge_count()
        )?;
        for v in self.vertices() {
            let succ: Vec<_> = self.successors(v).collect();
            writeln!(f, "  {v} -> {succ:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::with_vertices(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn adjacency_matches_edges() {
        let g = diamond();
        assert_eq!(g.successors(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(g.predecessors(3).collect::<Vec<_>>(), vec![1, 2]);
        let (from, to) = g.edge(2);
        assert_eq!((from, to), (1, 3));
    }

    #[test]
    fn parallel_edges_are_kept() {
        let mut g = DiGraph::with_vertices(2);
        let e1 = g.add_edge(0, 1);
        let e2 = g.add_edge(0, 1);
        assert_ne!(e1, e2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(0), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn add_vertex_grows_graph() {
        let mut g = DiGraph::new();
        let a = g.add_vertex();
        let b = g.add_vertex();
        assert_eq!((a, b), (0, 1));
        g.add_edge(a, b);
        assert!(g.has_edge(a, b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        let mut g = DiGraph::with_vertices(1);
        g.add_edge(0, 1);
    }
}
