//! A dynamic directed multigraph with O(1) edge deletion.
//!
//! `ConstructPlan` (paper §5) repeatedly *contracts* fork/loop copies of the
//! run graph: it deletes the copy's edges and interior vertices and inserts a
//! single "special" edge. For the algorithm to stay linear, deleting an edge
//! must not require scanning adjacency lists, and iterating a vertex's
//! incident edges must never revisit dead ones. [`DynGraph`] achieves both by
//! threading every edge through two intrusive doubly-linked lists (one for
//! its tail's out-list, one for its head's in-list).
//!
//! Edge payloads of type `E` travel with the edge (the plan builder uses them
//! to tag original vs. special edges).

use crate::digraph::NIL;

struct Vert {
    out_head: u32,
    in_head: u32,
    out_deg: u32,
    in_deg: u32,
    alive: bool,
}

struct Edge<E> {
    from: u32,
    to: u32,
    prev_out: u32,
    next_out: u32,
    prev_in: u32,
    next_in: u32,
    alive: bool,
    data: E,
}

/// A mutable directed multigraph supporting O(1) edge insertion and deletion.
pub struct DynGraph<E> {
    verts: Vec<Vert>,
    edges: Vec<Edge<E>>,
    alive_edges: usize,
    alive_verts: usize,
}

impl<E> DynGraph<E> {
    /// Creates a graph with `n` isolated, alive vertices and no edges.
    pub fn with_vertices(n: usize) -> Self {
        DynGraph {
            verts: (0..n)
                .map(|_| Vert {
                    out_head: NIL,
                    in_head: NIL,
                    out_deg: 0,
                    in_deg: 0,
                    alive: true,
                })
                .collect(),
            edges: Vec::new(),
            alive_edges: 0,
            alive_verts: n,
        }
    }

    /// Total number of vertex slots (alive or dead).
    #[inline]
    pub fn vertex_slots(&self) -> usize {
        self.verts.len()
    }

    /// Number of alive vertices.
    #[inline]
    pub fn alive_vertex_count(&self) -> usize {
        self.alive_verts
    }

    /// Number of alive edges.
    #[inline]
    pub fn alive_edge_count(&self) -> usize {
        self.alive_edges
    }

    /// Total number of edge slots ever allocated (alive or dead).
    #[inline]
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Whether vertex `v` is alive.
    #[inline]
    pub fn vertex_alive(&self, v: u32) -> bool {
        self.verts[v as usize].alive
    }

    /// Whether edge `e` is alive.
    #[inline]
    pub fn edge_alive(&self, e: u32) -> bool {
        self.edges[e as usize].alive
    }

    /// Endpoints `(from, to)` of edge `e` (valid even after deletion).
    #[inline]
    pub fn edge(&self, e: u32) -> (u32, u32) {
        let ed = &self.edges[e as usize];
        (ed.from, ed.to)
    }

    /// Payload of edge `e` (valid even after deletion).
    #[inline]
    pub fn data(&self, e: u32) -> &E {
        &self.edges[e as usize].data
    }

    /// Mutable payload of edge `e`.
    #[inline]
    pub fn data_mut(&mut self, e: u32) -> &mut E {
        &mut self.edges[e as usize].data
    }

    /// Out-degree of `v` over alive edges.
    #[inline]
    pub fn out_degree(&self, v: u32) -> usize {
        self.verts[v as usize].out_deg as usize
    }

    /// In-degree of `v` over alive edges.
    #[inline]
    pub fn in_degree(&self, v: u32) -> usize {
        self.verts[v as usize].in_deg as usize
    }

    /// Inserts edge `from -> to` carrying `data`; returns its id.
    pub fn add_edge(&mut self, from: u32, to: u32, data: E) -> u32 {
        assert!(
            self.verts[from as usize].alive,
            "tail vertex {from} is dead"
        );
        assert!(self.verts[to as usize].alive, "head vertex {to} is dead");
        let id = self.edges.len() as u32;
        let out_head = self.verts[from as usize].out_head;
        let in_head = self.verts[to as usize].in_head;
        self.edges.push(Edge {
            from,
            to,
            prev_out: NIL,
            next_out: out_head,
            prev_in: NIL,
            next_in: in_head,
            alive: true,
            data,
        });
        if out_head != NIL {
            self.edges[out_head as usize].prev_out = id;
        }
        if in_head != NIL {
            self.edges[in_head as usize].prev_in = id;
        }
        self.verts[from as usize].out_head = id;
        self.verts[to as usize].in_head = id;
        self.verts[from as usize].out_deg += 1;
        self.verts[to as usize].in_deg += 1;
        self.alive_edges += 1;
        id
    }

    /// Deletes edge `e` in O(1). Idempotent: deleting a dead edge is a no-op.
    pub fn remove_edge(&mut self, e: u32) {
        let ei = e as usize;
        if !self.edges[ei].alive {
            return;
        }
        self.edges[ei].alive = false;
        self.alive_edges -= 1;
        let (from, to) = (self.edges[ei].from, self.edges[ei].to);
        let (prev_out, next_out) = (self.edges[ei].prev_out, self.edges[ei].next_out);
        let (prev_in, next_in) = (self.edges[ei].prev_in, self.edges[ei].next_in);
        // unlink from the out-list of `from`
        if prev_out != NIL {
            self.edges[prev_out as usize].next_out = next_out;
        } else {
            self.verts[from as usize].out_head = next_out;
        }
        if next_out != NIL {
            self.edges[next_out as usize].prev_out = prev_out;
        }
        // unlink from the in-list of `to`
        if prev_in != NIL {
            self.edges[prev_in as usize].next_in = next_in;
        } else {
            self.verts[to as usize].in_head = next_in;
        }
        if next_in != NIL {
            self.edges[next_in as usize].prev_in = prev_in;
        }
        self.verts[from as usize].out_deg -= 1;
        self.verts[to as usize].in_deg -= 1;
    }

    /// Deletes all incident alive edges of `v` and marks it dead.
    /// Idempotent on dead vertices.
    pub fn remove_vertex(&mut self, v: u32) {
        if !self.verts[v as usize].alive {
            return;
        }
        while self.verts[v as usize].out_head != NIL {
            let e = self.verts[v as usize].out_head;
            self.remove_edge(e);
        }
        while self.verts[v as usize].in_head != NIL {
            let e = self.verts[v as usize].in_head;
            self.remove_edge(e);
        }
        self.verts[v as usize].alive = false;
        self.alive_verts -= 1;
    }

    /// Iterates over the alive outgoing edge ids of `v`.
    ///
    /// The iterator reads the successor link before yielding, so deleting the
    /// *yielded* edge mid-iteration is safe; deleting other edges of `v`
    /// while iterating is not (the borrow checker rules it out anyway for
    /// `&mut self` deletions).
    pub fn out_edges(&self, v: u32) -> EdgeIter<'_, E> {
        EdgeIter {
            graph: self,
            cur: self.verts[v as usize].out_head,
            outgoing: true,
        }
    }

    /// Iterates over the alive incoming edge ids of `v`.
    pub fn in_edges(&self, v: u32) -> EdgeIter<'_, E> {
        EdgeIter {
            graph: self,
            cur: self.verts[v as usize].in_head,
            outgoing: false,
        }
    }

    /// An arbitrary alive outgoing edge of `v`, if any.
    #[inline]
    pub fn first_out(&self, v: u32) -> Option<u32> {
        let h = self.verts[v as usize].out_head;
        (h != NIL).then_some(h)
    }

    /// An arbitrary alive incoming edge of `v`, if any.
    #[inline]
    pub fn first_in(&self, v: u32) -> Option<u32> {
        let h = self.verts[v as usize].in_head;
        (h != NIL).then_some(h)
    }

    /// Iterates over ids of alive vertices.
    pub fn alive_vertices(&self) -> impl Iterator<Item = u32> + '_ {
        self.verts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.alive)
            .map(|(i, _)| i as u32)
    }

    /// Iterates over ids of alive edges.
    pub fn alive_edges(&self) -> impl Iterator<Item = u32> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| i as u32)
    }
}

/// Iterator over the alive incident edges of one vertex.
pub struct EdgeIter<'a, E> {
    graph: &'a DynGraph<E>,
    cur: u32,
    outgoing: bool,
}

impl<E> Iterator for EdgeIter<'_, E> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NIL {
            return None;
        }
        let e = self.cur;
        let ed = &self.graph.edges[e as usize];
        self.cur = if self.outgoing {
            ed.next_out
        } else {
            ed.next_in
        };
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids<E>(it: EdgeIter<'_, E>) -> Vec<u32> {
        let mut v: Vec<u32> = it.collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn add_and_iterate() {
        let mut g: DynGraph<()> = DynGraph::with_vertices(3);
        let e0 = g.add_edge(0, 1, ());
        let e1 = g.add_edge(0, 2, ());
        let e2 = g.add_edge(1, 2, ());
        assert_eq!(g.alive_edge_count(), 3);
        assert_eq!(ids(g.out_edges(0)), vec![e0, e1]);
        assert_eq!(ids(g.in_edges(2)), vec![e1, e2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 2);
    }

    #[test]
    fn remove_edge_unlinks_both_lists() {
        let mut g: DynGraph<u8> = DynGraph::with_vertices(2);
        let a = g.add_edge(0, 1, 1);
        let b = g.add_edge(0, 1, 2);
        let c = g.add_edge(0, 1, 3);
        g.remove_edge(b);
        assert!(!g.edge_alive(b));
        assert_eq!(ids(g.out_edges(0)), vec![a, c]);
        assert_eq!(ids(g.in_edges(1)), vec![a, c]);
        assert_eq!(g.alive_edge_count(), 2);
        // removing the head of the list works too
        g.remove_edge(c);
        assert_eq!(ids(g.out_edges(0)), vec![a]);
        g.remove_edge(a);
        assert_eq!(g.out_degree(0), 0);
        assert_eq!(g.in_degree(1), 0);
        assert_eq!(g.first_out(0), None);
    }

    #[test]
    fn remove_edge_is_idempotent() {
        let mut g: DynGraph<()> = DynGraph::with_vertices(2);
        let e = g.add_edge(0, 1, ());
        g.remove_edge(e);
        g.remove_edge(e);
        assert_eq!(g.alive_edge_count(), 0);
    }

    #[test]
    fn remove_vertex_kills_incident_edges() {
        let mut g: DynGraph<()> = DynGraph::with_vertices(4);
        g.add_edge(0, 1, ());
        g.add_edge(1, 2, ());
        g.add_edge(3, 1, ());
        let keep = g.add_edge(0, 3, ());
        g.remove_vertex(1);
        assert!(!g.vertex_alive(1));
        assert_eq!(g.alive_edge_count(), 1);
        assert!(g.edge_alive(keep));
        assert_eq!(g.alive_vertex_count(), 3);
        assert_eq!(g.alive_vertices().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn payload_survives_deletion() {
        let mut g: DynGraph<&'static str> = DynGraph::with_vertices(2);
        let e = g.add_edge(0, 1, "hello");
        g.remove_edge(e);
        assert_eq!(*g.data(e), "hello");
        assert_eq!(g.edge(e), (0, 1));
    }

    #[test]
    fn deleting_yielded_edge_during_iteration_is_safe() {
        let mut g: DynGraph<()> = DynGraph::with_vertices(2);
        for _ in 0..5 {
            g.add_edge(0, 1, ());
        }
        let all: Vec<u32> = g.out_edges(0).collect();
        for e in all {
            g.remove_edge(e);
        }
        assert_eq!(g.alive_edge_count(), 0);
    }

    #[test]
    fn interleaved_add_remove_keeps_counts() {
        let mut g: DynGraph<u32> = DynGraph::with_vertices(5);
        let mut live = Vec::new();
        for i in 0..100u32 {
            let e = g.add_edge(i % 5, (i + 1) % 5, i);
            if i % 3 == 0 {
                g.remove_edge(e);
            } else {
                live.push(e);
            }
        }
        assert_eq!(g.alive_edge_count(), live.len());
        let total_out: usize = (0..5).map(|v| g.out_degree(v)).sum();
        assert_eq!(total_out, live.len());
        assert_eq!(g.alive_edges().count(), live.len());
    }
}
