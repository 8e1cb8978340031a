//! Workflow specifications (paper Definition 3).
//!
//! A specification is a triple `(G, F, L)`: a uniquely-labeled acyclic flow
//! network `G` (single source, single sink, every module on a source→sink
//! path) plus a *well-nested* system of fork subgraphs `F` (atomic
//! self-contained; executed in parallel) and loop subgraphs `L` (complete
//! self-contained; executed serially).
//!
//! Specifications are constructed through [`SpecBuilder`], whose
//! [`build`](SpecBuilder::build) runs the full validation of Definitions 1–3
//! (see [`crate::validate`]) and precomputes the fork/loop hierarchy `T_G`
//! (see [`crate::hierarchy`]).

use wfp_graph::fxhash::FxHashMap;
use wfp_graph::DiGraph;

use crate::hierarchy::Hierarchy;
use crate::ids::{ModuleId, SpecEdgeId, SubgraphId};
use crate::validate::{self, SpecError};

/// Whether a subgraph is executed in parallel (fork) or serially (loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SubgraphKind {
    /// Atomic self-contained subgraph, replicated in parallel.
    Fork,
    /// Complete self-contained subgraph, replicated serially.
    Loop,
}

impl std::fmt::Display for SubgraphKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubgraphKind::Fork => write!(f, "fork"),
            SubgraphKind::Loop => write!(f, "loop"),
        }
    }
}

/// A validated fork or loop subgraph of a specification.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// Fork or loop.
    pub kind: SubgraphKind,
    /// The subgraph's edges, sorted by id.
    pub edges: Vec<SpecEdgeId>,
    /// All vertices touched by `edges`, sorted by id.
    pub vertices: Vec<ModuleId>,
    /// `vertices` minus the source and sink, sorted by id.
    pub internal: Vec<ModuleId>,
    /// The unique source of the subgraph.
    pub source: ModuleId,
    /// The unique sink of the subgraph.
    pub sink: ModuleId,
}

impl Subgraph {
    /// The vertices dominated by this subgraph (Definition 2): internal
    /// vertices for a fork, all vertices for a loop.
    pub fn dom_set(&self) -> &[ModuleId] {
        match self.kind {
            SubgraphKind::Fork => &self.internal,
            SubgraphKind::Loop => &self.vertices,
        }
    }
}

/// A validated workflow specification `(G, F, L)`.
pub struct Specification {
    pub(crate) graph: DiGraph,
    pub(crate) names: Vec<String>,
    pub(crate) name_index: FxHashMap<String, ModuleId>,
    pub(crate) source: ModuleId,
    pub(crate) sink: ModuleId,
    pub(crate) subgraphs: Vec<Subgraph>,
    pub(crate) hierarchy: Hierarchy,
}

impl Specification {
    /// Number of modules `n_G`.
    pub fn module_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of data channels `m_G`.
    pub fn channel_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The underlying DAG.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The unique module name of `m`.
    pub fn name(&self, m: ModuleId) -> &str {
        &self.names[m.index()]
    }

    /// Looks a module up by name.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.name_index.get(name).copied()
    }

    /// The virtual start module.
    pub fn source(&self) -> ModuleId {
        self.source
    }

    /// The virtual finish module.
    pub fn sink(&self) -> ModuleId {
        self.sink
    }

    /// Endpoints of specification edge `e`.
    pub fn edge(&self, e: SpecEdgeId) -> (ModuleId, ModuleId) {
        let (u, v) = self.graph.edge(e.raw());
        (ModuleId(u), ModuleId(v))
    }

    /// Number of fork/loop subgraphs `|F ∪ L|`.
    pub fn subgraph_count(&self) -> usize {
        self.subgraphs.len()
    }

    /// The subgraph with id `id`.
    pub fn subgraph(&self, id: SubgraphId) -> &Subgraph {
        &self.subgraphs[id.index()]
    }

    /// Iterates over `(id, subgraph)` pairs.
    pub fn subgraphs(&self) -> impl Iterator<Item = (SubgraphId, &Subgraph)> {
        self.subgraphs
            .iter()
            .enumerate()
            .map(|(i, s)| (SubgraphId(i as u32), s))
    }

    /// Ids of all fork subgraphs.
    pub fn forks(&self) -> impl Iterator<Item = SubgraphId> + '_ {
        self.subgraphs()
            .filter(|(_, s)| s.kind == SubgraphKind::Fork)
            .map(|(i, _)| i)
    }

    /// Ids of all loop subgraphs.
    pub fn loops(&self) -> impl Iterator<Item = SubgraphId> + '_ {
        self.subgraphs()
            .filter(|(_, s)| s.kind == SubgraphKind::Loop)
            .map(|(i, _)| i)
    }

    /// The fork/loop hierarchy `T_G` (paper §4.1).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// All module ids.
    pub fn modules(&self) -> impl Iterator<Item = ModuleId> {
        (0..self.module_count() as u32).map(ModuleId)
    }

    /// All specification edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = SpecEdgeId> {
        (0..self.channel_count() as u32).map(SpecEdgeId)
    }
}

impl std::fmt::Debug for Specification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Specification(n_G={}, m_G={}, |T_G|={}, [T_G]={})",
            self.module_count(),
            self.channel_count(),
            self.hierarchy.size(),
            self.hierarchy.max_depth()
        )?;
        for (id, sg) in self.subgraphs() {
            writeln!(
                f,
                "  {id}: {} {} -> {} ({} edges)",
                sg.kind,
                self.name(sg.source),
                self.name(sg.sink),
                sg.edges.len()
            )?;
        }
        Ok(())
    }
}

/// Incremental builder for [`Specification`].
pub struct SpecBuilder {
    graph: DiGraph,
    names: Vec<String>,
    name_index: FxHashMap<String, ModuleId>,
    edge_set: FxHashMap<(u32, u32), SpecEdgeId>,
    raw_subgraphs: Vec<(SubgraphKind, Vec<SpecEdgeId>)>,
}

impl Default for SpecBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpecBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SpecBuilder {
            graph: DiGraph::new(),
            names: Vec::new(),
            name_index: FxHashMap::default(),
            edge_set: FxHashMap::default(),
            raw_subgraphs: Vec::new(),
        }
    }

    /// Adds a module with a unique name.
    pub fn add_module(&mut self, name: impl Into<String>) -> Result<ModuleId, SpecError> {
        let name = name.into();
        if self.name_index.contains_key(&name) {
            return Err(SpecError::DuplicateModuleName(name));
        }
        let id = ModuleId(self.graph.add_vertex());
        self.names.push(name.clone());
        self.name_index.insert(name, id);
        Ok(id)
    }

    /// Adds a data channel `from -> to`. Self-loops and duplicate channels
    /// are rejected (a specification is a simple DAG).
    pub fn add_edge(&mut self, from: ModuleId, to: ModuleId) -> Result<SpecEdgeId, SpecError> {
        if from == to {
            return Err(SpecError::SelfLoop(from));
        }
        if self.edge_set.contains_key(&(from.raw(), to.raw())) {
            return Err(SpecError::DuplicateEdge(from, to));
        }
        let id = SpecEdgeId(self.graph.add_edge(from.raw(), to.raw()));
        self.edge_set.insert((from.raw(), to.raw()), id);
        id.raw(); // silence nothing; keep shape uniform
        Ok(id)
    }

    /// Declares a fork over an explicit edge set.
    pub fn add_fork(&mut self, edges: Vec<SpecEdgeId>) -> SubgraphId {
        self.raw_subgraphs.push((SubgraphKind::Fork, edges));
        SubgraphId(self.raw_subgraphs.len() as u32 - 1)
    }

    /// Declares a loop over an explicit edge set.
    pub fn add_loop(&mut self, edges: Vec<SpecEdgeId>) -> SubgraphId {
        self.raw_subgraphs.push((SubgraphKind::Loop, edges));
        SubgraphId(self.raw_subgraphs.len() as u32 - 1)
    }

    /// Declares a fork by its *internal* vertices, as drawn by the paper's
    /// dotted ovals: the edge set is every edge incident to an internal
    /// vertex.
    pub fn add_fork_around(&mut self, internal: &[ModuleId]) -> SubgraphId {
        let mut member = vec![false; self.graph.vertex_count()];
        for m in internal {
            member[m.index()] = true;
        }
        let edges = self
            .graph
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, &(u, v))| member[u as usize] || member[v as usize])
            .map(|(i, _)| SpecEdgeId(i as u32))
            .collect();
        self.add_fork(edges)
    }

    /// Declares a loop by its full vertex set, as drawn by the paper's
    /// dotted back-edges: the edge set is every edge with both endpoints in
    /// the set.
    pub fn add_loop_over(&mut self, vertices: &[ModuleId]) -> SubgraphId {
        let mut member = vec![false; self.graph.vertex_count()];
        for m in vertices {
            member[m.index()] = true;
        }
        let edges = self
            .graph
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, &(u, v))| member[u as usize] && member[v as usize])
            .map(|(i, _)| SpecEdgeId(i as u32))
            .collect();
        self.add_loop(edges)
    }

    /// Validates everything (Definitions 1–3) and produces the
    /// specification, or the first violation found.
    pub fn build(self) -> Result<Specification, SpecError> {
        validate::finish(self.graph, self.names, self.name_index, self.raw_subgraphs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_duplicate_names() {
        let mut b = SpecBuilder::new();
        b.add_module("a").unwrap();
        assert!(matches!(
            b.add_module("a"),
            Err(SpecError::DuplicateModuleName(_))
        ));
    }

    #[test]
    fn builder_rejects_self_loops_and_duplicate_edges() {
        let mut b = SpecBuilder::new();
        let a = b.add_module("a").unwrap();
        let c = b.add_module("b").unwrap();
        assert!(matches!(b.add_edge(a, a), Err(SpecError::SelfLoop(_))));
        b.add_edge(a, c).unwrap();
        assert!(matches!(
            b.add_edge(a, c),
            Err(SpecError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn minimal_spec_builds() {
        let mut b = SpecBuilder::new();
        let s = b.add_module("start").unwrap();
        let t = b.add_module("finish").unwrap();
        b.add_edge(s, t).unwrap();
        let spec = b.build().unwrap();
        assert_eq!(spec.module_count(), 2);
        assert_eq!(spec.channel_count(), 1);
        assert_eq!(spec.source(), s);
        assert_eq!(spec.sink(), t);
        assert_eq!(spec.module_by_name("start"), Some(s));
        assert_eq!(spec.module_by_name("nope"), None);
        assert_eq!(spec.name(t), "finish");
    }

    #[test]
    fn fork_around_collects_incident_edges() {
        let mut b = SpecBuilder::new();
        let a = b.add_module("a").unwrap();
        let x = b.add_module("x").unwrap();
        let t = b.add_module("t").unwrap();
        let e1 = b.add_edge(a, x).unwrap();
        let e2 = b.add_edge(x, t).unwrap();
        let _bypass = b.add_edge(a, t).unwrap();
        let f = b.add_fork_around(&[x]);
        let spec = b.build().unwrap();
        let sg = spec.subgraph(f);
        assert_eq!(sg.kind, SubgraphKind::Fork);
        assert_eq!(sg.edges, vec![e1, e2]);
        assert_eq!(sg.source, a);
        assert_eq!(sg.sink, t);
        assert_eq!(sg.internal, vec![x]);
        assert_eq!(sg.dom_set(), &[x]);
    }

    #[test]
    fn loop_over_collects_induced_edges() {
        let mut b = SpecBuilder::new();
        let a = b.add_module("a").unwrap();
        let x = b.add_module("x").unwrap();
        let y = b.add_module("y").unwrap();
        let t = b.add_module("t").unwrap();
        b.add_edge(a, x).unwrap();
        let e = b.add_edge(x, y).unwrap();
        b.add_edge(y, t).unwrap();
        let l = b.add_loop_over(&[x, y]);
        let spec = b.build().unwrap();
        let sg = spec.subgraph(l);
        assert_eq!(sg.kind, SubgraphKind::Loop);
        assert_eq!(sg.edges, vec![e]);
        assert_eq!(sg.vertices, vec![x, y]);
        assert_eq!(sg.dom_set(), &[x, y]);
        assert_eq!(spec.loops().collect::<Vec<_>>(), vec![l]);
        assert_eq!(spec.forks().count(), 0);
    }
}
