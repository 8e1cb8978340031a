//! Validation of workflow specifications (paper Definitions 1–3).
//!
//! Every clause of the definitions is checked explicitly:
//!
//! * the graph is a uniquely-labeled *acyclic flow network* — a DAG with a
//!   single source, a single sink, and every module on a source→sink path;
//! * every declared subgraph is **self-contained** (Definition 1): a single
//!   inner source/sink, no edges crossing its internal vertices, and any
//!   induced non-member edge is exactly the `source → sink` bypass;
//! * forks are **atomic**: a single branch — either literally one edge, or
//!   a subgraph with no member bypass edge whose internal vertices induce a
//!   connected (undirected) subgraph;
//! * loops are **complete**: every out-edge of the source and in-edge of the
//!   sink stays inside, and — a clarification required for the linear-time
//!   plan construction of §5 to be correct (see DESIGN.md) — a
//!   `source → sink` bypass edge of `G`, if present, must be a member;
//! * the system is **well-nested** (Definition 2): any two subgraphs are
//!   nested (by both `DomSet` and edge-set inclusion) or fully disjoint.
//!   Following the paper's own running example (where `E(F2) = E(L1)`),
//!   inclusion is non-strict and ties are broken by `DomSet` inclusion; two
//!   subgraphs with identical edge sets *and* identical dom-sets are
//!   rejected as duplicates.

use wfp_graph::fxhash::FxHashMap;
use wfp_graph::{topo, traversal, DiGraph};

use crate::hierarchy::Hierarchy;
use crate::ids::{ModuleId, SpecEdgeId};
use crate::spec::{Specification, Subgraph, SubgraphKind};

/// A violation of the workflow-specification definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Two modules share a name (names must be unique, Definition 3).
    DuplicateModuleName(String),
    /// An edge `v -> v` was declared.
    SelfLoop(ModuleId),
    /// The same channel was declared twice.
    DuplicateEdge(ModuleId, ModuleId),
    /// The specification has no modules.
    Empty,
    /// The graph contains a directed cycle.
    Cyclic,
    /// The graph does not have exactly one source; the payload lists the
    /// sources found.
    BadSourceCount(Vec<ModuleId>),
    /// The graph does not have exactly one sink; the payload lists the sinks
    /// found.
    BadSinkCount(Vec<ModuleId>),
    /// A module does not lie on any source→sink path.
    UnreachableModule(ModuleId),
    /// A declared subgraph has no edges.
    EmptySubgraph(usize),
    /// A declared subgraph references an edge id that does not exist.
    UnknownEdge(usize, SpecEdgeId),
    /// A subgraph does not have exactly one inner source and sink
    /// (Definition 1, condition 1).
    NotFlowNetwork {
        /// Index of the offending subgraph in declaration order.
        subgraph: usize,
        /// Inner sources found.
        sources: Vec<ModuleId>,
        /// Inner sinks found.
        sinks: Vec<ModuleId>,
    },
    /// An internal vertex of a subgraph has an edge not belonging to the
    /// subgraph (Definition 1, conditions 2–3).
    NotSelfContained {
        /// Index of the offending subgraph.
        subgraph: usize,
        /// The internal vertex with a crossing or missing-member edge.
        vertex: ModuleId,
    },
    /// A fork can be split into parallel self-contained parts.
    ForkNotAtomic {
        /// Index of the offending subgraph.
        subgraph: usize,
    },
    /// A loop misses an out-edge of its source / in-edge of its sink
    /// (Definition 1's completeness), or a bypass branch.
    LoopNotComplete {
        /// Index of the offending subgraph.
        subgraph: usize,
    },
    /// Two subgraphs overlap without nesting (Definition 2).
    NotWellNested {
        /// Declaration index of the first subgraph.
        a: usize,
        /// Declaration index of the second subgraph.
        b: usize,
    },
    /// Two subgraphs are indistinguishable (same kind of domination and the
    /// same edges).
    DuplicateSubgraph {
        /// Declaration index of the first subgraph.
        a: usize,
        /// Declaration index of the second subgraph.
        b: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::DuplicateModuleName(n) => write!(f, "duplicate module name {n:?}"),
            SpecError::SelfLoop(v) => write!(f, "self-loop on module {v}"),
            SpecError::DuplicateEdge(u, v) => write!(f, "duplicate channel {u} -> {v}"),
            SpecError::Empty => write!(f, "specification has no modules"),
            SpecError::Cyclic => write!(f, "specification graph has a directed cycle"),
            SpecError::BadSourceCount(s) => write!(f, "expected exactly one source, found {s:?}"),
            SpecError::BadSinkCount(s) => write!(f, "expected exactly one sink, found {s:?}"),
            SpecError::UnreachableModule(v) => {
                write!(f, "module {v} is not on any source-to-sink path")
            }
            SpecError::EmptySubgraph(i) => write!(f, "subgraph #{i} has no edges"),
            SpecError::UnknownEdge(i, e) => write!(f, "subgraph #{i} references unknown edge {e}"),
            SpecError::NotFlowNetwork {
                subgraph,
                sources,
                sinks,
            } => write!(
                f,
                "subgraph #{subgraph} is not a flow network (sources {sources:?}, sinks {sinks:?})"
            ),
            SpecError::NotSelfContained { subgraph, vertex } => write!(
                f,
                "subgraph #{subgraph} is not self-contained at internal vertex {vertex}"
            ),
            SpecError::ForkNotAtomic { subgraph } => {
                write!(f, "fork subgraph #{subgraph} is not atomic")
            }
            SpecError::LoopNotComplete { subgraph } => {
                write!(f, "loop subgraph #{subgraph} is not complete")
            }
            SpecError::NotWellNested { a, b } => {
                write!(f, "subgraphs #{a} and #{b} overlap without nesting")
            }
            SpecError::DuplicateSubgraph { a, b } => {
                write!(f, "subgraphs #{a} and #{b} are identical")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Validates the builder state and assembles the [`Specification`].
pub(crate) fn finish(
    graph: DiGraph,
    names: Vec<String>,
    name_index: FxHashMap<String, ModuleId>,
    raw_subgraphs: Vec<(SubgraphKind, Vec<SpecEdgeId>)>,
) -> Result<Specification, SpecError> {
    let (source, sink) = validate_flow_network(&graph)?;
    let mut subgraphs = Vec::with_capacity(raw_subgraphs.len());
    for (i, (kind, edges)) in raw_subgraphs.into_iter().enumerate() {
        subgraphs.push(validate_subgraph(&graph, i, kind, edges)?);
    }
    validate_well_nested(&subgraphs)?;
    let hierarchy = Hierarchy::build(&graph, &subgraphs);
    Ok(Specification {
        graph,
        names,
        name_index,
        source,
        sink,
        subgraphs,
        hierarchy,
    })
}

/// Checks the global acyclic-flow-network conditions; returns (source, sink).
fn validate_flow_network(graph: &DiGraph) -> Result<(ModuleId, ModuleId), SpecError> {
    if graph.vertex_count() == 0 {
        return Err(SpecError::Empty);
    }
    if topo::topo_order(graph).is_err() {
        return Err(SpecError::Cyclic);
    }
    let sources = topo::sources(graph);
    if sources.len() != 1 {
        return Err(SpecError::BadSourceCount(
            sources.into_iter().map(ModuleId).collect(),
        ));
    }
    let sinks = topo::sinks(graph);
    if sinks.len() != 1 {
        return Err(SpecError::BadSinkCount(
            sinks.into_iter().map(ModuleId).collect(),
        ));
    }
    let (source, sink) = (sources[0], sinks[0]);
    // every vertex lies on a source→sink path ⟺ reachable from the source
    // and co-reachable from the sink
    let from_source = traversal::reachable_set(graph, source);
    for v in graph.vertices() {
        if !from_source.contains(v as usize) {
            return Err(SpecError::UnreachableModule(ModuleId(v)));
        }
    }
    let mut to_sink = vec![false; graph.vertex_count()];
    to_sink[sink as usize] = true;
    let mut stack = vec![sink];
    while let Some(v) = stack.pop() {
        for u in graph.predecessors(v) {
            if !to_sink[u as usize] {
                to_sink[u as usize] = true;
                stack.push(u);
            }
        }
    }
    if let Some(v) = (0..graph.vertex_count()).find(|&v| !to_sink[v]) {
        return Err(SpecError::UnreachableModule(ModuleId(v as u32)));
    }
    Ok((ModuleId(source), ModuleId(sink)))
}

/// Validates one declared subgraph: self-contained plus the kind-specific
/// atomicity/completeness condition.
fn validate_subgraph(
    graph: &DiGraph,
    idx: usize,
    kind: SubgraphKind,
    mut edges: Vec<SpecEdgeId>,
) -> Result<Subgraph, SpecError> {
    edges.sort_unstable();
    edges.dedup();
    if edges.is_empty() {
        return Err(SpecError::EmptySubgraph(idx));
    }
    if let Some(&e) = edges.iter().find(|e| e.index() >= graph.edge_count()) {
        return Err(SpecError::UnknownEdge(idx, e));
    }

    // Vertex set and inner degrees.
    let mut in_deg: FxHashMap<u32, u32> = FxHashMap::default();
    let mut out_deg: FxHashMap<u32, u32> = FxHashMap::default();
    for &e in &edges {
        let (u, v) = graph.edge(e.raw());
        *out_deg.entry(u).or_insert(0) += 1;
        in_deg.entry(u).or_insert(0);
        *in_deg.entry(v).or_insert(0) += 1;
        out_deg.entry(v).or_insert(0);
    }
    let mut vertices: Vec<ModuleId> = in_deg.keys().copied().map(ModuleId).collect();
    vertices.sort_unstable();

    // Condition 1: exactly one inner source and sink.
    let mut sources: Vec<ModuleId> = vertices
        .iter()
        .copied()
        .filter(|m| in_deg[&m.raw()] == 0)
        .collect();
    let mut sinks: Vec<ModuleId> = vertices
        .iter()
        .copied()
        .filter(|m| out_deg[&m.raw()] == 0)
        .collect();
    if sources.len() != 1 || sinks.len() != 1 {
        return Err(SpecError::NotFlowNetwork {
            subgraph: idx,
            sources,
            sinks,
        });
    }
    let (source, sink) = (sources.pop().unwrap(), sinks.pop().unwrap());
    // source != sink is implied by edges.len() >= 1 on a DAG, but keep the
    // check explicit for corrupted inputs.
    if source == sink {
        return Err(SpecError::NotFlowNetwork {
            subgraph: idx,
            sources: vec![source],
            sinks: vec![sink],
        });
    }
    let internal: Vec<ModuleId> = vertices
        .iter()
        .copied()
        .filter(|&m| m != source && m != sink)
        .collect();

    // Conditions 2+3 (self-contained): for every *internal* vertex, its full
    // degree in G equals its degree inside the subgraph — no crossing edges
    // and no induced non-member edges at internal vertices. Any remaining
    // induced non-member edge necessarily runs source → sink, which
    // Definition 1 permits.
    for &m in &internal {
        if graph.in_degree(m.raw()) != in_deg[&m.raw()] as usize
            || graph.out_degree(m.raw()) != out_deg[&m.raw()] as usize
        {
            return Err(SpecError::NotSelfContained {
                subgraph: idx,
                vertex: m,
            });
        }
    }

    let has_member_bypass = edges.iter().any(|&e| {
        let (u, v) = graph.edge(e.raw());
        (ModuleId(u), ModuleId(v)) == (source, sink)
    });

    match kind {
        SubgraphKind::Fork => {
            // Atomic ⟺ a single edge, or: no member bypass edge and a
            // connected internal induced subgraph (see module docs).
            let single_edge = edges.len() == 1;
            if !single_edge {
                if has_member_bypass || internal.is_empty() {
                    return Err(SpecError::ForkNotAtomic { subgraph: idx });
                }
                if !internal_connected(graph, &edges, &internal, source, sink) {
                    return Err(SpecError::ForkNotAtomic { subgraph: idx });
                }
            }
        }
        SubgraphKind::Loop => {
            // Complete: all out-edges of the source and in-edges of the sink
            // are members...
            if graph.out_degree(source.raw()) != out_deg[&source.raw()] as usize
                || graph.in_degree(sink.raw()) != in_deg[&sink.raw()] as usize
            {
                return Err(SpecError::LoopNotComplete { subgraph: idx });
            }
            // ...and a bypass edge of G, if any, is a member ("contains all
            // branches"): with the source condition above this is implied,
            // but keep it as a separate guard for clarity.
            if graph.has_edge(source.raw(), sink.raw()) && !has_member_bypass {
                return Err(SpecError::LoopNotComplete { subgraph: idx });
            }
        }
    }

    Ok(Subgraph {
        kind,
        edges,
        vertices,
        internal,
        source,
        sink,
    })
}

/// Undirected connectivity of the subgraph's internal vertices using only
/// member edges (both endpoints internal, or one endpoint internal — edges
/// to the source/sink do not merge components through the terminal).
fn internal_connected(
    graph: &DiGraph,
    edges: &[SpecEdgeId],
    internal: &[ModuleId],
    source: ModuleId,
    sink: ModuleId,
) -> bool {
    if internal.is_empty() {
        return false;
    }
    // union-find over internal vertices
    let mut index: FxHashMap<u32, usize> = FxHashMap::default();
    for (i, m) in internal.iter().enumerate() {
        index.insert(m.raw(), i);
    }
    let mut parent: Vec<usize> = (0..internal.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &e in edges {
        let (u, v) = graph.edge(e.raw());
        if u == source.raw() || u == sink.raw() || v == source.raw() || v == sink.raw() {
            continue;
        }
        let (iu, iv) = (index[&u], index[&v]);
        let (ru, rv) = (find(&mut parent, iu), find(&mut parent, iv));
        if ru != rv {
            parent[ru] = rv;
        }
    }
    let root = find(&mut parent, 0);
    (1..internal.len()).all(|i| find(&mut parent, i) == root)
}

/// Nesting relation used by well-nestedness and the hierarchy: `a ≼ b` iff
/// both the dom-set and the edge set of `a` are contained in `b`'s.
pub(crate) fn nested_in(a: &Subgraph, b: &Subgraph) -> bool {
    sorted_subset(a.dom_set(), b.dom_set()) && sorted_subset(&a.edges, &b.edges)
}

/// `a ⊆ b` for sorted slices.
fn sorted_subset<T: Ord>(a: &[T], b: &[T]) -> bool {
    let mut ib = b.iter();
    'outer: for x in a {
        for y in ib.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// `a ∩ b = ∅` for sorted slices.
fn sorted_disjoint<T: Ord>(a: &[T], b: &[T]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// Definition 2: every pair of subgraphs is nested or disjoint.
fn validate_well_nested(subgraphs: &[Subgraph]) -> Result<(), SpecError> {
    for a in 0..subgraphs.len() {
        for b in (a + 1)..subgraphs.len() {
            let (ha, hb) = (&subgraphs[a], &subgraphs[b]);
            let a_in_b = nested_in(ha, hb);
            let b_in_a = nested_in(hb, ha);
            if a_in_b && b_in_a {
                return Err(SpecError::DuplicateSubgraph { a, b });
            }
            if a_in_b || b_in_a {
                continue;
            }
            if sorted_disjoint(ha.dom_set(), hb.dom_set()) && sorted_disjoint(&ha.edges, &hb.edges)
            {
                continue;
            }
            return Err(SpecError::NotWellNested { a, b });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    fn chain(names: &[&str]) -> (SpecBuilder, Vec<ModuleId>, Vec<SpecEdgeId>) {
        let mut b = SpecBuilder::new();
        let ms: Vec<ModuleId> = names.iter().map(|n| b.add_module(*n).unwrap()).collect();
        let es: Vec<SpecEdgeId> = ms
            .windows(2)
            .map(|w| b.add_edge(w[0], w[1]).unwrap())
            .collect();
        (b, ms, es)
    }

    #[test]
    fn empty_spec_rejected() {
        assert_eq!(SpecBuilder::new().build().unwrap_err(), SpecError::Empty);
    }

    #[test]
    fn multiple_sources_rejected() {
        let mut b = SpecBuilder::new();
        let a = b.add_module("a").unwrap();
        let c = b.add_module("b").unwrap();
        let t = b.add_module("t").unwrap();
        b.add_edge(a, t).unwrap();
        b.add_edge(c, t).unwrap();
        assert!(matches!(b.build(), Err(SpecError::BadSourceCount(v)) if v.len() == 2));
    }

    #[test]
    fn multiple_sinks_rejected() {
        let mut b = SpecBuilder::new();
        let a = b.add_module("a").unwrap();
        let c = b.add_module("b").unwrap();
        let t = b.add_module("t").unwrap();
        b.add_edge(a, c).unwrap();
        b.add_edge(a, t).unwrap();
        assert!(matches!(b.build(), Err(SpecError::BadSinkCount(v)) if v.len() == 2));
    }

    #[test]
    fn isolated_module_rejected() {
        let mut b = SpecBuilder::new();
        let a = b.add_module("a").unwrap();
        let t = b.add_module("t").unwrap();
        let _iso = b.add_module("iso").unwrap();
        b.add_edge(a, t).unwrap();
        // "iso" is simultaneously a second source and a second sink
        assert!(b.build().is_err());
    }

    #[test]
    fn valid_chain_with_loop() {
        let (mut b, ms, _es) = chain(&["s", "x", "y", "t"]);
        b.add_loop_over(&[ms[1], ms[2]]);
        let spec = b.build().unwrap();
        assert_eq!(spec.subgraph_count(), 1);
    }

    #[test]
    fn subgraph_with_two_inner_sources_rejected() {
        let mut b = SpecBuilder::new();
        let s = b.add_module("s").unwrap();
        let x = b.add_module("x").unwrap();
        let y = b.add_module("y").unwrap();
        let t = b.add_module("t").unwrap();
        b.add_edge(s, x).unwrap();
        b.add_edge(s, y).unwrap();
        let ex = b.add_edge(x, t).unwrap();
        let ey = b.add_edge(y, t).unwrap();
        b.add_fork(vec![ex, ey]);
        assert!(matches!(
            b.build(),
            Err(SpecError::NotFlowNetwork { subgraph: 0, .. })
        ));
    }

    #[test]
    fn crossing_edge_breaks_self_containment() {
        let mut b = SpecBuilder::new();
        let s = b.add_module("s").unwrap();
        let x = b.add_module("x").unwrap();
        let y = b.add_module("y").unwrap();
        let t = b.add_module("t").unwrap();
        let e1 = b.add_edge(s, x).unwrap();
        let _e2 = b.add_edge(x, y).unwrap(); // crossing edge out of x
        let e3 = b.add_edge(x, t).unwrap();
        b.add_edge(y, t).unwrap();
        b.add_fork(vec![e1, e3]); // claims only s->x->t, but x->y exists
        assert!(matches!(
            b.build(),
            Err(SpecError::NotSelfContained { subgraph: 0, vertex }) if vertex == x
        ));
    }

    #[test]
    fn parallel_fork_is_not_atomic() {
        let mut b = SpecBuilder::new();
        let s = b.add_module("s").unwrap();
        let x = b.add_module("x").unwrap();
        let y = b.add_module("y").unwrap();
        let t = b.add_module("t").unwrap();
        b.add_edge(s, x).unwrap();
        b.add_edge(s, y).unwrap();
        b.add_edge(x, t).unwrap();
        b.add_edge(y, t).unwrap();
        b.add_fork_around(&[x, y]); // diamond: splits into two branches
        assert!(matches!(
            b.build(),
            Err(SpecError::ForkNotAtomic { subgraph: 0 })
        ));
    }

    #[test]
    fn fork_with_member_bypass_not_atomic() {
        let mut b = SpecBuilder::new();
        let s = b.add_module("s").unwrap();
        let x = b.add_module("x").unwrap();
        let t = b.add_module("t").unwrap();
        let e1 = b.add_edge(s, x).unwrap();
        let e2 = b.add_edge(x, t).unwrap();
        let e3 = b.add_edge(s, t).unwrap();
        b.add_fork(vec![e1, e2, e3]);
        assert!(matches!(
            b.build(),
            Err(SpecError::ForkNotAtomic { subgraph: 0 })
        ));
    }

    #[test]
    fn single_edge_fork_is_atomic() {
        let mut b = SpecBuilder::new();
        let s = b.add_module("s").unwrap();
        let x = b.add_module("x").unwrap();
        let t = b.add_module("t").unwrap();
        let e1 = b.add_edge(s, x).unwrap();
        b.add_edge(x, t).unwrap();
        b.add_fork(vec![e1]);
        assert!(b.build().is_ok());
    }

    #[test]
    fn fork_with_nonmember_bypass_is_atomic() {
        let mut b = SpecBuilder::new();
        let s = b.add_module("s").unwrap();
        let x = b.add_module("x").unwrap();
        let t = b.add_module("t").unwrap();
        let e1 = b.add_edge(s, x).unwrap();
        let e2 = b.add_edge(x, t).unwrap();
        b.add_edge(s, t).unwrap(); // bypass stays outside the fork
        b.add_fork(vec![e1, e2]);
        assert!(b.build().is_ok());
    }

    #[test]
    fn incomplete_loop_rejected() {
        let mut b = SpecBuilder::new();
        let s = b.add_module("s").unwrap();
        let x = b.add_module("x").unwrap();
        let y = b.add_module("y").unwrap();
        let t = b.add_module("t").unwrap();
        b.add_edge(s, x).unwrap();
        let e = b.add_edge(x, y).unwrap();
        b.add_edge(x, t).unwrap(); // x (the loop source) has an escaping edge
        b.add_edge(y, t).unwrap();
        b.add_loop(vec![e]);
        assert!(matches!(
            b.build(),
            Err(SpecError::LoopNotComplete { subgraph: 0 })
        ));
    }

    #[test]
    fn loop_with_unclaimed_bypass_rejected() {
        let mut b = SpecBuilder::new();
        let s = b.add_module("s").unwrap();
        let x = b.add_module("x").unwrap();
        let y = b.add_module("y").unwrap();
        let z = b.add_module("z").unwrap();
        let t = b.add_module("t").unwrap();
        b.add_edge(s, x).unwrap();
        let e1 = b.add_edge(x, y).unwrap();
        let e2 = b.add_edge(y, z).unwrap();
        b.add_edge(x, z).unwrap(); // bypass x->z not claimed by the loop
        b.add_edge(z, t).unwrap();
        b.add_loop(vec![e1, e2]);
        assert!(matches!(
            b.build(),
            Err(SpecError::LoopNotComplete { subgraph: 0 })
        ));
    }

    #[test]
    fn overlapping_subgraphs_rejected() {
        let (mut b, ms, es) = chain(&["s", "x", "y", "z", "t"]);
        // loop over {x,y} and loop over {y,z} share y without nesting
        b.add_loop(vec![es[1]]);
        b.add_loop(vec![es[2]]);
        let _ = ms;
        assert!(matches!(
            b.build(),
            Err(SpecError::NotWellNested { a: 0, b: 1 })
        ));
    }

    #[test]
    fn duplicate_subgraphs_rejected() {
        let (mut b, _ms, es) = chain(&["s", "x", "y", "t"]);
        b.add_loop(vec![es[1]]);
        b.add_loop(vec![es[1]]);
        assert!(matches!(
            b.build(),
            Err(SpecError::DuplicateSubgraph { a: 0, b: 1 })
        ));
    }

    #[test]
    fn fork_and_loop_with_equal_edges_nest_fork_inside() {
        // The paper's own example: E(F2) = E(L1); the loop dominates its
        // terminals, the fork does not, so the fork nests inside the loop.
        let (mut b, ms, _es) = chain(&["s", "e", "f", "g", "t"]);
        let l = b.add_loop_over(&[ms[1], ms[2], ms[3]]);
        let fk = b.add_fork_around(&[ms[2]]);
        let spec = b.build().unwrap();
        assert_eq!(spec.subgraph(l).edges, spec.subgraph(fk).edges);
        let h = spec.hierarchy();
        assert_eq!(h.parent_subgraph(fk), Some(l));
        assert_eq!(h.parent_subgraph(l), None);
    }

    #[test]
    fn error_display_is_informative() {
        let e = SpecError::NotWellNested { a: 1, b: 3 };
        assert!(e.to_string().contains("overlap"));
        let e = SpecError::ForkNotAtomic { subgraph: 2 };
        assert!(e.to_string().contains("atomic"));
    }
}
