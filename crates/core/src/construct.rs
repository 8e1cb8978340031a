//! `ConstructPlan` / `ComputeContext` — recovering the execution plan `T_R`
//! and every vertex's context from a bare run graph in linear time
//! (paper §5, Algorithms 4 and 5).
//!
//! The run is loaded into a [`DynGraph`] and contracted bottom-up along the
//! fork/loop hierarchy `T_G`:
//!
//! 1. **Seeds.** Copies of each *leaf* subgraph `H` are found from copies of
//!    its leader edge (any member edge; run edges are matched by endpoint
//!    origins). Copies of an *inner* subgraph are seeded by the group
//!    special edge of a designated candidate child, produced one level
//!    deeper.
//! 2. **SearchNodes.** From a seed, an undirected DFS collects the copy's
//!    edges. For a fork copy the search prunes at vertices whose origin is
//!    the fork's source/sink (the internal vertices are connected — Lemma
//!    5.1); for a loop copy the source explores only out-edges and the sink
//!    only in-edges (completeness keeps the search inside the copy).
//! 3. **Contraction.** Each copy becomes a `+` plan node and is replaced by
//!    a *special* copy edge; parallel fork copies are then merged into an
//!    `F−` group (keyed by `(H, source, sink)`), and serial loop copies are
//!    chained through their connector edges into an `L−` group, leaving one
//!    group special edge per execution group.
//! 4. **Contexts.** A visited vertex receives the current `+` node as its
//!    context if it has none yet and is not the source/sink of a fork copy
//!    — processing deepest copies first makes this equivalent to
//!    Definition 9.
//!
//! Every step cross-checks the collected copy against the specification's
//! quotient structure, so a run that does not conform to the specification
//! produces a precise [`ConstructError`] instead of wrong labels.

use wfp_graph::fxhash::FxHashMap;
use wfp_graph::traversal::VisitMap;
use wfp_graph::DynGraph;
use wfp_model::hierarchy::Leader;
use wfp_model::plan::{ExecutionPlan, PlanBuilder, PlanError, PlanNodeKind};
use wfp_model::{ModuleId, Run, RunVertexId, SpecEdgeId, Specification, SubgraphId, SubgraphKind};

/// What exactly made a run non-conforming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// A loop connector edge appeared inside a copy's body.
    ConnectorInCopy,
    /// A transient copy special edge leaked between copies (internal
    /// inconsistency or malformed run).
    TransientEdge,
    /// The same quotient piece (plain edge or child group) appeared twice in
    /// one copy.
    DuplicatePiece,
    /// An edge or child group inside a copy belongs to a different part of
    /// the specification.
    WrongPiece,
    /// A child group was claimed by two different copies.
    GroupAlreadyPlaced,
    /// Two vertices of one copy share an origin module.
    DuplicateOrigin,
    /// A copy is missing its source or sink.
    MissingTerminal,
    /// A copy has the wrong number of edges for its quotient.
    EdgeCount {
        /// Edges the quotient prescribes.
        expected: usize,
        /// Edges actually collected.
        found: usize,
    },
    /// A copy has the wrong number of vertices for its quotient.
    VertexCount {
        /// Vertices the quotient prescribes.
        expected: usize,
        /// Vertices actually collected.
        found: usize,
    },
    /// The serial chain of a loop group is malformed.
    BrokenChain,
    /// A vertex whose origin is dominated by some subgraph was never claimed
    /// by any copy.
    OrphanVertex,
    /// A leader seed edge was already consumed (overlapping copies).
    DeadSeed,
}

/// Errors from plan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstructError {
    /// A run edge's endpoint origins match neither a specification edge nor
    /// a loop connector `(t(L), s(L))`.
    ForeignEdge {
        /// Origin of the edge tail.
        from: ModuleId,
        /// Origin of the edge head.
        to: ModuleId,
    },
    /// The run does not conform to the specification's fork/loop structure.
    NonConforming {
        /// The subgraph whose copy failed validation (`None`: the root).
        subgraph: Option<SubgraphId>,
        /// The precise failure.
        issue: Issue,
    },
    /// The assembled plan failed its shape validation (internal error or a
    /// deeply malformed run).
    Plan(PlanError),
}

impl std::fmt::Display for ConstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstructError::ForeignEdge { from, to } => {
                write!(f, "run edge with origins ({from}, {to}) matches no specification edge or loop connector")
            }
            ConstructError::NonConforming { subgraph, issue } => match subgraph {
                Some(sg) => write!(f, "run does not conform at subgraph {sg}: {issue:?}"),
                None => write!(f, "run does not conform at the top level: {issue:?}"),
            },
            ConstructError::Plan(e) => write!(f, "plan assembly failed: {e}"),
        }
    }
}

impl std::error::Error for ConstructError {}

impl From<PlanError> for ConstructError {
    fn from(e: PlanError) -> Self {
        ConstructError::Plan(e)
    }
}

/// A sorted flat-array map over vertex pairs: packed `u64` keys probed by
/// binary search. Plan construction classifies every run edge through two
/// of these; compared with a hash map the lookup does no hashing, the
/// storage is two dense arrays, and building is one sort — `O(log m_G)`
/// probes over a ~200-edge specification stay within one cache line.
struct PairTable<T> {
    keys: Vec<u64>,
    vals: Vec<T>,
}

#[inline]
fn pair_key(u: u32, v: u32) -> u64 {
    ((u as u64) << 32) | v as u64
}

impl<T: Copy> PairTable<T> {
    /// Builds the table; when a pair repeats, the last entry wins (matching
    /// hash-map insertion semantics).
    fn build(pairs: impl Iterator<Item = ((u32, u32), T)>) -> Self {
        let mut kv: Vec<(u64, T)> = pairs.map(|((u, v), t)| (pair_key(u, v), t)).collect();
        kv.sort_by_key(|&(k, _)| k); // stable: equal keys keep insertion order
        kv.reverse();
        kv.dedup_by_key(|&mut (k, _)| k); // keeps the last-inserted entry
        kv.reverse();
        PairTable {
            keys: kv.iter().map(|&(k, _)| k).collect(),
            vals: kv.into_iter().map(|(_, t)| t).collect(),
        }
    }

    #[inline]
    fn get(&self, (u, v): (u32, u32)) -> Option<T> {
        self.keys
            .binary_search(&pair_key(u, v))
            .ok()
            .map(|i| self.vals[i])
    }
}

/// Edge payload inside the working multigraph.
#[derive(Clone, Copy, Debug)]
enum Tag {
    /// A copy of a specification edge.
    Plain(SpecEdgeId),
    /// A serial-composition connector of loop `sg` (origins `(t, s)`).
    Connector(SubgraphId),
    /// Transient: a contracted single copy, owned by `+` node `.0`.
    Copy(u32, SubgraphId),
    /// A contracted execution group, owned by `−` node `.0`.
    Group(u32, SubgraphId),
}

/// Statistics reported alongside a constructed plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstructStats {
    /// Special (copy + group) edges created during contraction; the paper's
    /// `m_sp ≤ |V(T_R)|` bound (Lemma 5.2).
    pub special_edges: usize,
    /// Copies (`+` nodes below the root) identified.
    pub copies: usize,
    /// Execution groups (`−` nodes) identified.
    pub groups: usize,
}

/// Constructs the execution plan and context function for `run`.
///
/// Linear in `|V(R)| + |E(R)|` for a fixed specification (Lemma 5.2).
pub fn construct_plan(spec: &Specification, run: &Run) -> Result<ExecutionPlan, ConstructError> {
    construct_plan_with_stats(spec, run).map(|(plan, _)| plan)
}

/// [`construct_plan`] plus contraction statistics.
pub fn construct_plan_with_stats(
    spec: &Specification,
    run: &Run,
) -> Result<(ExecutionPlan, ConstructStats), ConstructError> {
    Construction::new(spec, run)?.execute()
}

struct Construction<'a> {
    spec: &'a Specification,
    run: &'a Run,
    g: DynGraph<Tag>,
    plan: PlanBuilder,
    stats: ConstructStats,
    /// seeds per hierarchy level: (dyn edge id, subgraph)
    leader_sets: Vec<Vec<(u32, SubgraphId)>>,
    /// subgraphs whose group edges seed their parent (Leader::Child targets)
    is_candidate: Vec<bool>,
    level_of_sg: Vec<usize>,
    /// expected quotient sizes per hierarchy node
    expected_edges: Vec<usize>,
    expected_vertices: Vec<usize>,
    // reusable per-copy scratch
    v_seen: VisitMap,
    e_seen: VisitMap,
    se_seen: VisitMap,
    sg_seen: VisitMap,
    ori_seen: VisitMap,
    stack: Vec<u32>,
    edge_buf: Vec<u32>,
    copy_edges: Vec<u32>,
    copy_vertices: Vec<u32>,
    copy_children: Vec<u32>,
}

/// A contracted copy awaiting grouping: `(+ node, subgraph, source vertex,
/// sink vertex, copy special edge)`.
#[derive(Clone, Copy)]
struct PendingCopy {
    plus: u32,
    sg: SubgraphId,
    s: u32,
    t: u32,
    edge: u32,
}

impl<'a> Construction<'a> {
    fn new(spec: &'a Specification, run: &'a Run) -> Result<Self, ConstructError> {
        let hierarchy = spec.hierarchy();
        let n_r = run.vertex_count();

        // ---- static lookup tables -------------------------------------
        let spec_edge_of_pair: PairTable<SpecEdgeId> = PairTable::build(spec.edge_ids().map(|e| {
            let (u, v) = spec.edge(e);
            ((u.raw(), v.raw()), e)
        }));
        let connector_of_pair: PairTable<SubgraphId> = PairTable::build(
            spec.subgraphs()
                .filter(|(_, sg)| sg.kind == SubgraphKind::Loop)
                .map(|(id, sg)| ((sg.sink.raw(), sg.source.raw()), id)),
        );
        let mut leaf_leader: Vec<Option<SubgraphId>> = vec![None; spec.channel_count()];
        let mut is_candidate = vec![false; spec.subgraph_count()];
        let mut level_of_sg = vec![0usize; spec.subgraph_count()];
        for (id, _) in spec.subgraphs() {
            level_of_sg[id.index()] = hierarchy.level_of_node(hierarchy.node_of(id)) as usize;
            match hierarchy.leader(id) {
                Leader::Edge(e) => leaf_leader[e.index()] = Some(id),
                Leader::Child(c) => is_candidate[c.index()] = true,
            }
        }

        // Expected quotient sizes per hierarchy node.
        let node_count = hierarchy.size();
        let mut expected_edges = vec![0usize; node_count];
        let mut expected_vertices = vec![0usize; node_count];
        for node in 0..node_count as u32 {
            let children: Vec<SubgraphId> = hierarchy.child_subgraphs(node).collect();
            let mut removed = 0usize;
            for &c in &children {
                let csg = spec.subgraph(c);
                removed += match csg.kind {
                    SubgraphKind::Fork => csg.internal.len(),
                    SubgraphKind::Loop => csg.vertices.len() - 2,
                };
            }
            let total_vertices = match hierarchy.subgraph_at(node) {
                Some(sg) => spec.subgraph(sg).vertices.len(),
                None => spec.module_count(),
            };
            expected_vertices[node as usize] = total_vertices - removed;
            expected_edges[node as usize] = hierarchy.plain_edges(node).len() + children.len();
        }

        // ---- load the run, classify every edge, collect leaf seeds ----
        let depth = hierarchy.max_depth();
        let mut leader_sets: Vec<Vec<(u32, SubgraphId)>> = vec![Vec::new(); depth + 1];
        let mut g: DynGraph<Tag> = DynGraph::with_vertices(n_r);
        for re in run.edge_ids() {
            let (u, v) = run.edge(re);
            let pair = (run.origin(u).raw(), run.origin(v).raw());
            let tag = if let Some(se) = spec_edge_of_pair.get(pair) {
                Tag::Plain(se)
            } else if let Some(sg) = connector_of_pair.get(pair) {
                Tag::Connector(sg)
            } else {
                return Err(ConstructError::ForeignEdge {
                    from: ModuleId(pair.0),
                    to: ModuleId(pair.1),
                });
            };
            let eid = g.add_edge(u.raw(), v.raw(), tag);
            if let Tag::Plain(se) = tag {
                if let Some(sg) = leaf_leader[se.index()] {
                    leader_sets[level_of_sg[sg.index()]].push((eid, sg));
                }
            }
        }

        Ok(Construction {
            spec,
            run,
            g,
            plan: PlanBuilder::with_vertex_count(n_r),
            stats: ConstructStats::default(),
            leader_sets,
            is_candidate,
            level_of_sg,
            expected_edges,
            expected_vertices,
            v_seen: VisitMap::new(n_r),
            e_seen: VisitMap::new(0),
            se_seen: VisitMap::new(spec.channel_count()),
            sg_seen: VisitMap::new(spec.subgraph_count()),
            ori_seen: VisitMap::new(spec.module_count()),
            stack: Vec::new(),
            edge_buf: Vec::new(),
            copy_edges: Vec::new(),
            copy_vertices: Vec::new(),
            copy_children: Vec::new(),
        })
    }

    fn fail(&self, sg: Option<SubgraphId>, issue: Issue) -> ConstructError {
        ConstructError::NonConforming {
            subgraph: sg,
            issue,
        }
    }

    fn execute(mut self) -> Result<(ExecutionPlan, ConstructStats), ConstructError> {
        let depth = self.spec.hierarchy().max_depth();
        // Bottom-up over subgraph levels d, d-1, ..., 2 (level 1 = root).
        for level in (2..=depth).rev() {
            let seeds = std::mem::take(&mut self.leader_sets[level]);
            let mut pending: Vec<PendingCopy> = Vec::with_capacity(seeds.len());
            for (seed, sg) in seeds {
                pending.push(self.contract_copy(sg, seed)?);
            }
            self.group_level(&pending)?;
        }
        self.finish_root()
    }

    // ---------------- Phase A: one copy (Algorithm 5) ----------------

    /// Collects the copy of `sg` seeded by `seed`, validates it against the
    /// quotient, assigns contexts, and contracts it to a copy special edge.
    fn contract_copy(&mut self, sg: SubgraphId, seed: u32) -> Result<PendingCopy, ConstructError> {
        if !self.g.edge_alive(seed) {
            return Err(self.fail(Some(sg), Issue::DeadSeed));
        }
        let node = self.spec.hierarchy().node_of(sg);
        let sub = self.spec.subgraph(sg);
        let is_fork = sub.kind == SubgraphKind::Fork;
        let (s_mod, t_mod) = (sub.source, sub.sink);

        self.v_seen.reset();
        self.e_seen.grow(self.g.edge_slots());
        self.e_seen.reset();
        self.se_seen.reset();
        self.sg_seen.reset();
        self.ori_seen.reset();
        self.stack.clear();
        self.copy_edges.clear();
        self.copy_vertices.clear();
        self.copy_children.clear();

        let plus = self.plan.add_node(PlanNodeKind::Plus(sg));
        self.stats.copies += 1;

        let mut source: Option<u32> = None;
        let mut sink: Option<u32> = None;

        // The seed edge and its endpoints start the search.
        self.e_seen.visit(seed);
        self.take_edge(seed, sg, node)?;
        let (a, b) = self.g.edge(seed);
        for v in [a, b] {
            self.enter_vertex(v, sg, s_mod, t_mod, &mut source, &mut sink)?;
        }

        while let Some(v) = self.stack.pop() {
            let origin = self.run.origin(RunVertexId(v));
            let at_source = origin == s_mod;
            let at_sink = origin == t_mod;
            if is_fork && (at_source || at_sink) {
                continue; // prune at fork terminals (Alg. 5 line 5)
            }
            // Loop terminals: source explores out-edges only, sink in-edges
            // only (Alg. 5 line 8); internal vertices explore everything.
            let explore_out = !at_sink;
            let explore_in = !at_source;
            // Reusable buffer: incident edges are snapshotted before the
            // recursive bookkeeping mutates the graph-side scratch.
            let mut buf = std::mem::take(&mut self.edge_buf);
            buf.clear();
            if explore_out {
                buf.extend(self.g.out_edges(v));
            }
            if explore_in {
                buf.extend(self.g.in_edges(v));
            }
            for &e in &buf {
                self.follow_edge(e, v, sg, node, s_mod, t_mod, &mut source, &mut sink)?;
            }
            self.edge_buf = buf;
        }

        let (s, t) = match (source, sink) {
            (Some(s), Some(t)) => (s, t),
            _ => return Err(self.fail(Some(sg), Issue::MissingTerminal)),
        };

        // Quotient conformance: piece identities were checked on the fly;
        // the counts pin the copy to exactly one instance of each piece.
        let expected_e = self.expected_edges[node as usize];
        if self.copy_edges.len() != expected_e {
            return Err(self.fail(
                Some(sg),
                Issue::EdgeCount {
                    expected: expected_e,
                    found: self.copy_edges.len(),
                },
            ));
        }
        let expected_v = self.expected_vertices[node as usize];
        if self.copy_vertices.len() != expected_v {
            return Err(self.fail(
                Some(sg),
                Issue::VertexCount {
                    expected: expected_v,
                    found: self.copy_vertices.len(),
                },
            ));
        }

        // Contexts (Definition 9): deepest-first processing means "first
        // writer wins" realizes the deepest dominating + node.
        for i in 0..self.copy_vertices.len() {
            let v = self.copy_vertices[i];
            let origin = self.run.origin(RunVertexId(v));
            if is_fork && (origin == s_mod || origin == t_mod) {
                continue;
            }
            if !self.plan.context_is_set(RunVertexId(v)) {
                self.plan.set_context(RunVertexId(v), plus);
            }
        }

        // Attach child groups below this copy.
        for i in 0..self.copy_children.len() {
            let minus = self.copy_children[i];
            if self.plan.has_parent(minus) {
                return Err(self.fail(Some(sg), Issue::GroupAlreadyPlaced));
            }
            self.plan.link(minus, plus);
        }

        // Contract: delete the copy's edges, insert the copy special edge.
        for i in 0..self.copy_edges.len() {
            let e = self.copy_edges[i];
            self.g.remove_edge(e);
        }
        let edge = self.g.add_edge(s, t, Tag::Copy(plus, sg));
        self.stats.special_edges += 1;

        Ok(PendingCopy {
            plus,
            sg,
            s,
            t,
            edge,
        })
    }

    /// Validates and records one edge of the current copy.
    fn take_edge(&mut self, e: u32, sg: SubgraphId, node: u32) -> Result<(), ConstructError> {
        match *self.g.data(e) {
            Tag::Plain(se) => {
                let owner = self.spec.hierarchy().deepest_for_edge(se);
                let owner_node = owner.map(|o| self.spec.hierarchy().node_of(o));
                if owner_node != Some(node) {
                    return Err(self.fail(Some(sg), Issue::WrongPiece));
                }
                if !self.se_seen.visit(se.raw()) {
                    return Err(self.fail(Some(sg), Issue::DuplicatePiece));
                }
            }
            Tag::Connector(_) => return Err(self.fail(Some(sg), Issue::ConnectorInCopy)),
            Tag::Copy(..) => return Err(self.fail(Some(sg), Issue::TransientEdge)),
            Tag::Group(minus, child) => {
                if self.spec.hierarchy().parent_subgraph(child) != Some(sg) {
                    return Err(self.fail(Some(sg), Issue::WrongPiece));
                }
                if !self.sg_seen.visit(child.raw()) {
                    return Err(self.fail(Some(sg), Issue::DuplicatePiece));
                }
                self.copy_children.push(minus);
            }
        }
        self.copy_edges.push(e);
        Ok(())
    }

    /// Records a newly reached vertex of the current copy and queues it.
    fn enter_vertex(
        &mut self,
        v: u32,
        sg: SubgraphId,
        s_mod: ModuleId,
        t_mod: ModuleId,
        source: &mut Option<u32>,
        sink: &mut Option<u32>,
    ) -> Result<(), ConstructError> {
        if !self.v_seen.visit(v) {
            return Ok(());
        }
        let origin = self.run.origin(RunVertexId(v));
        if !self.ori_seen.visit(origin.raw()) {
            return Err(self.fail(Some(sg), Issue::DuplicateOrigin));
        }
        if origin == s_mod {
            *source = Some(v);
        } else if origin == t_mod {
            *sink = Some(v);
        }
        self.copy_vertices.push(v);
        self.stack.push(v);
        Ok(())
    }

    /// Handles one incident edge during the copy DFS.
    #[allow(clippy::too_many_arguments)]
    fn follow_edge(
        &mut self,
        e: u32,
        from: u32,
        sg: SubgraphId,
        node: u32,
        s_mod: ModuleId,
        t_mod: ModuleId,
        source: &mut Option<u32>,
        sink: &mut Option<u32>,
    ) -> Result<(), ConstructError> {
        self.e_seen.grow(self.g.edge_slots());
        if !self.e_seen.visit(e) {
            return Ok(());
        }
        self.take_edge(e, sg, node)?;
        let (a, b) = self.g.edge(e);
        let other = if a == from { b } else { a };
        self.enter_vertex(other, sg, s_mod, t_mod, source, sink)
    }

    // ---------------- Phase B: grouping (Algorithm 4, lines 20–33) ----

    fn group_level(&mut self, pending: &[PendingCopy]) -> Result<(), ConstructError> {
        let mut fork_groups: FxHashMap<(SubgraphId, u32, u32), u32> = FxHashMap::default();
        for &copy in pending {
            if self.plan.has_parent(copy.plus) {
                continue; // already collected into a loop chain
            }
            match self.spec.subgraph(copy.sg).kind {
                SubgraphKind::Fork => self.group_fork_copy(copy, &mut fork_groups)?,
                SubgraphKind::Loop => self.group_loop_chain(copy)?,
            }
        }
        Ok(())
    }

    fn group_fork_copy(
        &mut self,
        copy: PendingCopy,
        fork_groups: &mut FxHashMap<(SubgraphId, u32, u32), u32>,
    ) -> Result<(), ConstructError> {
        match fork_groups.entry((copy.sg, copy.s, copy.t)) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                // A parallel sibling: merge into the existing group and drop
                // the redundant parallel special edge.
                let minus = *slot.get();
                self.plan.link(copy.plus, minus);
                self.g.remove_edge(copy.edge);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                let minus = self.plan.add_node(PlanNodeKind::Minus(copy.sg));
                self.stats.groups += 1;
                self.plan.link(copy.plus, minus);
                slot.insert(minus);
                // The copy edge is promoted to the group's special edge.
                *self.g.data_mut(copy.edge) = Tag::Group(minus, copy.sg);
                self.seed_parent(copy.sg, copy.edge);
            }
        }
        Ok(())
    }

    fn group_loop_chain(&mut self, copy: PendingCopy) -> Result<(), ConstructError> {
        let sg = copy.sg;
        // Walk backward to the head of the serial chain.
        let mut head = copy;
        loop {
            match self.connector_into(head.s, sg)? {
                None => break,
                Some(conn) => {
                    let (prev_t, _) = self.g.edge(conn);
                    head = self.copy_at_sink(prev_t, sg)?;
                }
            }
        }
        // Walk forward collecting the ordered members and their connectors.
        let mut members = vec![head];
        let mut connectors = Vec::new();
        let mut cur = head;
        loop {
            match self.connector_out_of(cur.t, sg)? {
                None => break,
                Some(conn) => {
                    connectors.push(conn);
                    let (_, next_s) = self.g.edge(conn);
                    cur = self.copy_at_source(next_s, sg)?;
                    members.push(cur);
                }
            }
        }

        let minus = self.plan.add_node(PlanNodeKind::Minus(sg));
        self.stats.groups += 1;
        for m in &members {
            if self.plan.has_parent(m.plus) {
                return Err(self.fail(Some(sg), Issue::BrokenChain));
            }
            self.plan.link(m.plus, minus);
        }
        // Contract the chain: delete copy edges, connectors and interior
        // boundary vertices, then insert the group special edge.
        for m in &members {
            self.g.remove_edge(m.edge);
        }
        for &c in &connectors {
            self.g.remove_edge(c);
        }
        let first = members[0];
        let last = *members.last().expect("nonempty chain");
        for (i, m) in members.iter().enumerate() {
            if i > 0 {
                self.g.remove_vertex(m.s);
            }
            if i + 1 < members.len() {
                self.g.remove_vertex(m.t);
            }
        }
        let edge = self.g.add_edge(first.s, last.t, Tag::Group(minus, sg));
        self.stats.special_edges += 1;
        self.seed_parent(sg, edge);
        Ok(())
    }

    /// The loop connector of `sg` entering vertex `v`, if any (strictly at
    /// most one).
    fn connector_into(&self, v: u32, sg: SubgraphId) -> Result<Option<u32>, ConstructError> {
        let mut found = None;
        for e in self.g.in_edges(v) {
            if let Tag::Connector(c) = *self.g.data(e) {
                if c == sg {
                    if found.is_some() {
                        return Err(self.fail(Some(sg), Issue::BrokenChain));
                    }
                    found = Some(e);
                }
            }
        }
        Ok(found)
    }

    /// The loop connector of `sg` leaving vertex `v`, if any.
    fn connector_out_of(&self, v: u32, sg: SubgraphId) -> Result<Option<u32>, ConstructError> {
        let mut found = None;
        for e in self.g.out_edges(v) {
            if let Tag::Connector(c) = *self.g.data(e) {
                if c == sg {
                    if found.is_some() {
                        return Err(self.fail(Some(sg), Issue::BrokenChain));
                    }
                    found = Some(e);
                }
            }
        }
        Ok(found)
    }

    /// The contracted copy of `sg` whose sink is `t` (the unique in-edge of
    /// `t` must be its copy special edge).
    fn copy_at_sink(&self, t: u32, sg: SubgraphId) -> Result<PendingCopy, ConstructError> {
        let e = self
            .g
            .first_in(t)
            .ok_or_else(|| self.fail(Some(sg), Issue::BrokenChain))?;
        match *self.g.data(e) {
            Tag::Copy(plus, owner) if owner == sg => {
                let (s, _) = self.g.edge(e);
                Ok(PendingCopy {
                    plus,
                    sg,
                    s,
                    t,
                    edge: e,
                })
            }
            _ => Err(self.fail(Some(sg), Issue::BrokenChain)),
        }
    }

    /// The contracted copy of `sg` whose source is `s`.
    fn copy_at_source(&self, s: u32, sg: SubgraphId) -> Result<PendingCopy, ConstructError> {
        let e = self
            .g
            .first_out(s)
            .ok_or_else(|| self.fail(Some(sg), Issue::BrokenChain))?;
        match *self.g.data(e) {
            Tag::Copy(plus, owner) if owner == sg => {
                let (_, t) = self.g.edge(e);
                Ok(PendingCopy {
                    plus,
                    sg,
                    s,
                    t,
                    edge: e,
                })
            }
            _ => Err(self.fail(Some(sg), Issue::BrokenChain)),
        }
    }

    /// If `sg` is the designated candidate of its parent, its group edges
    /// seed the parent's copies one level up.
    fn seed_parent(&mut self, sg: SubgraphId, group_edge: u32) {
        if !self.is_candidate[sg.index()] {
            return;
        }
        let parent = self
            .spec
            .hierarchy()
            .parent_subgraph(sg)
            .expect("candidate children always have subgraph parents");
        let level = self.level_of_sg[parent.index()];
        self.leader_sets[level].push((group_edge, parent));
    }

    // ---------------- Root (level 1) ----------------------------------

    fn finish_root(mut self) -> Result<(ExecutionPlan, ConstructStats), ConstructError> {
        let hierarchy = self.spec.hierarchy();
        let root_hnode = hierarchy.root();
        let root = self.plan.add_node(PlanNodeKind::Root);

        self.se_seen.reset();
        self.sg_seen.reset();
        let mut found_edges = 0usize;
        let alive: Vec<u32> = self.g.alive_edges().collect();
        for e in alive {
            match *self.g.data(e) {
                Tag::Plain(se) => {
                    if hierarchy.deepest_for_edge(se).is_some() {
                        return Err(self.fail(None, Issue::WrongPiece));
                    }
                    if !self.se_seen.visit(se.raw()) {
                        return Err(self.fail(None, Issue::DuplicatePiece));
                    }
                }
                Tag::Connector(_) => return Err(self.fail(None, Issue::ConnectorInCopy)),
                Tag::Copy(..) => return Err(self.fail(None, Issue::TransientEdge)),
                Tag::Group(minus, sg) => {
                    if hierarchy.parent_subgraph(sg).is_some() {
                        return Err(self.fail(None, Issue::WrongPiece));
                    }
                    if !self.sg_seen.visit(sg.raw()) {
                        return Err(self.fail(None, Issue::DuplicatePiece));
                    }
                    if self.plan.has_parent(minus) {
                        return Err(self.fail(None, Issue::GroupAlreadyPlaced));
                    }
                    self.plan.link(minus, root);
                }
            }
            found_edges += 1;
        }
        let expected = self.expected_edges[root_hnode as usize];
        if found_edges != expected {
            return Err(self.fail(
                None,
                Issue::EdgeCount {
                    expected,
                    found: found_edges,
                },
            ));
        }

        // Remaining vertices belong to the root context; their origins must
        // not be dominated by any subgraph (otherwise some copy should have
        // claimed them).
        for v in self.run.vertices() {
            if !self.plan.context_is_set(v) {
                if hierarchy.dominator_of_vertex(self.run.origin(v)).is_some() {
                    return Err(self.fail(None, Issue::OrphanVertex));
                }
                self.plan.set_context(v, root);
            }
        }

        let plan = self.plan.finish(self.run.vertex_count())?;
        Ok((plan, self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_model::fixtures::{paper_run, paper_spec, paper_subgraph, paper_vertex};
    use wfp_model::RunBuilder;

    fn context_names(
        spec: &Specification,
        run: &Run,
        plan: &ExecutionPlan,
    ) -> FxHashMap<String, u32> {
        let names = run.numbered_names(spec);
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), plan.context(RunVertexId(i as u32))))
            .collect()
    }

    #[test]
    fn paper_plan_shape_matches_figure_7() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let (plan, stats) = construct_plan_with_stats(&spec, &run).unwrap();
        // Figure 7: 17 nodes (11 plus incl. root, 6 minus)
        assert_eq!(plan.node_count(), 17);
        assert_eq!(plan.plus_node_count(), 11);
        // Figure 8/9: two F1+ copies are empty; 9 nonempty + nodes
        assert_eq!(plan.nonempty_plus_count(), 9);
        assert_eq!(stats.copies, 10); // all + nodes except the root
        assert_eq!(stats.groups, 6);
        // Lemma 4.2
        assert!(plan.node_count() <= 4 * run.edge_count());
    }

    #[test]
    fn paper_contexts_match_figure_8() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let plan = construct_plan(&spec, &run).unwrap();
        let ctx = context_names(&spec, &run, &plan);
        // root context: {a1, d1, h1}
        assert_eq!(ctx["a1"], plan.root());
        assert_eq!(ctx["d1"], plan.root());
        assert_eq!(ctx["h1"], plan.root());
        // same-copy pairs
        assert_eq!(ctx["b1"], ctx["c1"]);
        assert_eq!(ctx["b2"], ctx["c2"]);
        assert_eq!(ctx["b3"], ctx["c3"]);
        assert_eq!(ctx["e1"], ctx["g1"]);
        assert_eq!(ctx["e2"], ctx["g2"]);
        // distinct copies
        assert_ne!(ctx["b1"], ctx["b2"]);
        assert_ne!(ctx["b1"], ctx["b3"]);
        assert_ne!(ctx["e1"], ctx["e2"]);
        assert_ne!(ctx["f2"], ctx["f3"]);
        assert_ne!(ctx["f1"], ctx["f2"]);
        // kinds: f-vertices live in F2+ copies, b/c in L2+ copies
        let l2 = paper_subgraph(&spec, "L2");
        let f2 = paper_subgraph(&spec, "F2");
        let l1 = paper_subgraph(&spec, "L1");
        assert_eq!(plan.kind(ctx["b1"]), PlanNodeKind::Plus(l2));
        assert_eq!(plan.kind(ctx["f3"]), PlanNodeKind::Plus(f2));
        assert_eq!(plan.kind(ctx["e2"]), PlanNodeKind::Plus(l1));
    }

    #[test]
    fn paper_loop_groups_are_ordered() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let plan = construct_plan(&spec, &run).unwrap();
        let ctx = context_names(&spec, &run, &plan);
        // L1-: children ordered [copy(e1,g1), copy(e2,g2)]
        let c1 = ctx["e1"];
        let c2 = ctx["e2"];
        let parent = plan.tree().parent(c1).unwrap();
        assert_eq!(plan.tree().parent(c2), Some(parent));
        let kids = plan.tree().children(parent);
        assert_eq!(kids, &[c1, c2], "serial order must be preserved");
        // L2- inside F1 copy 1: [copy(b1,c1), copy(b2,c2)]
        let b1 = ctx["b1"];
        let b2 = ctx["b2"];
        let l2minus = plan.tree().parent(b1).unwrap();
        assert_eq!(plan.tree().children(l2minus), &[b1, b2]);
    }

    #[test]
    fn plan_is_equivalent_to_hand_built_ground_truth() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let plan = construct_plan(&spec, &run).unwrap();

        // Hand-build Figure 7 with Figure 8's contexts.
        let f1 = paper_subgraph(&spec, "F1");
        let f2 = paper_subgraph(&spec, "F2");
        let l1 = paper_subgraph(&spec, "L1");
        let l2 = paper_subgraph(&spec, "L2");
        let mut b = PlanBuilder::with_vertex_count(run.vertex_count());
        let root = b.add_node(PlanNodeKind::Root);
        let f1m = b.add_node(PlanNodeKind::Minus(f1));
        b.link(f1m, root);
        let f1p_a = b.add_node(PlanNodeKind::Plus(f1));
        let f1p_b = b.add_node(PlanNodeKind::Plus(f1));
        b.link(f1p_a, f1m);
        b.link(f1p_b, f1m);
        let l2m_a = b.add_node(PlanNodeKind::Minus(l2));
        b.link(l2m_a, f1p_a);
        let l2p_1 = b.add_node(PlanNodeKind::Plus(l2));
        let l2p_2 = b.add_node(PlanNodeKind::Plus(l2));
        b.link(l2p_1, l2m_a);
        b.link(l2p_2, l2m_a);
        let l2m_b = b.add_node(PlanNodeKind::Minus(l2));
        b.link(l2m_b, f1p_b);
        let l2p_3 = b.add_node(PlanNodeKind::Plus(l2));
        b.link(l2p_3, l2m_b);
        let l1m = b.add_node(PlanNodeKind::Minus(l1));
        b.link(l1m, root);
        let l1p_1 = b.add_node(PlanNodeKind::Plus(l1));
        let l1p_2 = b.add_node(PlanNodeKind::Plus(l1));
        b.link(l1p_1, l1m);
        b.link(l1p_2, l1m);
        let f2m_1 = b.add_node(PlanNodeKind::Minus(f2));
        b.link(f2m_1, l1p_1);
        let f2p_1 = b.add_node(PlanNodeKind::Plus(f2));
        b.link(f2p_1, f2m_1);
        let f2m_2 = b.add_node(PlanNodeKind::Minus(f2));
        b.link(f2m_2, l1p_2);
        let f2p_2 = b.add_node(PlanNodeKind::Plus(f2));
        let f2p_3 = b.add_node(PlanNodeKind::Plus(f2));
        b.link(f2p_2, f2m_2);
        b.link(f2p_3, f2m_2);

        let v = |name: &str| paper_vertex(&spec, &run, name);
        for (name, node) in [
            ("a1", root),
            ("d1", root),
            ("h1", root),
            ("b1", l2p_1),
            ("c1", l2p_1),
            ("b2", l2p_2),
            ("c2", l2p_2),
            ("b3", l2p_3),
            ("c3", l2p_3),
            ("e1", l1p_1),
            ("g1", l1p_1),
            ("e2", l1p_2),
            ("g2", l1p_2),
            ("f1", f2p_1),
            ("f2", f2p_2),
            ("f3", f2p_3),
        ] {
            b.set_context(v(name), node);
        }
        let expected = b.finish(run.vertex_count()).unwrap();
        assert!(
            plan.equivalent(&expected, &spec),
            "plans must match Figure 7/8"
        );
    }

    #[test]
    fn pair_table_lookup_and_last_wins() {
        let t: PairTable<u32> =
            PairTable::build([((3, 4), 0u32), ((1, 2), 1), ((3, 4), 2), ((0, 7), 3)].into_iter());
        assert_eq!(t.get((1, 2)), Some(1));
        assert_eq!(t.get((0, 7)), Some(3));
        assert_eq!(
            t.get((3, 4)),
            Some(2),
            "duplicate pairs keep the last entry"
        );
        assert_eq!(t.get((4, 3)), None);
        assert_eq!(t.get((9, 9)), None);
        let empty: PairTable<u32> = PairTable::build(std::iter::empty());
        assert_eq!(empty.get((0, 0)), None);
    }

    #[test]
    fn foreign_edge_is_reported() {
        let spec = paper_spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let mut b = RunBuilder::new();
        let a1 = b.add_vertex(m("a"));
        let h1 = b.add_vertex(m("h"));
        b.add_edge(a1, h1); // (a, h) is not a spec edge
        let run = b.finish(&spec).unwrap();
        match construct_plan(&spec, &run) {
            Err(ConstructError::ForeignEdge { from, to }) => {
                assert_eq!(spec.name(from), "a");
                assert_eq!(spec.name(to), "h");
            }
            other => panic!("expected ForeignEdge, got {other:?}"),
        }
    }

    #[test]
    fn duplicated_edge_inside_copy_is_reported() {
        let spec = paper_spec();
        let run0 = paper_run(&spec);
        // Rebuild the paper run with one extra parallel (b1 -> c1) edge: the
        // L2 copy then contains the (b, c) piece twice.
        let mut b = RunBuilder::new();
        for v in run0.vertices() {
            b.add_vertex(run0.origin(v));
        }
        for e in run0.edge_ids() {
            let (u, v) = run0.edge(e);
            b.add_edge(u, v);
        }
        let b1 = paper_vertex(&spec, &run0, "b1");
        let c1 = paper_vertex(&spec, &run0, "c1");
        b.add_edge(b1, c1);
        let run = b.finish(&spec).unwrap();
        match construct_plan(&spec, &run) {
            Err(ConstructError::NonConforming { issue, .. }) => {
                assert!(
                    matches!(issue, Issue::DuplicatePiece | Issue::EdgeCount { .. }),
                    "got {issue:?}"
                );
            }
            other => panic!("expected NonConforming, got {other:?}"),
        }
    }

    #[test]
    fn cross_copy_edge_is_reported() {
        let spec = paper_spec();
        let run0 = paper_run(&spec);
        // Wire f1 -> g2 (crossing two L1 copies): pair (f, g) is a valid
        // spec edge, but the copies stop conforming.
        let mut b = RunBuilder::new();
        for v in run0.vertices() {
            b.add_vertex(run0.origin(v));
        }
        for e in run0.edge_ids() {
            let (u, v) = run0.edge(e);
            b.add_edge(u, v);
        }
        let f1 = paper_vertex(&spec, &run0, "f1");
        let g2 = paper_vertex(&spec, &run0, "g2");
        b.add_edge(f1, g2);
        let run = b.finish(&spec).unwrap();
        assert!(
            matches!(
                construct_plan(&spec, &run),
                Err(ConstructError::NonConforming { .. })
            ),
            "cross-copy edge must not silently label"
        );
    }

    #[test]
    fn spec_without_subgraphs_yields_root_only_plan() {
        let mut sb = wfp_model::SpecBuilder::new();
        let s = sb.add_module("s").unwrap();
        let x = sb.add_module("x").unwrap();
        let t = sb.add_module("t").unwrap();
        sb.add_edge(s, x).unwrap();
        sb.add_edge(x, t).unwrap();
        sb.add_edge(s, t).unwrap();
        let spec = sb.build().unwrap();
        let mut rb = RunBuilder::new();
        let vs = rb.add_vertex(s);
        let vx = rb.add_vertex(x);
        let vt = rb.add_vertex(t);
        rb.add_edge(vs, vx);
        rb.add_edge(vx, vt);
        rb.add_edge(vs, vt);
        let run = rb.finish(&spec).unwrap();
        let plan = construct_plan(&spec, &run).unwrap();
        assert_eq!(plan.node_count(), 1);
        assert_eq!(plan.nonempty_plus_count(), 1);
        for v in run.vertices() {
            assert_eq!(plan.context(v), plan.root());
        }
    }

    #[test]
    fn single_edge_fork_produces_a_correct_multigraph_plan() {
        // s -> x -> t with a single-edge fork over (s, x): executing it k
        // times yields k parallel (s, x) edges — a genuine multigraph run.
        let mut sb = wfp_model::SpecBuilder::new();
        let s = sb.add_module("s").unwrap();
        let x = sb.add_module("x").unwrap();
        let t = sb.add_module("t").unwrap();
        let e_sx = sb.add_edge(s, x).unwrap();
        sb.add_edge(x, t).unwrap();
        let fork = sb.add_fork(vec![e_sx]);
        let spec = sb.build().unwrap();

        let mut rb = RunBuilder::new();
        let vs = rb.add_vertex(s);
        let vx = rb.add_vertex(x);
        let vt = rb.add_vertex(t);
        for _ in 0..3 {
            rb.add_edge(vs, vx); // three parallel fork copies
        }
        rb.add_edge(vx, vt);
        let run = rb.finish(&spec).unwrap();

        let plan = construct_plan(&spec, &run).unwrap();
        // root + one F- group + three F+ copies
        assert_eq!(plan.node_count(), 5);
        assert_eq!(plan.plus_node_count(), 4);
        // the fork has no internal vertices: every copy is an empty + node
        assert_eq!(plan.nonempty_plus_count(), 1);
        let f_minus = (0..plan.node_count() as u32)
            .find(|&n| plan.kind(n) == PlanNodeKind::Minus(fork))
            .unwrap();
        assert_eq!(plan.tree().children(f_minus).len(), 3);
        // reachability is unaffected by edge multiplicity
        let labeled = crate::label::LabeledRun::build(
            &spec,
            wfp_speclabel::SpecScheme::build(wfp_speclabel::SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        assert!(labeled.reaches(vs, vt));
        assert!(labeled.reaches(vs, vx));
        assert!(!labeled.reaches(vx, vs));
    }

    #[test]
    fn nested_loop_sharing_source_with_parent_loop() {
        // outer loop over {x, y, z}, inner loop over {x, y} sharing the
        // outer source x — the trickiest boundary-vertex case for context
        // assignment (deepest copy must claim the shared source).
        let mut sb = wfp_model::SpecBuilder::new();
        let s = sb.add_module("s").unwrap();
        let x = sb.add_module("x").unwrap();
        let y = sb.add_module("y").unwrap();
        let z = sb.add_module("z").unwrap();
        let t = sb.add_module("t").unwrap();
        sb.add_edge(s, x).unwrap();
        sb.add_edge(x, y).unwrap();
        sb.add_edge(y, z).unwrap();
        sb.add_edge(z, t).unwrap();
        let inner = sb.add_loop_over(&[x, y]);
        let outer = sb.add_loop_over(&[x, y, z]);
        let spec = sb.build().unwrap();
        assert_eq!(spec.hierarchy().parent_subgraph(inner), Some(outer));

        // run: outer twice; inner twice in the first outer copy
        let mut rb = RunBuilder::new();
        let vs = rb.add_vertex(s);
        let x1 = rb.add_vertex(x);
        let y1 = rb.add_vertex(y);
        let x2 = rb.add_vertex(x);
        let y2 = rb.add_vertex(y);
        let z1 = rb.add_vertex(z);
        let x3 = rb.add_vertex(x);
        let y3 = rb.add_vertex(y);
        let z2 = rb.add_vertex(z);
        let vt = rb.add_vertex(t);
        rb.add_edge(vs, x1);
        rb.add_edge(x1, y1);
        rb.add_edge(y1, x2); // inner connector
        rb.add_edge(x2, y2);
        rb.add_edge(y2, z1);
        rb.add_edge(z1, x3); // outer connector
        rb.add_edge(x3, y3);
        rb.add_edge(y3, z2);
        rb.add_edge(z2, vt);
        let run = rb.finish(&spec).unwrap();

        let plan = construct_plan(&spec, &run).unwrap();
        // x1 is claimed by the first *inner* copy (deepest dominator)
        assert_eq!(plan.kind(plan.context(x1)), PlanNodeKind::Plus(inner));
        assert_eq!(plan.context(x1), plan.context(y1));
        assert_eq!(plan.kind(plan.context(z1)), PlanNodeKind::Plus(outer));
        // semantics: serial chains reach forward only
        let labeled = crate::label::LabeledRun::build(
            &spec,
            wfp_speclabel::SpecScheme::build(wfp_speclabel::SchemeKind::Bfs, spec.graph()),
            &run,
        )
        .unwrap();
        let closure = wfp_graph::TransitiveClosure::build(run.graph());
        for u in run.vertices() {
            for v in run.vertices() {
                assert_eq!(labeled.reaches(u, v), closure.reaches(u.raw(), v.raw()));
            }
        }
    }

    #[test]
    fn run_identical_to_spec_gives_singleton_groups() {
        let spec = paper_spec();
        // the "run" that executes every fork/loop exactly once = G itself
        let mut rb = RunBuilder::new();
        for m in spec.modules() {
            rb.add_vertex(m);
        }
        for e in spec.edge_ids() {
            let (u, v) = spec.edge(e);
            rb.add_edge(RunVertexId(u.raw()), RunVertexId(v.raw()));
        }
        let run = rb.finish(&spec).unwrap();
        let plan = construct_plan(&spec, &run).unwrap();
        // 1 root + per subgraph one minus and one plus: 1 + 2*4 = 9
        assert_eq!(plan.node_count(), 9);
        assert_eq!(plan.plus_node_count(), 5);
    }
}
