//! Online (dynamic) skeleton labeling — the extension proposed in the
//! paper's conclusion (§9): *"design efficient and compact dynamic or
//! online labeling schemes, so that data can be labeled and stored in a
//! database along with its label as soon as it is generated ... enabling
//! efficient provenance queries on intermediate data results even before
//! the workflow completes."*
//!
//! A workflow engine (e.g. Taverna, whose logs expose the execution plan,
//! §8.1) streams structural events while the run executes:
//!
//! * [`OnlineLabeler::begin_group`] / [`end_group`](OnlineLabeler::end_group)
//!   — an execution group (`−` node) of a fork/loop opens/closes inside the
//!   current copy;
//! * [`OnlineLabeler::begin_copy`] / [`end_copy`](OnlineLabeler::end_copy)
//!   — one copy (`+` node) of the innermost open group starts/finishes;
//! * [`OnlineLabeler::exec`] — a module executes inside the current copy.
//!
//! The offline scheme's three preorder *positions* only exist once the run
//! is complete, so the online labeler instead keeps the three orders as
//! Euler bracket sequences inside order-maintenance lists
//! ([`wfp_graph::OrderList`]): every new plan node knows, at creation time,
//! exactly where its brackets belong relative to the *existing* nodes
//! (appending a child inserts at the parent's closing bracket — or at its
//! opening bracket in the traversal that reverses this group's children).
//! Relative order of existing nodes never changes, so Lemma 4.5's
//! trichotomy — and therefore πr — holds at every intermediate moment.
//!
//! Queries cost O(1) (three tag comparisons) plus one skeleton probe when
//! the contexts' LCA is a `+` node. When the run completes,
//! [`OnlineLabeler::freeze`] extracts the exact integer labels of the
//! offline scheme.
//!
//! Event validation is strict: every event is checked against the
//! specification's hierarchy (nesting, module homes, copy completeness), so
//! a malformed event stream errors out instead of mislabeling.

use wfp_graph::OrderList;
use wfp_model::{ModuleId, RunVertexId, Specification, SubgraphId, SubgraphKind};
use wfp_speclabel::SpecIndex;

use crate::label::{QueryPath, RunLabel};

/// Violations of the event protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineError {
    /// `begin_group`/`exec` outside any open copy.
    NoOpenCopy,
    /// `begin_copy`/`end_group` while no group is open.
    NoOpenGroup,
    /// `end_copy` while a group is still open, or at the root.
    UnbalancedEnd,
    /// A group of `sg` was opened inside a copy that is not its hierarchy
    /// parent.
    WrongNesting(SubgraphId),
    /// The same subgraph was opened twice within one copy.
    DuplicateGroup(SubgraphId),
    /// A module executed inside a copy that does not dominate it.
    WrongHome(ModuleId),
    /// A module executed twice within one copy.
    DuplicateExec(ModuleId),
    /// A copy ended before all its groups/modules appeared.
    IncompleteCopy {
        /// Child groups still missing.
        missing_groups: usize,
        /// Home modules still missing.
        missing_modules: usize,
    },
    /// `finish` called while copies are still open.
    RunStillOpen,
    /// A group closed with no copies.
    EmptyGroup,
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::NoOpenCopy => write!(f, "event requires an open copy"),
            OnlineError::NoOpenGroup => write!(f, "event requires an open group"),
            OnlineError::UnbalancedEnd => write!(f, "unbalanced end event"),
            OnlineError::WrongNesting(sg) => {
                write!(f, "group {sg} opened outside its parent copy")
            }
            OnlineError::DuplicateGroup(sg) => write!(f, "group {sg} opened twice in one copy"),
            OnlineError::WrongHome(m) => write!(f, "module {m} executed in a foreign copy"),
            OnlineError::DuplicateExec(m) => write!(f, "module {m} executed twice in one copy"),
            OnlineError::IncompleteCopy {
                missing_groups,
                missing_modules,
            } => write!(
                f,
                "copy ended early ({missing_groups} groups, {missing_modules} modules missing)"
            ),
            OnlineError::RunStillOpen => write!(f, "run is not complete"),
            OnlineError::EmptyGroup => write!(f, "group closed with no copies"),
        }
    }
}

impl std::error::Error for OnlineError {}

/// One of the three maintained orders, as an Euler bracket sequence.
struct BracketOrder {
    list: OrderList,
    enter: Vec<u32>,
    exit: Vec<u32>,
}

impl BracketOrder {
    fn new() -> Self {
        BracketOrder {
            list: OrderList::new(),
            enter: Vec::new(),
            exit: Vec::new(),
        }
    }

    /// Creates the root brackets.
    fn push_root(&mut self) {
        debug_assert!(self.enter.is_empty());
        let enter = self.list.push_back();
        let exit = self.list.push_back();
        self.enter.push(enter);
        self.exit.push(exit);
    }

    /// Appends node brackets directly before the parent's closing bracket
    /// (the node becomes the *last*-visited child in this order).
    fn append_last(&mut self, parent: usize) {
        let exit = self.list.insert_before(self.exit[parent]);
        let enter = self.list.insert_before(exit);
        self.enter.push(enter);
        self.exit.push(exit);
    }

    /// Appends node brackets directly after the parent's opening bracket
    /// (the node becomes the *first*-visited child — used by the traversal
    /// that reverses this group's children).
    fn append_first(&mut self, parent: usize) {
        let enter = self.list.insert_after(self.enter[parent]);
        let exit = self.list.insert_after(enter);
        self.enter.push(enter);
        self.exit.push(exit);
    }

    #[inline]
    fn before(&self, a: usize, b: usize) -> bool {
        self.list.before(self.enter[a], self.enter[b])
    }

    /// Current order-maintenance tag of `node`'s opening bracket. Valid
    /// until the list's next global retagging (see
    /// [`rebuilds`](Self::rebuilds)).
    #[inline]
    fn tag(&self, node: usize) -> u64 {
        self.list.key(self.enter[node])
    }

    /// How many global retaggings this order has performed — cached tags
    /// are stale once this advances.
    #[inline]
    fn rebuilds(&self) -> usize {
        self.list.rebuild_count()
    }
}

/// Kind of an online plan node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NodeKind {
    Root,
    Group(SubgraphId),
    Copy(SubgraphId),
}

struct Node {
    kind: NodeKind,
    nonempty: bool,
    /// bookkeeping for completeness checks (copies only)
    groups_opened: usize,
    modules_executed: usize,
}

/// Stack frame of an open node.
struct Frame {
    node: usize,
    /// subgraphs of groups already opened in this copy (small; linear scan)
    seen_groups: Vec<SubgraphId>,
    /// modules already executed in this copy
    seen_modules: Vec<ModuleId>,
}

/// The dynamic labeler. See the module docs for the event protocol.
pub struct OnlineLabeler<'s, S> {
    spec: &'s Specification,
    skeleton: S,
    nodes: Vec<Node>,
    o1: BracketOrder,
    o2: BracketOrder,
    o3: BracketOrder,
    stack: Vec<Frame>,
    /// per executed vertex: (context node, origin)
    vertices: Vec<(usize, ModuleId)>,
    /// expected counts per subgraph (index n = root)
    expected_groups: Vec<usize>,
    expected_modules: Vec<usize>,
}

impl<'s, S: SpecIndex> OnlineLabeler<'s, S> {
    /// Starts a run of `spec`, delegating skeleton queries to `skeleton`.
    pub fn new(spec: &'s Specification, skeleton: S) -> Self {
        let h = spec.hierarchy();
        let k = spec.subgraph_count();
        // expected child-group and home-module counts per copy kind
        let mut expected_groups = vec![0usize; k + 1];
        let mut expected_modules = vec![0usize; k + 1];
        for (id, _) in spec.subgraphs() {
            expected_groups[id.index()] = h.child_subgraphs(h.node_of(id)).count();
        }
        expected_groups[k] = h.child_subgraphs(h.root()).count();
        for m in spec.modules() {
            match h.dominator_of_vertex(m) {
                Some(sg) => expected_modules[sg.index()] += 1,
                None => expected_modules[k] += 1,
            }
        }

        let mut labeler = OnlineLabeler {
            spec,
            skeleton,
            nodes: Vec::new(),
            o1: BracketOrder::new(),
            o2: BracketOrder::new(),
            o3: BracketOrder::new(),
            stack: Vec::new(),
            vertices: Vec::new(),
            expected_groups,
            expected_modules,
        };
        labeler.nodes.push(Node {
            kind: NodeKind::Root,
            nonempty: false,
            groups_opened: 0,
            modules_executed: 0,
        });
        labeler.o1.push_root();
        labeler.o2.push_root();
        labeler.o3.push_root();
        labeler.stack.push(Frame {
            node: 0,
            seen_groups: Vec::new(),
            seen_modules: Vec::new(),
        });
        labeler
    }

    fn top_copy(&self) -> Option<&Frame> {
        let top = self.stack.last()?;
        match self.nodes[top.node].kind {
            NodeKind::Root | NodeKind::Copy(_) => Some(top),
            NodeKind::Group(_) => None,
        }
    }

    /// Opens an execution group for `sg` inside the current copy.
    pub fn begin_group(&mut self, sg: SubgraphId) -> Result<(), OnlineError> {
        let top = self.top_copy().ok_or(OnlineError::NoOpenCopy)?;
        let parent_node = top.node;
        // nesting: sg's hierarchy parent must be the current copy's subgraph
        let expected_parent = self.spec.hierarchy().parent_subgraph(sg);
        let actual_parent = match self.nodes[parent_node].kind {
            NodeKind::Root => None,
            NodeKind::Copy(c) => Some(c),
            NodeKind::Group(_) => unreachable!("top_copy filtered"),
        };
        if expected_parent != actual_parent {
            return Err(OnlineError::WrongNesting(sg));
        }
        if self.stack.last().unwrap().seen_groups.contains(&sg) {
            return Err(OnlineError::DuplicateGroup(sg));
        }
        self.stack.last_mut().unwrap().seen_groups.push(sg);
        self.nodes[parent_node].groups_opened += 1;

        let node = self.nodes.len();
        self.nodes.push(Node {
            kind: NodeKind::Group(sg),
            nonempty: false,
            groups_opened: 0,
            modules_executed: 0,
        });
        // group nodes hang under + copies: forward in all three orders
        self.o1.append_last(parent_node);
        self.o2.append_last(parent_node);
        self.o3.append_last(parent_node);
        self.stack.push(Frame {
            node,
            seen_groups: Vec::new(),
            seen_modules: Vec::new(),
        });
        Ok(())
    }

    /// Opens the next copy of the innermost open group.
    pub fn begin_copy(&mut self) -> Result<(), OnlineError> {
        let top = self.stack.last().ok_or(OnlineError::NoOpenGroup)?;
        let parent_node = top.node;
        let sg = match self.nodes[parent_node].kind {
            NodeKind::Group(sg) => sg,
            _ => return Err(OnlineError::NoOpenGroup),
        };
        // the group's modules_executed slot doubles as its copy counter
        self.nodes[parent_node].modules_executed += 1;
        let node = self.nodes.len();
        self.nodes.push(Node {
            kind: NodeKind::Copy(sg),
            nonempty: false,
            groups_opened: 0,
            modules_executed: 0,
        });
        // O1 is always left-to-right: append as last child. O2 reverses
        // fork groups; O3 reverses loop groups: there the new (serially /
        // latest-created) copy is visited first.
        self.o1.append_last(parent_node);
        match self.spec.subgraph(sg).kind {
            SubgraphKind::Fork => {
                self.o2.append_first(parent_node);
                self.o3.append_last(parent_node);
            }
            SubgraphKind::Loop => {
                self.o2.append_last(parent_node);
                self.o3.append_first(parent_node);
            }
        }
        self.stack.push(Frame {
            node,
            seen_groups: Vec::new(),
            seen_modules: Vec::new(),
        });
        Ok(())
    }

    /// Records the execution of `module` inside the current copy; returns
    /// the new vertex id, already labeled and queryable.
    pub fn exec(&mut self, module: ModuleId) -> Result<RunVertexId, OnlineError> {
        let top = self.top_copy().ok_or(OnlineError::NoOpenCopy)?;
        let node = top.node;
        // the module's home must be this copy's subgraph
        let home = self.spec.hierarchy().dominator_of_vertex(module);
        let here = match self.nodes[node].kind {
            NodeKind::Root => None,
            NodeKind::Copy(c) => Some(c),
            NodeKind::Group(_) => unreachable!(),
        };
        if home != here {
            return Err(OnlineError::WrongHome(module));
        }
        if self.stack.last().unwrap().seen_modules.contains(&module) {
            return Err(OnlineError::DuplicateExec(module));
        }
        self.stack.last_mut().unwrap().seen_modules.push(module);
        self.nodes[node].modules_executed += 1;
        self.nodes[node].nonempty = true;
        let v = RunVertexId(self.vertices.len() as u32);
        self.vertices.push((node, module));
        Ok(v)
    }

    /// Closes the current copy; all of its groups and home modules must
    /// have appeared.
    pub fn end_copy(&mut self) -> Result<(), OnlineError> {
        let top = self.stack.last().ok_or(OnlineError::UnbalancedEnd)?;
        let node = top.node;
        let sg = match self.nodes[node].kind {
            NodeKind::Copy(sg) => sg,
            _ => return Err(OnlineError::UnbalancedEnd),
        };
        let expect_g = self.expected_groups[sg.index()];
        let expect_m = self.expected_modules[sg.index()];
        let n = &self.nodes[node];
        if n.groups_opened != expect_g || n.modules_executed != expect_m {
            return Err(OnlineError::IncompleteCopy {
                missing_groups: expect_g.saturating_sub(n.groups_opened),
                missing_modules: expect_m.saturating_sub(n.modules_executed),
            });
        }
        self.stack.pop();
        Ok(())
    }

    /// Closes the innermost open group (must contain at least one copy).
    pub fn end_group(&mut self) -> Result<(), OnlineError> {
        let top = self.stack.last().ok_or(OnlineError::UnbalancedEnd)?;
        let node = top.node;
        match self.nodes[node].kind {
            NodeKind::Group(_) => {}
            _ => return Err(OnlineError::NoOpenGroup),
        }
        // a group's modules_executed slot counts its copies (see begin_copy)
        if self.nodes[node].modules_executed == 0 {
            return Err(OnlineError::EmptyGroup);
        }
        self.stack.pop();
        Ok(())
    }

    /// Number of module executions so far.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the run is structurally complete (only the root remains
    /// open; the root's own completeness is checked by [`freeze`](Self::freeze)).
    pub fn at_root(&self) -> bool {
        self.stack.len() == 1
    }

    /// The skeleton index queries delegate to.
    pub fn skeleton(&self) -> &S {
        &self.skeleton
    }

    /// The specification this run conforms to.
    pub fn spec(&self) -> &'s Specification {
        self.spec
    }

    /// Reachability between two executed vertices — valid at *any* moment,
    /// including mid-run on intermediate data (reflexive).
    pub fn reaches(&self, u: RunVertexId, v: RunVertexId) -> bool {
        self.reaches_traced(u, v).0
    }

    /// [`reaches`](Self::reaches) plus which path decided it.
    pub fn reaches_traced(&self, u: RunVertexId, v: RunVertexId) -> (bool, QueryPath) {
        let (cu, ou) = self.vertices[u.index()];
        let (cv, ov) = self.vertices[v.index()];
        if cu == cv {
            return (
                self.skeleton.reaches(ou.raw(), ov.raw()),
                QueryPath::Skeleton,
            );
        }
        let b1 = self.o1.before(cu, cv);
        let b2 = self.o2.before(cu, cv);
        let b3 = self.o3.before(cu, cv);
        if b2 != b3 {
            // F−/L− LCA (Lemma 4.5): context decides
            (b1 && !b3, QueryPath::ContextOnly)
        } else {
            (
                self.skeleton.reaches(ou.raw(), ov.raw()),
                QueryPath::Skeleton,
            )
        }
    }

    /// Context plan node of executed vertex `v` (for the live engine's
    /// column store).
    #[inline]
    pub(crate) fn context_node(&self, v: RunVertexId) -> usize {
        self.vertices[v.index()].0
    }

    /// Current `(O1, O2, O3)` tags of plan node `node`'s opening brackets.
    #[inline]
    pub(crate) fn order_tags(&self, node: usize) -> (u64, u64, u64) {
        (self.o1.tag(node), self.o2.tag(node), self.o3.tag(node))
    }

    /// Per-order global-retagging counters — a cached tag column is stale
    /// for order `k` once slot `k` advances.
    #[inline]
    pub(crate) fn rebuild_counts(&self) -> [usize; 3] {
        [self.o1.rebuilds(), self.o2.rebuilds(), self.o3.rebuilds()]
    }

    /// Completes the run and extracts the offline scheme's exact integer
    /// labels (positions in the three orders) plus `n⁺`.
    pub fn freeze(self) -> Result<(Vec<RunLabel>, u32), OnlineError> {
        self.freeze_into_parts()
            .map(|(labels, n_plus, _)| (labels, n_plus))
    }

    /// Whether the run could freeze right now: every scope closed and the
    /// root complete. Non-consuming, so callers (e.g. the fleet's in-place
    /// freeze) can check before committing to a consuming
    /// [`freeze`](Self::freeze).
    pub fn check_complete(&self) -> Result<(), OnlineError> {
        if self.stack.len() != 1 {
            return Err(OnlineError::RunStillOpen);
        }
        let root = &self.nodes[0];
        if root.groups_opened != self.expected_groups[self.spec.subgraph_count()]
            || root.modules_executed != self.expected_modules[self.spec.subgraph_count()]
        {
            return Err(OnlineError::IncompleteCopy {
                missing_groups: self.expected_groups[self.spec.subgraph_count()]
                    .saturating_sub(root.groups_opened),
                missing_modules: self.expected_modules[self.spec.subgraph_count()]
                    .saturating_sub(root.modules_executed),
            });
        }
        Ok(())
    }

    /// [`freeze`](Self::freeze) that also returns the skeleton index — the
    /// zero-re-labeling handoff used by [`crate::live::LiveRun::freeze`] to
    /// assemble a [`crate::engine::QueryEngine`] without rebuilding the
    /// specification labels.
    pub fn freeze_into_parts(self) -> Result<(Vec<RunLabel>, u32, S), OnlineError> {
        self.check_complete()?;
        /// Walks one bracket list and assigns 1-based positions to the
        /// nonempty `+` nodes in visit order.
        fn positions(order: &BracketOrder, nodes: &[Node]) -> (Vec<u32>, u32) {
            let mut owner = vec![u32::MAX; order.list.len()];
            for (node, &e) in order.enter.iter().enumerate() {
                owner[e as usize] = node as u32;
            }
            let mut pos = vec![0u32; nodes.len()];
            let mut counter = 0u32;
            for handle in order.list.iter_order() {
                let node = owner[handle as usize];
                if node == u32::MAX {
                    continue; // a closing bracket
                }
                let node = node as usize;
                let plus = matches!(nodes[node].kind, NodeKind::Root | NodeKind::Copy(_));
                if plus && nodes[node].nonempty {
                    counter += 1;
                    pos[node] = counter;
                }
            }
            (pos, counter)
        }
        let (p1, n1) = positions(&self.o1, &self.nodes);
        let (p2, n2) = positions(&self.o2, &self.nodes);
        let (p3, n3) = positions(&self.o3, &self.nodes);
        debug_assert!(n1 == n2 && n2 == n3);
        let n_plus = n1;
        let labels = self
            .vertices
            .iter()
            .map(|&(node, origin)| RunLabel {
                q1: p1[node],
                q2: p2[node],
                q3: p3[node],
                origin,
            })
            .collect();
        Ok((labels, n_plus, self.skeleton))
    }
}

impl<S: SpecIndex> OnlineLabeler<'_, S> {
    /// Convenience: `begin_copy` + closure + `end_copy`.
    pub fn copy_scope<R>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<R, OnlineError>,
    ) -> Result<R, OnlineError> {
        self.begin_copy()?;
        let r = body(self)?;
        self.end_copy()?;
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_model::fixtures::{paper_run, paper_spec, paper_subgraph};
    use wfp_speclabel::{SchemeKind, SpecScheme};

    fn scheme(spec: &Specification) -> SpecScheme {
        SpecScheme::build(SchemeKind::Tcm, spec.graph())
    }

    /// Streams the paper's Figure 3 run and checks the introduction's
    /// queries *mid-run* and the frozen labels afterwards.
    #[test]
    fn paper_run_streams_and_freezes() {
        let spec = paper_spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let f1 = paper_subgraph(&spec, "F1");
        let f2 = paper_subgraph(&spec, "F2");
        let l1 = paper_subgraph(&spec, "L1");
        let l2 = paper_subgraph(&spec, "L2");
        let mut ol = OnlineLabeler::new(&spec, scheme(&spec));

        let a1 = ol.exec(m("a")).unwrap();
        // F1 group with two copies
        ol.begin_group(f1).unwrap();
        ol.begin_copy().unwrap(); // copy A
        ol.begin_group(l2).unwrap();
        ol.begin_copy().unwrap();
        let b1 = ol.exec(m("b")).unwrap();
        let c1 = ol.exec(m("c")).unwrap();
        ol.end_copy().unwrap();

        // mid-run query on intermediate data: b1 ⇝ c1 inside the loop copy
        assert!(ol.reaches(b1, c1));
        assert!(!ol.reaches(c1, b1));
        assert!(ol.reaches(a1, c1));

        ol.begin_copy().unwrap();
        let b2 = ol.exec(m("b")).unwrap();
        let _c2 = ol.exec(m("c")).unwrap();
        ol.end_copy().unwrap();
        ol.end_group().unwrap();
        ol.end_copy().unwrap(); // F1 copy A

        // successive loop copies, decided mid-run
        assert!(ol.reaches(c1, b2));
        assert!(!ol.reaches(b2, c1));

        ol.begin_copy().unwrap(); // F1 copy B
        ol.begin_group(l2).unwrap();
        ol.begin_copy().unwrap();
        let b3 = ol.exec(m("b")).unwrap();
        let c3 = ol.exec(m("c")).unwrap();
        ol.end_copy().unwrap();
        ol.end_group().unwrap();
        ol.end_copy().unwrap();
        ol.end_group().unwrap(); // F1

        // parallel fork copies, decided mid-run
        assert!(!ol.reaches(b1, c3));
        assert!(!ol.reaches(b3, c1));
        let (_, path) = ol.reaches_traced(b1, c3);
        assert_eq!(path, QueryPath::ContextOnly);

        // lower branch
        let d1 = ol.exec(m("d")).unwrap();
        ol.begin_group(l1).unwrap();
        ol.begin_copy().unwrap(); // L1 copy 1
        let e1 = ol.exec(m("e")).unwrap();
        ol.begin_group(f2).unwrap();
        ol.begin_copy().unwrap();
        let fv1 = ol.exec(m("f")).unwrap();
        ol.end_copy().unwrap();
        ol.end_group().unwrap();
        let g1 = ol.exec(m("g")).unwrap();
        ol.end_copy().unwrap();
        ol.begin_copy().unwrap(); // L1 copy 2
        let _e2 = ol.exec(m("e")).unwrap();
        ol.begin_group(f2).unwrap();
        ol.begin_copy().unwrap();
        let fv2 = ol.exec(m("f")).unwrap();
        ol.end_copy().unwrap();
        ol.begin_copy().unwrap();
        let fv3 = ol.exec(m("f")).unwrap();
        ol.end_copy().unwrap();
        ol.end_group().unwrap();
        let _g2 = ol.exec(m("g")).unwrap();
        ol.end_copy().unwrap();
        ol.end_group().unwrap();
        let h1 = ol.exec(m("h")).unwrap();

        assert!(ol.at_root());
        assert!(
            ol.reaches(fv1, fv2),
            "earlier loop copy reaches later fork copies"
        );
        assert!(!ol.reaches(fv2, fv3), "parallel fork copies");
        assert!(ol.reaches(d1, h1));
        assert!(!ol.reaches(g1, e1));
        assert!(!ol.reaches(c1, d1), "separate branches (skeleton path)");

        // freezing yields 16 labels with 9 nonempty + nodes, like offline
        let n = ol.vertex_count();
        let (labels, n_plus) = ol.freeze().unwrap();
        assert_eq!(n, 16);
        assert_eq!(labels.len(), 16);
        assert_eq!(n_plus, 9);
    }

    /// The frozen labels answer identically to the offline pipeline over
    /// the full pair matrix (online sibling order = generation order, so
    /// answers — not necessarily raw positions — must coincide).
    #[test]
    fn frozen_labels_match_offline_answers() {
        use crate::label::predicate;
        let spec = paper_spec();
        let run = paper_run(&spec);
        let offline = crate::label::LabeledRun::build(&spec, scheme(&spec), &run).unwrap();

        // stream the same structure (see paper_run_streams_and_freezes)
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let f1 = paper_subgraph(&spec, "F1");
        let f2 = paper_subgraph(&spec, "F2");
        let l1 = paper_subgraph(&spec, "L1");
        let l2 = paper_subgraph(&spec, "L2");
        let mut ol = OnlineLabeler::new(&spec, scheme(&spec));
        let mut ids = Vec::new(); // online vertex per offline vertex name
        let push = |ol: &mut OnlineLabeler<SpecScheme>,
                    name: &str,
                    ids: &mut Vec<(String, RunVertexId)>| {
            let v = ol.exec(m(name)).unwrap();
            ids.push((name.to_string(), v));
        };
        push(&mut ol, "a", &mut ids);
        ol.begin_group(f1).unwrap();
        for copies in [2usize, 1] {
            ol.begin_copy().unwrap();
            ol.begin_group(l2).unwrap();
            for _ in 0..copies {
                ol.begin_copy().unwrap();
                push(&mut ol, "b", &mut ids);
                push(&mut ol, "c", &mut ids);
                ol.end_copy().unwrap();
            }
            ol.end_group().unwrap();
            ol.end_copy().unwrap();
        }
        ol.end_group().unwrap();
        push(&mut ol, "d", &mut ids);
        ol.begin_group(l1).unwrap();
        for copies in [1usize, 2] {
            ol.begin_copy().unwrap();
            push(&mut ol, "e", &mut ids);
            ol.begin_group(f2).unwrap();
            for _ in 0..copies {
                ol.begin_copy().unwrap();
                push(&mut ol, "f", &mut ids);
                ol.end_copy().unwrap();
            }
            ol.end_group().unwrap();
            push(&mut ol, "g", &mut ids);
            ol.end_copy().unwrap();
        }
        ol.end_group().unwrap();
        push(&mut ol, "h", &mut ids);

        // live answers match frozen answers match each other for all pairs
        let live: Vec<Vec<bool>> = ids
            .iter()
            .map(|&(_, u)| ids.iter().map(|&(_, v)| ol.reaches(u, v)).collect())
            .collect();
        let (labels, _) = ol.freeze().unwrap();
        let frozen_skeleton = scheme(&spec);
        for (i, &(_, u)) in ids.iter().enumerate() {
            for (j, &(_, v)) in ids.iter().enumerate() {
                let frozen = predicate(&labels[u.index()], &labels[v.index()], &frozen_skeleton);
                assert_eq!(live[i][j], frozen, "({i},{j}) live vs frozen");
            }
        }
        // and the whole relation matches the offline relation as a multiset
        // over (origin-context) structure: compare reachable-pair counts
        let offline_positive: usize = run
            .vertices()
            .map(|u| run.vertices().filter(|&v| offline.reaches(u, v)).count())
            .sum();
        let online_positive: usize = live.iter().map(|r| r.iter().filter(|&&b| b).count()).sum();
        assert_eq!(offline_positive, online_positive);
    }

    #[test]
    fn protocol_violations_are_rejected() {
        let spec = paper_spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let f1 = paper_subgraph(&spec, "F1");
        let l2 = paper_subgraph(&spec, "L2");

        // begin_copy with no group
        let mut ol = OnlineLabeler::new(&spec, scheme(&spec));
        assert_eq!(ol.begin_copy(), Err(OnlineError::NoOpenGroup));

        // group nesting violation: L2 directly under the root
        let mut ol = OnlineLabeler::new(&spec, scheme(&spec));
        assert_eq!(ol.begin_group(l2), Err(OnlineError::WrongNesting(l2)));

        // module executed in a foreign copy: b at the root
        let mut ol = OnlineLabeler::new(&spec, scheme(&spec));
        assert_eq!(ol.exec(m("b")), Err(OnlineError::WrongHome(m("b"))));

        // duplicate execution within a copy
        let mut ol = OnlineLabeler::new(&spec, scheme(&spec));
        ol.exec(m("a")).unwrap();
        assert_eq!(ol.exec(m("a")), Err(OnlineError::DuplicateExec(m("a"))));

        // incomplete copy: F1 copy without its L2 group
        let mut ol = OnlineLabeler::new(&spec, scheme(&spec));
        ol.begin_group(f1).unwrap();
        ol.begin_copy().unwrap();
        assert!(matches!(
            ol.end_copy(),
            Err(OnlineError::IncompleteCopy { .. })
        ));

        // empty group
        let mut ol = OnlineLabeler::new(&spec, scheme(&spec));
        ol.begin_group(f1).unwrap();
        assert_eq!(ol.end_group(), Err(OnlineError::EmptyGroup));

        // freeze with open copies / incomplete root
        let mut ol = OnlineLabeler::new(&spec, scheme(&spec));
        ol.begin_group(f1).unwrap();
        ol.begin_copy().unwrap();
        assert!(matches!(ol.freeze(), Err(OnlineError::RunStillOpen)));
        let ol = OnlineLabeler::new(&spec, scheme(&spec));
        assert!(matches!(
            ol.freeze(),
            Err(OnlineError::IncompleteCopy { .. })
        ));
    }
}
