//! Live data provenance: §6 dependency queries over an *in-flight* run.
//!
//! [`crate::ProvenanceIndex`] labels data items after a run completes.
//! [`LiveIndex`] removes that wait: it wraps a [`LiveRun`] (the §9
//! query-while-running engine of `wfp-skl`), forwards the workflow
//! engine's structural events, and lets data items be registered **the
//! moment their producing module executes**. Every §6 dependency predicate
//! — data-on-data, data-on-module, module-on-data, scalar and batched — is
//! answerable at any intermediate moment, over exactly the vertices and
//! items seen so far.
//!
//! Items are stored as `(producer, consumers)` vertex references rather
//! than materialized labels: the live engine's columns *are* the labels,
//! so a dependency query is `k` live πr probes sharing the engine's
//! lazily-grown skeleton memo (§6's `k + 1` factor, unchanged).
//!
//! [`LiveIndex::freeze`] completes the run and hands back a frozen
//! [`QueryEngine`] (zero re-labeling, warm memo — see
//! [`LiveRun::freeze`]) together with the registered items, ready for the
//! offline store ([`crate::store`]) or index.

use wfp_model::{ModuleId, RunVertexId, Specification, SubgraphId};
use wfp_skl::live::LiveRun;
use wfp_skl::online::OnlineError;
use wfp_skl::QueryEngine;
use wfp_speclabel::SpecIndex;

use crate::data::{DataError, DataItem, DataItemId};

/// A provenance index over a run that is still executing. See the module
/// docs.
pub struct LiveIndex<'s, S> {
    live: LiveRun<'s, S>,
    items: Vec<DataItem>,
}

impl<'s, S: SpecIndex> LiveIndex<'s, S> {
    /// Starts a live index over a fresh run of `spec`.
    pub fn new(spec: &'s Specification, skeleton: S) -> Self {
        Self::from_live(LiveRun::new(spec, skeleton))
    }

    /// Wraps an already-started live run (its executed vertices are valid
    /// producers/consumers immediately).
    pub fn from_live(live: LiveRun<'s, S>) -> Self {
        LiveIndex {
            live,
            items: Vec::new(),
        }
    }

    // ---------------- event ingestion ----------------------------------

    /// Forwards [`LiveRun::begin_group`].
    pub fn begin_group(&mut self, sg: SubgraphId) -> Result<(), OnlineError> {
        self.live.begin_group(sg)
    }

    /// Forwards [`LiveRun::begin_copy`].
    pub fn begin_copy(&mut self) -> Result<(), OnlineError> {
        self.live.begin_copy()
    }

    /// Forwards [`LiveRun::exec`]; the returned vertex can immediately
    /// produce and consume data items.
    pub fn exec(&mut self, module: ModuleId) -> Result<RunVertexId, OnlineError> {
        self.live.exec(module)
    }

    /// Forwards [`LiveRun::end_copy`].
    pub fn end_copy(&mut self) -> Result<(), OnlineError> {
        self.live.end_copy()
    }

    /// Forwards [`LiveRun::end_group`].
    pub fn end_group(&mut self) -> Result<(), OnlineError> {
        self.live.end_group()
    }

    // ---------------- item registration --------------------------------

    /// Registers a data item written by `producer` (typically the vertex
    /// returned by the [`exec`](Self::exec) that just ran) and read by
    /// `consumers`. Consumers may be extended later via
    /// [`add_consumer`](Self::add_consumer) as downstream modules execute.
    pub fn register_item(
        &mut self,
        name: impl Into<String>,
        producer: RunVertexId,
        consumers: &[RunVertexId],
    ) -> Result<DataItemId, DataError> {
        let name = name.into();
        if self.items.iter().any(|it| it.name == name) {
            return Err(DataError::DuplicateName(name));
        }
        let n = self.live.vertex_count();
        for &v in std::iter::once(&producer).chain(consumers) {
            if v.index() >= n {
                return Err(DataError::BadVertex(v));
            }
        }
        let mut consumers: Vec<RunVertexId> = consumers.to_vec();
        consumers.sort_unstable();
        consumers.dedup();
        let id = DataItemId(self.items.len() as u32);
        self.items.push(DataItem {
            name,
            producer,
            consumers,
        });
        Ok(id)
    }

    /// Records that `consumer` (an already-executed vertex) read item `x`
    /// — the streaming counterpart of a data item flowing on a later edge.
    pub fn add_consumer(&mut self, x: DataItemId, consumer: RunVertexId) -> Result<(), DataError> {
        if consumer.index() >= self.live.vertex_count() {
            return Err(DataError::BadVertex(consumer));
        }
        let consumers = &mut self.items[x.index()].consumers;
        if let Err(at) = consumers.binary_search(&consumer) {
            consumers.insert(at, consumer);
        }
        Ok(())
    }

    /// The registered item `x`.
    pub fn item(&self, x: DataItemId) -> &DataItem {
        &self.items[x.index()]
    }

    /// Number of registered items.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Finds an item by name.
    pub fn item_by_name(&self, name: &str) -> Option<DataItemId> {
        self.items
            .iter()
            .position(|it| it.name == name)
            .map(|i| DataItemId(i as u32))
    }

    /// The wrapped live engine (for raw vertex-level queries and stats).
    pub fn live(&self) -> &LiveRun<'s, S> {
        &self.live
    }

    // ---------------- §6 dependency queries, live ----------------------

    /// Does data item `x` depend on data item `x'`? (`x'` flowed into the
    /// computation that produced `x`.) Valid mid-run.
    pub fn data_depends_on_data(&self, x: DataItemId, x_prime: DataItemId) -> bool {
        let out = self.items[x.index()].producer;
        self.items[x_prime.index()]
            .consumers
            .iter()
            .any(|&v| self.live.answer(v, out))
    }

    /// Does data item `x` depend on module execution `v`?
    pub fn data_depends_on_module(&self, x: DataItemId, v: RunVertexId) -> bool {
        self.live.answer(v, self.items[x.index()].producer)
    }

    /// Does module execution `v` depend on data item `x`?
    pub fn module_depends_on_data(&self, v: RunVertexId, x: DataItemId) -> bool {
        self.items[x.index()]
            .consumers
            .iter()
            .any(|&u| self.live.answer(u, v))
    }

    /// Bulk [`data_depends_on_data`](Self::data_depends_on_data): expands
    /// every item pair to its vertex probes and answers them through one
    /// batched engine pass, sharing the live memo.
    pub fn data_depends_on_data_batch(&self, pairs: &[(DataItemId, DataItemId)]) -> Vec<bool> {
        // flatten: item pair -> k vertex pairs, then fold `any` back
        let mut probes = Vec::new();
        let mut spans = Vec::with_capacity(pairs.len());
        for &(x, x_prime) in pairs {
            let out = self.items[x.index()].producer;
            let start = probes.len();
            probes.extend(
                self.items[x_prime.index()]
                    .consumers
                    .iter()
                    .map(|&v| (v, out)),
            );
            spans.push(start..probes.len());
        }
        let answers = self.live.answer_batch(&probes);
        spans
            .into_iter()
            .map(|span| answers[span].iter().any(|&a| a))
            .collect()
    }

    /// Bulk [`data_depends_on_module`](Self::data_depends_on_module).
    pub fn data_depends_on_module_batch(&self, pairs: &[(DataItemId, RunVertexId)]) -> Vec<bool> {
        let probes: Vec<_> = pairs
            .iter()
            .map(|&(x, v)| (v, self.items[x.index()].producer))
            .collect();
        self.live.answer_batch(&probes)
    }

    /// Bulk [`module_depends_on_data`](Self::module_depends_on_data).
    pub fn module_depends_on_data_batch(&self, pairs: &[(RunVertexId, DataItemId)]) -> Vec<bool> {
        let mut probes = Vec::new();
        let mut spans = Vec::with_capacity(pairs.len());
        for &(v, x) in pairs {
            let start = probes.len();
            probes.extend(self.items[x.index()].consumers.iter().map(|&u| (u, v)));
            spans.push(start..probes.len());
        }
        let answers = self.live.answer_batch(&probes);
        spans
            .into_iter()
            .map(|span| answers[span].iter().any(|&a| a))
            .collect()
    }

    // ---------------- freeze -------------------------------------------

    /// Completes the run: hands back the frozen [`QueryEngine`] (exact
    /// offline labels, warm memo — [`LiveRun::freeze`]) and the registered
    /// items, whose vertex references stay valid against the engine.
    pub fn freeze(self) -> Result<(QueryEngine<S>, Vec<DataItem>), OnlineError> {
        Ok((self.live.freeze()?, self.items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_model::fixtures::{paper_spec, paper_subgraph};
    use wfp_speclabel::{SchemeKind, SpecScheme};

    /// Streams the paper run's upper branch and registers Figure 11's
    /// items as their producers execute.
    #[test]
    fn figure_11_dependencies_answer_mid_run() {
        let spec = paper_spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let f1 = paper_subgraph(&spec, "F1");
        let l2 = paper_subgraph(&spec, "L2");
        let mut idx = LiveIndex::new(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));

        let a1 = idx.exec(m("a")).unwrap();
        idx.begin_group(f1).unwrap();
        idx.begin_copy().unwrap();
        idx.begin_group(l2).unwrap();
        idx.begin_copy().unwrap();
        let b1 = idx.exec(m("b")).unwrap();
        // x1 produced by a1, consumed by b1 (and later b3); x2 likewise
        let x1 = idx.register_item("x1", a1, &[b1]).unwrap();
        let x2 = idx.register_item("x2", a1, &[b1]).unwrap();
        let c1 = idx.exec(m("c")).unwrap();
        let x4 = idx.register_item("x4", b1, &[c1]).unwrap();
        idx.end_copy().unwrap();
        idx.begin_copy().unwrap();
        let _b2 = idx.exec(m("b")).unwrap();
        let _c2 = idx.exec(m("c")).unwrap();
        idx.end_copy().unwrap();
        idx.end_group().unwrap();
        idx.end_copy().unwrap();

        // the run is mid-flight: F1's second copy hasn't happened yet,
        // but x4's lineage is already queryable
        assert!(idx.data_depends_on_data(x4, x1));
        assert!(idx.data_depends_on_data(x4, x2));
        assert!(!idx.data_depends_on_data(x1, x4));
        assert!(idx.data_depends_on_module(x4, a1));
        assert!(idx.module_depends_on_data(c1, x1));
        assert!(!idx.module_depends_on_data(a1, x4));

        // second fork copy arrives; x1 gains a consumer there
        idx.begin_copy().unwrap();
        idx.begin_group(l2).unwrap();
        idx.begin_copy().unwrap();
        let b3 = idx.exec(m("b")).unwrap();
        idx.add_consumer(x1, b3).unwrap();
        let c3 = idx.exec(m("c")).unwrap();
        let x6 = idx.register_item("x6", c3, &[]).unwrap();
        idx.end_copy().unwrap();
        idx.end_group().unwrap();
        idx.end_copy().unwrap();
        idx.end_group().unwrap();

        // Example 10: x6 depends on x1 (via b3) but not on x2 (b1 is a
        // parallel fork copy)
        assert!(idx.data_depends_on_data(x6, x1));
        assert!(!idx.data_depends_on_data(x6, x2));

        // batch paths agree with the scalars
        let ids = [x1, x2, x4, x6];
        let dd: Vec<_> = ids
            .iter()
            .flat_map(|&x| ids.iter().map(move |&y| (x, y)))
            .collect();
        let batch = idx.data_depends_on_data_batch(&dd);
        for (&(x, y), &ans) in dd.iter().zip(&batch) {
            assert_eq!(ans, idx.data_depends_on_data(x, y), "({x}, {y})");
        }
        let n = idx.live().vertex_count();
        let dm: Vec<_> = ids
            .iter()
            .flat_map(|&x| (0..n as u32).map(move |v| (x, RunVertexId(v))))
            .collect();
        let batch = idx.data_depends_on_module_batch(&dm);
        for (&(x, v), &ans) in dm.iter().zip(&batch) {
            assert_eq!(ans, idx.data_depends_on_module(x, v), "({x}, {v})");
        }
        let md: Vec<_> = dm.iter().map(|&(x, v)| (v, x)).collect();
        let batch = idx.module_depends_on_data_batch(&md);
        for (&(v, x), &ans) in md.iter().zip(&batch) {
            assert_eq!(ans, idx.module_depends_on_data(v, x), "({v}, {x})");
        }
    }

    #[test]
    fn registration_is_validated() {
        let spec = paper_spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let mut idx = LiveIndex::new(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
        let a1 = idx.exec(m("a")).unwrap();
        idx.register_item("x", a1, &[]).unwrap();
        assert!(matches!(
            idx.register_item("x", a1, &[]),
            Err(DataError::DuplicateName(_))
        ));
        assert!(matches!(
            idx.register_item("y", RunVertexId(99), &[]),
            Err(DataError::BadVertex(_))
        ));
        assert!(matches!(
            idx.add_consumer(DataItemId(0), RunVertexId(99)),
            Err(DataError::BadVertex(_))
        ));
        assert_eq!(idx.item_by_name("x"), Some(DataItemId(0)));
        assert_eq!(idx.item_count(), 1);
        assert_eq!(idx.item(DataItemId(0)).producer, a1);
    }

    #[test]
    fn freeze_returns_engine_and_items() {
        let spec = paper_spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let f1 = paper_subgraph(&spec, "F1");
        let f2 = paper_subgraph(&spec, "F2");
        let l1 = paper_subgraph(&spec, "L1");
        let l2 = paper_subgraph(&spec, "L2");
        let mut idx = LiveIndex::new(&spec, SpecScheme::build(SchemeKind::Bfs, spec.graph()));
        let a1 = idx.exec(m("a")).unwrap();
        idx.begin_group(f1).unwrap();
        idx.begin_copy().unwrap();
        idx.begin_group(l2).unwrap();
        idx.begin_copy().unwrap();
        let b1 = idx.exec(m("b")).unwrap();
        idx.exec(m("c")).unwrap();
        idx.end_copy().unwrap();
        idx.end_group().unwrap();
        idx.end_copy().unwrap();
        idx.end_group().unwrap();
        let d1 = idx.exec(m("d")).unwrap();
        idx.begin_group(l1).unwrap();
        idx.begin_copy().unwrap();
        idx.exec(m("e")).unwrap();
        idx.begin_group(f2).unwrap();
        idx.begin_copy().unwrap();
        idx.exec(m("f")).unwrap();
        idx.end_copy().unwrap();
        idx.end_group().unwrap();
        idx.exec(m("g")).unwrap();
        idx.end_copy().unwrap();
        idx.end_group().unwrap();
        let h1 = idx.exec(m("h")).unwrap();
        idx.register_item("x", a1, &[b1]).unwrap();

        let live_ans = idx.live().answer(a1, h1);
        let (engine, items) = idx.freeze().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].producer, a1);
        assert_eq!(engine.answer(a1, h1), live_ans);
        assert!(engine.answer(d1, h1));
    }
}
