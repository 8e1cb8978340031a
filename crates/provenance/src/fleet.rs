//! Fleet data provenance: §6 dependency queries **across many runs** of
//! one specification, keyed by `(run, item)`.
//!
//! [`crate::ProvenanceIndex`] serves one labeled run; a provenance service
//! serves thousands of runs of the same workflow spec. [`FleetIndex`]
//! registers each run's labels and data items under a shared
//! [`SpecContext`] (one skeleton index + one concurrent skeleton memo for
//! the whole fleet, via [`FleetEngine`]) and answers every §6 predicate —
//! data-on-data, data-on-module, module-on-data, scalar and batched — for
//! any registered `(run, item)` pair. Batches may mix runs freely; fleet
//! traffic is sharded by run internally and answers return in input
//! order.
//!
//! Items are stored as `(producer, consumers)` vertex references rather
//! than materialized labels: the fleet's column stores *are* the labels,
//! so a dependency query is `k` πr probes through the shared memo (§6's
//! `k + 1` factor, unchanged) — and a probe warmed by one run's traffic
//! is a memo hit for every other run.

use std::sync::Arc;

use wfp_model::RunVertexId;
use wfp_skl::fleet::{FleetEngine, FleetError, FleetStats, RunId};
use wfp_skl::{snapshot, RunLabel, SpecContext};
use wfp_speclabel::{SpecIndex, SpecScheme};

use crate::data::{DataItem, DataItemId, RunData};

/// A multi-run provenance index over one shared specification context.
/// See the module docs.
pub struct FleetIndex<'s, S> {
    fleet: FleetEngine<'s, S>,
    /// per registry slot: the run's registered items (empty after
    /// eviction); indexed by `RunId`
    items: Vec<Vec<DataItem>>,
}

impl<'s, S: SpecIndex> FleetIndex<'s, S> {
    /// An empty index over an already-shared context.
    pub fn new(ctx: Arc<SpecContext<S>>) -> Self {
        FleetIndex {
            fleet: FleetEngine::new(ctx),
            items: Vec::new(),
        }
    }

    /// Wraps an existing fleet (its already-registered runs have no items
    /// until registered here... so prefer registering through the index).
    pub fn from_fleet(fleet: FleetEngine<'s, S>) -> Self {
        let slots = fleet.run_ids().map(|id| id.index() + 1).max().unwrap_or(0);
        FleetIndex {
            fleet,
            items: (0..slots).map(|_| Vec::new()).collect(),
        }
    }

    /// Registers one run: its labels (into the shared fleet) and its data
    /// items. `O(n_R + Σ_e |Data(e)|)` time.
    pub fn register_run(&mut self, labels: &[RunLabel], data: &RunData) -> RunId {
        let id = self.fleet.register_labels(labels);
        while self.items.len() <= id.index() {
            self.items.push(Vec::new());
        }
        self.items[id.index()] = data.items().map(|(_, item)| item.clone()).collect();
        id
    }

    /// Evicts a run and its items.
    pub fn evict(&mut self, run: RunId) -> Result<(), FleetError> {
        self.fleet.evict(run)?;
        if let Some(items) = self.items.get_mut(run.index()) {
            items.clear();
            items.shrink_to_fit();
        }
        Ok(())
    }

    /// The underlying fleet engine (for raw vertex-level probes).
    pub fn fleet(&self) -> &FleetEngine<'s, S> {
        &self.fleet
    }

    /// Evolves stale item vectors to cover every fleet slot (registering
    /// through [`register_run`](Self::register_run) keeps them in sync;
    /// wrapping or loading may not).
    fn items_for_slot(&self, slot: usize) -> &[DataItem] {
        self.items.get(slot).map_or(&[], Vec::as_slice)
    }

    /// Shared-vs-duplicated memory accounting and aggregate counters.
    pub fn stats(&self) -> FleetStats {
        self.fleet.stats()
    }

    fn item(&self, run: RunId, x: DataItemId) -> Result<&DataItem, FleetError> {
        // validate the run id (distinguishing evicted from unknown) first
        if !self.fleet.contains(run) {
            self.fleet.vertex_count(run)?; // returns the precise error
        }
        self.items
            .get(run.index())
            .and_then(|items| items.get(x.index()))
            .ok_or(FleetError::UnknownItem { run, item: x.0 })
    }

    /// Number of items registered for `run`.
    pub fn item_count(&self, run: RunId) -> Result<usize, FleetError> {
        self.fleet.vertex_count(run)?; // validates
        Ok(self.items.get(run.index()).map_or(0, Vec::len))
    }

    /// Finds an item of `run` by name.
    pub fn item_by_name(&self, run: RunId, name: &str) -> Option<DataItemId> {
        self.items
            .get(run.index())?
            .iter()
            .position(|it| it.name == name)
            .map(|i| DataItemId(i as u32))
    }

    // ---------------- §6 dependency queries, cross-run ------------------

    /// Does data item `x` of `run` depend on data item `x'` of the same
    /// run? (`x'` flowed into the computation that produced `x`.)
    pub fn data_depends_on_data(
        &self,
        run: RunId,
        x: DataItemId,
        x_prime: DataItemId,
    ) -> Result<bool, FleetError> {
        let out = self.item(run, x)?.producer;
        for &v in &self.item(run, x_prime)?.consumers {
            if self.fleet.answer(run, v, out)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Does data item `x` of `run` depend on module execution `v`?
    pub fn data_depends_on_module(
        &self,
        run: RunId,
        x: DataItemId,
        v: RunVertexId,
    ) -> Result<bool, FleetError> {
        let out = self.item(run, x)?.producer;
        self.fleet.answer(run, v, out)
    }

    /// Does module execution `v` of `run` depend on data item `x`?
    pub fn module_depends_on_data(
        &self,
        run: RunId,
        v: RunVertexId,
        x: DataItemId,
    ) -> Result<bool, FleetError> {
        for &u in &self.item(run, x)?.consumers {
            if self.fleet.answer(run, u, v)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Bulk [`data_depends_on_data`](Self::data_depends_on_data) over
    /// `(run, x, x')` triples that may mix runs freely: every triple
    /// expands to its `k` vertex probes, the whole batch flows through the
    /// fleet's run-sharded kernel once, and answers fold back in input
    /// order.
    pub fn data_depends_on_data_batch(
        &self,
        queries: &[(RunId, DataItemId, DataItemId)],
    ) -> Result<Vec<bool>, FleetError> {
        let mut probes = Vec::new();
        let mut spans = Vec::with_capacity(queries.len());
        for &(run, x, x_prime) in queries {
            let out = self.item(run, x)?.producer;
            let start = probes.len();
            probes.extend(
                self.item(run, x_prime)?
                    .consumers
                    .iter()
                    .map(|&v| (run, v, out)),
            );
            spans.push(start..probes.len());
        }
        let answers = self.fleet.answer_batch(&probes)?;
        Ok(spans
            .into_iter()
            .map(|span| answers[span].iter().any(|&a| a))
            .collect())
    }

    /// Bulk [`data_depends_on_module`](Self::data_depends_on_module).
    pub fn data_depends_on_module_batch(
        &self,
        queries: &[(RunId, DataItemId, RunVertexId)],
    ) -> Result<Vec<bool>, FleetError> {
        let probes = queries
            .iter()
            .map(|&(run, x, v)| Ok((run, v, self.item(run, x)?.producer)))
            .collect::<Result<Vec<_>, FleetError>>()?;
        self.fleet.answer_batch(&probes)
    }

    /// Bulk [`module_depends_on_data`](Self::module_depends_on_data).
    pub fn module_depends_on_data_batch(
        &self,
        queries: &[(RunId, RunVertexId, DataItemId)],
    ) -> Result<Vec<bool>, FleetError> {
        let mut probes = Vec::new();
        let mut spans = Vec::with_capacity(queries.len());
        for &(run, v, x) in queries {
            let start = probes.len();
            probes.extend(self.item(run, x)?.consumers.iter().map(|&u| (run, u, v)));
            spans.push(start..probes.len());
        }
        let answers = self.fleet.answer_batch(&probes)?;
        Ok(spans
            .into_iter()
            .map(|span| answers[span].iter().any(|&a| a))
            .collect())
    }
}

// ====================================================================
// Persistence (the unified snapshot layer, [`wfp_skl::snapshot`])
// ====================================================================

impl<'s> FleetIndex<'s, SpecScheme> {
    /// Serializes the whole index — the fleet's spec record, warm memo and
    /// run segments ([`FleetEngine::write_snapshot`]) plus one
    /// [`snapshot::seg::RUN_ITEMS`] segment per registry slot — into a
    /// standalone snapshot container. Fails like the fleet's own save if
    /// any run is still in-flight.
    pub fn save(&self, graph: &wfp_graph::DiGraph) -> Result<Vec<u8>, FleetError> {
        let mut w = snapshot::SnapshotWriter::new();
        self.fleet.write_snapshot(graph, &mut w)?;
        for slot in 0..self.fleet.slot_count() {
            let items = self.items_for_slot(slot);
            let mut payload = Vec::new();
            snapshot::put_varint(&mut payload, items.len() as u64);
            for item in items {
                snapshot::put_str(&mut payload, &item.name);
                snapshot::put_varint(&mut payload, item.producer.raw() as u64);
                snapshot::put_varint(&mut payload, item.consumers.len() as u64);
                for v in &item.consumers {
                    snapshot::put_varint(&mut payload, v.raw() as u64);
                }
            }
            w.push(snapshot::seg::RUN_ITEMS, payload);
        }
        Ok(w.finish())
    }

    /// Restores a [`save`](Self::save)d index: `bytes` are copied once
    /// into a shared buffer, the fleet comes back warm and byte-identical
    /// over it ([`FleetEngine::read_snapshot`]), and every run's data
    /// items are re-registered under their original [`RunId`]s. Item
    /// vertex references are validated against the restored runs' vertex
    /// counts, so a malformed snapshot errors instead of panicking at
    /// query time. Returns the index plus the specification graph it
    /// serves.
    pub fn load(bytes: &[u8]) -> Result<(Self, wfp_graph::DiGraph), snapshot::FormatError> {
        let buf: Arc<[u8]> = Arc::from(bytes);
        let r = snapshot::SnapshotReader::parse(&buf)?;
        let (fleet, graph, _) = FleetEngine::read_snapshot(&r, &buf)?;
        let mut items: Vec<Vec<DataItem>> = Vec::with_capacity(fleet.slot_count());
        for (slot, payload) in r.all(snapshot::seg::RUN_ITEMS).enumerate() {
            let id = RunId(slot as u32);
            let bound = fleet.vertex_count(id).unwrap_or(0) as u64;
            let mut cur = snapshot::Cursor::new(payload);
            // every item costs at least a name length, a producer and a
            // consumer count
            let count = cur.guarded_count(3)?;
            let mut run_items = Vec::with_capacity(count);
            for _ in 0..count {
                let name = cur.str()?.to_string();
                let producer = cur.varint()?;
                let k = cur.guarded_count(1)?;
                let mut consumers = Vec::with_capacity(k);
                for _ in 0..k {
                    let v = cur.varint()?;
                    if v >= bound {
                        return Err(snapshot::FormatError::Malformed(
                            "item consumer out of the run's vertex range",
                        ));
                    }
                    consumers.push(RunVertexId(v as u32));
                }
                if producer >= bound {
                    return Err(snapshot::FormatError::Malformed(
                        "item producer out of the run's vertex range",
                    ));
                }
                run_items.push(DataItem {
                    name,
                    producer: RunVertexId(producer as u32),
                    consumers,
                });
            }
            cur.finish()?;
            items.push(run_items);
        }
        if items.len() != fleet.slot_count() {
            return Err(snapshot::FormatError::Malformed(
                "item segment count mismatches the fleet manifest",
            ));
        }
        Ok((FleetIndex { fleet, items }, graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::RunDataBuilder;
    use crate::index::ProvenanceIndex;
    use wfp_model::fixtures::{paper_run, paper_spec, paper_vertex};
    use wfp_model::{Run, RunEdgeId, Specification};
    use wfp_skl::LabeledRun;
    use wfp_speclabel::{SchemeKind, SpecScheme};

    fn edge(run: &Run, spec: &Specification, from: &str, to: &str) -> RunEdgeId {
        let u = paper_vertex(spec, run, from);
        let v = paper_vertex(spec, run, to);
        run.edge_ids()
            .find(|&e| run.edge(e) == (u, v))
            .unwrap_or_else(|| panic!("no edge {from} -> {to}"))
    }

    fn figure_11_data(spec: &Specification, run: &Run) -> (crate::RunData, Vec<DataItemId>) {
        let mut b = RunDataBuilder::new(run);
        let e_ab1 = edge(run, spec, "a1", "b1");
        let e_ab3 = edge(run, spec, "a1", "b3");
        let e_b1c1 = edge(run, spec, "b1", "c1");
        let e_c3h1 = edge(run, spec, "c3", "h1");
        let ids = vec![
            b.add_item("x1", &[e_ab1, e_ab3]).unwrap(),
            b.add_item("x2", &[e_ab1]).unwrap(),
            b.add_item("x4", &[e_b1c1]).unwrap(),
            b.add_item("x6", &[e_c3h1]).unwrap(),
        ];
        (b.finish(), ids)
    }

    #[test]
    fn fleet_index_matches_per_run_provenance_index_across_runs() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let (data, ids) = figure_11_data(&spec, &run);
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Bfs, spec.graph()),
            &run,
        )
        .unwrap();
        let per_run = ProvenanceIndex::build(&labeled, &data);

        let ctx =
            SpecContext::for_spec(&spec, SpecScheme::build(SchemeKind::Bfs, spec.graph())).shared();
        let mut fleet = FleetIndex::new(ctx);
        let runs: Vec<RunId> = (0..3)
            .map(|_| fleet.register_run(labeled.labels(), &data))
            .collect();

        // triples mixing all three runs, every (x, x') pair
        let mut dd = Vec::new();
        for &x in &ids {
            for &y in &ids {
                for &r in &runs {
                    dd.push((r, x, y));
                }
            }
        }
        let batch = fleet.data_depends_on_data_batch(&dd).unwrap();
        for (&(r, x, y), &ans) in dd.iter().zip(&batch) {
            assert_eq!(ans, per_run.data_depends_on_data(x, y), "({r}, {x}, {y})");
            assert_eq!(ans, fleet.data_depends_on_data(r, x, y).unwrap());
        }

        // data-on-module and module-on-data across runs
        let mut dm = Vec::new();
        for &x in &ids {
            for v in run.vertices() {
                for &r in &runs {
                    dm.push((r, x, v));
                }
            }
        }
        let batch = fleet.data_depends_on_module_batch(&dm).unwrap();
        for (&(r, x, v), &ans) in dm.iter().zip(&batch) {
            assert_eq!(ans, per_run.data_depends_on_module(x, v), "({r}, {x}, {v})");
        }
        let md: Vec<_> = dm.iter().map(|&(r, x, v)| (r, v, x)).collect();
        let batch = fleet.module_depends_on_data_batch(&md).unwrap();
        for (&(r, v, x), &ans) in md.iter().zip(&batch) {
            assert_eq!(ans, per_run.module_depends_on_data(v, x), "({r}, {v}, {x})");
        }

        // (run, item) keying works
        assert_eq!(fleet.item_count(runs[0]).unwrap(), 4);
        assert_eq!(fleet.item_by_name(runs[1], "x6"), Some(ids[3]));
        assert_eq!(fleet.item_by_name(runs[1], "zz"), None);
        // one context serves all three runs
        assert_eq!(fleet.stats().packed, 3);
        assert_eq!(fleet.stats().context_refs, 1);
    }

    #[test]
    fn eviction_clears_items_and_rejects_queries() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let (data, ids) = figure_11_data(&spec, &run);
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        let ctx =
            SpecContext::for_spec(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph())).shared();
        let mut fleet = FleetIndex::new(ctx);
        let a = fleet.register_run(labeled.labels(), &data);
        let b = fleet.register_run(labeled.labels(), &data);
        fleet.evict(a).unwrap();
        assert!(matches!(
            fleet.data_depends_on_data(a, ids[0], ids[1]),
            Err(FleetError::Evicted(_))
        ));
        assert!(matches!(fleet.item_count(a), Err(FleetError::Evicted(_))));
        // the surviving run still answers
        assert!(fleet.data_depends_on_data(b, ids[2], ids[0]).unwrap());
        // a valid run with an out-of-range item reports the item, not the run
        let err = fleet
            .data_depends_on_data(b, DataItemId(99), ids[0])
            .unwrap_err();
        assert!(
            matches!(err, FleetError::UnknownItem { item: 99, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("no data item #99"), "{err}");
        assert!(matches!(
            fleet.data_depends_on_data_batch(&[(a, ids[0], ids[1])]),
            Err(FleetError::Evicted(_))
        ));
    }

    #[test]
    fn save_load_round_trips_items_and_answers() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let (data, ids) = figure_11_data(&spec, &run);
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Bfs, spec.graph()),
            &run,
        )
        .unwrap();
        let ctx =
            SpecContext::for_spec(&spec, SpecScheme::build(SchemeKind::Bfs, spec.graph())).shared();
        let mut index = FleetIndex::new(ctx);
        let runs: Vec<RunId> = (0..3)
            .map(|_| index.register_run(labeled.labels(), &data))
            .collect();
        index.evict(runs[1]).unwrap();

        // warm traffic + the expected answers
        let mut dd = Vec::new();
        for &x in &ids {
            for &y in &ids {
                for r in [runs[0], runs[2]] {
                    dd.push((r, x, y));
                }
            }
        }
        let before = index.data_depends_on_data_batch(&dd).unwrap();

        let bytes = index.save(spec.graph()).unwrap();
        let (loaded, graph) = FleetIndex::load(&bytes).unwrap();
        assert_eq!(graph.edges(), spec.graph().edges());
        assert_eq!(loaded.data_depends_on_data_batch(&dd).unwrap(), before);
        // items and tombstones restored under the original ids
        assert_eq!(loaded.item_count(runs[0]).unwrap(), 4);
        assert_eq!(loaded.item_by_name(runs[2], "x6"), Some(ids[3]));
        assert!(matches!(
            loaded.item_count(runs[1]),
            Err(FleetError::Evicted(_))
        ));
        // the shared memo restored warm: the loaded index re-answers the
        // same traffic without touching the skeleton again
        assert_eq!(loaded.stats().engine.skeleton_probes, 0);
    }

    #[test]
    fn load_rejects_out_of_range_item_references() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let (data, _) = figure_11_data(&spec, &run);
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        let ctx =
            SpecContext::for_spec(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph())).shared();
        let mut index = FleetIndex::new(ctx);
        index.register_run(labeled.labels(), &data);
        let bytes = index.save(spec.graph()).unwrap();

        // corrupt-but-CRC-consistent snapshots still validate structure:
        // rebuild the container with an item pointing past the run
        let r = snapshot::SnapshotReader::parse(&bytes).unwrap();
        let mut w = snapshot::SnapshotWriter::new();
        for &(kind, payload) in r.segments() {
            if kind == snapshot::seg::RUN_ITEMS {
                let mut evil = Vec::new();
                snapshot::put_varint(&mut evil, 1);
                snapshot::put_str(&mut evil, "evil");
                snapshot::put_varint(&mut evil, 9999); // producer out of range
                snapshot::put_varint(&mut evil, 0);
                w.push(kind, evil);
            } else {
                w.push(kind, payload.to_vec());
            }
        }
        assert!(matches!(
            FleetIndex::load(&w.finish()),
            Err(snapshot::FormatError::Malformed(_))
        ));
    }
}
