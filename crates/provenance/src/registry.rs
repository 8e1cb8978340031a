//! Registry data provenance: §6 dependency queries keyed by
//! `(spec, run, item)` — the multi-spec layer above [`crate::FleetIndex`].
//!
//! A [`FleetIndex`](crate::FleetIndex) answers item-level queries across
//! many runs of *one* specification; [`RegistryIndex`] routes the same
//! predicates across many specifications, each served by its own fleet
//! inside a [`ServiceRegistry`]. Items are stored in the facade (they are
//! a few vertex references per item — cheap next to label columns), while
//! the label state below them participates fully in the registry's lazy
//! loading and pressure-driven eviction: a query against an offloaded
//! spec transparently reloads its fleet, answers, and re-enforces the
//! byte budget.
//!
//! Queries take `&mut self` for exactly that reason — residency may
//! change under a probe. Batches may mix specs and runs freely; answers
//! return in input order.

use wfp_graph::FxHashMap;
use wfp_model::{RunVertexId, Specification};
use wfp_skl::fleet::{FleetError, RunId};
use wfp_skl::registry::{RegistryError, RegistryStats, ServiceRegistry, SpecId};
use wfp_skl::RunLabel;
use wfp_speclabel::SchemeKind;

use crate::data::{DataItem, DataItemId, RunData};

/// A multi-spec provenance index: item-level §6 queries routed through a
/// [`ServiceRegistry`]. See the module docs.
pub struct RegistryIndex<'s> {
    registry: ServiceRegistry<'s>,
    /// Per spec: the registered items of each run, indexed by `RunId`
    /// slot. Kept out of the registry's eviction domain.
    items: FxHashMap<u64, Vec<Vec<DataItem>>>,
}

impl Default for RegistryIndex<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'s> RegistryIndex<'s> {
    /// An empty index over a fresh, memory-backed registry.
    pub fn new() -> Self {
        RegistryIndex {
            registry: ServiceRegistry::new(),
            items: FxHashMap::default(),
        }
    }

    /// An empty index with a registry byte budget (see
    /// [`ServiceRegistry::with_budget`]).
    pub fn with_budget(budget: usize) -> Self {
        RegistryIndex {
            registry: ServiceRegistry::with_budget(budget),
            items: FxHashMap::default(),
        }
    }

    /// Wraps an existing registry. Its already-registered runs have no
    /// items until registered here — prefer registering through the
    /// index.
    pub fn from_registry(registry: ServiceRegistry<'s>) -> Self {
        RegistryIndex {
            registry,
            items: FxHashMap::default(),
        }
    }

    /// The underlying registry (for vertex-level probes and stats).
    pub fn registry(&self) -> &ServiceRegistry<'s> {
        &self.registry
    }

    /// The underlying registry, mutably (budget changes, explicit
    /// eviction, persistence).
    pub fn registry_mut(&mut self) -> &mut ServiceRegistry<'s> {
        &mut self.registry
    }

    /// Registers a specification for serving under `kind`.
    pub fn register_spec(
        &mut self,
        spec: &Specification,
        kind: SchemeKind,
    ) -> Result<SpecId, RegistryError> {
        let id = self.registry.register_spec(spec, kind)?;
        self.items.entry(id.0).or_default();
        Ok(id)
    }

    /// Registers one run of `spec`: its labels (into the spec's fleet)
    /// and its data items.
    pub fn register_run(
        &mut self,
        spec: SpecId,
        labels: &[RunLabel],
        data: &RunData,
    ) -> Result<RunId, RegistryError> {
        let run = self.registry.register_labels(spec, labels)?;
        let slots = self.items.entry(spec.0).or_default();
        while slots.len() <= run.index() {
            slots.push(Vec::new());
        }
        slots[run.index()] = data.items().map(|(_, item)| item.clone()).collect();
        Ok(run)
    }

    /// Number of items registered for `(spec, run)`.
    pub fn item_count(&self, spec: SpecId, run: RunId) -> Result<usize, RegistryError> {
        self.registry.run_count(spec)?; // validates the spec id
        Ok(self
            .items
            .get(&spec.0)
            .and_then(|slots| slots.get(run.index()))
            .map_or(0, Vec::len))
    }

    /// Aggregate registry accounting (residency, budget, evictions).
    pub fn stats(&self) -> RegistryStats {
        self.registry.stats()
    }

    fn item(&self, spec: SpecId, run: RunId, x: DataItemId) -> Result<&DataItem, RegistryError> {
        if !self.registry.contains(spec) {
            return Err(RegistryError::UnknownSpec(spec));
        }
        self.items
            .get(&spec.0)
            .and_then(|slots| slots.get(run.index()))
            .and_then(|items| items.get(x.index()))
            .ok_or(RegistryError::Fleet {
                spec,
                error: FleetError::UnknownItem { run, item: x.0 },
            })
    }

    // ---------------- §6 dependency queries, cross-spec ----------------

    /// Does data item `x` of `(spec, run)` depend on data item `x'` of
    /// the same run?
    pub fn data_depends_on_data(
        &mut self,
        spec: SpecId,
        run: RunId,
        x: DataItemId,
        x_prime: DataItemId,
    ) -> Result<bool, RegistryError> {
        let out = self.item(spec, run, x)?.producer;
        let consumers = self.item(spec, run, x_prime)?.consumers.clone();
        for v in consumers {
            if self.registry.answer(spec, run, v, out)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Does data item `x` of `(spec, run)` depend on module execution
    /// `v`?
    pub fn data_depends_on_module(
        &mut self,
        spec: SpecId,
        run: RunId,
        x: DataItemId,
        v: RunVertexId,
    ) -> Result<bool, RegistryError> {
        let out = self.item(spec, run, x)?.producer;
        self.registry.answer(spec, run, v, out)
    }

    /// Does module execution `v` of `(spec, run)` depend on data item
    /// `x`?
    pub fn module_depends_on_data(
        &mut self,
        spec: SpecId,
        run: RunId,
        v: RunVertexId,
        x: DataItemId,
    ) -> Result<bool, RegistryError> {
        let consumers = self.item(spec, run, x)?.consumers.clone();
        for u in consumers {
            if self.registry.answer(spec, run, u, v)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Bulk [`data_depends_on_data`](Self::data_depends_on_data) over
    /// `(spec, run, x, x')` tuples that may mix specs and runs freely:
    /// every tuple expands to its `k` vertex probes, the whole batch
    /// flows through the registry's spec- and run-sharded kernels once
    /// (lazily loading fleets as their first probe arrives), and answers
    /// fold back in input order.
    pub fn data_depends_on_data_batch(
        &mut self,
        queries: &[(SpecId, RunId, DataItemId, DataItemId)],
    ) -> Result<Vec<bool>, RegistryError> {
        let mut probes = Vec::new();
        let mut spans = Vec::with_capacity(queries.len());
        for &(spec, run, x, x_prime) in queries {
            let out = self.item(spec, run, x)?.producer;
            let start = probes.len();
            probes.extend(
                self.item(spec, run, x_prime)?
                    .consumers
                    .iter()
                    .map(|&v| (spec, run, v, out)),
            );
            spans.push(start..probes.len());
        }
        let answers = self.registry.answer_batch(&probes)?;
        Ok(spans
            .into_iter()
            .map(|span| answers[span].iter().any(|&a| a))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::attach_data;
    use wfp_model::fixtures::{paper_run, paper_spec};
    use wfp_skl::{label_run, LabeledRun};
    use wfp_speclabel::SpecScheme;

    #[test]
    fn registry_facade_matches_per_run_provenance_index() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let data = attach_data(&run, 0xC0FFEE, 1.5);
        let mut index = RegistryIndex::new();
        let mut ids = Vec::new();
        for kind in [SchemeKind::Tcm, SchemeKind::Chain, SchemeKind::Hop2] {
            let spec_id = index.register_spec(&spec, kind).unwrap();
            let (labels, _) = label_run(&spec, &run).unwrap();
            let rid = index.register_run(spec_id, &labels, &data).unwrap();
            ids.push((spec_id, rid, kind));
        }

        // per-run oracle: the single-run §6 index over the same items
        let item_count = index.item_count(ids[0].0, ids[0].1).unwrap();
        assert!(item_count > 1);
        let mut queries = Vec::new();
        for x in 0..item_count as u32 {
            for y in 0..item_count as u32 {
                for &(spec_id, rid, _) in &ids {
                    queries.push((spec_id, rid, DataItemId(x), DataItemId(y)));
                }
            }
        }
        let batched = index.data_depends_on_data_batch(&queries).unwrap();
        for (i, &(spec_id, rid, kind)) in ids.iter().enumerate() {
            let labeled =
                LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
            let oracle = crate::ProvenanceIndex::build(&labeled, &data);
            for x in 0..item_count as u32 {
                for y in 0..item_count as u32 {
                    let want = oracle.data_depends_on_data(DataItemId(x), DataItemId(y));
                    assert_eq!(
                        index
                            .data_depends_on_data(spec_id, rid, DataItemId(x), DataItemId(y))
                            .unwrap(),
                        want,
                        "{kind}: x{x} on x{y}"
                    );
                    let pos = (x as usize * item_count + y as usize) * ids.len() + i;
                    assert_eq!(batched[pos], want, "{kind}: batched x{x} on x{y}");
                }
            }
        }

        // the same answers survive eviction + transparent reload
        for &(spec_id, _, _) in &ids {
            index.registry_mut().evict(spec_id).unwrap();
        }
        assert_eq!(index.data_depends_on_data_batch(&queries).unwrap(), batched);
        assert_eq!(index.stats().lazy_loads, ids.len() as u64);

        // unknown item and unknown spec are typed errors
        assert!(matches!(
            index.data_depends_on_data(ids[0].0, ids[0].1, DataItemId(0), DataItemId(9999)),
            Err(RegistryError::Fleet {
                error: FleetError::UnknownItem { .. },
                ..
            })
        ));
        assert!(matches!(
            index.item_count(SpecId(1), RunId(0)),
            Err(RegistryError::UnknownSpec(_))
        ));
    }
}
