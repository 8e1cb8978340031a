//! Data-provenance queries over labeled runs (paper §6).
//!
//! Each data item `x` is labeled `(φ(Output(x)), {φ(v) | v ∈ Inputs(x)})`.
//! Dependencies then reduce to module reachability:
//!
//! * data-on-data: `x` depends on `x'` iff some input module of `x'`
//!   reaches `Output(x)`;
//! * data-on-module: `x` depends on `v` iff `v` reaches `Output(x)`;
//! * module-on-data (a symmetric convenience this library adds): `v`
//!   depends on `x` iff some input module of `x` reaches `v`.
//!
//! Label length grows by a factor `k + 1` and query time by a factor `k`,
//! where `k = max_x |Inputs(x)|` (§6) — [`ProvenanceIndex::label_bits`]
//! reports the actual sizes.

use wfp_model::RunVertexId;
use wfp_skl::{predicate, predicate_memo, LabeledRun, RunLabel, SharedMemo};
use wfp_speclabel::SpecIndex;

use crate::data::{DataItemId, RunData};

/// The label of a data item: the producer's label plus one label per input
/// module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataLabel {
    /// `φ(Output(x))`.
    pub output: RunLabel,
    /// `{φ(v) | v ∈ Inputs(x)}`.
    pub inputs: Vec<RunLabel>,
}

/// Provenance index: data labels over a labeled run.
pub struct ProvenanceIndex<'a, S> {
    labeled: &'a LabeledRun<S>,
    labels: Vec<DataLabel>,
    /// one concurrent-read memo shared by every `*_batch` call (interior-
    /// mutable but `Sync`, so the index stays shareable across threads
    /// when `S` is `Sync`); empty — and never consulted, see
    /// [`predicate_memo`] — under constant-time skeletons
    memo: SharedMemo,
}

impl<'a, S: SpecIndex> ProvenanceIndex<'a, S> {
    /// Labels every data item. `O(Σ_e |Data(e)|)` time (§6).
    pub fn build(labeled: &'a LabeledRun<S>, data: &RunData) -> Self {
        let labels = data
            .items()
            .map(|(_, item)| DataLabel {
                output: *labeled.label(item.producer),
                inputs: item.consumers.iter().map(|&v| *labeled.label(v)).collect(),
            })
            .collect();
        let memo = SharedMemo::for_skeleton(labeled.skeleton(), || {
            SharedMemo::origin_bound_of(labeled.labels())
        });
        ProvenanceIndex {
            labeled,
            labels,
            memo,
        }
    }

    /// The label of item `x`.
    pub fn label(&self, x: DataItemId) -> &DataLabel {
        &self.labels[x.index()]
    }

    /// Number of labeled items.
    pub fn item_count(&self) -> usize {
        self.labels.len()
    }

    /// Does data item `x` depend on data item `x'`? (`x'` flowed — possibly
    /// through many modules — into the computation that produced `x`.)
    pub fn data_depends_on_data(&self, x: DataItemId, x_prime: DataItemId) -> bool {
        let out = &self.labels[x.index()].output;
        self.labels[x_prime.index()]
            .inputs
            .iter()
            .any(|v| predicate(v, out, self.labeled.skeleton()))
    }

    /// Does data item `x` depend on module execution `v`?
    pub fn data_depends_on_module(&self, x: DataItemId, v: RunVertexId) -> bool {
        predicate(
            self.labeled.label(v),
            &self.labels[x.index()].output,
            self.labeled.skeleton(),
        )
    }

    /// Does module execution `v` depend on data item `x`? (Did `x`'s value
    /// possibly influence `v`?)
    pub fn module_depends_on_data(&self, v: RunVertexId, x: DataItemId) -> bool {
        let target = self.labeled.label(v);
        self.labels[x.index()]
            .inputs
            .iter()
            .any(|u| predicate(u, target, self.labeled.skeleton()))
    }

    // ---------------- bulk dependency queries --------------------------

    /// Bulk [`data_depends_on_data`](Self::data_depends_on_data): answers
    /// every `(x, x')` pair in order through the index's shared skeleton
    /// memo — warm across calls. Item pairs expand to `k` module-label
    /// predicates each, and their origins repeat heavily, so the memo
    /// amortizes the skeleton probes the way [`wfp_skl::QueryEngine`] does
    /// for vertex pairs.
    pub fn data_depends_on_data_batch(&self, pairs: &[(DataItemId, DataItemId)]) -> Vec<bool> {
        let skeleton = self.labeled.skeleton();
        pairs
            .iter()
            .map(|&(x, x_prime)| {
                let out = &self.labels[x.index()].output;
                self.labels[x_prime.index()]
                    .inputs
                    .iter()
                    .any(|v| predicate_memo(v, out, skeleton, &self.memo))
            })
            .collect()
    }

    /// Bulk [`data_depends_on_module`](Self::data_depends_on_module).
    pub fn data_depends_on_module_batch(&self, pairs: &[(DataItemId, RunVertexId)]) -> Vec<bool> {
        let skeleton = self.labeled.skeleton();
        pairs
            .iter()
            .map(|&(x, v)| {
                predicate_memo(
                    self.labeled.label(v),
                    &self.labels[x.index()].output,
                    skeleton,
                    &self.memo,
                )
            })
            .collect()
    }

    /// Bulk [`module_depends_on_data`](Self::module_depends_on_data).
    pub fn module_depends_on_data_batch(&self, pairs: &[(RunVertexId, DataItemId)]) -> Vec<bool> {
        let skeleton = self.labeled.skeleton();
        pairs
            .iter()
            .map(|&(v, x)| {
                let target = self.labeled.label(v);
                self.labels[x.index()]
                    .inputs
                    .iter()
                    .any(|u| predicate_memo(u, target, skeleton, &self.memo))
            })
            .collect()
    }

    /// Size in bits of item `x`'s label: `(|Inputs(x)| + 1) ×` the run's
    /// fixed label width (§6's `k + 1` factor).
    pub fn label_bits(&self, x: DataItemId) -> usize {
        (self.labels[x.index()].inputs.len() + 1) * self.labeled.fixed_label_bits()
    }

    /// Maximum data-label size in bits.
    pub fn max_label_bits(&self) -> usize {
        (0..self.labels.len())
            .map(|i| self.label_bits(DataItemId(i as u32)))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::RunDataBuilder;
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

    /// The Figure 11 / Example 10 scenario.
    fn figure_11() -> (Specification, Run, RunData, Vec<DataItemId>) {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let mut b = RunDataBuilder::new(&run);
        // x1 is read by both b1 and b3; x2 by c1; x3 on (b1,c1) wait —
        // following Figure 11: x1 on (a1,b1) and (a1,b3); x2 on (a1,b1)
        // path... The figure labels: {x1, x2} on (a1,b1), {x1, x3} on
        // (a1,b3), {x4, x5} on (b1,c1), {x6,x7,x8} on (c3,h1).
        let e_ab1 = edge(&run, &spec, "a1", "b1");
        let e_ab3 = edge(&run, &spec, "a1", "b3");
        let e_b1c1 = edge(&run, &spec, "b1", "c1");
        let e_c3h1 = edge(&run, &spec, "c3", "h1");
        let x1 = b.add_item("x1", &[e_ab1, e_ab3]).unwrap();
        let x2 = b.add_item("x2", &[e_ab1]).unwrap();
        let x3 = b.add_item("x3", &[e_ab3]).unwrap();
        let x4 = b.add_item("x4", &[e_b1c1]).unwrap();
        let x5 = b.add_item("x5", &[e_b1c1]).unwrap();
        let x6 = b.add_item("x6", &[e_c3h1]).unwrap();
        let data = b.finish();
        (spec, run, data, vec![x1, x2, x3, x4, x5, x6])
    }

    fn build_index(spec: &Specification, run: &Run) -> LabeledRun<SpecScheme> {
        let scheme = SpecScheme::build(SchemeKind::Tcm, spec.graph());
        LabeledRun::build(spec, scheme, run).unwrap()
    }

    #[test]
    fn example_10_x6_depends_on_x1() {
        let (spec, run, data, ids) = figure_11();
        let labeled = build_index(&spec, &run);
        let idx = ProvenanceIndex::build(&labeled, &data);
        let (x1, x2, x4, x6) = (ids[0], ids[1], ids[3], ids[5]);
        // x6 (output of c3) depends on x1 (inputs {b1, b3}): b3 reaches c3.
        assert!(idx.data_depends_on_data(x6, x1));
        // x6 does not depend on x2 (input b1 only — parallel fork copy).
        assert!(!idx.data_depends_on_data(x6, x2));
        // x4 (output of b1) depends on x1 and x2 but not on x6.
        assert!(idx.data_depends_on_data(x4, x1));
        assert!(idx.data_depends_on_data(x4, x2));
        assert!(!idx.data_depends_on_data(x4, x6));
        assert!(!idx.data_depends_on_data(x1, x4));
    }

    #[test]
    fn data_module_dependencies() {
        let (spec, run, data, ids) = figure_11();
        let labeled = build_index(&spec, &run);
        let idx = ProvenanceIndex::build(&labeled, &data);
        let x6 = ids[5];
        let a1 = paper_vertex(&spec, &run, "a1");
        let b3 = paper_vertex(&spec, &run, "b3");
        let b1 = paper_vertex(&spec, &run, "b1");
        let h1 = paper_vertex(&spec, &run, "h1");
        // x6 (made by c3) depends on a1 and b3, not on b1
        assert!(idx.data_depends_on_module(x6, a1));
        assert!(idx.data_depends_on_module(x6, b3));
        assert!(!idx.data_depends_on_module(x6, b1));
        // h1 depends on x6 (consumes it); b1 does not
        assert!(idx.module_depends_on_data(h1, x6));
        assert!(!idx.module_depends_on_data(b1, x6));
    }

    #[test]
    fn batch_queries_agree_with_scalar() {
        let (spec, run, data, ids) = figure_11();
        let labeled = build_index(&spec, &run);
        let idx = ProvenanceIndex::build(&labeled, &data);
        // data-on-data over the full cross product
        let dd_pairs: Vec<_> = ids
            .iter()
            .flat_map(|&x| ids.iter().map(move |&y| (x, y)))
            .collect();
        let batch = idx.data_depends_on_data_batch(&dd_pairs);
        for (&(x, y), &ans) in dd_pairs.iter().zip(&batch) {
            assert_eq!(ans, idx.data_depends_on_data(x, y), "({x}, {y})");
        }
        // data-on-module and module-on-data over every (item, vertex) pair
        let dm_pairs: Vec<_> = ids
            .iter()
            .flat_map(|&x| run.vertices().map(move |v| (x, v)))
            .collect();
        let batch = idx.data_depends_on_module_batch(&dm_pairs);
        for (&(x, v), &ans) in dm_pairs.iter().zip(&batch) {
            assert_eq!(ans, idx.data_depends_on_module(x, v), "({x}, {v})");
        }
        let md_pairs: Vec<_> = dm_pairs.iter().map(|&(x, v)| (v, x)).collect();
        let batch = idx.module_depends_on_data_batch(&md_pairs);
        for (&(v, x), &ans) in md_pairs.iter().zip(&batch) {
            assert_eq!(ans, idx.module_depends_on_data(v, x), "({v}, {x})");
        }
    }

    #[test]
    fn label_size_accounting_follows_k_plus_one() {
        let (spec, run, data, ids) = figure_11();
        let labeled = build_index(&spec, &run);
        let idx = ProvenanceIndex::build(&labeled, &data);
        let per = labeled.fixed_label_bits();
        // x1 has 2 inputs -> 3 module labels
        assert_eq!(idx.label_bits(ids[0]), 3 * per);
        // x2 has 1 input -> 2 module labels
        assert_eq!(idx.label_bits(ids[1]), 2 * per);
        assert_eq!(idx.max_label_bits(), 3 * per);
        assert_eq!(idx.item_count(), 6);
        assert_eq!(idx.label(ids[0]).inputs.len(), 2);
    }

    use crate::data::RunData;
}
