//! A compact, persistent provenance store.
//!
//! The paper's motivation is storing provenance *in a database* and
//! answering dependency queries from labels alone — without loading the run
//! graph. This module serializes the data labels of §6 into the unified
//! snapshot container ([`wfp_skl::snapshot`]): one CRC-protected
//! [`seg::PROVENANCE_ITEMS`] segment on the shared framing layer, so a
//! damaged or foreign buffer is a typed [`FormatError`]. Every §6 query is
//! answered from the deserialized form plus the specification's skeleton
//! index.

use wfp_model::ModuleId;
use wfp_skl::snapshot::{self, put_str, put_varint, seg, Cursor, FormatError, SnapshotReader};
use wfp_skl::{predicate, predicate_memo, LabeledRun, RunLabel, SharedMemo};
use wfp_speclabel::SpecIndex;

use crate::data::{DataItemId, RunData};
use crate::index::{DataLabel, ProvenanceIndex};

fn put_label(buf: &mut Vec<u8>, l: &RunLabel) {
    buf.extend_from_slice(&l.q1.to_le_bytes());
    buf.extend_from_slice(&l.q2.to_le_bytes());
    buf.extend_from_slice(&l.q3.to_le_bytes());
    buf.extend_from_slice(&l.origin.raw().to_le_bytes());
}

fn get_label(cur: &mut Cursor<'_>) -> Result<RunLabel, FormatError> {
    Ok(RunLabel {
        q1: cur.u32()?,
        q2: cur.u32()?,
        q3: cur.u32()?,
        origin: ModuleId(cur.u32()?),
    })
}

/// Bytes per serialized label.
const LABEL_BYTES: usize = 16;

/// Serializes the data labels of `data` over `labeled` into a snapshot
/// container (see the module docs).
pub fn serialize<S: SpecIndex>(labeled: &LabeledRun<S>, data: &RunData) -> Vec<u8> {
    let index = ProvenanceIndex::build(labeled, data);
    let mut payload = Vec::with_capacity(8 + 32 * data.item_count());
    put_varint(&mut payload, data.item_count() as u64);
    for (id, item) in data.items() {
        let label = index.label(id);
        put_str(&mut payload, &item.name);
        put_label(&mut payload, &label.output);
        put_varint(&mut payload, label.inputs.len() as u64);
        for input in &label.inputs {
            put_label(&mut payload, input);
        }
    }
    let mut w = snapshot::SnapshotWriter::new();
    w.push(seg::PROVENANCE_ITEMS, payload);
    w.finish()
}

/// A provenance store loaded from bytes: data labels only, no run graph.
#[derive(Debug)]
pub struct StoredProvenance {
    items: Vec<(String, DataLabel)>,
    /// memo side for the batch path, computed once at deserialize time
    origin_bound: u32,
}

impl StoredProvenance {
    /// Parses a buffer produced by [`serialize`].
    pub fn deserialize(buf: &[u8]) -> Result<Self, FormatError> {
        let r = SnapshotReader::parse(buf)?;
        let items = Self::parse_items(r.first(seg::PROVENANCE_ITEMS)?)?;
        let origin_bound = SharedMemo::origin_bound_of(
            items
                .iter()
                .flat_map(|(_, l)| std::iter::once(&l.output).chain(l.inputs.iter())),
        );
        Ok(StoredProvenance {
            items,
            origin_bound,
        })
    }

    /// The container segment payload: varint counts and length-prefixed
    /// names on the shared framing layer. Every count is guarded against
    /// the remaining payload before it sizes an allocation.
    fn parse_items(payload: &[u8]) -> Result<Vec<(String, DataLabel)>, FormatError> {
        let mut cur = Cursor::new(payload);
        // every item costs at least a name length, an output label and an
        // input count
        let count = cur.guarded_count(1 + LABEL_BYTES + 1)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            let name = cur.str()?.to_string();
            let output = get_label(&mut cur)?;
            let k = cur.guarded_count(LABEL_BYTES)?;
            let mut inputs = Vec::with_capacity(k);
            for _ in 0..k {
                inputs.push(get_label(&mut cur)?);
            }
            items.push((name, DataLabel { output, inputs }));
        }
        cur.finish()?;
        Ok(items)
    }

    /// Number of stored items.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Looks an item up by name.
    pub fn item_by_name(&self, name: &str) -> Option<DataItemId> {
        self.items
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| DataItemId(i as u32))
    }

    /// The stored label of item `x`.
    pub fn label(&self, x: DataItemId) -> &DataLabel {
        &self.items[x.index()].1
    }

    /// The stored name of item `x`.
    pub fn name(&self, x: DataItemId) -> &str {
        &self.items[x.index()].0
    }

    /// §6 data-on-data dependency, answered from stored labels plus the
    /// specification's skeleton index.
    pub fn data_depends_on_data<S: SpecIndex>(
        &self,
        x: DataItemId,
        x_prime: DataItemId,
        skeleton: &S,
    ) -> bool {
        let out = &self.items[x.index()].1.output;
        self.items[x_prime.index()]
            .1
            .inputs
            .iter()
            .any(|v| predicate(v, out, skeleton))
    }

    /// §6 data-on-module dependency from a stored module label.
    pub fn data_depends_on_module<S: SpecIndex>(
        &self,
        x: DataItemId,
        module_label: &RunLabel,
        skeleton: &S,
    ) -> bool {
        predicate(module_label, &self.items[x.index()].1.output, skeleton)
    }

    /// A skeleton memo sized for every origin appearing in the store —
    /// built per batch call, *not* persisted: unlike [`ProvenanceIndex`],
    /// the skeleton here is caller-supplied and may differ between calls,
    /// so cross-call caching would serve stale answers. Empty (and never
    /// consulted, see [`predicate_memo`]) under constant-time skeletons.
    fn memo<S: SpecIndex>(&self, skeleton: &S) -> SharedMemo {
        SharedMemo::for_skeleton(skeleton, || self.origin_bound)
    }

    /// Bulk [`data_depends_on_data`](Self::data_depends_on_data): answers
    /// every `(x, x')` pair in order from stored labels alone, sharing one
    /// skeleton memo across the batch — the store-side counterpart of
    /// [`wfp_skl::QueryEngine::answer_batch`].
    pub fn data_depends_on_data_batch<S: SpecIndex>(
        &self,
        pairs: &[(DataItemId, DataItemId)],
        skeleton: &S,
    ) -> Vec<bool> {
        let memo = self.memo(skeleton);
        pairs
            .iter()
            .map(|&(x, x_prime)| {
                let out = &self.items[x.index()].1.output;
                self.items[x_prime.index()]
                    .1
                    .inputs
                    .iter()
                    .any(|v| predicate_memo(v, out, skeleton, &memo))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::RunDataBuilder;
    use crate::gen::attach_data;
    use wfp_model::fixtures::{paper_run, paper_spec};
    use wfp_model::RunEdgeId;
    use wfp_skl::LabeledRun;
    use wfp_speclabel::{SchemeKind, SpecScheme};

    #[test]
    fn round_trip_preserves_labels_and_answers() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let scheme = SpecScheme::build(SchemeKind::Tcm, spec.graph());
        let labeled = LabeledRun::build(&spec, scheme, &run).unwrap();
        let data = attach_data(&run, 11, 1.5);
        let live = ProvenanceIndex::build(&labeled, &data);

        let bytes = serialize(&labeled, &data);
        let stored = StoredProvenance::deserialize(&bytes).unwrap();
        assert_eq!(stored.item_count(), data.item_count());
        for (id, item) in data.items() {
            assert_eq!(stored.name(id), item.name);
            assert_eq!(stored.label(id), live.label(id));
        }
        // query equivalence between the live index and the store
        let skeleton = labeled.skeleton();
        for (x, _) in data.items() {
            for (y, _) in data.items() {
                assert_eq!(
                    stored.data_depends_on_data(x, y, skeleton),
                    live.data_depends_on_data(x, y),
                    "({x}, {y})"
                );
            }
        }
        // ... and between the store's scalar and batch paths
        let pairs: Vec<_> = data
            .items()
            .flat_map(|(x, _)| data.items().map(move |(y, _)| (x, y)))
            .collect();
        let batch = stored.data_depends_on_data_batch(&pairs, skeleton);
        for (&(x, y), &ans) in pairs.iter().zip(&batch) {
            assert_eq!(
                ans,
                stored.data_depends_on_data(x, y, skeleton),
                "({x}, {y})"
            );
        }
    }

    #[test]
    fn corrupted_buffers_are_rejected() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let scheme = SpecScheme::build(SchemeKind::Bfs, spec.graph());
        let labeled = LabeledRun::build(&spec, scheme, &run).unwrap();
        let mut b = RunDataBuilder::new(&run);
        b.add_item("x", &[RunEdgeId(0)]).unwrap();
        let data = b.finish();
        let bytes = serialize(&labeled, &data);

        // container framing: truncation and payload flips are typed errors
        assert!(StoredProvenance::deserialize(&bytes[..bytes.len() - 1]).is_err());
        let mut flipped = bytes.to_vec();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            StoredProvenance::deserialize(&flipped),
            Err(FormatError::ChecksumMismatch { .. })
        ));
        // anything that is not a container fails on the container magic,
        // including the retired `WFPV` framing (its magic is the
        // little-endian u32 0x5746_5056), here as a whole empty store
        let mut retired = 0x5746_5056u32.to_le_bytes().to_vec();
        retired.extend_from_slice(&[1, 0, 0, 0, 0, 0]); // version 1, no items
        for not_a_container in [&[0u8; 10][..], &[], b"WFPV", &retired[..]] {
            assert_eq!(
                StoredProvenance::deserialize(not_a_container).unwrap_err(),
                FormatError::BadMagic
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let scheme = SpecScheme::build(SchemeKind::Tcm, spec.graph());
        let labeled = LabeledRun::build(&spec, scheme, &run).unwrap();
        let mut b = RunDataBuilder::new(&run);
        b.add_item("alpha", &[RunEdgeId(0)]).unwrap();
        b.add_item("beta", &[RunEdgeId(1)]).unwrap();
        let data = b.finish();
        let stored = StoredProvenance::deserialize(&serialize(&labeled, &data)).unwrap();
        assert_eq!(stored.item_by_name("beta"), Some(DataItemId(1)));
        assert_eq!(stored.item_by_name("gamma"), None);
    }
}
