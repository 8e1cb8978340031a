//! Run labels, the labeling function φr and the predicate πr
//! (paper §4.4, Algorithms 2–3).
//!
//! A run label is the context's three-dimensional encoding `(q1, q2, q3)`
//! plus the skeleton label of the vertex's origin. We store the origin id
//! itself — exactly the paper's accounting, which charges `log n_G` bits
//! for the *pointer* to the (shared, amortized) skeleton label regardless
//! of that label's actual size (§7).

use wfp_model::{ModuleId, Run, RunVertexId, Specification};
use wfp_speclabel::SpecIndex;

use crate::bits::{gamma_bits, BitReader, BitWriter};
use crate::construct::{construct_plan_with_stats, ConstructError, ConstructStats};
use crate::orders::generate_three_orders;
use crate::snapshot::{self, FormatError};
use wfp_model::plan::ExecutionPlan;

/// The reachability label of one run vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLabel {
    /// Position of the vertex's context in the order `O1`.
    pub q1: u32,
    /// Position in `O2` (fork groups reversed).
    pub q2: u32,
    /// Position in `O3` (loop groups reversed).
    pub q3: u32,
    /// The origin module — the pointer to the skeleton label.
    pub origin: ModuleId,
}

/// How a query was decided — used by the §8.2 analysis ("reachability
/// queries on the run may frequently be answered using only the extended
/// labels").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryPath {
    /// Decided by the context encoding alone (an `F−`/`L−` LCA).
    ContextOnly,
    /// Delegated to the skeleton labels (a `+` LCA).
    Skeleton,
}

/// The predicate πr (Algorithm 3): does the vertex labeled `a` reach the
/// vertex labeled `b`?
#[inline]
pub fn predicate<S: SpecIndex>(a: &RunLabel, b: &RunLabel, skeleton: &S) -> bool {
    predicate_traced(a, b, skeleton).0
}

/// The context fast path of πr (Lemma 4.5), shared by every evaluator in
/// this crate (scalar, memoized, batched, live): `Some(answer)` when the
/// LCA of the contexts is an `F−`/`L−` node and the three-comparison test
/// decides the query, `None` when the query must consult the skeleton.
///
/// Generic over the coordinate type because the test only *compares*
/// coordinates: the offline scheme passes `u32` preorder positions, the
/// live engine ([`crate::live`]) passes the `u64` order-maintenance tags
/// of the three bracket lists, which order contexts identically.
#[inline]
pub(crate) fn context_fast_path<Q: Copy + Ord>(
    (a_q1, a_q2, a_q3): (Q, Q, Q),
    (b_q1, b_q2, b_q3): (Q, Q, Q),
) -> Option<bool> {
    // `d2 · d3 < 0` (Algorithm 3) expressed as a sign test: the products of
    // two full u32 deltas can exceed i64 (labels may come from untrusted
    // bytes), while the comparisons below are overflow-free and equivalent.
    let d2_neg = a_q2 < b_q2;
    let d3_neg = a_q3 < b_q3;
    if d2_neg != d3_neg && a_q2 != b_q2 && a_q3 != b_q3 {
        Some(a_q1 < b_q1 && a_q3 > b_q3)
    } else {
        None
    }
}

/// πr plus which path decided it.
#[inline]
pub fn predicate_traced<S: SpecIndex>(
    a: &RunLabel,
    b: &RunLabel,
    skeleton: &S,
) -> (bool, QueryPath) {
    match context_fast_path((a.q1, a.q2, a.q3), (b.q1, b.q2, b.q3)) {
        // The LCA of the contexts is an F− or L− node (Lemma 4.5): the
        // answer is decided without touching the skeleton labels.
        Some(ans) => (ans, QueryPath::ContextOnly),
        None => (
            skeleton.reaches(a.origin.raw(), b.origin.raw()),
            QueryPath::Skeleton,
        ),
    }
}

/// Labels `run` without materializing a [`LabeledRun`]: constructs the
/// execution plan and context (§5), builds the three orders (§4.3) and
/// returns the raw labels plus `n⁺`. This is the spec/run split's labeling
/// path — the labels carry only the *pointer* to the skeleton (the origin
/// id), so no skeleton index is needed or built; pair the result with a
/// shared `SpecContext` (e.g. via a `RunHandle` in a `FleetEngine`) to
/// query. [`LabeledRun::build`] is this function plus a privately-owned
/// skeleton.
pub fn label_run(spec: &Specification, run: &Run) -> Result<(Vec<RunLabel>, u32), ConstructError> {
    let (plan, _) = construct_plan_with_stats(spec, run)?;
    Ok(labels_from_plan(spec, run, &plan))
}

/// The core of φr: labels from a known plan (no skeleton involved).
fn labels_from_plan(spec: &Specification, run: &Run, plan: &ExecutionPlan) -> (Vec<RunLabel>, u32) {
    let enc = generate_three_orders(plan, spec);
    let labels = run
        .vertices()
        .map(|v| {
            let (q1, q2, q3) = enc.positions(plan.context(v));
            debug_assert!(q1 >= 1, "contexts are nonempty + nodes");
            RunLabel {
                q1,
                q2,
                q3,
                origin: run.origin(v),
            }
        })
        .collect();
    (labels, enc.nonempty_plus_count())
}

/// A fully labeled run: the output of the labeling function φr, owning the
/// skeleton index it delegates to.
pub struct LabeledRun<S> {
    labels: Vec<RunLabel>,
    skeleton: S,
    n_plus: u32,
    n_g: u32,
}

impl<S: SpecIndex> LabeledRun<S> {
    /// Labels `run` end to end: constructs the execution plan and context
    /// (§5), builds the three orders (§4.3) and assigns labels (Algorithm
    /// 2). Linear time in the size of the run.
    pub fn build(spec: &Specification, skeleton: S, run: &Run) -> Result<Self, ConstructError> {
        Self::build_with_stats(spec, skeleton, run).map(|(l, _)| l)
    }

    /// [`LabeledRun::build`] plus plan-construction statistics.
    pub fn build_with_stats(
        spec: &Specification,
        skeleton: S,
        run: &Run,
    ) -> Result<(Self, ConstructStats), ConstructError> {
        let (plan, stats) = construct_plan_with_stats(spec, run)?;
        Ok((Self::build_with_plan(spec, skeleton, run, &plan), stats))
    }

    /// Labels a run whose execution plan and context are already known —
    /// the paper's second Figure 13 setting ("the run is given along with
    /// its execution plan and context", e.g. extracted from a Taverna log).
    pub fn build_with_plan(
        spec: &Specification,
        skeleton: S,
        run: &Run,
        plan: &ExecutionPlan,
    ) -> Self {
        let (labels, n_plus) = labels_from_plan(spec, run, plan);
        LabeledRun {
            labels,
            skeleton,
            n_plus,
            n_g: spec.module_count() as u32,
        }
    }

    /// The label of vertex `v`.
    #[inline]
    pub fn label(&self, v: RunVertexId) -> &RunLabel {
        &self.labels[v.index()]
    }

    /// All labels, indexed by run vertex.
    pub fn labels(&self) -> &[RunLabel] {
        &self.labels
    }

    /// Number of labeled vertices.
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// The skeleton index queries delegate to.
    pub fn skeleton(&self) -> &S {
        &self.skeleton
    }

    /// Decomposes the labeled run into its labels and skeleton — the raw
    /// material of a [`crate::engine::QueryEngine`].
    pub fn into_parts(self) -> (Vec<RunLabel>, S) {
        (self.labels, self.skeleton)
    }

    /// Number of nonempty `+` nodes `n⁺_T` in the underlying plan.
    pub fn nonempty_plus_count(&self) -> u32 {
        self.n_plus
    }

    /// Whether `u ⇝ v` in the run (reflexive), in `O(1) + t_G`.
    #[inline]
    pub fn reaches(&self, u: RunVertexId, v: RunVertexId) -> bool {
        predicate(self.label(u), self.label(v), &self.skeleton)
    }

    /// [`reaches`](Self::reaches) plus which path decided it.
    #[inline]
    pub fn reaches_traced(&self, u: RunVertexId, v: RunVertexId) -> (bool, QueryPath) {
        predicate_traced(self.label(u), self.label(v), &self.skeleton)
    }

    // ---------------- label-length accounting (Figure 12) -------------

    /// Bits per `q` coordinate under fixed-width packing.
    fn q_width(&self) -> usize {
        bits_for(self.n_plus as u64)
    }

    /// Bits for the skeleton pointer.
    fn origin_width(&self) -> usize {
        bits_for(self.n_g.saturating_sub(1).max(1) as u64)
    }

    /// Fixed-width label length in bits: `3⌈log₂(n⁺+1)⌉ + ⌈log₂ n_G⌉` —
    /// the paper's *maximum* label length.
    pub fn fixed_label_bits(&self) -> usize {
        3 * self.q_width() + self.origin_width()
    }

    /// Variable-size length of one vertex's label: each `q` in minimal
    /// binary (`⌊log₂ q⌋ + 1` bits) plus the skeleton pointer. This is the
    /// Figure 12 "average label length" accounting — always at most the
    /// fixed-width maximum. (For *self-delimiting* storage see
    /// [`crate::bits::gamma_bits`], which costs ~2× per coordinate.)
    pub fn variable_label_bits(&self, v: RunVertexId) -> usize {
        let l = self.label(v);
        let min_bits = |q: u32| 32 - q.max(1).leading_zeros() as usize;
        min_bits(l.q1) + min_bits(l.q2) + min_bits(l.q3) + self.origin_width()
    }

    /// Self-delimiting (Elias-γ) size of one vertex's label.
    pub fn gamma_label_bits(&self, v: RunVertexId) -> usize {
        let l = self.label(v);
        gamma_bits(l.q1 as u64)
            + gamma_bits(l.q2 as u64)
            + gamma_bits(l.q3 as u64)
            + self.origin_width()
    }

    /// Mean variable-size label length in bits (Figure 12's "average").
    pub fn average_label_bits(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        let total: usize = (0..self.labels.len())
            .map(|i| self.variable_label_bits(RunVertexId(i as u32)))
            .sum();
        total as f64 / self.labels.len() as f64
    }

    // ---------------- serialization ------------------------------------

    /// Packs all labels into a fixed-width bit stream.
    pub fn encode(&self) -> EncodedLabels {
        let qw = self.q_width();
        let ow = self.origin_width();
        let mut w = BitWriter::new();
        for l in &self.labels {
            w.write_bits(l.q1 as u64, qw);
            w.write_bits(l.q2 as u64, qw);
            w.write_bits(l.q3 as u64, qw);
            w.write_bits(l.origin.raw() as u64, ow);
        }
        let (words, bit_len) = w.into_words();
        EncodedLabels {
            words,
            bit_len,
            count: self.labels.len() as u32,
            n_plus: self.n_plus,
            n_g: self.n_g,
        }
    }
}

/// Smallest width holding values `0..=max` (at least 1 bit).
fn bits_for(max: u64) -> usize {
    (64 - max.leading_zeros() as usize).max(1)
}

/// Failures parsing a packed label file ([`EncodedLabels::from_bytes`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload is not a whole number of 64-bit words.
    MisalignedPayload {
        /// Payload length in bytes (after the fixed-width header fields).
        len: usize,
    },
    /// The header promises more label bits than the payload carries.
    TruncatedPayload {
        /// Bits promised by the header.
        declared_bits: usize,
        /// Bits actually present.
        available_bits: usize,
    },
    /// The snapshot container around the labels is invalid (not a
    /// container, truncated, corrupt, wrong version — see
    /// [`FormatError`]).
    Format(FormatError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::MisalignedPayload { len } => {
                write!(f, "label payload of {len} bytes is not word-aligned")
            }
            DecodeError::TruncatedPayload {
                declared_bits,
                available_bits,
            } => write!(
                f,
                "label payload truncated: header declares {declared_bits} bits, \
                 only {available_bits} present"
            ),
            DecodeError::Format(e) => write!(f, "invalid label snapshot: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for DecodeError {
    fn from(e: FormatError) -> Self {
        DecodeError::Format(e)
    }
}

/// A packed label array, decodable without the original run.
#[derive(Debug)]
pub struct EncodedLabels {
    words: Vec<u64>,
    bit_len: usize,
    count: u32,
    n_plus: u32,
    n_g: u32,
}

impl EncodedLabels {
    /// Total size in bits (labels only, excluding the 3-word header).
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no labels are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Decodes all labels.
    pub fn decode(&self) -> Vec<RunLabel> {
        let qw = bits_for(self.n_plus as u64);
        let ow = bits_for(self.n_g.saturating_sub(1).max(1) as u64);
        let mut r = BitReader::new(&self.words, self.bit_len);
        (0..self.count)
            .map(|_| {
                let q1 = r.read_bits(qw) as u32;
                let q2 = r.read_bits(qw) as u32;
                let q3 = r.read_bits(qw) as u32;
                let origin = ModuleId(r.read_bits(ow) as u32);
                RunLabel { q1, q2, q3, origin }
            })
            .collect()
    }

    /// Serializes the labels as a snapshot container (one
    /// [`snapshot::seg::PACKED_LABELS`] segment on the shared framing
    /// layer, CRC-protected), suitable for a label file on disk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(20 + self.words.len() * 8);
        payload.extend_from_slice(&self.count.to_le_bytes());
        payload.extend_from_slice(&self.n_plus.to_le_bytes());
        payload.extend_from_slice(&self.n_g.to_le_bytes());
        payload.extend_from_slice(&(self.bit_len as u64).to_le_bytes());
        for w in &self.words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        let mut w = snapshot::SnapshotWriter::new();
        w.push(snapshot::seg::PACKED_LABELS, payload);
        w.finish()
    }

    /// Parses a label file written by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let r = snapshot::SnapshotReader::parse(bytes)?;
        Self::parse_payload(r.first(snapshot::seg::PACKED_LABELS)?)
    }

    /// The segment body parser: `count | n_plus | n_g | bit_len | words`.
    fn parse_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut cur = snapshot::Cursor::new(payload);
        let count = cur.u32()?;
        let n_plus = cur.u32()?;
        let n_g = cur.u32()?;
        let bit_len = cur.u64()? as usize;
        let words_bytes = cur.bytes(cur.remaining()).expect("remaining is in bounds");
        if words_bytes.len() % 8 != 0 {
            return Err(DecodeError::MisalignedPayload {
                len: words_bytes.len(),
            });
        }
        if words_bytes.len() * 8 < bit_len {
            return Err(DecodeError::TruncatedPayload {
                declared_bits: bit_len,
                available_bits: words_bytes.len() * 8,
            });
        }
        // The count field is untrusted: decode() materializes `count`
        // labels, so a count the declared bit stream cannot hold must be
        // rejected here — before it sizes a decode allocation. Each label
        // costs exactly 3 q-widths + 1 origin width (both ≥ 1 bit).
        let label_bits =
            3 * bits_for(n_plus as u64) + bits_for(n_g.saturating_sub(1).max(1) as u64);
        if count as u64 * label_bits as u64 > bit_len as u64 {
            return Err(DecodeError::TruncatedPayload {
                declared_bits: count as usize * label_bits,
                available_bits: bit_len,
            });
        }
        let words = words_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Ok(EncodedLabels {
            words,
            bit_len,
            count,
            n_plus,
            n_g,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_graph::TransitiveClosure;
    use wfp_model::fixtures::{paper_reachability_claims, paper_run, paper_spec, paper_vertex};
    use wfp_speclabel::{SchemeKind, SpecScheme};

    fn labeled_paper_run(kind: SchemeKind) -> (Specification, Run, LabeledRun<SpecScheme>) {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let scheme = SpecScheme::build(kind, spec.graph());
        let labeled = LabeledRun::build(&spec, scheme, &run).unwrap();
        (spec, run, labeled)
    }

    #[test]
    fn paper_claims_hold_under_every_scheme() {
        for &kind in &SchemeKind::ALL {
            let (spec, run, labeled) = labeled_paper_run(kind);
            for &(from, to, expected) in paper_reachability_claims() {
                let u = paper_vertex(&spec, &run, from);
                let v = paper_vertex(&spec, &run, to);
                assert_eq!(
                    labeled.reaches(u, v),
                    expected,
                    "{from} ⇝ {to} under {kind}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_differential_against_bfs_closure() {
        let (_spec, run, labeled) = labeled_paper_run(SchemeKind::Tcm);
        let oracle = TransitiveClosure::build(run.graph());
        for u in run.vertices() {
            for v in run.vertices() {
                assert_eq!(
                    labeled.reaches(u, v),
                    oracle.reaches(u.raw(), v.raw()),
                    "({u},{v})"
                );
            }
        }
    }

    #[test]
    fn example_9_query_paths() {
        // Example 9: c1 vs d1 falls through to the skeleton; b1 vs c3 (two
        // parallel fork copies) is decided by contexts alone.
        let (spec, run, labeled) = labeled_paper_run(SchemeKind::Tcm);
        let c1 = paper_vertex(&spec, &run, "c1");
        let d1 = paper_vertex(&spec, &run, "d1");
        let (ans, path) = labeled.reaches_traced(c1, d1);
        assert!(!ans);
        assert_eq!(path, QueryPath::Skeleton);
        let b1 = paper_vertex(&spec, &run, "b1");
        let c3 = paper_vertex(&spec, &run, "c3");
        let (ans, path) = labeled.reaches_traced(b1, c3);
        assert!(!ans);
        assert_eq!(path, QueryPath::ContextOnly);
        // successive loop copies: context-only, positive
        let b2 = paper_vertex(&spec, &run, "b2");
        let (ans, path) = labeled.reaches_traced(c1, b2);
        assert!(ans);
        assert_eq!(path, QueryPath::ContextOnly);
    }

    #[test]
    fn label_length_matches_the_bound() {
        let (spec, run, labeled) = labeled_paper_run(SchemeKind::Tcm);
        // n+ = 9, n_G = 8: 3*ceil(log2 10) + ceil(log2 8) = 3*4 + 3 = 15
        assert_eq!(labeled.nonempty_plus_count(), 9);
        assert_eq!(labeled.fixed_label_bits(), 15);
        let bound = 3.0 * (run.vertex_count() as f64).log2() + (spec.module_count() as f64).log2();
        assert!((labeled.fixed_label_bits() as f64) <= bound + 4.0);
        // average variable-size ≤ a couple of bits of the fixed size for
        // this tiny run, and strictly positive
        let avg = labeled.average_label_bits();
        assert!(avg > 0.0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let (_spec, run, labeled) = labeled_paper_run(SchemeKind::Bfs);
        let enc = labeled.encode();
        assert_eq!(enc.len(), run.vertex_count());
        assert_eq!(
            enc.bit_len(),
            run.vertex_count() * labeled.fixed_label_bits()
        );
        let decoded = enc.decode();
        assert_eq!(decoded, labeled.labels().to_vec());
    }

    #[test]
    fn encoded_labels_byte_round_trip() {
        let (_spec, _run, labeled) = labeled_paper_run(SchemeKind::Tcm);
        let enc = labeled.encode();
        let bytes = enc.to_bytes();
        let back = EncodedLabels::from_bytes(&bytes).unwrap();
        assert_eq!(back.decode(), labeled.labels().to_vec());
        assert_eq!(back.len(), enc.len());
        // corruption is detected, with typed causes: every truncation of
        // the container errors (the format's exact-length check), as does
        // any payload bit flip (per-segment CRC)
        for len in 0..bytes.len() {
            assert!(
                EncodedLabels::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            EncodedLabels::from_bytes(&flipped).unwrap_err(),
            DecodeError::Format(crate::snapshot::FormatError::ChecksumMismatch { .. })
        ));
        // bytes that are not a container, including the retired `WFPL`
        // framing, fail on the container magic
        for not_a_container in [&b"garbage___________________"[..], b"WFPL\x01\x00"] {
            assert_eq!(
                EncodedLabels::from_bytes(not_a_container).unwrap_err(),
                DecodeError::Format(crate::snapshot::FormatError::BadMagic)
            );
        }
        // a valid container whose labels segment is shorter than the fixed
        // label header is a format defect
        let mut w = crate::snapshot::SnapshotWriter::new();
        w.push(crate::snapshot::seg::PACKED_LABELS, vec![0u8; 10]);
        assert!(matches!(
            EncodedLabels::from_bytes(&w.finish()).unwrap_err(),
            DecodeError::Format(crate::snapshot::FormatError::Truncated { .. })
        ));
        // a CRC-consistent forged count the bit stream cannot hold must be
        // rejected before decode() would size a count-proportional
        // allocation
        let mut forged = Vec::new();
        forged.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        forged.extend_from_slice(&1u32.to_le_bytes()); // n_plus
        forged.extend_from_slice(&1u32.to_le_bytes()); // n_g
        forged.extend_from_slice(&64u64.to_le_bytes()); // bit_len
        forged.extend_from_slice(&[0u8; 8]); // one word
        let mut w = crate::snapshot::SnapshotWriter::new();
        w.push(crate::snapshot::seg::PACKED_LABELS, forged);
        assert!(matches!(
            EncodedLabels::from_bytes(&w.finish()).unwrap_err(),
            DecodeError::TruncatedPayload { .. }
        ));
        // decode errors implement std::error::Error and render; the
        // container wrapper exposes the format failure as its source()
        let e: Box<dyn std::error::Error> = Box::new(DecodeError::MisalignedPayload { len: 3 });
        assert!(e.to_string().contains("word-aligned"));
        let wrapped = DecodeError::Format(crate::snapshot::FormatError::BadMagic);
        use std::error::Error as _;
        assert!(wrapped.source().is_some());
        assert!(wrapped.to_string().contains("magic"));
    }

    #[test]
    fn label_run_matches_labeled_run() {
        let (spec, run, labeled) = labeled_paper_run(SchemeKind::Tcm);
        let (labels, n_plus) = label_run(&spec, &run).unwrap();
        assert_eq!(labels, labeled.labels().to_vec());
        assert_eq!(n_plus, labeled.nonempty_plus_count());
    }

    #[test]
    fn reflexive_queries_answer_true() {
        let (_spec, run, labeled) = labeled_paper_run(SchemeKind::Dfs);
        for v in run.vertices() {
            assert!(labeled.reaches(v, v));
        }
    }

    #[test]
    fn label_with_plan_matches_full_pipeline() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let plan = crate::construct::construct_plan(&spec, &run).unwrap();
        let a = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        let b = LabeledRun::build_with_plan(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
            &plan,
        );
        assert_eq!(a.labels(), b.labels());
    }
}
