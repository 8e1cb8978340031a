//! High-throughput batched evaluation of the run predicate πr.
//!
//! The scalar [`predicate`](crate::predicate) answers one pair at a time
//! against an array-of-structs `Vec<RunLabel>`. Production query traffic
//! does not arrive that way: provenance workloads are bulk — millions of
//! (source, target) pairs over one labeled run (cf. the batch-oriented
//! provenance query engines surveyed in PAPERS.md). This module restructures
//! evaluation around that shape:
//!
//! * **Struct-of-arrays storage** ([`SoaLabels`]): the `q1`/`q2`/`q3`/
//!   `origin` coordinates live in four parallel `u32` columns, so the
//!   three-comparison fast path of Algorithm 3 streams through dense cache
//!   lines instead of striding over 16-byte structs.
//! * **Skeleton memoization** ([`SharedMemo`]):
//!   only `+`-LCA queries consult the skeleton, and their answer depends
//!   *only* on the two origin modules. Origins repeat heavily (every copy
//!   of a module shares one), so the memo turns repeated skeleton probes —
//!   a full BFS under the search schemes — into one atomic byte load.
//! * **Batched entry points** ([`QueryEngine::answer_batch`]) and a
//!   **sharded parallel evaluator** ([`QueryEngine::answer_batch_parallel`])
//!   for million-pair workloads.
//!
//! A [`QueryEngine`] is a thin view over the spec/run split of
//! [`crate::context`]: an `Arc`-shared [`SpecContext`] (skeleton + memo,
//! one per specification) paired with a slim per-run [`RunHandle`] (label
//! columns only). Engines built over the same context share its memo —
//! and [`crate::fleet::FleetEngine`] serves whole populations of runs over
//! one context.
//!
//! The engine is *exactly* πr: `answer_batch` agrees with the scalar
//! [`predicate`](crate::predicate) on every pair (see the differential
//! proptest suite in the facade crate's `tests/engine_differential.rs`).
//!
//! ```
//! use wfp_model::fixtures;
//! use wfp_skl::engine::QueryEngine;
//! use wfp_skl::LabeledRun;
//! use wfp_speclabel::{SchemeKind, SpecScheme};
//!
//! let spec = fixtures::paper_spec();
//! let run = fixtures::paper_run(&spec);
//! let skeleton = SpecScheme::build(SchemeKind::Tcm, spec.graph());
//! let labeled = LabeledRun::build(&spec, skeleton, &run).unwrap();
//!
//! let b1 = fixtures::paper_vertex(&spec, &run, "b1");
//! let c3 = fixtures::paper_vertex(&spec, &run, "c3");
//! let engine = QueryEngine::from_labeled(labeled);
//! assert_eq!(engine.answer_batch(&[(b1, c3), (c3, c3)]), vec![false, true]);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wfp_model::RunVertexId;
use wfp_speclabel::SpecIndex;

use crate::context::{RunHandle, SharedMemo, SpecContext};
use crate::label::{context_fast_path, LabeledRun, QueryPath, RunLabel};

/// Struct-of-arrays label storage: three coordinate columns plus an origin
/// column, generic over the coordinate type.
///
/// `Q = u32` ([`SoaLabels`]) holds the offline scheme's preorder positions;
/// the live engine ([`crate::live`]) instantiates `Q = u64` with the
/// order-maintenance tags of the three bracket lists, which compare — and
/// therefore decide πr — exactly like positions. Indexed by
/// [`RunVertexId`], exactly like [`LabeledRun::labels`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoaColumns<Q> {
    q1: Vec<Q>,
    q2: Vec<Q>,
    q3: Vec<Q>,
    origin: Vec<u32>,
    /// exclusive upper bound on the stored origin ids (0 when empty)
    origin_bound: u32,
}

/// The offline engine's columns: `u32` preorder positions.
pub type SoaLabels = SoaColumns<u32>;

impl<Q> Default for SoaColumns<Q> {
    fn default() -> Self {
        SoaColumns {
            q1: Vec::new(),
            q2: Vec::new(),
            q3: Vec::new(),
            origin: Vec::new(),
            origin_bound: 0,
        }
    }
}

impl<Q: Copy + Ord> SoaColumns<Q> {
    /// Empty columns, ready for incremental [`push`](Self::push)es.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one label row — the incremental path used by the live
    /// engine, where labels arrive one `exec` event at a time.
    pub fn push(&mut self, q1: Q, q2: Q, q3: Q, origin: u32) {
        self.q1.push(q1);
        self.q2.push(q2);
        self.q3.push(q3);
        self.origin.push(origin);
        self.origin_bound = self.origin_bound.max(origin.saturating_add(1));
    }

    /// Number of stored labels.
    pub fn len(&self) -> usize {
        self.q1.len()
    }

    /// Whether no labels are stored.
    pub fn is_empty(&self) -> bool {
        self.q1.is_empty()
    }

    /// Exclusive upper bound on the origin ids appearing in the columns —
    /// the snapshot side a memo needs to keep them all in its dense tier.
    pub fn origin_bound(&self) -> u32 {
        self.origin_bound
    }

    /// Overwrites one coordinate column in place via `tag(row)` — the live
    /// engine's repair path when an order-maintenance list retags itself
    /// (`which` is 0/1/2 for `q1`/`q2`/`q3`).
    pub(crate) fn repair_column(&mut self, which: usize, tag: impl Fn(usize) -> Q) {
        let col = match which {
            0 => &mut self.q1,
            1 => &mut self.q2,
            2 => &mut self.q3,
            _ => unreachable!("three coordinate columns"),
        };
        for (row, slot) in col.iter_mut().enumerate() {
            *slot = tag(row);
        }
    }
}

impl SoaLabels {
    /// Transposes an array-of-structs label slice into columns.
    pub fn from_labels(labels: &[RunLabel]) -> Self {
        let mut cols = SoaLabels::new();
        cols.q1.reserve(labels.len());
        cols.q2.reserve(labels.len());
        cols.q3.reserve(labels.len());
        cols.origin.reserve(labels.len());
        for l in labels {
            cols.push(l.q1, l.q2, l.q3, l.origin.raw());
        }
        cols
    }

    /// The four raw columns `(q1, q2, q3, origin)` — the zero-copy view
    /// the packed encoder ([`crate::PackedColumnsView`]) reads.
    pub fn raw_columns(&self) -> (&[u32], &[u32], &[u32], &[u32]) {
        (&self.q1, &self.q2, &self.q3, &self.origin)
    }

    /// Rebuilds a column store from four equal-length columns (the inverse
    /// of [`raw_columns`](Self::raw_columns)); `None` when the lengths
    /// disagree. The origin bound is recomputed, so a store restored from
    /// untrusted bytes sizes its memo honestly.
    pub fn from_raw_columns(
        q1: Vec<u32>,
        q2: Vec<u32>,
        q3: Vec<u32>,
        origin: Vec<u32>,
    ) -> Option<Self> {
        if q1.len() != q2.len() || q1.len() != q3.len() || q1.len() != origin.len() {
            return None;
        }
        let origin_bound = origin
            .iter()
            .map(|&o| o.saturating_add(1))
            .max()
            .unwrap_or(0);
        Some(SoaLabels {
            q1,
            q2,
            q3,
            origin,
            origin_bound,
        })
    }

    /// Re-gathers the label of vertex `v` (for spot checks; the batch paths
    /// never materialize a `RunLabel`).
    pub fn label(&self, v: RunVertexId) -> RunLabel {
        let i = v.index();
        RunLabel {
            q1: self.q1[i],
            q2: self.q2[i],
            q3: self.q3[i],
            origin: wfp_model::ModuleId(self.origin[i]),
        }
    }
}

/// πr (Algorithm 3) with the skeleton branch memoized through a
/// [`SharedMemo`].
///
/// Byte-for-byte the same decision procedure as [`crate::predicate`]; the
/// memo only caches the `skeleton.reaches(origin_a, origin_b)` sub-answers,
/// and is bypassed entirely for skeletons whose probes are already
/// constant-time ([`SpecIndex::constant_time_queries`], e.g. TCM) — there
/// the memo round trip costs more than the probe it would save. The memo
/// is interior-mutable (`&self`), so callers can share one across threads.
#[inline]
pub fn predicate_memo<S: SpecIndex>(
    a: &RunLabel,
    b: &RunLabel,
    skeleton: &S,
    memo: &SharedMemo,
) -> bool {
    predicate_memo_traced(a, b, skeleton, memo).0
}

/// [`predicate_memo`] plus which path decided it.
#[inline]
pub fn predicate_memo_traced<S: SpecIndex>(
    a: &RunLabel,
    b: &RunLabel,
    skeleton: &S,
    memo: &SharedMemo,
) -> (bool, QueryPath) {
    match context_fast_path((a.q1, a.q2, a.q3), (b.q1, b.q2, b.q3)) {
        Some(ans) => (ans, QueryPath::ContextOnly),
        None if skeleton.constant_time_queries() => (
            skeleton.reaches(a.origin.raw(), b.origin.raw()),
            QueryPath::Skeleton,
        ),
        None => (
            memo.reaches(a.origin.raw(), b.origin.raw(), skeleton),
            QueryPath::Skeleton,
        ),
    }
}

/// Counters describing how a batch was decided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Pairs decided by the context encoding alone (`F−`/`L−` LCA).
    pub context_only: u64,
    /// Pairs delegated to the skeleton (`+` LCA), memoized or not.
    pub skeleton: u64,
    /// Skeleton probes actually performed (shared-memo misses). Counted on
    /// the run's [`SpecContext`], so engines sharing one context report
    /// context-wide totals.
    pub skeleton_probes: u64,
    /// Skeleton probes answered from the shared memo.
    pub memo_hits: u64,
}

impl EngineStats {
    /// Total pairs answered.
    pub fn total(&self) -> u64 {
        self.context_only + self.skeleton
    }
}

/// A batched reachability engine over one labeled run — a thin view
/// pairing an `Arc`-shared [`SpecContext`] (skeleton + concurrent memo,
/// one per specification) with a slim per-run [`RunHandle`] (label
/// columns).
///
/// Engines built from a common context — by [`QueryEngine::from_parts`],
/// by [`crate::live::LiveRun::freeze`], or inside a
/// [`crate::fleet::FleetEngine`] — duplicate *no* spec-level state: the
/// skeleton and its warm memo are stored once and shared by reference
/// count. Convenience constructors ([`from_labeled`](Self::from_labeled),
/// [`from_labels`](Self::from_labels)) create a fresh single-run context.
pub struct QueryEngine<S> {
    ctx: Arc<SpecContext<S>>,
    run: RunHandle,
}

impl<S: SpecIndex> QueryEngine<S> {
    /// Builds the engine from a labeled run, taking over its skeleton into
    /// a fresh single-run context.
    pub fn from_labeled(labeled: LabeledRun<S>) -> Self {
        let (labels, skeleton) = labeled.into_parts();
        Self::from_labels(&labels, skeleton)
    }

    /// Builds the engine from raw labels (e.g. decoded from a label file)
    /// plus the skeleton index they delegate to, wrapped in a fresh
    /// context whose memo snapshot covers every origin in the labels.
    pub fn from_labels(labels: &[RunLabel], skeleton: S) -> Self {
        let run = RunHandle::from_labels(labels);
        let ctx = SpecContext::new(skeleton, run.columns().origin_bound()).shared();
        QueryEngine { ctx, run }
    }

    /// The spec/run split made explicit: a view over an already-shared
    /// context and a standalone run handle. This is how the live engine's
    /// freeze handoff and the fleet serve runs without duplicating the
    /// skeleton or losing the warm memo.
    pub fn from_parts(ctx: Arc<SpecContext<S>>, run: RunHandle) -> Self {
        QueryEngine { ctx, run }
    }

    /// Number of labeled vertices.
    pub fn vertex_count(&self) -> usize {
        self.run.vertex_count()
    }

    /// The SoA label columns.
    pub fn columns(&self) -> &SoaLabels {
        self.run.columns()
    }

    /// The shared spec-level state this engine answers through.
    pub fn context(&self) -> &Arc<SpecContext<S>> {
        &self.ctx
    }

    /// The per-run label columns and counters.
    pub fn run(&self) -> &RunHandle {
        &self.run
    }

    /// The skeleton index queries delegate to.
    pub fn skeleton(&self) -> &S {
        self.ctx.skeleton()
    }

    /// Cumulative decision statistics: this run's decisions plus the
    /// shared context's memo counters (context-wide when the context
    /// serves several runs).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            context_only: self.run.context_only(),
            skeleton: self.run.skeleton_queries(),
            skeleton_probes: self.ctx.memo().probes(),
            memo_hits: self.ctx.memo().hits(),
        }
    }

    /// Whether `u ⇝ v` — the scalar entry point, sharing the context memo.
    /// Allocation-free (unlike the batch paths, which fill a vector).
    #[inline]
    pub fn answer(&self, u: RunVertexId, v: RunVertexId) -> bool {
        let (ans, path) = answer_one(self.run.columns(), &self.ctx, u, v);
        match path {
            QueryPath::ContextOnly => self.run.count(1, 0),
            QueryPath::Skeleton => self.run.count(0, 1),
        }
        ans
    }

    /// Answers every pair of `pairs` in order.
    pub fn answer_batch(&self, pairs: &[(RunVertexId, RunVertexId)]) -> Vec<bool> {
        let mut out = Vec::new();
        self.answer_batch_into(pairs, &mut out);
        out
    }

    /// [`answer_batch`](Self::answer_batch) into a caller-owned buffer
    /// (cleared first), returning it as a slice. Lets steady-state callers
    /// reuse one allocation across batches.
    pub fn answer_batch_into<'o>(
        &self,
        pairs: &[(RunVertexId, RunVertexId)],
        out: &'o mut Vec<bool>,
    ) -> &'o [bool] {
        out.clear();
        out.reserve(pairs.len());
        let (ctx, skel) = answer_into(
            self.run.columns(),
            self.ctx.skeleton(),
            self.ctx.probe_memo(),
            pairs,
            out,
        );
        self.run.count(ctx, skel);
        out
    }

    /// Answers `pairs` with up to `threads` shards (clamped to 64). Every
    /// shard reads the **same** skeleton and shared memo (it is concurrent
    /// by design — sub-answers warmed by one shard are hits for all
    /// others). Results are in input order and identical to
    /// [`answer_batch`](Self::answer_batch) — the evaluation is
    /// deterministic regardless of scheduling.
    pub fn answer_batch_parallel(
        &self,
        pairs: &[(RunVertexId, RunVertexId)],
        threads: usize,
    ) -> Vec<bool>
    where
        S: Sync,
    {
        // Clamp the user-supplied shard count: each shard costs an OS
        // thread, and a runaway value (a CLI typo) must degrade to a
        // bounded fan-out, not a spawn failure.
        const MAX_SHARDS: usize = 64;
        let threads = threads.clamp(1, MAX_SHARDS).min(pairs.len().max(1));
        // Fixed-size chunks pulled from a shared queue: big enough to
        // amortize the per-chunk claim, small enough to balance shards.
        let chunk = (pairs.len().div_ceil(threads.max(1) * 8)).clamp(1024, 1 << 20);
        let chunk_count = pairs.len().div_ceil(chunk);
        // A shard beyond the chunk count would find the queue already
        // exhausted.
        let threads = threads.min(chunk_count);
        if threads <= 1 {
            return self.answer_batch(pairs);
        }
        let cols = self.run.columns();
        let skeleton = self.ctx.skeleton();
        let memo = self.ctx.probe_memo();
        let mut out = vec![false; pairs.len()];
        let ctx_total = AtomicU64::new(0);
        let skel_total = AtomicU64::new(0);
        {
            // Shards claim (input-chunk, output-window) work items from one
            // shared queue and sweep answers straight into their disjoint
            // window of the preallocated output — no per-chunk buffer
            // allocation and no funnel copy. The two chunkings are
            // identical, so the zip hands each input chunk exactly its own
            // output window; chunks are ≥1024 pairs, so the queue lock is
            // touched at most once per ~1k answers.
            let work = Mutex::new(pairs.chunks(chunk).zip(out.chunks_mut(chunk)));
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let work = &work;
                    let (ctx_total, skel_total) = (&ctx_total, &skel_total);
                    scope.spawn(move || {
                        let (mut ctx_sum, mut skel_sum) = (0u64, 0u64);
                        loop {
                            let claimed = work.lock().expect("work queue poisoned").next();
                            let Some((chunk_pairs, window)) = claimed else {
                                break;
                            };
                            let (c, s) =
                                sweep_into_slice(cols, skeleton, memo, chunk_pairs, window);
                            ctx_sum += c;
                            skel_sum += s;
                        }
                        ctx_total.fetch_add(ctx_sum, Ordering::Relaxed);
                        skel_total.fetch_add(skel_sum, Ordering::Relaxed);
                    });
                }
            });
        }
        self.run
            .count(ctx_total.into_inner(), skel_total.into_inner());
        out
    }

    /// [`answer_batch_into`](Self::answer_batch_into) through the reference
    /// **scalar** kernel — the per-lane branch chain the column sweep
    /// replaced. Kept public as the A/B baseline for the kernel bench and
    /// the differential suite; answers and decision counters are
    /// byte-identical to the sweep paths.
    pub fn answer_batch_scalar_into<'o>(
        &self,
        pairs: &[(RunVertexId, RunVertexId)],
        out: &'o mut Vec<bool>,
    ) -> &'o [bool] {
        out.clear();
        out.reserve(pairs.len());
        let (ctx, skel) = answer_into_scalar(
            self.run.columns(),
            self.ctx.skeleton(),
            self.ctx.probe_memo(),
            pairs,
            out,
        );
        self.run.count(ctx, skel);
        out
    }
}

/// The allocation-free scalar kernel: one pair over `u32` columns through
/// the context's memo policy. Shared by [`QueryEngine::answer`] and the
/// fleet's scalar probe path.
#[inline]
pub(crate) fn answer_one<S: SpecIndex>(
    cols: &SoaLabels,
    ctx: &SpecContext<S>,
    u: RunVertexId,
    v: RunVertexId,
) -> (bool, QueryPath) {
    let (a, b) = (cols.label(u), cols.label(v));
    match ctx.probe_memo() {
        Some(memo) => predicate_memo_traced(&a, &b, ctx.skeleton(), memo),
        None => crate::label::predicate_traced(&a, &b, ctx.skeleton()),
    }
}

/// A column store the sweep kernel can gather lanes from. Implemented by
/// the raw [`SoaColumns`] (direct column loads) and by the bit-packed
/// [`crate::packed::PackedColumnsView`] (shift-and-mask decode of the same
/// lanes) — both run the identical two-phase kernel, which is what
/// makes the packed-resident serving path answer byte-identically.
pub(crate) trait ColumnGather {
    /// Coordinate type the context fast path compares.
    type Coord: Copy + Ord;
    /// Number of labeled vertices.
    fn lane_count(&self) -> usize;
    /// `(q1, q2, q3)` of vertex `i`.
    fn coords(&self, i: usize) -> (Self::Coord, Self::Coord, Self::Coord);
    /// Origin module of vertex `i`.
    fn origin_of(&self, i: usize) -> u32;
    /// Exclusive upper bound on the origin ids stored in the columns —
    /// sizes the sweep's per-batch probe table.
    fn origin_bound(&self) -> u32;

    /// Phase-1 block kernel: evaluates the branchless context fast path of
    /// Algorithm 3 over up to [`BLOCK`] lanes of `chunk`, returning the
    /// `(resolved, answer)` bit masks. Panics (`"query vertex out of
    /// range"`) on the first out-of-range lane, before gathering it.
    ///
    /// The default body gathers one lane at a time via
    /// [`coords`](Self::coords); implementations override it when they can
    /// prove the per-column bounds checks away (see [`SoaColumns`]).
    #[inline]
    fn block_masks(&self, chunk: &[(RunVertexId, RunVertexId)]) -> (u64, u64) {
        debug_assert!(chunk.len() <= BLOCK);
        let n = self.lane_count();
        let (mut resolved_mask, mut answer_mask) = (0u64, 0u64);
        for (i, &(u, v)) in chunk.iter().enumerate() {
            let (a, b) = (u.index(), v.index());
            assert!(a < n && b < n, "query vertex out of range");
            let (a1, a2, a3) = self.coords(a);
            let (b1, b2, b3) = self.coords(b);
            let split = (a2 < b2) != (a3 < b3);
            let resolved = (split & (a2 != b2) & (a3 != b3)) as u64;
            let ans = ((a1 < b1) & (a3 > b3)) as u64;
            resolved_mask |= resolved << i;
            answer_mask |= (resolved & ans) << i;
        }
        (resolved_mask, answer_mask)
    }
}

impl<Q: Copy + Ord> ColumnGather for SoaColumns<Q> {
    type Coord = Q;

    #[inline(always)]
    fn lane_count(&self) -> usize {
        self.q1.len()
    }

    #[inline(always)]
    fn coords(&self, i: usize) -> (Q, Q, Q) {
        (self.q1[i], self.q2[i], self.q3[i])
    }

    #[inline(always)]
    fn origin_of(&self, i: usize) -> u32 {
        self.origin[i]
    }

    #[inline(always)]
    fn origin_bound(&self) -> u32 {
        SoaColumns::origin_bound(self)
    }

    /// Override: equal-length sub-slices plus the per-lane range assert
    /// let the compiler elide all six per-column bounds checks, so the
    /// block body is pure straight-line compare/mask arithmetic.
    #[inline]
    fn block_masks(&self, chunk: &[(RunVertexId, RunVertexId)]) -> (u64, u64) {
        debug_assert!(chunk.len() <= BLOCK);
        let n = self.q1.len();
        let (q1, q2, q3) = (&self.q1[..n], &self.q2[..n], &self.q3[..n]);
        let (mut resolved_mask, mut answer_mask) = (0u64, 0u64);
        for (i, &(u, v)) in chunk.iter().enumerate() {
            let (a, b) = (u.index(), v.index());
            assert!(a < n && b < n, "query vertex out of range");
            let (a1, a2, a3) = (q1[a], q2[a], q3[a]);
            let (b1, b2, b3) = (q1[b], q2[b], q3[b]);
            let split = (a2 < b2) != (a3 < b3);
            let resolved = (split & (a2 != b2) & (a3 != b3)) as u64;
            let ans = ((a1 < b1) & (a3 > b3)) as u64;
            resolved_mask |= resolved << i;
            answer_mask |= (resolved & ans) << i;
        }
        (resolved_mask, answer_mask)
    }
}

/// Lanes per sweep block: one machine word of resolved/answer mask bits.
pub(crate) const BLOCK: usize = 64;

/// Cap on the sweep's per-batch probe table: `origin_bound²` one-byte
/// cells, at most 1 MiB. That covers specifications up to 1024 modules —
/// the paper's largest has 200 — while an untrusted origin bound can never
/// size an unbounded allocation (the same posture as
/// [`SharedMemo::SIDE_CAP`]).
const PROBE_TABLE_CAP: usize = 1 << 20;

/// The two-phase column-sweep batch kernel, writing answers into a
/// caller-provided slice (`out.len() == pairs.len()`). Returns
/// `(context_only, skeleton)` decision counts.
///
/// **Phase 1** walks `pairs` in blocks of [`BLOCK`] lanes
/// ([`ColumnGather::block_masks`]): both endpoints' `(q1,q2,q3)` are
/// gathered and the context fast path of Algorithm 3 is evaluated as
/// branchless compare/mask arithmetic — no `Option`, no early exit, one
/// resolved bit and one answer bit per lane accumulated into two
/// block-wide machine words — so the lanes are independent straight-line
/// code and a mispredicted `+`-LCA lane never stalls its neighbours. The
/// complemented resolved mask *is* the compact emission of unresolved
/// lanes.
///
/// **Phase 2** drains each block's unresolved bits and groups the probes
/// by their `(origin_a, origin_b)` key in a dense per-batch table, so
/// every distinct skeleton probe is answered once: the first lane of a
/// group goes through the [`SharedMemo`] (warming its cell exactly like
/// the scalar kernel would), repeat lanes are local table loads whose
/// avoided probes are credited to the memo in bulk
/// ([`SharedMemo::note_hits`]) — final probe/hit counters match the scalar
/// kernel lane for lane. Specifications too wide for the table, or batches
/// too small to amortize zeroing it, fall back to per-lane memo probes:
/// the scalar kernel's exact path.
///
/// `memo` carries the policy decided by [`SpecContext::probe_memo`]:
/// `None` for skeletons whose probes are already constant-time bit lookups
/// ([`SpecIndex::constant_time_queries`]), `Some(shared)` otherwise.
/// Direct probes under `None` do not appear in the memo's counters.
pub(crate) fn sweep_into_slice<C: ColumnGather, S: SpecIndex>(
    cols: &C,
    skeleton: &S,
    memo: Option<&SharedMemo>,
    pairs: &[(RunVertexId, RunVertexId)],
    out: &mut [bool],
) -> (u64, u64) {
    assert_eq!(out.len(), pairs.len(), "output slice must match the batch");
    let bound = cols.origin_bound() as usize;
    let mut table = match bound.checked_mul(bound) {
        Some(cells) if cells <= PROBE_TABLE_CAP && cells <= pairs.len().saturating_mul(BLOCK) => {
            vec![0u8; cells]
        }
        _ => Vec::new(),
    };
    let mut ctx = 0u64;
    let mut skel = 0u64;
    let mut repeat_hits = 0u64;
    for (blk, chunk) in pairs.chunks(BLOCK).enumerate() {
        let off = blk * BLOCK;
        let k = chunk.len();
        let (resolved_mask, answer_mask) = cols.block_masks(chunk);
        ctx += u64::from(resolved_mask.count_ones());
        for (i, slot) in out[off..off + k].iter_mut().enumerate() {
            *slot = (answer_mask >> i) & 1 == 1;
        }
        let live = if k == BLOCK {
            u64::MAX
        } else {
            (1u64 << k) - 1
        };
        let mut rest = !resolved_mask & live;
        skel += u64::from(rest.count_ones());
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let (u, v) = chunk[i];
            let (oa, ob) = (cols.origin_of(u.index()), cols.origin_of(v.index()));
            let ans = if table.is_empty() {
                match memo {
                    Some(memo) => memo.reaches(oa, ob, skeleton),
                    None => skeleton.reaches(oa, ob),
                }
            } else {
                let cell = &mut table[oa as usize * bound + ob as usize];
                match *cell {
                    0 => {
                        let ans = match memo {
                            Some(memo) => memo.reaches(oa, ob, skeleton),
                            None => skeleton.reaches(oa, ob),
                        };
                        *cell = 1 + u8::from(ans);
                        ans
                    }
                    known => {
                        repeat_hits += 1;
                        known == 2
                    }
                }
            };
            out[off + i] = ans;
        }
    }
    if let Some(memo) = memo {
        // Repeat lanes the table absorbed would each have been a memo hit
        // under the scalar kernel (their first lane just warmed the cell);
        // credit them in bulk so the counters stay identical.
        memo.note_hits(repeat_hits);
    }
    (ctx, skel)
}

/// The shared batch kernel: answers `pairs` over the columns via the
/// two-phase sweep ([`sweep_into_slice`]), appending to `out`. Returns
/// `(context_only, skeleton)` decision counts.
#[inline]
pub(crate) fn answer_into<Q: Copy + Ord, S: SpecIndex>(
    cols: &SoaColumns<Q>,
    skeleton: &S,
    memo: Option<&SharedMemo>,
    pairs: &[(RunVertexId, RunVertexId)],
    out: &mut Vec<bool>,
) -> (u64, u64) {
    let base = out.len();
    out.resize(base + pairs.len(), false);
    sweep_into_slice(cols, skeleton, memo, pairs, &mut out[base..])
}

/// The reference scalar kernel the sweep replaced: one data-dependent
/// branch chain per lane, appending to `out`. Kept as the A/B baseline
/// ([`QueryEngine::answer_batch_scalar_into`]) and the differential
/// suite's independent oracle.
pub(crate) fn answer_into_scalar<Q: Copy + Ord, S: SpecIndex>(
    cols: &SoaColumns<Q>,
    skeleton: &S,
    memo: Option<&SharedMemo>,
    pairs: &[(RunVertexId, RunVertexId)],
    out: &mut Vec<bool>,
) -> (u64, u64) {
    // Equal-length sub-slices + one explicit range check per pair let the
    // compiler elide the per-column bounds checks in the gathers below.
    let n = cols.q1.len();
    let (q1, q2, q3, origin) = (
        &cols.q1[..n],
        &cols.q2[..n],
        &cols.q3[..n],
        &cols.origin[..n],
    );
    let mut ctx = 0u64;
    let mut skel = 0u64;
    out.extend(pairs.iter().map(|&(u, v)| {
        let (a, b) = (u.index(), v.index());
        assert!(a < n && b < n, "query vertex out of range");
        match context_fast_path((q1[a], q2[a], q3[a]), (q1[b], q2[b], q3[b])) {
            Some(ans) => {
                ctx += 1;
                ans
            }
            None => {
                skel += 1;
                match memo {
                    Some(memo) => memo.reaches(origin[a], origin[b], skeleton),
                    None => skeleton.reaches(origin[a], origin[b]),
                }
            }
        }
    }));
    (ctx, skel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::predicate;
    use wfp_graph::TransitiveClosure;
    use wfp_model::fixtures::{paper_run, paper_spec};
    use wfp_speclabel::{SchemeKind, SpecScheme};

    fn paper_engine(kind: SchemeKind) -> (wfp_model::Run, QueryEngine<SpecScheme>) {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let labeled =
            LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
        (run, QueryEngine::from_labeled(labeled))
    }

    fn all_pairs(run: &wfp_model::Run) -> Vec<(RunVertexId, RunVertexId)> {
        run.vertices()
            .flat_map(|u| run.vertices().map(move |v| (u, v)))
            .collect()
    }

    #[test]
    fn batch_matches_the_bfs_oracle_under_every_scheme() {
        for &kind in &SchemeKind::ALL {
            let (run, engine) = paper_engine(kind);
            let oracle = TransitiveClosure::build(run.graph());
            let pairs = all_pairs(&run);
            let answers = engine.answer_batch(&pairs);
            for (&(u, v), &ans) in pairs.iter().zip(&answers) {
                assert_eq!(ans, oracle.reaches(u.raw(), v.raw()), "{kind} ({u},{v})");
            }
        }
    }

    #[test]
    fn batch_matches_scalar_predicate_and_scalar_answer() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Dfs, spec.graph()),
            &run,
        )
        .unwrap();
        let pairs = all_pairs(&run);
        let scalar: Vec<bool> = pairs
            .iter()
            .map(|&(u, v)| predicate(labeled.label(u), labeled.label(v), labeled.skeleton()))
            .collect();
        let engine = QueryEngine::from_labeled(labeled);
        assert_eq!(engine.answer_batch(&pairs), scalar);
        for (&(u, v), &expected) in pairs.iter().zip(&scalar) {
            assert_eq!(engine.answer(u, v), expected);
        }
    }

    #[test]
    fn memo_amortizes_repeated_origin_pairs() {
        let (run, engine) = paper_engine(SchemeKind::Bfs);
        let pairs = all_pairs(&run);
        engine.answer_batch(&pairs);
        let first = engine.stats();
        assert_eq!(first.total(), pairs.len() as u64);
        assert!(first.skeleton_probes > 0);
        // A warm second pass probes the skeleton zero more times.
        engine.answer_batch(&pairs);
        let second = engine.stats();
        assert_eq!(second.total(), 2 * pairs.len() as u64);
        assert_eq!(second.skeleton_probes, first.skeleton_probes);
        assert!(second.memo_hits > first.memo_hits);
    }

    #[test]
    fn parallel_matches_sequential_and_is_deterministic() {
        // TCM bypasses the shared memo, BFS exercises it concurrently:
        // both paths must agree with the sequential batch across
        // interleaved chunks.
        for kind in [SchemeKind::Tcm, SchemeKind::Bfs] {
            let (run, engine) = paper_engine(kind);
            // Repeat the pair set to cross the chunking threshold.
            let mut pairs = Vec::new();
            for _ in 0..40 {
                pairs.extend(all_pairs(&run));
            }
            let sequential = engine.answer_batch(&pairs);
            for threads in [2usize, 3, 8] {
                let parallel = engine.answer_batch_parallel(&pairs, threads);
                assert_eq!(parallel, sequential, "{kind}, threads = {threads}");
            }
        }
    }

    #[test]
    fn scalar_reference_kernel_matches_the_sweep_exactly() {
        // Answers AND decision counters must agree between the branchless
        // sweep and the per-lane reference kernel, memoized (BFS) or not
        // (TCM), including partial trailing blocks.
        for kind in [SchemeKind::Tcm, SchemeKind::Bfs] {
            let (run, engine) = paper_engine(kind);
            let mut pairs = all_pairs(&run);
            pairs.truncate(pairs.len() - pairs.len() % BLOCK + 3);
            let sweep = engine.answer_batch(&pairs);
            let after_sweep = engine.stats();
            let mut buf = Vec::new();
            assert_eq!(
                engine.answer_batch_scalar_into(&pairs, &mut buf),
                sweep,
                "{kind}"
            );
            let after_scalar = engine.stats();
            assert_eq!(
                after_scalar.context_only - after_sweep.context_only,
                after_sweep.context_only,
                "{kind}: scalar context-only count diverged"
            );
            assert_eq!(
                after_scalar.skeleton - after_sweep.skeleton,
                after_sweep.skeleton,
                "{kind}: scalar skeleton count diverged"
            );
        }
    }

    #[test]
    fn empty_batch_and_empty_labels() {
        let (_, engine) = paper_engine(SchemeKind::Tcm);
        assert!(engine.answer_batch(&[]).is_empty());
        assert_eq!(engine.stats().total(), 0);

        let g = wfp_graph::DiGraph::with_vertices(1);
        let empty = QueryEngine::from_labels(&[], SpecScheme::build(SchemeKind::Tcm, &g));
        assert_eq!(empty.vertex_count(), 0);
        assert!(empty.columns().is_empty());
        assert_eq!(empty.columns().origin_bound(), 0);
        assert!(empty.answer_batch(&[]).is_empty());
    }

    #[test]
    fn from_labels_round_trips_columns() {
        let (run, engine) = paper_engine(SchemeKind::Chain);
        let spec = paper_spec();
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Chain, spec.graph()),
            &run,
        )
        .unwrap();
        for v in run.vertices() {
            assert_eq!(&engine.columns().label(v), labeled.label(v));
        }
        assert_eq!(engine.vertex_count(), run.vertex_count());
    }

    #[test]
    fn engines_over_one_context_share_the_memo() {
        // Two engines viewing one Arc<SpecContext>: pairs warmed by the
        // first are memo hits for the second — the spec/run split's point.
        let spec = paper_spec();
        let run = paper_run(&spec);
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Bfs, spec.graph()),
            &run,
        )
        .unwrap();
        let (labels, skeleton) = labeled.into_parts();
        let ctx = SpecContext::for_spec(&spec, skeleton).shared();
        let a = QueryEngine::from_parts(Arc::clone(&ctx), RunHandle::from_labels(&labels));
        let b = QueryEngine::from_parts(Arc::clone(&ctx), RunHandle::from_labels(&labels));
        assert_eq!(Arc::strong_count(&ctx), 3);

        let pairs = all_pairs(&run);
        let first = a.answer_batch(&pairs);
        let probes_after_a = ctx.memo().probes();
        assert!(probes_after_a > 0);
        assert_eq!(b.answer_batch(&pairs), first);
        assert_eq!(
            ctx.memo().probes(),
            probes_after_a,
            "engine b re-probed the skeleton despite the shared warm memo"
        );
    }
}
