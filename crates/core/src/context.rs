//! The spec/run split: shared per-specification state ([`SpecContext`])
//! and slim per-run state ([`RunHandle`]).
//!
//! The paper's headline result is that a run label factors into a tiny
//! per-run part (three order positions) plus a *skeleton* part that depends
//! only on the specification (§4, §7) — which is what makes the scheme
//! amortize: all runs of one workflow spec share a single skeleton index.
//! This module makes that factoring explicit in the type system:
//!
//! * [`SpecContext<S>`] owns everything that is a function of the
//!   specification alone — the skeleton index and a **concurrent-read**
//!   skeleton memo ([`SharedMemo`]) — and is `Arc`-shareable across every
//!   engine, live run and fleet serving that specification.
//! * [`RunHandle`] owns everything that is a function of one run — the
//!   struct-of-arrays label columns — and nothing else: ~16 bytes per
//!   executed vertex, no skeleton, no memo.
//! * [`crate::engine::QueryEngine`] is a thin view over one
//!   `(Arc<SpecContext>, RunHandle)` pair; [`crate::fleet::FleetEngine`]
//!   serves many runs, packed as [`PackedRunHandle`]s (and in-flight
//!   [`crate::live::LiveRun`]s), over one context.
//!
//! [`SharedMemo`] replaces the former `&mut`-access dense memo with a
//! two-tier interior-mutable design:
//!
//! * **warm snapshot** — a dense `side × side` matrix of atomic bytes over
//!   the origin pairs `(a, b)` with `a, b < side` (sized to the
//!   specification's module count, so every valid origin pair lands here).
//!   Reads and writes are single relaxed atomic byte operations — the same
//!   cost as the old memo's plain byte load, but safe under concurrent
//!   readers. Writes are idempotent (every writer computes the same
//!   deterministic sub-answer), so races only waste a probe, never change
//!   an answer.
//! * **miss shards** — origin pairs beyond the snapshot (labels decoded
//!   from untrusted bytes, or a snapshot deliberately sized small) fall
//!   through to a small array of mutex-guarded hash maps sharded by pair,
//!   so even out-of-snapshot traffic memoizes without serializing readers
//!   behind one lock. The old design probed such pairs directly every
//!   time.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use wfp_graph::FxHashMap;
use wfp_model::{RunVertexId, Specification};
use wfp_speclabel::SpecIndex;

use crate::engine::SoaLabels;
use crate::label::RunLabel;
use crate::packed::{PackedColumnsView, PackedStore};

/// Cell states of the warm snapshot tier.
const MEMO_UNKNOWN: u8 = 0;
const MEMO_FALSE: u8 = 1;
const MEMO_TRUE: u8 = 2;

/// Number of miss shards (a power of two; pairs hash across them).
const MISS_SHARDS: usize = 16;

/// A concurrent-read memo over `(origin_a, origin_b)` skeleton probes —
/// the shared-memo half of the spec/run split. See the module docs for the
/// two-tier design.
///
/// All methods take `&self`; the memo is `Sync`, so one instance (inside
/// an `Arc`-shared [`SpecContext`]) serves any number of concurrent
/// readers. A memo never changes answers, only their cost.
pub struct SharedMemo {
    side: u32,
    /// dense warm tier: `side × side` atomic cells
    cells: Vec<AtomicU8>,
    /// miss tier: pairs beyond the snapshot, sharded by pair hash
    shards: Box<[Mutex<FxHashMap<u64, bool>>]>,
    /// skeleton probes actually performed (either tier's misses)
    probes: AtomicU64,
    /// probes avoided (either tier's hits)
    hits: AtomicU64,
}

impl SharedMemo {
    /// Hard cap on the snapshot side: the dense tier costs `side²` bytes,
    /// and origin ids can come from *untrusted* label bytes (a decoded
    /// label file, a deserialized provenance store), so a requested bound
    /// must not size an unbounded allocation. 4096 (a 16 MiB matrix)
    /// covers every realistic specification — the paper's largest has 200
    /// modules — while pairs beyond the side land in the miss shards.
    pub const SIDE_CAP: u32 = 4096;

    /// Cap on the entries one miss shard will hold. Untrusted origin ids
    /// must not drive unbounded allocation any more than the snapshot
    /// side may: once a shard is full, further out-of-snapshot pairs are
    /// probed directly (correct, just unamortized — exactly the old dense
    /// memo's behavior for every out-of-bound pair).
    pub const MISS_SHARD_CAP: usize = 1 << 16;

    /// A memo whose warm snapshot covers origins `0..bound.min(SIDE_CAP)`;
    /// pairs beyond the side memoize through the miss shards.
    pub fn new(bound: u32) -> Self {
        let side = bound.min(Self::SIDE_CAP);
        let cells = (0..side as usize * side as usize)
            .map(|_| AtomicU8::new(MEMO_UNKNOWN))
            .collect();
        let shards = (0..MISS_SHARDS)
            .map(|_| Mutex::new(FxHashMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SharedMemo {
            side,
            cells,
            shards,
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Exclusive upper bound on the origins of `labels` — the snapshot
    /// side a memo needs to keep them all in the dense tier.
    pub fn origin_bound_of<'a>(labels: impl IntoIterator<Item = &'a RunLabel>) -> u32 {
        labels
            .into_iter()
            .map(|l| l.origin.raw().saturating_add(1))
            .max()
            .unwrap_or(0)
    }

    /// The memo `skeleton` wants: empty when its probes are already
    /// constant-time ([`SpecIndex::constant_time_queries`] — evaluators
    /// never consult the memo then, so neither the `bound()` scan nor the
    /// matrix allocation runs), otherwise sized by `bound()`. The single
    /// home of the bypass policy for every batch evaluator in the stack.
    pub fn for_skeleton<S: SpecIndex>(skeleton: &S, bound: impl FnOnce() -> u32) -> Self {
        if skeleton.constant_time_queries() {
            SharedMemo::new(0)
        } else {
            SharedMemo::new(bound())
        }
    }

    /// `skeleton.reaches(a, b)`, memoized — concurrent-read, `&self`.
    #[inline]
    pub fn reaches<S: SpecIndex>(&self, a: u32, b: u32, skeleton: &S) -> bool {
        if a < self.side && b < self.side {
            let cell = &self.cells[a as usize * self.side as usize + b as usize];
            match cell.load(Ordering::Relaxed) {
                MEMO_TRUE => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    true
                }
                MEMO_FALSE => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    false
                }
                _ => {
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    let ans = skeleton.reaches(a, b);
                    // Idempotent: every racer stores the same value.
                    cell.store(if ans { MEMO_TRUE } else { MEMO_FALSE }, Ordering::Relaxed);
                    ans
                }
            }
        } else {
            let key = (a as u64) << 32 | b as u64;
            let shard = &self.shards[(a.wrapping_mul(0x9E37_79B1) ^ b) as usize % MISS_SHARDS];
            if let Some(&ans) = shard.lock().expect("memo shard poisoned").get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return ans;
            }
            // Probe outside the lock: a skeleton probe may be a whole BFS,
            // and racing probes of the same pair agree anyway.
            self.probes.fetch_add(1, Ordering::Relaxed);
            let ans = skeleton.reaches(a, b);
            let mut shard = shard.lock().expect("memo shard poisoned");
            // bounded: a full shard stops caching, never stops answering
            if shard.len() < Self::MISS_SHARD_CAP {
                shard.insert(key, ans);
            }
            ans
        }
    }

    /// Credits `n` avoided probes to the hit counter without touching the
    /// cells. The sweep kernel's per-batch probe table answers repeated
    /// `(a, b)` lanes locally after their first lane warmed the memo cell
    /// through [`reaches`](Self::reaches); each such lane would have been
    /// a memo hit under per-lane probing, so the kernel accounts for them
    /// here in bulk — one atomic add per batch instead of one per lane —
    /// keeping the probe/hit counters identical to the scalar kernel's.
    #[inline]
    pub fn note_hits(&self, n: u64) {
        if n != 0 {
            self.hits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The covered side (exclusive origin bound) of the warm snapshot.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Skeleton probes actually performed (misses in either tier).
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Probes avoided by the memo (hits in either tier).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Dumps the dense warm tier as one byte per cell (`side²` bytes) —
    /// the payload of a [`crate::snapshot::seg::MEMO_WARM`] segment.
    /// Relaxed reads: concurrent writers at most turn an *unknown* cell
    /// into a known one, so any interleaving dumps a valid snapshot.
    pub fn warm_cells(&self) -> Vec<u8> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Rebuilds a memo whose dense tier starts from `cells` (the output of
    /// [`warm_cells`](Self::warm_cells)) instead of all-unknown — the warm
    /// hand-me-down that lets a restarted service skip its warm-up probes.
    /// `None` when the cell count does not match `side²`, the side exceeds
    /// [`SIDE_CAP`](Self::SIDE_CAP), or a cell holds an undefined state.
    pub fn from_warm_cells(side: u32, cells: &[u8]) -> Option<Self> {
        if side > Self::SIDE_CAP || cells.len() != side as usize * side as usize {
            return None;
        }
        if cells.iter().any(|&c| c > MEMO_TRUE) {
            return None;
        }
        let mut memo = SharedMemo::new(side);
        for (cell, &v) in memo.cells.iter_mut().zip(cells) {
            *cell.get_mut() = v;
        }
        Some(memo)
    }

    /// Decided (non-unknown) cells in the dense warm tier — how much
    /// warm-up a snapshot carries across a restart.
    pub fn warm_entries(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) != MEMO_UNKNOWN)
            .count()
    }

    /// Entries currently held by the miss shards.
    pub fn miss_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// Approximate heap footprint in bytes (snapshot matrix plus miss-shard
    /// entries), for the fleet's shared-vs-duplicated memory accounting.
    pub fn memory_bytes(&self) -> usize {
        // each miss entry: u64 key + bool + hash-table overhead (~2x)
        self.cells.len() + self.miss_entries() * 2 * (std::mem::size_of::<u64>() + 1)
    }
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("side", &self.side)
            .field("probes", &self.probes())
            .field("hits", &self.hits())
            .field("miss_entries", &self.miss_entries())
            .finish()
    }
}

/// Everything that depends on the *specification* alone: the skeleton
/// index plus the shared skeleton memo. One instance serves every run of
/// the spec — wrap it in an [`std::sync::Arc`] and hand clones to engines,
/// live runs and fleets (see the module docs).
///
/// `SpecContext<S>` itself implements [`SpecIndex`] (probing through the
/// memo), so `Arc<SpecContext<S>>` can stand in wherever a skeleton index
/// is expected.
pub struct SpecContext<S> {
    skeleton: S,
    memo: SharedMemo,
    /// false when the skeleton's probes are already constant-time — then
    /// the memo is pure overhead and every evaluator bypasses it
    memoize: bool,
}

impl<S: SpecIndex> SpecContext<S> {
    /// A context whose memo snapshot covers origins `0..origin_bound`
    /// (e.g. the specification's module count). The memo is left empty
    /// when `skeleton`'s probes are already constant-time.
    pub fn new(skeleton: S, origin_bound: u32) -> Self {
        let memo = SharedMemo::for_skeleton(&skeleton, || origin_bound);
        let memoize = !skeleton.constant_time_queries();
        SpecContext {
            skeleton,
            memo,
            memoize,
        }
    }

    /// [`new`](Self::new) sized for `spec`: every module of the
    /// specification is a valid origin, so the whole origin space lands in
    /// the warm snapshot.
    pub fn for_spec(spec: &Specification, skeleton: S) -> Self {
        SpecContext::new(skeleton, spec.module_count() as u32)
    }

    /// A context around a memo restored from a snapshot
    /// ([`crate::snapshot::read_spec_context`]); the bypass policy is
    /// re-derived from the (rebuilt) skeleton, exactly as in
    /// [`new`](Self::new).
    pub(crate) fn from_restored(skeleton: S, memo: SharedMemo) -> Self {
        let memoize = !skeleton.constant_time_queries();
        SpecContext {
            skeleton,
            memo,
            memoize,
        }
    }

    /// Wraps the context for sharing — the canonical way to obtain the
    /// `Arc` that engines, live runs and fleets hold.
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The skeleton index queries delegate to.
    pub fn skeleton(&self) -> &S {
        &self.skeleton
    }

    /// The shared skeleton memo.
    pub fn memo(&self) -> &SharedMemo {
        &self.memo
    }

    /// The memo evaluators should thread through the batch kernel: `None`
    /// under constant-time skeletons (the memo round trip costs more than
    /// the probe it would save), `Some` otherwise.
    #[inline]
    pub fn probe_memo(&self) -> Option<&SharedMemo> {
        self.memoize.then_some(&self.memo)
    }

    /// `skeleton.reaches(a, b)` through the shared memo (bypassed for
    /// constant-time skeletons).
    #[inline]
    pub fn reaches(&self, a: u32, b: u32) -> bool {
        if self.memoize {
            self.memo.reaches(a, b, &self.skeleton)
        } else {
            self.skeleton.reaches(a, b)
        }
    }

    /// Approximate heap footprint in bytes of the spec-level state
    /// (skeleton labels plus memo) — the amount *saved per additional run*
    /// by sharing one context instead of duplicating it.
    pub fn memory_bytes(&self) -> usize {
        self.skeleton.total_bits().div_ceil(8) + self.memo.memory_bytes()
    }
}

impl<S: SpecIndex> SpecIndex for SpecContext<S> {
    fn build(graph: &wfp_graph::DiGraph) -> Self {
        let skeleton = S::build(graph);
        let bound = graph.vertex_count() as u32;
        SpecContext::new(skeleton, bound)
    }

    #[inline]
    fn reaches(&self, u: u32, v: u32) -> bool {
        SpecContext::reaches(self, u, v)
    }

    fn constant_time_queries(&self) -> bool {
        // probes through the warm memo are themselves one atomic byte load
        self.skeleton.constant_time_queries()
    }

    fn label_bits(&self, v: u32) -> usize {
        self.skeleton.label_bits(v)
    }

    fn name(&self) -> &'static str {
        self.skeleton.name()
    }

    fn total_bits(&self) -> usize {
        self.skeleton.total_bits()
    }
}

/// The per-run half of the spec/run split: the struct-of-arrays label
/// columns of one labeled run, and nothing else. ~16 bytes per vertex;
/// pair it with an `Arc<SpecContext>` to query (via
/// [`crate::engine::QueryEngine`]), or pack it ([`PackedRunHandle::pack`])
/// as a [`crate::fleet::FleetEngine`] does.
pub struct RunHandle {
    cols: SoaLabels,
    /// decision counters, shaped like [`crate::engine::EngineStats`]'s
    /// first two fields; atomic so fleets can account per run under `&self`
    context_only: AtomicU64,
    skeleton_queries: AtomicU64,
}

impl RunHandle {
    /// Transposes a label slice into a run handle.
    pub fn from_labels(labels: &[RunLabel]) -> Self {
        Self::from_columns(SoaLabels::from_labels(labels))
    }

    /// Wraps already-transposed columns.
    pub fn from_columns(cols: SoaLabels) -> Self {
        RunHandle {
            cols,
            context_only: AtomicU64::new(0),
            skeleton_queries: AtomicU64::new(0),
        }
    }

    /// Number of labeled vertices.
    pub fn vertex_count(&self) -> usize {
        self.cols.len()
    }

    /// The SoA label columns.
    pub fn columns(&self) -> &SoaLabels {
        &self.cols
    }

    /// Re-gathers the label of vertex `v` (spot checks only).
    pub fn label(&self, v: RunVertexId) -> RunLabel {
        self.cols.label(v)
    }

    /// Pairs decided by the context encoding alone, over this run.
    pub fn context_only(&self) -> u64 {
        self.context_only.load(Ordering::Relaxed)
    }

    /// Pairs delegated to the skeleton, over this run.
    pub fn skeleton_queries(&self) -> u64 {
        self.skeleton_queries.load(Ordering::Relaxed)
    }

    /// Folds one batch's decision counts into the run's counters.
    #[inline]
    pub(crate) fn count(&self, context_only: u64, skeleton: u64) {
        self.context_only.fetch_add(context_only, Ordering::Relaxed);
        self.skeleton_queries.fetch_add(skeleton, Ordering::Relaxed);
    }

    /// Approximate heap footprint in bytes: four `u32` columns.
    pub fn memory_bytes(&self) -> usize {
        self.cols.len() * 4 * std::mem::size_of::<u32>()
    }
}

impl std::fmt::Debug for RunHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHandle")
            .field("vertices", &self.cols.len())
            .finish()
    }
}

/// A [`RunHandle`] whose label columns stay bit-packed
/// ([`PackedColumnsView`]): the one form in which a
/// [`crate::fleet::FleetEngine`] holds a frozen run, packed when the fleet
/// registers or freezes it, or bound when it loads a snapshot. A packed
/// run owns its buffer; a loaded one shares the snapshot's load buffer.
/// Queries decode inside the sweep kernel's gather — answers and counters
/// are byte-identical to the raw handle, at a fraction of the footprint.
pub struct PackedRunHandle {
    cols: PackedColumnsView,
    context_only: AtomicU64,
    skeleton_queries: AtomicU64,
}

impl PackedRunHandle {
    /// Packs a raw run handle, carrying its decision counters over so
    /// fleet statistics stay continuous across a freeze.
    pub fn pack(handle: &RunHandle) -> Self {
        let view = PackedColumnsView::pack(handle.columns());
        let packed = Self::from_store(PackedStore::View(view));
        packed.count(handle.context_only(), handle.skeleton_queries());
        packed
    }

    /// Wraps packed columns (fresh counters — the snapshot layer restores
    /// persisted counters separately).
    pub fn from_store(cols: PackedStore) -> Self {
        let PackedStore::View(cols) = cols;
        PackedRunHandle {
            cols,
            context_only: AtomicU64::new(0),
            skeleton_queries: AtomicU64::new(0),
        }
    }

    /// Number of labeled vertices.
    pub fn vertex_count(&self) -> usize {
        self.cols.len()
    }

    /// The packed label columns.
    pub fn columns(&self) -> &PackedColumnsView {
        &self.cols
    }

    /// Re-gathers the label of vertex `v` (spot checks only).
    pub fn label(&self, v: RunVertexId) -> RunLabel {
        self.cols.label(v)
    }

    /// Pairs decided by the context encoding alone, over this run.
    pub fn context_only(&self) -> u64 {
        self.context_only.load(Ordering::Relaxed)
    }

    /// Pairs delegated to the skeleton, over this run.
    pub fn skeleton_queries(&self) -> u64 {
        self.skeleton_queries.load(Ordering::Relaxed)
    }

    /// Folds one batch's decision counts into the run's counters.
    #[inline]
    pub(crate) fn count(&self, context_only: u64, skeleton: u64) {
        self.context_only.fetch_add(context_only, Ordering::Relaxed);
        self.skeleton_queries.fetch_add(skeleton, Ordering::Relaxed);
    }

    /// Approximate resident footprint in bytes: the packed payload.
    pub fn memory_bytes(&self) -> usize {
        self.cols.memory_bytes()
    }
}

impl std::fmt::Debug for PackedRunHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedRunHandle")
            .field("vertices", &self.cols.len())
            .field("bytes", &self.cols.memory_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_model::fixtures::{paper_run, paper_spec};
    use wfp_speclabel::{SchemeKind, SpecScheme};

    #[test]
    fn shared_memo_caches_both_tiers() {
        let mut g = wfp_graph::DiGraph::with_vertices(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let skeleton = SpecScheme::build(SchemeKind::Bfs, &g);
        let memo = SharedMemo::new(1); // snapshot covers only origin 0
        assert!(memo.reaches(0, 0, &skeleton));
        assert!(memo.reaches(1, 2, &skeleton)); // beyond the snapshot: miss shard
        assert_eq!(memo.probes(), 2);
        assert_eq!(memo.hits(), 0);
        // second probes of both pairs hit their tiers
        assert!(memo.reaches(0, 0, &skeleton));
        assert!(memo.reaches(1, 2, &skeleton));
        assert_eq!(memo.probes(), 2);
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.miss_entries(), 1);
        assert!(memo.memory_bytes() > 0);
    }

    #[test]
    fn shared_memo_is_safe_under_concurrent_readers() {
        let mut g = wfp_graph::DiGraph::with_vertices(8);
        for v in 1..8 {
            g.add_edge(v - 1, v);
        }
        let oracle = wfp_graph::TransitiveClosure::build(&g);
        let skeleton = SpecScheme::build(SchemeKind::Bfs, &g);
        let memo = SharedMemo::new(4); // half snapshot, half miss shards
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let memo = &memo;
                let (oracle, skeleton) = (&oracle, &skeleton);
                scope.spawn(move || {
                    for pass in 0..3 {
                        for a in 0..8u32 {
                            for b in 0..8u32 {
                                assert_eq!(
                                    memo.reaches(a, b, skeleton),
                                    oracle.reaches(a, b),
                                    "({a},{b}) pass {pass}"
                                );
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(memo.probes() + memo.hits(), 4 * 3 * 64);
        assert!(memo.hits() > 0);
    }

    #[test]
    fn spec_context_is_an_index_and_bypasses_for_tcm() {
        let spec = paper_spec();
        let bfs = SpecContext::for_spec(&spec, SpecScheme::build(SchemeKind::Bfs, spec.graph()));
        assert!(bfs.probe_memo().is_some());
        assert!(bfs.reaches(0, 0));
        assert!(bfs.memo().probes() + bfs.memo().hits() > 0);
        let tcm = SpecContext::for_spec(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
        assert!(tcm.probe_memo().is_none());
        assert!(tcm.reaches(0, 0));
        assert_eq!(
            tcm.memo().probes(),
            0,
            "constant-time probes bypass the memo"
        );
        assert!(tcm.memory_bytes() > 0);
        // the SpecIndex impl answers identically to the wrapped skeleton
        use wfp_speclabel::SpecIndex as _;
        let n = spec.module_count() as u32;
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    SpecIndex::reaches(&bfs, a, b),
                    tcm.skeleton().reaches(a, b),
                    "({a},{b})"
                );
            }
        }
        assert_eq!(bfs.name(), "BFS");
    }

    #[test]
    fn run_handle_round_trips_labels() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let labeled = crate::LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        let handle = RunHandle::from_labels(labeled.labels());
        assert_eq!(handle.vertex_count(), run.vertex_count());
        for v in run.vertices() {
            assert_eq!(&handle.label(v), labeled.label(v));
        }
        assert_eq!(handle.memory_bytes(), run.vertex_count() * 16);
        assert_eq!(handle.context_only(), 0);
    }
}
