//! Multi-run serving: one [`SpecContext`] answering probe traffic for a
//! whole fleet of runs.
//!
//! The paper's amortization argument (§1, §7) is that the skeleton labels
//! are paid **once per specification**, not once per run. Production
//! provenance services see exactly that shape: one workflow spec, executed
//! thousands of times, queried across runs. A [`FleetEngine`] is the
//! registry that serves it:
//!
//! * it holds a single `Arc`-shared [`SpecContext`] (skeleton index +
//!   concurrent skeleton memo) and any number of **frozen** runs and
//!   **in-flight** [`LiveRun`]s — all registered under [`RunId`]s. A
//!   frozen run has one form: its label columns bit-packed as a
//!   [`PackedRunHandle`] (a few bytes per vertex), packed when it is
//!   registered or frozen and saved as those same bytes;
//! * it answers `(run, u, v)` probes scalar or batched; a batch may mix
//!   runs freely — traffic is sharded **by run** internally (each run's
//!   probes stream through the SoA kernel together) and results come back
//!   in input order, deterministically;
//! * runs can be frozen in place ([`FleetEngine::freeze_run`], the
//!   zero-re-labeling handoff) and evicted ([`FleetEngine::evict`]);
//!   evicted ids stay tombstoned so late probes fail loudly instead of
//!   hitting a recycled slot;
//! * [`FleetEngine::stats`] accounts the shared-vs-duplicated memory: what
//!   the fleet holds once versus what `K` independent engines would hold.
//!
//! ```
//! use wfp_model::fixtures;
//! use wfp_skl::fleet::FleetEngine;
//! use wfp_skl::LabeledRun;
//! use wfp_speclabel::{SchemeKind, SpecScheme};
//!
//! let spec = fixtures::paper_spec();
//! let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
//! let run = fixtures::paper_run(&spec);
//! let labeled = LabeledRun::build(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()), &run)
//!     .unwrap();
//! let a = fleet.register_labels(labeled.labels());
//! let b = fleet.register_labels(labeled.labels()); // another run, same spec
//!
//! let b1 = fixtures::paper_vertex(&spec, &run, "b1");
//! let c3 = fixtures::paper_vertex(&spec, &run, "c3");
//! let answers = fleet
//!     .answer_batch(&[(a, c3, c3), (b, b1, c3)])
//!     .unwrap();
//! assert_eq!(answers, vec![true, false]);
//! assert_eq!(fleet.stats().packed, 2);
//! ```

use std::sync::Arc;

use wfp_model::{RunVertexId, Specification};
use wfp_speclabel::SpecIndex;

use wfp_speclabel::SpecScheme;

use crate::context::{PackedRunHandle, RunHandle, SpecContext};
use crate::engine::{answer_into, sweep_into_slice, EngineStats};
use crate::label::RunLabel;
use crate::live::LiveRun;
use crate::online::OnlineError;
use crate::packed::{PackedColumnsView, PackedStore};
use crate::snapshot;

/// Identifier of a run registered in a [`FleetEngine`]. Ids are assigned
/// densely in registration order and never reused, even after eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub u32);

impl RunId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run#{}", self.0)
    }
}

/// Errors of the fleet registry.
#[derive(Debug)]
pub enum FleetError {
    /// The run id was never registered in this fleet.
    UnknownRun(RunId),
    /// The run was registered but has since been evicted.
    Evicted(RunId),
    /// The operation requires an in-flight run, but this one is frozen.
    NotLive(RunId),
    /// A [`LiveRun`] built over a *different* [`SpecContext`] was offered
    /// for registration; its memo and skeleton are not this fleet's.
    ForeignContext,
    /// A probe names a vertex the run does not have (not executed yet, for
    /// an in-flight run).
    VertexOutOfRange {
        /// The (valid) run the vertex was looked up in.
        run: RunId,
        /// The out-of-range vertex.
        vertex: RunVertexId,
        /// The run's vertex count: valid vertices are `0..len`.
        len: usize,
    },
    /// The run is registered, but it has no item with this index (used by
    /// item-keyed layers such as `wfp_provenance`'s fleet index).
    UnknownItem {
        /// The (valid) run the item was looked up in.
        run: RunId,
        /// The out-of-range item index.
        item: u32,
    },
    /// Freezing an in-flight run failed (the event stream is incomplete).
    FreezeFailed(RunId, OnlineError),
    /// A snapshot was requested while this run is still in-flight: live
    /// order-maintenance state is not persistable — freeze (or evict) the
    /// run first.
    StillLive(RunId),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownRun(r) => write!(f, "{r} was never registered"),
            FleetError::Evicted(r) => write!(f, "{r} has been evicted"),
            FleetError::NotLive(r) => write!(f, "{r} is frozen, not in-flight"),
            FleetError::ForeignContext => {
                write!(f, "live run belongs to a different specification context")
            }
            FleetError::VertexOutOfRange { run, vertex, len } => {
                write!(f, "{run} has no vertex {vertex} (it has {len})")
            }
            FleetError::UnknownItem { run, item } => {
                write!(f, "{run} has no data item #{item}")
            }
            FleetError::FreezeFailed(r, e) => write!(f, "cannot freeze {r}: {e}"),
            FleetError::StillLive(r) => {
                write!(
                    f,
                    "cannot snapshot {r}: it is still in-flight (freeze it first)"
                )
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::FreezeFailed(_, e) => Some(e),
            _ => None,
        }
    }
}

/// One registry slot.
enum Slot<'s, S> {
    /// A frozen run, its columns bit-packed.
    Frozen(PackedRunHandle),
    Live(Box<LiveRun<'s, S>>),
    Evicted,
}

impl<S: SpecIndex> Slot<'_, S> {
    /// Executed vertices of the run in this slot (0 for a tombstone).
    fn vertex_count(&self) -> usize {
        match self {
            Slot::Frozen(h) => h.vertex_count(),
            Slot::Live(l) => l.vertex_count(),
            Slot::Evicted => 0,
        }
    }
}

/// Shared-vs-duplicated accounting plus aggregate decision counters for
/// one fleet. See [`FleetEngine::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Always 0: every frozen run is stored packed and counted in
    /// [`packed`](Self::packed). It stays for callers that read it.
    pub frozen: usize,
    /// Frozen runs currently registered, each stored bit-packed
    /// ([`PackedRunHandle`]).
    pub packed: usize,
    /// In-flight live runs currently registered.
    pub live: usize,
    /// Runs evicted over the fleet's lifetime.
    pub evicted: usize,
    /// Strong references to the shared [`SpecContext`] (the fleet itself,
    /// each live run's labeler, plus any external holders) — direct proof
    /// that one instance serves every run.
    pub context_refs: usize,
    /// Bytes of spec-level state (skeleton + memo), held **once**.
    pub spec_bytes: usize,
    /// What the same runs would hold as independent engines: one skeleton
    /// + memo copy per active run.
    pub spec_bytes_if_per_run: usize,
    /// Bytes of per-run label columns across all active runs.
    pub run_bytes: usize,
    /// Frozen runs served out of a [`crate::PackedColumnsView`]. Every
    /// frozen run is one, so this always equals [`packed`](Self::packed);
    /// it stays for callers that read it.
    pub zero_copy: usize,
    /// Decision counters summed over all runs; memo counters are the
    /// shared context's.
    pub engine: EngineStats,
}

impl FleetStats {
    /// Active (non-evicted) runs, frozen or live.
    pub fn active(&self) -> usize {
        self.packed + self.live
    }

    /// Bytes saved by sharing the spec-level state instead of duplicating
    /// it per run.
    pub fn bytes_saved(&self) -> usize {
        self.spec_bytes_if_per_run.saturating_sub(self.spec_bytes)
    }
}

/// A registry of runs — frozen and in-flight — served by one shared
/// [`SpecContext`]. See the module docs.
///
/// The lifetime `'s` is the specification borrow of registered live runs;
/// a frozen-only fleet can use any lifetime (e.g. the spec's own).
pub struct FleetEngine<'s, S> {
    ctx: Arc<SpecContext<S>>,
    slots: Vec<Slot<'s, S>>,
    evicted: usize,
}

impl<'s, S: SpecIndex> FleetEngine<'s, S> {
    /// A fleet over an already-shared context.
    pub fn new(ctx: Arc<SpecContext<S>>) -> Self {
        FleetEngine {
            ctx,
            slots: Vec::new(),
            evicted: 0,
        }
    }

    /// A fleet over a fresh context sized for `spec` (see
    /// [`SpecContext::for_spec`]).
    pub fn for_spec(spec: &Specification, skeleton: S) -> Self {
        Self::new(SpecContext::for_spec(spec, skeleton).shared())
    }

    /// The shared spec-level state every registered run answers through.
    pub fn context(&self) -> &Arc<SpecContext<S>> {
        &self.ctx
    }

    // ---------------- registration -------------------------------------

    fn push(&mut self, slot: Slot<'s, S>) -> RunId {
        let id = RunId(self.slots.len() as u32);
        self.slots.push(slot);
        id
    }

    /// Registers a frozen run from its offline labels, stored bit-packed
    /// ([`PackedRunHandle::pack`]): it serves, saves and reloads in that
    /// one form.
    pub fn register_labels(&mut self, labels: &[RunLabel]) -> RunId {
        let run = PackedRunHandle::pack(&RunHandle::from_labels(labels));
        self.push(Slot::Frozen(run))
    }

    /// Registers an in-flight run. The live run must have been created
    /// over **this fleet's** context ([`LiveRun::with_context`] /
    /// [`FleetEngine::begin_live`]); a run carrying a foreign context is
    /// rejected, because its answers would consult a different skeleton.
    pub fn register_live(&mut self, live: LiveRun<'s, S>) -> Result<RunId, FleetError> {
        if !Arc::ptr_eq(live.context(), &self.ctx) {
            return Err(FleetError::ForeignContext);
        }
        Ok(self.push(Slot::Live(Box::new(live))))
    }

    /// Starts a new in-flight run of `spec` under the shared context and
    /// registers it immediately. Feed it events via
    /// [`live_mut`](Self::live_mut).
    pub fn begin_live(&mut self, spec: &'s Specification) -> RunId {
        let live = LiveRun::with_context(spec, Arc::clone(&self.ctx));
        self.push(Slot::Live(Box::new(live)))
    }

    fn slot(&self, run: RunId) -> Result<&Slot<'s, S>, FleetError> {
        match self.slots.get(run.index()) {
            None => Err(FleetError::UnknownRun(run)),
            Some(Slot::Evicted) => Err(FleetError::Evicted(run)),
            Some(slot) => Ok(slot),
        }
    }

    /// Mutable access to an in-flight run, for event ingestion.
    pub fn live_mut(&mut self, run: RunId) -> Result<&mut LiveRun<'s, S>, FleetError> {
        match self.slots.get_mut(run.index()) {
            None => Err(FleetError::UnknownRun(run)),
            Some(Slot::Evicted) => Err(FleetError::Evicted(run)),
            Some(Slot::Frozen(_)) => Err(FleetError::NotLive(run)),
            Some(Slot::Live(live)) => Ok(live),
        }
    }

    /// Freezes an in-flight run in place: the exact offline labels replace
    /// the tag columns (zero re-labeling, [`LiveRun::freeze_handle`]) and
    /// are packed as [`register_labels`](Self::register_labels) packs, the
    /// decision counters carried over. The run id stays valid and the
    /// shared context is untouched. Fails if the event stream is
    /// structurally incomplete — the run then remains registered and live.
    pub fn freeze_run(&mut self, run: RunId) -> Result<(), FleetError> {
        let slot = match self.slots.get_mut(run.index()) {
            None => return Err(FleetError::UnknownRun(run)),
            Some(Slot::Evicted) => return Err(FleetError::Evicted(run)),
            Some(Slot::Frozen(_)) => return Err(FleetError::NotLive(run)),
            Some(slot) => slot,
        };
        if let Slot::Live(live) = &*slot {
            // check before consuming, so a failed freeze leaves the run
            // registered and live
            live.check_complete()
                .map_err(|e| FleetError::FreezeFailed(run, e))?;
        }
        let live = match std::mem::replace(slot, Slot::Evicted) {
            Slot::Live(live) => live,
            _ => unreachable!("matched Live above"),
        };
        // carry the decision counters across the freeze
        let decisions = live.stats().engine;
        let (handle, _ctx) = live
            .freeze_handle()
            .expect("completeness checked just above");
        handle.count(decisions.context_only, decisions.skeleton);
        *slot = Slot::Frozen(PackedRunHandle::pack(&handle));
        Ok(())
    }

    /// Evicts a run, releasing its label columns. The id stays tombstoned:
    /// later probes fail with [`FleetError::Evicted`] instead of silently
    /// hitting a recycled slot.
    pub fn evict(&mut self, run: RunId) -> Result<(), FleetError> {
        match self.slots.get_mut(run.index()) {
            None => Err(FleetError::UnknownRun(run)),
            Some(Slot::Evicted) => Err(FleetError::Evicted(run)),
            Some(slot) => {
                *slot = Slot::Evicted;
                self.evicted += 1;
                Ok(())
            }
        }
    }

    /// Whether `run` is registered and not evicted.
    pub fn contains(&self, run: RunId) -> bool {
        self.slot(run).is_ok()
    }

    /// Ids of all active (non-evicted) runs, in registration order.
    pub fn run_ids(&self) -> impl Iterator<Item = RunId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| (!matches!(s, Slot::Evicted)).then_some(RunId(i as u32)))
    }

    /// Number of active runs.
    pub fn run_count(&self) -> usize {
        self.slots.len() - self.evicted
    }

    /// Total registry slots ever allocated (active runs plus eviction
    /// tombstones) — the exclusive upper bound on issued [`RunId`]s.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Executed-vertex count of a registered run.
    pub fn vertex_count(&self, run: RunId) -> Result<usize, FleetError> {
        Ok(self.slot(run)?.vertex_count())
    }

    /// [`slot`](Self::slot) for a probe `u ⇝ v`, which must also name two
    /// vertices of the run: an out-of-range id is a typed
    /// [`FleetError::VertexOutOfRange`] here, before it can reach a
    /// kernel's range assert.
    fn probe_slot(
        &self,
        run: RunId,
        u: RunVertexId,
        v: RunVertexId,
    ) -> Result<&Slot<'s, S>, FleetError> {
        let slot = self.slot(run)?;
        let len = slot.vertex_count();
        if u.index().max(v.index()) < len {
            return Ok(slot);
        }
        let vertex = if u.index() >= len { u } else { v };
        Err(FleetError::VertexOutOfRange { run, vertex, len })
    }

    // ---------------- probes -------------------------------------------

    /// Whether `u ⇝ v` within `run` — the scalar entry point
    /// (allocation-free for frozen runs).
    pub fn answer(&self, run: RunId, u: RunVertexId, v: RunVertexId) -> Result<bool, FleetError> {
        Ok(match self.probe_slot(run, u, v)? {
            Slot::Frozen(h) => {
                let (ans, path) = crate::packed::answer_one_packed(h.columns(), &self.ctx, u, v);
                match path {
                    crate::label::QueryPath::ContextOnly => h.count(1, 0),
                    crate::label::QueryPath::Skeleton => h.count(0, 1),
                }
                ans
            }
            Slot::Live(l) => l.answer(u, v),
            Slot::Evicted => unreachable!("slot() filtered"),
        })
    }

    /// Groups probe indexes by run slot, validating every run and vertex
    /// id up front (a batch containing one bad id fails as a whole, before
    /// any work).
    fn group(
        &self,
        probes: &[(RunId, RunVertexId, RunVertexId)],
    ) -> Result<Vec<(usize, Vec<usize>)>, FleetError> {
        let mut per_slot: Vec<Vec<usize>> = vec![Vec::new(); self.slots.len()];
        for (i, &(run, u, v)) in probes.iter().enumerate() {
            self.probe_slot(run, u, v)?; // validate
            per_slot[run.index()].push(i);
        }
        Ok(per_slot
            .into_iter()
            .enumerate()
            .filter(|(_, idxs)| !idxs.is_empty())
            .collect())
    }

    /// Answers a batch of cross-run probes, **sharded by run**: each run's
    /// probes stream through the SoA batch kernel together (one cache-warm
    /// pass per run), and answers return in input order regardless of the
    /// internal grouping — deterministic, byte-identical to answering each
    /// probe against its run's own engine.
    pub fn answer_batch(
        &self,
        probes: &[(RunId, RunVertexId, RunVertexId)],
    ) -> Result<Vec<bool>, FleetError> {
        let groups = self.group(probes)?;
        let mut out = vec![false; probes.len()];
        let mut pairs: Vec<(RunVertexId, RunVertexId)> = Vec::new();
        let mut buf: Vec<bool> = Vec::new();
        for (slot_idx, idxs) in groups {
            pairs.clear();
            pairs.extend(idxs.iter().map(|&i| (probes[i].1, probes[i].2)));
            buf.clear();
            match &self.slots[slot_idx] {
                Slot::Frozen(h) => {
                    buf.resize(pairs.len(), false);
                    let (c, s) = sweep_into_slice(
                        h.columns(),
                        self.ctx.skeleton(),
                        self.ctx.probe_memo(),
                        &pairs,
                        &mut buf,
                    );
                    h.count(c, s);
                }
                Slot::Live(l) => {
                    let (c, s) = answer_into(
                        l.columns(),
                        self.ctx.skeleton(),
                        self.ctx.probe_memo(),
                        &pairs,
                        &mut buf,
                    );
                    l.count(c, s);
                }
                Slot::Evicted => unreachable!("group() filtered"),
            }
            for (&i, &ans) in idxs.iter().zip(&buf) {
                out[i] = ans;
            }
        }
        Ok(out)
    }

    // ---------------- accounting ---------------------------------------

    /// Shared-vs-duplicated memory accounting plus aggregate counters. The
    /// headline: `spec_bytes` is held once, where `K` independent engines
    /// would hold `spec_bytes_if_per_run = K × spec_bytes` — and
    /// `context_refs` (the `Arc` strong count) proves the sharing.
    pub fn stats(&self) -> FleetStats {
        let mut stats = FleetStats {
            evicted: self.evicted,
            context_refs: Arc::strong_count(&self.ctx),
            spec_bytes: self.ctx.memory_bytes(),
            ..FleetStats::default()
        };
        for slot in &self.slots {
            match slot {
                Slot::Frozen(h) => {
                    stats.packed += 1;
                    stats.zero_copy += 1;
                    stats.run_bytes += h.memory_bytes();
                    stats.engine.context_only += h.context_only();
                    stats.engine.skeleton += h.skeleton_queries();
                }
                Slot::Live(l) => {
                    stats.live += 1;
                    // u64 tag columns: three 8-byte + one 4-byte column
                    stats.run_bytes += l.vertex_count() * 28;
                    let e = l.stats().engine;
                    stats.engine.context_only += e.context_only;
                    stats.engine.skeleton += e.skeleton;
                }
                Slot::Evicted => {}
            }
        }
        stats.spec_bytes_if_per_run = stats.spec_bytes * stats.active().max(1);
        stats.engine.skeleton_probes = self.ctx.memo().probes();
        stats.engine.memo_hits = self.ctx.memo().hits();
        stats
    }
}

// ====================================================================
// Persistence (the unified snapshot layer, [`crate::snapshot`])
// ====================================================================

/// Slot states in the fleet-manifest segment. States 1 and 2 are
/// reserved: they named the retired raw layout (segment kind `0x0003`)
/// and a retired unaligned packed layout (kind `0x0009`), so reusing
/// either would misread old files. Readers reject both as an unknown slot
/// state.
const SLOT_EVICTED: u8 = 0;
/// A frozen run stored as a bit-packed
/// [`snapshot::seg::PACKED_COLUMNS_ALIGNED`] segment, served on load by a
/// [`crate::PackedColumnsView`] over the load buffer.
const SLOT_FROZEN: u8 = 3;

/// How a fleet's runs came back from a snapshot: how many bound
/// **zero-copy** to the shared load buffer (every frozen run does), and
/// the total snapshot bytes behind the load. Returned by
/// [`FleetEngine::load_shared`] so the registry can attribute reload cost
/// ([`crate::RegistryStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetLoadProfile {
    /// Packed runs bound as views over the load buffer.
    pub zero_copy_runs: usize,
    /// Total snapshot bytes the load was served from.
    pub bytes: usize,
}

impl<'s> FleetEngine<'s, SpecScheme> {
    /// Appends this fleet's segments to a container: the spec record
    /// (scheme kind + graph + warm-memo bytes, via
    /// [`snapshot::write_spec_context`]), a manifest of slot states and
    /// per-run decision counters, and one
    /// [`snapshot::seg::PACKED_COLUMNS_ALIGNED`] segment per frozen run,
    /// each run's packed payload written verbatim. Evicted slots persist as
    /// tombstones so a restored fleet rejects stale [`RunId`]s exactly like
    /// the original.
    ///
    /// Fails with [`FleetError::StillLive`] if any run is in-flight —
    /// live order-maintenance state is deliberately not persistable.
    /// Layers above (e.g. `wfp-provenance`'s fleet index) call this and
    /// then append their own segments to the same container.
    pub fn write_snapshot(
        &self,
        graph: &wfp_graph::DiGraph,
        w: &mut snapshot::SnapshotWriter,
    ) -> Result<(), FleetError> {
        for (i, slot) in self.slots.iter().enumerate() {
            if matches!(slot, Slot::Live(_)) {
                return Err(FleetError::StillLive(RunId(i as u32)));
            }
        }
        snapshot::write_spec_context(w, &self.ctx, graph);
        let mut manifest = Vec::with_capacity(1 + self.slots.len());
        snapshot::put_varint(&mut manifest, self.slots.len() as u64);
        for slot in &self.slots {
            match slot {
                Slot::Frozen(h) => {
                    manifest.push(SLOT_FROZEN);
                    snapshot::put_varint(&mut manifest, h.context_only());
                    snapshot::put_varint(&mut manifest, h.skeleton_queries());
                }
                Slot::Evicted => manifest.push(SLOT_EVICTED),
                Slot::Live(_) => unreachable!("rejected above"),
            }
        }
        w.push(snapshot::seg::FLEET_MANIFEST, manifest);
        for slot in &self.slots {
            // the view hands its payload back verbatim (no encode)
            if let Slot::Frozen(h) = slot {
                w.push(
                    snapshot::seg::PACKED_COLUMNS_ALIGNED,
                    h.columns().payload_bytes().to_vec(),
                );
            }
        }
        Ok(())
    }

    /// Serializes the whole fleet — one spec record plus `K` run segments
    /// — into a standalone snapshot container. See
    /// [`write_snapshot`](Self::write_snapshot).
    pub fn save(&self, graph: &wfp_graph::DiGraph) -> Result<Vec<u8>, FleetError> {
        let mut w = snapshot::SnapshotWriter::new();
        self.write_snapshot(graph, &mut w)?;
        Ok(w.finish())
    }

    /// Restores a fleet from a container parsed out of `buf`: the skeleton
    /// index is rebuilt deterministically from the stored graph, the warm
    /// memo and every run's label columns are mapped back verbatim (no
    /// re-labeling), and slot states — including eviction tombstones and
    /// decision counters — are reinstated. Answers are byte-identical to
    /// the saved fleet's. Every [`snapshot::seg::PACKED_COLUMNS_ALIGNED`]
    /// segment is bound **zero-copy** over `buf` as a
    /// [`crate::PackedColumnsView`]. Returns the fleet, the specification
    /// graph it serves, and a [`FleetLoadProfile`]. A reader whose payloads
    /// do not lie inside `buf` is a typed error.
    pub fn read_snapshot(
        r: &snapshot::SnapshotReader<'_>,
        buf: &Arc<[u8]>,
    ) -> Result<(Self, wfp_graph::DiGraph, FleetLoadProfile), snapshot::FormatError> {
        let (ctx, graph) = snapshot::read_spec_context(r)?;
        let mut cur = snapshot::Cursor::new(r.first(snapshot::seg::FLEET_MANIFEST)?);
        // each slot costs at least one state byte
        let slot_count = cur.guarded_count(1)?;
        let mut fleet = FleetEngine::new(ctx.shared());
        let mut profile = FleetLoadProfile {
            bytes: buf.len(),
            ..FleetLoadProfile::default()
        };
        let mut runs = r.all(snapshot::seg::PACKED_COLUMNS_ALIGNED);
        for _ in 0..slot_count {
            match cur.u8()? {
                SLOT_FROZEN => {
                    let context_only = cur.varint()?;
                    let skeleton_queries = cur.varint()?;
                    let payload = runs.next().ok_or(snapshot::FormatError::Malformed(
                        "manifest promises more runs than stored",
                    ))?;
                    // the payload's offset inside `buf`, if the reader was
                    // parsed from it
                    let off = (payload.as_ptr() as usize)
                        .checked_sub(buf.as_ptr() as usize)
                        .filter(|off| {
                            off.checked_add(payload.len())
                                .is_some_and(|end| end <= buf.len())
                        })
                        .ok_or(snapshot::FormatError::Malformed(
                            "packed payload outside the load buffer",
                        ))?;
                    let view = PackedColumnsView::bind(Arc::clone(buf), off, payload.len())?;
                    // origins index the skeleton's per-module arrays; a
                    // forged column must be a typed error, not an
                    // out-of-bounds panic on the first skeleton probe
                    if view.origin_bound() as usize > graph.vertex_count() {
                        return Err(snapshot::FormatError::Malformed(
                            "run origin outside the specification graph",
                        ));
                    }
                    let handle = PackedRunHandle::from_store(PackedStore::View(view));
                    handle.count(context_only, skeleton_queries);
                    profile.zero_copy_runs += 1;
                    fleet.push(Slot::Frozen(handle));
                }
                SLOT_EVICTED => {
                    fleet.push(Slot::Evicted);
                    fleet.evicted += 1;
                }
                _ => return Err(snapshot::FormatError::Malformed("unknown slot state")),
            }
        }
        cur.finish()?;
        if runs.next().is_some() {
            return Err(snapshot::FormatError::Malformed(
                "stored runs exceed the manifest",
            ));
        }
        Ok((fleet, graph, profile))
    }

    /// Parses and restores a [`save`](Self::save)d fleet: copies `bytes`
    /// once into a shared buffer and [`load_shared`](Self::load_shared)s
    /// it.
    pub fn load(bytes: &[u8]) -> Result<(Self, wfp_graph::DiGraph), snapshot::FormatError> {
        Self::load_shared(Arc::from(bytes)).map(|(fleet, graph, _)| (fleet, graph))
    }

    /// Restores a [`save`](Self::save)d fleet from a shared buffer: the
    /// container is fully validated (structure and payload CRCs), then
    /// [`read_snapshot`](Self::read_snapshot) serves each packed run
    /// straight out of `bytes` — no per-word decode, no per-run
    /// allocation proportional to the run. The profile reports the runs
    /// bound and the buffer size.
    pub fn load_shared(
        bytes: Arc<[u8]>,
    ) -> Result<(Self, wfp_graph::DiGraph, FleetLoadProfile), snapshot::FormatError> {
        Self::read_snapshot(&snapshot::SnapshotReader::parse(&bytes)?, &bytes)
    }

    /// Every slot's decision counters `(context_only, skeleton_queries)`,
    /// in slot order (zeros for live and evicted slots) — captured by the
    /// registry before dropping a resident fleet so a later reload can
    /// restore counter continuity without re-serializing.
    pub(crate) fn slot_counters(&self) -> Vec<(u64, u64)> {
        self.slots
            .iter()
            .map(|slot| match slot {
                Slot::Frozen(h) => (h.context_only(), h.skeleton_queries()),
                Slot::Live(_) | Slot::Evicted => (0, 0),
            })
            .collect()
    }

    /// Re-applies counters captured by [`slot_counters`](Self::slot_counters)
    /// on top of whatever the snapshot restored: counters only grow, so
    /// the saturating delta per slot brings the reloaded fleet back to
    /// the captured values without double-counting what the snapshot
    /// already carried.
    pub(crate) fn restore_counters(&self, saved: &[(u64, u64)]) {
        for (slot, &(ctx_saved, skel_saved)) in self.slots.iter().zip(saved) {
            if let Slot::Frozen(h) = slot {
                h.count(
                    ctx_saved.saturating_sub(h.context_only()),
                    skel_saved.saturating_sub(h.skeleton_queries()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::label::LabeledRun;
    use wfp_model::fixtures::{paper_run, paper_spec, paper_subgraph};
    use wfp_speclabel::{SchemeKind, SpecScheme};

    fn labels(spec: &Specification, kind: SchemeKind) -> Vec<RunLabel> {
        let run = paper_run(spec);
        LabeledRun::build(spec, SpecScheme::build(kind, spec.graph()), &run)
            .unwrap()
            .labels()
            .to_vec()
    }

    fn all_probes(run: RunId, n: usize) -> Vec<(RunId, RunVertexId, RunVertexId)> {
        (0..n as u32)
            .flat_map(|u| (0..n as u32).map(move |v| (run, RunVertexId(u), RunVertexId(v))))
            .collect()
    }

    #[test]
    fn fleet_matches_independent_engines_and_shares_one_context() {
        let spec = paper_spec();
        for &kind in &SchemeKind::ALL {
            let labels = labels(&spec, kind);
            let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
            let k = 8;
            let ids: Vec<RunId> = (0..k).map(|_| fleet.register_labels(&labels)).collect();

            // interleave the runs' probes to exercise the per-run grouping
            let mut probes = Vec::new();
            for u in 0..labels.len() as u32 {
                for v in 0..labels.len() as u32 {
                    for &id in &ids {
                        probes.push((id, RunVertexId(u), RunVertexId(v)));
                    }
                }
            }
            let fleet_answers = fleet.answer_batch(&probes).unwrap();

            let engine = QueryEngine::from_labels(&labels, SpecScheme::build(kind, spec.graph()));
            for (&(_, u, v), &ans) in probes.iter().zip(&fleet_answers) {
                assert_eq!(ans, engine.answer(u, v), "{kind} ({u},{v})");
            }

            let stats = fleet.stats();
            assert_eq!(stats.packed, k);
            assert_eq!(stats.context_refs, 1, "only the fleet holds the context");
            assert_eq!(stats.spec_bytes_if_per_run, k * stats.spec_bytes);
            assert_eq!(stats.engine.total(), probes.len() as u64);
        }
    }

    #[test]
    fn mixed_frozen_and_live_runs_serve_under_one_context() {
        let spec = paper_spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let mut fleet =
            FleetEngine::for_spec(&spec, SpecScheme::build(SchemeKind::Bfs, spec.graph()));
        let paper = paper_run(&spec);
        let frozen = fleet.register_labels(&labels(&spec, SchemeKind::Bfs));
        let pv = |name: &str| wfp_model::fixtures::paper_vertex(&spec, &paper, name);

        // an in-flight run, mid-stream
        let live = fleet.begin_live(&spec);
        let f1 = paper_subgraph(&spec, "F1");
        let l2 = paper_subgraph(&spec, "L2");
        {
            let run = fleet.live_mut(live).unwrap();
            run.exec(m("a")).unwrap();
            run.begin_group(f1).unwrap();
            run.begin_copy().unwrap();
            run.begin_group(l2).unwrap();
            run.begin_copy().unwrap();
            run.exec(m("b")).unwrap();
            run.exec(m("c")).unwrap();
            run.end_copy().unwrap();
        }
        assert_eq!(fleet.stats().live, 1);
        assert_eq!(fleet.stats().packed, 1);
        // the live labeler holds a second context reference
        assert_eq!(fleet.stats().context_refs, 2);

        // a batch mixing frozen and live probes; the live run's vertices
        // are in exec order (a=0, b=1, c=2)
        let (a, b, c) = (RunVertexId(0), RunVertexId(1), RunVertexId(2));
        let answers = fleet
            .answer_batch(&[
                (frozen, pv("a1"), pv("h1")),
                (live, a, c),
                (live, c, b),
                (frozen, pv("c3"), pv("a1")),
            ])
            .unwrap();
        assert_eq!(answers, vec![true, true, false, false]);

        // freeze errors while incomplete; the run stays live and queryable
        assert!(matches!(
            fleet.freeze_run(live),
            Err(FleetError::FreezeFailed(_, _))
        ));
        assert!(fleet.answer(live, a, c).unwrap());
        assert_eq!(fleet.stats().live, 1);

        // a vertex the live run has not executed yet, and one past a
        // frozen run's end, are typed errors on both entry points
        let unexecuted = RunVertexId(3);
        assert!(matches!(
            fleet.answer(live, a, unexecuted),
            Err(FleetError::VertexOutOfRange { run, vertex, len: 3 })
                if run == live && vertex == unexecuted
        ));
        let past = RunVertexId(paper.vertex_count() as u32);
        assert!(matches!(
            fleet.answer_batch(&[(live, a, c), (frozen, past, pv("a1"))]),
            Err(FleetError::VertexOutOfRange { run, vertex, .. })
                if run == frozen && vertex == past
        ));
        assert!(FleetError::VertexOutOfRange {
            run: live,
            vertex: unexecuted,
            len: 3
        }
        .to_string()
        .contains("no vertex r3"));
    }

    #[test]
    fn freeze_run_in_place_keeps_answers_and_id() {
        let spec = paper_spec();
        let m = |n: &str| spec.module_by_name(n).unwrap();
        let mut fleet =
            FleetEngine::for_spec(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
        let id = fleet.begin_live(&spec);
        {
            let run = fleet.live_mut(id).unwrap();
            // a complete (if minimal) paper run: stream everything
            let subgraphs = ["F1", "L2", "L1", "F2"];
            let [f1, l2, l1, f2] = subgraphs.map(|n| paper_subgraph(&spec, n));
            run.exec(m("a")).unwrap();
            run.begin_group(f1).unwrap();
            run.begin_copy().unwrap();
            run.begin_group(l2).unwrap();
            run.begin_copy().unwrap();
            run.exec(m("b")).unwrap();
            run.exec(m("c")).unwrap();
            run.end_copy().unwrap();
            run.end_group().unwrap();
            run.end_copy().unwrap();
            run.end_group().unwrap();
            run.exec(m("d")).unwrap();
            run.begin_group(l1).unwrap();
            run.begin_copy().unwrap();
            run.exec(m("e")).unwrap();
            run.begin_group(f2).unwrap();
            run.begin_copy().unwrap();
            run.exec(m("f")).unwrap();
            run.end_copy().unwrap();
            run.end_group().unwrap();
            run.exec(m("g")).unwrap();
            run.end_copy().unwrap();
            run.end_group().unwrap();
            run.exec(m("h")).unwrap();
        }
        let n = fleet.vertex_count(id).unwrap();
        let probes = all_probes(id, n);
        let live_answers = fleet.answer_batch(&probes).unwrap();
        let live_decisions = fleet.stats().engine.total();

        fleet.freeze_run(id).unwrap();
        assert_eq!(fleet.stats().live, 0);
        assert_eq!(fleet.stats().packed, 1);
        assert_eq!(fleet.stats().context_refs, 1, "labeler reference released");
        assert_eq!(fleet.answer_batch(&probes).unwrap(), live_answers);
        // decision counters carried across the freeze, then kept growing
        assert_eq!(
            fleet.stats().engine.total(),
            live_decisions + probes.len() as u64
        );
        assert!(matches!(fleet.live_mut(id), Err(FleetError::NotLive(_))));
    }

    #[test]
    fn eviction_tombstones_ids_and_rejects_foreign_contexts() {
        let spec = paper_spec();
        let labels = labels(&spec, SchemeKind::Tcm);
        let mut fleet =
            FleetEngine::for_spec(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
        let a = fleet.register_labels(&labels);
        let b = fleet.register_labels(&labels);
        assert_eq!(fleet.run_count(), 2);
        assert_eq!(fleet.run_ids().collect::<Vec<_>>(), vec![a, b]);

        fleet.evict(a).unwrap();
        assert!(!fleet.contains(a));
        assert!(fleet.contains(b));
        assert_eq!(fleet.run_count(), 1);
        let v = RunVertexId(0);
        assert!(matches!(fleet.answer(a, v, v), Err(FleetError::Evicted(_))));
        assert!(matches!(fleet.evict(a), Err(FleetError::Evicted(_))));
        assert!(matches!(
            fleet.answer_batch(&[(b, v, v), (a, v, v)]),
            Err(FleetError::Evicted(_))
        ));
        // ids are never reused: a new registration gets a fresh id
        let c = fleet.register_labels(&labels);
        assert_ne!(c, a);
        assert!(fleet.answer(c, v, v).unwrap());
        // unknown ids are distinguished from evicted ones
        assert!(matches!(
            fleet.answer(RunId(99), v, v),
            Err(FleetError::UnknownRun(_))
        ));
        // a live run over its own private context is rejected
        let foreign = LiveRun::new(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
        assert!(matches!(
            fleet.register_live(foreign),
            Err(FleetError::ForeignContext)
        ));
        // error values render
        assert!(FleetError::Evicted(a).to_string().contains("run#0"));
    }

    #[test]
    fn save_load_round_trips_runs_tombstones_and_counters() {
        let spec = paper_spec();
        for &kind in &SchemeKind::ALL {
            let labels = labels(&spec, kind);
            let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
            let ids: Vec<RunId> = (0..4).map(|_| fleet.register_labels(&labels)).collect();
            fleet.evict(ids[1]).unwrap();
            // answer traffic so decision counters and the memo are warm
            let mut probes = Vec::new();
            for id in [ids[0], ids[2], ids[3]] {
                probes.extend(all_probes(id, labels.len()));
            }
            let original = fleet.answer_batch(&probes).unwrap();
            let warm_before = fleet.context().memo().warm_entries();

            let bytes = fleet.save(spec.graph()).unwrap();
            let (loaded, graph) = FleetEngine::load(&bytes).unwrap();
            assert_eq!(graph.vertex_count(), spec.graph().vertex_count());
            assert_eq!(graph.edges(), spec.graph().edges());

            // byte-identical answers, preserved ids and tombstones
            assert_eq!(loaded.answer_batch(&probes).unwrap(), original, "{kind}");
            assert!(matches!(
                loaded.answer(ids[1], RunVertexId(0), RunVertexId(0)),
                Err(FleetError::Evicted(_))
            ));
            let stats = loaded.stats();
            assert_eq!(stats.packed, 3);
            assert_eq!(stats.evicted, 1);
            // decision counters carried across the restart
            assert_eq!(stats.engine.total(), 2 * probes.len() as u64);
            // the warm memo came back verbatim
            assert_eq!(
                loaded.context().memo().warm_entries(),
                warm_before,
                "{kind}"
            );
            // new registrations continue after the restored slots
            let mut loaded = loaded;
            let fresh = loaded.register_labels(&labels);
            assert_eq!(fresh, RunId(4));
        }
    }

    #[test]
    fn warm_memo_survives_the_restart() {
        // BFS probes the skeleton per miss; a loaded fleet must answer the
        // same traffic from the restored memo without new skeleton probes.
        let spec = paper_spec();
        let labels = labels(&spec, SchemeKind::Bfs);
        let mut fleet =
            FleetEngine::for_spec(&spec, SpecScheme::build(SchemeKind::Bfs, spec.graph()));
        let id = fleet.register_labels(&labels);
        let probes = all_probes(id, labels.len());
        fleet.answer_batch(&probes).unwrap();
        assert!(fleet.stats().engine.skeleton_probes > 0);

        let bytes = fleet.save(spec.graph()).unwrap();
        let (loaded, _) = FleetEngine::load(&bytes).unwrap();
        loaded.answer_batch(&probes).unwrap();
        let stats = loaded.stats();
        assert_eq!(
            stats.engine.skeleton_probes, 0,
            "restart re-probed the skeleton despite the warm snapshot"
        );
        // every skeleton-delegated pair of the post-restart batch (half of
        // the restored-plus-new total) was a memo hit
        assert_eq!(stats.engine.memo_hits * 2, stats.engine.skeleton);
        assert!(stats.engine.memo_hits > 0);
    }

    /// Every frozen run is stored packed from its registration: it
    /// answers like the raw engine over the same labels on every entry
    /// point, holds fewer bytes, saves as packed segments only, and the
    /// retired layouts are typed errors on load.
    #[test]
    fn sealed_packed_runs_serve_identically_and_persist() {
        let spec = paper_spec();
        for kind in [SchemeKind::Tcm, SchemeKind::Bfs] {
            let labels = labels(&spec, kind);
            let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
            let ids: Vec<RunId> = (0..4).map(|_| fleet.register_labels(&labels)).collect();
            // saved with no seal call: four packed segments, no raw one
            let bytes = fleet.save(spec.graph()).unwrap();
            let r = snapshot::SnapshotReader::parse(&bytes).unwrap();
            let packed = r.all(snapshot::seg::PACKED_COLUMNS_ALIGNED).count();
            assert_eq!(packed, 4, "{kind}");
            assert_eq!(r.all(0x0003).count(), 0, "{kind}: a raw run segment");

            // the raw oracle: the same labels in their own engine
            let raw = QueryEngine::from_labels(&labels, SpecScheme::build(kind, spec.graph()));
            let raw_bytes = ids.len() * raw.run().memory_bytes();
            let mut probes = Vec::new();
            for &id in &ids {
                probes.extend(all_probes(id, labels.len()));
            }
            let baseline: Vec<bool> = probes.iter().map(|&(_, u, v)| raw.answer(u, v)).collect();

            let stats = fleet.stats();
            assert_eq!((stats.frozen, stats.packed), (0, 4), "{kind}");
            assert_eq!(stats.active(), 4);
            assert!(
                stats.run_bytes < raw_bytes,
                "{kind}: packing did not shrink resident bytes"
            );

            // Scalar and batch both byte-identical to raw, and the first
            // batch is accounted in full.
            assert_eq!(fleet.answer_batch(&probes).unwrap(), baseline, "{kind}");
            assert_eq!(fleet.stats().engine.total(), probes.len() as u64);
            let (_, u, v) = probes[7];
            assert_eq!(fleet.answer(ids[1], u, v).unwrap(), baseline[7]);

            // Snapshot round trip: slot kinds, counters and answers all
            // survive, from fewer bytes than the raw columns alone.
            let bytes = fleet.save(spec.graph()).unwrap();
            assert!(
                bytes.len() < raw_bytes,
                "{kind}: packed snapshot {} !< raw columns {raw_bytes}",
                bytes.len()
            );
            let (loaded, _) = FleetEngine::load(&bytes).unwrap();
            let lstats = loaded.stats();
            assert_eq!((lstats.frozen, lstats.packed), (0, 4), "{kind}");
            assert_eq!(lstats.engine.total(), fleet.stats().engine.total());
            assert_eq!(loaded.answer_batch(&probes).unwrap(), baseline, "{kind}");

            // The retired layouts are typed errors on both load paths,
            // never misread: slot state 2 over segment kind 0x0009 (an
            // unaligned packed framing), and slot state 1 over kind 0x0003
            // carrying the same run raw (a varint count, then four
            // little-endian `u32` columns).
            let mut raw_run = Vec::new();
            snapshot::put_varint(&mut raw_run, labels.len() as u64);
            let columns: [fn(&RunLabel) -> u32; 4] =
                [|l| l.q1, |l| l.q2, |l| l.q3, |l| l.origin.raw()];
            for column in columns {
                for l in &labels {
                    raw_run.extend_from_slice(&column(l).to_le_bytes());
                }
            }
            let retire = |state: u8, run_kind: u16, run: Option<&[u8]>| {
                let mut w = snapshot::SnapshotWriter::new();
                for &(seg_kind, payload) in r.segments() {
                    match seg_kind {
                        snapshot::seg::FLEET_MANIFEST => {
                            let mut cur = snapshot::Cursor::new(payload);
                            let slots = cur.varint().unwrap();
                            let mut manifest = Vec::new();
                            snapshot::put_varint(&mut manifest, slots);
                            for _ in 0..slots {
                                assert_eq!(cur.u8().unwrap(), SLOT_FROZEN);
                                manifest.push(state);
                                snapshot::put_varint(&mut manifest, cur.varint().unwrap());
                                snapshot::put_varint(&mut manifest, cur.varint().unwrap());
                            }
                            w.push(seg_kind, manifest);
                        }
                        snapshot::seg::PACKED_COLUMNS_ALIGNED => {
                            w.push(run_kind, run.unwrap_or(payload).to_vec())
                        }
                        _ => w.push(seg_kind, payload.to_vec()),
                    }
                }
                w.finish()
            };
            let unknown = snapshot::FormatError::Malformed("unknown slot state");
            for retired in [retire(2, 0x0009, None), retire(1, 0x0003, Some(&raw_run))] {
                assert!(matches!(FleetEngine::load(&retired), Err(e) if e == unknown));
                assert!(matches!(
                    FleetEngine::load_shared(Arc::from(retired)),
                    Err(e) if e == unknown
                ));
            }
        }
    }

    #[test]
    fn read_snapshot_binds_only_over_the_buffer_it_was_parsed_from() {
        let spec = paper_spec();
        let mut fleet =
            FleetEngine::for_spec(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
        fleet.register_labels(&labels(&spec, SchemeKind::Tcm));
        let bytes = fleet.save(spec.graph()).unwrap();
        let buf: Arc<[u8]> = Arc::from(bytes.as_slice());

        let r = snapshot::SnapshotReader::parse(&buf).unwrap();
        let (_, _, profile) = FleetEngine::read_snapshot(&r, &buf).unwrap();
        assert_eq!((profile.zero_copy_runs, profile.bytes), (1, buf.len()));

        // the same bytes in another allocation: a typed error, wherever
        // that allocation lies relative to `buf`
        let foreign = snapshot::SnapshotReader::parse(&bytes).unwrap();
        let outside = snapshot::FormatError::Malformed("packed payload outside the load buffer");
        assert!(matches!(
            FleetEngine::read_snapshot(&foreign, &buf),
            Err(e) if e == outside
        ));
        let r = snapshot::SnapshotReader::parse(&buf).unwrap();
        assert!(matches!(
            FleetEngine::read_snapshot(&r, &Arc::from(bytes.as_slice())),
            Err(e) if e == outside
        ));
    }

    #[test]
    fn live_runs_refuse_to_snapshot() {
        let spec = paper_spec();
        let mut fleet =
            FleetEngine::for_spec(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()));
        fleet.register_labels(&labels(&spec, SchemeKind::Tcm));
        let live = fleet.begin_live(&spec);
        let err = fleet.save(spec.graph()).unwrap_err();
        assert!(matches!(err, FleetError::StillLive(id) if id == live));
        assert!(err.to_string().contains("in-flight"), "{err}");
        // freezing is impossible mid-structure here, so evict instead;
        // after that the snapshot succeeds and preserves the tombstone
        fleet.evict(live).unwrap();
        let (loaded, _) = FleetEngine::load(&fleet.save(spec.graph()).unwrap()).unwrap();
        assert_eq!(loaded.stats().packed, 1);
        assert_eq!(loaded.stats().evicted, 1);
    }
}
