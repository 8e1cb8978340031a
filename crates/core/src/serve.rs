//! Request/response serving loop over [`ServiceRegistry`] shards — the
//! async front-end that turns the synchronous batch kernel into a traffic
//! server.
//!
//! # Shape
//!
//! N **shard workers**, one thread each and no other thread. The caller's
//! builder makes every shard's registry on the calling thread, and each
//! registry then moves into its worker, which owns it outright (the batch
//! API takes `&mut self`, so ownership *is* the locking design). Specs are
//! partitioned across shards by [`SpecId`] hash, or pinned explicitly
//! through a [`ShardPlan`].
//!
//! Clients hold cheap cloneable [`ServeHandle`]s and submit
//! `(SpecId, RunId, u, v)` probes — single ([`ServeHandle::probe`], which
//! never allocates on the submission path) or vectors
//! ([`ServeHandle::probe_vec`]). The submitting thread itself splits each
//! vector by spec and pushes the per-shard sub-batches straight into
//! bounded shard queues; replies are reassembled in submission order
//! through a **preallocated ticket slab**: workers write answer *bits* into
//! disjoint index windows of the request's slot (the allocation-free idiom
//! the column kernel established), so the reply path allocates nothing per
//! request once the slab is warm — no oneshot channel, no per-request
//! `Vec` churn.
//!
//! Each worker coalesces its sub-batches inside an **admission window**
//! (flush at [`ServeConfig::max_batch`] probes or after
//! [`ServeConfig::window`], whichever first) into one mixed-spec batch and
//! answers it with [`ServiceRegistry::answer_batch`] on its own thread.
//! Because every spec lives on exactly one shard, each shard's memo and
//! scratch state stay local to its worker.
//!
//! * **Backpressure** — at most [`ServeConfig::queue_cap`] requests are
//!   admitted and not yet answered; a submission beyond that is rejected
//!   immediately with the typed [`ServeError::Overloaded`], never blocking
//!   the client. Admission is atomic: a request is either admitted whole
//!   or not at all, and no shard queue ever refuses an admitted request.
//! * **Graceful shutdown** — [`ShardedServer::shutdown`] drains: it closes
//!   admission, waits for admitted submissions to finish their pushes, and
//!   queues each shard's stop behind that shard's admitted work. Every
//!   admitted request is answered, every worker stops, and the final
//!   merged [`ServeStats`] (plus the per-shard breakdown) comes back.
//!   Submissions after shutdown get the typed [`ServeError::ShuttingDown`].
//! * **Control plane** — [`ShardedServer::control`] broadcasts a closure
//!   to every shard (freeze a live run, resize budgets, snapshot stats)
//!   without ever exposing a `&mut` registry across threads;
//!   [`ShardedServer::control_shard`] targets one shard. Controls ride the
//!   same ordered queues as requests and execute between batches, so a
//!   client batch always sees a registry in a consistent state.
//! * **Fault isolation** — a registry error on one shard fails only the
//!   submissions that touched that shard (the failing window is re-driven
//!   per sub-batch); other shards, and other requests on the same shard,
//!   are unaffected. A worker that panics poisons only its own shard:
//!   every pending or future sub-batch or control sent to it resolves with
//!   [`ServeError::Disconnected`] instead of hanging its client.
//! * **Accounting** — per-shard [`ServeStats`] (batch shape, flush causes,
//!   per-scheme p50/p99 latency over log-bucketed histograms with an exact
//!   sub-128 range) merge into one report, live ([`ShardedServer::stats`])
//!   or at shutdown.
//!
//! [`serve_sharded`] is the one entry point; a single-shard server is
//! `serve_sharded(config, 1, ShardPlan::new(), ...)`.
//!
//! ```
//! use wfp_model::fixtures;
//! use wfp_skl::serve::{serve_sharded, ServeConfig, ShardPlan};
//! use wfp_skl::{label_run, ServiceRegistry};
//! use wfp_speclabel::SchemeKind;
//!
//! let server = serve_sharded(ServeConfig::default(), 1, ShardPlan::new(), |_, _| {
//!     let spec = fixtures::paper_spec();
//!     let run = fixtures::paper_run(&spec);
//!     let (labels, _) = label_run(&spec, &run).unwrap();
//!     let mut reg = ServiceRegistry::new();
//!     let id = reg.register_spec(&spec, SchemeKind::Tcm)?;
//!     reg.register_labels(id, &labels)?;
//!     Ok((reg, id))
//! })
//! .unwrap();
//! let id = server.contexts()[0];
//! let handle = server.handle();
//! let yes = handle
//!     .probe(id, wfp_skl::RunId(0), wfp_model::RunVertexId(0), wfp_model::RunVertexId(0))
//!     .unwrap();
//! assert!(yes, "reachability is reflexive");
//! let stats = server.shutdown().unwrap();
//! assert_eq!(stats.merged.probes_answered, 1);
//! ```

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use wfp_model::RunVertexId;
use wfp_speclabel::SchemeKind;

use crate::fleet::RunId;
use crate::registry::{RegistryError, ServiceRegistry, SpecId};

/// One client probe: `(spec, run, u, v)` — does vertex `u` reach `v` in
/// run `run` of spec `spec`?
pub type Probe = (SpecId, RunId, RunVertexId, RunVertexId);

// ======================================================================
// configuration & errors
// ======================================================================

/// Admission-loop tuning knobs. The defaults favor throughput at serving
/// batch sizes; latency-sensitive deployments shrink `window`. Threads
/// are not among them: each shard answers its windows on its own worker,
/// so a server's parallelism is its shard count.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Flush a shard's admission window once this many probes have
    /// coalesced on it.
    pub max_batch: usize,
    /// Flush the admission window this long after its first probe arrived,
    /// even if `max_batch` was not reached.
    pub window: Duration,
    /// The most requests admitted and not yet answered; a submission
    /// beyond it is refused with [`ServeError::Overloaded`]. Each shard
    /// queue holds as many entries, so a push from an admitted request
    /// waits only behind control messages, never behind other requests.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8192,
            window: Duration::from_micros(200),
            queue_cap: 1024,
        }
    }
}

/// Typed serving-path errors, as seen by clients.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// [`ServeConfig::queue_cap`] requests are already admitted and not
    /// yet answered; resubmit after backing off.
    Overloaded,
    /// The server is shutting down (or already gone); the probe was not
    /// admitted.
    ShuttingDown,
    /// A shard worker died before answering (a panic in a batch kernel or
    /// a control closure — never part of normal operation). Only
    /// submissions and controls sent to the dead shard see this.
    Disconnected,
    /// The registry rejected this request's probes (unknown spec/run,
    /// snapshot failure...). Other requests in the same admitted batch are
    /// unaffected: a failing shard window is re-driven per sub-batch so
    /// only the faulty submission sees its error.
    Registry(Arc<RegistryError>),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "too many requests in flight (overloaded)"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Disconnected => write!(f, "serving thread gone"),
            ServeError::Registry(e) => write!(f, "registry: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

// ======================================================================
// shard placement
// ======================================================================

/// Spec-to-shard placement: every spec hashes to a home shard, with
/// explicit pins overriding the hash for hot specs that need manual
/// balancing. The server sends each probe to its spec's home shard under
/// this plan, so whoever builds the shard registries must use the same
/// plan; [`serve_sharded`] hands the builder each shard's index for that.
#[derive(Clone, Debug, Default)]
pub struct ShardPlan {
    pins: Vec<(SpecId, usize)>,
}

impl ShardPlan {
    /// The default hash placement with no pins.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins `spec` to `shard` (interpreted modulo the shard count),
    /// overriding hash placement.
    pub fn pin(mut self, spec: SpecId, shard: usize) -> Self {
        self.pins.retain(|(id, _)| *id != spec);
        self.pins.push((spec, shard));
        self
    }

    /// The home shard for `spec` under `shards` shards: the explicit pin
    /// when present, else a mix of the content hash. Deterministic, so
    /// shard registries can be constructed to hold exactly the specs that
    /// will be routed to them.
    pub fn shard_of(&self, spec: SpecId, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        if let Some(&(_, s)) = self.pins.iter().find(|(id, _)| *id == spec) {
            return s % shards;
        }
        // SpecId is already a content hash; fold the high half in so a
        // biased low word cannot alias every spec onto one shard
        let h = spec.0 ^ (spec.0 >> 32) ^ (spec.0 >> 17);
        (h % shards as u64) as usize
    }
}

// ======================================================================
// latency accounting
// ======================================================================

/// Log-bucketed latency/size histogram: **exact below 128**, then four
/// sub-buckets per octave (≤ ~12% relative error) — µs-scale medians come
/// back exact, larger values with honest p50/p99 resolution and no
/// per-sample storage.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; Histogram::BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Values below this are recorded in exact unit buckets.
    pub const EXACT: u64 = 128;
    // 128 exact buckets + 4 sub-buckets for each octave 7..=63
    const BUCKETS: usize = 128 + (64 - 7) * 4;

    fn bucket_of(v: u64) -> usize {
        if v < Self::EXACT {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() as u64; // >= 7
        let sub = (v >> (octave - 2)) & 3;
        ((octave - 7) * 4 + sub) as usize + Self::EXACT as usize
    }

    fn bucket_floor(idx: usize) -> u64 {
        if idx < Self::EXACT as usize {
            return idx as u64;
        }
        let octave = (idx - Self::EXACT as usize) as u64 / 4 + 7;
        let sub = (idx - Self::EXACT as usize) as u64 % 4;
        (1u64 << octave) + (sub << (octave - 2))
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Folds `other`'s samples into `self` (bucket-wise; exact counts stay
    /// exact) — how per-shard digests merge into one report.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` (lower bucket bound — exact
    /// for values below [`Histogram::EXACT`]; `None` when empty).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_floor(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

/// Latency digest for one specification scheme.
#[derive(Clone, Debug, Default)]
pub struct SchemeLatency {
    /// Probes answered under this scheme.
    pub probes: u64,
    /// Per-probe submit→reply latency histogram, microseconds.
    pub latency_us: Histogram,
}

impl SchemeLatency {
    /// Median latency in µs (`None` when no probes were served).
    pub fn p50_us(&self) -> Option<u64> {
        self.latency_us.quantile(0.50)
    }

    /// 99th-percentile latency in µs.
    pub fn p99_us(&self) -> Option<u64> {
        self.latency_us.quantile(0.99)
    }
}

/// A consistent snapshot of serving-loop accounting
/// ([`ShardedServer::stats`] live — merged across shards — or the final
/// state from [`ShardedServer::shutdown`]).
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Requests admitted (each carries ≥ 0 probes).
    pub requests: u64,
    /// Probes admitted.
    pub probes_submitted: u64,
    /// Probes answered successfully.
    pub probes_answered: u64,
    /// Probes that came back with a registry error.
    pub probes_failed: u64,
    /// Admission windows flushed.
    pub batches: u64,
    /// ... because `max_batch` filled.
    pub batches_full: u64,
    /// ... because the time window lapsed (or the queue went idle).
    pub batches_timer: u64,
    /// ... while draining at shutdown.
    pub batches_drain: u64,
    /// Control closures executed on worker threads.
    pub controls: u64,
    /// Admitted batch sizes, in probes per flush.
    pub batch_probes: Histogram,
    /// Per-scheme latency, indexed like [`SchemeKind::ALL`].
    pub per_scheme: [SchemeLatency; SchemeKind::ALL.len()],
}

impl ServeStats {
    /// The latency digest for `kind`.
    pub fn scheme(&self, kind: SchemeKind) -> &SchemeLatency {
        let i = SchemeKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("ALL is total");
        &self.per_scheme[i]
    }

    /// Folds `other` into `self`: counters add, histograms merge
    /// bucket-wise — how per-shard stats become the one merged report.
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.probes_submitted += other.probes_submitted;
        self.probes_answered += other.probes_answered;
        self.probes_failed += other.probes_failed;
        self.batches += other.batches;
        self.batches_full += other.batches_full;
        self.batches_timer += other.batches_timer;
        self.batches_drain += other.batches_drain;
        self.controls += other.controls;
        self.batch_probes.merge(&other.batch_probes);
        for (mine, theirs) in self.per_scheme.iter_mut().zip(&other.per_scheme) {
            mine.probes += theirs.probes;
            mine.latency_us.merge(&theirs.latency_us);
        }
    }
}

/// The final accounting from [`ShardedServer::shutdown`]: the merged view
/// plus the per-shard breakdown the merge came from.
#[derive(Clone, Debug)]
pub struct ShardedStats {
    /// All shards (and the admission counters) folded together.
    pub merged: ServeStats,
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ServeStats>,
}

// ======================================================================
// ticket slab — the preallocated, reusable reply path
// ======================================================================

/// Completion state for one pending submission. Workers write answer bits
/// into `bits` at each probe's original position (disjoint windows per
/// shard — no coordination beyond the slot mutex), decrement `remaining`,
/// and the last shard wakes the waiting client.
struct SlotState {
    /// Sub-batches still in flight (set by the submitter before fan-out).
    remaining: u32,
    /// Probes in the originating request.
    nprobes: u32,
    /// Answer bits, bit *i* = probe *i*'s verdict; length `⌈nprobes/64⌉`.
    /// The buffer is reused across the slot's lifetimes, so a warm slab
    /// answers without allocating.
    bits: Vec<u64>,
    /// First error any shard reported for this request.
    error: Option<ServeError>,
    /// Every sub-batch resolved; the ticket may collect.
    done: bool,
    /// The client dropped its ticket; whoever completes the slot frees it.
    client_gone: bool,
}

struct ReplySlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Self {
        ReplySlot {
            state: Mutex::new(SlotState {
                remaining: 0,
                nprobes: 0,
                bits: Vec::new(),
                error: None,
                done: false,
                client_gone: false,
            }),
            cv: Condvar::new(),
        }
    }
}

struct SlabInner {
    slots: Vec<Arc<ReplySlot>>,
    free: Vec<u32>,
}

/// Grow-only slab of reusable reply slots, and the admission count.
/// Slots are recycled through a free list, so steady-state traffic reuses
/// a warm working set and the reply path stops allocating entirely.
struct TicketSlab {
    inner: Mutex<SlabInner>,
    /// Requests admitted and not yet resolved; [`finish_sub`] decrements
    /// it when a slot completes.
    in_flight: AtomicUsize,
    /// [`ServeConfig::queue_cap`]: the most `in_flight` may reach.
    cap: usize,
}

impl TicketSlab {
    fn new(cap: usize) -> Self {
        let prealloc = cap.min(4096);
        let slots: Vec<Arc<ReplySlot>> =
            (0..prealloc).map(|_| Arc::new(ReplySlot::new())).collect();
        let free = (0..prealloc as u32).rev().collect();
        TicketSlab {
            inner: Mutex::new(SlabInner { slots, free }),
            in_flight: AtomicUsize::new(0),
            cap,
        }
    }

    /// Admits one request of `nprobes` probes and claims a slot reset for
    /// it, or returns `None` when `cap` requests are already in flight.
    fn admit(&self, nprobes: usize) -> Option<(u32, Arc<ReplySlot>)> {
        // two racing submits may both see the other's overshoot and both
        // be refused; neither is ever admitted over the cap
        if self.in_flight.fetch_add(1, Ordering::SeqCst) >= self.cap {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        let (idx, slot) = {
            let mut inner = self.inner.lock().expect("slab lock");
            match inner.free.pop() {
                Some(idx) => {
                    let slot = Arc::clone(&inner.slots[idx as usize]);
                    (idx, slot)
                }
                None => {
                    let idx = inner.slots.len() as u32;
                    let slot = Arc::new(ReplySlot::new());
                    inner.slots.push(Arc::clone(&slot));
                    (idx, slot)
                }
            }
        };
        let mut st = slot.state.lock().expect("slot lock");
        st.remaining = 0;
        st.nprobes = nprobes as u32;
        st.bits.clear();
        st.bits.resize(nprobes.div_ceil(64), 0);
        st.error = None;
        st.done = false;
        st.client_gone = false;
        drop(st);
        Some((idx, slot))
    }

    fn release(&self, idx: u32) {
        self.inner.lock().expect("slab lock").free.push(idx);
    }
}

/// Resolves one sub-batch against its slot: `fill` writes bits or the
/// error, then the slot's sub-batch count drops and the last resolver
/// ends the request's admission and either wakes the client or (client
/// gone) recycles the slot. A request with no probes resolves through one
/// call with an empty `fill`.
fn finish_sub(slot: &ReplySlot, idx: u32, slab: &TicketSlab, fill: impl FnOnce(&mut SlotState)) {
    let mut st = slot.state.lock().expect("slot lock");
    fill(&mut st);
    st.remaining = st.remaining.saturating_sub(1);
    if st.remaining == 0 && !st.done {
        st.done = true;
        // before the client can see `done`, so its next submit has room
        slab.in_flight.fetch_sub(1, Ordering::SeqCst);
        let gone = st.client_gone;
        drop(st);
        if gone {
            slab.release(idx);
        } else {
            slot.cv.notify_all();
        }
    }
}

fn fail_sub(slot: &ReplySlot, idx: u32, err: ServeError, slab: &TicketSlab) {
    finish_sub(slot, idx, slab, move |st| {
        if st.error.is_none() {
            st.error = Some(err);
        }
    });
}

// ======================================================================
// wire types
// ======================================================================

/// A submission's probes: the single-probe case rides inline so
/// [`ServeHandle::probe`] never allocates on the way in.
enum Payload {
    One(Probe),
    Many(Vec<Probe>),
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::One(_) => 1,
            Payload::Many(v) => v.len(),
        }
    }

    fn as_slice(&self) -> &[Probe] {
        match self {
            Payload::One(p) => std::slice::from_ref(p),
            Payload::Many(v) => v,
        }
    }
}

/// One shard's share of a request: probes plus their positions in the
/// originating vector (`None` = the whole request landed on this shard,
/// positions are the identity — the common case under spec-affine
/// traffic, moved through without copying).
struct SubBatch {
    slot: Arc<ReplySlot>,
    slot_idx: u32,
    submitted: Instant,
    positions: Option<Vec<u32>>,
    probes: Payload,
}

type ControlFn = Box<dyn FnOnce(&mut ServiceRegistry<'static>) + Send>;

enum ShardMsg {
    Batch(SubBatch),
    Control(ControlFn),
    Shutdown,
}

// ======================================================================
// tickets
// ======================================================================

/// A pending answer: [`ServeHandle::submit`] returns immediately with a
/// ticket; [`wait`](Ticket::wait) blocks until every shard touched by the
/// request has written its bits.
#[must_use = "a ticket holds the only route to this request's answers"]
pub struct Ticket {
    slab: Arc<TicketSlab>,
    slot: Arc<ReplySlot>,
    idx: u32,
    waited: bool,
}

impl Ticket {
    /// Blocks until the answers arrive (in submission order, one `bool`
    /// per probe).
    pub fn wait(mut self) -> Result<Vec<bool>, ServeError> {
        let mut out = Vec::new();
        self.wait_into(&mut out)?;
        Ok(out)
    }

    /// Blocks like [`wait`](Self::wait) but reuses the caller's buffer —
    /// the allocation-free collection path for closed-loop clients.
    pub fn wait_into(&mut self, out: &mut Vec<bool>) -> Result<(), ServeError> {
        if self.waited {
            return Err(ServeError::ShuttingDown);
        }
        let mut st = self.slot.state.lock().expect("slot lock");
        while !st.done {
            st = self.slot.cv.wait(st).expect("slot lock");
        }
        let verdict = st.error.take();
        out.clear();
        if verdict.is_none() {
            out.reserve(st.nprobes as usize);
            for i in 0..st.nprobes as usize {
                out.push((st.bits[i / 64] >> (i % 64)) & 1 == 1);
            }
        }
        drop(st);
        self.waited = true;
        self.slab.release(self.idx);
        match verdict {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Blocks and returns the first probe's verdict without building a
    /// `Vec` — pairs with [`ServeHandle::submit_one`] for an entirely
    /// allocation-free round trip.
    pub fn wait_one(mut self) -> Result<bool, ServeError> {
        if self.waited {
            return Err(ServeError::ShuttingDown);
        }
        let mut st = self.slot.state.lock().expect("slot lock");
        while !st.done {
            st = self.slot.cv.wait(st).expect("slot lock");
        }
        let verdict = st.error.take();
        let answer = st.bits.first().is_some_and(|w| w & 1 == 1);
        drop(st);
        self.waited = true;
        self.slab.release(self.idx);
        match verdict {
            Some(e) => Err(e),
            None => Ok(answer),
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.waited {
            return;
        }
        let mut st = self.slot.state.lock().expect("slot lock");
        if st.done {
            drop(st);
            self.slab.release(self.idx);
        } else {
            // workers still hold sub-batches: the last one frees the slot
            st.client_gone = true;
        }
    }
}

// ======================================================================
// client handle
// ======================================================================

/// What the server and every handle share: the shard queues and the plan
/// that picks among them, the ticket slab, the admission gate and the
/// admission counters. Workers hold only the slab, so dropping the server
/// and every handle closes the shard queues and ends idle workers.
struct Shared {
    shard_txs: Vec<SyncSender<ShardMsg>>,
    plan: ShardPlan,
    slab: Arc<TicketSlab>,
    /// Set once, by shutdown, under the write side. Submitters push under
    /// the read side, so the write waits out every push in progress and
    /// no push can follow a shard's stop marker.
    closed: RwLock<bool>,
    requests: AtomicU64,
    probes_submitted: AtomicU64,
}

impl Shared {
    /// Splits an admitted request by home shard and pushes each part onto
    /// its shard's queue.
    fn route(&self, payload: Payload, submitted: Instant, slot: &Arc<ReplySlot>, slot_idx: u32) {
        let shards = self.shard_txs.len();
        let probes = payload.as_slice();
        let Some(first) = probes.first() else {
            // an empty request completes vacuously, touching no shard
            finish_sub(slot, slot_idx, &self.slab, |_| {});
            return;
        };
        let home = self.plan.shard_of(first.0, shards);
        let split = probes
            .iter()
            .any(|p| self.plan.shard_of(p.0, shards) != home);
        if !split {
            // whole request on one shard: positions are the identity, the
            // payload moves through untouched
            slot.state.lock().expect("slot lock").remaining = 1;
            self.send_sub(
                home,
                SubBatch {
                    slot: Arc::clone(slot),
                    slot_idx,
                    submitted,
                    positions: None,
                    probes: payload,
                },
            );
            return;
        }
        let Payload::Many(probes) = payload else {
            unreachable!("a single probe lives on a single shard");
        };
        let mut parts: Vec<(Vec<u32>, Vec<Probe>)> =
            (0..shards).map(|_| (Vec::new(), Vec::new())).collect();
        for (i, p) in probes.into_iter().enumerate() {
            let s = self.plan.shard_of(p.0, shards);
            parts[s].0.push(i as u32);
            parts[s].1.push(p);
        }
        let touched = parts.iter().filter(|(_, v)| !v.is_empty()).count();
        // remaining is set before any fan-out so a fast shard cannot complete
        // the slot while siblings are still unrouted
        slot.state.lock().expect("slot lock").remaining = touched as u32;
        for (shard, (positions, probes)) in parts.into_iter().enumerate() {
            if probes.is_empty() {
                continue;
            }
            self.send_sub(
                shard,
                SubBatch {
                    slot: Arc::clone(slot),
                    slot_idx,
                    submitted,
                    positions: Some(positions),
                    probes: Payload::Many(probes),
                },
            );
        }
    }

    fn send_sub(&self, shard: usize, sub: SubBatch) {
        // blocking send: workers always drain, and admission keeps each
        // queue's requests under its capacity. A dead worker bounces the
        // sub-batch back and its share resolves as Disconnected instead of
        // hanging the client.
        if let Err(mpsc::SendError(ShardMsg::Batch(sub))) =
            self.shard_txs[shard].send(ShardMsg::Batch(sub))
        {
            fail_sub(
                &sub.slot,
                sub.slot_idx,
                ServeError::Disconnected,
                &self.slab,
            );
        }
    }
}

/// A cloneable client endpoint. Handles are cheap (one `Arc`); clone one
/// per client thread.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    fn submit_payload(&self, payload: Payload) -> Result<Ticket, ServeError> {
        let shared = &*self.shared;
        let closed = shared
            .closed
            .read()
            .expect("only shutdown writes, with one assignment");
        if *closed {
            return Err(ServeError::ShuttingDown);
        }
        let n = payload.len();
        let (idx, slot) = shared.slab.admit(n).ok_or(ServeError::Overloaded)?;
        shared.requests.fetch_add(1, Ordering::Relaxed);
        shared
            .probes_submitted
            .fetch_add(n as u64, Ordering::Relaxed);
        shared.route(payload, Instant::now(), &slot, idx);
        drop(closed);
        Ok(Ticket {
            slab: Arc::clone(&shared.slab),
            slot,
            idx,
            waited: false,
        })
    }

    /// Submits a probe vector without blocking for the answer; pair with
    /// [`Ticket::wait`]. Typed failures: [`ServeError::Overloaded`] when
    /// [`ServeConfig::queue_cap`] requests are in flight,
    /// [`ServeError::ShuttingDown`] after shutdown.
    pub fn submit(&self, probes: Vec<Probe>) -> Result<Ticket, ServeError> {
        self.submit_payload(Payload::Many(probes))
    }

    /// Submits a single probe without allocating; pair with
    /// [`Ticket::wait_one`].
    pub fn submit_one(&self, probe: Probe) -> Result<Ticket, ServeError> {
        self.submit_payload(Payload::One(probe))
    }

    /// Submits and waits: one round trip for a small probe vector.
    pub fn probe_vec(&self, probes: Vec<Probe>) -> Result<Vec<bool>, ServeError> {
        self.submit(probes)?.wait()
    }

    /// Submits and waits for a single probe. Allocation-free end to end:
    /// the probe rides the message inline and the verdict comes back as a
    /// bit out of the reply slot.
    pub fn probe(
        &self,
        spec: SpecId,
        run: RunId,
        u: RunVertexId,
        v: RunVertexId,
    ) -> Result<bool, ServeError> {
        self.submit_one((spec, run, u, v))?.wait_one()
    }
}

// ======================================================================
// servers
// ======================================================================

/// The running sharded serving loop: owns every shard worker, hands out
/// [`ServeHandle`]s, exposes the control plane, and shuts down
/// gracefully.
///
/// `C` is whatever context each shard's builder chose to surface (spec
/// ids, run books, ...) — built with that shard's registry and kept here,
/// one per shard in shard order.
pub struct ShardedServer<C = ()> {
    shared: Arc<Shared>,
    shard_stats: Vec<Arc<Mutex<ServeStats>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    contexts: Vec<C>,
}

impl<C> ShardedServer<C> {
    /// Number of shards serving.
    pub fn shards(&self) -> usize {
        self.shared.shard_txs.len()
    }

    /// A new client endpoint.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The per-shard builder contexts, in shard order.
    pub fn contexts(&self) -> &[C] {
        &self.contexts
    }

    /// A live merged accounting snapshot across admission and every shard
    /// (consistent per shard as of its last flush).
    pub fn stats(&self) -> ServeStats {
        self.merged(&self.shard_stats())
    }

    /// A live per-shard snapshot, in shard order.
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shard_stats
            .iter()
            .map(|s| s.lock().expect("stats lock").clone())
            .collect()
    }

    /// The admission counters with `per_shard` folded in.
    fn merged(&self, per_shard: &[ServeStats]) -> ServeStats {
        let mut merged = ServeStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            probes_submitted: self.shared.probes_submitted.load(Ordering::Relaxed),
            ..ServeStats::default()
        };
        for s in per_shard {
            merged.merge(s);
        }
        merged
    }

    /// Broadcasts `f` to every shard — each worker runs it against its own
    /// registry between batches — and returns the results in shard order.
    /// This is how callers freeze live runs, adjust budgets, or read
    /// registry stats mid-serve without sharing a `&mut` registry.
    pub fn control<R, F>(&self, f: F) -> Result<Vec<R>, ServeError>
    where
        R: Send + 'static,
        F: Fn(&mut ServiceRegistry<'static>) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let (rtx, rrx) = mpsc::channel::<(usize, R)>();
        for (shard, tx) in self.shared.shard_txs.iter().enumerate() {
            let (f, rtx) = (Arc::clone(&f), rtx.clone());
            let c: ControlFn = Box::new(move |reg| {
                let _ = rtx.send((shard, f(reg)));
            });
            // controls ride the same ordered queues as requests; blocking
            // send — controls are rare and must not be shed. A dead shard
            // drops the closure, so its reply never comes.
            let _ = tx.send(ShardMsg::Control(c));
        }
        drop(rtx);
        let mut out: Vec<(usize, R)> = rrx.iter().collect();
        if out.len() != self.shards() {
            return Err(ServeError::Disconnected);
        }
        out.sort_by_key(|&(s, _)| s);
        Ok(out.into_iter().map(|(_, r)| r).collect())
    }

    /// Runs `f` against one shard's registry, on that shard's worker
    /// thread, and returns its result.
    pub fn control_shard<R, F>(&self, shard: usize, f: F) -> Result<R, ServeError>
    where
        R: Send + 'static,
        F: FnOnce(&mut ServiceRegistry<'static>) -> R + Send + 'static,
    {
        assert!(shard < self.shards(), "shard {shard} out of range");
        let (rtx, rrx) = mpsc::channel();
        let c: ControlFn = Box::new(move |reg| {
            let _ = rtx.send(f(reg));
        });
        let _ = self.shared.shard_txs[shard].send(ShardMsg::Control(c));
        rrx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// Drain-then-stop: closes admission (new submissions fail with
    /// [`ServeError::ShuttingDown`]), answers every request already
    /// admitted on every shard, joins all workers, and returns the final
    /// merged + per-shard stats. A worker that panicked surfaces as
    /// [`ServeError::Disconnected`] (its pending submissions were
    /// error-completed, never left hanging).
    pub fn shutdown(mut self) -> Result<ShardedStats, ServeError> {
        *self
            .shared
            .closed
            .write()
            .expect("only shutdown writes, with one assignment") = true;
        // every admitted request is queued by now, so each stop marker
        // lands behind its shard's share
        for tx in &self.shared.shard_txs {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        let mut panicked = false;
        for w in std::mem::take(&mut self.workers) {
            panicked |= w.join().is_err();
        }
        if panicked {
            return Err(ServeError::Disconnected);
        }
        let per_shard = self.shard_stats();
        Ok(ShardedStats {
            merged: self.merged(&per_shard),
            per_shard,
        })
    }
}

/// Starts the sharded serving loop: one worker thread per shard and no
/// other thread. `build(shard, shards)` runs on the calling thread, for
/// each shard in order, and makes that shard's registry, which then moves
/// into its worker. It must register exactly the specs that `plan` routes
/// to `shard` — probes for a spec the home shard doesn't know come back as
/// that shard's [`RegistryError::UnknownSpec`]. The first builder error is
/// returned before any thread starts; a panicking builder unwinds into the
/// caller.
pub fn serve_sharded<C, F>(
    config: ServeConfig,
    shards: usize,
    plan: ShardPlan,
    mut build: F,
) -> Result<ShardedServer<C>, RegistryError>
where
    F: FnMut(usize, usize) -> Result<(ServiceRegistry<'static>, C), RegistryError>,
{
    let shards = shards.max(1);
    let (registries, contexts): (Vec<_>, Vec<C>) = (0..shards)
        .map(|shard| build(shard, shards))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let queue_cap = config.queue_cap.max(1);
    let slab = Arc::new(TicketSlab::new(queue_cap));
    let mut shard_txs = Vec::with_capacity(shards);
    let mut shard_stats = Vec::with_capacity(shards);
    let mut workers = Vec::with_capacity(shards);
    for (shard, registry) in registries.into_iter().enumerate() {
        let (tx, rx) = mpsc::sync_channel::<ShardMsg>(queue_cap);
        let stats = Arc::new(Mutex::new(ServeStats::default()));
        let (worker_stats, slab) = (Arc::clone(&stats), Arc::clone(&slab));
        let worker = std::thread::Builder::new()
            .name(format!("wfp-serve-{shard}"))
            .spawn(move || shard_loop(registry, rx, config, worker_stats, slab))
            .expect("spawn shard worker");
        shard_txs.push(tx);
        shard_stats.push(stats);
        workers.push(worker);
    }
    Ok(ShardedServer {
        shared: Arc::new(Shared {
            shard_txs,
            plan,
            slab,
            closed: RwLock::new(false),
            requests: AtomicU64::new(0),
            probes_submitted: AtomicU64::new(0),
        }),
        shard_stats,
        workers,
        contexts,
    })
}

// ======================================================================
// shard workers
// ======================================================================

/// Why an admission window closed.
enum Flush {
    Full,
    Timer,
    Drain,
}

fn shard_loop(
    mut registry: ServiceRegistry<'static>,
    rx: Receiver<ShardMsg>,
    config: ServeConfig,
    stats: Arc<Mutex<ServeStats>>,
    slab: Arc<TicketSlab>,
) {
    let max_batch = config.max_batch.max(1);
    let mut flat: Vec<Probe> = Vec::new();
    let mut draining = false;
    'serve: loop {
        // idle: block for the first message of the next window
        let first = if draining {
            match rx.try_recv() {
                Ok(m) => m,
                Err(_) => break 'serve,
            }
        } else {
            match rx.recv() {
                Ok(m) => m,
                Err(_) => break 'serve, // the server and every handle gone
            }
        };
        let mut batch: Vec<SubBatch> = Vec::new();
        let mut probes = 0usize;
        let mut controls: Vec<ControlFn> = Vec::new();
        match first {
            ShardMsg::Batch(b) => {
                probes += b.probes.len();
                batch.push(b);
            }
            ShardMsg::Control(c) => controls.push(c),
            ShardMsg::Shutdown => draining = true,
        }
        // admission window: coalesce until full, lapsed, or shutting
        // down. The window only opens for probe traffic — a lone control
        // (or the shutdown marker) executes immediately rather than
        // waiting out a timer with nothing to coalesce.
        let deadline = Instant::now() + config.window;
        let mut cause = Flush::Timer;
        while !draining && !batch.is_empty() && probes < max_batch {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match rx.recv_timeout(left) {
                Ok(ShardMsg::Batch(b)) => {
                    probes += b.probes.len();
                    batch.push(b);
                }
                Ok(ShardMsg::Control(c)) => controls.push(c),
                Ok(ShardMsg::Shutdown) => draining = true,
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    draining = true;
                }
            }
        }
        if probes >= max_batch {
            cause = Flush::Full;
        }
        if draining {
            cause = Flush::Drain;
        }
        if !batch.is_empty() {
            // a panicking kernel must not leave clients waiting on slots
            // this worker already claimed: on unwind, every sub-batch not
            // yet resolved is error-completed, the queue is drained the
            // same way, and the shard retires
            let pending: Vec<(Arc<ReplySlot>, u32)> = batch
                .iter()
                .map(|b| (Arc::clone(&b.slot), b.slot_idx))
                .collect();
            let progress = Cell::new(0usize);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                service_shard_batch(
                    &mut registry,
                    &mut flat,
                    batch,
                    probes,
                    cause,
                    &stats,
                    &slab,
                    &progress,
                );
            }));
            if outcome.is_err() {
                for (slot, idx) in pending.iter().skip(progress.get()) {
                    fail_sub(slot, *idx, ServeError::Disconnected, &slab);
                }
                poison_loop(&rx, &slab);
                break 'serve;
            }
        }
        // controls run between batches: a consistent registry, no probe
        // in flight
        if !controls.is_empty() {
            {
                let mut s = stats.lock().expect("stats lock");
                s.controls += controls.len() as u64;
            }
            for c in controls {
                if catch_unwind(AssertUnwindSafe(|| c(&mut registry))).is_err() {
                    poison_loop(&rx, &slab);
                    break 'serve;
                }
            }
        }
    }
    // stopped, or the queue closed: nothing left to answer
}

/// A poisoned shard's terminal state: fail every incoming sub-batch fast
/// (instead of hanging its client) until the stop marker. Live handles
/// keep the queue open, so the marker is what lets shutdown join it.
fn poison_loop(rx: &Receiver<ShardMsg>, slab: &TicketSlab) {
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(sub) => {
                fail_sub(&sub.slot, sub.slot_idx, ServeError::Disconnected, slab)
            }
            ShardMsg::Control(c) => drop(c), // hangs up the caller's reply
            ShardMsg::Shutdown => return,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn service_shard_batch(
    registry: &mut ServiceRegistry<'static>,
    flat: &mut Vec<Probe>,
    batch: Vec<SubBatch>,
    probes: usize,
    cause: Flush,
    stats: &Arc<Mutex<ServeStats>>,
    slab: &TicketSlab,
    progress: &Cell<usize>,
) {
    // flatten the coalesced sub-batches into one mixed-spec batch,
    // reusing the worker's flat buffer across windows
    flat.clear();
    flat.reserve(probes);
    for b in &batch {
        flat.extend_from_slice(b.probes.as_slice());
    }
    let combined = registry.answer_batch(flat);
    let replied = Instant::now();

    let mut s = stats.lock().expect("stats lock");
    s.batches += 1;
    match cause {
        Flush::Full => s.batches_full += 1,
        Flush::Timer => s.batches_timer += 1,
        Flush::Drain => s.batches_drain += 1,
    }
    s.batch_probes.record(probes as u64);

    match combined {
        Ok(answers) => {
            let mut off = 0usize;
            for b in &batch {
                let n = b.probes.len();
                let slice = &answers[off..off + n];
                off += n;
                record_latency(&mut s, registry, b, replied);
                s.probes_answered += n as u64;
                complete_sub(b, slice, slab);
                progress.set(progress.get() + 1);
            }
        }
        Err(_) => {
            // one faulty sub-batch must not fail its neighbors: re-drive
            // the window per sub-batch so each submission gets its own
            // verdict
            drop(s);
            for b in &batch {
                let verdict = registry.answer_batch(b.probes.as_slice());
                let replied = Instant::now();
                let mut s = stats.lock().expect("stats lock");
                match verdict {
                    Ok(answers) => {
                        record_latency(&mut s, registry, b, replied);
                        s.probes_answered += b.probes.len() as u64;
                        drop(s);
                        complete_sub(b, &answers, slab);
                    }
                    Err(e) => {
                        s.probes_failed += b.probes.len() as u64;
                        drop(s);
                        fail_sub(&b.slot, b.slot_idx, ServeError::Registry(Arc::new(e)), slab);
                    }
                }
                progress.set(progress.get() + 1);
            }
        }
    }
}

/// Writes one sub-batch's answers into its slot as bits at the probes'
/// original positions — the zero-copy reply: no `Vec` is built or sent,
/// the client reads the bits out of the shared slot.
fn complete_sub(b: &SubBatch, answers: &[bool], slab: &TicketSlab) {
    finish_sub(&b.slot, b.slot_idx, slab, |st| match &b.positions {
        None => {
            for (i, &a) in answers.iter().enumerate() {
                if a {
                    st.bits[i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        Some(pos) => {
            for (&p, &a) in pos.iter().zip(answers) {
                if a {
                    st.bits[p as usize / 64] |= 1u64 << (p as usize % 64);
                }
            }
        }
    });
}

/// Credits `b`'s submit→reply latency to each probe's scheme.
fn record_latency(
    s: &mut ServeStats,
    registry: &ServiceRegistry<'static>,
    b: &SubBatch,
    replied: Instant,
) {
    let us = replied.duration_since(b.submitted).as_micros() as u64;
    for &(spec, ..) in b.probes.as_slice() {
        let Some(kind) = registry.scheme(spec) else {
            continue;
        };
        let i = SchemeKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("ALL is total");
        s.per_scheme[i].probes += 1;
        s.per_scheme[i].latency_us.record(us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetError;
    use crate::label::LabeledRun;
    use wfp_model::fixtures::{paper_run, paper_spec};
    use wfp_speclabel::SpecScheme;

    /// Serves the paper spec under `kinds`, two frozen runs each, every
    /// scheme's spec on its hash-home shard (each worker registers exactly
    /// its own specs). A shard's context is its spec-id list plus each
    /// run's vertex count.
    fn paper_server_sharded(
        config: ServeConfig,
        shards: usize,
        kinds: &'static [SchemeKind],
    ) -> ShardedServer<(Vec<SpecId>, usize)> {
        let plan = ShardPlan::new();
        serve_sharded(config, shards, plan.clone(), move |shard, shards| {
            let spec = paper_spec();
            let run = paper_run(&spec);
            let n = run.vertex_count();
            let mut reg = ServiceRegistry::new();
            let mut ids = Vec::new();
            for &kind in kinds {
                let id = SpecId::of(kind, spec.graph());
                if plan.shard_of(id, shards) != shard {
                    continue;
                }
                let labels = LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run)
                    .unwrap()
                    .labels()
                    .to_vec();
                let got = reg.register_spec(&spec, kind)?;
                assert_eq!(got, id, "content-hashed ids are deterministic");
                reg.register_labels(id, &labels)?;
                reg.register_labels(id, &labels)?;
                ids.push(id);
            }
            Ok((reg, (ids, n)))
        })
        .expect("sharded paper registry builds")
    }

    fn all_pairs(ids: &[SpecId], n: usize) -> Vec<Probe> {
        let mut probes = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    probes.push((
                        id,
                        RunId(((u as usize + i) % 2) as u32),
                        RunVertexId(u),
                        RunVertexId(v),
                    ));
                }
            }
        }
        probes
    }

    /// The spec ids and run size of a [`paper_server_sharded`] server,
    /// gathered from every shard's context.
    fn server_ids(server: &ShardedServer<(Vec<SpecId>, usize)>) -> (Vec<SpecId>, usize) {
        let mut ids = Vec::new();
        let mut n = 0;
        for (shard_ids, vn) in server.contexts() {
            ids.extend_from_slice(shard_ids);
            n = *vn;
        }
        (ids, n)
    }

    /// The oracle for [`paper_server_sharded`]: one direct registry
    /// holding every scheme's spec and its two runs.
    fn paper_registry_flat(kinds: &[SchemeKind]) -> ServiceRegistry<'static> {
        let mut direct = ServiceRegistry::new();
        let spec = paper_spec();
        let run = paper_run(&spec);
        for &kind in kinds {
            let labels = LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run)
                .unwrap()
                .labels()
                .to_vec();
            let id = direct.register_spec(&spec, kind).unwrap();
            direct.register_labels(id, &labels).unwrap();
            direct.register_labels(id, &labels).unwrap();
        }
        direct
    }

    #[test]
    fn served_answers_match_direct_calls() {
        const KINDS: &[SchemeKind] = &[SchemeKind::Tcm, SchemeKind::Bfs];
        let server = paper_server_sharded(ServeConfig::default(), 1, KINDS);
        let (ids, n) = server.contexts()[0].clone();
        let probes = all_pairs(&ids, n);
        let want = server
            .control_shard(0, {
                let probes = probes.clone();
                move |reg| reg.answer_batch(&probes).unwrap()
            })
            .unwrap();
        let handle = server.handle();
        let got = handle.probe_vec(probes.clone()).unwrap();
        assert_eq!(got, want);
        // singles agree too
        for (p, w) in probes.iter().take(40).zip(&want) {
            assert_eq!(handle.probe(p.0, p.1, p.2, p.3).unwrap(), *w);
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.merged.probes_failed, 0);
        assert_eq!(stats.merged.probes_answered, probes.len() as u64 + 40);
        assert!(stats.merged.scheme(SchemeKind::Tcm).probes > 0);
        assert!(stats.merged.scheme(SchemeKind::Tcm).p99_us().is_some());
    }

    #[test]
    fn sharded_answers_match_direct_calls_across_shards() {
        const KINDS: &[SchemeKind] = &[
            SchemeKind::Tcm,
            SchemeKind::Bfs,
            SchemeKind::Dfs,
            SchemeKind::TreeCover,
        ];
        const SHARDS: usize = 4;
        let server = paper_server_sharded(ServeConfig::default(), SHARDS, KINDS);
        let (ids, n) = server_ids(&server);
        assert_eq!(ids.len(), KINDS.len(), "every spec found a home shard");
        let probes = all_pairs(&ids, n);
        let want = paper_registry_flat(KINDS).answer_batch(&probes).unwrap();
        let handle = server.handle();
        // the mixed-spec vector splits across shards and reassembles in
        // submission order
        let got = handle.probe_vec(probes.clone()).unwrap();
        assert_eq!(got, want, "cross-shard reassembly is order-preserving");
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.merged.probes_failed, 0);
        assert_eq!(stats.merged.probes_answered, probes.len() as u64);
        assert_eq!(stats.per_shard.len(), SHARDS);
        let shards_hit = stats
            .per_shard
            .iter()
            .filter(|s| s.probes_answered > 0)
            .count();
        assert!(shards_hit >= 2, "traffic spread across shards");
    }

    #[test]
    fn pipelined_clients_across_shards_match_direct_calls() {
        const KINDS: &[SchemeKind] = &[
            SchemeKind::Tcm,
            SchemeKind::Bfs,
            SchemeKind::Dfs,
            SchemeKind::TreeCover,
        ];
        const CLIENTS: usize = 2;
        const DEPTH: usize = 16;
        let server = paper_server_sharded(ServeConfig::default(), 4, KINDS);
        let (ids, n) = server_ids(&server);
        // interleave the specs so every 5-probe request spans several
        // shards
        let probes = all_pairs(&ids, n);
        let per_spec = n * n;
        let mixed: Vec<Probe> = (0..per_spec)
            .flat_map(|j| (0..ids.len()).map(move |k| k * per_spec + j))
            .map(|i| probes[i])
            .collect();
        let want = paper_registry_flat(KINDS).answer_batch(&mixed).unwrap();
        let requests: Vec<&[Probe]> = mixed.chunks(5).collect();

        // each client keeps up to DEPTH tickets in flight, waiting on the
        // oldest before it submits the next request
        let mut served: Vec<Option<Vec<bool>>> = vec![None; requests.len()];
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let handle = server.handle();
                    let requests = &requests;
                    scope.spawn(move || {
                        let mut answered = Vec::new();
                        let mut inflight: std::collections::VecDeque<(usize, Ticket)> =
                            std::collections::VecDeque::with_capacity(DEPTH);
                        for j in (c..requests.len()).step_by(CLIENTS) {
                            if inflight.len() == DEPTH {
                                let (i, ticket) = inflight.pop_front().unwrap();
                                answered.push((i, ticket.wait().unwrap()));
                            }
                            inflight.push_back((j, handle.submit(requests[j].to_vec()).unwrap()));
                        }
                        for (i, ticket) in inflight {
                            answered.push((i, ticket.wait().unwrap()));
                        }
                        answered
                    })
                })
                .collect();
            for client in clients {
                for (j, answers) in client.join().expect("client thread") {
                    served[j] = Some(answers);
                }
            }
        });
        let got: Vec<bool> = served
            .into_iter()
            .flat_map(|a| a.expect("every request answered"))
            .collect();
        assert_eq!(got, want, "pipelined cross-shard answers");
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.merged.probes_failed, 0);
        assert_eq!(stats.merged.probes_answered, mixed.len() as u64);
    }

    #[test]
    fn panicking_shard_fails_alone_and_shutdown_still_joins_it() {
        const KINDS: &[SchemeKind] = &[
            SchemeKind::Tcm,
            SchemeKind::Bfs,
            SchemeKind::Dfs,
            SchemeKind::TreeCover,
        ];
        const SHARDS: usize = 4;
        let server = paper_server_sharded(ServeConfig::default(), SHARDS, KINDS);
        let (ids, n) = server_ids(&server);
        let plan = ShardPlan::new();
        let k = plan.shard_of(ids[0], SHARDS);
        let healthy = *ids
            .iter()
            .find(|&&id| plan.shard_of(id, SHARDS) != k)
            .expect("specs spread over at least two shards");
        // a second handle outlives the server: it keeps the shard queues
        // open, so only the stop marker can end the poisoned worker
        let handle = server.handle();
        assert!(matches!(
            server.control_shard(k, |_| panic!("poisoning shard on purpose")),
            Err(ServeError::Disconnected)
        ));
        let mut direct = paper_registry_flat(KINDS);
        for &id in &ids {
            let probes = all_pairs(&[id], n);
            let got = handle.probe_vec(probes.clone());
            if plan.shard_of(id, SHARDS) == k {
                assert!(matches!(got, Err(ServeError::Disconnected)), "{got:?}");
            } else {
                assert_eq!(got.unwrap(), direct.answer_batch(&probes).unwrap());
            }
        }
        let spanning = vec![
            (ids[0], RunId(0), RunVertexId(0), RunVertexId(0)),
            (healthy, RunId(0), RunVertexId(0), RunVertexId(0)),
        ];
        assert!(matches!(
            handle.probe_vec(spanning.clone()),
            Err(ServeError::Disconnected)
        ));
        assert!(matches!(
            server.control(|reg| reg.len()),
            Err(ServeError::Disconnected)
        ));
        let stats = server.shutdown().expect("a poisoned shard still joins");
        assert_eq!(stats.per_shard[k].probes_answered, 0);
        assert!(matches!(
            handle.probe_vec(spanning),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn cross_shard_requests_racing_shutdown_are_answered_or_refused() {
        const KINDS: &[SchemeKind] = &[
            SchemeKind::Tcm,
            SchemeKind::Bfs,
            SchemeKind::Dfs,
            SchemeKind::TreeCover,
        ];
        const SHARDS: usize = 4;
        const CLIENTS: usize = 2;
        const DEPTH: usize = 8;
        // a cap below the clients' combined depth, so admission refuses too
        let config = ServeConfig {
            queue_cap: 8,
            ..ServeConfig::default()
        };
        let server = paper_server_sharded(config, SHARDS, KINDS);
        let (ids, n) = server_ids(&server);
        let plan = ShardPlan::new();
        let homes: std::collections::HashSet<usize> =
            ids.iter().map(|&id| plan.shard_of(id, SHARDS)).collect();
        assert!(homes.len() >= 2, "specs spread over at least two shards");
        // interleave the specs, as in the pipelined test, so every 5-probe
        // request holds every spec and spans every shard that has one
        let probes = all_pairs(&ids, n);
        let per_spec = n * n;
        let mixed: Vec<Probe> = (0..per_spec)
            .flat_map(|j| (0..ids.len()).map(move |k| k * per_spec + j))
            .map(|i| probes[i])
            .collect();
        let requests: Vec<&[Probe]> = mixed.chunks(5).collect();
        let mut direct = paper_registry_flat(KINDS);
        let want: Vec<Vec<bool>> = requests
            .iter()
            .map(|r| direct.answer_batch(r).unwrap())
            .collect();

        let (answered_tx, answered_rx) = mpsc::channel::<()>();
        let (stats, answered) = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let handle = server.handle();
                    let (requests, want) = (&requests, &want);
                    let mut first = Some(answered_tx.clone());
                    scope.spawn(move || {
                        let mut answered = 0u64;
                        let mut inflight = std::collections::VecDeque::with_capacity(DEPTH);
                        let mut collect = |(j, ticket): (usize, Ticket)| {
                            let got = ticket.wait().expect("an admitted request is answered");
                            assert_eq!(got, want[j], "request {j}");
                            answered += got.len() as u64;
                            if let Some(tx) = first.take() {
                                tx.send(()).expect("main thread waits");
                            }
                        };
                        for j in (c..).step_by(CLIENTS).map(|j| j % requests.len()) {
                            if inflight.len() == DEPTH {
                                collect(inflight.pop_front().unwrap());
                            }
                            match handle.submit(requests[j].to_vec()) {
                                Ok(ticket) => inflight.push_back((j, ticket)),
                                Err(ServeError::Overloaded) => {
                                    if let Some(oldest) = inflight.pop_front() {
                                        collect(oldest);
                                    }
                                }
                                Err(ServeError::ShuttingDown) => break,
                                Err(e) => panic!("refusals are typed, got {e}"),
                            }
                        }
                        inflight.into_iter().for_each(collect);
                        answered
                    })
                })
                .collect();
            for _ in 0..CLIENTS {
                answered_rx.recv().expect("every client got one answer");
            }
            let stats = server.shutdown().expect("clean shutdown mid-traffic");
            let answered: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
            (stats, answered)
        });
        assert_eq!(stats.merged.probes_answered, answered);
        assert_eq!(stats.merged.probes_failed, 0);
    }

    #[test]
    fn broadcast_control_reaches_every_shard() {
        const KINDS: &[SchemeKind] = &[SchemeKind::Tcm, SchemeKind::Bfs, SchemeKind::Dfs];
        const SHARDS: usize = 3;
        let server = paper_server_sharded(ServeConfig::default(), SHARDS, KINDS);
        let lens = server.control(|reg| reg.len()).unwrap();
        assert_eq!(lens.len(), SHARDS);
        assert_eq!(
            lens.iter().sum::<usize>(),
            KINDS.len(),
            "each spec registered on exactly one shard"
        );
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.merged.controls, SHARDS as u64);
    }

    #[test]
    fn shutdown_drains_every_admitted_probe() {
        const KINDS: &[SchemeKind] = &[SchemeKind::Tcm];
        // an hour-long window and a huge batch: nothing flushes on its
        // own, so every answer below is produced by the shutdown drain
        let server = paper_server_sharded(
            ServeConfig {
                window: Duration::from_secs(3600),
                max_batch: usize::MAX,
                ..ServeConfig::default()
            },
            1,
            KINDS,
        );
        let (ids, n) = server.contexts()[0].clone();
        let probes = all_pairs(&ids, n);
        let want = server
            .control_shard(0, {
                let probes = probes.clone();
                move |reg| reg.answer_batch(&probes).unwrap()
            })
            .unwrap();
        let handle = server.handle();
        let tickets: Vec<(usize, Ticket)> = (0..10)
            .map(|i| (i, handle.submit(probes.clone()).unwrap()))
            .collect();
        let stats = server.shutdown().unwrap();
        assert_eq!(
            stats.merged.probes_answered,
            (probes.len() * tickets.len()) as u64,
            "drain answers every admitted probe"
        );
        assert!(stats.merged.batches_drain >= 1);
        for (_, t) in tickets {
            assert_eq!(t.wait().unwrap(), want);
        }
        // post-shutdown submissions get the typed error
        assert!(matches!(
            handle.probe_vec(probes),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn overflow_is_typed_and_never_deadlocks() {
        const KINDS: &[SchemeKind] = &[SchemeKind::Tcm];
        let server = paper_server_sharded(
            ServeConfig {
                queue_cap: 1,
                window: Duration::from_micros(50),
                ..ServeConfig::default()
            },
            1,
            KINDS,
        );
        let (ids, _) = server.contexts()[0].clone();
        let handle = server.handle();
        // stall the worker inside a control closure (issued from a
        // helper thread — `control` blocks until executed) so the bounded
        // queues visibly back up
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let mut admitted = Vec::new();
        std::thread::scope(|scope| {
            let srv = &server;
            scope.spawn(move || {
                srv.control_shard(0, move |_| {
                    let _ = started_tx.send(());
                    let _ = hold_rx.recv_timeout(Duration::from_secs(10));
                })
                .unwrap();
            });
            started_rx.recv().expect("worker reached the control");
            // the worker is stalled: fill the 1-slot queues, then
            // observe an immediate typed rejection — never a block
            let one = (ids[0], RunId(0), RunVertexId(0), RunVertexId(0));
            let mut saw_overload = false;
            for _ in 0..512 {
                match handle.submit_one(one) {
                    Ok(t) => admitted.push(t),
                    Err(ServeError::Overloaded) => {
                        saw_overload = true;
                        break;
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            assert!(
                saw_overload,
                "a 1-slot queue behind a stalled worker must shed load"
            );
            hold_tx.send(()).expect("release the worker");
        });
        // no deadlock: every admitted ticket still resolves (reflexive
        // probe → true)
        for t in admitted {
            assert!(t.wait_one().unwrap());
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.merged.controls, 1);
        assert_eq!(stats.merged.probes_failed, 0);
    }

    #[test]
    fn faulty_requests_fail_alone() {
        const KINDS: &[SchemeKind] = &[SchemeKind::Tcm, SchemeKind::Dfs];
        // a long window so both requests coalesce into one batch
        let server = paper_server_sharded(
            ServeConfig {
                window: Duration::from_millis(200),
                ..ServeConfig::default()
            },
            1,
            KINDS,
        );
        let (ids, n) = server.contexts()[0].clone();
        let handle = server.handle();
        let good = all_pairs(&ids, n);
        let bad = vec![(ids[1], RunId(99), RunVertexId(0), RunVertexId(0))];
        let t_good = handle.submit(good.clone()).unwrap();
        let t_bad = handle.submit(bad).unwrap();
        let got = t_good.wait().unwrap();
        assert!(matches!(
            t_bad.wait(),
            Err(ServeError::Registry(e))
                if matches!(&*e, RegistryError::Fleet { .. })
        ));
        let want = server
            .control_shard(0, move |reg| reg.answer_batch(&good).unwrap())
            .unwrap();
        assert_eq!(got, want, "the healthy neighbor is unaffected");
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.merged.probes_failed, 1);
    }

    #[test]
    fn out_of_range_vertex_fails_alone_and_the_shard_keeps_serving() {
        const KINDS: &[SchemeKind] = &[SchemeKind::Tcm];
        let server = paper_server_sharded(ServeConfig::default(), 1, KINDS);
        let (ids, n) = server.contexts()[0].clone();
        let handle = server.handle();
        let good = (ids[0], RunId(0), RunVertexId(0), RunVertexId(1));
        let want = handle.probe_vec(vec![good]).unwrap();
        // one bad vertex id: a typed registry error, not a poisoned shard
        let bad = (ids[0], RunId(0), RunVertexId(0), RunVertexId(n as u32));
        assert!(matches!(
            handle.probe_vec(vec![bad]),
            Err(ServeError::Registry(e)) if matches!(
                &*e,
                RegistryError::Fleet {
                    error: FleetError::VertexOutOfRange { vertex, len, .. },
                    ..
                } if vertex.index() == n && *len == n
            )
        ));
        // the same shard answers the next good request and types the next
        // bad run id
        assert_eq!(handle.probe_vec(vec![good]).unwrap(), want);
        let bad_run = (ids[0], RunId(99), RunVertexId(0), RunVertexId(0));
        assert!(matches!(
            handle.probe_vec(vec![bad_run]),
            Err(ServeError::Registry(e))
                if matches!(&*e, RegistryError::Fleet { error: FleetError::UnknownRun(_), .. })
        ));
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.merged.probes_failed, 2);
    }

    #[test]
    fn cross_shard_request_with_one_faulty_shard_reports_the_error() {
        const KINDS: &[SchemeKind] = &[
            SchemeKind::Tcm,
            SchemeKind::Bfs,
            SchemeKind::Dfs,
            SchemeKind::TreeCover,
        ];
        const SHARDS: usize = 4;
        let server = paper_server_sharded(ServeConfig::default(), SHARDS, KINDS);
        let (ids, n) = server_ids(&server);
        let handle = server.handle();
        // pick two specs with *different* home shards so the bad request
        // provably spans shards, with the fault confined to one of them
        let plan = ShardPlan::new();
        let (a, b) = ids
            .iter()
            .flat_map(|&x| ids.iter().map(move |&y| (x, y)))
            .find(|&(x, y)| plan.shard_of(x, SHARDS) != plan.shard_of(y, SHARDS))
            .expect("specs spread over at least two shards");
        // a healthy cross-shard request and one whose probes include a
        // bogus run on a single shard
        let good = all_pairs(&ids, n);
        let bad = vec![
            (a, RunId(0), RunVertexId(0), RunVertexId(0)),
            (b, RunId(99), RunVertexId(0), RunVertexId(0)),
        ];
        let t_good = handle.submit(good).unwrap();
        let t_bad = handle.submit(bad).unwrap();
        assert!(t_good.wait().is_ok(), "healthy request unaffected");
        assert!(matches!(t_bad.wait(), Err(ServeError::Registry(_))));
        let stats = server.shutdown().unwrap();
        // only the faulty sub-batch's probes count as failed
        assert_eq!(stats.merged.probes_failed, 1);
    }

    #[test]
    fn builder_errors_surface_to_the_caller() {
        let bogus = SpecId(0xDEAD);
        let err = serve_sharded(ServeConfig::default(), 1, ShardPlan::new(), move |_, _| {
            let mut reg = ServiceRegistry::new();
            reg.ensure_resident(bogus)?;
            Ok((reg, ()))
        });
        assert!(matches!(
            err.map(|_| ()),
            Err(RegistryError::UnknownSpec(id)) if id == bogus
        ));
    }

    #[test]
    fn sharded_builder_error_on_one_shard_tears_down_cleanly() {
        let bogus = SpecId(0xDEAD);
        let err = serve_sharded(
            ServeConfig::default(),
            4,
            ShardPlan::new(),
            move |shard, _| {
                let mut reg = ServiceRegistry::new();
                if shard == 2 {
                    reg.ensure_resident(bogus)?;
                }
                Ok((reg, ()))
            },
        );
        assert!(matches!(
            err.map(|_| ()),
            Err(RegistryError::UnknownSpec(id)) if id == bogus
        ));
    }

    #[test]
    fn histogram_quantiles_bracket_their_samples() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 900, 1000, 1000, 1000, 1000, 1000, 40_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 40_000);
        let p50 = h.quantile(0.5).unwrap();
        assert!((768..=1024).contains(&p50), "p50 {p50} near the mode");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= 32_768, "p99 {p99} reaches the tail bucket");
        assert!(p99 <= 40_000);
        // exact small values
        let mut small = Histogram::default();
        for v in 0..8 {
            small.record(v);
        }
        assert_eq!(small.quantile(0.0).unwrap(), 0);
        assert_eq!(small.quantile(1.0).unwrap(), 7);
    }

    #[test]
    fn histogram_is_exact_below_128() {
        // every value below EXACT sits in its own bucket: quantiles over
        // the 0..128 ramp come back exactly
        let mut h = Histogram::default();
        for v in 0..Histogram::EXACT {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0).unwrap(), 0);
        assert_eq!(h.quantile(0.25).unwrap(), 31);
        assert_eq!(h.quantile(0.5).unwrap(), 63);
        assert_eq!(h.quantile(0.75).unwrap(), 95);
        assert_eq!(h.quantile(1.0).unwrap(), 127);
        // µs-scale medians: a pile at 97 reports exactly 97, not a bucket
        // floor 12% away
        let mut m = Histogram::default();
        for _ in 0..101 {
            m.record(97);
        }
        assert_eq!(m.quantile(0.5).unwrap(), 97);
        assert_eq!(m.quantile(0.99).unwrap(), 97);
    }

    #[test]
    fn histogram_boundary_at_128_enters_the_log_range() {
        // 127 is the last exact bucket; 128 opens octave 7
        let mut h = Histogram::default();
        h.record(127);
        h.record(128);
        h.record(159); // still the first sub-bucket of octave 7 (128..160)
        h.record(160); // second sub-bucket
        assert_eq!(h.quantile(0.25).unwrap(), 127, "exact side of the seam");
        assert_eq!(h.quantile(0.5).unwrap(), 128, "first log bucket floor");
        assert_eq!(h.quantile(0.75).unwrap(), 128, "159 shares 128's bucket");
        assert_eq!(h.quantile(1.0).unwrap(), 160, "next sub-bucket floor");
        // the top of u64 still lands in a real bucket (floor reported,
        // capped by the exact max)
        let mut top = Histogram::default();
        top.record(u64::MAX);
        assert!(top.quantile(1.0).unwrap() >= 1 << 63);
        assert_eq!(top.max(), u64::MAX);
    }

    #[test]
    fn histograms_and_stats_merge_bucketwise() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [5u64, 100, 1000] {
            a.record(v);
        }
        for v in [5u64, 7, 100_000] {
            b.record(v);
        }
        let mut whole = Histogram::default();
        for v in [5u64, 100, 1000, 5, 7, 100_000] {
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "quantile {q}");
        }
        // ServeStats::merge folds counters and digests
        let mut s1 = ServeStats {
            requests: 3,
            probes_submitted: 10,
            probes_answered: 9,
            probes_failed: 1,
            ..ServeStats::default()
        };
        let s2 = ServeStats {
            requests: 2,
            probes_submitted: 5,
            probes_answered: 5,
            controls: 4,
            ..ServeStats::default()
        };
        s1.merge(&s2);
        assert_eq!(s1.requests, 5);
        assert_eq!(s1.probes_submitted, 15);
        assert_eq!(s1.probes_answered, 14);
        assert_eq!(s1.probes_failed, 1);
        assert_eq!(s1.controls, 4);
    }

    #[test]
    fn shard_plan_pins_override_the_hash() {
        let a = SpecId(0x1111_2222_3333_4444);
        let b = SpecId(0x5555_6666_7777_8888);
        let plan = ShardPlan::new().pin(a, 3);
        assert_eq!(plan.shard_of(a, 4), 3);
        let hashed = ShardPlan::new().shard_of(b, 4);
        assert_eq!(plan.shard_of(b, 4), hashed, "unpinned specs still hash");
        assert_eq!(plan.shard_of(a, 1), 0, "one shard takes everything");
        // re-pinning replaces, and pins wrap modulo the shard count
        let plan = plan.pin(a, 9);
        assert_eq!(plan.shard_of(a, 4), 1);
    }

    #[test]
    fn dropped_tickets_recycle_their_slots() {
        const KINDS: &[SchemeKind] = &[SchemeKind::Tcm];
        let server = paper_server_sharded(ServeConfig::default(), 1, KINDS);
        let (ids, _) = server.contexts()[0].clone();
        let handle = server.handle();
        let one = (ids[0], RunId(0), RunVertexId(0), RunVertexId(0));
        // fire-and-forget: drop every ticket unwaited; slots must come
        // back to the free list and the server must drain cleanly
        for _ in 0..256 {
            let _ = handle.submit_one(one).unwrap();
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.merged.probes_answered, 256);
        assert_eq!(stats.merged.probes_failed, 0);
        let free = server_slab_free_len(&handle);
        let total = server_slab_len(&handle);
        assert_eq!(free, total, "every slot returned to the free list");
    }

    // Parallel evaluators share one spec context by reference, and each
    // registry is built on the calling thread, then moved into its worker.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        const fn send<T: Send>() {}
        send_sync::<crate::context::SpecContext<SpecScheme>>();
        send::<ServiceRegistry<'static>>();
    };

    fn server_slab_free_len(handle: &ServeHandle) -> usize {
        handle.shared.slab.inner.lock().unwrap().free.len()
    }

    fn server_slab_len(handle: &ServeHandle) -> usize {
        handle.shared.slab.inner.lock().unwrap().slots.len()
    }
}
