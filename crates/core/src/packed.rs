//! Bit-packed label columns: the compressed resident form of a frozen run.
//!
//! The raw [`SoaLabels`] store spends a full
//! `u32` per coordinate — 16 bytes per vertex — even though the paper's
//! point is that run labels are *short*: `q1/q2/q3` are preorder positions
//! in `[0, 3n)` and `origin` is a module id in `[0, n_G)`. This module
//! packs each column independently with frame-of-reference encoding (store
//! `min`, then `value − min` at the smallest bit width covering
//! `max − min`), chosen per column when a run is packed:
//!
//! * **Resident footprint** — a packed run costs `Σ widths / 8` bytes per
//!   vertex (typically ~6–7 instead of 16). A
//!   [`crate::fleet::FleetEngine`] packs every run it registers or
//!   freezes, so this is the one form its frozen runs take.
//! * **One layout, in memory and on disk** — a run packs straight into
//!   the [`seg::PACKED_COLUMNS_ALIGNED`] segment payload, and
//!   [`PackedColumnsView`] serves that payload in place: a run packed in
//!   memory owns its buffer, a run loaded from a snapshot shares the load
//!   buffer, and saving writes the payload back verbatim.
//! * **Direct serving** — queries do **not** unpack the run: the two-phase
//!   sweep kernel ([`crate::engine`]) gathers 64-lane blocks through a
//!   shift-and-mask decode into the same stack scratch the raw columns
//!   use, so answers are byte-identical and the unpack cost is a handful
//!   of ALU ops per lane against a column that now fits deeper in cache.
//!
//! [`PackedEngine`] is the single-run packed counterpart of
//! [`QueryEngine`], which keeps the raw columns and serves as the oracle
//! the packed form is checked against.
//!
//! [`seg::PACKED_COLUMNS_ALIGNED`]: crate::snapshot::seg::PACKED_COLUMNS_ALIGNED

use std::sync::Arc;

use wfp_model::RunVertexId;
use wfp_speclabel::SpecIndex;

use crate::context::{PackedRunHandle, SpecContext};
use crate::engine::{ColumnGather, EngineStats, QueryEngine, SoaLabels};
use crate::label::{QueryPath, RunLabel};
use crate::snapshot::FormatError;

/// Version byte leading every packed-columns payload
/// ([`seg::PACKED_COLUMNS_ALIGNED`](crate::snapshot::seg::PACKED_COLUMNS_ALIGNED)).
pub const PACKED_ALIGNED_VERSION: u8 = 1;

/// Fixed size of the payload header: version byte, four `(base, width)`
/// column frames, zero padding to an 8-byte boundary, the vertex count,
/// the origin bound, and trailing zero padding — so every column's word
/// region starts at a multiple of 8 from the payload start.
const ALIGNED_HEADER_BYTES: usize = 40;

/// Packed words needed for `len` deltas of `width` bits (pad excluded).
fn word_count(len: u64, width: u32) -> usize {
    ((len * u64::from(width)).div_ceil(64)) as usize
}

/// One column's frame of reference: its minimum, and the bit width
/// covering `max − min` (0 for a constant column).
fn frame(vals: &[u32]) -> (u32, u32) {
    let base = vals.iter().copied().min().unwrap_or(0);
    let spread = vals.iter().copied().max().unwrap_or(0) - base;
    (base, 32 - spread.leading_zeros())
}

/// Encodes raw label columns as a packed payload: the fixed 40-byte
/// header (version, four `(base, width)` frames, zero padding, vertex
/// count, origin bound, zero padding), then each column's deltas packed
/// little-endian-contiguous into 64-bit words, followed by one zero pad
/// word. Every column region is thus a multiple of 8 bytes, starts
/// 8-byte-aligned relative to the payload, and an 8-byte read at its last
/// element stays inside it.
fn encode(cols: &SoaLabels) -> Vec<u8> {
    let (q1, q2, q3, origin) = cols.raw_columns();
    let columns = [q1, q2, q3, origin];
    encode_framed(columns, columns.map(frame), cols.origin_bound())
}

/// [`encode`] under given column frames and stored origin bound; every
/// value must lie inside its column's frame.
fn encode_framed(columns: [&[u32]; 4], frames: [(u32, u32); 4], origin_bound: u32) -> Vec<u8> {
    let len = columns[0].len() as u64;
    let words: usize = frames
        .iter()
        .map(|&(_, width)| word_count(len, width) + 1)
        .sum();
    let mut out = Vec::with_capacity(ALIGNED_HEADER_BYTES + words * 8);
    out.push(PACKED_ALIGNED_VERSION);
    for (base, width) in frames {
        out.extend_from_slice(&base.to_le_bytes());
        out.push(width as u8);
    }
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&origin_bound.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    for (vals, (base, width)) in columns.into_iter().zip(frames) {
        let mut words = vec![0u64; word_count(len, width) + 1];
        for (i, &v) in vals.iter().enumerate() {
            let delta = u64::from(v - base);
            let bit = i as u64 * u64::from(width);
            let (w, s) = ((bit >> 6) as usize, (bit & 63) as u32);
            words[w] |= delta << s;
            if s + width > 64 {
                words[w + 1] |= delta >> (64 - s);
            }
        }
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out
}

/// One column of a [`PackedColumnsView`]: the frame header plus the
/// column's absolute byte offset inside the shared buffer.
#[derive(Clone, Copy, Debug)]
struct ViewCol {
    base: u32,
    width: u32,
    /// Absolute byte offset of the column's first packed word in `buf`.
    off: usize,
}

/// Bit-packed struct-of-arrays label storage for one frozen run: the four
/// columns of [`SoaLabels`], each frame-of-reference encoded at its own
/// width, served in place out of a packed payload
/// ([`seg::PACKED_COLUMNS_ALIGNED`]) inside a shared buffer. A run packed
/// in memory ([`PackedRunHandle::pack`]) owns its buffer; a run loaded from a snapshot
/// shares the load buffer ([`bind`](Self::bind) decodes no `q` column and
/// allocates nothing proportional to the run), so a snapshot fault-in is a
/// read, a checksum and a scan of each run's origin column, and an
/// evict→reload cycle of an unmodified fleet can rebind the retained
/// buffer without touching storage at all. Round-trips losslessly via
/// [`unpack`](Self::unpack).
///
/// Trust posture: [`bind`](Self::bind) validates the header (version,
/// frame ranges, padding, byte-exact layout) and rescans the origin
/// column, so the stored origin bound must be exactly the column's
/// maximum plus one, and every served origin indexes inside the sweep's
/// probe table. The scan's cost follows the vertex count, not the bytes,
/// so it reads eight lanes per 8-byte load wherever the origin column is
/// at most 8 bits wide (every spec of up to 256 modules): on one vCPU of
/// an Intel Xeon KVM guest it binds an 8-run, 390 KB fleet of 4–5-bit
/// origins in 44 µs, half the container's 89 µs CRC-32 pass, where a scan
/// one lane at a time took 114 µs.
///
/// [`seg::PACKED_COLUMNS_ALIGNED`]: crate::snapshot::seg::PACKED_COLUMNS_ALIGNED
#[derive(Clone)]
pub struct PackedColumnsView {
    buf: Arc<[u8]>,
    start: usize,
    total: usize,
    len: usize,
    cols: [ViewCol; 4],
    origin_bound: u32,
}

impl PackedColumnsView {
    /// Packs raw label columns, choosing each column's base and bit width
    /// from its actual value range, into a buffer of the view's own.
    pub(crate) fn pack(cols: &SoaLabels) -> Self {
        let payload: Arc<[u8]> = Arc::from(encode(cols));
        let len = payload.len();
        Self::bind(payload, 0, len).expect("a freshly packed payload binds")
    }

    /// Binds a view to the packed payload at `buf[start .. start + len_bytes]`,
    /// validating the header and exact layout without decoding the q
    /// columns. The caller vouches that the buffer's *contents* passed
    /// container CRC; this constructor re-establishes every structural
    /// invariant the gather path relies on, so a corrupt or forged payload
    /// is a typed [`FormatError`], never a panic or wild read.
    pub fn bind(buf: Arc<[u8]>, start: usize, len_bytes: usize) -> Result<Self, FormatError> {
        let end = start
            .checked_add(len_bytes)
            .filter(|&e| e <= buf.len())
            .ok_or(FormatError::Truncated { offset: buf.len() })?;
        let payload = &buf[start..end];
        if payload.len() < ALIGNED_HEADER_BYTES {
            return Err(FormatError::Truncated {
                offset: payload.len(),
            });
        }
        let version = payload[0];
        if version != PACKED_ALIGNED_VERSION {
            return Err(FormatError::UnsupportedVersion(u16::from(version)));
        }
        let mut frames = [(0u32, 0u32); 4];
        for (slot, f) in frames.iter_mut().enumerate() {
            let at = 1 + slot * 5;
            let base = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
            let width = u32::from(payload[at + 4]);
            if width > 32 {
                return Err(FormatError::Malformed(
                    "packed column width exceeds 32 bits",
                ));
            }
            let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
            if u64::from(base) + mask > u64::from(u32::MAX) {
                return Err(FormatError::Malformed("packed column range overflows u32"));
            }
            *f = (base, width);
        }
        if payload[21..24] != [0, 0, 0] || payload[36..40] != [0, 0, 0, 0] {
            return Err(FormatError::Malformed("aligned header padding is not zero"));
        }
        let len = u64::from_le_bytes(payload[24..32].try_into().expect("8 bytes"));
        if len > u64::from(u32::MAX) {
            return Err(FormatError::Malformed(
                "packed columns exceed the vertex id space",
            ));
        }
        let origin_bound = u32::from_le_bytes(payload[32..36].try_into().expect("4 bytes"));
        let mut cols = [ViewCol {
            base: 0,
            width: 0,
            off: 0,
        }; 4];
        let mut total = ALIGNED_HEADER_BYTES as u64;
        for (c, &(base, width)) in cols.iter_mut().zip(&frames) {
            *c = ViewCol {
                base,
                width,
                off: start + total as usize,
            };
            total += (word_count(len, width) as u64 + 1) * 8;
        }
        match (payload.len() as u64).cmp(&total) {
            std::cmp::Ordering::Less => {
                return Err(FormatError::Truncated {
                    offset: payload.len(),
                })
            }
            std::cmp::Ordering::Greater => {
                return Err(FormatError::TrailingBytes {
                    extra: (payload.len() as u64 - total) as usize,
                })
            }
            std::cmp::Ordering::Equal => {}
        }
        for c in &cols {
            let pad = c.off - start + word_count(len, c.width) * 8;
            if payload[pad..pad + 8] != [0u8; 8] {
                return Err(FormatError::Malformed("aligned column padding is not zero"));
            }
        }
        let view = PackedColumnsView {
            buf,
            start,
            total: total as usize,
            len: len as usize,
            cols,
            origin_bound,
        };
        // The stored bound sizes the sweep's probe table, so it must be
        // the honest one. The scan is bounded by the stored words (the
        // layout check above ties `len` to the payload size), so a forged
        // count cannot buy unbounded work.
        let honest = view
            .col_max(view.cols[3])
            .map_or(0, |m| m.saturating_add(1));
        if honest != origin_bound {
            return Err(FormatError::Malformed(
                "aligned origin bound does not match the stored column",
            ));
        }
        Ok(view)
    }

    /// Decodes element `i` of one column straight out of the shared
    /// buffer with a single unaligned 8-byte load: the element starts at
    /// in-byte shift `bit & 7` (at most 7) and is at most 32 bits wide,
    /// so it always fits inside the `u64` loaded at byte `bit / 8`. The
    /// trailing pad word keeps that load inside the column region for
    /// every `i < len`, and `u64::from_le_bytes` makes machine alignment
    /// irrelevant.
    #[inline(always)]
    fn col_get(&self, c: ViewCol, i: usize) -> u32 {
        if c.width == 0 {
            return c.base;
        }
        let bit = i * c.width as usize;
        let at = c.off + (bit >> 3);
        let word = u64::from_le_bytes(self.buf[at..at + 8].try_into().expect("8 bytes"));
        let mask = (1u64 << c.width) - 1;
        c.base + ((word >> (bit & 7)) & mask) as u32
    }

    /// The largest value of one column (`None` when the view is empty),
    /// read a word at a time where the width allows it. Eight lanes of
    /// width `w` fill exactly `w` bytes, so for `w ≤ 8` every group of
    /// eight lanes starts on a byte boundary and one unaligned
    /// little-endian 8-byte load holds all of it; the last `len % 8`
    /// lanes, and every lane of a wider column, go through
    /// [`col_get`](Self::col_get). A zero-width column is its base.
    fn col_max(&self, c: ViewCol) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let w = c.width as usize;
        if w == 0 {
            return Some(c.base);
        }
        let groups = if w <= 8 { self.len / 8 } else { 0 };
        let mask = (1u64 << w) - 1;
        let mut max = 0u64;
        for g in 0..groups {
            // group `g` ends `w` bytes after it starts, and the column's
            // pad word keeps the 8-byte load inside its region
            let at = c.off + g * w;
            let word = u64::from_le_bytes(self.buf[at..at + 8].try_into().expect("8 bytes"));
            for j in 0..8 {
                max = max.max((word >> (j * w)) & mask);
            }
        }
        let tail = (groups * 8..self.len).map(|i| self.col_get(c, i) - c.base);
        Some(c.base + tail.fold(max as u32, u32::max))
    }

    /// Number of labels served by the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no labels are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive upper bound on the served origin ids (0 when empty).
    pub fn origin_bound(&self) -> u32 {
        self.origin_bound
    }

    /// The four per-column bit widths `(q1, q2, q3, origin)`.
    pub fn widths(&self) -> (u32, u32, u32, u32) {
        (
            self.cols[0].width,
            self.cols[1].width,
            self.cols[2].width,
            self.cols[3].width,
        )
    }

    /// Re-gathers the label of vertex `v` from the shared buffer (spot
    /// checks and the scalar probe path; the batch paths decode inside
    /// the sweep).
    pub fn label(&self, v: RunVertexId) -> RunLabel {
        let i = v.index();
        assert!(i < self.len, "query vertex out of range");
        RunLabel {
            q1: self.col_get(self.cols[0], i),
            q2: self.col_get(self.cols[1], i),
            q3: self.col_get(self.cols[2], i),
            origin: wfp_model::ModuleId(self.col_get(self.cols[3], i)),
        }
    }

    /// Bytes of the buffer this view spans (header + columns) — the
    /// resident cost attributed to the run while the buffer is held.
    pub fn memory_bytes(&self) -> usize {
        self.total
    }

    /// The exact packed payload this view serves — what a snapshot
    /// writes back, verbatim.
    pub(crate) fn payload_bytes(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.total]
    }

    /// Decodes back to raw `u32` columns — byte-identical to the columns
    /// that were packed.
    pub fn unpack(&self) -> SoaLabels {
        let col = |c: ViewCol| {
            (0..self.len)
                .map(|i| self.col_get(c, i))
                .collect::<Vec<u32>>()
        };
        SoaLabels::from_raw_columns(
            col(self.cols[0]),
            col(self.cols[1]),
            col(self.cols[2]),
            col(self.cols[3]),
        )
        .expect("view columns share one length")
    }
}

impl std::fmt::Debug for PackedColumnsView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedColumnsView")
            .field("len", &self.len)
            .field("origin_bound", &self.origin_bound)
            .field("widths", &self.widths())
            .field("payload_bytes", &self.total)
            .finish_non_exhaustive()
    }
}

impl ColumnGather for PackedColumnsView {
    type Coord = u32;

    #[inline(always)]
    fn lane_count(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn coords(&self, i: usize) -> (u32, u32, u32) {
        (
            self.col_get(self.cols[0], i),
            self.col_get(self.cols[1], i),
            self.col_get(self.cols[2], i),
        )
    }

    #[inline(always)]
    fn origin_of(&self, i: usize) -> u32 {
        self.col_get(self.cols[3], i)
    }

    #[inline(always)]
    fn origin_bound(&self) -> u32 {
        self.origin_bound
    }
}

/// The resident form of a packed run, as
/// [`PackedRunHandle::from_store`] takes it. Every packed run is a
/// [`PackedColumnsView`]; the enum keeps `from_store` callers building.
#[derive(Clone, Debug)]
pub enum PackedStore {
    /// Packed words served in place out of a validated buffer.
    View(PackedColumnsView),
}

/// A batched reachability engine over one **packed** run — the
/// [`QueryEngine`] counterpart for packed-resident serving: same shared
/// [`SpecContext`], same two-phase sweep kernel, same counters, with the
/// label columns staying in their compressed frames the whole time.
pub struct PackedEngine<S> {
    ctx: Arc<SpecContext<S>>,
    run: PackedRunHandle,
}

impl<S: SpecIndex> PackedEngine<S> {
    /// A view over an already-shared context and a packed run handle.
    pub fn from_parts(ctx: Arc<SpecContext<S>>, run: PackedRunHandle) -> Self {
        PackedEngine { ctx, run }
    }

    /// Number of labeled vertices.
    pub fn vertex_count(&self) -> usize {
        self.run.vertex_count()
    }

    /// The packed label columns.
    pub fn columns(&self) -> &PackedColumnsView {
        self.run.columns()
    }

    /// The shared spec-level state this engine answers through.
    pub fn context(&self) -> &Arc<SpecContext<S>> {
        &self.ctx
    }

    /// The per-run packed columns and counters.
    pub fn run(&self) -> &PackedRunHandle {
        &self.run
    }

    /// Cumulative decision statistics (shaped like
    /// [`QueryEngine::stats`]).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            context_only: self.run.context_only(),
            skeleton: self.run.skeleton_queries(),
            skeleton_probes: self.ctx.memo().probes(),
            memo_hits: self.ctx.memo().hits(),
        }
    }

    /// Whether `u ⇝ v` — the scalar entry point over packed labels.
    #[inline]
    pub fn answer(&self, u: RunVertexId, v: RunVertexId) -> bool {
        let (ans, path) = answer_one_packed(self.run.columns(), &self.ctx, u, v);
        match path {
            QueryPath::ContextOnly => self.run.count(1, 0),
            QueryPath::Skeleton => self.run.count(0, 1),
        }
        ans
    }

    /// Answers every pair of `pairs` in order through the packed sweep.
    pub fn answer_batch(&self, pairs: &[(RunVertexId, RunVertexId)]) -> Vec<bool> {
        let mut out = Vec::new();
        self.answer_batch_into(pairs, &mut out);
        out
    }

    /// [`answer_batch`](Self::answer_batch) into a caller-owned buffer
    /// (cleared first), returning it as a slice.
    pub fn answer_batch_into<'o>(
        &self,
        pairs: &[(RunVertexId, RunVertexId)],
        out: &'o mut Vec<bool>,
    ) -> &'o [bool] {
        out.clear();
        out.resize(pairs.len(), false);
        let (ctx, skel) = crate::engine::sweep_into_slice(
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

/// The allocation-free scalar kernel over packed columns: decode both
/// labels, then the same memoized predicate as the raw path.
#[inline]
pub(crate) fn answer_one_packed<S: SpecIndex>(
    cols: &PackedColumnsView,
    ctx: &SpecContext<S>,
    u: RunVertexId,
    v: RunVertexId,
) -> (bool, QueryPath) {
    let (a, b) = (cols.label(u), cols.label(v));
    match ctx.probe_memo() {
        Some(memo) => crate::engine::predicate_memo_traced(&a, &b, ctx.skeleton(), memo),
        None => crate::label::predicate_traced(&a, &b, ctx.skeleton()),
    }
}

impl<S: SpecIndex> QueryEngine<S> {
    /// Seals this engine's run into a [`PackedEngine`] over the **same**
    /// shared context: the label columns are re-encoded into per-column
    /// frames, decision counters carry over, and answers stay
    /// byte-identical (the sweep decodes inside its gather).
    pub fn seal_packed(&self) -> PackedEngine<S> {
        PackedEngine {
            ctx: Arc::clone(self.context()),
            run: PackedRunHandle::pack(self.run()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabeledRun;
    use wfp_model::fixtures::{paper_run, paper_spec};
    use wfp_speclabel::{SchemeKind, SpecScheme};

    fn paper_columns(kind: SchemeKind) -> SoaLabels {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let labeled =
            LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
        SoaLabels::from_labels(labeled.labels())
    }

    #[test]
    fn pack_round_trips_every_scheme_and_shrinks() {
        for &kind in &SchemeKind::ALL {
            let cols = paper_columns(kind);
            let packed = PackedColumnsView::pack(&cols);
            assert_eq!(packed.len(), cols.len());
            assert_eq!(packed.origin_bound(), cols.origin_bound());
            assert_eq!(packed.unpack().raw_columns(), cols.raw_columns(), "{kind}");
            assert!(
                packed.memory_bytes() < cols.len() * 16,
                "{kind}: packed columns did not shrink"
            );
        }
    }

    #[test]
    fn payload_round_trips_and_preserves_every_value() {
        let cols = paper_columns(SchemeKind::Bfs);
        let packed = PackedColumnsView::pack(&cols);
        let bytes = packed.payload_bytes().to_vec();
        let len = bytes.len();
        let decoded = PackedColumnsView::bind(Arc::from(bytes), 0, len).unwrap();
        assert_eq!(decoded.unpack().raw_columns(), cols.raw_columns());
        assert_eq!(decoded.origin_bound(), packed.origin_bound());
        assert_eq!(decoded.widths(), packed.widths());
        for i in 0..cols.len() {
            let v = RunVertexId(i as u32);
            assert_eq!(decoded.label(v), cols.label(v), "label {i}");
        }
    }

    #[test]
    fn aligned_payload_round_trips_every_scheme() {
        for &kind in &SchemeKind::ALL {
            let cols = paper_columns(kind);
            let packed = PackedColumnsView::pack(&cols);
            let bytes = packed.payload_bytes().to_vec();
            assert_eq!(bytes.len() % 8, 0, "{kind}: payload not word-sized");
            assert_eq!(bytes.len(), packed.memory_bytes());
            // a rebind of the written bytes serves, and writes, the same
            let len = bytes.len();
            let rebound = PackedColumnsView::bind(Arc::from(bytes.clone()), 0, len).unwrap();
            assert_eq!(rebound.widths(), packed.widths(), "{kind}");
            assert_eq!(rebound.origin_bound(), packed.origin_bound(), "{kind}");
            assert_eq!(rebound.unpack().raw_columns(), cols.raw_columns(), "{kind}");
            assert_eq!(rebound.payload_bytes(), &bytes[..], "{kind}");
        }
    }

    #[test]
    fn view_serves_byte_identical_to_owned() {
        // A sealed run's view owns its buffer; a loaded run's view is
        // bound into a shared load buffer. Both must serve the same bytes.
        for &kind in &SchemeKind::ALL {
            let cols = paper_columns(kind);
            let owned = PackedColumnsView::pack(&cols);
            let buf: Arc<[u8]> = Arc::from(owned.payload_bytes());
            let view = PackedColumnsView::bind(Arc::clone(&buf), 0, buf.len()).unwrap();
            assert_eq!(view.len(), owned.len());
            assert_eq!(view.origin_bound(), owned.origin_bound());
            assert_eq!(view.widths(), owned.widths());
            assert_eq!(view.memory_bytes(), buf.len());
            assert_eq!(view.unpack().raw_columns(), cols.raw_columns(), "{kind}");
            let (q1, q2, q3, origin) = cols.raw_columns();
            for i in 0..owned.len() {
                let v = RunVertexId(i as u32);
                assert_eq!(view.label(v), owned.label(v), "{kind} label {i}");
                assert_eq!(view.label(v), cols.label(v), "{kind} label {i}");
                assert_eq!(view.coords(i), owned.coords(i), "{kind} coords {i}");
                assert_eq!(view.coords(i), (q1[i], q2[i], q3[i]), "{kind} coords {i}");
                assert_eq!(view.origin_of(i), owned.origin_of(i), "{kind} origin {i}");
                assert_eq!(view.origin_of(i), origin[i], "{kind} origin {i}");
            }
            // A view handed over as a store keeps sharing the buffer and
            // re-serializes verbatim.
            let handle = PackedRunHandle::from_store(PackedStore::View(view));
            assert!(
                Arc::ptr_eq(&handle.columns().buf, &buf),
                "{kind}: store copied"
            );
            assert_eq!(handle.columns().payload_bytes(), &buf[..]);
        }
    }

    #[test]
    fn view_binds_at_nonzero_offset_inside_a_larger_buffer() {
        let cols = paper_columns(SchemeKind::Hop2);
        let payload = PackedColumnsView::pack(&cols).payload_bytes().to_vec();
        let mut framed = vec![0xAAu8; 16];
        framed.extend_from_slice(&payload);
        framed.extend_from_slice(&[0xBB; 24]);
        let buf: Arc<[u8]> = Arc::from(framed);
        let view = PackedColumnsView::bind(Arc::clone(&buf), 16, payload.len()).unwrap();
        assert_eq!(view.unpack().raw_columns(), cols.raw_columns());
        assert_eq!(view.payload_bytes(), &payload[..]);
        // A span that runs past the buffer is a typed error, not a panic.
        assert_eq!(
            PackedColumnsView::bind(Arc::clone(&buf), 16, buf.len()).unwrap_err(),
            FormatError::Truncated { offset: buf.len() }
        );
        assert_eq!(
            PackedColumnsView::bind(buf.clone(), usize::MAX, 8).unwrap_err(),
            FormatError::Truncated { offset: buf.len() }
        );
    }

    /// Columns at width 8, 1 (two values), 32 (extremes of the u32
    /// range) and 0 (constant), across two 64-lane blocks with a partial
    /// tail.
    fn degenerate_columns() -> SoaLabels {
        let n = 130u32;
        let q1: Vec<u32> = (0..n).collect();
        let q2: Vec<u32> = (0..n).map(|i| 7 + (i & 1)).collect();
        let q3: Vec<u32> = (0..n).map(|i| if i == 13 { u32::MAX } else { 0 }).collect();
        let origin: Vec<u32> = vec![5; n as usize];
        SoaLabels::from_raw_columns(q1, q2, q3, origin).expect("equal lengths")
    }

    #[test]
    fn degenerate_widths_zero_one_and_full() {
        let cols = degenerate_columns();
        let packed = PackedColumnsView::pack(&cols);
        assert_eq!(packed.widths(), (8, 1, 32, 0));
        assert_eq!(packed.origin_bound(), 6);
        let bytes = packed.payload_bytes().to_vec();
        let len = bytes.len();
        let decoded = PackedColumnsView::bind(Arc::from(bytes), 0, len).unwrap();
        assert_eq!(decoded.unpack().raw_columns(), cols.raw_columns());
        assert_eq!(decoded.origin_bound(), 6);
        let (q1, q2, q3, origin) = cols.raw_columns();
        for i in 0..cols.len() {
            assert_eq!(decoded.coords(i), (q1[i], q2[i], q3[i]), "coords {i}");
            assert_eq!(decoded.origin_of(i), origin[i], "origin {i}");
        }

        let empty = PackedColumnsView::pack(&SoaLabels::new());
        let bytes = empty.payload_bytes().to_vec();
        let len = bytes.len();
        let decoded = PackedColumnsView::bind(Arc::from(bytes), 0, len).unwrap();
        assert_eq!(decoded.len(), 0);
        assert_eq!(decoded.origin_bound(), 0);
    }

    #[test]
    fn aligned_degenerate_widths_and_empty() {
        let view = PackedColumnsView::pack(&degenerate_columns());
        // Each column region is its packed words plus one pad word
        // (17 + 1, 3 + 1, 65 + 1 and 0 + 1 words for 130 lanes at widths
        // 8, 1, 32, 0) and starts 8-byte-aligned from the payload start.
        assert_eq!(view.memory_bytes(), 40 + (18 + 4 + 66 + 1) * 8);
        for c in &view.cols {
            assert_eq!((c.off - view.start) % 8, 0, "width {} column", c.width);
        }

        let empty = PackedColumnsView::pack(&SoaLabels::new());
        // Empty columns are header + four pad words only.
        assert_eq!(empty.memory_bytes(), 40 + 4 * 8);
        assert!(empty.is_empty());
        assert_eq!(empty.origin_bound(), 0);
        let bytes = empty.payload_bytes().to_vec();
        let view = PackedColumnsView::bind(Arc::from(bytes), 0, 72).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.origin_bound(), 0);
    }

    #[test]
    fn aligned_forged_headers_are_typed_errors_on_both_paths() {
        let good = PackedColumnsView::pack(&paper_columns(SchemeKind::Dfs))
            .payload_bytes()
            .to_vec();
        // the two paths: a buffer holding exactly the payload, and the
        // payload framed at an offset inside a larger buffer (the shape of
        // a snapshot load buffer); both must agree on every verdict
        let both = |bytes: &[u8]| {
            let exact = PackedColumnsView::bind(Arc::from(bytes.to_vec()), 0, bytes.len())
                .map(|v| v.unpack());
            let mut framed = vec![0u8; 16];
            framed.extend_from_slice(bytes);
            framed.extend_from_slice(&[0u8; 8]);
            let framed =
                PackedColumnsView::bind(Arc::from(framed), 16, bytes.len()).map(|v| v.unpack());
            assert_eq!(
                exact.as_ref().err(),
                framed.as_ref().err(),
                "offset changed the verdict"
            );
            exact
        };

        // Unknown payload version.
        let mut bad = good.clone();
        bad[0] = PACKED_ALIGNED_VERSION + 1;
        assert_eq!(
            both(&bad).unwrap_err(),
            FormatError::UnsupportedVersion(u16::from(PACKED_ALIGNED_VERSION + 1))
        );

        // Width beyond 32 bits (first frame's width byte).
        let mut bad = good.clone();
        bad[5] = 33;
        assert_eq!(
            both(&bad).unwrap_err(),
            FormatError::Malformed("packed column width exceeds 32 bits")
        );

        // base + mask overflowing the u32 value space.
        let mut bad = good.clone();
        bad[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            both(&bad).unwrap_err(),
            FormatError::Malformed("packed column range overflows u32")
        );

        // Non-zero header padding (both pad runs).
        for at in [21usize, 22, 23, 36, 37, 38, 39] {
            let mut bad = good.clone();
            bad[at] = 1;
            assert_eq!(
                both(&bad).unwrap_err(),
                FormatError::Malformed("aligned header padding is not zero"),
                "pad byte {at}"
            );
        }

        // Non-zero column pad word (corrupt the last 8 bytes: every
        // column region ends in its pad word, the last one ends the
        // payload).
        let mut bad = good.clone();
        let end = bad.len();
        bad[end - 1] = 0x80;
        assert_eq!(
            both(&bad).unwrap_err(),
            FormatError::Malformed("aligned column padding is not zero")
        );

        // An origin bound that is not the stored column's maximum plus
        // one is rejected by the rescan: one far outside the frame's
        // range, and — over synthetic columns that keep the frame's slack
        // explicit — ones inside it. Origins {3, 5} pack at width 2 (mask
        // 3), so the honest bound is 6 and 7 and 4 are in range but wrong.
        let mut bad = good.clone();
        bad[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let mismatch =
            FormatError::Malformed("aligned origin bound does not match the stored column");
        assert_eq!(both(&bad).unwrap_err(), mismatch);
        let synth =
            SoaLabels::from_raw_columns(vec![0, 1, 2], vec![0, 1, 2], vec![2, 1, 0], vec![3, 5, 3])
                .expect("equal lengths");
        let synth_packed = PackedColumnsView::pack(&synth);
        assert_eq!(synth_packed.origin_bound(), 6);
        assert_eq!(synth_packed.widths().3, 2);
        let synth_good = synth_packed.payload_bytes().to_vec();
        for forged in [7u32, 4] {
            let mut bad = synth_good.clone();
            bad[32..36].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(both(&bad).unwrap_err(), mismatch, "forged bound {forged}");
        }

        // Truncation at every offset: typed error, never a panic, on both
        // paths.
        for cut in 0..good.len() {
            assert!(both(&good[..cut]).is_err(), "bound a prefix of {cut} bytes");
        }

        // Trailing bytes are rejected with the exact surplus.
        let mut bad = good.clone();
        bad.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            both(&bad).unwrap_err(),
            FormatError::TrailingBytes { extra: 8 }
        );
    }

    /// Calls `check(width, len, origin, honest)` for every origin width
    /// 0–32 and every length 0–130, so every `len % 8` tail appears at
    /// every width, with the column's maximum placed in the first lane, in
    /// a middle group and in the last lane. The other lanes hold values
    /// below the maximum, every third one the value just below it, so a
    /// scan that skipped or shifted a lane would see the wrong maximum.
    /// `honest` is the per-lane maximum plus one (0 when empty).
    fn for_each_origin_column(mut check: impl FnMut(u32, usize, &[u32], u32)) {
        for width in 0..=32u32 {
            let mask = (1u64 << width) - 1;
            // a maximum delta with the top bit set, so the column really
            // needs `width` bits
            let base = origin_base(width);
            let top = if width == 0 {
                0
            } else {
                (1u64 << (width - 1)) | (0x5555_5555 & (mask >> 1))
            };
            let below = |i: usize| match (top, i % 3) {
                (0, _) => 0,
                (_, 0) => top - 1,
                _ => (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % top,
            };
            for len in 0..=130usize {
                if len == 0 {
                    check(width, 0, &[], 0);
                    continue;
                }
                for at in [0, len / 2, len - 1] {
                    let origin: Vec<u32> = (0..len)
                        .map(|i| base + (if i == at { top } else { below(i) }) as u32)
                        .collect();
                    check(width, len, &origin, base + top as u32 + 1);
                }
            }
        }
    }

    /// The origin frame's base at `width`: non-zero wherever the frame's
    /// range leaves room for one.
    fn origin_base(width: u32) -> u32 {
        if width == 32 {
            0
        } else {
            3
        }
    }

    /// `origin` packed at `width` over constant q columns, with `bound`
    /// stored as the origin bound.
    fn origin_payload(width: u32, origin: &[u32], bound: u32) -> Vec<u8> {
        let q = vec![0u32; origin.len()];
        encode_framed(
            [&q, &q, &q, origin],
            [(0, 0), (0, 0), (0, 0), (origin_base(width), width)],
            bound,
        )
    }

    /// Binds `bytes` as the exact buffer and framed at an unaligned offset
    /// between non-zero bytes.
    fn bind_both(bytes: &[u8]) -> [Result<PackedColumnsView, FormatError>; 2] {
        let mut framed = vec![0xFFu8; 13];
        framed.extend_from_slice(bytes);
        framed.extend_from_slice(&[0xFF; 8]);
        [
            PackedColumnsView::bind(Arc::from(bytes), 0, bytes.len()),
            PackedColumnsView::bind(Arc::from(framed), 13, bytes.len()),
        ]
    }

    #[test]
    fn origin_scan_accepts_exactly_the_lane_maximum_plus_one() {
        for_each_origin_column(|width, len, origin, honest| {
            for view in bind_both(&origin_payload(width, origin, honest)) {
                let view = view.unwrap_or_else(|e| panic!("width {width} len {len}: {e:?}"));
                assert_eq!(view.origin_bound(), honest, "width {width} len {len}");
                assert_eq!(view.widths().3, width);
                for (i, &o) in origin.iter().enumerate() {
                    assert_eq!(view.origin_of(i), o, "width {width} len {len} lane {i}");
                }
            }
        });
    }

    #[test]
    fn origin_bounds_off_by_one_are_malformed_on_both_paths() {
        let mismatch =
            FormatError::Malformed("aligned origin bound does not match the stored column");
        for_each_origin_column(|width, len, origin, honest| {
            // the maximum itself and the maximum plus two; an empty column
            // has no maximum, so any stored bound but 0 is wrong
            let forged = if len == 0 {
                [1, 2]
            } else {
                [honest - 1, honest + 1]
            };
            for bound in forged {
                for verdict in bind_both(&origin_payload(width, origin, bound)) {
                    assert_eq!(
                        verdict.unwrap_err(),
                        mismatch,
                        "width {width} len {len} bound {bound}"
                    );
                }
            }
        });
    }

    #[test]
    fn packed_engine_matches_raw_and_carries_counters() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        for kind in [SchemeKind::Tcm, SchemeKind::Bfs] {
            let labeled =
                LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
            let engine = QueryEngine::from_labeled(labeled);
            let pairs: Vec<_> = run
                .vertices()
                .flat_map(|u| run.vertices().map(move |v| (u, v)))
                .collect();
            let raw = engine.answer_batch(&pairs);
            let raw_stats = engine.stats();
            let packed = engine.seal_packed();
            assert_eq!(packed.vertex_count(), engine.vertex_count());
            // Counters carried over by the seal.
            assert_eq!(packed.stats().context_only, raw_stats.context_only);
            assert_eq!(packed.answer_batch(&pairs), raw, "{kind}");
            for (&(u, v), &expected) in pairs.iter().zip(&raw) {
                assert_eq!(packed.answer(u, v), expected, "{kind} scalar ({u},{v})");
            }
            // Decision mix identical to the raw engine's first pass.
            let after = packed.stats();
            assert_eq!(after.context_only, 3 * raw_stats.context_only);
            assert_eq!(after.skeleton, 3 * raw_stats.skeleton);
        }
    }
}
