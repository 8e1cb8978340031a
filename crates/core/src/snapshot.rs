//! The unified snapshot layer: one versioned, segmented container format
//! for everything the stack persists.
//!
//! The paper's headline economy — a run label factors into a tiny per-run
//! part plus a spec-only skeleton part (§4, §7) — should survive a process
//! restart. Before this module each serialized artifact (packed label
//! files, provenance stores) carried its own hand-rolled framing, and the
//! *expensive* shared state (the [`SpecContext`] skeleton and the
//! [`SharedMemo`] warm snapshot) was rebuilt from scratch on every start.
//! Now every on-disk artifact is the same container:
//!
//! ```text
//! magic "WFPS" | container version u16 | reserved u16 | segment count u32
//! section table: per segment { kind u16 | reserved u16 | len u64 | crc32 }
//! structure crc32 (over header + table; reported as segment kind 0)
//! payloads, concatenated in table order (total length checked exactly)
//! ```
//!
//! * one shared framing module: little-endian [`Cursor`] reads, LEB128
//!   varints, CRC-32 checksums, and the untrusted-length guard
//!   ([`Cursor::guarded_count`]) that bounds every count-prefixed
//!   preallocation by the bytes actually present;
//! * every segment is CRC-checked at parse time, so a flipped bit anywhere
//!   in a payload is a typed [`FormatError`] — never a wrong answer;
//! * segment kinds compose: a spec record ([`write_spec_context`]) is two
//!   segments, a fleet is a spec record + a manifest + one
//!   [`seg::PACKED_COLUMNS_ALIGNED`] segment per frozen run (the one form
//!   a fleet stores a frozen run in), and higher layers
//!   (`wfp-provenance`'s fleet index) append their own kinds to the same
//!   container.
//!
//! Reloading a fleet costs one read of its file plus one checksum pass
//! over the bytes: packed segments bind zero-copy (their only other pass
//! reads the origin column to check its stored bound), so there is no
//! decode pass to hide the checksum behind. [`crc32`] runs three
//! independent slicing-by-16 chains over equal stripes of a buffer and
//! folds them with the GF(2) CRC combine (a multiply by x^(8n) mod P, from
//! a `const` table of x^(2^k)), so one chain's lookup latency no longer
//! bounds it; its values are the standard CRC-32, whichever kernel runs.
//! The registry reads a directory snapshot straight into the `Arc<[u8]>`
//! that `FleetEngine::load_shared` binds: one allocation and one copy per
//! fault-in.
//!
//! Integrity vs. trust: the CRCs detect *corruption* (a torn page, a bad
//! disk), not tampering — a snapshot is trusted state, like the database
//! page the paper stores labels in. Untrusted *structure* (lengths, counts,
//! ids) is still validated everywhere, so a malformed file errors cleanly
//! instead of panicking or over-allocating.

use wfp_graph::DiGraph;
use wfp_speclabel::{SchemeKind, SpecScheme};

use crate::context::{SharedMemo, SpecContext};

/// Container magic: the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"WFPS";

/// Current container version.
pub const VERSION: u16 = 1;

/// Well-known segment kinds. Unknown kinds are skipped by readers (forward
/// compatibility); the constants here are the kinds this crate stack
/// writes. Kinds `0x0003` and `0x0009` are reserved: they named a frozen
/// run's retired raw columns and a retired unaligned packed layout, so
/// reusing either would misread old files.
pub mod seg {
    /// Spec-labeling record: scheme kind + specification graph.
    pub const SPEC_LABELING: u16 = 0x0001;
    /// Dense [`super::SharedMemo`] warm-snapshot cells.
    pub const MEMO_WARM: u16 = 0x0002;
    /// Fleet manifest: slot states + per-run decision counters.
    pub const FLEET_MANIFEST: u16 = 0x0004;
    /// Packed fixed-width label array (`EncodedLabels`).
    pub const PACKED_LABELS: u16 = 0x0005;
    /// Provenance store items (`StoredProvenance`).
    pub const PROVENANCE_ITEMS: u16 = 0x0006;
    /// One run's registered data items (`wfp-provenance` fleet index).
    pub const RUN_ITEMS: u16 = 0x0007;
    /// Multi-spec registry manifest: the index of a snapshot *directory*
    /// (`wfp_skl::registry`) — spec ids, scheme tags and per-spec file
    /// names.
    pub const REGISTRY_MANIFEST: u16 = 0x0008;
    /// One frozen run's bit-packed label columns
    /// (`wfp_skl::PackedColumnsView`): a fixed header, then each column's
    /// `u64` words plus a zero pad word, every region a multiple of 8 from
    /// the payload start — served straight out of the load buffer with
    /// zero per-word decode.
    pub const PACKED_COLUMNS_ALIGNED: u16 = 0x000A;
}

// ====================================================================
// Errors
// ====================================================================

/// Failures parsing a snapshot container or one of its segment payloads.
/// The shared error vocabulary of every persistent format in the stack:
/// `wfp_skl::DecodeError` wraps it (with `source()` threading back here),
/// and `wfp_provenance`'s store returns it as is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// The bytes do not start with the container magic.
    BadMagic,
    /// The container (or a layer above it) declares an unsupported version.
    UnsupportedVersion(u16),
    /// The buffer ended before a declared structure was complete.
    Truncated {
        /// Byte offset (within the buffer or segment) where input ran out.
        offset: usize,
    },
    /// A count or length field promises more data than the buffer holds —
    /// rejected *before* sizing any allocation.
    Oversized {
        /// Items or bytes declared by the untrusted field.
        declared: u64,
        /// Bytes actually available to back them.
        available: u64,
    },
    /// A segment's payload does not match its table checksum (kind 0
    /// denotes the container's own header + section table).
    ChecksumMismatch {
        /// Kind of the corrupt segment.
        kind: u16,
    },
    /// A required segment kind is absent from the container.
    MissingSegment {
        /// The kind that was looked up.
        kind: u16,
    },
    /// Bytes remain after the last declared payload.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A structurally invalid payload (reserved bits set, inconsistent
    /// counts, out-of-range ids).
    Malformed(&'static str),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a snapshot container (bad magic)"),
            FormatError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            FormatError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            FormatError::Oversized {
                declared,
                available,
            } => write!(
                f,
                "length field declares {declared} where only {available} bytes remain"
            ),
            FormatError::ChecksumMismatch { kind } => {
                write!(f, "segment 0x{kind:04x} failed its CRC-32 check")
            }
            FormatError::MissingSegment { kind } => {
                write!(f, "snapshot has no segment of kind 0x{kind:04x}")
            }
            FormatError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last segment")
            }
            FormatError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FormatError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

// ====================================================================
// CRC-32 (IEEE), dependency-free
// ====================================================================

/// The IEEE polynomial in the reflected bit order the CRC register uses
/// (bit 31 holds the coefficient of x^0).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, `TABLES[k][j]` advances `j` through `k` further zero bytes.
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut j = 0;
        while j < 256 {
            let prev = tables[k - 1][j];
            tables[k][j] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            j += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// `a · b mod P` over GF(2), both operands and the result reflected.
const fn mul_mod_p(mut a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    while a != 0 {
        if a & (1 << 31) != 0 {
            product ^= b;
        }
        a <<= 1;
        // b · x: the x^31 coefficient (bit 0) wraps around through P
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// `X2N[k]` = x^(2^k) mod P. The powers repeat with period 32
/// (x^(2^32) ≡ x mod P), so 32 squares cover every length.
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    table[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        table[k] = mul_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// x^(8·len) mod P: multiplying a CRC register by it advances the
/// register past `len` zero bytes.
fn x8n_mod_p(mut len: usize) -> u32 {
    let mut power = 1 << 31; // x^0
    let mut k = 3; // bit i of len weighs x^(8·2^i) = x^(2^(i+3))
    while len != 0 {
        if len & 1 != 0 {
            power = mul_mod_p(X2N[k % 32], power);
        }
        len >>= 1;
        k += 1;
    }
    power
}

/// One slicing-by-16 step: folds the 16 bytes of `chunk` into the raw
/// register `c`.
#[inline(always)]
fn step16(c: u32, chunk: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")) ^ c as u64;
    let hi = u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes"));
    t[15][(lo & 0xFF) as usize]
        ^ t[14][((lo >> 8) & 0xFF) as usize]
        ^ t[13][((lo >> 16) & 0xFF) as usize]
        ^ t[12][((lo >> 24) & 0xFF) as usize]
        ^ t[11][((lo >> 32) & 0xFF) as usize]
        ^ t[10][((lo >> 40) & 0xFF) as usize]
        ^ t[9][((lo >> 48) & 0xFF) as usize]
        ^ t[8][(lo >> 56) as usize]
        ^ t[7][(hi & 0xFF) as usize]
        ^ t[6][((hi >> 8) & 0xFF) as usize]
        ^ t[5][((hi >> 16) & 0xFF) as usize]
        ^ t[4][((hi >> 24) & 0xFF) as usize]
        ^ t[3][((hi >> 32) & 0xFF) as usize]
        ^ t[2][((hi >> 40) & 0xFF) as usize]
        ^ t[1][((hi >> 48) & 0xFF) as usize]
        ^ t[0][(hi >> 56) as usize]
}

/// The serial kernel: one slicing-by-16 dependency chain over `bytes`,
/// from and to the raw register (no pre- or post-inversion).
fn crc_update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        c = step16(c, chunk);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3 polynomial) of `bytes` — the per-segment checksum.
///
/// Snapshot loads checksum megabytes of label columns, and with
/// zero-copy binds (no decode pass) this checksum *is* the fault-in cost.
/// One slicing-by-16 chain is bound by its own latency, so buffers of 48
/// bytes and more run three independent chains over equal stripes (each
/// a whole number of 16-byte steps) and fold them with the GF(2) CRC
/// combine: `crc(A‖B) = crc(A) · x^(8·|B|) ⊕ crc(B)` on raw registers. The
/// value is the standard CRC-32, identical to the serial kernel's.
pub fn crc32(bytes: &[u8]) -> u32 {
    let stripe = bytes.len() / 48 * 16;
    if stripe == 0 {
        return !crc_update(!0, bytes);
    }
    let (a, rest) = bytes.split_at(stripe);
    let (b, rest) = rest.split_at(stripe);
    let (c, tail) = rest.split_at(stripe);
    let (mut ca, mut cb, mut cc) = (!0u32, 0u32, 0u32);
    for ((x, y), z) in a
        .chunks_exact(16)
        .zip(b.chunks_exact(16))
        .zip(c.chunks_exact(16))
    {
        ca = step16(ca, x);
        cb = step16(cb, y);
        cc = step16(cc, z);
    }
    let shift = x8n_mod_p(stripe);
    let joined = mul_mod_p(shift, mul_mod_p(shift, ca) ^ cb) ^ cc;
    !crc_update(joined, tail)
}

// ====================================================================
// Varints
// ====================================================================

/// Appends `value` as an LEB128 varint (1–10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

// ====================================================================
// Bounded cursor: the shared little-endian framing reader
// ====================================================================

/// A bounds-checked reader over a byte slice: every read returns a typed
/// [`FormatError`] instead of panicking, and count fields go through
/// [`guarded_count`](Self::guarded_count) so untrusted lengths can never
/// size an allocation the buffer cannot back.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Takes the next `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], FormatError> {
        if self.remaining() < len {
            return Err(FormatError::Truncated { offset: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.bytes(1)?[0])
    }

    /// Next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, FormatError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Next LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, FormatError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            value |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                // bits beyond the 64th must be zero (canonical encoding)
                if shift == 63 && byte > 1 {
                    return Err(FormatError::Malformed("varint overflows u64"));
                }
                return Ok(value);
            }
        }
        Err(FormatError::Malformed("varint longer than 10 bytes"))
    }

    /// A varint count field, **guarded**: errors unless the remaining bytes
    /// could possibly hold `count` items of at least `min_item_bytes` each.
    /// The single home of the untrusted-length rule every segment reader
    /// follows — a flipped high bit in a count must produce
    /// [`FormatError::Oversized`], not a multi-gigabyte preallocation.
    pub fn guarded_count(&mut self, min_item_bytes: usize) -> Result<usize, FormatError> {
        let count = self.varint()?;
        let need = count.saturating_mul(min_item_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(FormatError::Oversized {
                declared: count,
                available: self.remaining() as u64,
            });
        }
        Ok(count as usize)
    }

    /// A varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, FormatError> {
        let len = self.guarded_count(1)?;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| FormatError::BadUtf8)
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), FormatError> {
        if self.remaining() != 0 {
            return Err(FormatError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Appends a varint-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// ====================================================================
// Container writer / reader
// ====================================================================

/// Builds a snapshot container: segments are appended in order, then
/// [`finish`](Self::finish) lays down the header, the CRC'd section table
/// and the payloads.
#[derive(Default)]
pub struct SnapshotWriter {
    segments: Vec<(u16, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one segment. Repeated kinds are allowed (a fleet writes one
    /// [`seg::PACKED_COLUMNS_ALIGNED`] per run); readers see them in
    /// insertion order.
    pub fn push(&mut self, kind: u16, payload: Vec<u8>) {
        self.segments.push((kind, payload));
    }

    /// Serializes the container.
    pub fn finish(self) -> Vec<u8> {
        let payload_len: usize = self.segments.iter().map(|(_, p)| p.len()).sum();
        let mut out = Vec::with_capacity(16 + 16 * self.segments.len() + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for (kind, payload) in &self.segments {
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&0u16.to_le_bytes()); // reserved
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        // header + table CRC: segment CRCs cover the payloads, this one
        // covers the structure, so a flipped bit in a kind or length field
        // is detected at parse — not when a lookup mysteriously misses
        let structure_crc = crc32(&out);
        out.extend_from_slice(&structure_crc.to_le_bytes());
        for (_, payload) in &self.segments {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// A parsed snapshot container: the section table validated, every
/// segment's CRC verified, payloads borrowed from the input buffer.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    segments: Vec<(u16, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses and fully validates a container: header, section table,
    /// exact total length, and one CRC pass over every payload.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, FormatError> {
        Self::parse_with(bytes, true)
    }

    /// [`parse`](Self::parse) minus the per-payload CRC pass. Structure
    /// validation (magic, version, table, structure CRC, exact total
    /// length) still runs; only the payload checksums are skipped. For
    /// callers that can attest the *identical* buffer already passed a
    /// full [`parse`](Self::parse) — e.g. the registry rebinding a
    /// retained `Arc` it validated on a previous fault-in, so a reload
    /// of an unmodified fleet skips the O(bytes) checksum.
    pub(crate) fn parse_trusted(bytes: &'a [u8]) -> Result<Self, FormatError> {
        Self::parse_with(bytes, false)
    }

    fn parse_with(bytes: &'a [u8], verify_payloads: bool) -> Result<Self, FormatError> {
        let mut cur = Cursor::new(bytes);
        if cur.bytes(4).map_err(|_| FormatError::BadMagic)? != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = cur.u16()?;
        if version != VERSION {
            return Err(FormatError::UnsupportedVersion(version));
        }
        if cur.u16()? != 0 {
            return Err(FormatError::Malformed("reserved header bits set"));
        }
        let count = cur.u32()? as u64;
        // length guard: each table entry is 16 bytes
        if count.saturating_mul(16) > cur.remaining() as u64 {
            return Err(FormatError::Oversized {
                declared: count,
                available: cur.remaining() as u64,
            });
        }
        let mut table = Vec::with_capacity(count as usize);
        let mut total: u64 = 0;
        for _ in 0..count {
            let kind = cur.u16()?;
            if cur.u16()? != 0 {
                return Err(FormatError::Malformed("reserved table bits set"));
            }
            let len = cur.u64()?;
            let crc = cur.u32()?;
            total = total.saturating_add(len);
            table.push((kind, len, crc));
        }
        let structure_crc = crc32(&bytes[..cur.position()]);
        if cur.u32()? != structure_crc {
            return Err(FormatError::ChecksumMismatch { kind: 0 });
        }
        if total != cur.remaining() as u64 {
            // either a truncated file or a corrupted length field; report
            // whichever direction the mismatch points
            return if total > cur.remaining() as u64 {
                Err(FormatError::Oversized {
                    declared: total,
                    available: cur.remaining() as u64,
                })
            } else {
                Err(FormatError::TrailingBytes {
                    extra: (cur.remaining() as u64 - total) as usize,
                })
            };
        }
        let mut segments = Vec::with_capacity(table.len());
        for (kind, len, crc) in table {
            let payload = cur.bytes(len as usize)?;
            if verify_payloads && crc32(payload) != crc {
                return Err(FormatError::ChecksumMismatch { kind });
            }
            segments.push((kind, payload));
        }
        cur.finish()?;
        Ok(SnapshotReader { segments })
    }

    /// All segments, in container order.
    pub fn segments(&self) -> &[(u16, &'a [u8])] {
        &self.segments
    }

    /// The first segment of `kind`, or [`FormatError::MissingSegment`].
    pub fn first(&self, kind: u16) -> Result<&'a [u8], FormatError> {
        self.all(kind)
            .next()
            .ok_or(FormatError::MissingSegment { kind })
    }

    /// Every segment of `kind`, in container order.
    pub fn all(&self, kind: u16) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.segments
            .iter()
            .filter(move |(k, _)| *k == kind)
            .map(|&(_, p)| p)
    }
}

// ====================================================================
// Spec-labeling record: scheme kind + specification graph + warm memo
// ====================================================================

pub(crate) fn scheme_tag(kind: SchemeKind) -> u8 {
    match kind {
        SchemeKind::Tcm => 0,
        SchemeKind::Bfs => 1,
        SchemeKind::Dfs => 2,
        SchemeKind::TreeCover => 3,
        SchemeKind::Chain => 4,
        SchemeKind::Hop2 => 5,
    }
}

pub(crate) fn scheme_from_tag(tag: u8) -> Result<SchemeKind, FormatError> {
    Ok(match tag {
        0 => SchemeKind::Tcm,
        1 => SchemeKind::Bfs,
        2 => SchemeKind::Dfs,
        3 => SchemeKind::TreeCover,
        4 => SchemeKind::Chain,
        5 => SchemeKind::Hop2,
        _ => return Err(FormatError::Malformed("unknown scheme tag")),
    })
}

/// The canonical [`seg::SPEC_LABELING`] payload for a scheme kind + spec
/// graph: scheme tag, vertex count, edge count, then the edge list in
/// insertion order — all varint-encoded. This byte string is both what the
/// snapshot stores *and* what `wfp_skl::registry::SpecId` hashes, so a spec
/// id computed in memory always agrees with one recomputed from a loaded
/// snapshot.
pub fn spec_record_payload(kind: SchemeKind, graph: &DiGraph) -> Vec<u8> {
    let mut spec = Vec::new();
    spec.push(scheme_tag(kind));
    put_varint(&mut spec, graph.vertex_count() as u64);
    put_varint(&mut spec, graph.edge_count() as u64);
    for &(from, to) in graph.edges() {
        put_varint(&mut spec, from as u64);
        put_varint(&mut spec, to as u64);
    }
    spec
}

/// Writes the two spec-level segments ([`seg::SPEC_LABELING`] +
/// [`seg::MEMO_WARM`]) describing `ctx` into `w`. The skeleton itself is
/// *not* serialized — the record carries the scheme kind and the
/// specification graph, from which [`read_spec_context`] rebuilds the
/// identical (deterministic) index; what *is* carried verbatim is the
/// dense warm-memo tier, so a restarted service answers its first
/// `+`-LCA probes from the memo instead of re-running warm-up searches.
pub fn write_spec_context(w: &mut SnapshotWriter, ctx: &SpecContext<SpecScheme>, graph: &DiGraph) {
    w.push(
        seg::SPEC_LABELING,
        spec_record_payload(ctx.skeleton().kind(), graph),
    );

    let memo = ctx.memo();
    let mut warm = Vec::new();
    put_varint(&mut warm, memo.side() as u64);
    warm.extend_from_slice(&memo.warm_cells());
    w.push(seg::MEMO_WARM, warm);
}

/// Reads the spec-level segments back: rebuilds the skeleton index from
/// the stored graph + scheme kind and restores the warm memo cells.
/// Returns the context plus the specification graph it was saved for.
pub fn read_spec_context(
    r: &SnapshotReader<'_>,
) -> Result<(SpecContext<SpecScheme>, DiGraph), FormatError> {
    let mut cur = Cursor::new(r.first(seg::SPEC_LABELING)?);
    let kind = scheme_from_tag(cur.u8()?)?;
    let n = cur.varint()?;
    if n > u32::MAX as u64 {
        return Err(FormatError::Malformed("vertex count exceeds u32"));
    }
    let mut graph = DiGraph::with_vertices(n as usize);
    // each edge costs at least two varint bytes
    let m = cur.guarded_count(2)?;
    for _ in 0..m {
        let from = cur.varint()?;
        let to = cur.varint()?;
        if from >= n || to >= n {
            return Err(FormatError::Malformed("edge endpoint out of range"));
        }
        graph.add_edge(from as u32, to as u32);
    }
    cur.finish()?;
    // the schemes assume a DAG (Chain's topological sweep would panic on a
    // cycle); a forged graph must be a typed error, not a crash
    if wfp_graph::topo_order(&graph).is_err() {
        return Err(FormatError::Malformed("specification graph has a cycle"));
    }

    let mut warm = Cursor::new(r.first(seg::MEMO_WARM)?);
    let side = warm.varint()?;
    if side > SharedMemo::SIDE_CAP as u64 {
        return Err(FormatError::Oversized {
            declared: side,
            available: SharedMemo::SIDE_CAP as u64,
        });
    }
    let cells = warm.bytes((side * side) as usize)?;
    warm.finish()?;
    let memo = SharedMemo::from_warm_cells(side as u32, cells)
        .ok_or(FormatError::Malformed("warm memo cell out of range"))?;
    let skeleton = SpecScheme::build(kind, &graph);
    Ok((SpecContext::from_restored(skeleton, memo), graph))
}

impl SpecContext<SpecScheme> {
    /// Persists the spec-level state — the spec-labeling record (scheme
    /// kind + specification graph) and the dense [`SharedMemo`]
    /// warm-snapshot bytes — as one standalone container. A service that
    /// [`load`](Self::load)s it answers its first skeleton-delegated
    /// probes from the restored memo instead of re-running warm-up
    /// searches.
    pub fn save(&self, graph: &DiGraph) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_spec_context(&mut w, self, graph);
        w.finish()
    }

    /// Restores a [`save`](Self::save)d context (and the specification
    /// graph it was built over). The skeleton index is rebuilt
    /// deterministically from the stored graph, so answers are
    /// byte-identical to the saved instance; the warm memo is restored
    /// verbatim.
    pub fn load(bytes: &[u8]) -> Result<(Self, DiGraph), FormatError> {
        read_spec_context(&SnapshotReader::parse(bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // 48 bytes and up take the striped path
        let long = b"123456789".repeat(8);
        assert_eq!(crc32(&long), 0x8811_A440);
    }

    /// The serial kernel: the oracle the striped `crc32` must match.
    fn crc32_serial(bytes: &[u8]) -> u32 {
        !crc_update(!0, bytes)
    }

    /// Deterministic xorshift64 bytes.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn striped_crc32_matches_the_serial_kernel_at_every_short_length() {
        let bytes = noise(256, 0x9E37_79B9_7F4A_7C15);
        for len in 0..=256 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_serial(&bytes[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn striped_crc32_matches_the_serial_kernel_on_large_odd_offsets() {
        const MAX: usize = 2 << 20;
        let buf = noise(MAX + 64, 0x2545_F491_4F6C_DD1D);
        let mut state = 0x1234_5678_9ABC_DEF1u64;
        let mut lens: Vec<usize> = vec![MAX, MAX - 1, 48 * 1000 + 47];
        for _ in 0..6 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lens.push((state % MAX as u64) as usize);
        }
        for (i, len) in lens.into_iter().enumerate() {
            let offset = 2 * (i % 32) + 1;
            let slice = &buf[offset..offset + len];
            assert_eq!(
                crc32(slice),
                crc32_serial(slice),
                "{len} bytes at +{offset}"
            );
        }
    }

    #[test]
    fn x2n_table_has_period_32() {
        // x8n_mod_p reduces its table index mod 32; that is sound only if
        // squaring the last entry wraps around to x^1
        assert_eq!(mul_mod_p(X2N[31], X2N[31]), X2N[0]);
        // and the power moves a register past zero bytes
        let zeros = [0u8; 100];
        for c in [1u32, 0xDEAD_BEEF, !0] {
            assert_eq!(mul_mod_p(x8n_mod_p(100), c), crc_update(c, &zeros));
        }
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.varint().unwrap(), v);
            cur.finish().unwrap();
        }
        // non-canonical: 11 continuation bytes
        let mut cur = Cursor::new(&[0x80u8; 12]);
        assert!(cur.varint().is_err());
    }

    #[test]
    fn container_round_trips_and_validates() {
        let mut w = SnapshotWriter::new();
        w.push(7, vec![1, 2, 3]);
        w.push(9, Vec::new());
        w.push(7, vec![4, 5]);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.segments().len(), 3);
        assert_eq!(r.first(7).unwrap(), &[1, 2, 3]);
        assert_eq!(
            r.all(7).collect::<Vec<_>>(),
            vec![&[1u8, 2, 3][..], &[4, 5][..]]
        );
        assert_eq!(r.first(9).unwrap(), &[] as &[u8]);
        assert_eq!(
            r.first(8).unwrap_err(),
            FormatError::MissingSegment { kind: 8 }
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut w = SnapshotWriter::new();
        w.push(1, vec![0xAB; 37]);
        w.push(2, (0..64u8).collect());
        let bytes = w.finish();
        assert!(SnapshotReader::parse(&bytes).is_ok());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut fuzzed = bytes.clone();
                fuzzed[byte] ^= 1 << bit;
                assert!(
                    SnapshotReader::parse(&fuzzed).is_err(),
                    "flip at {byte}:{bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_errors_cleanly() {
        let mut w = SnapshotWriter::new();
        w.push(3, vec![9; 21]);
        let bytes = w.finish();
        for len in 0..bytes.len() {
            assert!(
                SnapshotReader::parse(&bytes[..len]).is_err(),
                "prefix of {len} bytes parsed"
            );
        }
        // appended garbage is trailing bytes
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(matches!(
            SnapshotReader::parse(&extra),
            Err(FormatError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let bytes = SnapshotWriter::new().finish();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SnapshotReader::parse(&bad_magic).unwrap_err(),
            FormatError::BadMagic
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFE;
        assert_eq!(
            SnapshotReader::parse(&bad_version).unwrap_err(),
            FormatError::UnsupportedVersion(0x00FE)
        );
        assert_eq!(
            SnapshotReader::parse(b"WF").unwrap_err(),
            FormatError::BadMagic
        );
    }

    #[test]
    fn oversized_counts_are_guarded() {
        // container level: a table claiming u32::MAX segments over 0 bytes
        let mut bytes = SnapshotWriter::new().finish();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotReader::parse(&bytes),
            Err(FormatError::Oversized { .. })
        ));
        // cursor level: guarded_count over a tiny remainder
        let mut payload = Vec::new();
        put_varint(&mut payload, 1 << 40);
        let mut cur = Cursor::new(&payload);
        assert!(matches!(
            cur.guarded_count(16),
            Err(FormatError::Oversized { .. })
        ));
    }

    #[test]
    fn errors_render_and_are_std_errors() {
        let e: Box<dyn std::error::Error> = Box::new(FormatError::ChecksumMismatch { kind: 3 });
        assert!(e.to_string().contains("CRC-32"));
        assert!(FormatError::BadMagic.to_string().contains("magic"));
        assert!(FormatError::Oversized {
            declared: 9,
            available: 1
        }
        .to_string()
        .contains("9"));
    }
}
