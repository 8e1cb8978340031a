//! Multi-spec serving: a [`ServiceRegistry`] of [`FleetEngine`]s keyed by
//! content-derived spec identity, with a lazy snapshot *directory* and
//! memory-pressure-driven eviction across fleets.
//!
//! A [`FleetEngine`] serves many runs of **one** specification; a
//! provenance service serves many specifications at once (the ROADMAP's
//! "heavy traffic from millions of users, many workflows"). The registry
//! is the layer between:
//!
//! * **identity** — a spec is addressed by [`SpecId`], the FNV-1a hash of
//!   its canonical spec-labeling record (scheme tag + series–parallel
//!   structure, [`snapshot::spec_record_payload`]). The id computed from an
//!   in-memory spec always agrees with one recomputed from a loaded
//!   snapshot, which is what makes manifest/file cross-validation possible;
//! * **routing** — [`answer_batch`](ServiceRegistry::answer_batch) takes
//!   probes tagged `(SpecId, RunId, u, v)`, shards them per fleet, and
//!   returns answers in input order, so mixed-spec traffic is one call;
//! * **persistence** — [`save_dir`](ServiceRegistry::save_dir) writes one
//!   `<specid>.wfps` container per spec plus a versioned, CRC-guarded
//!   `registry.manifest` index ([`write_manifest`]).
//!   [`open_dir`](ServiceRegistry::open_dir) reads *only* the manifest:
//!   each fleet is loaded lazily on its first probe;
//! * **pressure** — a configurable byte budget over the fleets'
//!   [`FleetStats`](crate::FleetStats) memory signal. When resident bytes exceed the budget,
//!   least-recently-used fleets are offloaded to their snapshot (memory or
//!   directory backed) and reload transparently on the next probe. A
//!   fleet packs every run as it registers or freezes it, so it serves,
//!   offloads and persists bit-packed: its reload reads about a third of
//!   the bytes raw label columns would take, binds zero-copy views and
//!   takes about a third of the budget. A fleet whose content changed since
//!   its snapshot was written is re-serialized on offload; an unchanged
//!   fleet writes nothing.
//!
//! Integrity has the same contract as the rest of the snapshot layer: a
//! truncated or bit-flipped manifest, a forged entry, or a `*.wfps` file
//! that does not hash to its manifest id is a typed error
//! ([`RegistryError`] / [`FormatError`]) — never a panic and never a
//! silently empty registry.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use wfp_graph::{DiGraph, FxHashMap, FxHashSet};
use wfp_model::{RunVertexId, Specification};
use wfp_speclabel::{SchemeKind, SpecScheme};

use crate::fleet::{FleetEngine, FleetError, RunId};
use crate::label::RunLabel;
use crate::live::LiveRun;
use crate::snapshot::{
    self, put_str, put_varint, seg, Cursor, FormatError, SnapshotReader, SnapshotWriter,
};

/// File name of the registry index inside a snapshot directory.
pub const MANIFEST_FILE: &str = "registry.manifest";

/// Version byte of the manifest payload layout (inside the container's
/// own versioned framing). Version 2 carries each entry's snapshot byte
/// size, so [`ServiceRegistry::open_dir`] can seed its budget accounting
/// before the first fault-in. It is the only version read; version 1,
/// which lacked the sizes, is retired.
pub const MANIFEST_VERSION: u8 = 2;

// ====================================================================
// Spec identity
// ====================================================================

/// Content-derived identity of a served specification: the 64-bit FNV-1a
/// hash of its canonical spec-labeling record (scheme tag + vertex count +
/// edge list, exactly the bytes [`snapshot::spec_record_payload`] writes
/// into every snapshot). Two registrations of the same structure under the
/// same scheme collide on purpose; the same structure under two schemes
/// are two distinct services.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecId(pub u64);

impl SpecId {
    /// The id of `graph` labeled under `kind`.
    pub fn of(kind: SchemeKind, graph: &DiGraph) -> SpecId {
        SpecId(fnv64(&snapshot::spec_record_payload(kind, graph)))
    }

    /// The default snapshot file name for this spec inside a directory:
    /// sixteen lowercase hex digits plus `.wfps`.
    pub fn file_name(self) -> String {
        format!("{self}.wfps")
    }
}

impl std::fmt::Display for SpecId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// 64-bit FNV-1a. Not cryptographic — like the CRCs below, ids detect
/// mix-ups and corruption, not adversaries with write access.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ====================================================================
// Errors
// ====================================================================

/// Failures of the multi-spec registry.
#[derive(Debug)]
pub enum RegistryError {
    /// The spec id was never registered (and is not in the manifest).
    UnknownSpec(SpecId),
    /// The spec id is already registered; a spec/scheme pair is one
    /// service.
    DuplicateSpec(SpecId),
    /// A fleet-level failure, tagged with the fleet's spec.
    Fleet {
        /// The spec whose fleet failed.
        spec: SpecId,
        /// The underlying fleet error.
        error: FleetError,
    },
    /// A snapshot or manifest failed to parse.
    Format(FormatError),
    /// A filesystem operation failed.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The OS error message.
        message: String,
    },
    /// The manifest (or the in-memory store) references a snapshot that
    /// does not exist.
    MissingSnapshot {
        /// The spec whose snapshot is missing.
        spec: SpecId,
        /// The file name the manifest promised.
        file: String,
    },
    /// A loaded `*.wfps` file does not hash to the spec id its manifest
    /// entry (or registration) claims — the directory was reshuffled or
    /// an entry was forged.
    SpecMismatch {
        /// The id the manifest entry claims.
        expected: SpecId,
        /// The id recomputed from the loaded snapshot's content.
        loaded: SpecId,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownSpec(id) => write!(f, "spec {id} is not registered"),
            RegistryError::DuplicateSpec(id) => {
                write!(f, "spec {id} is already registered")
            }
            RegistryError::Fleet { spec, error } => write!(f, "spec {spec}: {error}"),
            RegistryError::Format(e) => write!(f, "snapshot format: {e}"),
            RegistryError::Io { path, message } => {
                write!(f, "i/o on {}: {message}", path.display())
            }
            RegistryError::MissingSnapshot { spec, file } => {
                write!(f, "spec {spec}: snapshot {file} is missing")
            }
            RegistryError::SpecMismatch { expected, loaded } => write!(
                f,
                "snapshot content hashes to spec {loaded}, but the manifest claims {expected}"
            ),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Fleet { error, .. } => Some(error),
            RegistryError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for RegistryError {
    fn from(e: FormatError) -> Self {
        RegistryError::Format(e)
    }
}

// ====================================================================
// Manifest
// ====================================================================

/// One line of the registry manifest: a served spec and the snapshot file
/// that backs it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Content-derived spec identity ([`SpecId::of`]).
    pub id: SpecId,
    /// The skeleton scheme the fleet was built under.
    pub kind: SchemeKind,
    /// Snapshot file name, relative to the directory. Restricted to
    /// `[A-Za-z0-9._-]` with a mandatory `.wfps` suffix and no `..`, so a
    /// forged manifest cannot point outside its directory.
    pub file: String,
    /// Runs the fleet held when the manifest was written (informational —
    /// the snapshot itself is authoritative).
    pub runs: usize,
    /// Size of the snapshot file in bytes when the manifest was written.
    /// Seeds the registry's pre-load budget estimate and is reconciled
    /// against actual resident bytes on the first fault-in.
    pub bytes: usize,
}

/// Serializes manifest entries as a standalone snapshot container holding
/// one [`seg::REGISTRY_MANIFEST`] segment — so the manifest inherits the
/// container's magic, version and CRC guards.
pub fn write_manifest(entries: &[ManifestEntry]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(MANIFEST_VERSION);
    put_varint(&mut payload, entries.len() as u64);
    for e in entries {
        payload.extend_from_slice(&e.id.0.to_le_bytes());
        payload.push(snapshot::scheme_tag(e.kind));
        put_str(&mut payload, &e.file);
        put_varint(&mut payload, e.runs as u64);
        put_varint(&mut payload, e.bytes as u64);
    }
    let mut w = SnapshotWriter::new();
    w.push(seg::REGISTRY_MANIFEST, payload);
    w.finish()
}

/// Parses and validates a [`write_manifest`] container: version and CRC
/// checks from the container framing, then per-entry validation (known
/// scheme tag, safe file name, no duplicate ids). Every failure is a typed
/// [`FormatError`].
pub fn read_manifest(bytes: &[u8]) -> Result<Vec<ManifestEntry>, FormatError> {
    let r = SnapshotReader::parse(bytes)?;
    let mut cur = Cursor::new(r.first(seg::REGISTRY_MANIFEST)?);
    let version = cur.u8()?;
    if version != MANIFEST_VERSION {
        return Err(FormatError::UnsupportedVersion(version as u16));
    }
    // each entry costs at least 8 (id) + 1 (tag) + 2 (min file) + 1 (runs)
    let count = cur.guarded_count(12)?;
    let mut entries = Vec::with_capacity(count);
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    for _ in 0..count {
        let id = SpecId(cur.u64()?);
        let kind = snapshot::scheme_from_tag(cur.u8()?)?;
        let file = cur.str()?;
        validate_file_name(file)?;
        let runs = cur.varint()?;
        if runs > u32::MAX as u64 {
            return Err(FormatError::Malformed("manifest run count exceeds u32"));
        }
        let bytes = cur.varint()?;
        if !seen.insert(id.0) {
            return Err(FormatError::Malformed("duplicate spec id in manifest"));
        }
        entries.push(ManifestEntry {
            id,
            kind,
            file: file.to_string(),
            runs: runs as usize,
            bytes: bytes as usize,
        });
    }
    cur.finish()?;
    Ok(entries)
}

/// A manifest file name must stay inside its directory and must not
/// collide with the manifest itself: `[A-Za-z0-9._-]+` only (no path
/// separators), no `..`, and a mandatory `.wfps` suffix.
fn validate_file_name(file: &str) -> Result<(), FormatError> {
    let safe = |c: char| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.');
    if file.is_empty() || !file.chars().all(safe) {
        return Err(FormatError::Malformed("unsafe manifest file name"));
    }
    if file.contains("..") {
        return Err(FormatError::Malformed(
            "manifest file name escapes directory",
        ));
    }
    if !file.ends_with(".wfps") || file.len() == ".wfps".len() {
        return Err(FormatError::Malformed("manifest file name is not *.wfps"));
    }
    Ok(())
}

// ====================================================================
// Snapshot file I/O
// ====================================================================

/// Reads a whole file into one shared buffer, sized from its metadata
/// and filled in place: one allocation and one copy, where
/// `Arc::from(fs::read(..))` makes two of each. A file that changes
/// length while it is read is an error, never a short or silently
/// extended buffer.
fn read_shared(path: &Path) -> std::io::Result<Arc<[u8]>> {
    use std::io::{Error, ErrorKind, Read};
    let mut file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| Error::new(ErrorKind::InvalidData, "file exceeds the address space"))?;
    let mut bytes: Arc<[u8]> = std::iter::repeat(0).take(len).collect();
    file.read_exact(Arc::get_mut(&mut bytes).expect("a fresh Arc is unshared"))?;
    if file.read(&mut [0])? != 0 {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "file grew while it was read",
        ));
    }
    Ok(bytes)
}

/// `fs::write` with the failure reported as a [`RegistryError::Io`].
fn write_file(path: &Path, bytes: &[u8]) -> Result<(), RegistryError> {
    std::fs::write(path, bytes).map_err(|e| RegistryError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

// ====================================================================
// The registry
// ====================================================================

/// Where offloaded fleets park their snapshot bytes.
enum Store {
    /// In-process: eviction keeps the (compact) snapshot in a shared
    /// buffer — the same `Arc` the zero-copy fault-in binds to, so an
    /// evict→reload cycle of an unmodified fleet is a pointer rebind.
    /// The default for registries built with [`ServiceRegistry::new`].
    Memory(FxHashMap<u64, Arc<[u8]>>),
    /// A snapshot directory ([`ServiceRegistry::open_dir`]): eviction
    /// writes the fleet's `*.wfps` back and reload reads it.
    Dir(PathBuf),
}

/// Residency state of one registered spec.
enum State<'s> {
    /// The fleet is in memory and serving.
    Resident {
        fleet: FleetEngine<'s, SpecScheme>,
        graph: DiGraph,
    },
    /// The fleet lives only as snapshot bytes in the backing store; the
    /// next probe reloads it transparently.
    Offloaded,
}

struct Slot<'s> {
    id: SpecId,
    kind: SchemeKind,
    file: String,
    /// Cached run count (kept in sync on every mutation / offload), so
    /// offloaded specs still report their size without a load.
    runs: usize,
    /// Estimated resident bytes of this fleet while offloaded: seeded
    /// from the manifest's snapshot size ([`ManifestEntry::bytes`]) and
    /// reconciled to the fleet's actual resident footprint on every
    /// load/offload — pre-load budget pressure evicts on this number.
    est_bytes: usize,
    /// Whether the resident fleet's *content* (runs, slot states) has
    /// diverged from the snapshot in the backing store. A clean fleet
    /// offloads without re-serializing; decision counters are carried
    /// across separately (`saved_counters`), so probing stays clean. A
    /// dirty fleet is re-serialized on offload
    /// ([`ServiceRegistry::offload`]), in the packed form every run this
    /// registry registers or freezes is born in.
    dirty: bool,
    /// Per-slot decision counters captured at a clean offload, re-applied
    /// on the next load so counter continuity survives the skipped
    /// serialization.
    saved_counters: Option<Vec<(u64, u64)>>,
    /// The exact buffer a previous fault-in fully validated. When the
    /// next fetch returns this *identical* `Arc` (memory store, clean
    /// cycle), the reload may skip the per-payload CRC pass — rebind, not
    /// re-read. Directory stores never set it: a file can change
    /// underneath us, so it is always re-read and re-checked.
    validated: Option<Arc<[u8]>>,
    /// Logical LRU stamp: higher = more recently used.
    last_used: u64,
    state: State<'s>,
}

/// Aggregate registry accounting. See [`ServiceRegistry::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RegistryStats {
    /// Registered specs (resident + offloaded).
    pub specs: usize,
    /// Specs currently resident in memory.
    pub resident: usize,
    /// Specs currently offloaded to their snapshot.
    pub offloaded: usize,
    /// Bytes held by resident fleets (spec context + run columns, the
    /// [`FleetStats`](crate::FleetStats) memory signal summed across fleets).
    pub resident_bytes: usize,
    /// The configured byte budget, if any.
    pub budget: Option<usize>,
    /// Lifetime offloads (pressure-driven and explicit).
    pub evictions: u64,
    /// Lifetime lazy reloads from the backing snapshot.
    pub lazy_loads: u64,
    /// Lifetime lazy reloads that bound packed runs **zero-copy** to the
    /// shared snapshot buffer (no per-word decode). Every frozen run loads
    /// that way, so this counts every reload of a fleet holding at least
    /// one frozen run — a subset of [`lazy_loads`](Self::lazy_loads).
    pub zero_copy_loads: u64,
    /// Lifetime snapshot bytes read (or rebound) by lazy reloads.
    pub reload_bytes: u64,
    /// Lifetime wall-clock milliseconds spent inside lazy reloads
    /// (parse + bind/decode), so benches can attribute reload cost.
    pub decode_ms: f64,
    /// Frozen runs currently serving in bit-packed form, summed over the
    /// resident fleets. A fleet holds every frozen run packed, so this
    /// counts them all.
    pub packed_runs: usize,
    /// Packed runs served out of a [`crate::PackedColumnsView`], summed
    /// over the resident fleets. Every packed run is one, so this always
    /// equals [`packed_runs`](Self::packed_runs); it stays for callers
    /// that read it.
    pub zero_copy_runs: usize,
}

/// A registry of [`FleetEngine`]s keyed by [`SpecId`] — the multi-spec
/// serving layer. See the [module docs](self).
///
/// The lifetime `'s` bounds the specifications borrowed by in-flight
/// [`LiveRun`]s ([`begin_live`](Self::begin_live)); a registry with no
/// live runs can use any lifetime.
pub struct ServiceRegistry<'s> {
    slots: Vec<Slot<'s>>,
    by_id: FxHashMap<u64, usize>,
    store: Store,
    budget: Option<usize>,
    clock: u64,
    evictions: u64,
    lazy_loads: u64,
    zero_copy_loads: u64,
    reload_bytes: u64,
    decode_ms: f64,
}

impl Default for ServiceRegistry<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'s> ServiceRegistry<'s> {
    /// An empty, memory-backed registry with no byte budget.
    pub fn new() -> Self {
        ServiceRegistry {
            slots: Vec::new(),
            by_id: FxHashMap::default(),
            store: Store::Memory(FxHashMap::default()),
            budget: None,
            clock: 0,
            evictions: 0,
            lazy_loads: 0,
            zero_copy_loads: 0,
            reload_bytes: 0,
            decode_ms: 0.0,
        }
    }

    /// An empty, memory-backed registry holding at most `budget` resident
    /// bytes across all fleets.
    pub fn with_budget(budget: usize) -> Self {
        let mut r = Self::new();
        r.budget = Some(budget);
        r
    }

    /// Opens a snapshot directory written by [`save_dir`](Self::save_dir):
    /// reads **only** the `registry.manifest` index, verifies every
    /// referenced `*.wfps` file exists, and registers each spec as
    /// offloaded — the fleet itself is loaded lazily on its first probe.
    pub fn open_dir(dir: impl Into<PathBuf>, budget: Option<usize>) -> Result<Self, RegistryError> {
        Self::open_dir_filtered(dir, budget, |_| true)
    }

    /// Opens a snapshot directory like [`open_dir`](Self::open_dir), but
    /// registers **only** the manifest entries selected by `keep` — the
    /// shard-construction path for sharded serving: each worker opens the
    /// same directory with `keep = |id| plan.shard_of(id, shards) == shard`
    /// (and its own slice of the byte budget), so every spec is resident
    /// on exactly one shard and the shards never contend for the same
    /// snapshot bytes. Entries filtered out are not verified on disk and
    /// cost nothing.
    pub fn open_dir_filtered(
        dir: impl Into<PathBuf>,
        budget: Option<usize>,
        mut keep: impl FnMut(SpecId) -> bool,
    ) -> Result<Self, RegistryError> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&manifest_path).map_err(|e| RegistryError::Io {
            path: manifest_path.clone(),
            message: e.to_string(),
        })?;
        let entries = read_manifest(&bytes)?;
        let mut slots = Vec::with_capacity(entries.len());
        let mut by_id = FxHashMap::default();
        for e in entries.into_iter().filter(|e| keep(e.id)) {
            if !dir.join(&e.file).is_file() {
                return Err(RegistryError::MissingSnapshot {
                    spec: e.id,
                    file: e.file,
                });
            }
            by_id.insert(e.id.0, slots.len());
            slots.push(Slot {
                id: e.id,
                kind: e.kind,
                file: e.file,
                runs: e.runs,
                // seed the budget estimate from the manifest's snapshot
                // size; the first fault-in reconciles it to the fleet's
                // actual resident footprint
                est_bytes: e.bytes,
                dirty: false,
                saved_counters: None,
                validated: None,
                last_used: 0,
                state: State::Offloaded,
            });
        }
        Ok(ServiceRegistry {
            slots,
            by_id,
            store: Store::Dir(dir),
            budget,
            clock: 0,
            evictions: 0,
            lazy_loads: 0,
            zero_copy_loads: 0,
            reload_bytes: 0,
            decode_ms: 0.0,
        })
    }

    // ---------------- registration & lookup ----------------

    /// Registers `spec` for serving under scheme `kind`, returning its
    /// content-derived [`SpecId`]. The new fleet starts resident and
    /// empty. Errors with [`RegistryError::DuplicateSpec`] if the same
    /// structure is already served under the same scheme.
    pub fn register_spec(
        &mut self,
        spec: &Specification,
        kind: SchemeKind,
    ) -> Result<SpecId, RegistryError> {
        let id = SpecId::of(kind, spec.graph());
        if self.by_id.contains_key(&id.0) {
            return Err(RegistryError::DuplicateSpec(id));
        }
        let fleet = FleetEngine::for_spec(spec, SpecScheme::build(kind, spec.graph()));
        let idx = self.slots.len();
        self.by_id.insert(id.0, idx);
        self.clock += 1;
        self.slots.push(Slot {
            id,
            kind,
            file: id.file_name(),
            runs: 0,
            est_bytes: 0,
            // nothing in the backing store describes this fleet yet
            dirty: true,
            saved_counters: None,
            validated: None,
            last_used: self.clock,
            state: State::Resident {
                fleet,
                graph: spec.graph().clone(),
            },
        });
        self.enforce_budget(Some(idx))?;
        Ok(id)
    }

    /// Number of registered specs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no spec is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True if `spec` is registered (resident or offloaded).
    pub fn contains(&self, spec: SpecId) -> bool {
        self.by_id.contains_key(&spec.0)
    }

    /// Registered spec ids, in registration (manifest) order.
    pub fn spec_ids(&self) -> impl Iterator<Item = SpecId> + '_ {
        self.slots.iter().map(|s| s.id)
    }

    /// The scheme `spec` is served under.
    pub fn scheme(&self, spec: SpecId) -> Option<SchemeKind> {
        self.by_id.get(&spec.0).map(|&i| self.slots[i].kind)
    }

    /// True if `spec` is currently resident in memory.
    pub fn resident(&self, spec: SpecId) -> bool {
        self.by_id
            .get(&spec.0)
            .is_some_and(|&i| matches!(self.slots[i].state, State::Resident { .. }))
    }

    /// Runs registered under `spec` (cached across offload, so this never
    /// forces a load).
    pub fn run_count(&self, spec: SpecId) -> Result<usize, RegistryError> {
        let idx = self.index_of(spec)?;
        Ok(match &self.slots[idx].state {
            State::Resident { fleet, .. } => fleet.run_count(),
            State::Offloaded => self.slots[idx].runs,
        })
    }

    /// The resident fleet for `spec`, if it is resident *now*. Never
    /// forces a load — use [`ensure_resident`](Self::ensure_resident)
    /// first to probe through this accessor.
    pub fn fleet(&self, spec: SpecId) -> Option<&FleetEngine<'s, SpecScheme>> {
        match &self.slots[*self.by_id.get(&spec.0)?].state {
            State::Resident { fleet, .. } => Some(fleet),
            State::Offloaded => None,
        }
    }

    // ---------------- run lifecycle, routed by spec ----------------

    /// Registers a frozen run (its offline labels) under `spec`,
    /// reloading the fleet first if it was offloaded. The fleet stores the
    /// run bit-packed from the start ([`FleetEngine::register_labels`]), so
    /// it serves, offloads and persists as
    /// [`PACKED_COLUMNS_ALIGNED`](snapshot::seg::PACKED_COLUMNS_ALIGNED)
    /// and the budget counts its packed size.
    pub fn register_labels(
        &mut self,
        spec: SpecId,
        labels: &[RunLabel],
    ) -> Result<RunId, RegistryError> {
        let idx = self.index_of(spec)?;
        self.touch(idx)?;
        let (run, count) = {
            let (fleet, _) = self.resident_mut(idx);
            (fleet.register_labels(labels), fleet.run_count())
        };
        self.slots[idx].runs = count;
        self.slots[idx].dirty = true;
        self.enforce_budget(Some(idx))?;
        Ok(run)
    }

    /// Starts a live (query-while-running) run under `spec`. The borrowed
    /// `spec_ref` must be the same structure the id was registered for —
    /// this is checked by content hash, so a mixed-up specification is a
    /// typed [`RegistryError::SpecMismatch`], not silent mislabeling.
    pub fn begin_live(
        &mut self,
        spec: SpecId,
        spec_ref: &'s Specification,
    ) -> Result<RunId, RegistryError> {
        let idx = self.index_of(spec)?;
        let offered = SpecId::of(self.slots[idx].kind, spec_ref.graph());
        if offered != spec {
            return Err(RegistryError::SpecMismatch {
                expected: spec,
                loaded: offered,
            });
        }
        self.touch(idx)?;
        let (run, count) = {
            let (fleet, _) = self.resident_mut(idx);
            (fleet.begin_live(spec_ref), fleet.run_count())
        };
        self.slots[idx].runs = count;
        self.slots[idx].dirty = true;
        Ok(run)
    }

    /// The in-flight labeler of a live run (to feed execution events).
    /// The fleet is pinned resident while live runs exist — eviction
    /// refuses in-flight state — so this never triggers a load.
    pub fn live_mut(
        &mut self,
        spec: SpecId,
        run: RunId,
    ) -> Result<&mut LiveRun<'s, SpecScheme>, RegistryError> {
        let idx = self.index_of(spec)?;
        self.clock += 1;
        self.slots[idx].last_used = self.clock;
        let (fleet, _) = self.resident_or_err(idx, run)?;
        fleet
            .live_mut(run)
            .map_err(|error| RegistryError::Fleet { spec, error })
    }

    /// Freezes a completed live run in place (same [`RunId`], labels
    /// extracted in execution order), which the fleet packs like
    /// [`register_labels`](Self::register_labels)' runs, decision counters
    /// included ([`FleetEngine::freeze_run`]). A failed freeze leaves the
    /// run live.
    pub fn freeze_run(&mut self, spec: SpecId, run: RunId) -> Result<(), RegistryError> {
        let idx = self.index_of(spec)?;
        let (fleet, _) = self.resident_or_err(idx, run)?;
        fleet
            .freeze_run(run)
            .map_err(|error| RegistryError::Fleet { spec, error })?;
        self.slots[idx].dirty = true;
        Ok(())
    }

    // ---------------- probes ----------------

    /// One reachability probe: does vertex `u` reach `v` in run `run` of
    /// `spec`? Reloads the fleet lazily if it was offloaded.
    pub fn answer(
        &mut self,
        spec: SpecId,
        run: RunId,
        u: RunVertexId,
        v: RunVertexId,
    ) -> Result<bool, RegistryError> {
        let idx = self.index_of(spec)?;
        self.touch(idx)?;
        let answer = {
            let (fleet, _) = self.resident_mut(idx);
            fleet
                .answer(run, u, v)
                .map_err(|error| RegistryError::Fleet { spec, error })
        };
        // the budget is re-enforced even when the probe itself failed: the
        // lazy load above may have pushed residency over budget, and a
        // caller retrying bad probes must not pin the overshoot
        self.enforce_budget(Some(idx))?;
        answer
    }

    /// Mixed-spec batch evaluation: probes are `(spec, run, u, v)` and may
    /// interleave specs freely. Internally the batch is sharded per fleet
    /// (in first-occurrence order) and each shard flows through that
    /// fleet's run-sharded kernel; answers return **in input order**
    /// regardless of sharding. Offloaded fleets are lazily reloaded as
    /// their first probe arrives, and the byte budget is re-enforced after
    /// each fleet's shard (the fleet currently answering is never its own
    /// victim).
    ///
    /// Any unknown spec id, unknown run id, or out-of-range vertex fails
    /// the batch as a whole.
    pub fn answer_batch(
        &mut self,
        probes: &[(SpecId, RunId, RunVertexId, RunVertexId)],
    ) -> Result<Vec<bool>, RegistryError> {
        // resolve every spec id up front: a batch with one bad id is
        // rejected before any work
        // per-fleet shard: the sub-batch plus each probe's input position
        type Shard = (Vec<(RunId, RunVertexId, RunVertexId)>, Vec<usize>);
        let mut order: Vec<usize> = Vec::new();
        let mut shards: FxHashMap<usize, Shard> = FxHashMap::default();
        for (pos, &(spec, run, u, v)) in probes.iter().enumerate() {
            let idx = self.index_of(spec)?;
            let (sub, positions) = shards.entry(idx).or_insert_with(|| {
                order.push(idx);
                (Vec::new(), Vec::new())
            });
            sub.push((run, u, v));
            positions.push(pos);
        }
        let mut out = vec![false; probes.len()];
        for idx in order {
            let (sub, positions) = shards.remove(&idx).expect("sharded above");
            self.touch(idx)?;
            let spec = self.slots[idx].id;
            let answers = {
                let (fleet, _) = self.resident_mut(idx);
                fleet
                    .answer_batch(&sub)
                    .map_err(|error| RegistryError::Fleet { spec, error })
            };
            // enforce the budget before propagating a shard failure, so a
            // mid-batch error never leaves the lazily-loaded fleet pinned
            // over budget (see `answer`)
            self.enforce_budget(Some(idx))?;
            for (pos, a) in positions.into_iter().zip(answers?) {
                out[pos] = a;
            }
        }
        Ok(out)
    }

    /// Forces `spec` resident (the lazy load a first probe would do),
    /// then re-enforces the budget against the *other* fleets.
    pub fn ensure_resident(&mut self, spec: SpecId) -> Result<(), RegistryError> {
        let idx = self.index_of(spec)?;
        self.touch(idx)?;
        self.enforce_budget(Some(idx))
    }

    // ---------------- eviction & budget ----------------

    /// The configured byte budget.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Reconfigures the byte budget and immediately enforces it (so
    /// shrinking the budget offloads least-recently-used fleets now).
    pub fn set_budget(&mut self, budget: Option<usize>) -> Result<(), RegistryError> {
        self.budget = budget;
        self.enforce_budget(None)
    }

    /// The number of runs of `spec` left to pack: always 0, since a fleet
    /// packs every run as it registers, freezes or loads it. It stays only
    /// because perfbench's `batch-mixed` set-up still calls it; an unknown
    /// `spec` is [`RegistryError::UnknownSpec`].
    pub fn seal_packed(&self, spec: SpecId) -> Result<usize, RegistryError> {
        self.index_of(spec)?;
        Ok(0)
    }

    /// Bytes currently held by resident fleets (the [`FleetStats`] spec +
    /// run memory signal, summed).
    ///
    /// [`FleetStats`]: crate::fleet::FleetStats
    pub fn resident_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| match &s.state {
                State::Resident { fleet, .. } => {
                    let st = fleet.stats();
                    st.spec_bytes + st.run_bytes
                }
                State::Offloaded => 0,
            })
            .sum()
    }

    /// Explicitly offloads `spec` to its snapshot (memory store or
    /// directory). A fleet with in-flight live runs refuses with
    /// [`FleetError::StillLive`] and keeps its resident form; an
    /// already-offloaded spec is a no-op. A fleet changed since its
    /// snapshot was written is re-serialized in the packed form it holds
    /// its runs in, so its next probe faults it in zero-copy; an unchanged
    /// fleet writes nothing.
    pub fn evict(&mut self, spec: SpecId) -> Result<(), RegistryError> {
        let idx = self.index_of(spec)?;
        self.offload(idx)
    }

    /// Aggregate accounting across the registry.
    pub fn stats(&self) -> RegistryStats {
        let resident = self
            .slots
            .iter()
            .filter(|s| matches!(s.state, State::Resident { .. }))
            .count();
        let (packed_runs, zero_copy_runs) = self
            .slots
            .iter()
            .map(|s| match &s.state {
                State::Resident { fleet, .. } => {
                    let st = fleet.stats();
                    (st.packed, st.zero_copy)
                }
                State::Offloaded => (0, 0),
            })
            .fold((0, 0), |(p, z), (dp, dz)| (p + dp, z + dz));
        RegistryStats {
            specs: self.slots.len(),
            resident,
            offloaded: self.slots.len() - resident,
            resident_bytes: self.resident_bytes(),
            budget: self.budget,
            evictions: self.evictions,
            lazy_loads: self.lazy_loads,
            packed_runs,
            zero_copy_loads: self.zero_copy_loads,
            reload_bytes: self.reload_bytes,
            decode_ms: self.decode_ms,
            zero_copy_runs,
        }
    }

    // ---------------- persistence ----------------

    /// Writes the whole registry as a snapshot directory: one `*.wfps`
    /// container per spec (resident fleets are serialized; offloaded
    /// fleets are copied from their backing snapshot) plus the
    /// [`MANIFEST_FILE`] index. Fails with [`FleetError::StillLive`] if
    /// any resident fleet has an in-flight run.
    pub fn save_dir(&self, dir: &Path) -> Result<(), RegistryError> {
        std::fs::create_dir_all(dir).map_err(|e| RegistryError::Io {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        let mut entries = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let path = dir.join(&slot.file);
            let (bytes, runs) = match &slot.state {
                State::Resident { fleet, graph } => {
                    let bytes = fleet.save(graph).map_err(|error| RegistryError::Fleet {
                        spec: slot.id,
                        error,
                    })?;
                    write_file(&path, &bytes)?;
                    (bytes.len(), fleet.run_count())
                }
                State::Offloaded => {
                    let bytes = self.fetch(slot)?;
                    write_file(&path, &bytes)?;
                    (bytes.len(), slot.runs)
                }
            };
            entries.push(ManifestEntry {
                id: slot.id,
                kind: slot.kind,
                file: slot.file.clone(),
                runs,
                bytes,
            });
        }
        write_file(&dir.join(MANIFEST_FILE), &write_manifest(&entries))
    }

    // ---------------- internals ----------------

    fn index_of(&self, spec: SpecId) -> Result<usize, RegistryError> {
        self.by_id
            .get(&spec.0)
            .copied()
            .ok_or(RegistryError::UnknownSpec(spec))
    }

    /// The resident fleet at `idx`; panics if it is not resident — callers
    /// go through [`touch`](Self::touch) first, which establishes the
    /// invariant.
    fn resident_mut(&mut self, idx: usize) -> (&mut FleetEngine<'s, SpecScheme>, &DiGraph) {
        match &mut self.slots[idx].state {
            State::Resident { fleet, graph } => (fleet, graph),
            State::Offloaded => unreachable!("touched slot must be resident"),
        }
    }

    /// Like [`resident_mut`](Self::resident_mut) for operations on live
    /// runs, which must not trigger a load (an offloaded fleet cannot hold
    /// live state, so the run id is reported as not-live).
    fn resident_or_err(
        &mut self,
        idx: usize,
        run: RunId,
    ) -> Result<(&mut FleetEngine<'s, SpecScheme>, &DiGraph), RegistryError> {
        let spec = self.slots[idx].id;
        match &mut self.slots[idx].state {
            State::Resident { fleet, graph } => Ok((fleet, graph)),
            State::Offloaded => Err(RegistryError::Fleet {
                spec,
                error: FleetError::NotLive(run),
            }),
        }
    }

    /// Stamps `idx` most-recently-used and makes it resident, lazily
    /// loading (and cross-validating) its snapshot if it was offloaded.
    ///
    /// A fault-in runs fetch → checksum → bind and identity checks →
    /// reserve → install, so every check runs before anyone is evicted: a
    /// torn, grown, bit-flipped, forged or swapped snapshot fails with a
    /// typed error and costs no healthy fleet its residency. The LRU stamp
    /// lands only once the slot is resident, so a failed lazy load does
    /// not reshuffle the recency order the next eviction decision reads.
    fn touch(&mut self, idx: usize) -> Result<(), RegistryError> {
        if matches!(self.slots[idx].state, State::Resident { .. }) {
            self.clock += 1;
            self.slots[idx].last_used = self.clock;
            return Ok(());
        }
        let bytes = self.fetch(&self.slots[idx])?;
        // pointer identity with a buffer this registry fully validated
        // earlier attests the content unchanged, so the reload may skip
        // the per-payload checksum pass and just rebind
        let trusted = self.slots[idx]
            .validated
            .as_ref()
            .is_some_and(|v| Arc::ptr_eq(v, &bytes));
        let started = Instant::now();
        let reader = if trusted {
            SnapshotReader::parse_trusted(&bytes)?
        } else {
            SnapshotReader::parse(&bytes)?
        };
        let (fleet, graph, profile) = FleetEngine::read_snapshot(&reader, &bytes)?;
        let elapsed = started.elapsed();
        let loaded = SpecId::of(fleet.context().skeleton().kind(), &graph);
        let slot = &self.slots[idx];
        if loaded != slot.id {
            return Err(RegistryError::SpecMismatch {
                expected: slot.id,
                loaded,
            });
        }
        if fleet.context().skeleton().kind() != slot.kind {
            // reachable only via a forged manifest: the id hashes the
            // snapshot's own tag, so id can match while the manifest lies
            // about the scheme
            return Err(RegistryError::Format(FormatError::Malformed(
                "manifest scheme tag does not match snapshot",
            )));
        }
        // with every check passed, make room before the fleet is
        // installed, pricing it at its size estimate (manifest-seeded,
        // reconciled on every load/offload): the LRU byte math must see
        // the incoming fleet, not discover it afterwards
        self.reserve(idx)?;
        let slot = &mut self.slots[idx];
        if let Some(saved) = slot.saved_counters.take() {
            fleet.restore_counters(&saved);
        }
        slot.runs = fleet.run_count();
        let st = fleet.stats();
        slot.est_bytes = st.spec_bytes + st.run_bytes;
        slot.state = State::Resident { fleet, graph };
        // only the memory store hands the same buffer back; a directory
        // fetch is always a fresh read, so retaining its bytes would only
        // pin a second copy of every decoded fleet
        if let Store::Memory(_) = self.store {
            slot.validated = Some(bytes);
        }
        slot.dirty = false;
        self.lazy_loads += 1;
        self.reload_bytes += profile.bytes as u64;
        self.decode_ms += elapsed.as_secs_f64() * 1e3;
        if profile.zero_copy_runs > 0 {
            self.zero_copy_loads += 1;
        }
        self.clock += 1;
        self.slots[idx].last_used = self.clock;
        Ok(())
    }

    /// Reads `slot`'s snapshot bytes from the backing store. The memory
    /// store hands out its shared buffer (preserving pointer identity for
    /// the trusted-rebind check in [`touch`](Self::touch)); the directory
    /// store reads the file straight into a fresh shared allocation
    /// ([`read_shared`]).
    fn fetch(&self, slot: &Slot<'s>) -> Result<Arc<[u8]>, RegistryError> {
        match &self.store {
            Store::Memory(map) => {
                map.get(&slot.id.0)
                    .cloned()
                    .ok_or_else(|| RegistryError::MissingSnapshot {
                        spec: slot.id,
                        file: slot.file.clone(),
                    })
            }
            Store::Dir(dir) => {
                let path = dir.join(&slot.file);
                read_shared(&path).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::NotFound {
                        RegistryError::MissingSnapshot {
                            spec: slot.id,
                            file: slot.file.clone(),
                        }
                    } else {
                        RegistryError::Io {
                            path,
                            message: e.to_string(),
                        }
                    }
                })
            }
        }
    }

    /// Snapshots the fleet at `idx` into the backing store and drops it
    /// from memory. No-op if already offloaded.
    ///
    /// A *clean* fleet (`dirty == false`: content still matches its stored
    /// snapshot) skips serialization entirely — only its probe counters
    /// are carried across in `saved_counters`, and the later fault-in is a
    /// checksum (or, for the memory store, a pointer-identity rebind) of
    /// the bytes already in the store.
    ///
    /// A *dirty* fleet is re-serialized. A fleet holds every frozen run
    /// packed, so the stored snapshot holds only
    /// [`PACKED_COLUMNS_ALIGNED`](snapshot::seg::PACKED_COLUMNS_ALIGNED)
    /// runs: the next fault-in reads and checksums about a third of the
    /// bytes raw label columns would take and binds views over the load
    /// buffer instead of decoding columns, and `est_bytes` budgets that
    /// packed size. A fleet with a live run is refused with
    /// [`FleetError::StillLive`]; a failed directory write leaves the fleet
    /// resident and dirty.
    fn offload(&mut self, idx: usize) -> Result<(), RegistryError> {
        let spec = self.slots[idx].id;
        if matches!(self.slots[idx].state, State::Offloaded) {
            return Ok(());
        }
        if !self.slots[idx].dirty {
            let slot = &mut self.slots[idx];
            let State::Resident { fleet, .. } = &slot.state else {
                unreachable!("checked resident above");
            };
            let st = fleet.stats();
            slot.saved_counters = Some(fleet.slot_counters());
            slot.runs = fleet.run_count();
            slot.est_bytes = st.spec_bytes + st.run_bytes;
            slot.state = State::Offloaded;
            self.evictions += 1;
            return Ok(());
        }
        let (bytes, runs, est) = {
            let State::Resident { fleet, graph } = &self.slots[idx].state else {
                unreachable!("checked resident above");
            };
            let st = fleet.stats();
            let bytes = fleet
                .save(graph)
                .map_err(|error| RegistryError::Fleet { spec, error })?;
            (bytes, fleet.run_count(), st.spec_bytes + st.run_bytes)
        };
        match &mut self.store {
            Store::Memory(map) => {
                let bytes: Arc<[u8]> = Arc::from(bytes);
                map.insert(spec.0, Arc::clone(&bytes));
                // our own serialization just went in: the next fault-in of
                // this exact buffer may skip the per-payload checksum pass
                self.slots[idx].validated = Some(bytes);
            }
            Store::Dir(dir) => write_file(&dir.join(&self.slots[idx].file), &bytes)?,
        }
        let slot = &mut self.slots[idx];
        slot.runs = runs;
        slot.est_bytes = est;
        slot.dirty = false;
        slot.saved_counters = None;
        slot.state = State::Offloaded;
        self.evictions += 1;
        Ok(())
    }

    /// While resident bytes exceed the budget, offload the
    /// least-recently-used evictable fleet. `keep` (the fleet answering
    /// the current probe) and fleets with live runs are never victims; if
    /// only those remain, the registry stays over budget rather than
    /// failing — pressure is best-effort, correctness is not.
    fn enforce_budget(&mut self, keep: Option<usize>) -> Result<(), RegistryError> {
        self.pressure(keep, 0)
    }

    /// Makes room for the offloaded fleet at `idx` *before* it faults in:
    /// budget pressure is applied against the slot's size estimate so the
    /// eviction decision happens on the corrected byte math, not after the
    /// load has already overshot.
    fn reserve(&mut self, idx: usize) -> Result<(), RegistryError> {
        let extra = self.slots[idx].est_bytes;
        self.pressure(Some(idx), extra)
    }

    /// [`enforce_budget`](Self::enforce_budget) generalized over `extra`
    /// incoming bytes that are not resident yet (see
    /// [`reserve`](Self::reserve)).
    fn pressure(&mut self, keep: Option<usize>, extra: usize) -> Result<(), RegistryError> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        loop {
            if self.resident_bytes().saturating_add(extra) <= budget {
                return Ok(());
            }
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    Some(*i) != keep
                        && match &s.state {
                            State::Resident { fleet, .. } => fleet.stats().live == 0,
                            State::Offloaded => false,
                        }
                })
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            let Some(i) = victim else {
                return Ok(());
            };
            self.offload(i)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::label::LabeledRun;
    use wfp_model::fixtures::{paper_run, paper_spec};

    /// Three distinct services off one structure: the scheme tag is part
    /// of the content hash, so one spec under three schemes is three ids.
    const KINDS: [SchemeKind; 3] = [SchemeKind::Tcm, SchemeKind::Bfs, SchemeKind::Dfs];

    fn labels(spec: &Specification, kind: SchemeKind) -> Vec<RunLabel> {
        let run = paper_run(spec);
        LabeledRun::build(spec, SpecScheme::build(kind, spec.graph()), &run)
            .unwrap()
            .labels()
            .to_vec()
    }

    /// A registry of the paper spec under `KINDS`, two frozen runs each,
    /// plus the per-scheme oracle engines and the spec ids.
    fn build_registry(
        spec: &Specification,
        budget: Option<usize>,
    ) -> (
        ServiceRegistry<'static>,
        Vec<SpecId>,
        Vec<QueryEngine<SpecScheme>>,
    ) {
        let mut reg = ServiceRegistry::new();
        reg.set_budget(budget).unwrap();
        let mut ids = Vec::new();
        let mut oracles = Vec::new();
        for &kind in &KINDS {
            let id = reg.register_spec(spec, kind).unwrap();
            let l = labels(spec, kind);
            for _ in 0..2 {
                reg.register_labels(id, &l).unwrap();
            }
            oracles.push(QueryEngine::from_labels(
                &l,
                SpecScheme::build(kind, spec.graph()),
            ));
            ids.push(id);
        }
        (reg, ids, oracles)
    }

    fn mixed_probes(ids: &[SpecId], n: usize) -> Vec<(SpecId, RunId, RunVertexId, RunVertexId)> {
        let mut probes = Vec::new();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                for (i, &id) in ids.iter().enumerate() {
                    probes.push((
                        id,
                        RunId((u as usize + i) as u32 % 2),
                        RunVertexId(u),
                        RunVertexId(v),
                    ));
                }
            }
        }
        probes
    }

    fn expected(
        probes: &[(SpecId, RunId, RunVertexId, RunVertexId)],
        ids: &[SpecId],
        oracles: &[QueryEngine<SpecScheme>],
    ) -> Vec<bool> {
        probes
            .iter()
            .map(|&(id, _, u, v)| {
                let which = ids.iter().position(|&i| i == id).unwrap();
                oracles[which].answer(u, v)
            })
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("wfp-registry-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spec_id_is_content_derived() {
        let spec = paper_spec();
        let a = SpecId::of(SchemeKind::Tcm, spec.graph());
        let b = SpecId::of(SchemeKind::Tcm, spec.graph());
        assert_eq!(a, b, "same content, same id");
        let c = SpecId::of(SchemeKind::Bfs, spec.graph());
        assert_ne!(a, c, "scheme tag is part of the identity");
        assert_eq!(a.file_name(), format!("{a}.wfps"));
        assert_eq!(format!("{a}").len(), 16);
    }

    #[test]
    fn duplicate_and_unknown_spec_are_typed_errors() {
        let spec = paper_spec();
        let (mut reg, ids, _) = build_registry(&spec, None);
        assert!(matches!(
            reg.register_spec(&spec, KINDS[0]),
            Err(RegistryError::DuplicateSpec(id)) if id == ids[0]
        ));
        let bogus = SpecId(0xDEAD_BEEF);
        assert!(matches!(
            reg.answer(bogus, RunId(0), RunVertexId(0), RunVertexId(0)),
            Err(RegistryError::UnknownSpec(id)) if id == bogus
        ));
        // one bad spec id fails a mixed batch as a whole
        let mut probes = mixed_probes(&ids, 3);
        probes.push((bogus, RunId(0), RunVertexId(0), RunVertexId(0)));
        assert!(matches!(
            reg.answer_batch(&probes),
            Err(RegistryError::UnknownSpec(_))
        ));
    }

    #[test]
    fn budget_zero_serves_correctly_with_constant_churn() {
        let spec = paper_spec();
        let (mut reg, ids, oracles) = build_registry(&spec, Some(0));
        let n = paper_run(&spec).vertex_count();
        let probes = mixed_probes(&ids, n);
        let want = expected(&probes, &ids, &oracles);
        assert_eq!(reg.answer_batch(&probes).unwrap(), want);
        let stats = reg.stats();
        // budget 0: at most the last-served fleet stays resident (it is
        // never its own victim), everything else was pushed out
        assert!(stats.resident <= 1, "resident={}", stats.resident);
        assert!(stats.evictions >= 2);
        assert!(stats.lazy_loads >= 2);
        // and a second pass still answers identically
        assert_eq!(reg.answer_batch(&probes).unwrap(), want);
    }

    #[test]
    fn budget_smaller_than_one_fleet_keeps_the_serving_fleet() {
        let spec = paper_spec();
        let (mut reg, ids, _) = build_registry(&spec, Some(1));
        reg.answer(ids[0], RunId(0), RunVertexId(0), RunVertexId(1))
            .unwrap();
        assert!(reg.resident(ids[0]), "the serving fleet is never evicted");
        assert!(!reg.resident(ids[1]) && !reg.resident(ids[2]));
        // serving another spec displaces the previous one
        reg.answer(ids[1], RunId(0), RunVertexId(0), RunVertexId(1))
            .unwrap();
        assert!(reg.resident(ids[1]));
        assert!(!reg.resident(ids[0]));
    }

    #[test]
    fn exact_fit_budget_evicts_nothing() {
        let spec = paper_spec();
        let (mut reg, _, _) = build_registry(&spec, None);
        let fit = reg.resident_bytes();
        reg.set_budget(Some(fit)).unwrap();
        let stats = reg.stats();
        assert_eq!(stats.resident, 3, "<= budget is within budget");
        assert_eq!(stats.evictions, 0);
        // one byte less forces exactly one eviction
        reg.set_budget(Some(fit - 1)).unwrap();
        assert_eq!(reg.stats().resident, 2);
        assert_eq!(reg.stats().evictions, 1);
    }

    #[test]
    fn eviction_order_is_least_recently_used() {
        let spec = paper_spec();
        let (mut reg, ids, _) = build_registry(&spec, None);
        // recency: ids[1] oldest, then ids[2], then ids[0]
        for &i in &[1usize, 2, 0] {
            reg.answer(ids[i], RunId(0), RunVertexId(0), RunVertexId(1))
                .unwrap();
        }
        let total = reg.resident_bytes();
        reg.set_budget(Some(total - 1)).unwrap();
        assert!(!reg.resident(ids[1]), "LRU victim first");
        assert!(reg.resident(ids[2]) && reg.resident(ids[0]));
        let total = reg.resident_bytes();
        reg.set_budget(Some(total - 1)).unwrap();
        assert!(!reg.resident(ids[2]), "next LRU victim");
        assert!(reg.resident(ids[0]));
    }

    #[test]
    fn stats_stay_correct_across_evict_and_reload() {
        let spec = paper_spec();
        let (mut reg, ids, oracles) = build_registry(&spec, None);
        let n = paper_run(&spec).vertex_count();
        let probes = mixed_probes(&ids, n);
        let want = expected(&probes, &ids, &oracles);
        assert_eq!(reg.answer_batch(&probes).unwrap(), want);

        for &id in &ids {
            assert_eq!(reg.run_count(id).unwrap(), 2);
            reg.evict(id).unwrap();
            assert!(!reg.resident(id));
            assert_eq!(reg.run_count(id).unwrap(), 2, "count survives offload");
        }
        let stats = reg.stats();
        assert_eq!(stats.offloaded, 3);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.evictions, 3);
        // evicting an offloaded spec is a no-op
        reg.evict(ids[0]).unwrap();
        assert_eq!(reg.stats().evictions, 3);

        // transparent reload: same answers, same per-fleet accounting; both
        // runs of each fleet were packed at registration and came back so
        assert_eq!(reg.answer_batch(&probes).unwrap(), want);
        let stats = reg.stats();
        assert_eq!(stats.resident, 3);
        assert_eq!(stats.lazy_loads, 3);
        for &id in &ids {
            let fleet = reg.fleet(id).expect("resident after probes");
            assert_eq!(fleet.stats().packed, 2);
            assert_eq!(fleet.stats().frozen, 0);
            assert_eq!(fleet.stats().context_refs, 1);
        }
    }

    #[test]
    fn live_fleets_are_never_pressure_victims_and_refuse_eviction() {
        let spec = paper_spec();
        let mut reg = ServiceRegistry::new();
        let id = reg.register_spec(&spec, SchemeKind::Tcm).unwrap();
        let other = reg.register_spec(&spec, SchemeKind::Bfs).unwrap();
        reg.register_labels(other, &labels(&spec, SchemeKind::Bfs))
            .unwrap();
        let run = reg.begin_live(id, &spec).unwrap();
        assert!(matches!(
            reg.evict(id),
            Err(RegistryError::Fleet {
                error: FleetError::StillLive(r),
                ..
            }) if r == run
        ));
        reg.set_budget(Some(0)).unwrap();
        assert!(reg.resident(id), "in-flight state is not evictable");
        assert!(!reg.resident(other), "frozen-only fleets still are");
    }

    #[test]
    fn begin_live_cross_checks_the_spec_by_content() {
        let spec = paper_spec();
        let mut reg = ServiceRegistry::new();
        let id = reg.register_spec(&spec, SchemeKind::Tcm).unwrap();
        // same structure, but registered id was computed under Tcm; the
        // reference is fine — a *wrong id* is the error
        let other = SpecId::of(SchemeKind::Bfs, spec.graph());
        let mut reg2 = ServiceRegistry::new();
        reg2.register_spec(&spec, SchemeKind::Bfs).unwrap();
        assert!(reg.begin_live(id, &spec).is_ok());
        // content matches under Bfs too — the check is per registered id
        assert!(reg2.begin_live(other, &spec).is_ok());
        assert!(matches!(
            reg.begin_live(SpecId(42), &spec),
            Err(RegistryError::UnknownSpec(_))
        ));
    }

    #[test]
    fn directory_roundtrip_is_lazy_and_identical() {
        let spec = paper_spec();
        let (mut reg, ids, oracles) = build_registry(&spec, None);
        let n = paper_run(&spec).vertex_count();
        let probes = mixed_probes(&ids, n);
        let want = expected(&probes, &ids, &oracles);
        // warm, then persist
        assert_eq!(reg.answer_batch(&probes).unwrap(), want);
        let dir = tmp("roundtrip");
        reg.save_dir(&dir).unwrap();
        assert!(dir.join(MANIFEST_FILE).is_file());
        for &id in &ids {
            assert!(dir.join(id.file_name()).is_file());
        }

        // open reads only the manifest: nothing is resident yet
        let mut loaded = ServiceRegistry::open_dir(&dir, None).unwrap();
        assert_eq!(loaded.stats().resident, 0);
        assert_eq!(loaded.spec_ids().collect::<Vec<_>>(), ids);
        for &id in &ids {
            assert_eq!(loaded.scheme(id), reg.scheme(id));
            assert_eq!(loaded.run_count(id).unwrap(), 2);
        }
        // first probes lazily load exactly the specs they touch
        let (p_spec, p_run, p_u, p_v) = probes[0];
        let pos = 0;
        assert_eq!(loaded.answer(p_spec, p_run, p_u, p_v).unwrap(), want[pos]);
        assert_eq!(loaded.stats().lazy_loads, 1);
        assert_eq!(loaded.stats().resident, 1);
        // the full mixed batch matches byte-for-byte
        assert_eq!(loaded.answer_batch(&probes).unwrap(), want);
        assert_eq!(loaded.stats().lazy_loads, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filtered_open_registers_only_the_kept_shard() {
        let spec = paper_spec();
        let (mut reg, ids, oracles) = build_registry(&spec, None);
        let n = paper_run(&spec).vertex_count();
        let probes = mixed_probes(&ids, n);
        let want = expected(&probes, &ids, &oracles);
        assert_eq!(reg.answer_batch(&probes).unwrap(), want);
        let dir = tmp("filtered");
        reg.save_dir(&dir).unwrap();

        // keep exactly one spec; a sibling snapshot another shard owns
        // may even be missing — this shard never looks at it
        let keep = ids[1];
        std::fs::remove_file(dir.join(ids[2].file_name())).unwrap();
        let mut shard = ServiceRegistry::open_dir_filtered(&dir, None, |id| id == keep).unwrap();
        assert_eq!(shard.spec_ids().collect::<Vec<_>>(), vec![keep]);
        assert_eq!(shard.stats().resident, 0, "filtered open is still lazy");
        // the kept spec answers byte-identically to the full registry
        for (i, &p) in probes.iter().enumerate().filter(|(_, p)| p.0 == keep) {
            assert_eq!(shard.answer(p.0, p.1, p.2, p.3).unwrap(), want[i]);
        }
        // specs filtered away are typed unknown on this shard
        assert!(matches!(
            shard.answer(ids[0], RunId(0), RunVertexId(0), RunVertexId(0)),
            Err(RegistryError::UnknownSpec(id)) if id == ids[0]
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_forgeries_and_missing_files() {
        let spec = paper_spec();
        let (reg, ids, _) = build_registry(&spec, None);
        let dir = tmp("adversarial");
        reg.save_dir(&dir).unwrap();

        // referencing a file that is gone is typed, not a silent absence
        std::fs::remove_file(dir.join(ids[1].file_name())).unwrap();
        assert!(matches!(
            ServiceRegistry::open_dir(&dir, None),
            Err(RegistryError::MissingSnapshot { spec, .. }) if spec == ids[1]
        ));
        // a swapped snapshot is caught by the content hash at lazy load
        std::fs::copy(dir.join(ids[0].file_name()), dir.join(ids[1].file_name())).unwrap();
        let mut swapped = ServiceRegistry::open_dir(&dir, None).unwrap();
        assert!(matches!(
            swapped.answer(ids[1], RunId(0), RunVertexId(0), RunVertexId(0)),
            Err(RegistryError::SpecMismatch { expected, loaded })
                if expected == ids[1] && loaded == ids[0]
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_entry_validation() {
        let entry = |file: &str| ManifestEntry {
            id: SpecId(1),
            kind: SchemeKind::Tcm,
            file: file.to_string(),
            runs: 0,
            bytes: 0,
        };
        // the empty name dies in the count guard (Oversized) rather than
        // name validation — either way a typed error, never acceptance
        let bytes = write_manifest(&[entry("")]);
        assert!(
            read_manifest(&bytes).is_err(),
            "empty name must be rejected"
        );
        for bad in [
            "a/b.wfps",
            "..wfps",
            "x..y.wfps",
            "x.txt",
            ".wfps",
            "a\\b.wfps",
        ] {
            let bytes = write_manifest(&[entry(bad)]);
            assert!(
                matches!(read_manifest(&bytes), Err(FormatError::Malformed(_))),
                "file name {bad:?} must be rejected"
            );
        }
        let dup = write_manifest(&[entry("a.wfps"), entry("b.wfps")]);
        assert!(matches!(
            read_manifest(&dup),
            Err(FormatError::Malformed("duplicate spec id in manifest"))
        ));
        let ok = write_manifest(&[ManifestEntry {
            id: SpecId(7),
            kind: SchemeKind::Hop2,
            file: "07.wfps".into(),
            runs: 3,
            bytes: 4096,
        }]);
        let read = read_manifest(&ok).unwrap();
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].bytes, 4096, "v2 snapshot size round-trips");
    }

    /// Induced mid-batch failures — missing snapshot, swapped (mismatched)
    /// snapshot, unknown run id — must leave the registry consistent and
    /// serving: same answers on the retry, residency within budget, stats
    /// that add up. This is the serving-loop prerequisite: a shard worker
    /// keeps one registry alive across every client's bad request.
    #[test]
    fn induced_failures_leave_the_registry_serving() {
        let spec = paper_spec();
        let (reg, ids, oracles) = build_registry(&spec, None);
        let probes = mixed_probes(&ids, 4);
        let want = expected(&probes, &ids, &oracles);

        let dir = tmp("induced-failures");
        reg.save_dir(&dir).unwrap();
        // a tight budget forces lazy loads + evictions on every batch
        let mut reg = ServiceRegistry::open_dir(&dir, Some(0)).unwrap();
        assert_eq!(reg.answer_batch(&probes).unwrap(), want, "baseline");

        // 1. missing snapshot: delete one spec's backing file, fail a
        //    batch that routes through it, restore, retry
        let victim = ids[1];
        let path = dir.join(victim.file_name());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            reg.answer_batch(&probes),
            Err(RegistryError::MissingSnapshot { spec, .. }) if spec == victim
        ));
        let stats = reg.stats();
        assert_eq!(stats.specs, 3, "failure must not drop slots");
        assert!(
            stats.resident <= 1,
            "budget 0 keeps at most the fleet that was serving when the \
             failure hit, even across a failed batch"
        );
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(reg.answer_batch(&probes).unwrap(), want, "after restore");

        // 2. spec mismatch: cross-wire two snapshots, fail, un-swap, retry
        let other = dir.join(ids[2].file_name());
        let other_bytes = std::fs::read(&other).unwrap();
        std::fs::write(&path, &other_bytes).unwrap();
        std::fs::write(&other, &bytes).unwrap();
        assert!(matches!(
            reg.answer_batch(&probes),
            Err(RegistryError::SpecMismatch { .. })
        ));
        std::fs::write(&path, &bytes).unwrap();
        std::fs::write(&other, &other_bytes).unwrap();
        assert_eq!(reg.answer_batch(&probes).unwrap(), want, "after un-swap");

        // 3. unknown run id mid-batch: the faulty probe is sandwiched so a
        //    healthy shard answers before the failure propagates
        let mut poisoned = probes.clone();
        poisoned.insert(
            poisoned.len() / 2,
            (ids[2], RunId(99), RunVertexId(0), RunVertexId(0)),
        );
        assert!(matches!(
            reg.answer_batch(&poisoned),
            Err(RegistryError::Fleet { spec, error: FleetError::UnknownRun(RunId(99)) })
                if spec == ids[2]
        ));
        let stats = reg.stats();
        assert!(
            stats.resident <= 1,
            "a failed shard must not pin other lazily-loaded fleets \
             resident — the budget is enforced before the error propagates"
        );
        assert_eq!(reg.answer_batch(&probes).unwrap(), want, "after bad run id");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed lazy load must not consume an LRU stamp: with budget for
    /// one resident fleet, probing A, failing on B (missing snapshot), and
    /// probing A again must keep A resident throughout — B's failed touch
    /// never made it "most recently used".
    #[test]
    fn failed_touch_does_not_disturb_lru_order() {
        let spec = paper_spec();
        let (reg, ids, _) = build_registry(&spec, None);
        let dir = tmp("failed-touch-lru");
        reg.save_dir(&dir).unwrap();
        // budget large enough for one resident fleet, not two
        let mut reg = ServiceRegistry::open_dir(&dir, None).unwrap();
        reg.ensure_resident(ids[0]).unwrap();
        let one = reg.resident_bytes();
        reg.set_budget(Some(one)).unwrap();
        assert!(reg.resident(ids[0]));

        std::fs::remove_file(dir.join(ids[1].file_name())).unwrap();
        for _ in 0..3 {
            assert!(reg
                .answer(ids[1], RunId(0), RunVertexId(0), RunVertexId(0))
                .is_err());
            assert!(
                reg.resident(ids[0]),
                "failed loads must not evict the healthy resident fleet"
            );
        }
        let loads_before = reg.stats().lazy_loads;
        assert!(reg
            .answer(ids[0], RunId(0), RunVertexId(0), RunVertexId(0))
            .is_ok());
        assert_eq!(
            reg.stats().lazy_loads,
            loads_before,
            "the healthy fleet stayed resident — no reload needed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot file that grew by one byte after its save fails its
    /// fault-in with a typed error *before* budget pressure runs: no
    /// healthy fleet is evicted to make room for a load that cannot
    /// succeed.
    #[test]
    fn grown_snapshot_fails_its_fault_in_without_evicting() {
        use std::io::Write;
        let spec = paper_spec();
        let (reg, ids, _) = build_registry(&spec, None);
        let dir = tmp("grown-snapshot");
        reg.save_dir(&dir).unwrap();
        let mut reg = ServiceRegistry::open_dir(&dir, None).unwrap();
        reg.ensure_resident(ids[0]).unwrap();
        // room for A alone: B's fault-in would have to evict A
        reg.set_budget(Some(reg.resident_bytes())).unwrap();

        let path = dir.join(ids[1].file_name());
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(&[0]).unwrap();
        drop(file);
        assert!(matches!(
            reg.ensure_resident(ids[1]),
            Err(RegistryError::Format(FormatError::TrailingBytes {
                extra: 1
            }))
        ));
        assert!(reg.resident(ids[0]), "the healthy fleet stays resident");
        assert!(!reg.resident(ids[1]));
        assert_eq!(reg.stats().evictions, 0);
        assert_eq!(reg.stats().lazy_loads, 1, "only A's load counts");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The paper spec under TCM (A) and BFS (B), one run each, saved to a
    /// fresh directory; returns the directory, the two ids and a budget of
    /// one and a half of A's resident footprint, which B's fault-in, priced
    /// at its manifest size, overshoots while A is resident.
    fn two_fleet_dir(name: &str) -> (std::path::PathBuf, [SpecId; 2], usize) {
        let spec = paper_spec();
        let mut reg = ServiceRegistry::new();
        let ids = [SchemeKind::Tcm, SchemeKind::Bfs].map(|kind| {
            let id = reg.register_spec(&spec, kind).unwrap();
            reg.register_labels(id, &labels(&spec, kind)).unwrap();
            id
        });
        let dir = tmp(name);
        reg.save_dir(&dir).unwrap();
        let mut probe = ServiceRegistry::open_dir(&dir, None).unwrap();
        probe.ensure_resident(ids[0]).unwrap();
        let budget = probe.resident_bytes() * 3 / 2;
        let manifest = read_manifest(&std::fs::read(dir.join(MANIFEST_FILE)).unwrap()).unwrap();
        let m_b = manifest.iter().find(|e| e.id == ids[1]).unwrap().bytes;
        assert!(
            probe.resident_bytes() + m_b > budget,
            "fixture: B's fault-in would not need a victim"
        );
        (dir, ids, budget)
    }

    /// Reopens `dir` under `budget`, faults A in, then probes B, whose
    /// snapshot the caller has tampered with: the probe must fail with an
    /// error `expected` accepts and leave every counter as it was, A
    /// still resident.
    fn rejected_fault_in_keeps_a_resident(
        dir: &Path,
        ids: [SpecId; 2],
        budget: usize,
        expected: impl FnOnce(&RegistryError) -> bool,
    ) {
        let mut reg = ServiceRegistry::open_dir(dir, Some(budget)).unwrap();
        reg.ensure_resident(ids[0]).unwrap();
        let before = reg.stats();
        assert_eq!((before.resident, before.evictions), (1, 0));
        let err = reg
            .answer(ids[1], RunId(0), RunVertexId(0), RunVertexId(0))
            .unwrap_err();
        assert!(expected(&err), "unexpected error {err:?}");
        assert_eq!(reg.stats(), before, "a rejected snapshot evicted a fleet");
        assert!(reg.resident(ids[0]) && !reg.resident(ids[1]));
    }

    /// A snapshot that passes its checksums but holds another spec is
    /// rejected before budget pressure runs.
    #[test]
    fn swapped_snapshot_fails_its_fault_in_without_evicting() {
        let (dir, ids, budget) = two_fleet_dir("swapped-no-evict");
        std::fs::copy(dir.join(ids[0].file_name()), dir.join(ids[1].file_name())).unwrap();
        rejected_fault_in_keeps_a_resident(&dir, ids, budget, |e| {
            matches!(e, RegistryError::SpecMismatch { expected, loaded }
                if *expected == ids[1] && *loaded == ids[0])
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A packed run whose stored origin bound is forged, re-serialized so
    /// every CRC is valid, fails at bind, before budget pressure runs.
    #[test]
    fn forged_origin_bound_fails_its_fault_in_without_evicting() {
        let (dir, ids, budget) = two_fleet_dir("forged-bound-no-evict");
        let path = dir.join(ids[1].file_name());
        let bytes = std::fs::read(&path).unwrap();
        let mut w = snapshot::SnapshotWriter::new();
        let mut forged = false;
        for &(kind, payload) in SnapshotReader::parse(&bytes).unwrap().segments() {
            let mut payload = payload.to_vec();
            if kind == snapshot::seg::PACKED_COLUMNS_ALIGNED && !forged {
                let bound = u32::from_le_bytes(payload[32..36].try_into().unwrap());
                payload[32..36].copy_from_slice(&(bound + 1).to_le_bytes());
                forged = true;
            }
            w.push(kind, payload);
        }
        assert!(forged, "fixture: B holds a packed run");
        write_file(&path, &w.finish()).unwrap();
        rejected_fault_in_keeps_a_resident(&dir, ids, budget, |e| {
            matches!(
                e,
                RegistryError::Format(FormatError::Malformed(
                    "aligned origin bound does not match the stored column"
                ))
            )
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the budget-accounting drift: `open_dir` seeds each
    /// slot's size estimate from the manifest's snapshot bytes, the first
    /// fault-in reserves on that conservative number, and every
    /// load/offload reconciles the estimate to the fleet's actual resident
    /// footprint — so later eviction decisions run on the corrected
    /// number, not the (larger) serialized size.
    #[test]
    fn manifest_seeded_estimates_reconcile_to_resident_bytes() {
        let spec = paper_spec();
        let (reg, ids, _) = build_registry(&spec, None);
        let dir = tmp("estimate-reconcile");
        reg.save_dir(&dir).unwrap();

        // measure the actual resident footprint of fleets A and B
        let mut probe = ServiceRegistry::open_dir(&dir, None).unwrap();
        probe.ensure_resident(ids[0]).unwrap();
        let r_a = probe.resident_bytes();
        probe.ensure_resident(ids[1]).unwrap();
        let r_b = probe.resident_bytes() - r_a;
        drop(probe);

        // the serialized snapshot (manifest estimate) is strictly larger
        // than the resident footprint — that gap IS the drift under test
        let manifest = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let m_b = read_manifest(&manifest)
            .unwrap()
            .iter()
            .find(|e| e.id == ids[1])
            .expect("B is in the manifest")
            .bytes;
        assert!(m_b > r_b, "fixture: serialized {m_b} <= resident {r_b}");

        // a budget that fits both fleets by the corrected numbers but NOT
        // by A-resident + B's manifest estimate
        let budget = r_a + (r_b + m_b) / 2;
        let mut reg = ServiceRegistry::open_dir(&dir, Some(budget)).unwrap();
        reg.ensure_resident(ids[0]).unwrap();
        // B's first fault-in reserves on the seeded manifest estimate:
        // r_a + m_b overshoots, so A is evicted *before* the load
        reg.ensure_resident(ids[1]).unwrap();
        assert!(!reg.resident(ids[0]), "seeded estimate forced eviction");
        assert!(reg.resident(ids[1]));
        assert_eq!(reg.stats().evictions, 1);
        // A's estimate was reconciled to its resident footprint when it
        // loaded (and kept through its clean offload): by the corrected
        // numbers both fleets fit, so re-loading A evicts nothing
        reg.ensure_resident(ids[0]).unwrap();
        assert!(
            reg.resident(ids[0]) && reg.resident(ids[1]),
            "corrected estimates fit both fleets in the budget"
        );
        assert_eq!(reg.stats().evictions, 1, "no spurious eviction");
        assert!(reg.resident_bytes() <= budget);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Evict→reload of an unmodified, all-packed fleet in the memory store
    /// is a pointer rebind of the retained snapshot buffer: the reload is
    /// counted zero-copy, answers stay identical, and the probe counters
    /// carry across without re-serialization.
    #[test]
    fn clean_evict_reload_is_zero_copy_and_keeps_counters() {
        let spec = paper_spec();
        let mut reg = ServiceRegistry::new();
        let id = reg.register_spec(&spec, SchemeKind::Tcm).unwrap();
        let l = labels(&spec, SchemeKind::Tcm);
        reg.register_labels(id, &l).unwrap();
        assert_eq!(reg.seal_packed(id).unwrap(), 0, "the run was born packed");
        let fs = reg.fleet(id).unwrap().stats();
        assert_eq!((fs.frozen, fs.packed), (0, 1));

        let n = paper_run(&spec).vertex_count();
        let mut want = Vec::new();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                want.push(
                    reg.answer(id, RunId(0), RunVertexId(u), RunVertexId(v))
                        .unwrap(),
                );
            }
        }
        let before = reg.fleet(id).unwrap().stats().engine;

        // first evict: the fleet diverged from the (absent) stored
        // snapshot, so this serializes; the reload then rides the
        // zero-copy path over the buffer the offload just stored
        reg.evict(id).unwrap();
        assert!(!reg.resident(id));
        let again = reg
            .answer(id, RunId(0), RunVertexId(0), RunVertexId(1))
            .unwrap();
        assert_eq!(again, want[1]);
        let stats = reg.stats();
        assert_eq!(stats.lazy_loads, 1);
        assert_eq!(stats.zero_copy_loads, 1, "all runs bound as views");
        assert_eq!(stats.zero_copy_runs, 1, "the packed run is a view");
        assert!(stats.reload_bytes > 0, "reload volume is accounted");
        let engine = reg.fleet(id).unwrap().stats().engine;
        assert_eq!(
            engine.context_only + engine.skeleton,
            before.context_only + before.skeleton + 1,
            "probe counters carry across the evict/reload cycle"
        );

        // second evict: nothing changed since the load, so the offload
        // skips serialization and the reload is a trusted pointer rebind
        reg.evict(id).unwrap();
        let replay: Vec<bool> = (0..n as u32)
            .flat_map(|u| (0..n as u32).map(move |v| (u, v)))
            .map(|(u, v)| {
                reg.answer(id, RunId(0), RunVertexId(u), RunVertexId(v))
                    .unwrap()
            })
            .collect();
        assert_eq!(replay, want, "rebind answers byte-identically");
        let stats = reg.stats();
        assert_eq!(stats.lazy_loads, 2);
        assert_eq!(stats.zero_copy_loads, 2);

        // mutating the fleet re-dirties it: the next cycle re-serializes,
        // and the new run was packed at registration, so the load is all
        // views
        reg.register_labels(id, &l).unwrap();
        reg.evict(id).unwrap();
        assert!(reg
            .answer(id, RunId(1), RunVertexId(0), RunVertexId(1))
            .is_ok());
        let stats = reg.stats();
        assert_eq!(stats.lazy_loads, 3);
        assert_eq!(stats.zero_copy_loads, 3, "the new run was born packed");
        assert_eq!(stats.zero_copy_runs, 2, "both runs bind as views");
        assert_eq!(reg.run_count(id).unwrap(), 2);
    }

    /// What one fleet answered, counted and held before its eviction.
    struct BeforeEviction {
        answers: Vec<bool>,
        counters: Vec<(u64, u64)>,
        resident_bytes: usize,
    }

    /// Every pair of every run of `spec` (run ids `0..run_count`), in run,
    /// then `u`, then `v` order.
    fn all_pairs(reg: &mut ServiceRegistry<'_>, spec: SpecId, n: usize) -> Vec<bool> {
        let runs = reg.run_count(spec).unwrap() as u32;
        let n = n as u32;
        let probes: Vec<_> = (0..runs)
            .flat_map(|r| (0..n).flat_map(move |u| (0..n).map(move |v| (r, u, v))))
            .map(|(r, u, v)| (spec, RunId(r), RunVertexId(u), RunVertexId(v)))
            .collect();
        reg.answer_batch(&probes).unwrap()
    }

    /// Probes every pair of the resident fleet `spec`, then records its
    /// answers, per-run decision counters and the registry's resident
    /// bytes.
    fn before_eviction(reg: &mut ServiceRegistry<'_>, spec: SpecId, n: usize) -> BeforeEviction {
        let answers = all_pairs(reg, spec, n);
        BeforeEviction {
            answers,
            counters: reg.fleet(spec).unwrap().slot_counters(),
            resident_bytes: reg.resident_bytes(),
        }
    }

    /// Faults `spec` back in after a dirty eviction and checks that it
    /// came back all packed, bound zero-copy, at the size it had before
    /// (its runs were packed at registration), with its counters continued
    /// and its answers unchanged. The caller arranges that `spec` is the
    /// only fleet resident afterwards, as it was before.
    fn assert_packed_reload(
        reg: &mut ServiceRegistry<'_>,
        spec: SpecId,
        n: usize,
        before: &BeforeEviction,
    ) {
        let loads = reg.stats();
        reg.ensure_resident(spec).unwrap();
        let stats = reg.stats();
        assert_eq!(stats.lazy_loads, loads.lazy_loads + 1);
        assert_eq!(
            stats.zero_copy_loads,
            loads.zero_copy_loads + 1,
            "the fault-in binds views"
        );
        let fleet = reg.fleet(spec).unwrap();
        let fs = fleet.stats();
        assert_eq!((fs.frozen, fs.packed), (0, fleet.run_count()));
        assert_eq!(fleet.slot_counters(), before.counters, "counters continue");
        assert_eq!(
            reg.resident_bytes(),
            before.resident_bytes,
            "packed before the eviction and after it"
        );
        assert_eq!(all_pairs(reg, spec, n), before.answers);
    }

    /// A dirty eviction writes the compact form in both stores: the fleet
    /// faults back in all packed and zero-copy, under every scheme.
    #[test]
    fn dirty_eviction_comes_back_packed_and_zero_copy() {
        let spec = paper_spec();
        let n = paper_run(&spec).vertex_count();

        // memory store: under a zero budget, registering the next spec
        // pushes out the last one, dirty since its `register_labels`
        let mut reg = ServiceRegistry::with_budget(0);
        let mut ids = Vec::new();
        let mut befores = Vec::new();
        for kind in SchemeKind::ALL {
            let id = reg.register_spec(&spec, kind).unwrap();
            let l = labels(&spec, kind);
            reg.register_labels(id, &l).unwrap();
            reg.register_labels(id, &l).unwrap();
            befores.push(before_eviction(&mut reg, id, n));
            ids.push(id);
        }
        // the first fault-in pushes out the last spec, dirty like the rest
        for (&id, before) in ids.iter().zip(&befores) {
            assert_packed_reload(&mut reg, id, n, before);
        }
        let stats = reg.stats();
        assert_eq!(stats.evictions, 11, "six dirty, then five clean");
        assert_eq!(stats.lazy_loads, 6);
        assert_eq!(stats.zero_copy_loads, stats.lazy_loads);

        // directory store: `save_dir` writes the packed fleets, and a
        // fault-in by `register_labels` dirties each one before its `evict`
        let dir = tmp("dirty-eviction-packed");
        let mut saved = ServiceRegistry::new();
        for (kind, &id) in SchemeKind::ALL.into_iter().zip(&ids) {
            assert_eq!(saved.register_spec(&spec, kind).unwrap(), id);
            saved.register_labels(id, &labels(&spec, kind)).unwrap();
        }
        saved.save_dir(&dir).unwrap();
        let mut reg = ServiceRegistry::open_dir(&dir, None).unwrap();
        let segments = |id: SpecId| {
            let file = std::fs::read(dir.join(id.file_name())).unwrap();
            let parsed = SnapshotReader::parse(&file).unwrap();
            (
                parsed.all(0x0003).count(),
                parsed.all(seg::PACKED_COLUMNS_ALIGNED).count(),
            )
        };
        for (kind, &id) in SchemeKind::ALL.into_iter().zip(&ids) {
            reg.register_labels(id, &labels(&spec, kind)).unwrap();
            let fs = reg.fleet(id).unwrap().stats();
            assert_eq!((fs.frozen, fs.packed), (0, 2));
            assert_eq!(segments(id), (0, 1), "no raw run on disk");
            let before = before_eviction(&mut reg, id, n);
            reg.evict(id).unwrap();
            assert_eq!(segments(id), (0, 2), "no raw run written");
            assert_packed_reload(&mut reg, id, n, &before);
            // clean now, so this writes nothing; the next spec faults in
            // alone, as `resident_bytes` in both checks assumes
            reg.evict(id).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fleet with a live run refuses its eviction and stays resident as
    /// it was: its frozen runs packed since registration, its live run
    /// live.
    #[test]
    fn refused_eviction_seals_nothing() {
        let spec = paper_spec();
        let mut reg = ServiceRegistry::new();
        let id = reg.register_spec(&spec, SchemeKind::Tcm).unwrap();
        let l = labels(&spec, SchemeKind::Tcm);
        reg.register_labels(id, &l).unwrap();
        reg.register_labels(id, &l).unwrap();
        let run = reg.begin_live(id, &spec).unwrap();
        assert!(matches!(
            reg.evict(id),
            Err(RegistryError::Fleet {
                error: FleetError::StillLive(r),
                ..
            }) if r == run
        ));
        assert!(reg.resident(id));
        let fs = reg.fleet(id).unwrap().stats();
        assert_eq!((fs.frozen, fs.packed, fs.live), (0, 2, 1));
    }

    /// Every run a registry registers or freezes is stored packed from the
    /// start, under every scheme: it answers like raw `QueryEngine`s over
    /// the same runs, keeps its decision counters across the freeze, holds
    /// fewer bytes, persists without a raw segment and faults back in
    /// zero-copy.
    #[test]
    fn registered_and_frozen_runs_are_born_packed() {
        use crate::construct::construct_plan;
        use wfp_model::io::{plan_to_events, RunEvent};

        let spec = paper_spec();
        let paper = paper_run(&spec);
        let (events, _) = plan_to_events(&paper, &construct_plan(&spec, &paper).unwrap());
        for kind in SchemeKind::ALL {
            let l = labels(&spec, kind);
            let mut reg = ServiceRegistry::new();
            // the raw oracle: one engine per run, the streamed one frozen
            // from a live run fed the same events
            let mut raw: Vec<QueryEngine<SpecScheme>> = Vec::new();
            let id = reg.register_spec(&spec, kind).unwrap();
            for r in 0..2 {
                assert_eq!(reg.register_labels(id, &l).unwrap(), RunId(r));
                raw.push(QueryEngine::from_labels(
                    &l,
                    SpecScheme::build(kind, spec.graph()),
                ));
            }
            let live = reg.begin_live(id, &spec).unwrap();
            assert_eq!(live, RunId(2));
            let mut streamed = LiveRun::new(&spec, SpecScheme::build(kind, spec.graph()));
            for &event in &events {
                for run in [reg.live_mut(id, live).unwrap(), &mut streamed] {
                    match event {
                        RunEvent::BeginGroup(sg) => run.begin_group(sg).unwrap(),
                        RunEvent::BeginCopy => run.begin_copy().unwrap(),
                        RunEvent::Exec(m) => {
                            run.exec(m).unwrap();
                        }
                        RunEvent::EndCopy => run.end_copy().unwrap(),
                        RunEvent::EndGroup => run.end_group().unwrap(),
                    }
                }
            }
            // probe every run once while the third is live, so the freeze
            // has decision counters to carry
            let n = paper.vertex_count();
            let live_answers = all_pairs(&mut reg, id, n);
            let mut counters = reg.fleet(id).unwrap().slot_counters();
            let e = reg.live_mut(id, live).unwrap().stats().engine;
            counters[live.index()] = (e.context_only, e.skeleton);
            reg.freeze_run(id, live).unwrap();
            raw.push(streamed.freeze().unwrap());

            let fleet = reg.fleet(id).unwrap();
            let fs = fleet.stats();
            assert_eq!((fs.frozen, fs.packed, fs.live), (0, 3, 0), "{kind}");
            assert_eq!(reg.stats().packed_runs, 3, "{kind}");
            assert_eq!(fleet.slot_counters(), counters, "{kind}: counters continue");
            let raw_bytes: usize = raw.iter().map(|e| e.run().memory_bytes()).sum();
            assert!(
                reg.resident_bytes() < fs.spec_bytes + raw_bytes,
                "{kind}: {} packed bytes, {} raw",
                reg.resident_bytes(),
                fs.spec_bytes + raw_bytes
            );
            let probes: Vec<_> = (0..3u32)
                .flat_map(|r| {
                    (0..n as u32).flat_map(move |u| (0..n as u32).map(move |v| (r, u, v)))
                })
                .map(|(r, u, v)| (RunId(r), RunVertexId(u), RunVertexId(v)))
                .collect();
            let want: Vec<bool> = probes
                .iter()
                .map(|&(r, u, v)| raw[r.index()].answer(u, v))
                .collect();
            assert_eq!(live_answers, want, "{kind}: while live");
            assert_eq!(all_pairs(&mut reg, id, n), want, "{kind}: frozen");

            let dir = tmp(&format!("born-packed-{kind}"));
            reg.save_dir(&dir).unwrap();
            let file = std::fs::read(dir.join(id.file_name())).unwrap();
            let parsed = SnapshotReader::parse(&file).unwrap();
            assert_eq!(parsed.all(0x0003).count(), 0, "{kind}: no raw run");
            assert_eq!(parsed.all(seg::PACKED_COLUMNS_ALIGNED).count(), 3, "{kind}");
            let mut opened = ServiceRegistry::open_dir(&dir, None).unwrap();
            opened.ensure_resident(id).unwrap();
            let stats = opened.stats();
            assert_eq!((stats.lazy_loads, stats.zero_copy_loads), (1, 1), "{kind}");
            assert_eq!(all_pairs(&mut opened, id, n), want, "{kind}: reopened");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
