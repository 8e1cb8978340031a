//! Differential property suite: the batched [`QueryEngine`] must agree
//! with the scalar predicate πr on every pair, under every specification
//! scheme, on every evaluation path — cold memo, warm memo (repeated
//! batches), the scalar `answer` entry point, the sharded parallel
//! evaluator, and the bit-packed serving path ([`PackedEngine`]), whose
//! columns are additionally driven to their packing extremes (constant,
//! 1-bit, full-width) over synthetic labels, and whose snapshot segment
//! must reject every truncation, bit flip and forged width header with a
//! typed error.

use proptest::prelude::*;
use workflow_provenance::graph::rng::Xoshiro256;
use workflow_provenance::prelude::*;
use workflow_provenance::skl::predicate;
use workflow_provenance::skl::snapshot::{self, FormatError, SnapshotReader};

/// Strategy over feasible generator configurations (mirrors
/// `tests/properties.rs`).
fn spec_config() -> impl Strategy<Value = SpecGenConfig> {
    (2usize..=8, any::<u64>(), 0usize..30, 0usize..25).prop_flat_map(
        |(size, seed, extra_v, extra_e)| {
            let depth = 2usize..=size.min(4);
            depth.prop_map(move |depth| {
                let modules = 2 + 2 * (size - 1) + size + extra_v; // safely feasible
                SpecGenConfig {
                    modules,
                    edges: modules + extra_e,
                    hierarchy_size: size,
                    hierarchy_depth: depth,
                    seed,
                }
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `answer_batch` ≡ scalar `predicate`, across every scheme kind, with
    /// the memo both cold and warm, and through the scalar `answer` path.
    #[test]
    fn batch_agrees_with_scalar_predicate(
        cfg in spec_config(),
        run_seed in any::<u64>(),
        scheme_idx in 0usize..SchemeKind::ALL.len(),
        pair_seed in any::<u64>(),
    ) {
        let spec = generate_spec_clamped(&cfg).unwrap();
        let GeneratedRun { run, .. } = generate_run(&spec, &RunGenConfig {
            seed: run_seed,
            counts: CountDistribution::GeometricMean(0.8),
        });
        let kind = SchemeKind::ALL[scheme_idx];
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(kind, spec.graph()),
            &run,
        ).unwrap();

        // Duplicate the pair set so repeated (origin, origin) keys exercise
        // the memo's hit path within one batch.
        let mut pairs = random_pairs(&run, 150, pair_seed);
        let dup = pairs.clone();
        pairs.extend(dup);

        let scalar: Vec<bool> = pairs
            .iter()
            .map(|&(u, v)| predicate(labeled.label(u), labeled.label(v), labeled.skeleton()))
            .collect();

        let engine = QueryEngine::from_labeled(labeled);
        // cold batch
        prop_assert_eq!(&engine.answer_batch(&pairs), &scalar, "cold batch under {}", kind);
        // warm batch: the memo now holds every skeleton sub-answer
        prop_assert_eq!(&engine.answer_batch(&pairs), &scalar, "warm batch under {}", kind);
        // scalar entry point, sharing the warm memo
        for (&(u, v), &expected) in pairs.iter().zip(&scalar) {
            prop_assert_eq!(engine.answer(u, v), expected, "answer({}, {}) under {}", u, v, kind);
        }
        // the engine accounted for every pair it answered
        let stats = engine.stats();
        prop_assert_eq!(stats.total(), 3 * pairs.len() as u64);
    }

    /// The sharded parallel evaluator returns exactly the sequential
    /// answers, for any shard count, on every scheme.
    #[test]
    fn parallel_shards_agree_with_sequential(
        cfg in spec_config(),
        run_seed in any::<u64>(),
        scheme_idx in 0usize..SchemeKind::ALL.len(),
        pair_seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        let spec = generate_spec_clamped(&cfg).unwrap();
        let GeneratedRun { run, .. } = generate_run(&spec, &RunGenConfig {
            seed: run_seed,
            counts: CountDistribution::GeometricMean(1.0),
        });
        let kind = SchemeKind::ALL[scheme_idx];
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(kind, spec.graph()),
            &run,
        ).unwrap();
        // 5000 pairs crosses the parallel evaluator's 1024-pair chunk
        // floor, so multiple chunks (and shards) genuinely interleave.
        let pairs = random_pairs(&run, 5000, pair_seed);
        let engine = QueryEngine::from_labeled(labeled);
        let sequential = engine.answer_batch(&pairs);
        let parallel = engine.answer_batch_parallel(&pairs, threads);
        prop_assert_eq!(parallel, sequential, "{} with {} shards", kind, threads);
    }

    /// The three batch kernels — branchless sweep, retired scalar
    /// reference, and the same sweep over bit-packed columns — answer
    /// byte-identically on generated runs under every scheme, cold and
    /// warm, and the packed engine keeps agreeing through the sharded
    /// parallel evaluator's answers.
    #[test]
    fn packed_sweep_and_scalar_kernels_agree(
        cfg in spec_config(),
        run_seed in any::<u64>(),
        scheme_idx in 0usize..SchemeKind::ALL.len(),
        pair_seed in any::<u64>(),
    ) {
        let spec = generate_spec_clamped(&cfg).unwrap();
        let GeneratedRun { run, .. } = generate_run(&spec, &RunGenConfig {
            seed: run_seed,
            counts: CountDistribution::GeometricMean(0.8),
        });
        let kind = SchemeKind::ALL[scheme_idx];
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(kind, spec.graph()),
            &run,
        ).unwrap();
        let mut pairs = random_pairs(&run, 200, pair_seed);
        let dup = pairs.clone();
        pairs.extend(dup); // repeated keys exercise the probe table's hit path

        let scalar: Vec<bool> = pairs
            .iter()
            .map(|&(u, v)| predicate(labeled.label(u), labeled.label(v), labeled.skeleton()))
            .collect();

        let engine = QueryEngine::from_labeled(labeled);
        let packed = engine.seal_packed();
        prop_assert_eq!(packed.vertex_count(), engine.vertex_count());
        // packed cold (its first pass may warm the shared memo)
        prop_assert_eq!(&packed.answer_batch(&pairs), &scalar, "packed cold under {}", kind);
        // sweep over the raw columns, then the scalar reference kernel
        let mut out = Vec::new();
        prop_assert_eq!(&engine.answer_batch(&pairs), &scalar, "sweep under {}", kind);
        prop_assert_eq!(
            engine.answer_batch_scalar_into(&pairs, &mut out),
            &scalar[..],
            "scalar reference under {}", kind
        );
        // packed warm + per-pair entry point against the shared warm memo
        prop_assert_eq!(&packed.answer_batch(&pairs), &scalar, "packed warm under {}", kind);
        for (&(u, v), &expected) in pairs.iter().zip(&scalar).take(32) {
            prop_assert_eq!(packed.answer(u, v), expected, "packed answer({}, {})", u, v);
        }
        // sharded parallel answers must equal the packed ones too
        prop_assert_eq!(
            engine.answer_batch_parallel(&pairs, 3),
            scalar,
            "parallel vs packed under {}", kind
        );
        // packing never grows the resident label columns
        prop_assert!(
            packed.columns().memory_bytes() <= engine.run().memory_bytes(),
            "packed columns larger than raw"
        );
    }
}

// ======================================================================
// Packing extremes over synthetic columns
// ======================================================================

/// A pure, graph-free skeleton for the synthetic-column tests: `m ⇝ m'`
/// iff `m ≤ m'` and they do not differ by 1 mod 3 — arbitrary but
/// deterministic, so every kernel must agree on it whatever the columns
/// hold.
#[derive(Clone)]
struct ToySkeleton {
    constant_time: bool,
}

impl SpecIndex for ToySkeleton {
    fn build(_: &workflow_provenance::graph::DiGraph) -> Self {
        ToySkeleton {
            constant_time: false,
        }
    }

    fn reaches(&self, u: u32, v: u32) -> bool {
        u <= v && (v - u) % 3 != 1
    }

    fn constant_time_queries(&self) -> bool {
        self.constant_time
    }

    fn label_bits(&self, _: u32) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "toy"
    }

    fn total_bits(&self) -> usize {
        0
    }
}

/// Synthetic label columns at a chosen packing extreme.
///
/// * profile 0 — **degenerate**: every label identical, so all four
///   columns pack at width 0 and the origin bound collapses to one id;
/// * profile 1 — **1-bit**: two distinct values per column;
/// * profile 2 — **full-width**: values pinned to `0` and `u32::MAX`, so
///   every column packs at the full 32 bits and origin ids overflow both
///   the memo's dense side and the sweep's probe table (their fallback
///   paths must still agree);
/// * profile 3 — **mixed**: arbitrary mid-range values.
fn toy_labels(profile: u8, n: usize, seed: u64) -> Vec<RunLabel> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut labels: Vec<RunLabel> = (0..n)
        .map(|_| {
            let mut q = |m: usize, base: u32| base + rng.gen_usize(m) as u32;
            match profile {
                0 => RunLabel {
                    q1: 7,
                    q2: 9,
                    q3: 11,
                    origin: ModuleId(5),
                },
                1 => RunLabel {
                    q1: q(2, 1000),
                    q2: q(2, 2000),
                    q3: q(2, 3000),
                    origin: ModuleId(q(2, 0)),
                },
                2 => RunLabel {
                    q1: q(1 << 30, 0),
                    q2: q(1 << 30, 0),
                    q3: q(1 << 30, 0),
                    origin: ModuleId(q(1 << 30, 0)),
                },
                _ => RunLabel {
                    q1: q(1 << 20, 0),
                    q2: q(1 << 20, 0),
                    q3: q(1 << 20, 0),
                    origin: ModuleId(q(50, 0)),
                },
            }
        })
        .collect();
    if profile == 2 && n >= 2 {
        labels[0] = RunLabel {
            q1: 0,
            q2: 0,
            q3: 0,
            origin: ModuleId(0),
        };
        labels[n - 1] = RunLabel {
            q1: u32::MAX,
            q2: u32::MAX,
            q3: u32::MAX,
            origin: ModuleId(u32::MAX),
        };
    }
    labels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw sweep ≡ scalar reference ≡ packed sweep over synthetic columns
    /// at every packing extreme (width 0, width 1, the full 32 bits), with
    /// the skeleton memo both engaged and bypassed, including origin ids
    /// past the memo's dense side and past the sweep's probe-table cap.
    #[test]
    fn packing_extremes_agree_across_all_kernels(
        profile in 0u8..4,
        n in 1usize..130,
        seed in any::<u64>(),
        constant_time in any::<bool>(),
    ) {
        let labels = toy_labels(profile, n, seed);
        let skeleton = ToySkeleton { constant_time };
        let raw = RunHandle::from_labels(&labels);
        let packed_handle = PackedRunHandle::pack(&raw);
        let bound = workflow_provenance::skl::SharedMemo::origin_bound_of(&labels);
        let ctx = SpecContext::new(skeleton, bound).shared();
        let engine = QueryEngine::from_parts(ctx.clone(), raw);
        let packed = PackedEngine::from_parts(ctx, packed_handle);

        // the packing really hit the intended extreme
        let widths = packed.columns().widths();
        match profile {
            0 => {
                prop_assert_eq!(widths, (0, 0, 0, 0));
                prop_assert_eq!(packed.columns().origin_bound(), 6);
            }
            1 => prop_assert!(
                widths.0 <= 1 && widths.1 <= 1 && widths.2 <= 1 && widths.3 <= 1
            ),
            2 if n >= 2 => prop_assert_eq!(widths, (32, 32, 32, 32)),
            _ => {}
        }
        // lossless: unpacking restores the exact labels
        for (i, expected) in labels.iter().enumerate().take(16) {
            prop_assert_eq!(&packed.columns().label(RunVertexId(i as u32)), expected);
        }

        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xABCD);
        let mut pairs: Vec<(RunVertexId, RunVertexId)> = (0..300)
            .map(|_| {
                (
                    RunVertexId(rng.gen_usize(n) as u32),
                    RunVertexId(rng.gen_usize(n) as u32),
                )
            })
            .collect();
        // self pairs and a duplicated tail for the probe table's hit path
        pairs.extend((0..n.min(20)).map(|i| (RunVertexId(i as u32), RunVertexId(i as u32))));
        let dup = pairs.clone();
        pairs.extend(dup);

        let oracle: Vec<bool> = pairs
            .iter()
            .map(|&(u, v)| {
                predicate(
                    &labels[u.index()],
                    &labels[v.index()],
                    engine.context().skeleton(),
                )
            })
            .collect();

        let mut out = Vec::new();
        prop_assert_eq!(&engine.answer_batch(&pairs), &oracle, "sweep, profile {}", profile);
        prop_assert_eq!(
            engine.answer_batch_scalar_into(&pairs, &mut out),
            &oracle[..],
            "scalar reference, profile {}", profile
        );
        prop_assert_eq!(&packed.answer_batch(&pairs), &oracle, "packed cold, profile {}", profile);
        prop_assert_eq!(&packed.answer_batch(&pairs), &oracle, "packed warm, profile {}", profile);
        prop_assert_eq!(
            engine.answer_batch_parallel(&pairs, 3),
            oracle,
            "parallel, profile {}", profile
        );
    }
}

// ======================================================================
// Adversarial packed-columns snapshots
// ======================================================================

/// A small two-run fleet sealed into packed-resident form, plus its saved
/// snapshot (carrying `PACKED_COLUMNS_ALIGNED` segments) and the spec graph.
fn packed_fleet_snapshot(seed: u64, kind: SchemeKind) -> (Specification, Vec<u8>) {
    let cfg = SpecGenConfig {
        modules: 12,
        edges: 16,
        hierarchy_size: 3,
        hierarchy_depth: 2,
        seed,
    };
    let spec = generate_spec_clamped(&cfg).unwrap();
    let mut fleet = FleetEngine::new(
        SpecContext::for_spec(&spec, SpecScheme::build(kind, spec.graph())).shared(),
    );
    for generated in generate_fleet(&spec, seed ^ 1, 2, 30) {
        let (labels, _) = label_run(&spec, &generated.run).unwrap();
        fleet.register_labels(&labels);
    }
    assert_eq!(fleet.stats().packed, 2, "both runs stored packed");
    let bytes = fleet.save(spec.graph()).unwrap();
    (spec, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Truncation at every byte offset and single-bit flips over the whole
    /// packed-resident snapshot: every mutilation must come back as a
    /// typed error — never a panic, never silently accepted — exactly as
    /// the raw-columns container already guarantees.
    #[test]
    fn packed_snapshot_mutations_never_panic_and_never_pass(
        seed in any::<u64>(),
        scheme_idx in 0usize..SchemeKind::ALL.len(),
    ) {
        let (_, bytes) = packed_fleet_snapshot(seed, SchemeKind::ALL[scheme_idx]);
        prop_assert!(FleetEngine::load(&bytes).is_ok());
        let reader = SnapshotReader::parse(&bytes).unwrap();
        prop_assert!(
            reader
                .segments()
                .iter()
                .any(|&(kind, _)| kind == snapshot::seg::PACKED_COLUMNS_ALIGNED),
            "snapshot carries no aligned packed segments"
        );

        for len in 0..bytes.len() {
            prop_assert!(
                FleetEngine::load(&bytes[..len]).is_err(),
                "prefix of {} bytes loaded", len
            );
            prop_assert!(
                FleetEngine::load_shared(std::sync::Arc::from(&bytes[..len])).is_err(),
                "prefix of {} bytes bound zero-copy", len
            );
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut fuzzed = bytes.clone();
                fuzzed[byte] ^= 1 << bit;
                prop_assert!(
                    FleetEngine::load(&fuzzed).is_err(),
                    "flip at {}:{} went undetected", byte, bit
                );
                prop_assert!(
                    FleetEngine::load_shared(std::sync::Arc::from(fuzzed.as_slice())).is_err(),
                    "flip at {}:{} went undetected by the zero-copy bind", byte, bit
                );
            }
        }
    }
}

/// Rebuilds a packed snapshot with the first `PACKED_COLUMNS_ALIGNED`
/// payload replaced by `mutate(original)` — CRCs recomputed, so only the
/// aligned reader's own structural guards stand between the forgery and
/// the fleet.
fn forge_packed_payload(bytes: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let reader = SnapshotReader::parse(bytes).unwrap();
    let mut segments: Vec<(u16, Vec<u8>)> = reader
        .segments()
        .iter()
        .map(|&(kind, payload)| (kind, payload.to_vec()))
        .collect();
    let target = segments
        .iter_mut()
        .find(|(kind, _)| *kind == snapshot::seg::PACKED_COLUMNS_ALIGNED)
        .expect("no packed segment to forge");
    mutate(&mut target.1);
    let mut writer = snapshot::SnapshotWriter::new();
    for (kind, payload) in segments {
        writer.push(kind, payload);
    }
    writer.finish()
}

/// Forged `PACKED_COLUMNS_ALIGNED` headers — CRC-consistent, structurally rotten —
/// are rejected by the payload reader's guards through the public load
/// path: oversized widths, bases whose range overflows `u32`, unsupported
/// versions, counts the stored words cannot back, and width headers
/// inconsistent with the payload length all error; none panic.
#[test]
fn forged_packed_width_headers_are_rejected() {
    let (_, bytes) = packed_fleet_snapshot(0x000F_0E17, SchemeKind::Bfs);

    // payload layout: version u8, then 4 × (base u32 LE, width u8) headers
    type Forgery = Box<dyn FnOnce(&mut Vec<u8>)>;
    let forgeries: Vec<(&str, Forgery)> = vec![
        ("width 33 on q1", Box::new(|p: &mut Vec<u8>| p[5] = 33)),
        (
            "width 255 on origin",
            Box::new(|p: &mut Vec<u8>| p[20] = 255),
        ),
        (
            "base+mask overflows u32",
            Box::new(|p: &mut Vec<u8>| {
                p[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
                p[5] = 32;
            }),
        ),
        ("unsupported version", Box::new(|p: &mut Vec<u8>| p[0] = 9)),
        (
            "truncated words",
            Box::new(|p: &mut Vec<u8>| {
                p.truncate(p.len() - 8);
            }),
        ),
        ("trailing garbage", Box::new(|p: &mut Vec<u8>| p.push(0xAA))),
        (
            "width header inconsistent with stored words",
            Box::new(|p: &mut Vec<u8>| p[5] = 0),
        ),
        // the aligned header's two padding runs ([21..24] and [36..40])
        // and every column's trailing pad word must be zero — a payload
        // that misaligns them is structurally rotten even though the
        // frames parse
        (
            "nonzero header padding after the frames",
            Box::new(|p: &mut Vec<u8>| p[22] = 1),
        ),
        (
            "nonzero header padding after the origin bound",
            Box::new(|p: &mut Vec<u8>| p[37] = 1),
        ),
        (
            "nonzero trailing column pad word",
            Box::new(|p: &mut Vec<u8>| *p.last_mut().unwrap() = 1),
        ),
    ];
    for (what, mutate) in forgeries {
        let forged = forge_packed_payload(&bytes, mutate);
        assert!(
            FleetEngine::load(&forged).is_err(),
            "{what}: forged packed payload loaded"
        );
        assert!(
            FleetEngine::load_shared(std::sync::Arc::from(forged.as_slice())).is_err(),
            "{what}: forged packed payload bound zero-copy"
        );
    }

    // and the reader's error is a *typed* FormatError, not a panic
    let forged = forge_packed_payload(&bytes, |p| p[5] = 33);
    assert!(matches!(
        FleetEngine::load(&forged),
        Err(FormatError::Malformed(_))
    ));
}

// ======================================================================
// probe-table fallback parity (PROBE_TABLE_CAP)
// ======================================================================

/// Synthetic labels over a `width`-module chain skeleton: every vertex `i`
/// originates from module `i % width`, and the context coordinates are
/// rigged so most pairs are *unresolved* (equal `q2`/`q3` tags defeat the
/// fast path and delegate to the skeleton — the path the probe table and
/// its scalar fallback serve). Every 4th vertex gets antitonic `q2`/`q3`
/// so mixed blocks still contain context-resolved lanes.
fn fallback_labels(n: usize, width: u32) -> Vec<RunLabel> {
    (0..n)
        .map(|i| {
            let banded = i % 4 == 0;
            RunLabel {
                q1: i as u32,
                q2: if banded { i as u32 } else { (i % 3) as u32 },
                q3: if banded {
                    (n - i) as u32
                } else {
                    (i % 3) as u32
                },
                origin: ModuleId((i % width as usize) as u32),
            }
        })
        .collect()
}

/// A `width`-vertex chain graph (module `i` feeds `i+1`) — a skeleton wide
/// enough to exceed the sweep's dense probe-table cap when `width > 1024`.
fn chain_skeleton(width: u32, kind: SchemeKind) -> SpecScheme {
    let mut g = workflow_provenance::graph::DiGraph::with_vertices(width as usize);
    for v in 1..width {
        g.add_edge(v - 1, v);
    }
    SpecScheme::build(kind, &g)
}

fn random_vertex_pairs(n: usize, count: usize, seed: u64) -> Vec<(RunVertexId, RunVertexId)> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect()
}

/// When the origin bound exceeds `PROBE_TABLE_CAP` (1024² cells), the
/// sweep must fall back to per-lane memo probes that match the scalar
/// reference kernel **lane for lane**: same answers, same context/skeleton
/// decision split, same memo probe/hit counters.
#[test]
fn probe_table_fallback_matches_scalar_counters_over_cap_exceeding_bound() {
    const WIDTH: u32 = 1200; // 1200² = 1.44M cells > the 1MiB table cap
    const N: usize = 3000;
    let labels = fallback_labels(N, WIDTH);
    let pairs = random_vertex_pairs(N, 20_000, 0xFA11_BACC);

    for kind in [SchemeKind::Bfs, SchemeKind::Tcm] {
        // two engines over identical labels, fresh memos each
        let sweep_engine = QueryEngine::from_labels(&labels, chain_skeleton(WIDTH, kind));
        let scalar_engine = QueryEngine::from_labels(&labels, chain_skeleton(WIDTH, kind));

        let sweep = sweep_engine.answer_batch(&pairs);
        let mut buf = Vec::new();
        let scalar = scalar_engine.answer_batch_scalar_into(&pairs, &mut buf);
        assert_eq!(sweep, scalar, "{kind}: answers diverge in the fallback");

        let s = sweep_engine.stats();
        let r = scalar_engine.stats();
        assert_eq!(s.context_only, r.context_only, "{kind}: context split");
        assert_eq!(s.skeleton, r.skeleton, "{kind}: skeleton split");
        assert_eq!(s.skeleton_probes, r.skeleton_probes, "{kind}: memo misses");
        assert_eq!(s.memo_hits, r.memo_hits, "{kind}: memo hits");
        assert!(
            s.skeleton > 0,
            "{kind}: the workload must exercise the skeleton path"
        );

        // the counters also satisfy the dense-table accounting contract:
        // one probe per distinct cold (origin, origin) key, every repeat a
        // hit — the invariant that makes table and fallback interchangeable
        if kind == SchemeKind::Bfs {
            let mut distinct = std::collections::HashSet::new();
            let mut unresolved = 0u64;
            for &(u, v) in &pairs {
                let (a, b) = (&labels[u.index()], &labels[v.index()]);
                let split = (a.q2 < b.q2) != (a.q3 < b.q3);
                if !(split && a.q2 != b.q2 && a.q3 != b.q3) {
                    unresolved += 1;
                    distinct.insert((a.origin.raw(), b.origin.raw()));
                }
            }
            assert_eq!(s.skeleton, unresolved, "unresolved lane count");
            assert_eq!(
                s.skeleton_probes,
                distinct.len() as u64,
                "one miss per distinct key"
            );
            assert_eq!(
                s.memo_hits,
                unresolved - distinct.len() as u64,
                "every repeat is a hit"
            );
        }
    }
}

/// Below the cap, the *same* probe stream must produce identical answers
/// and memo counters whether the sweep uses its dense table (one wide
/// batch) or the scalar fallback (many batches too small to amortize the
/// table) — the fallback-parity guarantee from the table's side.
#[test]
fn dense_table_and_fallback_agree_on_the_same_stream() {
    const WIDTH: u32 = 600; // 600² = 360K cells: table-eligible...
    const N: usize = 2400;
    let labels = fallback_labels(N, WIDTH);
    let pairs = random_vertex_pairs(N, 24_000, 0x007A_B1E5);

    let tabled = QueryEngine::from_labels(&labels, chain_skeleton(WIDTH, SchemeKind::Bfs));
    let chunked = QueryEngine::from_labels(&labels, chain_skeleton(WIDTH, SchemeKind::Bfs));

    // ...for a 24K-pair batch (360K <= 24K·64), but not for 500-pair
    // chunks (360K > 500·64 = 32K), which take the scalar fallback
    let wide = tabled.answer_batch(&pairs);
    let mut narrow = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(500) {
        narrow.extend(chunked.answer_batch(chunk));
    }
    assert_eq!(wide, narrow, "table vs fallback answers");

    let t = tabled.stats();
    let c = chunked.stats();
    assert_eq!(t.context_only, c.context_only, "context split");
    assert_eq!(t.skeleton, c.skeleton, "skeleton split");
    assert_eq!(t.skeleton_probes, c.skeleton_probes, "memo misses");
    assert_eq!(t.memo_hits, c.memo_hits, "memo hits");
    assert!(t.memo_hits > 0, "the stream must contain repeated keys");
}
