//! Differential + adversarial property suite for the unified snapshot
//! layer (`wfp_skl::snapshot`): a saved-and-loaded [`FleetEngine`] must
//! answer mixed cross-run probe traffic **byte-identically** to the
//! original under every specification scheme (with the warm memo carried
//! across the restart), and the container itself must reject every
//! truncation, bit flip, wrong magic and wrong version with a typed error
//! — never a panic, never an attacker-sized allocation.

use proptest::prelude::*;
use workflow_provenance::prelude::*;
use workflow_provenance::skl::snapshot::{self, FormatError, SnapshotReader};

/// Mixed cross-run probe traffic, interleaved across the runs.
fn mixed_probes(
    ids: &[RunId],
    sizes: &[usize],
    count: usize,
    seed: u64,
) -> Vec<(RunId, RunVertexId, RunVertexId)> {
    let mut rng = workflow_provenance::graph::rng::Xoshiro256::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let which = rng.gen_usize(ids.len());
            let n = sizes[which];
            (
                ids[which],
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect()
}

fn eight_run_fleet(
    spec: &Specification,
    kind: SchemeKind,
    runs: &[Run],
) -> (FleetEngine<'static, SpecScheme>, Vec<RunId>, Vec<usize>) {
    let mut fleet = FleetEngine::new(
        SpecContext::for_spec(spec, SpecScheme::build(kind, spec.graph())).shared(),
    );
    let ids: Vec<RunId> = runs
        .iter()
        .map(|run| {
            let (labels, _) = label_run(spec, run).unwrap();
            fleet.register_labels(&labels)
        })
        .collect();
    let sizes: Vec<usize> = runs.iter().map(Run::vertex_count).collect();
    (fleet, ids, sizes)
}

/// The acceptance-criteria differential: an 8-run fleet is saved and
/// restored under **all 6 schemes**, and the restored fleet answers the
/// same ≥10⁶ mixed probes (in total across the schemes) byte-identically,
/// with the warm `SharedMemo` snapshot preserved across the restart.
#[test]
fn restored_fleet_is_byte_identical_over_a_million_probes() {
    let cfg = SpecGenConfig {
        modules: 60,
        edges: 100,
        hierarchy_size: 8,
        hierarchy_depth: 3,
        seed: 41,
    };
    let spec = generate_spec_clamped(&cfg).unwrap();
    let runs: Vec<Run> = generate_fleet(&spec, 5, 8, 300)
        .into_iter()
        .map(|g| g.run)
        .collect();
    let mut total_probes = 0usize;
    for &kind in &SchemeKind::ALL {
        let (fleet, ids, sizes) = eight_run_fleet(&spec, kind, &runs);
        let probes = mixed_probes(&ids, &sizes, 175_000, 0xC0FF_EE00 ^ kind as u64);
        total_probes += probes.len();
        let original = fleet.answer_batch(&probes).unwrap();
        let warm_before = fleet.context().memo().warm_entries();

        let bytes = fleet.save(spec.graph()).unwrap();
        let (restored, graph) = FleetEngine::load(&bytes).unwrap();
        assert_eq!(graph.edges(), spec.graph().edges(), "{kind}");
        assert_eq!(restored.stats().packed, 8, "{kind}");
        assert_eq!(
            restored.answer_batch(&probes).unwrap(),
            original,
            "{kind}: restored fleet diverged"
        );
        // the warm snapshot came back verbatim: the same traffic re-runs
        // without a single fresh skeleton probe
        assert_eq!(
            restored.context().memo().warm_entries(),
            warm_before,
            "{kind}"
        );
        assert_eq!(
            restored.stats().engine.skeleton_probes,
            0,
            "{kind}: restart re-probed the skeleton"
        );
    }
    assert!(total_probes >= 1_000_000, "probe budget: {total_probes}");
}

/// Wrong magic and wrong container version are typed rejections at every
/// load entry point.
#[test]
fn wrong_magic_and_version_are_rejected() {
    let spec = workflow_provenance::model::fixtures::paper_spec();
    let run = workflow_provenance::model::fixtures::paper_run(&spec);
    let (fleet, _, _) = eight_run_fleet(&spec, SchemeKind::Tcm, std::slice::from_ref(&run));
    let bytes = fleet.save(spec.graph()).unwrap();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        FleetEngine::load(&bad_magic),
        Err(FormatError::BadMagic)
    ));
    let mut bad_version = bytes.clone();
    bad_version[4] = 0x7F;
    assert!(matches!(
        FleetEngine::load(&bad_version),
        Err(FormatError::UnsupportedVersion(0x007F))
    ));
    assert!(matches!(
        SpecContext::<SpecScheme>::load(&bad_version),
        Err(FormatError::UnsupportedVersion(_))
    ));
    // a valid container missing the fleet manifest is a typed miss
    let spec_only = fleet.context().save(spec.graph());
    assert!(matches!(
        FleetEngine::load(&spec_only),
        Err(FormatError::MissingSegment { .. })
    ));
}

/// A saved `SpecContext` restores the skeleton (rebuilt deterministically)
/// and the warm memo verbatim, under every scheme.
#[test]
fn spec_context_round_trips_warm_under_every_scheme() {
    let spec = workflow_provenance::model::fixtures::paper_spec();
    let n = spec.module_count() as u32;
    for &kind in &SchemeKind::ALL {
        let ctx = SpecContext::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
        // warm every origin pair
        let expected: Vec<bool> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| ctx.reaches(a, b))
            .collect();
        let bytes = ctx.save(spec.graph());
        let (loaded, graph) = SpecContext::<SpecScheme>::load(&bytes).unwrap();
        assert_eq!(graph.edges(), spec.graph().edges());
        assert_eq!(
            loaded.memo().warm_entries(),
            ctx.memo().warm_entries(),
            "{kind}"
        );
        let restored: Vec<bool> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| loaded.reaches(a, b))
            .collect();
        assert_eq!(restored, expected, "{kind}");
        if loaded.probe_memo().is_some() {
            assert_eq!(
                loaded.memo().probes(),
                0,
                "{kind}: restored context re-probed its skeleton"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Truncation at every byte offset and single-bit flips over the whole
    /// container: every mutilation of a real fleet snapshot must come back
    /// as a typed error — parse never panics and never accepts corrupt
    /// state (the structure CRC covers the header/table, per-segment CRCs
    /// cover the payloads).
    #[test]
    fn container_mutations_never_panic_and_never_pass(
        seed in any::<u64>(),
        scheme_idx in 0usize..SchemeKind::ALL.len(),
    ) {
        let cfg = SpecGenConfig {
            modules: 14,
            edges: 20,
            hierarchy_size: 4,
            hierarchy_depth: 3,
            seed,
        };
        let spec = generate_spec_clamped(&cfg).unwrap();
        let runs: Vec<Run> = generate_fleet(&spec, seed ^ 1, 2, 40)
            .into_iter()
            .map(|g| g.run)
            .collect();
        let kind = SchemeKind::ALL[scheme_idx];
        let (fleet, ids, sizes) = eight_run_fleet(&spec, kind, &runs);
        // warm the memo so the snapshot carries nontrivial cells
        fleet.answer_batch(&mixed_probes(&ids, &sizes, 500, seed ^ 2)).unwrap();
        let bytes = fleet.save(spec.graph()).unwrap();
        prop_assert!(FleetEngine::load(&bytes).is_ok());

        for len in 0..bytes.len() {
            prop_assert!(
                FleetEngine::load(&bytes[..len]).is_err(),
                "prefix of {} bytes loaded", len
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
            }
        }
    }

    /// CRC-consistent structural corruption (forged after the checksums)
    /// is still rejected by the segment readers' guards: oversized counts
    /// never allocate, missing run segments never misalign.
    #[test]
    fn forged_segments_hit_the_structural_guards(seed in any::<u64>()) {
        let cfg = SpecGenConfig {
            modules: 14,
            edges: 20,
            hierarchy_size: 4,
            hierarchy_depth: 3,
            seed,
        };
        let spec = generate_spec_clamped(&cfg).unwrap();
        let runs: Vec<Run> = generate_fleet(&spec, seed ^ 1, 2, 40)
            .into_iter()
            .map(|g| g.run)
            .collect();
        let (fleet, _, _) = eight_run_fleet(&spec, SchemeKind::Bfs, &runs);
        let bytes = fleet.save(spec.graph()).unwrap();
        let r = SnapshotReader::parse(&bytes).unwrap();

        // a packed-columns header claiming 2^40 vertices (the count sits
        // at bytes 24..32 of the header)
        let mut w = snapshot::SnapshotWriter::new();
        let mut dropped_one_run = snapshot::SnapshotWriter::new();
        let mut seen_run = false;
        for &(kind, payload) in r.segments() {
            if kind == snapshot::seg::PACKED_COLUMNS_ALIGNED && !seen_run {
                seen_run = true;
                let mut evil = payload.to_vec();
                evil[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
                w.push(kind, evil);
                // and separately: drop the segment entirely
                continue;
            }
            w.push(kind, payload.to_vec());
            dropped_one_run.push(kind, payload.to_vec());
        }
        prop_assert_eq!(
            FleetEngine::load(&w.finish()).err(),
            Some(FormatError::Malformed("packed columns exceed the vertex id space"))
        );
        prop_assert!(matches!(
            FleetEngine::load(&dropped_one_run.finish()),
            Err(FormatError::Malformed(_))
        ));

        // a structurally valid run whose origin column points outside the
        // specification graph must be rejected at load, not panic on the
        // first skeleton probe; nothing validates origins at registration,
        // so a fleet saves such a run as it is
        let (mut forged, _, _) = eight_run_fleet(&spec, SchemeKind::Bfs, &[]);
        forged.register_labels(&[RunLabel {
            q1: 1,
            q2: 1,
            q3: 1,
            origin: ModuleId(9_999),
        }]);
        prop_assert_eq!(
            FleetEngine::load(&forged.save(spec.graph()).unwrap()).err(),
            Some(FormatError::Malformed("run origin outside the specification graph"))
        );
    }
}

/// A forged spec record containing a cycle must be a typed error: the
/// schemes' builders assume a DAG (Chain's topological sweep would panic).
#[test]
fn cyclic_spec_record_is_rejected_not_built() {
    // scheme tag 4 = Chain; graph 0 -> 1 -> 0
    let mut spec_payload = vec![4u8];
    snapshot::put_varint(&mut spec_payload, 2); // vertices
    snapshot::put_varint(&mut spec_payload, 2); // edges
    for (from, to) in [(0u64, 1u64), (1, 0)] {
        snapshot::put_varint(&mut spec_payload, from);
        snapshot::put_varint(&mut spec_payload, to);
    }
    let mut memo_payload = Vec::new();
    snapshot::put_varint(&mut memo_payload, 0); // empty warm tier
    let mut w = snapshot::SnapshotWriter::new();
    w.push(snapshot::seg::SPEC_LABELING, spec_payload);
    w.push(snapshot::seg::MEMO_WARM, memo_payload);
    assert!(matches!(
        SpecContext::<SpecScheme>::load(&w.finish()),
        Err(FormatError::Malformed(_))
    ));
}
