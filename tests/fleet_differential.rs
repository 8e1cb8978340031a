//! Differential property suite for the fleet engine: a [`FleetEngine`]
//! serving K runs off **one** shared [`SpecContext`] must answer every
//! cross-run probe byte-identically to K independent per-run
//! [`QueryEngine`]s, under every specification scheme — including mixed
//! frozen + live registries, in-place freezes and post-eviction queries.

use proptest::prelude::*;
use workflow_provenance::model::io::{plan_to_events, RunEvent};
use workflow_provenance::prelude::*;
use workflow_provenance::skl::fleet::FleetError;

/// Strategy over feasible generator configurations (mirrors
/// `tests/properties.rs`).
fn spec_config() -> impl Strategy<Value = SpecGenConfig> {
    (2usize..=7, any::<u64>(), 0usize..20, 0usize..15).prop_flat_map(
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

/// Mixed cross-run probe traffic: uniformly random `(run, u, v)` triples,
/// interleaved across the runs so one fleet batch touches all of them.
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

fn replay(live: &mut LiveRun<'_, SpecScheme>, events: &[RunEvent]) {
    for ev in events {
        match *ev {
            RunEvent::BeginGroup(sg) => live.begin_group(sg).unwrap(),
            RunEvent::BeginCopy => live.begin_copy().unwrap(),
            RunEvent::Exec(m) => {
                live.exec(m).unwrap();
            }
            RunEvent::EndCopy => live.end_copy().unwrap(),
            RunEvent::EndGroup => live.end_group().unwrap(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Frozen fleet of K ≥ 8 runs ≡ K independent engines, across all 6
    /// schemes, with one `SpecContext` provably shared — then still
    /// correct after an eviction.
    #[test]
    fn fleet_answers_equal_independent_engines(
        cfg in spec_config(),
        run_seed in any::<u64>(),
        scheme_idx in 0usize..SchemeKind::ALL.len(),
        probe_seed in any::<u64>(),
    ) {
        let kind = SchemeKind::ALL[scheme_idx];
        let spec = generate_spec_clamped(&cfg).unwrap();
        const K: usize = 8;
        let runs: Vec<Run> = (0..K as u64)
            .map(|i| generate_run(&spec, &RunGenConfig {
                seed: run_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                counts: CountDistribution::GeometricMean(0.8),
            }).run)
            .collect();
        let labels: Vec<Vec<RunLabel>> = runs
            .iter()
            .map(|run| label_run(&spec, run).unwrap().0)
            .collect();

        // the fleet: one shared context for every run
        let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
        let ids: Vec<RunId> = labels.iter().map(|l| fleet.register_labels(l)).collect();
        // the baseline: K engines, each owning a private skeleton + memo
        let engines: Vec<QueryEngine<SpecScheme>> = labels
            .iter()
            .map(|l| QueryEngine::from_labels(l, SpecScheme::build(kind, spec.graph())))
            .collect();

        let sizes: Vec<usize> = runs.iter().map(Run::vertex_count).collect();
        let probes = mixed_probes(&ids, &sizes, 400, probe_seed);
        let expected: Vec<bool> = probes
            .iter()
            .map(|&(id, u, v)| {
                let which = ids.iter().position(|&i| i == id).unwrap();
                engines[which].answer(u, v)
            })
            .collect();

        let fleet_answers = fleet.answer_batch(&probes).unwrap();
        prop_assert_eq!(&fleet_answers, &expected, "fleet under {}", kind);

        // the sharing is provable: K runs, one context, one spec-state copy
        let stats = fleet.stats();
        prop_assert_eq!(stats.packed, K);
        prop_assert_eq!(stats.context_refs, 1);
        prop_assert_eq!(stats.spec_bytes_if_per_run, K * stats.spec_bytes);

        // evict one run: its probes error, everything else stays correct
        let victim = ids[ids.len() / 2];
        fleet.evict(victim).unwrap();
        prop_assert!(matches!(
            fleet.answer_batch(&probes),
            Err(FleetError::Evicted(_))
        ));
        let survivors: Vec<_> = probes
            .iter()
            .copied()
            .filter(|&(id, _, _)| id != victim)
            .collect();
        let expected_survivors: Vec<bool> = probes
            .iter()
            .zip(&expected)
            .filter(|((id, _, _), _)| *id != victim)
            .map(|(_, &e)| e)
            .collect();
        prop_assert_eq!(
            fleet.answer_batch(&survivors).unwrap(),
            expected_survivors,
            "post-eviction fleet under {}",
            kind
        );
        prop_assert_eq!(fleet.stats().packed, K - 1);
        prop_assert_eq!(fleet.stats().evicted, 1);
    }

    /// A registry mixing frozen runs with in-flight live runs answers like
    /// each run's own engine (live probes checked against the offline
    /// labels through the exec-order mapping), and in-place freezes keep
    /// every answer.
    #[test]
    fn mixed_frozen_live_registry_matches_per_run_engines(
        cfg in spec_config(),
        run_seed in any::<u64>(),
        scheme_idx in 0usize..SchemeKind::ALL.len(),
        probe_seed in any::<u64>(),
    ) {
        let kind = SchemeKind::ALL[scheme_idx];
        let spec = generate_spec_clamped(&cfg).unwrap();
        const FROZEN: usize = 5;
        const LIVE: usize = 3;
        let gens: Vec<GeneratedRun> = (0..(FROZEN + LIVE) as u64)
            .map(|i| generate_run(&spec, &RunGenConfig {
                seed: run_seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407),
                counts: CountDistribution::GeometricMean(0.6),
            }))
            .collect();

        let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
        // per-run oracles over the *offline* labels
        let engines: Vec<QueryEngine<SpecScheme>> = gens
            .iter()
            .map(|g| {
                let (labels, _) = label_run(&spec, &g.run).unwrap();
                QueryEngine::from_labels(&labels, SpecScheme::build(kind, spec.graph()))
            })
            .collect();

        // first FROZEN registered from labels; the rest ingested live
        // (fully streamed but never frozen), exec-order ids mapped back to
        // offline vertex ids for the oracle
        let mut ids = Vec::new();
        let mut mappings: Vec<Option<Vec<RunVertexId>>> = Vec::new();
        for (i, g) in gens.iter().enumerate() {
            if i < FROZEN {
                let (labels, _) = label_run(&spec, &g.run).unwrap();
                ids.push(fleet.register_labels(&labels));
                mappings.push(None);
            } else {
                let (events, mapping) = plan_to_events(&g.run, &g.plan);
                let id = fleet.begin_live(&spec);
                replay(fleet.live_mut(id).unwrap(), &events);
                ids.push(id);
                mappings.push(Some(mapping));
            }
        }
        prop_assert_eq!(fleet.stats().packed, FROZEN);
        prop_assert_eq!(fleet.stats().live, LIVE);
        // each live labeler holds one extra context reference
        prop_assert_eq!(fleet.stats().context_refs, 1 + LIVE);

        let sizes: Vec<usize> = gens.iter().map(|g| g.run.vertex_count()).collect();
        let probes = mixed_probes(&ids, &sizes, 300, probe_seed);
        let expected: Vec<bool> = probes
            .iter()
            .map(|&(id, u, v)| {
                let which = ids.iter().position(|&i| i == id).unwrap();
                match &mappings[which] {
                    None => engines[which].answer(u, v),
                    Some(map) => engines[which].answer(map[u.index()], map[v.index()]),
                }
            })
            .collect();
        prop_assert_eq!(
            &fleet.answer_batch(&probes).unwrap(),
            &expected,
            "mixed frozen+live fleet under {}",
            kind
        );

        // freeze the live runs in place: ids stay valid, vertex ids stay
        // in exec order (the frozen labels are extracted per execution),
        // so the identical probe set must keep its answers
        for (i, &id) in ids.iter().enumerate() {
            if mappings[i].is_some() {
                fleet.freeze_run(id).unwrap();
            }
        }
        prop_assert_eq!(fleet.stats().live, 0);
        prop_assert_eq!(fleet.stats().context_refs, 1, "labeler refs released");
        prop_assert_eq!(
            &fleet.answer_batch(&probes).unwrap(),
            &expected,
            "post-freeze fleet under {}",
            kind
        );
    }
}
