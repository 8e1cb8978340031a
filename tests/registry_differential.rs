//! Differential property suite for the multi-spec [`ServiceRegistry`]: a
//! registry serving M specs must answer every mixed-spec probe
//! byte-identically to M independent [`FleetEngine`]s, under every
//! specification scheme — including pressure-driven eviction + lazy
//! reload cycles, interleaved live/frozen runs, and a million-probe
//! sweep through an on-disk snapshot directory.

use proptest::prelude::*;
use workflow_provenance::model::io::{plan_to_events, RunEvent};
use workflow_provenance::prelude::*;

/// Strategy over feasible generator configurations (mirrors
/// `tests/fleet_differential.rs`).
fn spec_config() -> impl Strategy<Value = SpecGenConfig> {
    (2usize..=6, any::<u64>(), 0usize..16, 0usize..12).prop_flat_map(
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

/// Mixed-spec probe traffic: uniformly random `(spec, run, u, v)` tuples
/// interleaved across every run of every spec, so one registry batch
/// routes through all the fleets.
fn mixed_spec_probes(
    books: &[(SpecId, Vec<(RunId, usize)>)],
    count: usize,
    seed: u64,
) -> Vec<(SpecId, RunId, RunVertexId, RunVertexId)> {
    let mut rng = workflow_provenance::graph::rng::Xoshiro256::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let (spec, runs) = &books[rng.gen_usize(books.len())];
            let (run, n) = runs[rng.gen_usize(runs.len())];
            (
                *spec,
                run,
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

/// Per-spec oracle: one independent fleet per spec, sharing nothing.
fn oracle_fleets<'s>(
    specs: &'s [Specification],
    fleets: &[Vec<GeneratedRun>],
) -> Vec<(FleetEngine<'s, SpecScheme>, Vec<RunId>)> {
    specs
        .iter()
        .zip(fleets)
        .enumerate()
        .map(|(i, (spec, gens))| {
            let kind = SchemeKind::ALL[i % SchemeKind::ALL.len()];
            let mut fleet = FleetEngine::for_spec(spec, SpecScheme::build(kind, spec.graph()));
            let ids = gens
                .iter()
                .map(|g| {
                    let (labels, _) = label_run(spec, &g.run).unwrap();
                    fleet.register_labels(&labels)
                })
                .collect();
            (fleet, ids)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Registry of M = 6 specs (one per scheme) ≡ 6 independent fleets on
    /// identical mixed traffic — then still byte-identical through a
    /// budget-0 eviction/lazy-reload churn and after lifting the budget.
    #[test]
    fn registry_answers_equal_independent_fleets(
        cfg in spec_config(),
        run_seed in any::<u64>(),
        probe_seed in any::<u64>(),
    ) {
        const M: usize = 6; // every scheme serves one spec
        const K: usize = 3;
        let specs: Vec<Specification> = (0..M as u64)
            .map(|i| {
                generate_spec_clamped(&SpecGenConfig {
                    seed: cfg.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..cfg
                })
                .unwrap()
            })
            .collect();
        let fleets: Vec<Vec<GeneratedRun>> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| generate_fleet(
                spec,
                run_seed ^ (i as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407),
                K,
                200,
            ))
            .collect();
        let oracles = oracle_fleets(&specs, &fleets);

        let mut registry = ServiceRegistry::new();
        let mut order = Vec::new();
        let mut books = Vec::new();
        for (i, (spec, gens)) in specs.iter().zip(&fleets).enumerate() {
            let kind = SchemeKind::ALL[i % SchemeKind::ALL.len()];
            let id = registry.register_spec(spec, kind).unwrap();
            prop_assert_eq!(registry.scheme(id), Some(kind));
            order.push(id);
            let mut runs = Vec::new();
            for g in gens {
                let (labels, _) = label_run(spec, &g.run).unwrap();
                let rid = registry.register_labels(id, &labels).unwrap();
                if g.run.vertex_count() > 0 {
                    runs.push((rid, g.run.vertex_count()));
                }
            }
            if !runs.is_empty() {
                books.push((id, runs));
            }
        }
        prop_assert!(!books.is_empty(), "generated fleets cannot all be empty");

        let probes = mixed_spec_probes(&books, 600, probe_seed);
        let expected: Vec<bool> = probes
            .iter()
            .map(|&(spec, run, u, v)| {
                // `order` is registration order, index-aligned with `oracles`
                let slot = order.iter().position(|&id| id == spec).unwrap();
                let (fleet, ids) = &oracles[slot];
                fleet.answer(ids[run.index()], u, v).unwrap()
            })
            .collect();

        prop_assert_eq!(&registry.answer_batch(&probes).unwrap(), &expected, "no budget");

        // budget 0: every shard's fleet is reloaded from its snapshot and
        // evicted again as soon as the next spec is served
        registry.set_budget(Some(0)).unwrap();
        prop_assert_eq!(&registry.answer_batch(&probes).unwrap(), &expected, "budget 0 churn");
        let stats = registry.stats();
        prop_assert!(stats.resident <= 1, "budget 0 keeps at most the last server");
        prop_assert!(stats.evictions > 0 && stats.lazy_loads > 0);

        // lifting the budget must not change a single answer
        registry.set_budget(None).unwrap();
        prop_assert_eq!(&registry.answer_batch(&probes).unwrap(), &expected, "budget lifted");
    }

    /// A registry interleaving frozen runs and in-flight live runs across
    /// several specs answers like each run's own engine; freezing in place
    /// keeps every answer, and only then does pressure eviction kick in.
    #[test]
    fn live_and_frozen_runs_interleave_across_specs(
        cfg in spec_config(),
        run_seed in any::<u64>(),
        probe_seed in any::<u64>(),
    ) {
        const M: usize = 3;
        const FROZEN: usize = 2;
        const LIVE: usize = 2;
        let specs: Vec<Specification> = (0..M as u64)
            .map(|i| {
                generate_spec_clamped(&SpecGenConfig {
                    seed: cfg.seed ^ i.wrapping_mul(0xD134_2543_DE82_EF95),
                    ..cfg
                })
                .unwrap()
            })
            .collect();
        let gens: Vec<Vec<GeneratedRun>> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                (0..(FROZEN + LIVE) as u64)
                    .map(|j| generate_run(spec, &RunGenConfig {
                        seed: run_seed
                            ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ j.wrapping_mul(0xA24B_AED4_963E_E407),
                        counts: CountDistribution::GeometricMean(0.6),
                    }))
                    .collect()
            })
            .collect();

        // per-run oracles over the *offline* labels
        let engines: Vec<Vec<QueryEngine<SpecScheme>>> = specs
            .iter()
            .zip(&gens)
            .enumerate()
            .map(|(i, (spec, runs))| {
                let kind = SchemeKind::ALL[i % SchemeKind::ALL.len()];
                runs.iter()
                    .map(|g| {
                        let (labels, _) = label_run(spec, &g.run).unwrap();
                        QueryEngine::from_labels(&labels, SpecScheme::build(kind, spec.graph()))
                    })
                    .collect()
            })
            .collect();

        let mut registry = ServiceRegistry::new();
        let mut spec_ids = Vec::new();
        let mut run_ids: Vec<Vec<RunId>> = Vec::new();
        let mut mappings: Vec<Vec<Option<Vec<RunVertexId>>>> = Vec::new();
        for (i, (spec, runs)) in specs.iter().zip(&gens).enumerate() {
            let kind = SchemeKind::ALL[i % SchemeKind::ALL.len()];
            let id = registry.register_spec(spec, kind).unwrap();
            spec_ids.push(id);
            let mut ids = Vec::new();
            let mut maps = Vec::new();
            for (j, g) in runs.iter().enumerate() {
                if j < FROZEN {
                    let (labels, _) = label_run(spec, &g.run).unwrap();
                    ids.push(registry.register_labels(id, &labels).unwrap());
                    maps.push(None);
                } else {
                    let (events, mapping) = plan_to_events(&g.run, &g.plan);
                    let rid = registry.begin_live(id, spec).unwrap();
                    replay(registry.live_mut(id, rid).unwrap(), &events);
                    ids.push(rid);
                    maps.push(Some(mapping));
                }
            }
            run_ids.push(ids);
            mappings.push(maps);
        }

        let books: Vec<(SpecId, Vec<(RunId, usize)>)> = spec_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                (
                    id,
                    run_ids[i]
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| gens[i][j].run.vertex_count() > 0)
                        .map(|(j, &rid)| (rid, gens[i][j].run.vertex_count()))
                        .collect::<Vec<_>>(),
                )
            })
            .filter(|(_, runs)| !runs.is_empty())
            .collect();
        prop_assert!(!books.is_empty());

        let probes = mixed_spec_probes(&books, 400, probe_seed);
        let expected: Vec<bool> = probes
            .iter()
            .map(|&(spec, run, u, v)| {
                let i = spec_ids.iter().position(|&s| s == spec).unwrap();
                let j = run_ids[i].iter().position(|&r| r == run).unwrap();
                match &mappings[i][j] {
                    None => engines[i][j].answer(u, v),
                    Some(map) => engines[i][j].answer(map[u.index()], map[v.index()]),
                }
            })
            .collect();
        prop_assert_eq!(&registry.answer_batch(&probes).unwrap(), &expected, "mixed live+frozen");

        // live runs pin their fleets: a starvation budget evicts nothing
        registry.set_budget(Some(0)).unwrap();
        prop_assert_eq!(registry.stats().resident, M, "live fleets are pinned");
        prop_assert_eq!(registry.stats().evictions, 0);

        // freeze in place: ids stay valid, answers stay identical — and
        // the fleets become evictable, so the budget now bites
        for (i, &id) in spec_ids.iter().enumerate() {
            for (j, &rid) in run_ids[i].iter().enumerate() {
                if mappings[i][j].is_some() {
                    registry.freeze_run(id, rid).unwrap();
                }
            }
        }
        registry.set_budget(Some(0)).unwrap();
        prop_assert!(registry.stats().resident <= 1, "frozen fleets are evictable");
        prop_assert_eq!(&registry.answer_batch(&probes).unwrap(), &expected, "post-freeze churn");
    }
}

/// The acceptance sweep: six specs — one per scheme — serving a million
/// mixed-spec probes, answered byte-identically by the registry
/// (in-memory), by six independent fleets, and by a registry lazily
/// reloaded from an on-disk snapshot directory under a budget tight
/// enough to force continuous eviction/reload cycles.
#[test]
fn million_probe_sweep_survives_disk_roundtrip_and_eviction() {
    const CHUNK: usize = 20_000;
    const CHUNKS: usize = 50; // 10^6 probes total

    let generated = generate_registry(0xB405_D4A1, SchemeKind::ALL.len(), 4, 400);
    let oracles = oracle_fleets(&generated.specs, &generated.fleets);

    let mut registry = ServiceRegistry::new();
    let mut books = Vec::new();
    for (i, (spec, gens)) in generated.specs.iter().zip(&generated.fleets).enumerate() {
        let id = registry.register_spec(spec, SchemeKind::ALL[i]).unwrap();
        let mut runs = Vec::new();
        for g in gens {
            let (labels, _) = label_run(spec, &g.run).unwrap();
            let rid = registry.register_labels(id, &labels).unwrap();
            if g.run.vertex_count() > 0 {
                runs.push((rid, g.run.vertex_count()));
            }
        }
        assert!(!runs.is_empty(), "spec {i} generated only empty runs");
        books.push((id, runs));
    }
    let slot_of = |spec: SpecId| books.iter().position(|(id, _)| *id == spec).unwrap();

    // one probe set, answered three ways
    let chunks: Vec<Vec<(SpecId, RunId, RunVertexId, RunVertexId)>> = (0..CHUNKS as u64)
        .map(|c| {
            mixed_spec_probes(
                &books,
                CHUNK,
                0xF1EE ^ c.wrapping_mul(0x2545_F491_4F6C_DD1D),
            )
        })
        .collect();
    let expected: Vec<Vec<bool>> = chunks
        .iter()
        .map(|chunk| {
            chunk
                .iter()
                .map(|&(spec, run, u, v)| {
                    let (fleet, ids) = &oracles[slot_of(spec)];
                    fleet.answer(ids[run.index()], u, v).unwrap()
                })
                .collect()
        })
        .collect();

    for (chunk, want) in chunks.iter().zip(&expected) {
        assert_eq!(
            &registry.answer_batch(chunk).unwrap(),
            want,
            "in-memory registry"
        );
    }

    // persist, reopen lazily with a budget that holds ~2 fleets, and
    // re-answer the identical traffic: every chunk hits offloaded fleets
    let dir =
        std::env::temp_dir().join(format!("wfp-registry-differential-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    registry.save_dir(&dir).unwrap();
    let budget = registry.resident_bytes() / 3;
    let mut reloaded = ServiceRegistry::open_dir(&dir, Some(budget)).unwrap();
    assert_eq!(reloaded.len(), SchemeKind::ALL.len());
    assert_eq!(reloaded.stats().resident, 0, "open_dir is lazy");

    for (chunk, want) in chunks.iter().zip(&expected) {
        assert_eq!(
            &reloaded.answer_batch(chunk).unwrap(),
            want,
            "reloaded registry"
        );
    }
    let stats = reloaded.stats();
    assert!(
        stats.resident_bytes <= budget,
        "steady state respects the budget: {} > {budget}",
        stats.resident_bytes
    );
    assert!(stats.evictions >= CHUNKS as u64, "budget forces churn");
    assert!(stats.lazy_loads > stats.evictions, "every eviction reloads");
    let _ = std::fs::remove_dir_all(&dir);
}
