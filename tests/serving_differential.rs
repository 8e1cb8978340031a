//! Differential acceptance suite for the request/response serving loop
//! (`wfp_skl::serve`): answers routed through the admission queue, the
//! coalescing dispatch thread, and per-request reply channels must be
//! byte-identical to the same probes driven straight through
//! [`ServiceRegistry::answer_batch`] — across 10^5+ probes from four
//! concurrent clients, under an eviction-forcing byte budget, with all
//! six specification schemes serving and live runs frozen mid-stream
//! through the control plane.

use std::time::Duration;

use workflow_provenance::model::io::{plan_to_events, RunEvent};
use workflow_provenance::prelude::*;

/// Probes per request: clients submit small vectors, as the serving API
/// is designed for, so coalescing in the admission window is what builds
/// the registry-sized batches.
const PROBES_PER_REQUEST: usize = 60;
const TOTAL_PROBES: usize = 120_000;
const CLIENTS: usize = 4;

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

/// Builds one registry from the shared payload. Both the oracle (on the
/// test thread) and the served registry (inside the dispatch thread) are
/// constructed by this same function, so any divergence in answers is the
/// serving path's fault — spec ids are content-hashed and run ids are
/// registration-ordered, hence identical on both sides.
fn build_registry(
    specs: &'static [Specification],
    frozen_labels: &[Vec<Vec<RunLabel>>],
    live_events: &[(usize, Vec<RunEvent>)],
) -> (ServiceRegistry<'static>, Vec<SpecId>, Vec<(SpecId, RunId)>) {
    let mut registry = ServiceRegistry::new();
    let mut spec_ids = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let id = registry
            .register_spec(spec, SchemeKind::ALL[i % SchemeKind::ALL.len()])
            .unwrap();
        for labels in &frozen_labels[i] {
            registry.register_labels(id, labels).unwrap();
        }
        spec_ids.push(id);
    }
    let mut live = Vec::new();
    for (i, events) in live_events {
        let id = spec_ids[*i];
        let rid = registry.begin_live(id, &specs[*i]).unwrap();
        replay(registry.live_mut(id, rid).unwrap(), events);
        live.push((id, rid));
    }
    (registry, spec_ids, live)
}

/// The acceptance sweep for PR 8: 120k probes, 4 clients, 6 schemes,
/// budget-forced eviction churn, live runs frozen mid-stream.
#[test]
fn served_answers_equal_direct_registry_under_pressure_and_freezes() {
    const SPECS: usize = 6; // one per scheme
    const FROZEN_RUNS: usize = 3;
    // live runs ride on two specs; the other four are evictable from the
    // first batch, so the budget churns while the stream is in flight
    const LIVE_ON: [usize; 2] = [0, 3];

    let generated = generate_registry(0x5E21_7A11, SPECS, FROZEN_RUNS, 400);
    let specs: &'static [Specification] = Box::leak(generated.specs.into_boxed_slice());

    let frozen_labels: Vec<Vec<Vec<RunLabel>>> = specs
        .iter()
        .zip(&generated.fleets)
        .map(|(spec, gens)| {
            gens.iter()
                .map(|g| label_run(spec, &g.run).unwrap().0)
                .collect()
        })
        .collect();

    let live_gens: Vec<(usize, GeneratedRun)> = LIVE_ON
        .iter()
        .map(|&i| {
            (
                i,
                generate_run(
                    &specs[i],
                    &RunGenConfig {
                        seed: 0xA24B_AED4 ^ (i as u64 + 1),
                        counts: CountDistribution::GeometricMean(0.6),
                    },
                ),
            )
        })
        .collect();
    let live_events: Vec<(usize, Vec<RunEvent>)> = live_gens
        .iter()
        .map(|(i, g)| (*i, plan_to_events(&g.run, &g.plan).0))
        .collect();

    // --- oracle: same payload, no budget, probed directly ---------------
    let (mut oracle, spec_ids, oracle_live) = build_registry(specs, &frozen_labels, &live_events);

    let mut books: Vec<(SpecId, Vec<(RunId, usize)>)> = Vec::new();
    for (i, &id) in spec_ids.iter().enumerate() {
        let mut runs: Vec<(RunId, usize)> = Vec::new();
        let fleet = oracle
            .fleet(id)
            .expect("freshly built registries are resident");
        for rid in fleet.run_ids().collect::<Vec<_>>() {
            let n = fleet.vertex_count(rid).unwrap();
            if n > 0 {
                runs.push((rid, n));
            }
        }
        assert!(!runs.is_empty(), "spec {i} generated only empty runs");
        books.push((id, runs));
    }

    let traffic = mixed_spec_probes(&books, TOTAL_PROBES, 0xF1EE_D0D0);
    let expected = oracle.answer_batch(&traffic).unwrap();

    // --- served: identical payload behind the admission loop ------------
    let config = ServeConfig {
        max_batch: 4096,
        window: Duration::from_micros(150),
        queue_cap: 64,
    };
    let frozen_for_builder = frozen_labels.clone();
    let live_for_builder = live_events.clone();
    let server = serve_sharded(config, 1, ShardPlan::new(), move |_, _| {
        let (mut registry, _, live) = build_registry(specs, &frozen_for_builder, &live_for_builder);
        // live fleets are pinned; the four live-free fleets churn at once
        let budget = registry.resident_bytes() / 3;
        registry.set_budget(Some(budget))?;
        Ok((registry, live))
    })
    .unwrap();
    let served_live = server.contexts()[0].clone();
    assert_eq!(
        served_live, oracle_live,
        "content-hashed ids must agree between oracle and served registry"
    );

    let requests: Vec<&[(SpecId, RunId, RunVertexId, RunVertexId)]> =
        traffic.chunks(PROBES_PER_REQUEST).collect();
    let mut served: Vec<Option<Vec<bool>>> = vec![None; requests.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = server.handle();
                let requests = &requests;
                scope.spawn(move || {
                    let mut answered = Vec::new();
                    for j in (c..requests.len()).step_by(CLIENTS) {
                        // closed loop: at most CLIENTS requests are ever
                        // outstanding, so queue_cap 64 never sheds
                        let answers = handle.probe_vec(requests[j].to_vec()).unwrap();
                        answered.push((j, answers));
                    }
                    answered
                })
            })
            .collect();

        // mid-stream, through the control plane: freeze every live run
        // while the clients are pounding the queue — answers must not move
        for (spec, rid) in served_live {
            std::thread::sleep(Duration::from_millis(3));
            server
                .control_shard(0, move |reg| reg.freeze_run(spec, rid))
                .expect("control plane alive")
                .expect("freeze_run succeeds mid-serve");
        }

        for worker in workers {
            for (j, answers) in worker.join().expect("client thread") {
                served[j] = Some(answers);
            }
        }
    });

    let served: Vec<bool> = served
        .into_iter()
        .enumerate()
        .flat_map(|(j, a)| a.unwrap_or_else(|| panic!("request {j} was never answered")))
        .collect();
    assert_eq!(
        served, expected,
        "served answers must be byte-identical to direct answer_batch"
    );

    // every answer accounted for, every scheme exercised, budget churned
    let registry_stats = server.control_shard(0, |reg| reg.stats()).unwrap();
    let stats = server.shutdown().unwrap().merged;
    assert_eq!(stats.probes_answered, TOTAL_PROBES as u64);
    assert_eq!(stats.probes_failed, 0);
    assert_eq!(stats.requests, requests.len() as u64);
    for kind in SchemeKind::ALL {
        assert!(
            stats.scheme(kind).probes > 0,
            "{kind:?} must have served probes"
        );
    }
    assert!(
        registry_stats.evictions > 0 && registry_stats.lazy_loads > 0,
        "the budget must force eviction/reload churn while serving: {registry_stats:?}"
    );

    // post-freeze answers stay identical on the oracle as well (sanity
    // that freezing, not the serving path, is answer-preserving)
    for (spec, rid) in oracle_live {
        oracle.freeze_run(spec, rid).unwrap();
    }
    assert_eq!(oracle.answer_batch(&traffic).unwrap(), expected);
}

/// Builds the slice of the shared payload that `plan` routes to `shard`:
/// the shard-side twin of [`build_registry`]. Spec ids are content-hashed
/// and run ids are registration-ordered per fleet, so the ids a shard
/// assigns agree with the all-in-one oracle.
fn build_shard_registry(
    specs: &'static [Specification],
    frozen_labels: &[Vec<Vec<RunLabel>>],
    live_events: &[(usize, Vec<RunEvent>)],
    plan: &ShardPlan,
    shard: usize,
    shards: usize,
) -> (ServiceRegistry<'static>, Vec<(SpecId, RunId)>) {
    let mut registry = ServiceRegistry::new();
    let mut live = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let kind = SchemeKind::ALL[i % SchemeKind::ALL.len()];
        if plan.shard_of(SpecId::of(kind, spec.graph()), shards) != shard {
            continue;
        }
        let id = registry.register_spec(spec, kind).unwrap();
        for labels in &frozen_labels[i] {
            registry.register_labels(id, labels).unwrap();
        }
        for (j, events) in live_events {
            if *j == i {
                let rid = registry.begin_live(id, &specs[i]).unwrap();
                replay(registry.live_mut(id, rid).unwrap(), events);
                live.push((id, rid));
            }
        }
    }
    (registry, live)
}

/// The acceptance sweep for PR 9: the same 120k-probe / 4-client /
/// 6-scheme / eviction-churn / mid-stream-freeze gauntlet, but served by
/// four dispatch shards, each owning only the registry slice the
/// spec-affinity plan routes to it. Answers must still be byte-identical
/// to one flat registry probed directly.
#[test]
fn sharded_served_answers_equal_direct_registry_under_pressure_and_freezes() {
    const SPECS: usize = 6; // one per scheme
    const FROZEN_RUNS: usize = 3;
    const LIVE_ON: [usize; 2] = [0, 3];
    const SHARDS: usize = 4;

    let generated = generate_registry(0x5EED_BA05, SPECS, FROZEN_RUNS, 400);
    let specs: &'static [Specification] = Box::leak(generated.specs.into_boxed_slice());

    let frozen_labels: Vec<Vec<Vec<RunLabel>>> = specs
        .iter()
        .zip(&generated.fleets)
        .map(|(spec, gens)| {
            gens.iter()
                .map(|g| label_run(spec, &g.run).unwrap().0)
                .collect()
        })
        .collect();
    let live_events: Vec<(usize, Vec<RunEvent>)> = LIVE_ON
        .iter()
        .map(|&i| {
            let g = generate_run(
                &specs[i],
                &RunGenConfig {
                    seed: 0xD1FF_BA05 ^ (i as u64 + 1),
                    counts: CountDistribution::GeometricMean(0.6),
                },
            );
            (i, plan_to_events(&g.run, &g.plan).0)
        })
        .collect();

    // --- oracle: one flat registry with every spec, probed directly -----
    let (mut oracle, spec_ids, oracle_live) = build_registry(specs, &frozen_labels, &live_events);
    let mut books: Vec<(SpecId, Vec<(RunId, usize)>)> = Vec::new();
    for (i, &id) in spec_ids.iter().enumerate() {
        let fleet = oracle
            .fleet(id)
            .expect("freshly built registries are resident");
        let runs: Vec<(RunId, usize)> = fleet
            .run_ids()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|rid| (rid, fleet.vertex_count(rid).unwrap()))
            .filter(|&(_, n)| n > 0)
            .collect();
        assert!(!runs.is_empty(), "spec {i} generated only empty runs");
        books.push((id, runs));
    }
    let traffic = mixed_spec_probes(&books, TOTAL_PROBES, 0xF1EE_D0D1);
    let expected = oracle.answer_batch(&traffic).unwrap();

    let plan = ShardPlan::new();
    let homes: std::collections::HashSet<usize> = spec_ids
        .iter()
        .map(|&id| plan.shard_of(id, SHARDS))
        .collect();
    assert!(
        homes.len() >= 2,
        "the hash placement must actually spread this payload: {homes:?}"
    );

    // --- served: the same payload split across four shard registries ----
    let config = ServeConfig {
        max_batch: 4096,
        window: Duration::from_micros(150),
        queue_cap: 64,
    };
    let frozen_for_builder = frozen_labels.clone();
    let live_for_builder = live_events.clone();
    let builder_plan = plan.clone();
    let server = serve_sharded(config, SHARDS, plan.clone(), move |shard, shards| {
        let (mut registry, live) = build_shard_registry(
            specs,
            &frozen_for_builder,
            &live_for_builder,
            &builder_plan,
            shard,
            shards,
        );
        // shards holding more than one fleet churn under their own budget
        let resident = registry.resident_bytes();
        if resident > 0 {
            registry.set_budget(Some((resident / 3).max(1)))?;
        }
        Ok((registry, live))
    })
    .unwrap();

    let mut served_live: Vec<(SpecId, RunId)> = server
        .contexts()
        .iter()
        .flat_map(|l| l.iter().copied())
        .collect();
    let mut oracle_live_sorted = oracle_live.clone();
    served_live.sort();
    oracle_live_sorted.sort();
    assert_eq!(
        served_live, oracle_live_sorted,
        "content-hashed ids must agree between oracle and shard registries"
    );

    let requests: Vec<&[(SpecId, RunId, RunVertexId, RunVertexId)]> =
        traffic.chunks(PROBES_PER_REQUEST).collect();
    let mut served: Vec<Option<Vec<bool>>> = vec![None; requests.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = server.handle();
                let requests = &requests;
                scope.spawn(move || {
                    let mut answered = Vec::new();
                    for j in (c..requests.len()).step_by(CLIENTS) {
                        let answers = handle.probe_vec(requests[j].to_vec()).unwrap();
                        answered.push((j, answers));
                    }
                    answered
                })
            })
            .collect();

        // mid-stream: freeze every live run on its home shard while the
        // clients are pounding the queue — answers must not move
        for &(spec, rid) in &oracle_live {
            std::thread::sleep(Duration::from_millis(3));
            let home = plan.shard_of(spec, SHARDS);
            server
                .control_shard(home, move |reg| reg.freeze_run(spec, rid))
                .expect("control plane alive")
                .expect("freeze_run succeeds mid-serve");
        }

        for worker in workers {
            for (j, answers) in worker.join().expect("client thread") {
                served[j] = Some(answers);
            }
        }
    });

    let served: Vec<bool> = served
        .into_iter()
        .enumerate()
        .flat_map(|(j, a)| a.unwrap_or_else(|| panic!("request {j} was never answered")))
        .collect();
    assert_eq!(
        served, expected,
        "sharded served answers must be byte-identical to direct answer_batch"
    );

    // every answer accounted for, work actually spread, budget churned
    let registry_stats = server.control(|reg| reg.stats()).unwrap();
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.merged.probes_answered, TOTAL_PROBES as u64);
    assert_eq!(stats.merged.probes_failed, 0);
    assert_eq!(stats.merged.requests, requests.len() as u64);
    for kind in SchemeKind::ALL {
        assert!(
            stats.merged.scheme(kind).probes > 0,
            "{kind:?} must have served probes"
        );
    }
    let shards_hit = stats
        .per_shard
        .iter()
        .filter(|s| s.probes_answered > 0)
        .count();
    assert!(
        shards_hit >= 2,
        "traffic must actually fan out across shards: {shards_hit}"
    );
    let (evictions, lazy_loads) = registry_stats.iter().fold((0u64, 0u64), |(e, l), s| {
        (e + s.evictions, l + s.lazy_loads)
    });
    assert!(
        evictions > 0 && lazy_loads > 0,
        "the per-shard budgets must force eviction/reload churn while serving"
    );

    for (spec, rid) in oracle_live {
        oracle.freeze_run(spec, rid).unwrap();
    }
    assert_eq!(oracle.answer_batch(&traffic).unwrap(), expected);
}

/// A faulty probe stream pointed at one shard must fail alone: requests
/// that never touch the poisoned spec are answered byte-identically, the
/// failures come back as typed [`ServeError::Registry`] errors, and the
/// loop keeps serving afterwards.
#[test]
fn sharded_failures_stay_on_their_shard() {
    const SPECS: usize = 6;
    const SHARDS: usize = 4;
    const GOOD_PROBES: usize = 24_000;
    const BAD_REQUESTS: usize = 200;

    let generated = generate_registry(0xBAD_5EED, SPECS, 2, 300);
    let specs: &'static [Specification] = Box::leak(generated.specs.into_boxed_slice());
    let frozen_labels: Vec<Vec<Vec<RunLabel>>> = specs
        .iter()
        .zip(&generated.fleets)
        .map(|(spec, gens)| {
            gens.iter()
                .map(|g| label_run(spec, &g.run).unwrap().0)
                .collect()
        })
        .collect();

    let (mut oracle, spec_ids, _) = build_registry(specs, &frozen_labels, &[]);
    let mut books: Vec<(SpecId, Vec<(RunId, usize)>)> = Vec::new();
    for &id in &spec_ids {
        let fleet = oracle.fleet(id).unwrap();
        let runs: Vec<(RunId, usize)> = fleet
            .run_ids()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|rid| (rid, fleet.vertex_count(rid).unwrap()))
            .filter(|&(_, n)| n > 0)
            .collect();
        books.push((id, runs));
    }
    books.retain(|(_, runs)| !runs.is_empty());
    let traffic = mixed_spec_probes(&books, GOOD_PROBES, 0xD00D_F00D);
    let expected = oracle.answer_batch(&traffic).unwrap();

    let plan = ShardPlan::new();
    let frozen_for_builder = frozen_labels.clone();
    let builder_plan = plan.clone();
    let server = serve_sharded(
        ServeConfig {
            max_batch: 2048,
            window: Duration::from_micros(100),
            queue_cap: 64,
        },
        SHARDS,
        plan,
        move |shard, shards| {
            let (registry, _) = build_shard_registry(
                specs,
                &frozen_for_builder,
                &[],
                &builder_plan,
                shard,
                shards,
            );
            Ok((registry, ()))
        },
    )
    .unwrap();

    // a probe for a run the home shard never registered
    let poisoned = spec_ids[0];
    let bad_probe = (poisoned, RunId(9_999), RunVertexId(0), RunVertexId(0));

    let requests: Vec<&[(SpecId, RunId, RunVertexId, RunVertexId)]> =
        traffic.chunks(PROBES_PER_REQUEST).collect();
    let mut served: Vec<Option<Vec<bool>>> = vec![None; requests.len()];
    let mut bad_failures = 0usize;
    std::thread::scope(|scope| {
        let good_workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = server.handle();
                let requests = &requests;
                scope.spawn(move || {
                    let mut answered = Vec::new();
                    for j in (c..requests.len()).step_by(CLIENTS) {
                        let answers = handle.probe_vec(requests[j].to_vec()).unwrap();
                        answered.push((j, answers));
                    }
                    answered
                })
            })
            .collect();
        let bad_worker = {
            let handle = server.handle();
            scope.spawn(move || {
                let mut failures = 0usize;
                for _ in 0..BAD_REQUESTS {
                    match handle.probe(bad_probe.0, bad_probe.1, bad_probe.2, bad_probe.3) {
                        Err(ServeError::Registry(e)) => {
                            assert!(
                                e.to_string().contains("run"),
                                "unexpected registry error: {e}"
                            );
                            failures += 1;
                        }
                        other => panic!("poisoned probe must fail typed, got {other:?}"),
                    }
                }
                failures
            })
        };
        for worker in good_workers {
            for (j, answers) in worker.join().expect("good client") {
                served[j] = Some(answers);
            }
        }
        bad_failures = bad_worker.join().expect("bad client");
    });

    let served: Vec<bool> = served
        .into_iter()
        .flat_map(|a| a.expect("every good request answered"))
        .collect();
    assert_eq!(
        served, expected,
        "good traffic must be untouched by the faulty stream"
    );
    assert_eq!(bad_failures, BAD_REQUESTS);

    // the loop is still healthy after the failure storm
    let handle = server.handle();
    let again = handle.probe_vec(requests[0].to_vec()).unwrap();
    assert_eq!(again.as_slice(), &expected[..requests[0].len()]);

    let stats = server.shutdown().unwrap();
    assert_eq!(
        stats.merged.probes_answered,
        (GOOD_PROBES + requests[0].len()) as u64
    );
    assert_eq!(stats.merged.probes_failed, BAD_REQUESTS as u64);
    // the failures landed on exactly one shard
    let failing_shards = stats
        .per_shard
        .iter()
        .filter(|s| s.probes_failed > 0)
        .count();
    assert_eq!(failing_shards, 1, "failures must stay on the home shard");
}

/// Shutdown racing a storm of submissions from four clients: every
/// admitted probe is drained and answered, every rejected submission is a
/// typed error, nothing hangs, and the drained count matches what the
/// clients saw.
#[test]
fn sharded_shutdown_while_submitting_is_drained_and_typed() {
    const SPECS: usize = 4;
    const SHARDS: usize = 4;

    let generated = generate_registry(0x51DE_CA12, SPECS, 2, 300);
    let specs: &'static [Specification] = Box::leak(generated.specs.into_boxed_slice());
    let frozen_labels: Vec<Vec<Vec<RunLabel>>> = specs
        .iter()
        .zip(&generated.fleets)
        .map(|(spec, gens)| {
            gens.iter()
                .map(|g| label_run(spec, &g.run).unwrap().0)
                .collect()
        })
        .collect();

    let plan = ShardPlan::new();
    let frozen_for_builder = frozen_labels.clone();
    let builder_plan = plan.clone();
    let server = serve_sharded(
        ServeConfig {
            max_batch: 512,
            window: Duration::from_micros(100),
            queue_cap: 128,
        },
        SHARDS,
        plan,
        move |shard, shards| {
            let (mut registry, _) = build_shard_registry(
                specs,
                &frozen_for_builder,
                &[],
                &builder_plan,
                shard,
                shards,
            );
            let mut book: Vec<(SpecId, Vec<(RunId, usize)>)> = Vec::new();
            for id in registry.spec_ids().collect::<Vec<_>>() {
                registry.ensure_resident(id)?;
                let fleet = registry.fleet(id).expect("resident");
                let runs: Vec<(RunId, usize)> = fleet
                    .run_ids()
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|rid| (rid, fleet.vertex_count(rid).unwrap()))
                    .filter(|&(_, n)| n > 0)
                    .collect();
                book.push((id, runs));
            }
            Ok((registry, book))
        },
    )
    .unwrap();

    let books: Vec<(SpecId, Vec<(RunId, usize)>)> = server
        .contexts()
        .iter()
        .flat_map(|b| b.iter().cloned())
        .collect();
    let traffic = mixed_spec_probes(&books, 50_000, 0xCAFE_D00D);

    let answered_by_clients = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = server.handle();
                let traffic = &traffic;
                scope.spawn(move || {
                    let mut answered = 0u64;
                    for i in (c..traffic.len()).step_by(CLIENTS) {
                        match handle.submit_one(traffic[i]) {
                            // admitted probes are drained even when the
                            // shutdown overtakes them
                            Ok(ticket) => match ticket.wait_one() {
                                Ok(_) => answered += 1,
                                Err(e) => panic!("admitted probe lost to {e}"),
                            },
                            Err(ServeError::ShuttingDown | ServeError::Disconnected) => break,
                            Err(ServeError::Overloaded) => continue,
                            Err(e) => panic!("untyped submit failure: {e}"),
                        }
                    }
                    answered
                })
            })
            .collect();

        // let the storm build, then pull the plug under it
        std::thread::sleep(Duration::from_millis(10));
        let stats = server.shutdown().expect("shutdown is clean mid-storm");
        let answered: u64 = workers
            .into_iter()
            .map(|w| w.join().expect("client survived the race"))
            .sum();
        assert_eq!(
            stats.merged.probes_answered, answered,
            "drained answers must match what the clients saw"
        );
        assert_eq!(stats.merged.probes_failed, 0);
        answered
    });
    assert!(
        answered_by_clients > 0,
        "some probes must have been served before the plug was pulled"
    );
}
