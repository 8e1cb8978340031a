//! Differential suite for zero-copy snapshot reloads (PR 10): answers
//! served through borrowed [`PackedColumnsView`]s bound over the load
//! buffer must be byte-identical to the decoded owned columns and to the
//! raw SoA labels, across every specification scheme — including under
//! continuous eviction churn through the sharded serve loop, where each
//! shard faults its fleets back in from a snapshot directory on every
//! reload.

use std::sync::Arc;
use std::time::Duration;

use workflow_provenance::graph::rng::Xoshiro256;
use workflow_provenance::prelude::*;

/// One spec per scheme so the sweep covers every labeling strategy.
const SPECS: usize = 6;
const FROZEN_RUNS: usize = 3;

/// SpecId-routed mixed traffic over every spec's non-empty runs.
fn mixed_spec_probes(
    books: &[(SpecId, Vec<(RunId, usize)>)],
    total: usize,
    seed: u64,
) -> Vec<(SpecId, RunId, RunVertexId, RunVertexId)> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..total)
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

/// Raw SoA labels, the resident sealed fleet, the copying reload (views
/// over its own copy of the bytes), and the zero-copy borrowed view all
/// answer byte-identically, for every scheme.
#[test]
fn zero_copy_views_match_decoded_and_raw_across_all_schemes() {
    let generated = generate_registry(0x4E10_D1FF, SPECS, FROZEN_RUNS, 300);
    for (i, (spec, gens)) in generated.specs.iter().zip(&generated.fleets).enumerate() {
        let kind = SchemeKind::ALL[i];

        // the raw oracle: one engine per run over its frozen SoA labels,
        // never packed
        let mut raw: Vec<QueryEngine<SpecScheme>> = Vec::new();
        let mut sealed = FleetEngine::for_spec(spec, SpecScheme::build(kind, spec.graph()));
        let mut books: Vec<(RunId, usize)> = Vec::new();
        for g in gens {
            let (labels, _) = label_run(spec, &g.run).unwrap();
            raw.push(QueryEngine::from_labels(
                &labels,
                SpecScheme::build(kind, spec.graph()),
            ));
            let rid = sealed.register_labels(&labels);
            if g.run.vertex_count() > 0 {
                books.push((rid, g.run.vertex_count()));
            }
        }
        assert!(!books.is_empty(), "{kind}: only empty runs generated");
        let mut rng = Xoshiro256::seed_from_u64(0x4E10_D1FF ^ i as u64);
        let probes: Vec<(RunId, RunVertexId, RunVertexId)> = (0..20_000)
            .map(|_| {
                let (run, n) = books[rng.gen_usize(books.len())];
                (
                    run,
                    RunVertexId(rng.gen_usize(n) as u32),
                    RunVertexId(rng.gen_usize(n) as u32),
                )
            })
            .collect();
        let want: Vec<bool> = probes
            .iter()
            .map(|&(run, u, v)| raw[run.index()].answer(u, v))
            .collect();

        // resident packed columns
        assert_eq!(sealed.stats().packed, gens.len(), "{kind}");
        assert_eq!(
            sealed.answer_batch(&probes).unwrap(),
            want,
            "{kind}: resident packed"
        );

        // the copying reload of the aligned snapshot: views over its own copy
        let bytes = sealed.save(spec.graph()).unwrap();
        let (owned, _) = FleetEngine::load(&bytes).unwrap();
        assert_eq!(
            owned.answer_batch(&probes).unwrap(),
            want,
            "{kind}: copying reload"
        );

        // the zero-copy bind over the same buffer
        let (view, _, profile) = FleetEngine::load_shared(Arc::from(bytes.as_slice())).unwrap();
        assert_eq!(
            profile.zero_copy_runs,
            gens.len(),
            "{kind}: an all-packed snapshot must bind every run zero-copy"
        );
        assert_eq!(
            view.answer_batch(&probes).unwrap(),
            want,
            "{kind}: zero-copy reload"
        );
    }
}

/// The sharded serve loop, with every shard opening a filtered snapshot
/// directory and churning under a budget that evicts continuously: every
/// reload is a zero-copy fault-in, and the served answers stay
/// byte-identical to a flat registry probed directly, whose answers in
/// turn match raw per-run engines over the same labels.
#[test]
fn sharded_serve_churn_over_zero_copy_dir_store_matches_flat_oracle() {
    const SHARDS: usize = 3;
    const CLIENTS: usize = 3;
    const TOTAL_PROBES: usize = 30_000;
    const PROBES_PER_REQUEST: usize = 500;

    let generated = generate_registry(0x4E10_D200, SPECS, FROZEN_RUNS, 300);
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

    // --- oracle: a flat registry probed directly, and raw engines -------
    let mut oracle = ServiceRegistry::new();
    let mut spec_ids = Vec::with_capacity(SPECS);
    for (i, spec) in specs.iter().enumerate() {
        let id = oracle
            .register_spec(spec, SchemeKind::ALL[i % SchemeKind::ALL.len()])
            .unwrap();
        for labels in &frozen_labels[i] {
            oracle.register_labels(id, labels).unwrap();
        }
        spec_ids.push(id);
    }
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
    let traffic = mixed_spec_probes(&books, TOTAL_PROBES, 0x4E10_D201);
    let expected = oracle.answer_batch(&traffic).unwrap();
    let engines: Vec<Vec<QueryEngine<SpecScheme>>> = specs
        .iter()
        .zip(&frozen_labels)
        .enumerate()
        .map(|(i, (spec, runs))| {
            let kind = SchemeKind::ALL[i % SchemeKind::ALL.len()];
            runs.iter()
                .map(|labels| {
                    QueryEngine::from_labels(labels, SpecScheme::build(kind, spec.graph()))
                })
                .collect()
        })
        .collect();
    let raw: Vec<bool> = traffic
        .iter()
        .map(|&(spec, run, u, v)| {
            let s = spec_ids.iter().position(|&id| id == spec).unwrap();
            engines[s][run.index()].answer(u, v)
        })
        .collect();
    assert_eq!(
        expected, raw,
        "the flat registry diverged from the raw engines"
    );

    // --- the snapshot directory the shards serve from: all runs sealed --
    let mut store = ServiceRegistry::new();
    for (i, spec) in specs.iter().enumerate() {
        let id = store
            .register_spec(spec, SchemeKind::ALL[i % SchemeKind::ALL.len()])
            .unwrap();
        for labels in &frozen_labels[i] {
            store.register_labels(id, labels).unwrap();
        }
        let packed = store.fleet(id).unwrap().stats().packed;
        assert_eq!(packed, frozen_labels[i].len(), "every run serves packed");
    }
    let dir = std::env::temp_dir().join(format!("wfp-reload-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store.save_dir(&dir).unwrap();

    let plan = ShardPlan::new();
    let config = ServeConfig {
        max_batch: 2048,
        window: Duration::from_micros(150),
        queue_cap: 64,
    };
    let builder_plan = plan.clone();
    let builder_dir = dir.clone();
    let server = serve_sharded(config, SHARDS, plan.clone(), move |shard, shards| {
        let mut registry = ServiceRegistry::open_dir_filtered(&builder_dir, None, |id| {
            builder_plan.shard_of(id, shards) == shard
        })?;
        // fault everything in once to size the shard, then set a budget
        // two thirds of that so the serve traffic churns evict→reload
        // continuously
        let ids: Vec<SpecId> = registry.spec_ids().collect();
        for &id in &ids {
            registry.ensure_resident(id)?;
        }
        let resident = registry.resident_bytes();
        if ids.len() > 1 && resident > 0 {
            registry.set_budget(Some((resident * 2 / 3).max(1)))?;
        }
        Ok((registry, Vec::<(SpecId, RunId)>::new()))
    })
    .unwrap();

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
        "served answers diverged from the flat oracle"
    );

    // every shard's reloads were zero-copy: the snapshots hold only
    // aligned packed runs, so no lazy load may fall back to decoding
    let mut lazy = 0u64;
    let mut zero_copy = 0u64;
    for shard in 0..SHARDS {
        let stats = server
            .control_shard(shard, |reg| reg.stats())
            .expect("control plane alive");
        lazy += stats.lazy_loads as u64;
        zero_copy += stats.zero_copy_loads;
        assert_eq!(
            stats.zero_copy_loads, stats.lazy_loads as u64,
            "shard {shard}: a reload fell off the zero-copy path"
        );
    }
    assert!(lazy > 0, "the budget never forced a single fault-in");
    assert_eq!(zero_copy, lazy);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
