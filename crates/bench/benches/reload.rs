//! Criterion bench: zero-copy snapshot fault-in (the PR 10 tentpole) —
//! the validated zero-copy bind and the registry's trusted rebind under
//! evict→reload churn, plus probe throughput through the reloaded view.
//! `repro -- reload` produces the committed table; this bench is the fast
//! regression guard.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wfp_bench::experiments::reload_workload;
use wfp_graph::rng::Xoshiro256;
use wfp_model::RunVertexId;
use wfp_skl::fleet::{FleetEngine, RunId};
use wfp_skl::{label_run, ServiceRegistry, SpecId};
use wfp_speclabel::{SchemeKind, SpecScheme};

fn bench_reload(c: &mut Criterion) {
    let (generated, snapshots) = reload_workload(true);
    let arcs: Vec<Arc<[u8]>> = snapshots.iter().map(|b| Arc::from(b.as_slice())).collect();

    // the registry churn target: all runs sealed packed, primed through one
    // evict→reload cycle so every subsequent offload is clean and every
    // reload a pointer rebind of the retained buffer
    let mut registry = ServiceRegistry::new();
    let mut ids: Vec<SpecId> = Vec::with_capacity(generated.specs.len());
    let spec0 = &generated.specs[0];
    let mut raw_fleet =
        FleetEngine::for_spec(spec0, SpecScheme::build(SchemeKind::ALL[0], spec0.graph()));
    for (i, (spec, gens)) in generated.specs.iter().zip(&generated.fleets).enumerate() {
        let id = registry.register_spec(spec, SchemeKind::ALL[i]).unwrap();
        for g in gens {
            let (labels, _) = label_run(spec, &g.run).unwrap();
            registry.register_labels(id, &labels).unwrap();
            if i == 0 {
                raw_fleet.register_labels(&labels);
            }
        }
        registry.seal_packed(id).unwrap();
        ids.push(id);
    }
    for &id in &ids {
        registry.evict(id).unwrap();
        registry.ensure_resident(id).unwrap();
    }

    // probe traffic over spec 0, answered through the raw labels and the view
    let books: Vec<(RunId, usize)> = generated.fleets[0]
        .iter()
        .enumerate()
        .filter(|(_, g)| g.run.vertex_count() > 0)
        .map(|(j, g)| (RunId(j as u32), g.run.vertex_count()))
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(0x4E10_AD12);
    let probes: Vec<(RunId, RunVertexId, RunVertexId)> = (0..50_000)
        .map(|_| {
            let (run, n) = books[rng.gen_usize(books.len())];
            (
                run,
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect();
    let (view_fleet, _, profile) = FleetEngine::load_shared(Arc::clone(&arcs[0])).unwrap();
    assert!(profile.zero_copy_runs > 0 && profile.decoded_runs == 0);
    assert_eq!(
        view_fleet.answer_batch(&probes).unwrap(),
        raw_fleet.answer_batch(&probes).unwrap(),
    );

    let mut group = c.benchmark_group("reload");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));

    group.bench_function("fault-in/zero-copy-bind", |b| {
        b.iter(|| {
            for arc in &arcs {
                black_box(FleetEngine::load_shared(Arc::clone(arc)).unwrap());
            }
        })
    });
    group.bench_function("fault-in/registry-trusted-rebind", |b| {
        b.iter(|| {
            for &id in &ids {
                registry.evict(id).unwrap();
                registry.ensure_resident(id).unwrap();
            }
            black_box(registry.stats().lazy_loads)
        })
    });
    group.bench_function("probe/borrowed-view", |b| {
        b.iter(|| black_box(view_fleet.answer_batch(&probes).unwrap().len()))
    });
    group.finish();
}

criterion_group!(benches, bench_reload);
criterion_main!(benches);
