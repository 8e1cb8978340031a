//! Criterion bench: the five specification schemes — build time and query
//! time on the §8.2 synthetic spec, plus SKL's robustness to the choice
//! (§8.2: "SKL is insensitive to the quality of the labeling scheme used
//! to label the specification").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use wfp_bench::experiments::synthetic_spec;
use wfp_gen::{generate_run_with_target, random_pairs, GeneratedRun};
use wfp_skl::LabeledRun;
use wfp_speclabel::{SchemeKind, SpecIndex, SpecScheme};

fn bench_schemes(c: &mut Criterion) {
    let spec = synthetic_spec(100);
    let mut build_group = c.benchmark_group("spec_scheme_build");
    build_group.sample_size(30);
    build_group.measurement_time(Duration::from_secs(2));
    build_group.warm_up_time(Duration::from_millis(500));
    for kind in SchemeKind::ALL {
        build_group.bench_function(BenchmarkId::from_parameter(kind), |b| {
            b.iter(|| black_box(SpecScheme::build(kind, spec.graph())))
        });
    }
    build_group.finish();

    let mut query_group = c.benchmark_group("spec_scheme_query");
    query_group.sample_size(30);
    query_group.measurement_time(Duration::from_secs(2));
    query_group.warm_up_time(Duration::from_millis(500));
    let n = spec.module_count() as u64;
    for kind in SchemeKind::ALL {
        let index = SpecScheme::build(kind, spec.graph());
        query_group.bench_function(BenchmarkId::from_parameter(kind), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for u in (0..n).step_by(7) {
                    for v in (0..n).step_by(11) {
                        hits += index.reaches(u as u32, v as u32) as usize;
                    }
                }
                black_box(hits)
            })
        });
    }
    query_group.finish();

    // robustness: SKL query latency under each skeleton scheme
    let GeneratedRun { run, .. } = generate_run_with_target(&spec, 3, 12_800);
    let pairs = random_pairs(&run, 4096, 5);
    let mut skl_group = c.benchmark_group("skl_query_by_scheme");
    skl_group.sample_size(20);
    skl_group.measurement_time(Duration::from_secs(2));
    skl_group.warm_up_time(Duration::from_millis(500));
    for kind in SchemeKind::ALL {
        let labeled =
            LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
        skl_group.bench_function(BenchmarkId::from_parameter(kind), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for &(u, v) in &pairs {
                    hits += labeled.reaches(u, v) as usize;
                }
                black_box(hits)
            })
        });
    }
    skl_group.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
