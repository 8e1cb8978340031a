//! Criterion bench: πr query latency (Figures 14/17) — TCM+SKL must be
//! flat in run size; BFS+SKL pays the spec search only on +-LCA queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use wfp_bench::experiments::qblast_spec;
use wfp_gen::{generate_run_with_target, random_pairs, GeneratedRun};
use wfp_skl::LabeledRun;
use wfp_speclabel::{SchemeKind, SpecScheme};

fn bench_query(c: &mut Criterion) {
    let spec = qblast_spec();
    let mut group = c.benchmark_group("skl_query");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &size in &[1_600usize, 25_600] {
        let GeneratedRun { run, .. } = generate_run_with_target(&spec, 7, size);
        let pairs = random_pairs(&run, 4096, 3);
        for kind in [SchemeKind::Tcm, SchemeKind::Bfs] {
            let labeled =
                LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
            group.throughput(Throughput::Elements(pairs.len() as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}+SKL"), size),
                &pairs,
                |b, pairs| {
                    b.iter(|| {
                        let mut hits = 0usize;
                        for &(u, v) in pairs {
                            hits += labeled.reaches(u, v) as usize;
                        }
                        black_box(hits)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
