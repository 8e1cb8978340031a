//! Criterion bench: `ConstructPlan` alone (the §5 linear-time algorithm) —
//! throughput per run edge should be flat across sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use wfp_bench::experiments::{qblast_spec, synthetic_spec};
use wfp_gen::{generate_run_with_target, GeneratedRun};
use wfp_skl::construct_plan;

fn bench_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct_plan");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for (name, spec) in [
        ("qblast", qblast_spec()),
        ("synthetic100", synthetic_spec(100)),
    ] {
        for &size in &[1_600usize, 12_800, 51_200] {
            let GeneratedRun { run, .. } = generate_run_with_target(&spec, 13, size);
            group.throughput(Throughput::Elements(run.edge_count() as u64));
            group.bench_with_input(BenchmarkId::new(name, size), &run, |b, run| {
                b.iter(|| black_box(construct_plan(&spec, run).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_plan);
criterion_main!(benches);
