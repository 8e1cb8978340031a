//! Criterion bench: SKL run-labeling construction time (Figure 13's
//! default setting) across run sizes — the expected shape is linear.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use wfp_bench::experiments::qblast_spec;
use wfp_gen::{generate_run_with_target, GeneratedRun};
use wfp_skl::LabeledRun;
use wfp_speclabel::{SchemeKind, SpecScheme};

fn bench_construction(c: &mut Criterion) {
    let spec = qblast_spec();
    let mut group = c.benchmark_group("skl_construction");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &size in &[400usize, 1_600, 6_400, 25_600] {
        let GeneratedRun { run, plan } = generate_run_with_target(&spec, 7, size);
        group.throughput(Throughput::Elements(run.vertex_count() as u64));
        group.bench_with_input(BenchmarkId::new("default", size), &run, |b, run| {
            b.iter(|| {
                let scheme = SpecScheme::build(SchemeKind::Tcm, spec.graph());
                black_box(LabeledRun::build(&spec, scheme, run).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("with_plan", size), &run, |b, run| {
            b.iter(|| {
                let scheme = SpecScheme::build(SchemeKind::Tcm, spec.graph());
                black_box(LabeledRun::build_with_plan(&spec, scheme, run, &plan))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
