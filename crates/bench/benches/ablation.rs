//! Ablations of the design choices called out in DESIGN.md §5:
//!
//! (a) πr's context short-circuit vs. always consulting the skeleton —
//!     quantifies §8.2's "queries may frequently be answered using only
//!     the extended labels";
//! (b) epoch-stamped VisitMap reuse vs. a freshly allocated visited buffer
//!     per BFS query — the substrate choice behind the BFS scheme.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Duration;
use wfp_bench::experiments::synthetic_spec;
use wfp_gen::{generate_run_with_target, random_pairs, GeneratedRun};
use wfp_skl::LabeledRun;
use wfp_speclabel::{SchemeKind, SpecIndex, SpecScheme};

fn bench_shortcircuit(c: &mut Criterion) {
    let spec = synthetic_spec(100);
    let GeneratedRun { run, .. } = generate_run_with_target(&spec, 3, 25_600);
    let labeled = LabeledRun::build(
        &spec,
        SpecScheme::build(SchemeKind::Bfs, spec.graph()),
        &run,
    )
    .unwrap();
    let pairs = random_pairs(&run, 2048, 9);

    let mut group = c.benchmark_group("predicate_shortcircuit");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("context_shortcircuit (paper)", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &(u, v) in &pairs {
                hits += labeled.reaches(u, v) as usize;
            }
            black_box(hits)
        })
    });
    group.bench_function("always_consult_skeleton", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &(u, v) in &pairs {
                // same observable answer, but the skeleton is probed even
                // when the context encoding already decides the query
                let (a, bb) = (labeled.label(u), labeled.label(v));
                let skeleton_ans = labeled.skeleton().reaches(a.origin.raw(), bb.origin.raw());
                let d2 = a.q2 as i64 - bb.q2 as i64;
                let d3 = a.q3 as i64 - bb.q3 as i64;
                let ans = if d2 * d3 < 0 {
                    a.q1 < bb.q1 && a.q3 > bb.q3
                } else {
                    skeleton_ans
                };
                hits += ans as usize;
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_visitmap(c: &mut Criterion) {
    use wfp_graph::traversal::{bfs_reaches, VisitMap};
    let spec = synthetic_spec(200);
    let g = spec.graph();
    let n = g.vertex_count();
    let queries: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| [(u, (u * 7 + 3) % n as u32), ((u * 5 + 1) % n as u32, u)])
        .collect();

    let mut group = c.benchmark_group("bfs_visited_buffer");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("epoch_stamped_reuse (ours)", |b| {
        let mut vm = VisitMap::new(n);
        let mut queue = VecDeque::new();
        b.iter(|| {
            let mut hits = 0usize;
            for &(u, v) in &queries {
                hits += bfs_reaches(g, u, v, &mut vm, &mut queue) as usize;
            }
            black_box(hits)
        })
    });
    group.bench_function("fresh_allocation_per_query", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &(u, v) in &queries {
                // naive baseline: new buffers every query
                let mut visited = vec![false; n];
                let mut queue = VecDeque::new();
                visited[u as usize] = true;
                queue.push_back(u);
                let mut found = u == v;
                while let Some(x) = queue.pop_front() {
                    if found {
                        break;
                    }
                    for w in g.successors(x) {
                        if w == v {
                            found = true;
                            break;
                        }
                        if !visited[w as usize] {
                            visited[w as usize] = true;
                            queue.push_back(w);
                        }
                    }
                }
                hits += found as usize;
            }
            black_box(hits)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_shortcircuit, bench_visitmap);
criterion_main!(benches);
