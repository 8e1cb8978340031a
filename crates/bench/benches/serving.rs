//! Criterion bench: the request/response serving loop (the PR 8 tentpole,
//! resharded in PR 9) — direct `answer_batch` as the ceiling, the
//! single-dispatch admission loop under four closed-loop clients, the
//! sharded dispatcher under the same drive plus a pipelined drive, and a
//! single-client round trip for the per-request floor. `repro -- serving`
//! produces the committed table; this bench is the fast regression guard.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wfp_bench::experiments::{serving_workload, sharded_serving_server, SERVING_SHARDS};
use wfp_skl::{Probe, ServeConfig};

fn bench_serving(c: &mut Criterion) {
    const CLIENTS: usize = 4;
    const PER_REQUEST: usize = 64;
    const DEPTH: usize = 16;
    let (mut direct, payload, traffic) = serving_workload(true, 100_000);
    let payload = std::sync::Arc::new(payload);

    let config = ServeConfig {
        max_batch: 8192,
        window: Duration::from_micros(200),
        queue_cap: 1024,
        threads: 1,
    };
    let server = sharded_serving_server(config, 1, std::sync::Arc::clone(&payload));
    let sharded = sharded_serving_server(config, SERVING_SHARDS, payload);

    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));

    group.bench_function("direct-answer-batch", |b| {
        b.iter(|| black_box(direct.answer_batch(&traffic).unwrap().len()))
    });
    group.bench_function("served/4-clients-closed-loop", |b| {
        let requests: Vec<&[Probe]> = traffic.chunks(PER_REQUEST).collect();
        b.iter(|| {
            let answered = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let handle = server.handle();
                        let requests = &requests;
                        scope.spawn(move || {
                            (c..requests.len())
                                .step_by(CLIENTS)
                                .map(|j| handle.probe_vec(requests[j].to_vec()).unwrap().len())
                                .sum::<usize>()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum::<usize>()
            });
            black_box(answered)
        })
    });
    group.bench_function("sharded/4-clients-closed-loop", |b| {
        let requests: Vec<&[Probe]> = traffic.chunks(PER_REQUEST).collect();
        b.iter(|| {
            let answered = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let handle = sharded.handle();
                        let requests = &requests;
                        scope.spawn(move || {
                            (c..requests.len())
                                .step_by(CLIENTS)
                                .map(|j| handle.probe_vec(requests[j].to_vec()).unwrap().len())
                                .sum::<usize>()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum::<usize>()
            });
            black_box(answered)
        })
    });
    group.bench_function("sharded/4-clients-pipelined-x16", |b| {
        let requests: Vec<&[Probe]> = traffic.chunks(PER_REQUEST).collect();
        b.iter(|| {
            let answered = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let handle = sharded.handle();
                        let requests = &requests;
                        scope.spawn(move || {
                            let mut inflight = std::collections::VecDeque::new();
                            let mut answered = 0usize;
                            for j in (c..requests.len()).step_by(CLIENTS) {
                                if inflight.len() == DEPTH {
                                    let t: wfp_skl::Ticket = inflight.pop_front().unwrap();
                                    answered += t.wait().unwrap().len();
                                }
                                inflight.push_back(
                                    handle.submit(requests[j].to_vec()).unwrap(),
                                );
                            }
                            for t in inflight {
                                answered += t.wait().unwrap().len();
                            }
                            answered
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum::<usize>()
            });
            black_box(answered)
        })
    });
    group.bench_function("served/single-probe-round-trip", |b| {
        let handle = server.handle();
        let (spec, run, u, v) = traffic[0];
        b.iter(|| black_box(handle.probe(spec, run, u, v).unwrap()))
    });
    group.finish();
    server.shutdown().unwrap();
    sharded.shutdown().unwrap();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
