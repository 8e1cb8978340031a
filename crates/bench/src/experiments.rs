//! One reproduction function per table/figure of the paper's §8.
//!
//! Terminology matches the paper: `TCM+SKL` / `BFS+SKL` label the
//! specification with TCM or BFS and the run with the skeleton scheme;
//! bare `TCM` / `BFS` index the *run* directly (the scalability baselines).
//! Amortized costs spread the specification-labeling cost over `k` runs
//! (Table 2).

use wfp_gen::{
    generate_fleet, generate_run_with_target, generate_spec, random_pairs, real_workflows,
    stand_in, GeneratedRun, SpecGenConfig,
};
use wfp_graph::TransitiveClosure;
use wfp_speclabel::TreeExpansion;
use wfp_model::io::{plan_to_events, RunEvent};
use wfp_model::{Run, RunVertexId, Specification};
use wfp_skl::fleet::{FleetEngine, RunId};
use wfp_skl::{label_run, LabeledRun, LiveRun, QueryEngine};
use wfp_speclabel::{SchemeKind, SpecIndex, SpecScheme};

use crate::options::ReproOptions;
use crate::table::{fmt_f64, Table};
use crate::timing::{best_ms, predicate_time_ms, query_time_ms, time_ms};

/// The §8.2 synthetic specification: `n_G=100, m_G=200, |T_G|=10, [T_G]=4`.
pub fn synthetic_spec(modules: usize) -> Specification {
    // first seed whose random layout realizes the exact parameters
    for seed in 0..10_000 {
        let cfg = SpecGenConfig {
            modules,
            edges: 2 * modules,
            hierarchy_size: 10,
            hierarchy_depth: 4,
            seed: seed * 77 + 13,
        };
        if let Ok(spec) = generate_spec(&cfg) {
            return spec;
        }
    }
    unreachable!("§8 parameters are feasible");
}

/// The QBLAST stand-in used by the first experiment set (§8.1).
pub fn qblast_spec() -> Specification {
    stand_in(
        real_workflows()
            .into_iter()
            .find(|w| w.name == "QBLAST")
            .expect("QBLAST is in Table 1"),
    )
}

fn ladder_runs(spec: &Specification, opts: &ReproOptions, seed: u64) -> Vec<(usize, Run)> {
    opts.ladder()
        .into_iter()
        .map(|size| {
            let GeneratedRun { run, .. } = generate_run_with_target(spec, seed, size);
            (size, run)
        })
        .collect()
}

fn size_label(size: usize) -> String {
    format!("{:.1}K", size as f64 / 1000.0)
}

// ======================================================================
// Table 1 — characteristics of the real-life workflows
// ======================================================================

/// Table 1: the six real workflows (stand-ins match the published rows
/// exactly; see DESIGN.md §3).
pub fn table1(_opts: &ReproOptions) -> Table {
    let mut t = Table::new(
        "Table 1: Characteristics of Real-life Scientific Workflows",
        &["workflow", "n_G", "m_G", "|T_G|", "[T_G]"],
    );
    for w in real_workflows() {
        let spec = stand_in(w);
        t.row(vec![
            w.name.to_string(),
            spec.module_count().to_string(),
            spec.channel_count().to_string(),
            spec.hierarchy().size().to_string(),
            spec.hierarchy().max_depth().to_string(),
        ]);
    }
    t.note("stand-in specifications generated to match the published parameters exactly");
    t
}

// ======================================================================
// Table 2 — complexity comparison with amortized cost
// ======================================================================

/// Table 2: asymptotic costs plus measured values on the §8.2 synthetic
/// workflow at a representative run size.
pub fn table2(opts: &ReproOptions) -> Table {
    let spec = synthetic_spec(100);
    let size = if opts.quick { 12_800 } else { 25_600 };
    let GeneratedRun { run, .. } = generate_run_with_target(&spec, 2, size);
    let pairs = random_pairs(&run, opts.query_count().min(200_000), 3);
    let n_g = spec.module_count();
    let n_r = run.vertex_count();

    // TCM+SKL
    let tcm_build_ms = time_ms(opts.time_reps(), || {
        std::hint::black_box(SpecScheme::build(SchemeKind::Tcm, spec.graph()));
    });
    let skl_label_ms = time_ms(opts.time_reps(), || {
        let scheme = SpecScheme::build(SchemeKind::Tcm, spec.graph());
        std::hint::black_box(LabeledRun::build(&spec, scheme, &run).unwrap());
    });
    let labeled_tcm =
        LabeledRun::build(&spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()), &run).unwrap();
    let (tcm_skl_q, _) = query_time_ms(&labeled_tcm, &pairs);
    let labeled_bfs =
        LabeledRun::build(&spec, SpecScheme::build(SchemeKind::Bfs, spec.graph()), &run).unwrap();
    let (bfs_skl_q, _) = query_time_ms(&labeled_bfs, &pairs);

    // bare TCM / BFS on the run
    let closure = TransitiveClosure::build(run.graph());
    let (tcm_q, _) = predicate_time_ms(&pairs, |u, v| closure.reaches(u.raw(), v.raw()));
    let run_search = SpecScheme::build(SchemeKind::Bfs, run.graph());
    let bfs_pairs = &pairs[..pairs.len().min(300)];
    let (bfs_q, _) = predicate_time_ms(bfs_pairs, |u, v| run_search.reaches(u.raw(), v.raw()));
    let tcm_run_build_ms = time_ms(1, || {
        std::hint::black_box(TransitiveClosure::build(run.graph()));
    });

    let k = 10.0;
    let amortized_tcm_bits =
        labeled_tcm.fixed_label_bits() as f64 + (n_g * n_g) as f64 / (k * n_r as f64);
    let mut t = Table::new(
        format!("Table 2: Complexity Comparison (measured at n_R = {n_r}, k = 10 runs)"),
        &[
            "scheme",
            "label length (bits)",
            "construction (ms)",
            "query (ms)",
            "asymptotics",
        ],
    );
    t.row(vec![
        "TCM+SKL".into(),
        fmt_f64(amortized_tcm_bits),
        fmt_f64(skl_label_ms + tcm_build_ms / k),
        fmt_f64(tcm_skl_q),
        "3logN+logn + n²/kN | O(M+N+mn/k) | O(1)".into(),
    ]);
    t.row(vec![
        "BFS+SKL".into(),
        fmt_f64(labeled_bfs.fixed_label_bits() as f64),
        fmt_f64(skl_label_ms),
        fmt_f64(bfs_skl_q),
        "3logN+logn | O(M+N) | O(m+n)".into(),
    ]);
    t.row(vec![
        "TCM".into(),
        fmt_f64(n_r as f64),
        fmt_f64(tcm_run_build_ms),
        fmt_f64(tcm_q),
        "N | O(M·N) | O(1)".into(),
    ]);
    t.row(vec![
        "BFS".into(),
        "0".into(),
        "0".into(),
        fmt_f64(bfs_q),
        "0 | 0 | O(M+N)".into(),
    ]);
    t.note("N,M = run size; n,m = spec size; k = number of runs sharing the spec labels");
    t.note(format!(
        "bare-BFS query time sampled over {} queries (others over {})",
        bfs_pairs.len(),
        pairs.len()
    ));
    t
}

// ======================================================================
// Figure 12 — label length for QBLAST
// ======================================================================

/// Figure 12: maximum and average label length vs. run size (QBLAST),
/// against the `3·log₂ n_R` asymptote.
pub fn fig12(opts: &ReproOptions) -> Table {
    let spec = qblast_spec();
    let mut t = Table::new(
        "Figure 12: Label Length for QBLAST (bits)",
        &["run size", "max label", "avg label", "3·log2(n_R)"],
    );
    for size in opts.ladder() {
        let mut max_bits = 0usize;
        let mut avg_bits = 0.0;
        let mut actual = 0usize;
        let samples = opts.runs_per_point();
        for s in 0..samples {
            let GeneratedRun { run, .. } =
                generate_run_with_target(&spec, 1000 + s as u64, size);
            let labeled = LabeledRun::build(
                &spec,
                SpecScheme::build(SchemeKind::Tcm, spec.graph()),
                &run,
            )
            .unwrap();
            max_bits = max_bits.max(labeled.fixed_label_bits());
            avg_bits += labeled.average_label_bits();
            actual = actual.max(run.vertex_count());
        }
        avg_bits /= samples as f64;
        t.row(vec![
            size_label(size),
            max_bits.to_string(),
            fmt_f64(avg_bits),
            fmt_f64(3.0 * (actual.max(2) as f64).log2()),
        ]);
    }
    t.note("expected shape: logarithmic growth, max below the 3·log2(n_R) line (Lemma 4.7)");
    t
}

// ======================================================================
// Figure 13 — construction time for QBLAST
// ======================================================================

/// Figure 13: SKL construction time vs. run size — default setting (plan
/// recovered from the bare run) vs. the run arriving with its execution
/// plan and context.
pub fn fig13(opts: &ReproOptions) -> Table {
    let spec = qblast_spec();
    let mut t = Table::new(
        "Figure 13: Construction Time for QBLAST (ms)",
        &["run size", "default", "with plan+context", "plan share"],
    );
    for size in opts.ladder() {
        let gen = generate_run_with_target(&spec, 7, size);
        let run = &gen.run;
        let default_ms = time_ms(opts.time_reps(), || {
            let scheme = SpecScheme::build(SchemeKind::Tcm, spec.graph());
            std::hint::black_box(LabeledRun::build(&spec, scheme, run).unwrap());
        });
        let with_plan_ms = time_ms(opts.time_reps(), || {
            let scheme = SpecScheme::build(SchemeKind::Tcm, spec.graph());
            std::hint::black_box(LabeledRun::build_with_plan(&spec, scheme, run, &gen.plan));
        });
        t.row(vec![
            size_label(size),
            fmt_f64(default_ms),
            fmt_f64(with_plan_ms),
            format!("{:.0}%", 100.0 * (default_ms - with_plan_ms) / default_ms.max(1e-9)),
        ]);
    }
    t.note("expected shape: both linear; plan+context computation dominates the default cost");
    t
}

// ======================================================================
// Figure 14 — query time for QBLAST
// ======================================================================

/// Figure 14: TCM+SKL query time vs. run size (constant).
pub fn fig14(opts: &ReproOptions) -> Table {
    let spec = qblast_spec();
    let mut t = Table::new(
        "Figure 14: Query Time for QBLAST (ns/query, TCM+SKL)",
        &["run size", "ns/query"],
    );
    for size in opts.ladder() {
        let GeneratedRun { run, .. } = generate_run_with_target(&spec, 5, size);
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        let pairs = random_pairs(&run, opts.query_count(), 11);
        let (ms, _) = query_time_ms(&labeled, &pairs);
        t.row(vec![size_label(size), fmt_f64(ms * 1e6)]);
    }
    t.note("expected shape: flat (constant query time, Theorem 1)");
    t
}

// ======================================================================
// Figures 15–17 — TCM+SKL vs BFS+SKL vs TCM vs BFS
// ======================================================================

/// Figure 15: maximum label length with the spec-labeling storage amortized
/// over 1, 2 and 10 runs.
pub fn fig15(opts: &ReproOptions) -> Table {
    let spec = synthetic_spec(100);
    let n_g = spec.module_count() as f64;
    let mut t = Table::new(
        "Figure 15: Label Length with Amortized Cost (bits)",
        &[
            "run size",
            "TCM+SKL (1 run)",
            "TCM+SKL (2 runs)",
            "TCM+SKL (10 runs)",
            "BFS+SKL",
        ],
    );
    for (size, run) in ladder_runs(&spec, opts, 23) {
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        let base = labeled.fixed_label_bits() as f64;
        let n_r = run.vertex_count() as f64;
        let amortized = |k: f64| base + n_g * n_g / (k * n_r);
        t.row(vec![
            size_label(size),
            fmt_f64(amortized(1.0)),
            fmt_f64(amortized(2.0)),
            fmt_f64(amortized(10.0)),
            fmt_f64(base),
        ]);
    }
    t.note("expected shape: BFS+SKL shortest for small runs; all converge for large runs");
    t
}

/// Figure 16: construction time with the spec-labeling time amortized,
/// against raw TCM on the run.
pub fn fig16(opts: &ReproOptions) -> Table {
    let spec = synthetic_spec(100);
    let tcm_cap = 25_600;
    let tcm_spec_ms = time_ms(opts.time_reps(), || {
        std::hint::black_box(SpecScheme::build(SchemeKind::Tcm, spec.graph()));
    });
    let mut t = Table::new(
        "Figure 16: Construction Time with Amortized Cost (ms)",
        &[
            "run size",
            "TCM+SKL (1 run)",
            "TCM+SKL (2 runs)",
            "TCM+SKL (10 runs)",
            "BFS+SKL",
            "TCM",
        ],
    );
    for (size, run) in ladder_runs(&spec, opts, 29) {
        let label_ms = time_ms(opts.time_reps(), || {
            let scheme = SpecScheme::build(SchemeKind::Bfs, spec.graph());
            std::hint::black_box(LabeledRun::build(&spec, scheme, &run).unwrap());
        });
        let tcm_run_ms = if run.vertex_count() <= tcm_cap {
            fmt_f64(time_ms(1, || {
                std::hint::black_box(TransitiveClosure::build(run.graph()));
            }))
        } else {
            "— (memory)".to_string()
        };
        t.row(vec![
            size_label(size),
            fmt_f64(label_ms + tcm_spec_ms),
            fmt_f64(label_ms + tcm_spec_ms / 2.0),
            fmt_f64(label_ms + tcm_spec_ms / 10.0),
            fmt_f64(label_ms),
            tcm_run_ms,
        ]);
    }
    t.note("expected shape: SKL linear and orders faster than TCM-on-run (polynomial)");
    t.note("TCM on runs beyond 25.6K vertices is skipped, as in the paper (memory constraint)");
    t
}

/// Figure 17: query time for all four schemes.
pub fn fig17(opts: &ReproOptions) -> Table {
    let spec = synthetic_spec(100);
    let tcm_cap = 25_600;
    let mut t = Table::new(
        "Figure 17: Query Time (ns/query)",
        &["run size", "TCM+SKL", "BFS+SKL", "TCM", "BFS"],
    );
    for (size, run) in ladder_runs(&spec, opts, 31) {
        let pairs = random_pairs(&run, opts.query_count(), 13);
        let labeled_tcm = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        let (tcm_skl, _) = query_time_ms(&labeled_tcm, &pairs);
        let labeled_bfs = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Bfs, spec.graph()),
            &run,
        )
        .unwrap();
        let bfs_skl_pairs = &pairs[..pairs.len().min(200_000)];
        let (bfs_skl, _) = query_time_ms(&labeled_bfs, bfs_skl_pairs);
        let tcm_cell = if run.vertex_count() <= tcm_cap {
            let closure = TransitiveClosure::build(run.graph());
            let (q, _) = predicate_time_ms(&pairs, |u, v| closure.reaches(u.raw(), v.raw()));
            fmt_f64(q * 1e6)
        } else {
            "— (memory)".to_string()
        };
        let run_search = SpecScheme::build(SchemeKind::Bfs, run.graph());
        let bfs_pairs = &pairs[..pairs.len().min(300)];
        let (bfs, _) = predicate_time_ms(bfs_pairs, |u, v| run_search.reaches(u.raw(), v.raw()));
        t.row(vec![
            size_label(size),
            fmt_f64(tcm_skl * 1e6),
            fmt_f64(bfs_skl * 1e6),
            tcm_cell,
            fmt_f64(bfs * 1e6),
        ]);
    }
    t.note("expected shapes: TCM+SKL and TCM flat; BFS linear and slowest; BFS+SKL *decreasing*");
    t.note("(larger runs answer more queries from context encodings alone, §8.2)");
    t
}

// ======================================================================
// Figures 18–20 — influence of the specification size
// ======================================================================

fn spec_sweep() -> Vec<(usize, Specification)> {
    [50usize, 100, 200]
        .into_iter()
        .map(|n| (n, synthetic_spec(n)))
        .collect()
}

/// Figure 18: TCM+SKL label length (amortized over 2 runs) for
/// `n_G ∈ {50, 100, 200}`.
pub fn fig18(opts: &ReproOptions) -> Table {
    let specs = spec_sweep();
    let mut t = Table::new(
        "Figure 18: Influence of Specification — Label Length (bits, TCM+SKL, k = 2)",
        &["run size", "n_G=50", "n_G=100", "n_G=200"],
    );
    for size in opts.ladder() {
        let mut cells = vec![size_label(size)];
        for (n, spec) in &specs {
            let GeneratedRun { run, .. } =
                generate_run_with_target(spec, 41 + *n as u64, size);
            let labeled = LabeledRun::build(
                spec,
                SpecScheme::build(SchemeKind::Tcm, spec.graph()),
                &run,
            )
            .unwrap();
            let bits = labeled.fixed_label_bits() as f64
                + (*n as f64 * *n as f64) / (2.0 * run.vertex_count() as f64);
            cells.push(fmt_f64(bits));
        }
        t.row(cells);
    }
    t.note("expected shape: smaller specs much shorter for small runs, slightly longer for large");
    t
}

/// Figure 19: TCM+SKL construction time (amortized over 2 runs) for the
/// same specification sweep.
pub fn fig19(opts: &ReproOptions) -> Table {
    let specs = spec_sweep();
    let mut t = Table::new(
        "Figure 19: Influence of Specification — Construction Time (ms, TCM+SKL, k = 2)",
        &["run size", "n_G=50", "n_G=100", "n_G=200"],
    );
    let spec_ms: Vec<f64> = specs
        .iter()
        .map(|(_, spec)| {
            time_ms(opts.time_reps(), || {
                std::hint::black_box(SpecScheme::build(SchemeKind::Tcm, spec.graph()));
            })
        })
        .collect();
    for size in opts.ladder() {
        let mut cells = vec![size_label(size)];
        for ((_, spec), tcm_ms) in specs.iter().zip(&spec_ms) {
            let GeneratedRun { run, .. } = generate_run_with_target(spec, 43, size);
            let label_ms = time_ms(opts.time_reps(), || {
                let scheme = SpecScheme::build(SchemeKind::Bfs, spec.graph());
                std::hint::black_box(LabeledRun::build(spec, scheme, &run).unwrap());
            });
            cells.push(fmt_f64(label_ms + tcm_ms / 2.0));
        }
        t.row(cells);
    }
    t.note("expected shape: spec size matters only for small runs");
    t
}

/// Figure 20: BFS+SKL query time for the specification sweep.
pub fn fig20(opts: &ReproOptions) -> Table {
    let specs = spec_sweep();
    let mut t = Table::new(
        "Figure 20: Influence of Specification — Query Time (ns/query, BFS+SKL)",
        &["run size", "n_G=50", "n_G=100", "n_G=200"],
    );
    for size in opts.ladder() {
        let mut cells = vec![size_label(size)];
        for (_, spec) in &specs {
            let GeneratedRun { run, .. } = generate_run_with_target(spec, 47, size);
            let labeled = LabeledRun::build(
                spec,
                SpecScheme::build(SchemeKind::Bfs, spec.graph()),
                &run,
            )
            .unwrap();
            let pairs = random_pairs(&run, opts.query_count().min(300_000), 17);
            let (ms, _) = query_time_ms(&labeled, &pairs);
            cells.push(fmt_f64(ms * 1e6));
        }
        t.row(cells);
    }
    t.note("expected shape: grows with n_G, falls with run size, converges for large runs");
    t
}

// ======================================================================
// Throughput — scalar loop vs batched vs parallel-batched πr (PR 2)
// ======================================================================

/// The canonical 10⁶-pair throughput workload — the single definition
/// shared by [`throughput`] (whose numbers land in `BENCH_PR2.json`) and
/// the `throughput` criterion bench, so the regression guard measures
/// exactly the workload the committed record describes.
pub fn throughput_workload(
    quick: bool,
) -> (Specification, Run, Vec<(RunVertexId, RunVertexId)>) {
    let spec = synthetic_spec(100);
    let size = if quick { 12_800 } else { 25_600 };
    let GeneratedRun { run, .. } = generate_run_with_target(&spec, 2, size);
    let pairs = random_pairs(&run, 1_000_000, 19);
    (spec, run, pairs)
}

/// Throughput of the batched query engine against the scalar per-pair
/// loop on a 10⁶-pair workload, for the TCM and search schemes.
///
/// Three evaluation strategies over identical pairs:
///
/// * **scalar** — the per-pair [`LabeledRun::reaches`] loop (the baseline
///   every prior experiment used);
/// * **batched** — [`QueryEngine::answer_batch`]: SoA columns plus the
///   `(origin, origin)` skeleton memo, one thread;
/// * **parallel** — [`QueryEngine::answer_batch_parallel`] sharded over all
///   available cores.
///
/// The pair count stays at 10⁶ even under `--quick` (the whole point is the
/// bulk workload); quick mode only shrinks the run.
pub fn throughput(opts: &ReproOptions) -> Table {
    let (spec, run, pairs) = throughput_workload(opts.quick);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut t = Table::new(
        format!(
            "Throughput: batched query engine vs scalar loop \
             (n_R = {}, {} pairs, {} threads)",
            run.vertex_count(),
            pairs.len(),
            threads
        ),
        &[
            "scheme",
            "scalar q/s",
            "batched q/s",
            "parallel q/s",
            "batched x",
            "parallel x",
        ],
    );
    for kind in [SchemeKind::Tcm, SchemeKind::Bfs, SchemeKind::Dfs] {
        let labeled =
            LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
        let (scalar_ms_per_q, scalar_positive) = query_time_ms(&labeled, &pairs);
        let scalar_qps = 1e3 / scalar_ms_per_q.max(1e-12);

        let engine = QueryEngine::from_labeled(labeled);
        // One cold pass doubles as the agreement check (the strategies
        // must agree before their numbers mean much); the timed passes
        // then measure the steady state, where the memo warms up within
        // the first chunk of every batch.
        let batch_positive = engine
            .answer_batch(&pairs)
            .iter()
            .filter(|&&a| a)
            .count();
        assert_eq!(batch_positive, scalar_positive, "batch diverged under {kind}");
        let batched_ms = time_ms(opts.time_reps(), || {
            std::hint::black_box(engine.answer_batch(&pairs));
        });
        let batched_qps = pairs.len() as f64 / (batched_ms / 1e3).max(1e-12);
        let parallel_ms = time_ms(opts.time_reps(), || {
            std::hint::black_box(engine.answer_batch_parallel(&pairs, threads));
        });
        let parallel_qps = pairs.len() as f64 / (parallel_ms / 1e3).max(1e-12);

        t.row(vec![
            format!("{kind}+SKL"),
            format!("{scalar_qps:.0}"),
            format!("{batched_qps:.0}"),
            format!("{parallel_qps:.0}"),
            format!("{:.2}", batched_qps / scalar_qps),
            format!("{:.2}", parallel_qps / scalar_qps),
        ]);
    }
    t.note("identical 10^6-pair workload per strategy; batched/parallel reuse a warm skeleton memo");
    t.note("expected shape: memoization lifts the search schemes hardest; sharding lifts all");
    t.note(
        "the scalar loop only counts positives; the batched paths also materialize the \
         full answer vector (TCM's O(1) probes leave them nothing else to amortize)",
    );
    if threads == 1 {
        t.note("host exposes a single core: parallel sharding degenerates to the batched path");
    }
    t
}

// ======================================================================
// Live ingestion — query-while-running vs freeze-then-query (PR 3)
// ======================================================================

/// The canonical live-ingestion workload: one §8.2 synthetic run
/// linearized into its event stream, plus probe batches placed at evenly
/// spaced points of the stream, each over vertices already executed at
/// that point (in *exec order* — `mapping[i]` is the offline run vertex of
/// the `i`-th execution). Shared by the [`live_ingest`] experiment and the
/// `live_ingest` criterion bench.
#[allow(clippy::type_complexity)]
pub fn live_ingest_workload(
    quick: bool,
) -> (
    Specification,
    Run,
    Vec<RunEvent>,
    Vec<RunVertexId>,
    Vec<(usize, Vec<(RunVertexId, RunVertexId)>)>,
) {
    let spec = synthetic_spec(100);
    let size = if quick { 12_800 } else { 25_600 };
    let gen = generate_run_with_target(&spec, 2, size);
    let (events, mapping) = plan_to_events(&gen.run, &gen.plan);

    // exec count per event offset, to size each batch's vertex universe
    let mut execs_before = Vec::with_capacity(events.len() + 1);
    let mut execs = 0usize;
    for ev in &events {
        execs_before.push(execs);
        execs += matches!(ev, RunEvent::Exec(_)) as usize;
    }
    execs_before.push(execs);

    let checkpoints = 8usize;
    let per_batch = if quick { 50_000 } else { 125_000 };
    let mut rng = wfp_graph::rng::Xoshiro256::seed_from_u64(0x5DEE_CE66);
    let batches = (1..=checkpoints)
        .filter_map(|j| {
            let at = j * events.len() / (checkpoints + 1);
            // skip checkpoints before two executions exist — probing
            // unexecuted vertices would trip the engine's range assert
            let n = execs_before[at];
            if n < 2 {
                return None;
            }
            let pairs = (0..per_batch)
                .map(|_| {
                    (
                        RunVertexId(rng.gen_usize(n) as u32),
                        RunVertexId(rng.gen_usize(n) as u32),
                    )
                })
                .collect();
            Some((at, pairs))
        })
        .collect();
    (spec, gen.run, events, mapping, batches)
}

/// Replays `events[from..to)` into `live`, panicking on protocol errors
/// (generated streams are valid by construction).
pub fn replay<S: SpecIndex>(live: &mut LiveRun<'_, S>, events: &[RunEvent]) {
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

/// Live ingestion: per-probe latency of intermediate queries answered
/// **while the run streams** against the same probes under
/// freeze-then-query — the §9 scenario. The baseline is the genuine
/// "wait for completion" strategy: the offline pipeline labels the
/// finished run from scratch and answers the identical batches with its
/// own cold memo (probes translated through the exec-order mapping). The
/// headline column is `live/frozen ×`: the per-probe price of *not*
/// waiting for the workflow to finish. `freeze ms` vs `label ms` shows
/// what the zero-re-labeling handoff saves when the run does complete.
pub fn live_ingest(opts: &ReproOptions) -> Table {
    let (spec, run, events, mapping, batches) = live_ingest_workload(opts.quick);
    let total_probes: usize = batches.iter().map(|(_, b)| b.len()).sum();
    let mut t = Table::new(
        format!(
            "Live ingestion: query-while-running vs freeze-then-query \
             ({} events, {} probes in {} mid-stream batches)",
            events.len(),
            total_probes,
            batches.len()
        ),
        &[
            "scheme",
            "ingest ms",
            "live ns/probe",
            "freeze ms",
            "label ms",
            "frozen ns/probe",
            "live/frozen x",
        ],
    );
    for kind in [SchemeKind::Tcm, SchemeKind::Bfs, SchemeKind::Dfs] {
        let mut live = LiveRun::new(&spec, SpecScheme::build(kind, spec.graph()));
        let mut out = Vec::new();
        let mut cursor = 0usize;
        let mut ingest_s = 0.0f64;
        let mut live_probe_s = 0.0f64;
        let mut live_answers: Vec<Vec<bool>> = Vec::with_capacity(batches.len());
        for (at, pairs) in &batches {
            let started = std::time::Instant::now();
            replay(&mut live, &events[cursor..*at]);
            ingest_s += started.elapsed().as_secs_f64();
            cursor = *at;
            let started = std::time::Instant::now();
            let answers = live.answer_batch_into(pairs, &mut out);
            live_probe_s += started.elapsed().as_secs_f64();
            live_answers.push(answers.to_vec());
        }
        let started = std::time::Instant::now();
        replay(&mut live, &events[cursor..]);
        let ingest_ms = (ingest_s + started.elapsed().as_secs_f64()) * 1e3;

        // the zero-re-labeling handoff (labels extracted from the bracket
        // lists, skeleton and memo carried over) …
        let freeze_started = std::time::Instant::now();
        let handoff = live.freeze().expect("generated runs freeze");
        let freeze_ms = freeze_started.elapsed().as_secs_f64() * 1e3;

        // … versus the wait-for-completion baseline: label the finished
        // run from scratch and answer the same probes with a cold memo.
        let label_started = std::time::Instant::now();
        let labeled =
            LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
        let engine = QueryEngine::from_labeled(labeled);
        let label_ms = label_started.elapsed().as_secs_f64() * 1e3;

        let mut frozen_probe_s = 0.0f64;
        for ((_, pairs), live_ans) in batches.iter().zip(&live_answers) {
            let offline: Vec<_> = pairs
                .iter()
                .map(|&(u, v)| (mapping[u.index()], mapping[v.index()]))
                .collect();
            let started = std::time::Instant::now();
            let answers = engine.answer_batch_into(&offline, &mut out);
            frozen_probe_s += started.elapsed().as_secs_f64();
            assert_eq!(answers, &live_ans[..], "live diverged from offline under {kind}");
            // the handoff engine agrees too, on live exec-order ids
            debug_assert_eq!(handoff.answer_batch(pairs), live_ans.clone());
        }
        // outside debug builds, spot-check the handoff on the last batch
        let (_, last) = batches.last().expect("at least one batch");
        assert_eq!(
            handoff.answer_batch(last),
            live_answers.last().cloned().unwrap(),
            "freeze handoff diverged under {kind}"
        );

        let live_ns = live_probe_s * 1e9 / total_probes as f64;
        let frozen_ns = frozen_probe_s * 1e9 / total_probes as f64;
        t.row(vec![
            format!("{kind}+SKL"),
            fmt_f64(ingest_ms),
            fmt_f64(live_ns),
            fmt_f64(freeze_ms),
            fmt_f64(label_ms),
            fmt_f64(frozen_ns),
            format!("{:.2}", live_ns / frozen_ns.max(1e-9)),
        ]);
    }
    t.note("identical probe batches per strategy (frozen side translated to offline vertex ids);");
    t.note("live answers mid-stream over tag columns; frozen = offline relabel + cold memo");
    t.note("expected shape: live within ~2x of frozen per probe; freeze() far below label ms");
    t
}

// ======================================================================
// Fleet — one shared skeleton context serving K runs (PR 4)
// ======================================================================

/// The canonical fleet workload: `K = 8` runs of the §8.2 synthetic spec
/// plus 10⁶ mixed cross-run probes, `(run index, u, v)` with both vertices
/// valid in that run. Shared by the [`fleet`] experiment and the `fleet`
/// criterion bench.
#[allow(clippy::type_complexity)]
pub fn fleet_workload(
    quick: bool,
) -> (
    Specification,
    Vec<Run>,
    Vec<(usize, RunVertexId, RunVertexId)>,
) {
    let spec = synthetic_spec(100);
    let k = 8usize;
    let size = if quick { 3_200 } else { 12_800 };
    let runs: Vec<Run> = generate_fleet(&spec, 2, k, size)
        .into_iter()
        .map(|g| g.run)
        .collect();
    let mut rng = wfp_graph::rng::Xoshiro256::seed_from_u64(0x000F_1EE7);
    let probes = (0..1_000_000usize)
        .map(|_| {
            let r = rng.gen_usize(k);
            let n = runs[r].vertex_count();
            (
                r,
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect();
    (spec, runs, probes)
}

/// Answers fleet-shaped probes against per-run independent engines with
/// the *same* run-grouped evaluation shape as the fleet — so the
/// comparison isolates what sharing one spec context buys, not batching.
fn independent_answer(
    engines: &[QueryEngine<SpecScheme>],
    probes: &[(usize, RunVertexId, RunVertexId)],
) -> Vec<bool> {
    let mut per: Vec<Vec<usize>> = vec![Vec::new(); engines.len()];
    for (i, &(r, _, _)) in probes.iter().enumerate() {
        per[r].push(i);
    }
    let mut out = vec![false; probes.len()];
    let mut pairs = Vec::new();
    let mut buf = Vec::new();
    for (r, idxs) in per.iter().enumerate() {
        pairs.clear();
        pairs.extend(idxs.iter().map(|&i| (probes[i].1, probes[i].2)));
        engines[r].answer_batch_into(&pairs, &mut buf);
        for (&i, &a) in idxs.iter().zip(buf.iter()) {
            out[i] = a;
        }
    }
    out
}

/// Fleet serving: one shared `SpecContext` (skeleton + concurrent memo)
/// answering 10⁶ mixed probes over `K = 8` runs, against `K` independent
/// engines each owning a private skeleton and memo. Answers are asserted
/// byte-identical; the table reports throughput plus the
/// shared-vs-duplicated memory split ([`FleetEngine`]'s accounting).
pub fn fleet(opts: &ReproOptions) -> Table {
    let (spec, runs, probes) = fleet_workload(opts.quick);
    let k = runs.len();
    let mut t = Table::new(
        format!(
            "Fleet: one shared skeleton context vs {k} independent engines \
             ({} probes over {k} runs of ~{} vertices)",
            probes.len(),
            runs[0].vertex_count(),
        ),
        &[
            "scheme",
            "fleet q/s",
            "indep q/s",
            "fleet x",
            "spec state shared",
            "spec state indep",
            "memory x",
        ],
    );
    for kind in [SchemeKind::Tcm, SchemeKind::Bfs, SchemeKind::Dfs] {
        // the fleet: labels only per run (no per-run skeleton), one context
        let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
        let labels: Vec<Vec<wfp_skl::RunLabel>> = runs
            .iter()
            .map(|run| label_run(&spec, run).unwrap().0)
            .collect();
        let ids: Vec<RunId> = labels.iter().map(|l| fleet.register_labels(l)).collect();
        let traffic: Vec<(RunId, RunVertexId, RunVertexId)> = probes
            .iter()
            .map(|&(r, u, v)| (ids[r], u, v))
            .collect();

        // K independent engines: each builds (and owns) its own skeleton
        let engines: Vec<QueryEngine<SpecScheme>> = labels
            .iter()
            .map(|l| QueryEngine::from_labels(l, SpecScheme::build(kind, spec.graph())))
            .collect();

        // agreement first (cold pass both sides), then steady-state timing
        let fleet_answers = fleet.answer_batch(&traffic).unwrap();
        let indep_answers = independent_answer(&engines, &probes);
        assert_eq!(fleet_answers, indep_answers, "fleet diverged under {kind}");

        let fleet_ms = time_ms(opts.time_reps(), || {
            std::hint::black_box(fleet.answer_batch(&traffic).unwrap());
        });
        let indep_ms = time_ms(opts.time_reps(), || {
            std::hint::black_box(independent_answer(&engines, &probes));
        });
        let fleet_qps = probes.len() as f64 / (fleet_ms / 1e3).max(1e-12);
        let indep_qps = probes.len() as f64 / (indep_ms / 1e3).max(1e-12);

        let stats = fleet.stats();
        let indep_spec_bytes: usize = engines
            .iter()
            .map(|e| e.context().memory_bytes())
            .sum();
        t.row(vec![
            format!("{kind}+SKL"),
            format!("{fleet_qps:.0}"),
            format!("{indep_qps:.0}"),
            format!("{:.2}", fleet_qps / indep_qps),
            format!("{:.1} KiB", stats.spec_bytes as f64 / 1024.0),
            format!("{:.1} KiB", indep_spec_bytes as f64 / 1024.0),
            format!(
                "{:.1}",
                indep_spec_bytes as f64 / stats.spec_bytes.max(1) as f64
            ),
        ]);
    }
    t.note(format!(
        "both sides answer the identical probe set with the same run-grouped \
         batch shape; answers asserted byte-identical over all {} probes",
        probes.len()
    ));
    t.note("fleet: K runs share one skeleton + one warm concurrent memo (Arc-counted);");
    t.note("independent: every run owns a private skeleton index and memo");
    t.note("expected shape: ~Kx less spec-state memory; throughput at parity or better");
    t
}

/// Persistence (the PR 5 tentpole): a warm serving [`FleetEngine`] is
/// saved as one snapshot container (spec record + dense memo warm bytes +
/// `K` run label-column segments) and restored — versus relabeling the
/// same fleet from its runs. The restored fleet's answers are asserted
/// byte-identical over the full 10⁶-probe set, and the table reports the
/// restart memo hit-rate (warm snapshot carried across the restart).
pub fn persistence(opts: &ReproOptions) -> Table {
    let (spec, runs, probes) = fleet_workload(opts.quick);
    let k = runs.len();
    let mut t = Table::new(
        format!(
            "Persistence: load a saved {k}-run fleet vs relabel it from runs \
             ({} probes over runs of ~{} vertices)",
            probes.len(),
            runs[0].vertex_count(),
        ),
        &[
            "scheme",
            "relabel ms",
            "load ms",
            "load x",
            "snapshot",
            "warm cells",
            "restart hit-rate",
        ],
    );
    for kind in [SchemeKind::Tcm, SchemeKind::Bfs, SchemeKind::Dfs] {
        // the serving fleet: label once, warm the memo with real traffic
        let build = || {
            let mut fleet =
                FleetEngine::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
            let ids: Vec<RunId> = runs
                .iter()
                .map(|run| {
                    let (labels, _) = label_run(&spec, run).unwrap();
                    fleet.register_labels(&labels)
                })
                .collect();
            (fleet, ids)
        };
        let (fleet, ids) = build();
        let traffic: Vec<(RunId, RunVertexId, RunVertexId)> = probes
            .iter()
            .map(|&(r, u, v)| (ids[r], u, v))
            .collect();
        let original = fleet.answer_batch(&traffic).unwrap();

        // cold restart, the old way: rebuild context + relabel every run
        let relabel_ms = time_ms(opts.time_reps(), || {
            std::hint::black_box(build().0.stats().frozen);
        });

        // cold restart, the snapshot way: parse + map the columns back
        let bytes = fleet.save(spec.graph()).unwrap();
        let load_ms = time_ms(opts.time_reps(), || {
            std::hint::black_box(FleetEngine::load(&bytes).unwrap().0.stats().frozen);
        });

        let (restored, _graph) = FleetEngine::load(&bytes).unwrap();
        let restored_answers = restored.answer_batch(&traffic).unwrap();
        assert_eq!(
            restored_answers, original,
            "restored fleet diverged under {kind}"
        );
        let stats = restored.stats();
        let hit_rate = if restored.context().probe_memo().is_none() {
            f64::NAN // TCM: constant-time probes, no memo to warm
        } else {
            // restored counters include the pre-save traffic; the
            // post-restart share is the second half
            stats.engine.memo_hits as f64 / (stats.engine.skeleton as f64 / 2.0)
        };
        t.row(vec![
            format!("{kind}+SKL"),
            format!("{relabel_ms:.1}"),
            format!("{load_ms:.1}"),
            format!("{:.1}", relabel_ms / load_ms.max(1e-9)),
            format!("{:.2} MiB", bytes.len() as f64 / (1 << 20) as f64),
            format!("{}", restored.context().memo().warm_entries()),
            if hit_rate.is_nan() {
                "n/a (no memo)".to_string()
            } else {
                format!("{:.3}", hit_rate)
            },
        ]);
    }
    t.note("relabel: construct plans + three orders for every run, rebuild the context;");
    t.note("load: parse one container, map K label-column segments, restore warm memo");
    t.note("answers asserted byte-identical over the full probe set after restore;");
    t.note("restart hit-rate: share of post-restart skeleton delegations answered");
    t.note("from the restored warm memo (1.000 = zero warm-up probes re-run)");
    t
}

// ======================================================================
// Registry — many specs served behind one content-addressed map (PR 6)
// ======================================================================

/// The canonical registry workload: six specs — one per scheme — with
/// four runs each, plus 10⁶ mixed-spec probes `(spec index, run, u, v)`.
/// Shared by the [`registry`] experiment and the `registry` criterion
/// bench.
#[allow(clippy::type_complexity)]
pub fn registry_workload(
    quick: bool,
) -> (
    wfp_gen::GeneratedRegistry,
    Vec<(usize, RunId, RunVertexId, RunVertexId)>,
) {
    let target = if quick { 800 } else { 3_200 };
    let generated = wfp_gen::generate_registry(0xB405, SchemeKind::ALL.len(), 4, target);
    let books: Vec<Vec<(RunId, usize)>> = generated
        .fleets
        .iter()
        .map(|gens| {
            gens.iter()
                .enumerate()
                .filter(|(_, g)| g.run.vertex_count() > 0)
                .map(|(j, g)| (RunId(j as u32), g.run.vertex_count()))
                .collect()
        })
        .collect();
    let mut rng = wfp_graph::rng::Xoshiro256::seed_from_u64(0x0B00_C0DE);
    let probes = (0..1_000_000usize)
        .map(|_| {
            let s = rng.gen_usize(books.len());
            let (run, n) = books[s][rng.gen_usize(books[s].len())];
            (
                s,
                run,
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect();
    (generated, probes)
}

/// Registry serving (the PR 6 tentpole): six specs — one per scheme —
/// behind one [`ServiceRegistry`], answering 10⁶ mixed-spec probes in one
/// batch, against the baseline of six hand-routed independent
/// [`FleetEngine`]s. Cold starts are compared three ways: relabel every
/// run from scratch, eager snapshot load, and the registry's lazy
/// directory open; a tight byte budget then measures continuous
/// eviction/reload churn. Answers are asserted byte-identical everywhere.
///
/// [`ServiceRegistry`]: wfp_skl::ServiceRegistry
pub fn registry(opts: &ReproOptions) -> Table {
    use wfp_skl::{ServiceRegistry, SpecId};
    let (generated, probes) = registry_workload(opts.quick);
    let m = generated.specs.len();

    // the baseline: M independent fleets, probes hand-routed per spec
    let mut fleets: Vec<FleetEngine<'_, SpecScheme>> = Vec::with_capacity(m);
    let mut label_ms_total = 0.0;
    for (i, (spec, gens)) in generated.specs.iter().zip(&generated.fleets).enumerate() {
        let kind = SchemeKind::ALL[i];
        let started = std::time::Instant::now();
        let mut fleet = FleetEngine::for_spec(spec, SpecScheme::build(kind, spec.graph()));
        for g in gens {
            let (labels, _) = label_run(spec, &g.run).unwrap();
            fleet.register_labels(&labels);
        }
        label_ms_total += started.elapsed().as_secs_f64() * 1e3;
        fleets.push(fleet);
    }
    let baseline_answer = |fleets: &[FleetEngine<'_, SpecScheme>]| {
        let mut per: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, &(s, _, _, _)) in probes.iter().enumerate() {
            per[s].push(i);
        }
        let mut out = vec![false; probes.len()];
        let mut shard = Vec::new();
        for (s, idxs) in per.iter().enumerate() {
            shard.clear();
            shard.extend(idxs.iter().map(|&i| (probes[i].1, probes[i].2, probes[i].3)));
            let answers = fleets[s].answer_batch(&shard).unwrap();
            for (&i, a) in idxs.iter().zip(answers) {
                out[i] = a;
            }
        }
        out
    };
    let expected = baseline_answer(&fleets);
    let indep_ms = time_ms(opts.time_reps(), || {
        std::hint::black_box(baseline_answer(&fleets));
    });

    // the registry: same specs, same runs, routed by content-derived id
    let mut registry = ServiceRegistry::new();
    let mut ids: Vec<SpecId> = Vec::with_capacity(m);
    for (i, (spec, gens)) in generated.specs.iter().zip(&generated.fleets).enumerate() {
        let id = registry.register_spec(spec, SchemeKind::ALL[i]).unwrap();
        for g in gens {
            let (labels, _) = label_run(spec, &g.run).unwrap();
            registry.register_labels(id, &labels).unwrap();
        }
        ids.push(id);
    }
    let traffic: Vec<(SpecId, RunId, RunVertexId, RunVertexId)> = probes
        .iter()
        .map(|&(s, run, u, v)| (ids[s], run, u, v))
        .collect();
    assert_eq!(
        registry.answer_batch(&traffic).unwrap(),
        expected,
        "registry diverged from independent fleets"
    );
    let registry_ms = time_ms(opts.time_reps(), || {
        std::hint::black_box(registry.answer_batch(&traffic).unwrap());
    });

    // cold starts: relabel-from-scratch vs lazy snapshot-directory open
    let dir = std::env::temp_dir().join(format!("wfp-bench-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    registry.save_dir(&dir).unwrap();
    let lazy_ms = time_ms(opts.time_reps(), || {
        let mut r = ServiceRegistry::open_dir(&dir, None).unwrap();
        for &id in &ids {
            r.ensure_resident(id).unwrap();
        }
        std::hint::black_box(r.stats().resident);
    });

    // eviction/reload churn: a budget holding roughly two of six fleets
    let budget = registry.resident_bytes() / 3;
    let mut evicting = ServiceRegistry::open_dir(&dir, Some(budget)).unwrap();
    assert_eq!(
        evicting.answer_batch(&traffic).unwrap(),
        expected,
        "evicting registry diverged"
    );
    let evicting_ms = time_ms(opts.time_reps(), || {
        std::hint::black_box(evicting.answer_batch(&traffic).unwrap());
    });
    let churn = evicting.stats();
    let _ = std::fs::remove_dir_all(&dir);

    let qps = |ms: f64| probes.len() as f64 / (ms / 1e3).max(1e-12);
    let mut t = Table::new(
        format!(
            "Registry: {m} specs (one per scheme) behind one content-addressed \
             registry ({} mixed-spec probes, {} runs/spec)",
            probes.len(),
            generated.fleets[0].len(),
        ),
        &["serving mode", "cold start ms", "probe q/s", "vs fleets"],
    );
    t.row(vec![
        format!("{m} hand-routed fleets"),
        format!("{label_ms_total:.1} (relabel)"),
        format!("{:.0}", qps(indep_ms)),
        "1.00".to_string(),
    ]);
    t.row(vec![
        "registry, resident".to_string(),
        format!("{lazy_ms:.1} (lazy load)"),
        format!("{:.0}", qps(registry_ms)),
        format!("{:.2}", qps(registry_ms) / qps(indep_ms)),
    ]);
    t.row(vec![
        format!("registry, budget {:.0} KiB", budget as f64 / 1024.0),
        "—".to_string(),
        format!("{:.0}", qps(evicting_ms)),
        format!("{:.2}", qps(evicting_ms) / qps(indep_ms)),
    ]);
    t.note("answers asserted byte-identical across all three modes over the full probe set;");
    t.note("cold start: relabel = plans + orders + labels for every run of every spec,");
    t.note("lazy load = open the snapshot directory and fault all six fleets in;");
    t.note(format!(
        "budget row churns continuously: {} evictions, {} lazy reloads \
         across the timed batches",
        churn.evictions, churn.lazy_loads,
    ));
    t.note("expected shape: lazy load beats relabel; routing overhead within noise");
    t
}

// ======================================================================
// Reload — zero-copy snapshot fault-in over aligned columns (PR 10)
// ======================================================================

/// Shared payload for the [`reload`] experiment and the `reload`
/// criterion bench: six fleets (one per scheme, four sealed-packed runs
/// each) serialized as aligned-column snapshots.
pub fn reload_workload(quick: bool) -> (wfp_gen::GeneratedRegistry, Vec<Vec<u8>>) {
    let target = if quick { 2_000 } else { 16_000 };
    let generated = wfp_gen::generate_registry(0x4E10_AD10, SchemeKind::ALL.len(), 4, target);
    let snapshots = generated
        .specs
        .iter()
        .zip(&generated.fleets)
        .enumerate()
        .map(|(i, (spec, gens))| {
            let kind = SchemeKind::ALL[i];
            let mut fleet = FleetEngine::for_spec(spec, SpecScheme::build(kind, spec.graph()));
            for g in gens {
                let (labels, _) = label_run(spec, &g.run).unwrap();
                fleet.register_labels(&labels);
            }
            fleet.seal_packed_all();
            fleet.save(spec.graph()).unwrap()
        })
        .collect();
    (generated, snapshots)
}

/// Snapshot reload (the PR 10 tentpole): the same sealed-packed fleets
/// faulted in two ways — the zero-copy fault-in (full container
/// validation, then the query engine binds the load buffer) and the
/// registry's trusted rebind (evict→reload churn of unmodified fleets
/// through the memory store, where pointer identity lets the reload skip
/// even the per-payload checksum pass). Probe throughput is measured
/// through the reloaded views, with answers asserted byte-identical to
/// the raw labels.
pub fn reload(opts: &ReproOptions) -> Table {
    use std::sync::Arc;
    use wfp_skl::{ServiceRegistry, SpecId};
    let (generated, snapshots) = reload_workload(opts.quick);
    let m = snapshots.len();
    let total_bytes: usize = snapshots.iter().map(Vec::len).sum();
    let reps = 5 * opts.time_reps();

    let arcs: Vec<Arc<[u8]>> = snapshots.iter().map(|b| Arc::from(b.as_slice())).collect();
    let fault_ms = time_ms(reps, || {
        for arc in &arcs {
            std::hint::black_box(FleetEngine::load_shared(Arc::clone(arc)).unwrap());
        }
    });

    // the registry churn: after the priming cycle every offload is clean
    // (content never diverges from the stored snapshot), so every reload
    // is a pointer rebind of the retained buffer
    let mut registry = ServiceRegistry::new();
    let mut ids: Vec<SpecId> = Vec::with_capacity(m);
    let mut raw_labels = Vec::new();
    for (i, (spec, gens)) in generated.specs.iter().zip(&generated.fleets).enumerate() {
        let id = registry.register_spec(spec, SchemeKind::ALL[i]).unwrap();
        for g in gens {
            let (labels, _) = label_run(spec, &g.run).unwrap();
            registry.register_labels(id, &labels).unwrap();
            if i == 0 {
                raw_labels.push(labels);
            }
        }
        registry.seal_packed(id).unwrap();
        ids.push(id);
    }
    for &id in &ids {
        registry.evict(id).unwrap();
        registry.ensure_resident(id).unwrap();
    }
    let rebind_ms = time_ms(reps, || {
        for &id in &ids {
            registry.evict(id).unwrap();
            registry.ensure_resident(id).unwrap();
        }
    });
    let churn = registry.stats();
    assert_eq!(
        churn.zero_copy_loads, churn.lazy_loads,
        "an all-packed reload fell off the zero-copy path"
    );

    // probe parity: the reloaded views answer byte-identically to the raw
    // labels they were packed from
    let books: Vec<(RunId, usize)> = generated.fleets[0]
        .iter()
        .enumerate()
        .filter(|(_, g)| g.run.vertex_count() > 0)
        .map(|(j, g)| (RunId(j as u32), g.run.vertex_count()))
        .collect();
    let mut rng = wfp_graph::rng::Xoshiro256::seed_from_u64(0x4E10_AD11);
    let probes: Vec<(RunId, RunVertexId, RunVertexId)> = (0..opts.query_count())
        .map(|_| {
            let (run, n) = books[rng.gen_usize(books.len())];
            (
                run,
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect();
    let spec = &generated.specs[0];
    let mut raw_fleet =
        FleetEngine::for_spec(spec, SpecScheme::build(SchemeKind::ALL[0], spec.graph()));
    for labels in &raw_labels {
        raw_fleet.register_labels(labels);
    }
    let (view_fleet, _, profile) = FleetEngine::load_shared(Arc::clone(&arcs[0])).unwrap();
    assert!(
        profile.zero_copy_runs > 0 && profile.decoded_runs == 0,
        "the shared load decoded instead of binding"
    );
    assert_eq!(
        view_fleet.answer_batch(&probes).unwrap(),
        raw_fleet.answer_batch(&probes).unwrap(),
        "reloaded views diverged from the raw labels"
    );
    let view_ms = time_ms(opts.time_reps(), || {
        std::hint::black_box(view_fleet.answer_batch(&probes).unwrap());
    });

    let qps = |ms: f64| probes.len() as f64 / (ms / 1e3).max(1e-12);
    let mut t = Table::new(
        format!(
            "Snapshot reload: {m} sealed-packed fleets ({:.1} MiB of aligned \
             snapshots), {} probes through the reloaded columns",
            total_bytes as f64 / (1024.0 * 1024.0),
            probes.len(),
        ),
        &["fault-in path", "reload ms (all fleets)", "probe q/s"],
    );
    t.row(vec![
        "zero-copy bind (validated)".to_string(),
        format!("{fault_ms:.2}"),
        format!("{:.0}", qps(view_ms)),
    ]);
    t.row(vec![
        "trusted rebind (registry churn)".to_string(),
        format!("{rebind_ms:.2}"),
        "—".to_string(),
    ]);
    t.note("answers asserted byte-identical: reloaded views vs raw labels over the probe set;");
    t.note("zero-copy = parse + CRC the container, then bind the query engine to the load buffer,");
    t.note("rebind = registry evict→reload of an unmodified fleet (pointer identity skips payload CRCs);");
    t.note(format!(
        "churn accounting: {} lazy loads, {} zero-copy, {:.1} MiB read back",
        churn.lazy_loads,
        churn.zero_copy_loads,
        churn.reload_bytes as f64 / (1024.0 * 1024.0),
    ));
    t
}

// ======================================================================
// Serving — the request/response loop over the registry (PR 8)
// ======================================================================

/// The serving payload: one `(spec, scheme, per-run frozen labels)` entry
/// per registered spec — everything a builder closure needs to
/// reconstruct the registry on the dispatch thread.
pub type ServingPayload = Vec<(Specification, SchemeKind, Vec<Vec<wfp_skl::RunLabel>>)>;

/// SpecId-routed mixed-spec probe traffic.
pub type ServingTraffic = Vec<(wfp_skl::SpecId, RunId, RunVertexId, RunVertexId)>;

/// Shared payload for the serving experiment and the criterion bench:
/// six specs (one per scheme), their frozen run labels, and SpecId-routed
/// mixed traffic, with the direct registry the traffic was addressed to.
pub fn serving_workload(
    quick: bool,
    probes: usize,
) -> (wfp_skl::ServiceRegistry<'static>, ServingPayload, ServingTraffic) {
    use wfp_skl::ServiceRegistry;
    let target = if quick { 800 } else { 3_200 };
    let generated = wfp_gen::generate_registry(0x5E21, SchemeKind::ALL.len(), 4, target);

    let mut payload = Vec::with_capacity(generated.specs.len());
    let mut direct: ServiceRegistry<'static> = ServiceRegistry::new();
    let mut books = Vec::new();
    for (i, (spec, gens)) in generated
        .specs
        .into_iter()
        .zip(generated.fleets)
        .enumerate()
    {
        let kind = SchemeKind::ALL[i];
        let id = direct.register_spec(&spec, kind).unwrap();
        let mut labeled = Vec::with_capacity(gens.len());
        let mut runs = Vec::new();
        for g in &gens {
            let (labels, _) = label_run(&spec, &g.run).unwrap();
            let rid = direct.register_labels(id, &labels).unwrap();
            if g.run.vertex_count() > 0 {
                runs.push((rid, g.run.vertex_count()));
            }
            labeled.push(labels);
        }
        assert!(!runs.is_empty(), "spec {i} generated only empty runs");
        payload.push((spec, kind, labeled));
        books.push((id, runs));
    }

    let mut rng = wfp_graph::rng::Xoshiro256::seed_from_u64(0x0B00_C0DE);
    let traffic = (0..probes)
        .map(|_| {
            let (id, runs) = &books[rng.gen_usize(books.len())];
            let (run, n) = runs[rng.gen_usize(runs.len())];
            (
                *id,
                run,
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect();
    (direct, payload, traffic)
}

/// The number of dispatch shards the serving experiment and the CI smoke
/// use for the sharded rows.
pub const SERVING_SHARDS: usize = 4;

/// Spawns the sharded serving loop over the shared payload: each shard
/// registers only the specs the plan routes to it.
pub fn sharded_serving_server(
    config: wfp_skl::ServeConfig,
    shards: usize,
    payload: std::sync::Arc<ServingPayload>,
) -> wfp_skl::ShardedServer<()> {
    use wfp_skl::{serve_sharded, ServiceRegistry, ShardPlan, SpecId};
    let plan = ShardPlan::new();
    serve_sharded(config, shards, plan.clone(), move |shard, shards| {
        let mut registry: ServiceRegistry<'static> = ServiceRegistry::new();
        for (spec, kind, labeled) in payload.iter() {
            if plan.shard_of(SpecId::of(*kind, spec.graph()), shards) != shard {
                continue;
            }
            let id = registry.register_spec(spec, *kind)?;
            for labels in labeled {
                registry.register_labels(id, labels)?;
            }
        }
        Ok((registry, ()))
    })
    .expect("sharded serving loop starts")
}

/// Drives `requests` through `handle` from `clients` closed-loop client
/// threads, each keeping `depth` requests outstanding (depth 1 is the
/// classic submit-and-wait round trip). Returns the reassembled answers
/// and the wall-clock seconds.
fn drive_clients(
    handle: &wfp_skl::ServeHandle,
    requests: &[&[(wfp_skl::SpecId, RunId, RunVertexId, RunVertexId)]],
    clients: usize,
    depth: usize,
) -> (Vec<bool>, f64) {
    let mut served: Vec<Option<Vec<bool>>> = vec![None; requests.len()];
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut answered = Vec::new();
                    let mut inflight: std::collections::VecDeque<(usize, wfp_skl::Ticket)> =
                        std::collections::VecDeque::with_capacity(depth);
                    for j in (c..requests.len()).step_by(clients) {
                        if inflight.len() == depth {
                            let (jj, ticket) = inflight.pop_front().unwrap();
                            answered.push((jj, ticket.wait().unwrap()));
                        }
                        inflight.push_back((j, handle.submit(requests[j].to_vec()).unwrap()));
                    }
                    for (jj, ticket) in inflight {
                        answered.push((jj, ticket.wait().unwrap()));
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
    let elapsed = started.elapsed().as_secs_f64();
    let flat = served
        .into_iter()
        .enumerate()
        .flat_map(|(j, a)| a.unwrap_or_else(|| panic!("request {j} was never answered")))
        .collect();
    (flat, elapsed)
}

/// Serving (the PR 8 tentpole, resharded in PR 9): the same six-scheme
/// registry, probed four ways over identical traffic — one direct
/// `answer_batch` call (the ceiling: zero admission overhead, perfect
/// batching), the single-dispatch request/response loop with four
/// closed-loop clients, and the sharded dispatcher ([`SERVING_SHARDS`]
/// spec-affinity shards) driven both at pipelining depth 1 (apples to
/// apples with the single loop) and at depth 16 (the same clients keep
/// 16 requests outstanding so the admission windows never drain dry —
/// the identical batch/window/queue config throughout). Reports
/// sustained throughput, the coalesced batch-size histogram, per-shard
/// load, and per-scheme p50/p99 serve latency; every served mode is
/// asserted byte-identical to the direct call.
pub fn serving(opts: &ReproOptions) -> Table {
    use std::time::Duration;
    use wfp_skl::ServeConfig;

    const CLIENTS: usize = 4;
    const PER_REQUEST: usize = 64;
    const DEPTH: usize = 16;
    let probes_total = if opts.quick { 200_000 } else { 1_000_000 };
    let (mut direct, payload, traffic) = serving_workload(opts.quick, probes_total);
    let payload = std::sync::Arc::new(payload);

    let expected = direct.answer_batch(&traffic).unwrap();
    let direct_ms = time_ms(opts.time_reps(), || {
        std::hint::black_box(direct.answer_batch(&traffic).unwrap());
    });

    let config = ServeConfig {
        max_batch: 8192,
        window: Duration::from_micros(200),
        queue_cap: 1024,
        threads: 1,
    };
    let requests: Vec<_> = traffic.chunks(PER_REQUEST).collect();

    // --- one shard (a single dispatch thread), depth-1 round trips ---
    let server = sharded_serving_server(config, 1, std::sync::Arc::clone(&payload));
    let (served_flat, served_s) = drive_clients(&server.handle(), &requests, CLIENTS, 1);
    assert_eq!(served_flat, expected, "served loop diverged from answer_batch");
    let stats = server.shutdown().unwrap().merged;
    assert_eq!(stats.probes_answered, probes_total as u64);
    assert_eq!(stats.probes_failed, 0);

    // --- sharded dispatch, same admission config, depth 1 and depth 16 --
    let sharded = sharded_serving_server(config, SERVING_SHARDS, std::sync::Arc::clone(&payload));
    let (sharded_flat, sharded_s) = drive_clients(&sharded.handle(), &requests, CLIENTS, 1);
    assert_eq!(sharded_flat, expected, "sharded loop diverged from answer_batch");
    let (piped_flat, piped_s) = drive_clients(&sharded.handle(), &requests, CLIENTS, DEPTH);
    assert_eq!(piped_flat, expected, "pipelined sharded loop diverged");
    let sharded_stats = sharded.shutdown().unwrap();
    assert_eq!(sharded_stats.merged.probes_answered, 2 * probes_total as u64);
    assert_eq!(sharded_stats.merged.probes_failed, 0);

    let direct_qps = probes_total as f64 / (direct_ms / 1e3).max(1e-12);
    let served_qps = probes_total as f64 / served_s.max(1e-12);
    let sharded_qps = probes_total as f64 / sharded_s.max(1e-12);
    let piped_qps = probes_total as f64 / piped_s.max(1e-12);
    let mut t = Table::new(
        format!(
            "Serving: sharded dispatch vs single loop vs direct answer_batch \
             ({probes_total} probes, {CLIENTS} closed-loop clients x \
             {PER_REQUEST}/request, {SERVING_SHARDS} shards)"
        ),
        &["mode / scheme", "probes", "q/s", "p50 us", "p99 us"],
    );
    t.row(vec![
        "direct answer_batch".to_string(),
        probes_total.to_string(),
        format!("{direct_qps:.0}"),
        "—".to_string(),
        "—".to_string(),
    ]);
    t.row(vec![
        "served, 1 dispatch thread".to_string(),
        probes_total.to_string(),
        format!("{served_qps:.0}"),
        "—".to_string(),
        "—".to_string(),
    ]);
    t.row(vec![
        format!("served, {SERVING_SHARDS} shards, depth 1"),
        probes_total.to_string(),
        format!("{sharded_qps:.0}"),
        "—".to_string(),
        "—".to_string(),
    ]);
    t.row(vec![
        format!("served, {SERVING_SHARDS} shards, depth {DEPTH}"),
        probes_total.to_string(),
        format!("{piped_qps:.0}"),
        "—".to_string(),
        "—".to_string(),
    ]);
    for kind in SchemeKind::ALL {
        let lat = sharded_stats.merged.scheme(kind);
        if lat.probes == 0 {
            continue;
        }
        t.row(vec![
            format!("  {kind}"),
            lat.probes.to_string(),
            "—".to_string(),
            lat.p50_us().unwrap_or(0).to_string(),
            lat.p99_us().unwrap_or(0).to_string(),
        ]);
    }
    t.note("every served mode asserted byte-identical to the direct batch call;");
    t.note("per-scheme latency is submit -> reply across both sharded drives;");
    t.note(format!(
        "single-loop admission: {} batches ({} full / {} timer / {} drain), \
         probes/batch p50 {} p99 {} max {}",
        stats.batches,
        stats.batches_full,
        stats.batches_timer,
        stats.batches_drain,
        stats.batch_probes.quantile(0.50).unwrap_or(0),
        stats.batch_probes.quantile(0.99).unwrap_or(0),
        stats.batch_probes.max(),
    ));
    t.note(format!(
        "sharded admission: {} batches ({} full / {} timer / {} drain), \
         probes/batch p50 {} p99 {} max {}",
        sharded_stats.merged.batches,
        sharded_stats.merged.batches_full,
        sharded_stats.merged.batches_timer,
        sharded_stats.merged.batches_drain,
        sharded_stats.merged.batch_probes.quantile(0.50).unwrap_or(0),
        sharded_stats.merged.batch_probes.quantile(0.99).unwrap_or(0),
        sharded_stats.merged.batch_probes.max(),
    ));
    t.note(format!(
        "per-shard probes answered: [{}]",
        sharded_stats
            .per_shard
            .iter()
            .map(|s| s.probes_answered.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    ));
    t.note("expected shape: depth 1 is window-bound (every client blocked while the");
    t.note("window fills); depth 16 keeps the windows full at the identical config, so");
    t.note("the sharded loop closes most of the gap to the direct call");
    t
}

// ======================================================================
// Kernel — scalar reference vs column sweep vs packed columns (PR 7)
// ======================================================================

/// Batch-kernel ablation (the PR 7 tentpole): the branchless column-sweep
/// kernel against the retired scalar per-pair reference, and against the
/// same sweep reading bit-packed label columns, over the canonical
/// 10⁶-pair workload ([`throughput_workload`]) — per scheme. All three
/// paths are asserted byte-identical before anything is timed. The last
/// columns report what packing buys at rest: the fleet snapshot size with
/// raw [`seg::RUN_COLUMNS`] segments versus bit-packed
/// [`seg::PACKED_COLUMNS_ALIGNED`] segments for the identical fleet.
///
/// [`seg::RUN_COLUMNS`]: wfp_skl::snapshot::seg::RUN_COLUMNS
/// [`seg::PACKED_COLUMNS_ALIGNED`]: wfp_skl::snapshot::seg::PACKED_COLUMNS_ALIGNED
pub fn kernel(opts: &ReproOptions) -> Table {
    let (spec, run, pairs) = throughput_workload(opts.quick);
    let mut t = Table::new(
        format!(
            "Kernel: branchless column sweep vs scalar reference vs packed columns \
             (n_R = {}, {} pairs)",
            run.vertex_count(),
            pairs.len(),
        ),
        &[
            "scheme",
            "scalar q/s",
            "sweep q/s",
            "packed q/s",
            "sweep x",
            "packed x",
            "snap raw KiB",
            "snap packed KiB",
            "snap shrink",
        ],
    );
    for kind in [SchemeKind::Tcm, SchemeKind::Bfs, SchemeKind::Dfs] {
        let labeled =
            LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
        let engine = QueryEngine::from_labeled(labeled);
        let packed = engine.seal_packed();

        // byte-identical agreement first; the timed passes then measure
        // the steady state over a memo the cold pass already warmed
        let mut out = Vec::new();
        let sweep_answers = engine.answer_batch(&pairs);
        assert_eq!(
            engine.answer_batch_scalar_into(&pairs, &mut out),
            &sweep_answers[..],
            "sweep diverged from the scalar reference under {kind}"
        );
        assert_eq!(
            packed.answer_batch(&pairs),
            sweep_answers,
            "packed sweep diverged under {kind}"
        );

        // best-of-reps ([`best_ms`]): these kernels run in single-digit
        // milliseconds, where ambient load smears an average badly
        let reps = opts.time_reps() + 4;
        let scalar_ms = best_ms(reps, || {
            std::hint::black_box(engine.answer_batch_scalar_into(&pairs, &mut out).len());
        });
        let sweep_ms = best_ms(reps, || {
            std::hint::black_box(engine.answer_batch_into(&pairs, &mut out).len());
        });
        let packed_ms = best_ms(reps, || {
            std::hint::black_box(packed.answer_batch_into(&pairs, &mut out).len());
        });
        let qps = |ms: f64| pairs.len() as f64 / (ms / 1e3).max(1e-12);

        // at-rest delta: the same one-run fleet snapshotted raw vs packed
        let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(kind, spec.graph()));
        let (labels, _) = label_run(&spec, &run).unwrap();
        fleet.register_labels(&labels);
        let raw_snap = fleet.save(spec.graph()).unwrap().len();
        fleet.seal_packed_all();
        let packed_snap = fleet.save(spec.graph()).unwrap().len();

        t.row(vec![
            format!("{kind}+SKL"),
            format!("{:.0}", qps(scalar_ms)),
            format!("{:.0}", qps(sweep_ms)),
            format!("{:.0}", qps(packed_ms)),
            format!("{:.2}", qps(sweep_ms) / qps(scalar_ms)),
            format!("{:.2}", qps(packed_ms) / qps(scalar_ms)),
            format!("{:.1}", raw_snap as f64 / 1024.0),
            format!("{:.1}", packed_snap as f64 / 1024.0),
            format!("-{:.0}%", 100.0 * (1.0 - packed_snap as f64 / raw_snap as f64)),
        ]);
    }
    t.note("identical 10^6-pair workload and identical answers across all three paths;");
    t.note("scalar = the retired per-pair reference loop; sweep = 64-lane gather + mask kernel;");
    t.note("packed = the same sweep gathering straight from bit-packed columns");
    t.note("snapshot sizes: one-run fleet container, raw vs packed run segments");
    t
}

// ======================================================================
// Extra: the tree-expansion baseline (beyond the paper's figures)
// ======================================================================

/// Extra experiment: Heinis & Alonso's DAG-to-tree transform \[8\] against
/// SKL on QBLAST runs — demonstrating the exponential blow-up that
/// motivates the paper (§2: "the size of the transformed tree may be
/// exponential in the size of the original graph").
pub fn baseline(opts: &ReproOptions) -> Table {
    let spec = qblast_spec();
    let budget = 50_000_000usize;
    let mut t = Table::new(
        "Extra: Tree-Expansion Baseline [Heinis & Alonso '08] vs SKL (QBLAST runs)",
        &[
            "run size",
            "SKL bits/vertex",
            "SKL total KiB",
            "tree nodes",
            "expansion ×",
            "TreeExp total KiB",
        ],
    );
    for size in opts.ladder() {
        let GeneratedRun { run, .. } = generate_run_with_target(&spec, 3, size);
        let labeled = LabeledRun::build(
            &spec,
            SpecScheme::build(SchemeKind::Tcm, spec.graph()),
            &run,
        )
        .unwrap();
        let skl_bits = labeled.fixed_label_bits();
        let skl_total = (skl_bits * run.vertex_count()) as f64 / 8.0 / 1024.0;
        let (nodes, factor, total) = match TreeExpansion::build(run.graph(), budget) {
            Ok(exp) => (
                exp.tree_size().to_string(),
                format!("{:.1}", exp.expansion_factor()),
                fmt_f64(exp.total_bits() as f64 / 8.0 / 1024.0),
            ),
            Err(e) => (
                format!("> {}", e.budget),
                "overflow".to_string(),
                "—".to_string(),
            ),
        };
        t.row(vec![
            size_label(size),
            skl_bits.to_string(),
            fmt_f64(skl_total),
            nodes,
            factor,
            total,
        ]);
    }
    t.note("expected shape: SKL linear in run size; the tree transform explodes and overflows");
    t.note(format!("tree-node budget: {budget}"));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quick options with an output directory of this test's own (pid
    /// plus test name).
    fn tiny() -> ReproOptions {
        let thread = std::thread::current();
        let test = thread.name().unwrap_or("main").replace("::", "-");
        ReproOptions {
            quick: true,
            out_dir: std::env::temp_dir()
                .join("wfp-bench-test")
                .join(format!("{}-{test}", std::process::id())),
        }
    }

    #[test]
    fn table1_matches_published_rows() {
        let t = table1(&tiny());
        assert_eq!(t.len(), 6);
        let rendered = t.render();
        assert!(rendered.contains("QBLAST"));
        assert!(rendered.contains("58"));
        assert!(rendered.contains("158"));
    }

    #[test]
    fn synthetic_specs_hit_parameters() {
        for n in [50usize, 100, 200] {
            let spec = synthetic_spec(n);
            assert_eq!(spec.module_count(), n);
            assert_eq!(spec.channel_count(), 2 * n);
            assert_eq!(spec.hierarchy().size(), 10);
            assert_eq!(spec.hierarchy().max_depth(), 4);
        }
    }

    #[test]
    fn fig12_rows_cover_the_ladder_and_respect_the_bound() {
        let opts = ReproOptions {
            quick: true,
            ..tiny()
        };
        let t = fig12(&opts);
        assert_eq!(t.len(), opts.ladder().len());
        let rendered = t.render();
        assert!(rendered.contains("0.1K"));
        assert!(rendered.contains("12.8K"));
    }
}
