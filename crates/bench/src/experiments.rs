//! One reproduction function per table/figure of the paper's §8.
//!
//! Terminology matches the paper: `TCM+SKL` / `BFS+SKL` label the
//! specification with TCM or BFS and the run with the skeleton scheme;
//! bare `TCM` / `BFS` index the *run* directly (the scalability baselines).
//! Amortized costs spread the specification-labeling cost over `k` runs
//! (Table 2).

use std::collections::VecDeque;
use std::hint::black_box;

use wfp_gen::{
    generate_run_with_target, generate_spec, random_pairs, real_workflows, stand_in, GeneratedRun,
    SpecGenConfig,
};
use wfp_graph::traversal::{bfs_reaches, VisitMap};
use wfp_graph::{DiGraph, TransitiveClosure};
use wfp_model::{Run, Specification};
use wfp_skl::{construct_plan, LabeledRun};
use wfp_speclabel::TreeExpansion;
use wfp_speclabel::{SchemeKind, SpecIndex, SpecScheme};

use crate::options::ReproOptions;
use crate::table::{fmt_f64, Table};
use crate::timing::{predicate_time_ms, query_time_ms, time_ms};

/// The §8.2 synthetic specification: `n_G=100, m_G=200, |T_G|=10, [T_G]=4`.
fn synthetic_spec(modules: usize) -> Specification {
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
fn qblast_spec() -> Specification {
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
    let labeled_tcm = LabeledRun::build(
        &spec,
        SpecScheme::build(SchemeKind::Tcm, spec.graph()),
        &run,
    )
    .unwrap();
    let (tcm_skl_q, _) = query_time_ms(&labeled_tcm, &pairs);
    let labeled_bfs = LabeledRun::build(
        &spec,
        SpecScheme::build(SchemeKind::Bfs, spec.graph()),
        &run,
    )
    .unwrap();
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
            let GeneratedRun { run, .. } = generate_run_with_target(&spec, 1000 + s as u64, size);
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
            format!(
                "{:.0}%",
                100.0 * (default_ms - with_plan_ms) / default_ms.max(1e-9)
            ),
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
            let GeneratedRun { run, .. } = generate_run_with_target(spec, 41 + *n as u64, size);
            let labeled =
                LabeledRun::build(spec, SpecScheme::build(SchemeKind::Tcm, spec.graph()), &run)
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
            let labeled =
                LabeledRun::build(spec, SpecScheme::build(SchemeKind::Bfs, spec.graph()), &run)
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

// ======================================================================
// Extras: design ablations, ConstructPlan alone, the six spec schemes
// ======================================================================

/// The answers of `pred` on `pairs`. A table's variants differ in cost
/// only, so each table requires theirs to be equal.
fn answers<V: Copy>(pairs: &[(V, V)], mut pred: impl FnMut(V, V) -> bool) -> Vec<bool> {
    pairs.iter().map(|&(u, v)| pred(u, v)).collect()
}

/// [`bfs_reaches`] with a visited buffer and a queue allocated for this one
/// query: the baseline of the [`VisitMap`] ablation.
fn fresh_bfs_reaches(g: &DiGraph, from: u32, to: u32) -> bool {
    if from == to {
        return true;
    }
    let mut visited = vec![false; g.vertex_count()];
    let mut queue = VecDeque::from([from]);
    visited[from as usize] = true;
    while let Some(v) = queue.pop_front() {
        for w in g.successors(v) {
            if w == to {
                return true;
            }
            if !std::mem::replace(&mut visited[w as usize], true) {
                queue.push_back(w);
            }
        }
    }
    false
}

/// Extra experiment: two design choices against their naive alternative.
/// πr's context short-circuit against always consulting the skeleton
/// (BFS+SKL), which quantifies §8.2's "queries may frequently be answered
/// using only the extended labels"; and the BFS scheme's epoch-stamped
/// [`VisitMap`], reused across queries, against a fresh visited buffer per
/// query.
pub fn ablation(opts: &ReproOptions) -> Table {
    let spec = synthetic_spec(100);
    let size = if opts.quick { 12_800 } else { 25_600 };
    let GeneratedRun { run, .. } = generate_run_with_target(&spec, 3, size);
    let labeled = LabeledRun::build(
        &spec,
        SpecScheme::build(SchemeKind::Bfs, spec.graph()),
        &run,
    )
    .unwrap();
    let pairs = random_pairs(&run, opts.query_count().min(200_000), 9);
    // πr's decision, but the skeleton is probed even when the context
    // encoding alone decides the query
    let always_consult = |u, v| {
        let (a, b) = (labeled.label(u), labeled.label(v));
        let skeleton = black_box(labeled.skeleton().reaches(a.origin.raw(), b.origin.raw()));
        if (a.q2 < b.q2) != (a.q3 < b.q3) && a.q2 != b.q2 && a.q3 != b.q3 {
            a.q1 < b.q1 && a.q3 > b.q3
        } else {
            skeleton
        }
    };
    let (short_circuit_ms, _) = query_time_ms(&labeled, &pairs);
    let (consult_ms, _) = predicate_time_ms(&pairs, always_consult);
    assert!(
        answers(&pairs, |u, v| labeled.reaches(u, v)) == answers(&pairs, always_consult),
        "always consulting the skeleton changed an answer"
    );

    let spec = synthetic_spec(200);
    let g = spec.graph();
    let n = g.vertex_count() as u32;
    let queries: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| [(u, (u * 7 + 3) % n), ((u * 5 + 1) % n, u)])
        .cycle()
        .take(opts.query_count())
        .collect();
    let (mut visit, mut queue) = (VisitMap::new(n as usize), VecDeque::new());
    let mut reuse = |u, v| bfs_reaches(g, u, v, &mut visit, &mut queue);
    let fresh = |u, v| fresh_bfs_reaches(g, u, v);
    let (reused_ms, _) = predicate_time_ms(&queries, &mut reuse);
    let (fresh_ms, _) = predicate_time_ms(&queries, fresh);
    assert!(
        answers(&queries, &mut reuse) == answers(&queries, fresh),
        "a fresh visited buffer changed a BFS answer"
    );

    let mut t = Table::new(
        "Extra: Design Ablations (ns/query)",
        &["choice", "variant", "ns/query"],
    );
    for (choice, variant, ms) in [
        ("short-circuit", "on (πr, paper)", short_circuit_ms),
        ("short-circuit", "off (always skeleton)", consult_ms),
        ("visited buffer", "VisitMap, reused", reused_ms),
        ("visited buffer", "fresh per query", fresh_ms),
    ] {
        t.row(vec![choice.into(), variant.into(), fmt_f64(ms * 1e6)]);
    }
    t.note(format!(
        "short-circuit: BFS+SKL on n_G=100, n_R={}, {} queries",
        run.vertex_count(),
        pairs.len()
    ));
    t.note(format!(
        "visited buffer: BFS on the n_G=200 spec, {} queries",
        queries.len()
    ));
    t.note("each pair of variants agrees on every query; expected: the paper's choice is faster");
    t
}

/// Extra experiment: `ConstructPlan` (§5) alone, per run edge, on QBLAST
/// and the §8.2 synthetic specification.
pub fn plan(opts: &ReproOptions) -> Table {
    let specs = [qblast_spec(), synthetic_spec(100)];
    let mut t = Table::new(
        "Extra: ConstructPlan Alone (ns/run edge)",
        &["run size", "QBLAST", "n_G=100"],
    );
    for size in opts.ladder().into_iter().filter(|&size| size >= 1_600) {
        let mut cells = vec![size_label(size)];
        for spec in &specs {
            let GeneratedRun { run, plan: truth } = generate_run_with_target(spec, 13, size);
            assert!(
                construct_plan(spec, &run).unwrap().equivalent(&truth, spec),
                "ConstructPlan recovered another plan than the one that generated the {} run",
                size_label(size)
            );
            let ms = time_ms(opts.time_reps(), || {
                black_box(construct_plan(spec, &run).unwrap());
            });
            cells.push(fmt_f64(ms * 1e6 / run.edge_count() as f64));
        }
        t.row(cells);
    }
    t.note("every recovered plan is equivalent to the one that generated its run");
    t.note("expected shape: flat (ConstructPlan is linear in the run size, §5.3)");
    t
}

/// Extra experiment: the six specification schemes on the §8.2 synthetic
/// specification — build time, spec-level query time, and SKL query time
/// with each as the skeleton (§8.2: "SKL is insensitive to the quality of
/// the labeling scheme used to label the specification").
pub fn schemes(opts: &ReproOptions) -> Table {
    let spec = synthetic_spec(100);
    let n = spec.module_count();
    // every ordered module pair, cycled to the query count
    let module_pairs: Vec<(u32, u32)> = (0..opts.query_count())
        .map(|i| ((i % n) as u32, (i / n % n) as u32))
        .collect();
    let GeneratedRun { run, .. } = generate_run_with_target(&spec, 3, 12_800);
    let run_pairs = random_pairs(&run, opts.query_count().min(200_000), 5);
    // a spec index builds in microseconds, so time many builds
    let build_reps = 100 * opts.time_reps();
    let mut t = Table::new(
        format!(
            "Extra: Specification Schemes (n_G = 100, SKL on n_R = {})",
            run.vertex_count()
        ),
        &["scheme", "build (µs)", "spec query (ns)", "SKL query (ns)"],
    );
    let label =
        |kind| LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
    let answers_of = |labeled: &LabeledRun<SpecScheme>| {
        (
            answers(&module_pairs, |u, v| labeled.skeleton().reaches(u, v)),
            answers(&run_pairs, |u, v| labeled.reaches(u, v)),
        )
    };
    let tcm_answers = answers_of(&label(SchemeKind::Tcm));
    for kind in SchemeKind::ALL {
        let build_ms = time_ms(build_reps, || {
            black_box(SpecScheme::build(kind, spec.graph()));
        });
        let labeled = label(kind);
        let index = labeled.skeleton();
        let (spec_ms, _) = predicate_time_ms(&module_pairs, |u, v| index.reaches(u, v));
        let (skl_ms, _) = query_time_ms(&labeled, &run_pairs);
        assert!(
            answers_of(&labeled) == tcm_answers,
            "{kind} disagrees with TCM on a query"
        );
        t.row(vec![
            kind.to_string(),
            fmt_f64(build_ms * 1e3),
            fmt_f64(spec_ms * 1e6),
            fmt_f64(skl_ms * 1e6),
        ]);
    }
    t.note(format!(
        "{} module pairs, {} run pairs; every scheme agrees with TCM on each",
        module_pairs.len(),
        run_pairs.len()
    ));
    t.note("expected shape: spec query times spread widely, SKL query times much less (§8.2)");
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

    // The three extras below panic if their variants disagree on a query,
    // so each run checks that agreement too.

    #[test]
    fn ablation_has_two_pairs_of_variants() {
        let t = ablation(&tiny());
        assert_eq!(t.len(), 4);
        let rendered = t.render();
        assert!(rendered.contains("short-circuit"));
        assert!(rendered.contains("visited buffer"));
    }

    #[test]
    fn plan_rows_cover_the_ladder_from_1_6k() {
        let t = plan(&tiny());
        assert_eq!(t.len(), 4, "1.6K to 12.8K in quick mode");
        assert!(t.render().contains("1.6K"));
    }

    #[test]
    fn schemes_has_a_row_per_scheme() {
        let t = schemes(&tiny());
        assert_eq!(t.len(), SchemeKind::ALL.len());
        assert!(t.render().contains("2Hop"));
    }
}
