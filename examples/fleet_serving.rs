//! Fleet serving: one shared skeleton context answering provenance
//! queries for many runs of one workflow specification.
//!
//! ```sh
//! cargo run --release --example fleet_serving
//! ```
//!
//! The paper's amortization argument (§1, §7) is that the skeleton labels
//! are paid once per *specification*, not once per run. This example makes
//! that concrete: eight runs of one spec served by a single
//! `Arc<SpecContext>` (skeleton + concurrent memo), with mixed cross-run
//! batch traffic and the shared-vs-duplicated memory accounting.

use workflow_provenance::prelude::*;

fn main() {
    // one specification, simulated eight times
    let spec = generate_spec(&SpecGenConfig {
        modules: 100,
        edges: 200,
        hierarchy_size: 10,
        hierarchy_depth: 4,
        seed: 13,
    })
    .expect("feasible parameters");
    let runs: Vec<Run> = generate_fleet(&spec, 42, 8, 2_000)
        .into_iter()
        .map(|g| g.run)
        .collect();

    // one shared spec-level context; labels only (no skeleton) per run
    let mut fleet = FleetEngine::for_spec(&spec, SpecScheme::build(SchemeKind::Bfs, spec.graph()));
    let ids: Vec<RunId> = runs
        .iter()
        .map(|run| {
            let (labels, _n_plus) = label_run(&spec, run).expect("runs conform");
            fleet.register_labels(&labels)
        })
        .collect();
    println!(
        "registered {} runs ({} vertices total) under one context",
        ids.len(),
        runs.iter().map(Run::vertex_count).sum::<usize>()
    );

    // mixed cross-run probe traffic, answered in one batch
    let mut rng = workflow_provenance::graph::rng::Xoshiro256::seed_from_u64(7);
    let probes: Vec<(RunId, RunVertexId, RunVertexId)> = (0..100_000)
        .map(|_| {
            let which = rng.gen_usize(ids.len());
            let n = runs[which].vertex_count();
            (
                ids[which],
                RunVertexId(rng.gen_usize(n) as u32),
                RunVertexId(rng.gen_usize(n) as u32),
            )
        })
        .collect();
    let answers = fleet.answer_batch(&probes).expect("all ids registered");
    println!(
        "{} probes answered, {} reachable",
        answers.len(),
        answers.iter().filter(|&&a| a).count()
    );

    // the split pays in memory: spec state held once, not once per run
    let stats = fleet.stats();
    println!(
        "spec state: {} KiB shared once; {} independent engines would hold {} KiB",
        stats.spec_bytes / 1024,
        stats.active(),
        stats.spec_bytes_if_per_run / 1024,
    );
    println!(
        "decisions: {} context-only, {} skeleton ({} probes, {} memo hits)",
        stats.engine.context_only,
        stats.engine.skeleton,
        stats.engine.skeleton_probes,
        stats.engine.memo_hits,
    );

    // runs can be evicted; late probes fail loudly instead of misrouting
    fleet.evict(ids[0]).expect("registered");
    assert!(matches!(
        fleet.answer(ids[0], RunVertexId(0), RunVertexId(0)),
        Err(FleetError::Evicted(_))
    ));
    println!(
        "evicted {}; fleet now serves {} runs",
        ids[0],
        fleet.stats().active()
    );
}
