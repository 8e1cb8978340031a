//! Failure injection: corrupted runs must produce precise errors — never
//! silently wrong labels. Where a random mutation happens to produce
//! another *valid* run (e.g. duplicating a single-edge fork copy), labeling
//! must still agree with the BFS oracle.

use std::collections::VecDeque;

use workflow_provenance::graph::rng::Xoshiro256;
use workflow_provenance::graph::traversal::{bfs_reaches, VisitMap};
use workflow_provenance::prelude::*;
use workflow_provenance::skl::construct_plan;

fn test_spec(seed: u64) -> Specification {
    generate_spec(&SpecGenConfig {
        modules: 30,
        edges: 45,
        hierarchy_size: 6,
        hierarchy_depth: 3,
        seed,
    })
    .unwrap()
}

fn clone_builder(run: &Run) -> RunBuilder {
    let mut b = RunBuilder::new();
    for v in run.vertices() {
        b.add_vertex(run.origin(v));
    }
    for e in run.edge_ids() {
        let (u, v) = run.edge(e);
        b.add_edge(u, v);
    }
    b
}

/// Either the mutated run is rejected (structurally or by the plan
/// builder), or — if it happens to still be a conforming run — every
/// labeled answer matches the BFS oracle.
fn assert_rejected_or_correct(spec: &Specification, builder: RunBuilder, what: &str) {
    let run = match builder.finish(spec) {
        Err(_) => return, // structural rejection is fine
        Ok(run) => run,
    };
    let skeleton = SpecScheme::build(SchemeKind::Tcm, spec.graph());
    match LabeledRun::build(spec, skeleton, &run) {
        Err(_) => {} // precise non-conformance error: good
        Ok(labeled) => {
            let mut vm = VisitMap::new(run.vertex_count());
            let mut q = VecDeque::new();
            for u in run.vertices() {
                for v in run.vertices() {
                    assert_eq!(
                        labeled.reaches(u, v),
                        bfs_reaches(run.graph(), u.raw(), v.raw(), &mut vm, &mut q),
                        "{what}: accepted mutant must still answer correctly ({u}, {v})"
                    );
                }
            }
        }
    }
}

#[test]
fn random_edge_additions_never_mislabel() {
    let mut rng = Xoshiro256::seed_from_u64(404);
    for spec_seed in 0..4 {
        let spec = test_spec(spec_seed);
        let GeneratedRun { run, .. } = generate_run(
            &spec,
            &RunGenConfig {
                seed: spec_seed,
                counts: CountDistribution::GeometricMean(1.0),
            },
        );
        for _ in 0..25 {
            let mut b = clone_builder(&run);
            let u = RunVertexId(rng.gen_usize(run.vertex_count()) as u32);
            let v = RunVertexId(rng.gen_usize(run.vertex_count()) as u32);
            if u == v {
                continue;
            }
            b.add_edge(u, v);
            assert_rejected_or_correct(&spec, b, "edge addition");
        }
    }
}

#[test]
fn duplicated_existing_edges_never_mislabel() {
    // duplicating an edge either creates a valid extra single-edge-fork
    // copy or breaks a copy's piece count — both must be handled
    let mut rng = Xoshiro256::seed_from_u64(505);
    for spec_seed in 0..4 {
        let spec = test_spec(spec_seed + 50);
        let GeneratedRun { run, .. } = generate_run(
            &spec,
            &RunGenConfig {
                seed: spec_seed,
                counts: CountDistribution::GeometricMean(0.8),
            },
        );
        for _ in 0..20 {
            let e = RunEdgeId(rng.gen_usize(run.edge_count()) as u32);
            let (u, v) = run.edge(e);
            let mut b = clone_builder(&run);
            b.add_edge(u, v);
            assert_rejected_or_correct(&spec, b, "edge duplication");
        }
    }
}

#[test]
fn vertex_relabeling_never_mislabels() {
    // rewriting a vertex's origin to another module
    let mut rng = Xoshiro256::seed_from_u64(606);
    for spec_seed in 0..4 {
        let spec = test_spec(spec_seed + 100);
        let GeneratedRun { run, .. } = generate_run(
            &spec,
            &RunGenConfig {
                seed: spec_seed,
                counts: CountDistribution::GeometricMean(0.8),
            },
        );
        for _ in 0..20 {
            let victim = rng.gen_usize(run.vertex_count());
            let new_origin = ModuleId(rng.gen_usize(spec.module_count()) as u32);
            let mut b = RunBuilder::new();
            for v in run.vertices() {
                b.add_vertex(if v.index() == victim {
                    new_origin
                } else {
                    run.origin(v)
                });
            }
            for e in run.edge_ids() {
                let (u, v) = run.edge(e);
                b.add_edge(u, v);
            }
            assert_rejected_or_correct(&spec, b, "origin relabeling");
        }
    }
}

#[test]
fn truncated_runs_are_rejected() {
    // dropping the last edge usually breaks single-sink-ness or a copy
    let spec = test_spec(7);
    let GeneratedRun { run, .. } = generate_run(
        &spec,
        &RunGenConfig {
            seed: 3,
            counts: CountDistribution::GeometricMean(1.0),
        },
    );
    for skip in 0..run.edge_count().min(30) {
        let mut b = RunBuilder::new();
        for v in run.vertices() {
            b.add_vertex(run.origin(v));
        }
        for e in run.edge_ids() {
            if e.index() == skip {
                continue;
            }
            let (u, v) = run.edge(e);
            b.add_edge(u, v);
        }
        assert_rejected_or_correct(&spec, b, "edge removal");
    }
}

#[test]
fn foreign_origin_pairs_are_identified() {
    let spec = test_spec(11);
    // find two modules with no channel between them
    let mut from = None;
    'outer: for a in spec.modules() {
        for b in spec.modules() {
            if a != b
                && !spec.graph().has_edge(a.raw(), b.raw())
                && !spec.graph().has_edge(b.raw(), a.raw())
            {
                // also must not be a loop connector pair
                let is_connector = spec
                    .subgraphs()
                    .any(|(_, sg)| sg.kind == SubgraphKind::Loop && sg.sink == a && sg.source == b);
                if !is_connector {
                    from = Some((a, b));
                    break 'outer;
                }
            }
        }
    }
    let (a, b) = from.expect("spec has non-adjacent module pairs");
    let GeneratedRun { run, .. } = generate_run(
        &spec,
        &RunGenConfig {
            seed: 3,
            counts: CountDistribution::Fixed(1),
        },
    );
    let mut builder = clone_builder(&run);
    let va = run.vertices().find(|&v| run.origin(v) == a).unwrap();
    let vb = run.vertices().find(|&v| run.origin(v) == b).unwrap();
    builder.add_edge(va, vb);
    if let Ok(mutant) = builder.finish(&spec) {
        match construct_plan(&spec, &mutant) {
            Err(workflow_provenance::skl::ConstructError::ForeignEdge { .. }) => {}
            Err(_) => {} // a different precise error is acceptable
            Ok(_) => panic!("foreign edge accepted"),
        }
    }
}
