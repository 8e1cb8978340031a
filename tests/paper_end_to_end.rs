//! End-to-end verification of every worked example in the paper, across the
//! whole public API surface (model → schemes → SKL → provenance → store).

use workflow_provenance::model::fixtures::{
    paper_reachability_claims, paper_run, paper_spec, paper_subgraph, paper_vertex,
};
use workflow_provenance::model::PlanNodeKind;
use workflow_provenance::prelude::*;
use workflow_provenance::skl::{construct_plan, generate_three_orders};

#[test]
fn figure_2_specification() {
    let spec = paper_spec();
    assert_eq!(spec.module_count(), 8);
    assert_eq!(spec.channel_count(), 8);
    assert_eq!(spec.forks().count(), 2);
    assert_eq!(spec.loops().count(), 2);
    // Figure 6 hierarchy
    let h = spec.hierarchy();
    assert_eq!(h.size(), 5);
    assert_eq!(h.max_depth(), 3);
}

#[test]
fn figures_7_8_9_plan_and_encoding() {
    let spec = paper_spec();
    let run = paper_run(&spec);
    let plan = construct_plan(&spec, &run).unwrap();
    assert_eq!(plan.node_count(), 17);
    assert_eq!(plan.nonempty_plus_count(), 9);
    let enc = generate_three_orders(&plan, &spec);
    assert_eq!(enc.positions(plan.root()), (1, 1, 1));
    assert_eq!(enc.nonempty_plus_count(), 9);
}

#[test]
fn example_6_and_9_queries_under_all_schemes() {
    let spec = paper_spec();
    let run = paper_run(&spec);
    for kind in SchemeKind::ALL {
        let labeled =
            LabeledRun::build(&spec, SpecScheme::build(kind, spec.graph()), &run).unwrap();
        for &(from, to, expected) in paper_reachability_claims() {
            let u = paper_vertex(&spec, &run, from);
            let v = paper_vertex(&spec, &run, to);
            assert_eq!(
                labeled.reaches(u, v),
                expected,
                "{from} ⇝ {to} under {kind}"
            );
        }
    }
}

#[test]
fn lemma_3_1_run_copies_are_well_nested() {
    // The recovered plan is a well-formed alternating tree — the practical
    // consequence of Lemma 3.1 — and its groups match the spec's kinds.
    let spec = paper_spec();
    let run = paper_run(&spec);
    let plan = construct_plan(&spec, &run).unwrap();
    let tree = plan.tree();
    for x in 0..plan.node_count() as u32 {
        match plan.kind(x) {
            PlanNodeKind::Root => assert!(tree.parent(x).is_none()),
            PlanNodeKind::Plus(sg) => {
                let parent = tree.parent(x).expect("copies have groups");
                assert_eq!(plan.kind(parent), PlanNodeKind::Minus(sg));
            }
            PlanNodeKind::Minus(_) => {
                let parent = tree.parent(x).expect("groups live under copies");
                assert!(plan.kind(parent).is_plus());
            }
        }
    }
}

#[test]
fn f1_is_executed_twice_with_uneven_loops() {
    // Example 2: F1 executed twice; L2 twice in one copy, once in the other.
    let spec = paper_spec();
    let run = paper_run(&spec);
    let plan = construct_plan(&spec, &run).unwrap();
    let f1 = paper_subgraph(&spec, "F1");
    let l2 = paper_subgraph(&spec, "L2");
    let f1_copies = (0..plan.node_count() as u32)
        .filter(|&x| plan.kind(x) == PlanNodeKind::Plus(f1))
        .count();
    assert_eq!(f1_copies, 2);
    let mut l2_group_sizes: Vec<usize> = (0..plan.node_count() as u32)
        .filter(|&x| plan.kind(x) == PlanNodeKind::Minus(l2))
        .map(|x| plan.tree().children(x).len())
        .collect();
    l2_group_sizes.sort_unstable();
    assert_eq!(l2_group_sizes, vec![1, 2]);
}

#[test]
fn example_10_data_provenance_with_store() {
    let spec = paper_spec();
    let run = paper_run(&spec);
    let labeled = LabeledRun::build(
        &spec,
        SpecScheme::build(SchemeKind::Tcm, spec.graph()),
        &run,
    )
    .unwrap();

    let a1 = paper_vertex(&spec, &run, "a1");
    let b1 = paper_vertex(&spec, &run, "b1");
    let b3 = paper_vertex(&spec, &run, "b3");
    let c3 = paper_vertex(&spec, &run, "c3");
    let h1 = paper_vertex(&spec, &run, "h1");
    let e = |u: RunVertexId, v: RunVertexId| {
        run.edge_ids()
            .find(|&e| run.edge(e) == (u, v))
            .expect("edge exists")
    };
    let mut b = RunDataBuilder::new(&run);
    let x1 = b.add_item("x1", &[e(a1, b1), e(a1, b3)]).unwrap();
    let x6 = b.add_item("x6", &[e(c3, h1)]).unwrap();
    let data = b.finish();
    let prov = ProvenanceIndex::build(&labeled, &data);
    // Example 10: x6 depends on x1 via b3 ⇝ c3
    assert!(prov.data_depends_on_data(x6, x1));
    assert!(!prov.data_depends_on_data(x1, x6));

    // the same answers from the serialized store
    let stored =
        StoredProvenance::deserialize(&workflow_provenance::provenance::serialize(&labeled, &data))
            .unwrap();
    assert!(stored.data_depends_on_data(x6, x1, labeled.skeleton()));
    assert!(!stored.data_depends_on_data(x1, x6, labeled.skeleton()));
    assert_eq!(stored.item_by_name("x6"), Some(x6));
}

#[test]
fn run_given_with_plan_matches_recovered_pipeline() {
    // Figure 13's second setting: the execution plan arrives with the run
    // (e.g. from a Taverna log) — labels must be identical.
    let spec = paper_spec();
    let run = paper_run(&spec);
    let plan = construct_plan(&spec, &run).unwrap();
    let via_plan = LabeledRun::build_with_plan(
        &spec,
        SpecScheme::build(SchemeKind::Tcm, spec.graph()),
        &run,
        &plan,
    );
    let full = LabeledRun::build(
        &spec,
        SpecScheme::build(SchemeKind::Tcm, spec.graph()),
        &run,
    )
    .unwrap();
    assert_eq!(via_plan.labels(), full.labels());
}
