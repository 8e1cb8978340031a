//! The paper's running example (Figures 2 and 3) as reusable fixtures.
//!
//! Tests throughout the workspace check the algorithms against the worked
//! examples of the paper (Examples 1–10), so the exact graphs are encoded
//! once here.

use crate::ids::{RunVertexId, SubgraphId};
use crate::run::{Run, RunBuilder};
use crate::spec::{SpecBuilder, Specification, SubgraphKind};

/// The specification `(G, F, L)` of Figure 2:
///
/// ```text
///   a → b → c → h          F1 = fork around {b, c}, L2 = loop over {b, c}
///   a → d → e → f → g → h  L1 = loop over {e, f, g}, F2 = fork around {f}
/// ```
pub fn paper_spec() -> Specification {
    let mut b = SpecBuilder::new();
    let ids: Vec<_> = ["a", "b", "c", "d", "e", "f", "g", "h"]
        .iter()
        .map(|n| b.add_module(*n).unwrap())
        .collect();
    let (a, bb, c, d, e, f, g, h) = (
        ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7],
    );
    b.add_edge(a, bb).unwrap();
    b.add_edge(bb, c).unwrap();
    b.add_edge(c, h).unwrap();
    b.add_edge(a, d).unwrap();
    b.add_edge(d, e).unwrap();
    b.add_edge(e, f).unwrap();
    b.add_edge(f, g).unwrap();
    b.add_edge(g, h).unwrap();
    b.add_fork_around(&[bb, c]); // F1
    b.add_loop_over(&[bb, c]); // L2
    b.add_loop_over(&[e, f, g]); // L1
    b.add_fork_around(&[f]); // F2
    b.build().expect("paper specification is valid")
}

/// Looks up one of the paper's subgraphs by its Figure 2 name
/// (`"F1"`, `"F2"`, `"L1"`, `"L2"`).
pub fn paper_subgraph(spec: &Specification, which: &str) -> SubgraphId {
    let (kind, source) = match which {
        "F1" => (SubgraphKind::Fork, "a"),
        "F2" => (SubgraphKind::Fork, "e"),
        "L1" => (SubgraphKind::Loop, "e"),
        "L2" => (SubgraphKind::Loop, "b"),
        _ => panic!("unknown paper subgraph {which:?}"),
    };
    let src = spec.module_by_name(source).unwrap();
    spec.subgraphs()
        .find(|(_, sg)| sg.kind == kind && sg.source == src)
        .map(|(id, _)| id)
        .unwrap_or_else(|| panic!("paper subgraph {which} not found"))
}

/// The run `R` of Figure 3 over [`paper_spec`]:
///
/// ```text
///   a1 → b1 → c1 → b2 → c2 → h1     (F1 copy 1; L2 executed twice)
///   a1 → b3 → c3 → h1               (F1 copy 2; L2 executed once)
///   a1 → d1 → e1 → f1 → g1          (L1 copy 1; F2 executed once)
///          → e2 → {f2 | f3} → g2 → h1  (L1 copy 2; F2 executed twice)
/// ```
///
/// Vertex ids follow the paper's subscripts in insertion order; use
/// [`paper_vertex`] to address them by name.
pub fn paper_run(spec: &Specification) -> Run {
    let m = |n: &str| spec.module_by_name(n).unwrap();
    let mut b = RunBuilder::new();
    let a1 = b.add_vertex(m("a"));
    let b1 = b.add_vertex(m("b"));
    let c1 = b.add_vertex(m("c"));
    let b2 = b.add_vertex(m("b"));
    let c2 = b.add_vertex(m("c"));
    let b3 = b.add_vertex(m("b"));
    let c3 = b.add_vertex(m("c"));
    let h1 = b.add_vertex(m("h"));
    let d1 = b.add_vertex(m("d"));
    let e1 = b.add_vertex(m("e"));
    let f1 = b.add_vertex(m("f"));
    let g1 = b.add_vertex(m("g"));
    let e2 = b.add_vertex(m("e"));
    let f2 = b.add_vertex(m("f"));
    let f3 = b.add_vertex(m("f"));
    let g2 = b.add_vertex(m("g"));
    // F1 copy 1 with two serial L2 copies
    b.add_edge(a1, b1);
    b.add_edge(b1, c1);
    b.add_edge(c1, b2); // loop connector
    b.add_edge(b2, c2);
    b.add_edge(c2, h1);
    // F1 copy 2 with one L2 copy
    b.add_edge(a1, b3);
    b.add_edge(b3, c3);
    b.add_edge(c3, h1);
    // lower branch
    b.add_edge(a1, d1);
    b.add_edge(d1, e1);
    // L1 copy 1, one F2 copy
    b.add_edge(e1, f1);
    b.add_edge(f1, g1);
    b.add_edge(g1, e2); // loop connector
                        // L1 copy 2, two parallel F2 copies
    b.add_edge(e2, f2);
    b.add_edge(f2, g2);
    b.add_edge(e2, f3);
    b.add_edge(f3, g2);
    b.add_edge(g2, h1);
    b.finish(spec).expect("paper run is structurally valid")
}

/// Addresses a vertex of [`paper_run`] by its Figure 3 name (`"b2"`, `"f3"`,
/// ...). Names are the origin module name plus the 1-based occurrence index
/// in insertion order, matching the paper's subscripts.
pub fn paper_vertex(spec: &Specification, run: &Run, name: &str) -> RunVertexId {
    let names = run.numbered_names(spec);
    let idx = names
        .iter()
        .position(|n| n == name)
        .unwrap_or_else(|| panic!("no run vertex named {name:?}"));
    RunVertexId(idx as u32)
}

/// The ground-truth reachable pairs of Figure 3 used in the paper's
/// Examples 6 and 9, as (from, to, reachable) triples by vertex name.
pub fn paper_reachability_claims() -> &'static [(&'static str, &'static str, bool)] {
    &[
        // Example: x8 (output of c3) does not depend on x1 (input to b1)
        ("b1", "c3", false),
        ("c3", "b1", false),
        // x4 (output of b2) depends on x2 (input of c1): successive loop copies
        ("c1", "b2", true),
        ("b2", "c1", false),
        // x3 (output of c1) depends on x1 (input of b1): same copy, skeleton
        ("b1", "c1", true),
        // Example 6: f1 ⇝ e2 via the loop connector
        ("f1", "e2", true),
        ("e2", "f1", false),
        // Example 6/9: no path between c1 and d1 in either direction
        ("c1", "d1", false),
        ("d1", "c1", false),
        // parallel F2 copies
        ("f2", "f3", false),
        ("f3", "f2", false),
        // earlier loop copy reaches the later one across F2 copies
        ("f1", "f2", true),
        ("f1", "f3", true),
        // source and sink
        ("a1", "h1", true),
        ("a1", "f3", true),
        ("b3", "h1", true),
        ("h1", "a1", false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Leader;

    #[test]
    fn spec_matches_figure_2() {
        let spec = paper_spec();
        assert_eq!(spec.module_count(), 8);
        assert_eq!(spec.channel_count(), 8);
        assert_eq!(spec.subgraph_count(), 4);
        assert_eq!(spec.forks().count(), 2);
        assert_eq!(spec.loops().count(), 2);
        assert_eq!(spec.name(spec.source()), "a");
        assert_eq!(spec.name(spec.sink()), "h");
    }

    #[test]
    fn subgraph_terminals_match_figure_2() {
        let spec = paper_spec();
        let n = |id: SubgraphId| {
            let sg = spec.subgraph(id);
            (
                spec.name(sg.source).to_string(),
                spec.name(sg.sink).to_string(),
            )
        };
        assert_eq!(n(paper_subgraph(&spec, "F1")), ("a".into(), "h".into()));
        assert_eq!(n(paper_subgraph(&spec, "L2")), ("b".into(), "c".into()));
        assert_eq!(n(paper_subgraph(&spec, "L1")), ("e".into(), "g".into()));
        assert_eq!(n(paper_subgraph(&spec, "F2")), ("e".into(), "g".into()));
    }

    #[test]
    fn run_matches_figure_3() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        assert_eq!(run.vertex_count(), 16);
        assert_eq!(run.edge_count(), 18);
        let a1 = paper_vertex(&spec, &run, "a1");
        assert_eq!(run.source(), a1);
        let h1 = paper_vertex(&spec, &run, "h1");
        assert_eq!(run.sink(), h1);
    }

    #[test]
    fn reachability_claims_hold_by_graph_search() {
        use std::collections::VecDeque;
        use wfp_graph::traversal::{bfs_reaches, VisitMap};
        let spec = paper_spec();
        let run = paper_run(&spec);
        let mut vm = VisitMap::new(run.vertex_count());
        let mut q = VecDeque::new();
        for &(from, to, expected) in paper_reachability_claims() {
            let u = paper_vertex(&spec, &run, from);
            let v = paper_vertex(&spec, &run, to);
            assert_eq!(
                bfs_reaches(run.graph(), u.raw(), v.raw(), &mut vm, &mut q),
                expected,
                "claim {from} ⇝ {to} = {expected}"
            );
        }
    }

    #[test]
    fn leaders_exist_for_all_subgraphs() {
        let spec = paper_spec();
        for (id, _) in spec.subgraphs() {
            match spec.hierarchy().leader(id) {
                Leader::Edge(e) => assert!(spec.subgraph(id).edges.contains(&e)),
                Leader::Child(c) => {
                    assert_eq!(spec.hierarchy().parent_subgraph(c), Some(id));
                }
            }
        }
    }
}
