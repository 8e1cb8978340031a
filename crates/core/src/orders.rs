//! `GenerateThreeOrders` (paper §4.3, Algorithm 1).
//!
//! Three preorder traversals of the execution plan assign every *nonempty*
//! `+` node three positions `(q1, q2, q3)`:
//!
//! * `O1` visits children left-to-right everywhere;
//! * `O2` reverses the children of `F−` nodes;
//! * `O3` reverses the children of `L−` nodes.
//!
//! Lemma 4.5 then classifies the least common ancestor of two `+` nodes by
//! sign comparisons alone: an `F−` LCA flips the relative order in `O2`
//! only, an `L−` LCA flips it in `O3` only, and a `+` LCA keeps all three
//! orders aligned.

use wfp_graph::tree::ChildOrder;
use wfp_model::plan::{ExecutionPlan, PlanNodeKind};
use wfp_model::{Specification, SubgraphKind};

/// The three-dimensional context encoding: positions of every nonempty `+`
/// node in the three total orders (1-based; 0 for nodes that receive no
/// position).
pub struct ContextEncoding {
    pos: [Vec<u32>; 3],
    n_plus: u32,
}

impl ContextEncoding {
    /// Positions `(q1, q2, q3)` of plan node `x`. Only nonempty `+` nodes
    /// carry meaningful positions; others return `(0, 0, 0)`.
    #[inline]
    pub fn positions(&self, x: u32) -> (u32, u32, u32) {
        (
            self.pos[0][x as usize],
            self.pos[1][x as usize],
            self.pos[2][x as usize],
        )
    }

    /// Number of nonempty `+` nodes `n⁺_T` (positions run `1..=n_plus`).
    pub fn nonempty_plus_count(&self) -> u32 {
        self.n_plus
    }
}

/// Runs the three preorder traversals of Algorithm 1.
pub fn generate_three_orders(plan: &ExecutionPlan, spec: &Specification) -> ContextEncoding {
    let nonempty = plan.nonempty_plus_flags();
    let n = plan.node_count();
    let tree = plan.tree();
    let mut pos = [vec![0u32; n], vec![0u32; n], vec![0u32; n]];
    let mut n_plus = 0u32;

    // Child-order policies for the three traversals.
    let reverse_at = |which: usize, x: u32| -> ChildOrder {
        match (which, plan.kind(x)) {
            (1, PlanNodeKind::Minus(sg)) if spec.subgraph(sg).kind == SubgraphKind::Fork => {
                ChildOrder::Reverse
            }
            (2, PlanNodeKind::Minus(sg)) if spec.subgraph(sg).kind == SubgraphKind::Loop => {
                ChildOrder::Reverse
            }
            _ => ChildOrder::Forward,
        }
    };

    for (which, slots) in pos.iter_mut().enumerate() {
        let mut counter = 0u32;
        tree.preorder_by(
            plan.root(),
            |x| reverse_at(which, x),
            |x| {
                if nonempty[x as usize] {
                    counter += 1;
                    slots[x as usize] = counter;
                }
            },
        );
        if which == 0 {
            n_plus = counter;
        } else {
            debug_assert_eq!(counter, n_plus, "all traversals cover the same nodes");
        }
    }

    ContextEncoding { pos, n_plus }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_plan;
    use wfp_graph::fxhash::FxHashMap;
    use wfp_graph::tree::Ancestry;
    use wfp_model::fixtures::{paper_run, paper_spec};
    use wfp_model::RunVertexId;

    #[test]
    fn paper_encoding_has_nine_positions() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let plan = construct_plan(&spec, &run).unwrap();
        let enc = generate_three_orders(&plan, &spec);
        assert_eq!(enc.nonempty_plus_count(), 9, "Figure 9 numbers 9 nodes");
        // every nonempty + node holds a distinct position triple
        let flags = plan.nonempty_plus_flags();
        let mut seen = [vec![], vec![], vec![]];
        for x in 0..plan.node_count() as u32 {
            let (q1, q2, q3) = enc.positions(x);
            if flags[x as usize] {
                assert!(q1 >= 1 && q2 >= 1 && q3 >= 1);
                seen[0].push(q1);
                seen[1].push(q2);
                seen[2].push(q3);
            } else {
                assert_eq!((q1, q2, q3), (0, 0, 0));
            }
        }
        for s in &mut seen {
            s.sort_unstable();
            assert_eq!(*s, (1..=9).collect::<Vec<u32>>());
        }
    }

    #[test]
    #[allow(clippy::nonminimal_bool)] // the negated forms mirror Lemma 4.5's statement
    fn paper_root_is_position_one_and_first_loop_copy_precedes_second() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let plan = construct_plan(&spec, &run).unwrap();
        let enc = generate_three_orders(&plan, &spec);
        assert_eq!(
            enc.positions(plan.root()),
            (1, 1, 1),
            "Figure 9: x1 = (1,1,1)"
        );

        let names = run.numbered_names(&spec);
        let ctx: FxHashMap<&str, u32> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), plan.context(RunVertexId(i as u32))))
            .collect();
        // serial order: first L2 copy before the second in O1 and O2, after
        // it in O3 (Lemma 4.5's L− signature)
        let (a1, a2, a3) = enc.positions(ctx["b1"]);
        let (b1p, b2p, b3p) = enc.positions(ctx["b2"]);
        assert!(a1 < b1p && a2 < b2p && a3 > b3p);
        // parallel F2 copies flip in O2 only
        let (f2a, f2b, f2c) = enc.positions(ctx["f2"]);
        let (f3a, f3b, f3c) = enc.positions(ctx["f3"]);
        assert_eq!(
            (f2a < f3a),
            (f2c < f3c),
            "O1 and O3 agree for fork siblings"
        );
        assert_eq!((f2a < f3a), !(f2b < f3b), "O2 flips for fork siblings");
    }

    /// Lemma 4.5 checked exhaustively against an Euler-tour LCA oracle.
    #[test]
    #[allow(clippy::nonminimal_bool)] // the negated forms mirror Lemma 4.5's statement
    fn lemma_4_5_trichotomy_matches_lca_oracle() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let plan = construct_plan(&spec, &run).unwrap();
        let enc = generate_three_orders(&plan, &spec);
        let anc = Ancestry::build(plan.tree(), plan.root());
        let flags = plan.nonempty_plus_flags();
        let nodes: Vec<u32> = (0..plan.node_count() as u32)
            .filter(|&x| flags[x as usize])
            .collect();
        for &x in &nodes {
            for &y in &nodes {
                if x == y {
                    continue;
                }
                let (x1, x2, x3) = enc.positions(x);
                let (y1, y2, y3) = enc.positions(y);
                let lca = anc.lca(x, y);
                match plan.kind(lca) {
                    PlanNodeKind::Minus(sg) => {
                        match spec.subgraph(sg).kind {
                            SubgraphKind::Fork => {
                                // order flips in O2 only
                                assert_eq!((x1 < y1), (x3 < y3));
                                assert_eq!((x1 < y1), !(x2 < y2));
                            }
                            SubgraphKind::Loop => {
                                assert_eq!((x1 < y1), (x2 < y2));
                                assert_eq!((x1 < y1), !(x3 < y3));
                            }
                        }
                    }
                    _ => {
                        // + LCA (including ancestor relations): all agree
                        assert_eq!((x1 < y1), (x2 < y2));
                        assert_eq!((x1 < y1), (x3 < y3));
                    }
                }
            }
        }
    }
}
