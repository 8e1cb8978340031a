//! Synthetic specification generator (paper §8, "Synthetic Dataset").
//!
//! Generates a valid specification with **exactly** the requested `n_G`
//! (modules), `|T_G|` (hierarchy size, forks + loops + 1) and `[T_G]`
//! (hierarchy depth), and exactly the requested `m_G` whenever enough legal
//! edge slots exist (reporting failure otherwise instead of silently
//! deviating).
//!
//! Construction works top-down over a randomly shaped hierarchy:
//!
//! 1. Shape a tree with `|T_G|` nodes and exact depth `[T_G]`; assign each
//!    non-root node a kind (fork/loop).
//! 2. Give every node a *quotient chain* `s → seg₁ → … → seg_k → t`. Each
//!    child group occupies a dedicated pair of consecutive chain vertices
//!    `(u, v)`; sibling forks may share one pair (becoming parallel
//!    branches between shared terminals — the paper's "source and sink may
//!    be shared by other edge-disjoint fork or loop subgraphs"), while loop
//!    pairs stay exclusive so the loop's completeness constraints hold.
//! 3. Distribute the remaining vertex budget as extra chain vertices and
//!    materialize recursively, recording which subtree owns every edge.
//! 4. Add random forward "skip" edges inside quotients until `m_G` is
//!    reached, avoiding anything illegal: no fork `source → sink` bypass
//!    (atomicity), no extra out-edge from a loop's source or in-edge to its
//!    sink (completeness), no duplicates (simplicity).
//!
//! Every output passes the full model validator (`SpecBuilder::build`), so
//! a generator bug cannot silently produce an invalid workload.

use wfp_graph::rng::Xoshiro256;
use wfp_model::{ModuleId, SpecBuilder, SpecEdgeId, Specification, SubgraphKind};

/// Parameters of a synthetic specification, named as in the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpecGenConfig {
    /// `n_G`: number of modules.
    pub modules: usize,
    /// `m_G`: number of data channels.
    pub edges: usize,
    /// `|T_G|`: number of forks and loops plus one.
    pub hierarchy_size: usize,
    /// `[T_G]`: depth of the fork/loop hierarchy (root = 1).
    pub hierarchy_depth: usize,
    /// RNG seed; equal configs generate identical specifications.
    pub seed: u64,
}

/// Generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The parameters are mutually infeasible regardless of layout.
    Infeasible(String),
    /// `m_G` is below this layout's structural minimum; retry with at least
    /// `minimum` edges (same seed ⇒ same layout ⇒ the bound is exact).
    TooFewEdges {
        /// Smallest feasible `m_G` for this seed's layout.
        minimum: usize,
    },
    /// `m_G` exceeds this layout's legal edge slots; retry with at most
    /// `maximum` edges.
    TooManyEdges {
        /// Largest feasible `m_G` for this seed's layout.
        maximum: usize,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::Infeasible(m) => write!(f, "specification generation failed: {m}"),
            GenError::TooFewEdges { minimum } => {
                write!(
                    f,
                    "m_G below the structural minimum {minimum} of this layout"
                )
            }
            GenError::TooManyEdges { maximum } => {
                write!(f, "m_G above the {maximum} legal edge slots of this layout")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// A planned hierarchy node.
struct PlanNode {
    kind: Option<SubgraphKind>, // None = root
    children: Vec<usize>,
    /// pair groups; each hosts ≥ 1 child
    pairs: Vec<Vec<usize>>,
    own_middles: usize,
}

/// Role of a vertex within its owning node's chain, for extra-edge rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotKind {
    Source,
    Middle,
    /// source of a loop child: no extra out-edges
    LoopPairU,
    /// sink of a loop child: no extra in-edges
    LoopPairV,
    Sink,
}

/// Generates a specification with the exact requested characteristics.
pub fn generate_spec(cfg: &SpecGenConfig) -> Result<Specification, GenError> {
    if cfg.modules < 2 {
        return Err(GenError::Infeasible("need at least 2 modules".into()));
    }
    if cfg.hierarchy_size < 1 {
        return Err(GenError::Infeasible(
            "|T_G| counts the root, so it is at least 1".into(),
        ));
    }
    if cfg.hierarchy_size == 1 && cfg.hierarchy_depth != 1 {
        return Err(GenError::Infeasible("|T_G| = 1 forces depth 1".into()));
    }
    if cfg.hierarchy_size > 1
        && (cfg.hierarchy_depth < 2 || cfg.hierarchy_depth > cfg.hierarchy_size)
    {
        return Err(GenError::Infeasible(format!(
            "depth {} infeasible for |T_G| = {}",
            cfg.hierarchy_depth, cfg.hierarchy_size
        )));
    }
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ 0x5bd1_e995_9d15_31f3);
    let k = cfg.hierarchy_size;

    // ---- 1. hierarchy shape ------------------------------------------
    let mut nodes: Vec<PlanNode> = (0..k)
        .map(|_| PlanNode {
            kind: None,
            children: Vec::new(),
            pairs: Vec::new(),
            own_middles: 0,
        })
        .collect();
    let mut depth = vec![1usize; k];
    for i in 1..cfg.hierarchy_depth {
        nodes[i - 1].children.push(i);
        depth[i] = i + 1;
    }
    for i in cfg.hierarchy_depth.max(1)..k {
        loop {
            let p = rng.gen_usize(i);
            if depth[p] < cfg.hierarchy_depth {
                nodes[p].children.push(i);
                depth[i] = depth[p] + 1;
                break;
            }
        }
    }
    for node in nodes.iter_mut().skip(1) {
        node.kind = Some(if rng.gen_bool(0.5) {
            SubgraphKind::Fork
        } else {
            SubgraphKind::Loop
        });
    }
    if k >= 3 {
        let first = nodes[1].kind.unwrap();
        if (2..k).all(|i| nodes[i].kind == Some(first)) {
            let flip = 1 + rng.gen_usize(k - 1);
            nodes[flip].kind = Some(match first {
                SubgraphKind::Fork => SubgraphKind::Loop,
                SubgraphKind::Loop => SubgraphKind::Fork,
            });
        }
    }

    // ---- 2. pair grouping --------------------------------------------
    for i in 0..k {
        let children = nodes[i].children.clone();
        let mut fork_pairs: Vec<Vec<usize>> = Vec::new();
        let mut pairs: Vec<Vec<usize>> = Vec::new();
        for &c in &children {
            match nodes[c].kind.unwrap() {
                SubgraphKind::Loop => pairs.push(vec![c]),
                SubgraphKind::Fork => {
                    if !fork_pairs.is_empty() && rng.gen_bool(0.3) {
                        let slot = rng.gen_usize(fork_pairs.len());
                        fork_pairs[slot].push(c);
                    } else {
                        fork_pairs.push(vec![c]);
                    }
                }
            }
        }
        pairs.extend(fork_pairs);
        nodes[i].pairs = pairs;
    }

    // ---- 3. vertex budget --------------------------------------------
    // Shared pairs: at most one childless member may stay a literal
    // single-edge fork, the rest need an interior vertex.
    let mut forced_middles: Vec<usize> = vec![0; k];
    for i in 0..k {
        for pair in &nodes[i].pairs {
            let mut seen_single = false;
            for &c in pair {
                if nodes[c].children.is_empty() {
                    if seen_single {
                        forced_middles[c] = 1;
                    } else {
                        seen_single = true;
                    }
                }
            }
        }
    }
    let total_pairs: usize = nodes.iter().map(|n| n.pairs.len()).sum();
    let forced: usize = forced_middles.iter().sum();
    let mandatory = 2 + 2 * total_pairs + forced;
    if cfg.modules < mandatory {
        return Err(GenError::Infeasible(format!(
            "n_G = {} too small for this layout (needs ≥ {mandatory})",
            cfg.modules
        )));
    }
    for (i, &f) in forced_middles.iter().enumerate() {
        nodes[i].own_middles = f;
    }
    let mut leftover = cfg.modules - mandatory;
    while leftover > 0 {
        let i = rng.gen_usize(k);
        nodes[i].own_middles += 1;
        leftover -= 1;
    }

    // ---- 4. materialization ------------------------------------------
    let mut builder = SpecBuilder::new();
    let mut next_name = 0usize;
    let mut fresh = |b: &mut SpecBuilder| -> ModuleId {
        let id = b
            .add_module(format!("m{next_name}"))
            .expect("generated names are unique");
        next_name += 1;
        id
    };
    let g_source = fresh(&mut builder);
    let g_sink = fresh(&mut builder);

    let mut own_edges: Vec<Vec<SpecEdgeId>> = (0..k).map(|_| Vec::new()).collect();
    // chain slots per node (vertex, role, position) for the extra phase
    let mut slots: Vec<Vec<(ModuleId, SlotKind)>> = (0..k).map(|_| Vec::new()).collect();

    struct Frame {
        node: usize,
        s: ModuleId,
        t: ModuleId,
    }
    let mut stack = vec![Frame {
        node: 0,
        s: g_source,
        t: g_sink,
    }];
    while let Some(Frame { node, s, t }) = stack.pop() {
        #[derive(Clone, Copy)]
        enum Seg {
            Middle,
            Pair(usize),
        }
        let mut segs: Vec<Seg> = Vec::new();
        for _ in 0..nodes[node].own_middles {
            segs.push(Seg::Middle);
        }
        for p in 0..nodes[node].pairs.len() {
            segs.push(Seg::Pair(p));
        }
        rng.shuffle(&mut segs);

        // chain holds (vertex, role); virtual_out marks vertices whose link
        // to the next chain vertex is provided by child expansions.
        let mut chain: Vec<(ModuleId, SlotKind)> = vec![(s, SlotKind::Source)];
        let mut virtual_out: Vec<bool> = vec![false];
        for seg in segs {
            match seg {
                Seg::Middle => {
                    chain.push((fresh(&mut builder), SlotKind::Middle));
                    virtual_out.push(false);
                }
                Seg::Pair(p) => {
                    let u = fresh(&mut builder);
                    let v = fresh(&mut builder);
                    let hosts_loop = nodes[node].pairs[p]
                        .iter()
                        .any(|&c| nodes[c].kind == Some(SubgraphKind::Loop));
                    let (ku, kv) = if hosts_loop {
                        (SlotKind::LoopPairU, SlotKind::LoopPairV)
                    } else {
                        (SlotKind::Middle, SlotKind::Middle)
                    };
                    chain.push((u, ku));
                    virtual_out.push(true); // u -> v comes from the children
                    chain.push((v, kv));
                    virtual_out.push(false);
                    for &c in &nodes[node].pairs[p] {
                        stack.push(Frame {
                            node: c,
                            s: u,
                            t: v,
                        });
                    }
                }
            }
        }
        chain.push((t, SlotKind::Sink));
        virtual_out.push(false);

        for i in 0..chain.len() - 1 {
            if virtual_out[i] {
                continue;
            }
            let e = builder
                .add_edge(chain[i].0, chain[i + 1].0)
                .expect("chain edges are fresh");
            own_edges[node].push(e);
        }
        slots[node] = chain;
    }

    // ---- 5. extra edges up to exactly m_G -----------------------------
    let current = own_edges.iter().map(|v| v.len()).sum::<usize>();
    if cfg.edges < current {
        return Err(GenError::TooFewEdges { minimum: current });
    }
    let mut needed = cfg.edges - current;
    if needed > 0 {
        // Enumerate every legal forward slot pair (specifications are small
        // by the paper's premise, §7).
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
        for (node_idx, chain) in slots.iter().enumerate() {
            let is_fork = nodes[node_idx].kind == Some(SubgraphKind::Fork);
            for i in 0..chain.len() {
                for j in (i + 1)..chain.len() {
                    let (_, ki) = chain[i];
                    let (_, kj) = chain[j];
                    if ki == SlotKind::LoopPairU || ki == SlotKind::Sink {
                        continue;
                    }
                    if kj == SlotKind::LoopPairV || kj == SlotKind::Source {
                        continue;
                    }
                    if is_fork && ki == SlotKind::Source && kj == SlotKind::Sink {
                        continue; // would break atomicity
                    }
                    candidates.push((node_idx, i, j));
                }
            }
        }
        rng.shuffle(&mut candidates);
        for (node_idx, i, j) in candidates {
            if needed == 0 {
                break;
            }
            let a = slots[node_idx][i].0;
            let b = slots[node_idx][j].0;
            if let Ok(e) = builder.add_edge(a, b) {
                own_edges[node_idx].push(e);
                needed -= 1;
            }
        }
        if needed > 0 {
            return Err(GenError::TooManyEdges {
                maximum: cfg.edges - needed,
            });
        }
    }

    // ---- 6. subtree edge sets and subgraph declarations ---------------
    let mut subtree: Vec<Vec<SpecEdgeId>> = own_edges;
    let mut by_depth: Vec<usize> = (0..k).collect();
    by_depth.sort_by_key(|&i| std::cmp::Reverse(depth[i]));
    for &i in &by_depth {
        let children = nodes[i].children.clone();
        for c in children {
            let child_edges = subtree[c].clone();
            subtree[i].extend(child_edges);
        }
    }
    for i in 1..k {
        match nodes[i].kind.unwrap() {
            SubgraphKind::Fork => {
                builder.add_fork(subtree[i].clone());
            }
            SubgraphKind::Loop => {
                builder.add_loop(subtree[i].clone());
            }
        }
    }

    builder
        .build()
        .map_err(|e| GenError::Infeasible(format!("generator produced an invalid spec: {e}")))
}

/// [`generate_spec`] that treats `m_G` as a *preference*: if the layout
/// cannot host exactly `cfg.edges`, the nearest feasible edge count for the
/// same layout is used instead. Never fails for otherwise-feasible
/// parameters.
pub fn generate_spec_clamped(cfg: &SpecGenConfig) -> Result<Specification, GenError> {
    match generate_spec(cfg) {
        Ok(s) => Ok(s),
        Err(GenError::TooFewEdges { minimum }) => generate_spec(&SpecGenConfig {
            edges: minimum,
            ..*cfg
        }),
        Err(GenError::TooManyEdges { maximum }) => generate_spec(&SpecGenConfig {
            edges: maximum,
            ..*cfg
        }),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(cfg: &SpecGenConfig) -> Specification {
        let spec = generate_spec(cfg).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        assert_eq!(spec.module_count(), cfg.modules, "{cfg:?}");
        assert_eq!(spec.channel_count(), cfg.edges, "{cfg:?}");
        assert_eq!(spec.hierarchy().size(), cfg.hierarchy_size, "{cfg:?}");
        assert_eq!(spec.hierarchy().max_depth(), cfg.hierarchy_depth, "{cfg:?}");
        spec
    }

    #[test]
    fn paper_synthetic_parameters() {
        // §8.2's synthetic workflow
        check(&SpecGenConfig {
            modules: 100,
            edges: 200,
            hierarchy_size: 10,
            hierarchy_depth: 4,
            seed: 1,
        });
        // §8.3's sweep
        for (n, m) in [(50, 100), (100, 200), (200, 400)] {
            check(&SpecGenConfig {
                modules: n,
                edges: m,
                hierarchy_size: 10,
                hierarchy_depth: 4,
                seed: 7,
            });
        }
    }

    #[test]
    fn many_seeds_validate() {
        for seed in 0..40 {
            check(&SpecGenConfig {
                modules: 40,
                edges: 60,
                hierarchy_size: 6,
                hierarchy_depth: 3,
                seed,
            });
        }
    }

    #[test]
    fn degenerate_shapes() {
        // no subgraphs at all
        let spec = check(&SpecGenConfig {
            modules: 10,
            edges: 15,
            hierarchy_size: 1,
            hierarchy_depth: 1,
            seed: 3,
        });
        assert_eq!(spec.subgraph_count(), 0);
        // maximal nesting chain
        check(&SpecGenConfig {
            modules: 30,
            edges: 35,
            hierarchy_size: 5,
            hierarchy_depth: 5,
            seed: 11,
        });
        // wide flat hierarchy
        check(&SpecGenConfig {
            modules: 40,
            edges: 45,
            hierarchy_size: 8,
            hierarchy_depth: 2,
            seed: 13,
        });
    }

    #[test]
    fn determinism() {
        let cfg = SpecGenConfig {
            modules: 60,
            edges: 90,
            hierarchy_size: 7,
            hierarchy_depth: 3,
            seed: 42,
        };
        let a = generate_spec(&cfg).unwrap();
        let b = generate_spec(&cfg).unwrap();
        assert_eq!(
            wfp_model::io::spec_to_xml(&a),
            wfp_model::io::spec_to_xml(&b),
            "same config ⇒ bit-identical spec"
        );
    }

    #[test]
    fn infeasible_parameters_are_rejected() {
        assert!(generate_spec(&SpecGenConfig {
            modules: 1,
            edges: 0,
            hierarchy_size: 1,
            hierarchy_depth: 1,
            seed: 0,
        })
        .is_err());
        // depth greater than node count
        assert!(generate_spec(&SpecGenConfig {
            modules: 20,
            edges: 30,
            hierarchy_size: 3,
            hierarchy_depth: 5,
            seed: 0,
        })
        .is_err());
        // far too few vertices for the hierarchy
        assert!(generate_spec(&SpecGenConfig {
            modules: 4,
            edges: 10,
            hierarchy_size: 8,
            hierarchy_depth: 3,
            seed: 0,
        })
        .is_err());
        // fewer edges than the structural minimum
        assert!(generate_spec(&SpecGenConfig {
            modules: 50,
            edges: 10,
            hierarchy_size: 5,
            hierarchy_depth: 3,
            seed: 0,
        })
        .is_err());
    }

    #[test]
    fn both_kinds_appear_when_possible() {
        for seed in 0..10 {
            let spec = check(&SpecGenConfig {
                modules: 50,
                edges: 70,
                hierarchy_size: 6,
                hierarchy_depth: 3,
                seed,
            });
            assert!(spec.forks().count() >= 1, "seed {seed}");
            assert!(spec.loops().count() >= 1, "seed {seed}");
        }
    }
}
