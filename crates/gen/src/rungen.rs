//! Run simulation with ground truth (paper §8: "To simulate the execution
//! of a workflow, we randomly replicated each fork or loop one or more
//! times").
//!
//! The generator expands the specification recursively: every hierarchy
//! node has a *quotient* (its plain edges plus one placeholder per child
//! group); a fork placeholder expands to `k ≥ 1` parallel copies between
//! the shared terminals, a loop placeholder to `k ≥ 1` serial copies joined
//! by connector edges (Definitions 4–6).
//!
//! Because the generator *knows* how each vertex came to be, it emits the
//! exact execution plan `T_R` and context function alongside the run. The
//! plan builder of `wfp-skl` must recover an equivalent plan from the bare
//! run — the workspace's main differential test — and the Figure 13
//! "with execution plan & context" measurement uses the ground truth
//! directly.

use wfp_graph::rng::Xoshiro256;
use wfp_model::plan::{ExecutionPlan, PlanBuilder, PlanNodeKind};
use wfp_model::{
    ModuleId, Run, RunBuilder, RunVertexId, SpecEdgeId, Specification, SubgraphId, SubgraphKind,
};

/// How many copies each fork/loop execution group receives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CountDistribution {
    /// Every group executes exactly `k` copies.
    Fixed(u32),
    /// `1 + Geometric` copies with the given mean number of *extra* copies
    /// (0.0 ⇒ always exactly one copy).
    GeometricMean(f64),
}

impl CountDistribution {
    fn sample(&self, rng: &mut Xoshiro256) -> u32 {
        match *self {
            CountDistribution::Fixed(k) => k.max(1),
            CountDistribution::GeometricMean(mean) => {
                if mean <= 0.0 {
                    return 1;
                }
                let p = 1.0 / (1.0 + mean);
                1 + rng.geometric(p).min(1_000_000) as u32
            }
        }
    }
}

/// Configuration for [`generate_run`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunGenConfig {
    /// RNG seed; equal configs generate identical runs.
    pub seed: u64,
    /// Copy-count distribution per execution group.
    pub counts: CountDistribution,
}

/// A generated run plus its ground-truth execution plan and contexts.
pub struct GeneratedRun {
    /// The run graph.
    pub run: Run,
    /// The generator's ground-truth plan (what `construct_plan` must
    /// recover up to unordered-sibling permutations).
    pub plan: ExecutionPlan,
}

/// Per-hierarchy-node quotient structure, in local vertex indices.
struct Quotient {
    /// specification modules of the quotient vertices
    verts: Vec<ModuleId>,
    /// local index of the node's source / sink
    s_local: usize,
    t_local: usize,
    /// plain edges as local index pairs
    plain: Vec<(usize, usize)>,
    /// child groups: (subgraph, local source, local sink)
    children: Vec<(SubgraphId, usize, usize)>,
}

fn build_quotients(spec: &Specification) -> Vec<Quotient> {
    let h = spec.hierarchy();
    (0..h.size() as u32)
        .map(|node| {
            // Vertices of the node minus the interiors of its children.
            let mut verts: Vec<ModuleId> = match h.subgraph_at(node) {
                Some(sg) => spec.subgraph(sg).vertices.clone(),
                None => spec.modules().collect(),
            };
            let mut removed = vec![false; spec.module_count()];
            for c in h.child_subgraphs(node) {
                let csg = spec.subgraph(c);
                match csg.kind {
                    SubgraphKind::Fork => {
                        for &m in &csg.internal {
                            removed[m.index()] = true;
                        }
                    }
                    SubgraphKind::Loop => {
                        for &m in &csg.vertices {
                            if m != csg.source && m != csg.sink {
                                removed[m.index()] = true;
                            }
                        }
                    }
                }
            }
            verts.retain(|m| !removed[m.index()]);
            let mut local = vec![usize::MAX; spec.module_count()];
            for (i, m) in verts.iter().enumerate() {
                local[m.index()] = i;
            }
            let (s_mod, t_mod) = match h.subgraph_at(node) {
                Some(sg) => (spec.subgraph(sg).source, spec.subgraph(sg).sink),
                None => (spec.source(), spec.sink()),
            };
            let plain = h
                .plain_edges(node)
                .iter()
                .map(|&e: &SpecEdgeId| {
                    let (u, v) = spec.edge(e);
                    (local[u.index()], local[v.index()])
                })
                .collect();
            let children = h
                .child_subgraphs(node)
                .map(|c| {
                    let csg = spec.subgraph(c);
                    (c, local[csg.source.index()], local[csg.sink.index()])
                })
                .collect();
            Quotient {
                s_local: local[s_mod.index()],
                t_local: local[t_mod.index()],
                verts,
                plain,
                children,
            }
        })
        .collect()
}

struct Expander<'a> {
    spec: &'a Specification,
    quotients: Vec<Quotient>,
    rng: Xoshiro256,
    counts: CountDistribution,
    rb: RunBuilder,
    pb: PlanBuilder,
    /// soft vertex cap: once exceeded, remaining groups execute once.
    /// Keeps the size search of [`generate_run_with_target`] from paying
    /// for heavy-tailed overshoots (nested geometric counts multiply).
    budget: usize,
}

impl Expander<'_> {
    /// Expands one copy of `node` between `s_vertex`/`t_vertex` (created
    /// fresh when `None`), under plan node `plus`.
    fn expand(
        &mut self,
        node: u32,
        plus: u32,
        s_vertex: Option<RunVertexId>,
        t_vertex: Option<RunVertexId>,
    ) {
        let q = &self.quotients[node as usize];
        let is_fork = matches!(
            self.spec
                .hierarchy()
                .subgraph_at(node)
                .map(|sg| self.spec.subgraph(sg).kind),
            Some(SubgraphKind::Fork)
        );
        // materialize the quotient's vertices
        let mut locals: Vec<RunVertexId> = Vec::with_capacity(q.verts.len());
        for (i, &origin) in q.verts.iter().enumerate() {
            let v = if i == q.s_local {
                s_vertex.unwrap_or_else(|| self.rb.add_vertex(origin))
            } else if i == q.t_local {
                t_vertex.unwrap_or_else(|| self.rb.add_vertex(origin))
            } else {
                self.rb.add_vertex(origin)
            };
            locals.push(v);
        }
        // claim contexts: deeper copies overwrite later (Definition 9);
        // fork copies do not dominate their terminals
        for (i, &v) in locals.iter().enumerate() {
            if is_fork && (i == q.s_local || i == q.t_local) {
                continue;
            }
            self.pb.set_context(v, plus);
        }
        // plain edges
        let plain = q.plain.clone();
        for (u, v) in plain {
            self.rb.add_edge(locals[u], locals[v]);
        }
        // child groups
        let children = q.children.clone();
        for (c, s_loc, t_loc) in children {
            let child_node = self.spec.hierarchy().node_of(c);
            let kind = self.spec.subgraph(c).kind;
            let minus = self.pb.add_node(PlanNodeKind::Minus(c));
            self.pb.link(minus, plus);
            let copies = if self.rb.vertex_count() >= self.budget {
                1
            } else {
                let mut rng = std::mem::replace(&mut self.rng, Xoshiro256::seed_from_u64(0));
                let k = self.counts.sample(&mut rng);
                self.rng = rng;
                k
            };
            match kind {
                SubgraphKind::Fork => {
                    for _ in 0..copies {
                        let cp = self.pb.add_node(PlanNodeKind::Plus(c));
                        self.pb.link(cp, minus);
                        self.expand(child_node, cp, Some(locals[s_loc]), Some(locals[t_loc]));
                    }
                }
                SubgraphKind::Loop => {
                    let t_origin = self.spec.subgraph(c).sink;
                    let s_origin = self.spec.subgraph(c).source;
                    let mut cur_s = locals[s_loc];
                    for j in 0..copies {
                        let cur_t = if j + 1 == copies {
                            locals[t_loc]
                        } else {
                            self.rb.add_vertex(t_origin)
                        };
                        let cp = self.pb.add_node(PlanNodeKind::Plus(c));
                        self.pb.link(cp, minus);
                        self.expand(child_node, cp, Some(cur_s), Some(cur_t));
                        if j + 1 < copies {
                            let next_s = self.rb.add_vertex(s_origin);
                            self.rb.add_edge(cur_t, next_s); // serial connector
                            cur_s = next_s;
                        }
                    }
                }
            }
        }
    }
}

/// Simulates one run of `spec` and returns it with its ground truth.
pub fn generate_run(spec: &Specification, cfg: &RunGenConfig) -> GeneratedRun {
    generate_run_bounded(spec, cfg, usize::MAX)
}

/// [`generate_run`] with a soft vertex budget: once the run grows past
/// `budget` vertices, every remaining fork/loop executes exactly once.
pub fn generate_run_bounded(
    spec: &Specification,
    cfg: &RunGenConfig,
    budget: usize,
) -> GeneratedRun {
    let mut ex = Expander {
        spec,
        quotients: build_quotients(spec),
        rng: Xoshiro256::seed_from_u64(cfg.seed ^ 0x94d0_49bb_1331_11eb),
        counts: cfg.counts,
        rb: RunBuilder::new(),
        pb: PlanBuilder::new(),
        budget,
    };
    let root = ex.pb.add_node(PlanNodeKind::Root);
    ex.expand(spec.hierarchy().root(), root, None, None);
    let run = ex
        .rb
        .finish(spec)
        .expect("generated runs are structurally valid");
    let plan = ex
        .pb
        .finish(run.vertex_count())
        .expect("generated plans are well-formed");
    GeneratedRun { run, plan }
}

/// Simulates a run with approximately `target_vertices` vertices (±3% when
/// the spec's fork/loop structure permits; the closest achievable otherwise
/// — e.g. a spec without subgraphs always yields `n_G` vertices).
///
/// Deterministic in `(spec, seed, target_vertices)`.
pub fn generate_run_with_target(
    spec: &Specification,
    seed: u64,
    target_vertices: usize,
) -> GeneratedRun {
    let mut mean = 1.0f64;
    let mut best: Option<(usize, GeneratedRun)> = None;
    for attempt in 0..40u64 {
        let cfg = RunGenConfig {
            seed: seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            counts: CountDistribution::GeometricMean(mean),
        };
        // soft cap: heavy-tailed nested counts can overshoot by orders of
        // magnitude; clamping keeps every attempt O(target)
        let gen = generate_run_bounded(spec, &cfg, 2 * target_vertices + 256);
        let n = gen.run.vertex_count();
        let err = n.abs_diff(target_vertices);
        let better = match &best {
            None => true,
            Some((b, _)) => err < b.abs_diff(target_vertices),
        };
        if better {
            best = Some((n, gen));
        }
        if err as f64 <= 0.03 * target_vertices as f64 {
            break;
        }
        // multiplicative steering; nested forks/loops make growth
        // super-linear in the mean, so damp the update
        let ratio = target_vertices as f64 / n.max(1) as f64;
        mean = (mean * ratio.powf(0.7)).clamp(1e-3, 1e6);
    }
    best.expect("at least one attempt ran").1
}

/// Simulates a **fleet**: `k` independent runs of one specification, each
/// approximately `target_vertices` vertices — the workload shape the
/// paper's amortization argument (one spec labeled once, many runs) and
/// `wfp_skl::fleet::FleetEngine` serve. Run `i` is generated with a seed
/// derived from `(seed, i)`, so fleets are deterministic in
/// `(spec, seed, k, target_vertices)` while their runs differ from each
/// other.
pub fn generate_fleet(
    spec: &Specification,
    seed: u64,
    k: usize,
    target_vertices: usize,
) -> Vec<GeneratedRun> {
    (0..k as u64)
        .map(|i| {
            let run_seed = seed ^ (i.wrapping_add(1)).wrapping_mul(0xA24B_AED4_963E_E407);
            generate_run_with_target(spec, run_seed, target_vertices)
        })
        .collect()
}

/// A mixed-spec workload: `specs[i]` is served by the fleet of runs
/// `fleets[i]`. See [`generate_registry`].
pub struct GeneratedRegistry {
    /// The specifications, structurally distinct per index.
    pub specs: Vec<Specification>,
    /// Per spec: its generated runs (with ground-truth plans).
    pub fleets: Vec<Vec<GeneratedRun>>,
}

/// Simulates a multi-spec **registry** workload: `spec_count` structurally
/// distinct specifications (hierarchy size, module and edge counts all
/// vary with the index), each with `runs_per_spec` generated runs of
/// approximately `target_vertices` vertices — the workload shape
/// `wfp_skl::registry::ServiceRegistry` serves. Deterministic in
/// `(seed, spec_count, runs_per_spec, target_vertices)`.
///
/// Scheme assignment is left to the caller (this crate does not depend on
/// `wfp-speclabel`); cycling `SchemeKind::ALL` over the index is the usual
/// choice.
pub fn generate_registry(
    seed: u64,
    spec_count: usize,
    runs_per_spec: usize,
    target_vertices: usize,
) -> GeneratedRegistry {
    let mut specs = Vec::with_capacity(spec_count);
    let mut fleets = Vec::with_capacity(spec_count);
    for i in 0..spec_count as u64 {
        let size = 3 + (i as usize % 4);
        let cfg = crate::SpecGenConfig {
            // feasibility mirror of the differential suites: a series
            // chain of `size` subgraphs needs this many modules at least
            modules: 2 + 2 * (size - 1) + size + 4 + 2 * (i as usize % 5),
            edges: 2 + 2 * (size - 1) + size + 8 + (i as usize % 7),
            hierarchy_size: size,
            hierarchy_depth: 2 + (i as usize % (size.min(4) - 1)),
            seed: seed ^ (i.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let spec = crate::generate_spec_clamped(&cfg).expect("feasible by construction");
        let fleet_seed = seed ^ (i.wrapping_add(1)).wrapping_mul(0xD134_2543_DE82_EF95);
        fleets.push(generate_fleet(
            &spec,
            fleet_seed,
            runs_per_spec,
            target_vertices,
        ));
        specs.push(spec);
    }
    GeneratedRegistry { specs, fleets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specgen::{generate_spec, SpecGenConfig};
    use wfp_model::fixtures::paper_spec;

    fn spec_100() -> Specification {
        generate_spec(&SpecGenConfig {
            modules: 100,
            edges: 200,
            hierarchy_size: 10,
            hierarchy_depth: 4,
            seed: 5,
        })
        .unwrap()
    }

    #[test]
    fn generated_runs_are_structurally_valid_and_sized() {
        let spec = paper_spec();
        for seed in 0..10 {
            let gen = generate_run(
                &spec,
                &RunGenConfig {
                    seed,
                    counts: CountDistribution::GeometricMean(2.0),
                },
            );
            assert!(gen.run.vertex_count() >= spec.module_count());
            // Lemma 4.2 on the ground-truth plan
            assert!(gen.plan.node_count() <= 4 * gen.run.edge_count());
        }
    }

    #[test]
    fn fixed_one_reproduces_the_specification() {
        let spec = spec_100();
        let gen = generate_run(
            &spec,
            &RunGenConfig {
                seed: 9,
                counts: CountDistribution::Fixed(1),
            },
        );
        assert_eq!(gen.run.vertex_count(), spec.module_count());
        assert_eq!(gen.run.edge_count(), spec.channel_count());
    }

    #[test]
    fn determinism() {
        let spec = spec_100();
        let cfg = RunGenConfig {
            seed: 4,
            counts: CountDistribution::GeometricMean(1.5),
        };
        let a = generate_run(&spec, &cfg);
        let b = generate_run(&spec, &cfg);
        assert_eq!(
            wfp_model::io::run_to_xml(&a.run),
            wfp_model::io::run_to_xml(&b.run)
        );
    }

    #[test]
    fn target_sizes_are_approached() {
        let spec = spec_100();
        for &target in &[200usize, 800, 3200, 12800] {
            let gen = generate_run_with_target(&spec, 77, target);
            let n = gen.run.vertex_count();
            assert!(
                n.abs_diff(target) as f64 <= 0.25 * target as f64,
                "target {target}, got {n}"
            );
        }
    }

    #[test]
    fn fleets_are_deterministic_sized_and_distinct() {
        let spec = spec_100();
        let a = generate_fleet(&spec, 9, 4, 600);
        let b = generate_fleet(&spec, 9, 4, 600);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                wfp_model::io::run_to_xml(&x.run),
                wfp_model::io::run_to_xml(&y.run)
            );
            assert!(x.run.vertex_count().abs_diff(600) <= 150);
        }
        // different runs of one fleet are (overwhelmingly) distinct
        let distinct = a
            .iter()
            .map(|g| wfp_model::io::run_to_xml(&g.run))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "fleet collapsed to identical runs");
    }

    #[test]
    fn ground_truth_contexts_respect_domination() {
        // every vertex's context subgraph must dominate its origin
        let spec = spec_100();
        let gen = generate_run(
            &spec,
            &RunGenConfig {
                seed: 21,
                counts: CountDistribution::GeometricMean(1.0),
            },
        );
        for v in gen.run.vertices() {
            let ctx = gen.plan.context(v);
            match gen.plan.kind(ctx) {
                PlanNodeKind::Root => {
                    assert_eq!(
                        spec.hierarchy().dominator_of_vertex(gen.run.origin(v)),
                        None,
                        "root-context vertex must be dominated by no subgraph"
                    );
                }
                PlanNodeKind::Plus(sg) => {
                    assert_eq!(
                        spec.hierarchy().dominator_of_vertex(gen.run.origin(v)),
                        Some(sg),
                        "context must be the origin's deepest dominator"
                    );
                }
                PlanNodeKind::Minus(_) => unreachable!("contexts are + nodes"),
            }
        }
    }
}
