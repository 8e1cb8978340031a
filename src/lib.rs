//! **workflow-provenance** — an optimal reachability labeling scheme for
//! workflow provenance using skeleton labels.
//!
//! This is a full, from-scratch Rust implementation of
//! *"An Optimal Labeling Scheme for Workflow Provenance Using Skeleton
//! Labels"* (Zhuowei Bao, Susan B. Davidson, Sanjeev Khanna, Sudeepa Roy —
//! SIGMOD 2010), including every substrate the paper depends on: the
//! workflow model with well-nested forks and loops, specification labeling
//! schemes, the linear-time execution-plan recovery, the data-provenance
//! layer, XML persistence, and the workload generators behind the paper's
//! evaluation.
//!
//! # Quickstart
//!
//! ```
//! use workflow_provenance::prelude::*;
//!
//! // 1. Describe a specification: a -> b -> c with a loop over {b}.
//! let mut sb = SpecBuilder::new();
//! let a = sb.add_module("fetch").unwrap();
//! let b = sb.add_module("align").unwrap();
//! let c = sb.add_module("report").unwrap();
//! sb.add_edge(a, b).unwrap();
//! sb.add_edge(b, c).unwrap();
//! let spec = sb.build().unwrap();
//!
//! // 2. Execute it (here: the trivial run identical to the spec).
//! let mut rb = RunBuilder::new();
//! let va = rb.add_vertex(a);
//! let vb = rb.add_vertex(b);
//! let vc = rb.add_vertex(c);
//! rb.add_edge(va, vb);
//! rb.add_edge(vb, vc);
//! let run = rb.finish(&spec).unwrap();
//!
//! // 3. Label the specification (skeleton) and then the run (SKL).
//! let skeleton = SpecScheme::build(SchemeKind::Tcm, spec.graph());
//! let labeled = LabeledRun::build(&spec, skeleton, &run).unwrap();
//!
//! // 4. Constant-time provenance queries.
//! assert!(labeled.reaches(va, vc));
//! assert!(!labeled.reaches(vc, va));
//! ```
//!
//! # Crate map
//!
//! | Layer | Crate | Paper |
//! |-------|-------|-------|
//! | graph/tree/bitset/RNG substrate | [`graph`] (`wfp-graph`) | §3, §5 |
//! | workflow model + validation | [`model`] (`wfp-model`) | §3 |
//! | spec labeling schemes | [`speclabel`] (`wfp-speclabel`) | §7, §2 |
//! | **skeleton labeling (core)** | [`skl`] (`wfp-skl`) | §4–§5 |
//! | data provenance | [`provenance`] (`wfp-provenance`) | §6 |
//! | XML persistence | [`xml`] (`wfp-xml`) + [`model::io`] | §8 |
//! | workload generators | [`gen`] (`wfp-gen`) | §8 |
//!
//! The benchmark harness reproducing every table and figure of §8 lives in
//! the `wfp-bench` crate (`cargo run -p wfp-bench --release --bin repro`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use wfp_gen as gen;
pub use wfp_graph as graph;
pub use wfp_model as model;
pub use wfp_provenance as provenance;
pub use wfp_skl as skl;
pub use wfp_speclabel as speclabel;
pub use wfp_xml as xml;

/// Compiles and runs the fenced Rust blocks of `README.md` as doc-tests,
/// so the README's quickstart cannot drift out of sync with the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use wfp_gen::{
        generate_fleet, generate_registry, generate_run, generate_run_with_target, generate_spec,
        generate_spec_clamped, random_pairs, real_workflows, stand_in, CountDistribution,
        GeneratedRegistry, GeneratedRun, RunGenConfig, SpecGenConfig,
    };
    pub use wfp_model::{
        ExecutionPlan, ModuleId, Run, RunBuilder, RunEdgeId, RunVertexId, SpecBuilder, SpecEdgeId,
        Specification, SubgraphId, SubgraphKind,
    };
    pub use wfp_provenance::{
        attach_data, DataItemId, FleetIndex, LiveIndex, ProvenanceIndex, RegistryIndex, RunData,
        RunDataBuilder, StoredProvenance,
    };
    pub use wfp_skl::{
        construct_plan, label_run, serve_sharded, FleetEngine, FleetError, FleetStats, LabeledRun,
        LiveRun, PackedEngine, PackedRunHandle, QueryEngine, QueryPath, RegistryError,
        RegistryStats, RunHandle, RunId, RunLabel, ServeConfig, ServeError, ServeHandle,
        ServeStats, ServiceRegistry, ShardPlan, ShardedServer, ShardedStats, SpecContext, SpecId,
    };
    pub use wfp_speclabel::{SchemeKind, SpecIndex, SpecScheme};
}
