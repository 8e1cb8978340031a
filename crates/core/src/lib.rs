//! **wfp-skl** — the skeleton-based reachability labeling scheme for
//! workflow runs: the core contribution of *"An Optimal Labeling Scheme for
//! Workflow Provenance Using Skeleton Labels"* (Bao, Davidson, Khanna, Roy —
//! SIGMOD 2010).
//!
//! Given a specification labeled by *any* reachability scheme (the
//! *skeleton labels*, crate `wfp-speclabel`), a run conforming to that
//! specification is labeled with:
//!
//! * logarithmic-length labels — `3·log n⁺ + log n_G` bits,
//! * linear construction time — one bottom-up contraction sweep recovers
//!   the execution plan and per-vertex contexts with no per-copy ids in the
//!   input ([`construct_plan`], paper §5),
//! * constant query time — three integer comparisons classify the context
//!   LCA; only `+`-LCA queries consult the skeleton ([`predicate`],
//!   Algorithm 3).
//!
//! ```
//! use wfp_model::fixtures;
//! use wfp_skl::LabeledRun;
//! use wfp_speclabel::{SchemeKind, SpecScheme};
//!
//! let spec = fixtures::paper_spec();
//! let run = fixtures::paper_run(&spec);
//! let skeleton = SpecScheme::build(SchemeKind::Tcm, spec.graph());
//! let labeled = LabeledRun::build(&spec, skeleton, &run).unwrap();
//!
//! let b1 = fixtures::paper_vertex(&spec, &run, "b1");
//! let c3 = fixtures::paper_vertex(&spec, &run, "c3");
//! assert!(!labeled.reaches(b1, c3)); // parallel fork copies
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bits;
pub mod construct;
pub mod context;
pub mod engine;
pub mod fleet;
pub mod label;
pub mod live;
pub mod online;
pub mod orders;
pub mod origin;
pub mod packed;
pub mod registry;
pub mod serve;
pub mod snapshot;

pub use construct::{
    construct_plan, construct_plan_with_stats, ConstructError, ConstructStats, Issue,
};
pub use context::{PackedRunHandle, RunHandle, SharedMemo, SpecContext};
pub use engine::{predicate_memo, EngineStats, QueryEngine, SoaColumns, SoaLabels};
pub use fleet::{FleetEngine, FleetError, FleetLoadProfile, FleetStats, RunId};
pub use label::{
    label_run, predicate, predicate_traced, DecodeError, EncodedLabels, LabeledRun, QueryPath,
    RunLabel,
};
pub use live::{LiveRun, LiveStats};
pub use online::{OnlineError, OnlineLabeler};
pub use orders::{generate_three_orders, ContextEncoding};
pub use origin::{compute_origins, compute_origins_numbered, OriginError};
pub use packed::{PackedColumnsView, PackedEngine, PackedStore};
pub use registry::{RegistryError, RegistryStats, ServiceRegistry, SpecId};
pub use serve::{
    serve_sharded, Histogram, Probe, SchemeLatency, ServeConfig, ServeError, ServeHandle,
    ServeStats, ShardPlan, ShardedServer, ShardedStats, Ticket,
};
pub use snapshot::{FormatError, SnapshotReader, SnapshotWriter};
