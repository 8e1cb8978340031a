//! Workload generation for the paper's evaluation (§8).
//!
//! * [`specgen`] — synthetic workflow specifications parameterized exactly
//!   as in the paper: `n_G` (modules), `m_G` (edges), `|T_G|` (hierarchy
//!   size) and `[T_G]` (hierarchy depth).
//! * [`rungen`] — run simulation: "we randomly replicated each fork or loop
//!   one or more times", with run sizes steerable from 0.1K to 102.4K
//!   vertices. The generator also emits the ground-truth execution plan and
//!   contexts, which is what makes the differential tests of the plan
//!   builder possible.
//! * [`real`] — stand-ins for the six real myExperiment workflows of
//!   Table 1, generated to match the published characteristics exactly (see
//!   DESIGN.md §3 for the substitution argument).
//! * [`queries`] — uniform random query workloads (the paper samples 10⁶
//!   vertex pairs per data point).
//! * [`workload`] — open-loop arrival schedules (uniform / Poisson /
//!   bursty) for driving the `wfp_skl::serve` front-end.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod queries;
pub mod real;
pub mod rungen;
pub mod specgen;
pub mod workload;

pub use queries::random_pairs;
pub use real::{real_workflows, stand_in, RealWorkflow};
pub use rungen::{
    generate_fleet, generate_registry, generate_run, generate_run_bounded,
    generate_run_with_target, CountDistribution, GeneratedRegistry, GeneratedRun, RunGenConfig,
};
pub use specgen::{generate_spec, generate_spec_clamped, GenError, SpecGenConfig};
pub use workload::{arrival_offsets_us, spec_mix_indices, Arrival, SpecMix};
