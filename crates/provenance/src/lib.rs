//! Data provenance over labeled workflow runs (paper §6).
//!
//! Module labels from `wfp-skl` extend to the data items flowing over a
//! run's channels: each item is labeled by its producer's label plus the
//! labels of its consumers, and every provenance question ("does x₈ depend
//! on x₁?", "which data was affected by module v?") reduces to a constant
//! number of module-reachability probes.
//!
//! * [`data`] — the `Data(e)` model: items, producers, consumers.
//! * [`index`] — data labels and the three dependency predicates.
//! * [`live`] — §6 queries over a run that is *still executing* (the §9
//!   query-while-running scenario), with registration as modules execute.
//! * [`fleet`] — §6 queries keyed by `(run, item)` **across many runs** of
//!   one specification, served by a single shared skeleton context.
//! * [`store`] — a byte-serialized provenance store answering queries
//!   without the run graph (the "store labels in a database" scenario that
//!   motivates the paper).
//! * [`gen`] — synthetic data attachment for benchmarks and tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod data;
pub mod fleet;
pub mod gen;
pub mod index;
pub mod live;
pub mod registry;
pub mod store;

pub use data::{DataError, DataItem, DataItemId, RunData, RunDataBuilder};
pub use fleet::FleetIndex;
pub use gen::attach_data;
pub use index::{DataLabel, ProvenanceIndex};
pub use live::LiveIndex;
pub use registry::RegistryIndex;
pub use store::{serialize, StoredProvenance};
