//! Benchmark harness reproducing the paper's evaluation (§8).
//!
//! The `repro` binary regenerates every table and figure:
//!
//! ```sh
//! cargo run -p wfp-bench --release --bin repro -- all
//! cargo run -p wfp-bench --release --bin repro -- fig12 --quick
//! ```
//!
//! Each experiment prints the same rows/series the paper reports and writes
//! a copy under `results/`. Three extras time what the figures do not:
//! design ablations (`ablation`), `ConstructPlan` alone (`plan`) and the six
//! specification schemes (`schemes`); each checks that its variants agree
//! on every answer.
//!
//! Absolute numbers differ from the paper (Rust on this machine vs. Java on
//! a 2006 Pentium); the reproduction targets are the *shapes*: logarithmic
//! label growth under `3·log n_R` (Fig. 12), linear construction dominated
//! by plan recovery (Fig. 13/16), constant query time for TCM+SKL (Fig.
//! 14/17), the decreasing BFS+SKL query curve (Fig. 17/20), and the
//! wash-out of specification size for large runs (Fig. 18–20).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod options;
pub mod table;
pub mod timing;

pub use options::ReproOptions;
pub use table::Table;
