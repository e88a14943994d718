//! # exacoll-osu — OSU-style microbenchmark harness
//!
//! The paper measures with the OSU microbenchmark suite on Frontier and
//! Polaris. This crate reproduces that measurement protocol on the
//! simulator:
//!
//! * [`measure()`](measure::measure) lowers a collective, reads each rank's
//!   op schedule off its plan, and replays it on a [`Machine`], returning
//!   virtual latency — the analogue of one OSU iteration. The simulator is
//!   deterministic, so the re-run/representative-trial machinery of §VI-H
//!   maps to optional seeded noise.
//! * [`sweep`] runs the OSU message-size ladder (8 B … 4 MB).
//! * [`vendor`] is the stand-in for Cray MPI: a fixed selection table of
//!   classical algorithms with size-based switchpoints, including the
//!   mis-switch at large `MPI_Reduce` sizes the paper observed (§VI-C:
//!   "the speedup over Cray MPI soars to over 4.5×, where we believe it is
//!   incorrectly switching algorithms").

pub mod measure;
pub mod report;
pub mod sweep;
pub mod vendor;
pub mod workload;

pub use measure::{latency, measure};
pub use report::Table;
pub use sweep::{osu_sizes, osu_sizes_large, Sweep};
pub use vendor::VendorPolicy;
pub use workload::{Workload, WorkloadStep};

pub use exacoll_sim::Machine;
