//! # exacoll — Generalized Collective Algorithms for the Exascale Era
//!
//! A from-scratch Rust reproduction of Wilkins et al., *"Generalized
//! Collective Algorithms for the Exascale Era"* (IEEE CLUSTER 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`comm`] — MPI-like point-to-point layer (threaded real-data runtime +
//!   trace recorder).
//! * [`sim`] — discrete-event simulator of exascale machines (multi-port
//!   NICs, intranode fabric, dragonfly topology).
//! * [`collectives`] — the paper's contribution: k-nomial, recursive
//!   multiplying, and k-ring generalized kernels plus classical baselines.
//! * [`models`] — the paper's analytical α-β-γ cost models (Eqs. 1–14).
//! * [`tuning`] — algorithm/radix selection configuration and autotuner.
//! * [`osu`] — OSU-style microbenchmark harness and vendor baseline policy.
//! * [`chaos`] — fault-injection campaign runner exercising the runtime's
//!   hang-free guarantee (drop/delay/duplicate/corrupt/kill).
//! * [`obs`] — observability: timed event timelines on both backends,
//!   metrics registry, Chrome-trace export, critical-path extraction, and
//!   model-vs-measured residual analysis.
//! * [`net`] — the distributed TCP backend: multi-process `SocketComm`
//!   runtime with a length-prefixed wire protocol, rendezvous bootstrap,
//!   and a per-peer progress engine.
//! * [`replay`] — deterministic record/replay: self-contained artifacts of
//!   per-rank event logs, re-derived expectations from the single-threaded
//!   world evaluator, and step-level divergence detection.
//! * [`opt`] — the schedule-IR optimizer: verified pipelining, message
//!   aggregation, and locality-remapping passes composed by a
//!   `PassManager` that re-verifies and byte-checks every rewrite.
//! * [`select`] — the online algorithm-selection service: lock-free
//!   snapshot lookups seeded by cost-model priors and refined by observed
//!   timings, with persistent learned tables.
//! * [`json`] — the dependency-free JSON layer the snapshots and exporters
//!   serialize through.
//!
//! ## Quickstart
//!
//! ```
//! use exacoll::collectives::{Algorithm, CollectiveOp};
//! use exacoll::osu::measure;
//! use exacoll::sim::Machine;
//!
//! // Time a k-nomial (radix 8) broadcast of 1 KiB across a simulated
//! // 128-node Frontier partition, one rank per node.
//! let machine = Machine::frontier(128, 1);
//! let t = measure(
//!     &machine,
//!     CollectiveOp::Bcast,
//!     Algorithm::KnomialTree { k: 8 },
//!     1024,
//!     0,
//! )
//! .unwrap()
//! .makespan;
//! assert!(t.as_micros() > 0.0);
//! ```

pub use exacoll_chaos as chaos;
pub use exacoll_comm as comm;
pub use exacoll_core as collectives;
pub use exacoll_json as json;
pub use exacoll_models as models;
pub use exacoll_net as net;
pub use exacoll_obs as obs;
pub use exacoll_opt as opt;
pub use exacoll_osu as osu;
pub use exacoll_replay as replay;
pub use exacoll_select as select;
pub use exacoll_sim as sim;
pub use exacoll_tuning as tuning;
