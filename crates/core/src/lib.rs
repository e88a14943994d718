//! # exacoll-core — generalized collective algorithms
//!
//! The paper's primary contribution: three communication kernels whose radix
//! is exposed as a tunable parameter `k`, yielding ten generalized collective
//! implementations (Table I):
//!
//! | Base kernel        | Generalized kernel         | Collectives                          |
//! |--------------------|----------------------------|--------------------------------------|
//! | Binomial tree      | **k-nomial tree**          | Reduce, Bcast, Gather, Allgather     |
//! | Recursive doubling | **recursive multiplying**  | Bcast, Allgather, Allreduce          |
//! | Ring               | **k-ring**                 | Bcast, Allgather, Allreduce          |
//!
//! plus the classical baselines the paper compares against (linear, binomial
//! = k-nomial with `k = 2`, recursive doubling = recursive multiplying with
//! `k = 2`, ring = k-ring with `k = 1`, Bruck, reduce-scatter+allgather).
//!
//! Every algorithm *lowers* to a per-rank [`schedule::Schedule`] — a
//! verifiable list of send/recv/compute steps over abstract buffer views —
//! which [`schedule::compile`] flattens for the one [`Executor`] that runs
//! any plan against any [`exacoll_comm::Comm`] backend. The same compiled
//! plan is executed with real data on the threaded and socket runtimes,
//! evaluated single-threaded for a whole world ([`schedule::world`]),
//! replayed on the machine simulator (performance), statically verified for
//! deadlock-freedom and data-flow coverage ([`schedule::verify`]), and
//! counted term-by-term against the α-β-γ cost models.
//!
//! The uniform entry points are [`registry::execute`] and
//! [`registry::execute_v`] (lowering lives in [`registry::lower`]); see
//! [`registry`] for the algorithm/operation compatibility matrix. The
//! per-collective modules hold the lowering builders.

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod barrier;
pub mod bcast;
pub mod gather;
pub mod plan_cache;
pub mod reduce;
pub mod reduce_scatter;
pub mod reference;
pub mod registry;
pub mod scatter;
pub mod schedule;
pub mod spec;
pub mod tags;
pub mod tenant;
#[cfg(test)]
mod testkit;
pub mod topo;
pub mod util;

pub use plan_cache::{CacheMetrics, PlanCache, PlanKey};
pub use registry::{execute, Algorithm, CollArgs, CollectiveOp};
pub use schedule::{compile, CompiledSchedule, Executor};
pub use tenant::{merge_tenants, run_tenants, Tenant, TENANT_TAG_STRIDE};
