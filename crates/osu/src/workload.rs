//! Application-level collective workloads.
//!
//! §II-A motivates the paper with profiles of production applications:
//! collectives consume 25–50% of runtime, and the ECP proxy-app suite
//! spends 40%+ of exascale workloads' time in them, dominated by
//! `MPI_Allreduce`. This module times a whole *sequence* of collectives —
//! an application's per-iteration communication mix — end-to-end on the
//! simulator, under a given selection policy, so the paper's bottom-line
//! question ("what does radix tuning buy an application?") can be answered
//! directly.

use crate::measure::latency;
use exacoll_core::{Algorithm, CollectiveOp};
use exacoll_sim::{Machine, ReplayError, SimTime};

/// One collective invocation in an application's communication mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadStep {
    /// The collective.
    pub op: CollectiveOp,
    /// Per-rank message size in bytes.
    pub bytes: usize,
    /// How many times per iteration the application issues it.
    pub count: usize,
}

/// A named per-iteration communication mix.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name for reporting.
    pub name: String,
    /// The steps of one iteration.
    pub steps: Vec<WorkloadStep>,
}

impl Workload {
    /// A CG-solver-like mix: three dot-product allreduces of a scalar and
    /// one small vector allreduce per iteration (the `cg_solver` example's
    /// actual pattern).
    pub fn cg_like() -> Workload {
        Workload {
            name: "cg-solver".into(),
            steps: vec![
                WorkloadStep {
                    op: CollectiveOp::Allreduce,
                    bytes: 8,
                    count: 3,
                },
                WorkloadStep {
                    op: CollectiveOp::Allreduce,
                    bytes: 4096,
                    count: 1,
                },
            ],
        }
    }

    /// A data-parallel-training-like mix: one large gradient allreduce and
    /// one parameter broadcast per step.
    pub fn training_like() -> Workload {
        Workload {
            name: "dl-training".into(),
            steps: vec![
                WorkloadStep {
                    op: CollectiveOp::Allreduce,
                    bytes: 4 << 20,
                    count: 1,
                },
                WorkloadStep {
                    op: CollectiveOp::Bcast,
                    bytes: 64 * 1024,
                    count: 1,
                },
            ],
        }
    }

    /// An ECP-proxy-like mix (§II-A): frequent small allreduces, periodic
    /// medium broadcast and allgather.
    pub fn proxy_like() -> Workload {
        Workload {
            name: "ecp-proxy".into(),
            steps: vec![
                WorkloadStep {
                    op: CollectiveOp::Allreduce,
                    bytes: 64,
                    count: 8,
                },
                WorkloadStep {
                    op: CollectiveOp::Bcast,
                    bytes: 32 * 1024,
                    count: 2,
                },
                WorkloadStep {
                    op: CollectiveOp::Allgather,
                    bytes: 1024,
                    count: 1,
                },
                WorkloadStep {
                    op: CollectiveOp::Reduce,
                    bytes: 8192,
                    count: 1,
                },
            ],
        }
    }

    /// Time one iteration under an algorithm-selection function (each
    /// collective runs back-to-back; per-collective latencies add, matching
    /// the blocking-collective semantics of the motivating applications).
    pub fn time_with(
        &self,
        machine: &Machine,
        mut select: impl FnMut(CollectiveOp, usize) -> Algorithm,
    ) -> Result<SimTime, ReplayError> {
        let mut total = SimTime::ZERO;
        for step in &self.steps {
            let alg = select(step.op, step.bytes);
            total += latency(machine, step.op, alg, step.bytes)? * step.count as f64;
        }
        Ok(total)
    }

    /// Time one iteration under the fixed MPICH-style defaults.
    pub fn time_defaults(&self, machine: &Machine) -> Result<SimTime, ReplayError> {
        self.time_with(machine, |op, _| match op {
            CollectiveOp::Bcast | CollectiveOp::Reduce | CollectiveOp::Gather => {
                Algorithm::KnomialTree { k: 2 }
            }
            CollectiveOp::Allgather => Algorithm::Ring,
            CollectiveOp::Allreduce => Algorithm::RecursiveMultiplying { k: 2 },
            CollectiveOp::Barrier => Algorithm::Dissemination { k: 2 },
            CollectiveOp::Alltoall => Algorithm::Pairwise,
            CollectiveOp::ReduceScatter => Algorithm::Ring,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_time_and_add_up() {
        let m = Machine::frontier(8, 1);
        let w = Workload::cg_like();
        let t = w.time_defaults(&m).unwrap();
        // Three scalar allreduces + one 4 KB allreduce: strictly more than
        // a single scalar allreduce.
        let single = Workload {
            name: "one".into(),
            steps: vec![WorkloadStep {
                op: CollectiveOp::Allreduce,
                bytes: 8,
                count: 1,
            }],
        };
        let t1 = single.time_defaults(&m).unwrap();
        assert!(t > t1 * 3.0);
    }

    #[test]
    fn fixed_choice_workload_timing_is_composable() {
        // A hand-picked tuned selection (port-matched radixes) must not
        // lose to the fixed defaults on the proxy mix.
        let m = Machine::frontier(8, 1);
        let w = Workload::proxy_like();
        let tuned = w
            .time_with(&m, |op, _n| match op {
                CollectiveOp::Allreduce => Algorithm::RecursiveMultiplying { k: 4 },
                CollectiveOp::Bcast | CollectiveOp::Reduce => Algorithm::KnomialTree { k: 5 },
                CollectiveOp::Allgather => Algorithm::RecursiveMultiplying { k: 4 },
                _ => Algorithm::Dissemination { k: 2 },
            })
            .unwrap();
        let default = w.time_defaults(&m).unwrap();
        assert!(tuned <= default, "tuned {tuned} vs default {default}");
    }
}
