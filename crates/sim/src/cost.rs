//! Direct schedule costing: simulate a lowered [`Schedule`] set without
//! running it on a live backend first.
//!
//! `exacoll_core::registry::lower` produces every rank's communication plan;
//! [`cost`] runs those plans on the trace recorder (via
//! [`Schedule::to_trace`], which compiles each plan and runs it on the same
//! `Executor` live backends use, over a `TraceComm`) and feeds the result
//! to the discrete-event simulator. The op stream being simulated is
//! therefore — by construction — exactly the op stream a live run would
//! issue, with no threads.

use crate::machine::Machine;
use crate::replay::{simulate, ReplayError, SimOutcome};
use exacoll_core::schedule::Schedule;

/// Simulate the lowered plans of all ranks on `machine`.
///
/// # Errors
///
/// [`ReplayError::RankMismatch`] when `schedules.len()` differs from the
/// machine's rank count, plus any replay error a malformed plan produces
/// (the static verifier catches those earlier in test sweeps).
pub fn cost(machine: &Machine, schedules: &[Schedule]) -> Result<SimOutcome, ReplayError> {
    let traces: Vec<_> = schedules.iter().map(|s| s.to_trace()).collect();
    simulate(machine, &traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_comm::{record_traces, Comm};
    use exacoll_core::registry::{lower, Algorithm, CollArgs, CollectiveOp};

    #[test]
    fn schedule_cost_equals_traced_execution_cost() {
        // Costing the IR directly must give the same makespan as recording
        // a live (threaded) execution and simulating that.
        let p = 8;
        let machine = Machine::testbed(2, 4, 2);
        for alg in [
            Algorithm::Ring,
            Algorithm::KnomialTree { k: 2 },
            Algorithm::RecursiveMultiplying { k: 4 },
        ] {
            let args = CollArgs::new(CollectiveOp::Allgather, alg);
            let n = 64;
            let plans: Vec<_> = (0..p).map(|r| lower(&args, p, r, n)).collect();
            let direct = cost(&machine, &plans).unwrap();

            let traces = record_traces(p, |c| {
                let input = vec![c.rank() as u8; n];
                exacoll_core::registry::execute(c, &args, &input).map(|_| ())
            });
            let live = simulate(&machine, &traces).unwrap();
            assert_eq!(direct.makespan, live.makespan, "{alg}");
        }
    }

    #[test]
    fn skewed_v_allgather_costs_more_than_uniform_at_equal_total() {
        // Same total bytes, two distributions: a ring allgatherv must pay
        // for the largest block on every hop, so skew raises the makespan.
        let machine = Machine::testbed(2, 2, 2);
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let run = |counts: &[usize]| {
            let plans: Vec<_> = (0..counts.len())
                .map(|r| exacoll_core::registry::lower_v(&args, r, counts))
                .collect();
            cost(&machine, &plans).unwrap().makespan
        };
        let uniform = run(&[4096, 4096, 4096, 4096]);
        let skewed = run(&[13312, 1024, 1024, 1024]);
        assert!(
            skewed > uniform,
            "skew must not be free: skewed {skewed} vs uniform {uniform}"
        );
        // Zero-count ranks still simulate (0-byte messages are legal).
        assert!(run(&[8192, 0, 8192, 0]) > crate::time::SimTime::ZERO);
    }

    #[test]
    fn generalized_allreduce_simulates_at_non_power_of_k_counts() {
        let machine = Machine::testbed(2, 4, 2);
        for k in [2usize, 3] {
            let args = CollArgs::new(
                CollectiveOp::Allreduce,
                Algorithm::GeneralizedMultiplying { k },
            );
            let plans: Vec<_> = (0..8).map(|r| lower(&args, 8, r, 64)).collect();
            let out = cost(&machine, &plans).unwrap();
            assert!(out.makespan > crate::time::SimTime::ZERO, "genmult k={k}");
        }
    }

    #[test]
    fn rank_count_mismatch_is_an_error() {
        let machine = Machine::testbed(2, 2, 2);
        let args = CollArgs::new(CollectiveOp::Barrier, Algorithm::Dissemination { k: 2 });
        let plans: Vec<_> = (0..2).map(|r| lower(&args, 2, r, 0)).collect();
        assert!(matches!(
            cost(&machine, &plans),
            Err(ReplayError::RankMismatch { .. })
        ));
    }
}
