//! Lower-then-price measurement of one collective on a machine.

use exacoll_comm::{DType, RankTrace, ReduceOp};
use exacoll_core::registry::lower;
use exacoll_core::{Algorithm, CollArgs, CollectiveOp};
use exacoll_sim::{simulate, Machine, ReplayError, SimOutcome, SimTime};

/// The operation schedule of `alg` running `op` with `n`-byte per-rank
/// payloads on `p` ranks, read off each rank's lowered plan.
///
/// `n` follows OSU conventions: it is the per-rank message size (the full
/// payload for bcast/reduce/allreduce, the per-rank block for
/// gather/allgather).
pub fn record_collective(
    p: usize,
    op: CollectiveOp,
    alg: Algorithm,
    n: usize,
    root: usize,
) -> Vec<RankTrace> {
    let args = CollArgs {
        op,
        alg,
        root,
        dtype: DType::F64,
        rop: ReduceOp::Sum,
    };
    // Keep n a multiple of 8 (f64) by padding down — OSU sizes are all
    // multiples. For alltoall, OSU's message size is per destination pair,
    // so the input holds p blocks of n bytes.
    let n = if n >= 8 { n - n % 8 } else { n };
    let bytes = if op == CollectiveOp::Alltoall {
        n * p
    } else {
        n
    };
    // One rank at a time, so only one lowered plan is alive at once.
    (0..p)
        .map(|rank| lower(&args, p, rank, bytes).to_trace())
        .collect()
}

/// Measure `alg` running `op` on `machine`: trace + replay, full outcome.
pub fn measure(
    machine: &Machine,
    op: CollectiveOp,
    alg: Algorithm,
    n: usize,
    root: usize,
) -> Result<SimOutcome, ReplayError> {
    let traces = record_collective(machine.ranks(), op, alg, n, root);
    simulate(machine, &traces)
}

/// Latency (makespan) of one collective on `machine`.
pub fn latency(
    machine: &Machine,
    op: CollectiveOp,
    alg: Algorithm,
    n: usize,
) -> Result<SimTime, ReplayError> {
    measure(machine, op, alg, n, 0).map(|o| o.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_latency_positive_and_monotone() {
        let m = Machine::frontier(8, 1);
        let alg = Algorithm::KnomialTree { k: 2 };
        let t_small = latency(&m, CollectiveOp::Bcast, alg, 8).unwrap();
        let t_big = latency(&m, CollectiveOp::Bcast, alg, 1 << 20).unwrap();
        assert!(t_small.as_micros() > 0.0);
        assert!(t_big > t_small);
    }

    #[test]
    fn every_supported_pair_simulates_cleanly() {
        // Deadlock-freedom across the whole compatibility matrix on a
        // non-trivial machine.
        let m = Machine::frontier(4, 2); // p = 8
        for op in CollectiveOp::ALL {
            for alg in exacoll_core::registry::candidates(op, m.ranks(), 8) {
                let out = measure(&m, op, alg, 4096, 0);
                assert!(out.is_ok(), "{op} {alg}: {:?}", out.err());
            }
        }
    }

    #[test]
    fn knomial_matches_alpha_model_shape() {
        // On a machine with zero overheads the simulated binomial bcast of a
        // tiny message costs depth * alpha.
        let mut m = Machine::testbed(8, 1, 1);
        m.cpu.o_send_ns = 0.0;
        m.cpu.o_recv_ns = 0.0;
        let t = latency(&m, CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }, 8).unwrap();
        // depth = 3, alpha = 1000 ns, beta*8 = 8 ns per hop.
        let expect = 3.0 * (1000.0 + 8.0);
        assert!(
            (t.as_nanos() - expect).abs() < 1.0,
            "simulated {} vs model {expect}",
            t.as_nanos()
        );
    }

    #[test]
    fn flat_tree_is_single_alpha_deep() {
        let mut m = Machine::testbed(8, 1, 8);
        m.cpu.o_send_ns = 0.0;
        m.cpu.o_recv_ns = 0.0;
        let t = latency(&m, CollectiveOp::Bcast, Algorithm::KnomialTree { k: 8 }, 8).unwrap();
        // One round: alpha + n*beta, all seven sends striped over 8 ports.
        assert!((t.as_nanos() - 1008.0).abs() < 1.0, "{t}");
    }

    #[test]
    fn odd_sizes_round_down_to_elements() {
        let m = Machine::frontier(4, 1);
        let t = latency(
            &m,
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
            17,
        );
        assert!(t.is_ok());
    }
}
