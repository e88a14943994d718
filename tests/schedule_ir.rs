//! Schedule-IR contract tests over the whole registry.
//!
//! Every generalized collective lowers to a per-rank [`Schedule`] before it
//! touches a transport. These tests pin the three properties that make the
//! IR trustworthy:
//!
//! 1. **Static safety** — the verifier proves every candidate plan is
//!    deadlock-free, tag-hygienic, and covers every output byte, for every
//!    (collective, algorithm, p, k) the registry offers, without running
//!    anything.
//! 2. **Dynamic fidelity** — compiling the same plans and running them
//!    through the executor on the threaded runtime reproduces the
//!    sequential reference byte for byte.
//! 3. **Analytical utility** — the verifier's α/β/γ term counts price into
//!    a finite positive prediction, and direct IR costing agrees with
//!    simulating a recorded live run. The byte-free trace every price is
//!    read from equals the trace of executing the plan, over the whole
//!    registry grid.

use exacoll::collectives::reference::expected_outputs;
use exacoll::collectives::registry::{
    candidates, lower, lower_v, unique_candidates, unique_candidates_v,
};
use exacoll::collectives::schedule::verify::verify;
use exacoll::collectives::schedule::{compile, CompiledSchedule, Executor, Schedule};
use exacoll::collectives::spec::OptSpec;
use exacoll::collectives::{CollArgs, CollectiveOp};
use exacoll::comm::{run_ranks, Comm, DType, RankTrace, TraceComm};
use exacoll::models::{predict_from_stats, NetParams};
use exacoll::obs::payload;
use exacoll::opt::apply_opt_spec;
use proptest::prelude::*;

/// Per-rank input length for one grid case.
fn input_len(op: CollectiveOp, p: usize, size: usize) -> usize {
    match op {
        CollectiveOp::Alltoall => size * p,
        CollectiveOp::Barrier => 0,
        _ => size,
    }
}

/// Lower every rank's plan for one case.
fn lower_all(args: &CollArgs, p: usize, n: usize) -> Vec<Schedule> {
    (0..p).map(|r| lower(args, p, r, n)).collect()
}

#[test]
fn every_registry_candidate_verifies_statically() {
    let net = NetParams::frontier_like();
    let mut cases = 0;
    for p in [4usize, 6, 8, 9] {
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                let n = input_len(op, p, 24);
                let plans = lower_all(&CollArgs::new(op, alg), p, n);
                let stats = verify(&plans)
                    .unwrap_or_else(|e| panic!("{op} / {alg} p={p} fails verification: {e}"));
                // Any plan that moves data must cost something.
                if p > 1 && op != CollectiveOp::Barrier {
                    assert!(
                        stats.beta_bytes > 0,
                        "{op} / {alg} p={p}: no bytes on the critical rank"
                    );
                }
                let priced = predict_from_stats(&net, &stats);
                assert!(
                    priced.is_finite() && priced >= 0.0,
                    "{op} / {alg} p={p}: bad prediction {priced}"
                );
                cases += 1;
            }
        }
    }
    assert!(cases > 200, "sweep should be dense, got {cases} cases");
}

#[test]
fn engine_reproduces_the_sequential_reference_on_threads() {
    for p in [4usize, 6, 8, 9] {
        for op in CollectiveOp::ALL {
            // The deduplicated set keeps one representative per distinct
            // plan, which is exactly the set of distinct executions.
            for alg in unique_candidates(op, p, 4) {
                let n = input_len(op, p, 16);
                let args = CollArgs::new(op, alg);
                let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(r, n)).collect();
                let expect = expected_outputs(op, args.root, args.dtype, args.rop, &inputs)
                    .expect("reference computes");
                let plans: Vec<_> = lower_all(&args, p, n).iter().map(compile).collect();
                let got = run_ranks(p, |c| {
                    Executor::new().run(c, &plans[c.rank()], &inputs[c.rank()])
                });
                for r in 0..p {
                    assert_eq!(got[r], expect[r], "{op} / {alg} p={p} rank={r}");
                }
            }
        }
    }
}

#[test]
fn unique_candidates_execute_everything_candidates_do() {
    // Dedup must only drop aliases: for each dropped configuration there is
    // a kept one whose lowered plans are identical, so coverage is intact.
    for p in [4usize, 6, 8, 9] {
        for op in CollectiveOp::ALL {
            let all = candidates(op, p, 4);
            let kept = unique_candidates(op, p, 4);
            assert!(!kept.is_empty(), "{op} p={p}: empty candidate set");
            for alg in &all {
                let n = input_len(op, p, 16);
                let dropped_plans = lower_all(&CollArgs::new(op, *alg), p, n);
                let covered = kept.iter().any(|k| {
                    *k == *alg || lower_all(&CollArgs::new(op, *k), p, n) == dropped_plans
                });
                assert!(covered, "{op} / {alg} p={p}: dropped without an alias");
            }
        }
    }
}

#[test]
fn direct_ir_costing_agrees_with_live_trace_simulation() {
    use exacoll::collectives::{execute, Algorithm};
    use exacoll::comm::record_traces;
    use exacoll::sim::{cost, simulate, Machine};

    let p = 8;
    let machine = Machine::frontier(4, 2);
    for (op, alg) in [
        (CollectiveOp::Allreduce, Algorithm::Ring),
        (
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        ),
        (CollectiveOp::Bcast, Algorithm::KnomialTree { k: 4 }),
        (CollectiveOp::Alltoall, Algorithm::Pairwise),
    ] {
        let n = input_len(op, p, 32);
        let args = CollArgs::new(op, alg);
        let plans = lower_all(&args, p, n);
        let direct = cost(&machine, &plans).expect("schedule costs");
        let traces = record_traces(p, |c| {
            let input = payload(c.rank(), n);
            execute(c, &args, &input).map(|_| ())
        });
        let live = simulate(&machine, &traces).expect("trace replays");
        assert_eq!(direct.makespan, live.makespan, "{op} / {alg}");
    }
}

/// The executed side of the byte-free trace oracle: run `plan` on the
/// trace recorder over zero input.
fn executed_trace(plan: &CompiledSchedule) -> RankTrace {
    let mut c = TraceComm::new(plan.rank, plan.p);
    Executor::new()
        .run(&mut c, plan, &vec![0u8; plan.input_bytes()])
        .unwrap_or_else(|e| panic!("rank {} executes: {e}", plan.rank));
    c.finish()
}

/// Both sides of the oracle agree on every rank of `plans`, plain and
/// under each optimizer pass; returns the number of plan sets compared.
fn assert_traces_agree(label: &str, plans: &[Schedule]) -> usize {
    let variants = [
        ("", OptSpec::NONE),
        ("@pipeline", OptSpec::PIPELINE),
        (
            "@aggregate",
            OptSpec {
                pipeline: false,
                aggregate: true,
            },
        ),
    ];
    for (name, opt) in variants {
        // Thresholds low enough to bite at the grid's small payloads.
        let rewritten = apply_opt_spec(plans, &opt, 8, 64).expect("passes run");
        for plan in rewritten.iter().map(compile) {
            assert_eq!(
                plan.to_trace(),
                executed_trace(&plan),
                "{label}{name} rank {}: byte-free trace differs from the executed one",
                plan.rank
            );
        }
    }
    variants.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The byte-free walk is the only pricing route; it must record exactly
    /// what the executor does on the trace recorder, for every candidate at
    /// p ∈ {4, 6, 7, 8, 9}, k ≤ 4, in three dtypes, at uniform sizes and
    /// over ragged count vectors with zero counts.
    #[test]
    fn byte_free_trace_equals_the_executed_trace(
        elems in 0usize..5,
        ragged in collection::vec(0usize..4, 9..10),
    ) {
        let mut cases = 0;
        for p in [4usize, 6, 7, 8, 9] {
            for dtype in [DType::U8, DType::I32, DType::F64] {
                let n = elems * dtype.size();
                for op in CollectiveOp::ALL {
                    for alg in unique_candidates(op, p, 4) {
                        let args = CollArgs { dtype, ..CollArgs::new(op, alg) };
                        let plans = lower_all(&args, p, input_len(op, p, n));
                        cases += assert_traces_agree(&format!("{op}/{alg} {dtype} p={p} n={n}"), &plans);
                    }
                }
                // Element counts, scaled to bytes; a zero keeps every vector
                // ragged even when the draw happens to be uniform.
                let mut counts: Vec<usize> = ragged[..p].iter().map(|c| c * dtype.size()).collect();
                counts[p / 2] = 0;
                for op in [CollectiveOp::Allgather, CollectiveOp::ReduceScatter] {
                    for alg in unique_candidates_v(op, 4, &counts) {
                        let args = CollArgs { dtype, ..CollArgs::new(op, alg) };
                        let plans: Vec<Schedule> = (0..p).map(|r| lower_v(&args, r, &counts)).collect();
                        cases += assert_traces_agree(&format!("{op}v/{alg} {dtype} {counts:?}"), &plans);
                    }
                }
            }
        }
        prop_assert!(cases > 1000, "grid should be dense, got {cases} plan sets");
    }
}
