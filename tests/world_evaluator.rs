//! The single-threaded world evaluator against live threaded runs.
//!
//! The optimizer's byte-identity gate, the `verify` sweeps and replay's
//! expected side all evaluate plan sets in the world
//! (`exacoll::collectives::schedule::world`) instead of on real threads.
//! This grid pins that substitution: for every deduplicated candidate over
//! p ∈ {4, 6, 7, 8, 9} and radix k ≤ 4 — uniform and irregular ("v")
//! collectives, plain and `@pipeline`/`@aggregate` plans — the world under
//! a `RecordComm` must log exactly the events and produce exactly the
//! bytes a live `ThreadComm` run logs and produces under the same
//! recorder, and both must match the sequential reference.

use exacoll::collectives::reference::{expected_outputs, expected_outputs_v};
use exacoll::collectives::registry::{lower, lower_v, unique_candidates, unique_candidates_v};
use exacoll::collectives::schedule::world::run_world;
use exacoll::collectives::schedule::{compile, CompiledSchedule, Executor, Schedule};
use exacoll::collectives::spec::OptSpec;
use exacoll::collectives::{CollArgs, CollectiveOp};
use exacoll::comm::{run_ranks, Comm, RecordComm, RecordedEvent};
use exacoll::obs::payload;
use exacoll::opt::apply_opt_spec;

const WORLDS: [usize; 5] = [4, 6, 7, 8, 9];
const MAX_K: usize = 4;

/// Plain plans plus both optimizer variants, with thresholds low enough to
/// bite on the grid's small payloads.
const VARIANTS: [(&str, OptSpec); 3] = [
    ("plain", OptSpec::NONE),
    ("@pipeline", OptSpec::PIPELINE),
    (
        "@aggregate",
        OptSpec {
            pipeline: false,
            aggregate: true,
        },
    ),
];
const CHUNK: usize = 8;
const FUSE: usize = 64;

/// Run `plans` live under recorders and in the world under recorders; both
/// sides must agree on every rank's events and output, and the output must
/// be `expect`.
fn check(label: &str, plans: &[Schedule], inputs: &[Vec<u8>], expect: &[Vec<u8>]) {
    let p = plans.len();
    let compiled: Vec<CompiledSchedule> = plans.iter().map(compile).collect();
    let live: Vec<(Vec<u8>, Vec<RecordedEvent>)> = run_ranks(p, |c| {
        let r = c.rank();
        let mut rc = RecordComm::new(&mut *c);
        let out = Executor::new().run(&mut rc, &compiled[r], &inputs[r])?;
        Ok((out, rc.finish()))
    });
    let world = run_world(&compiled, inputs, RecordComm::new)
        .unwrap_or_else(|e| panic!("{label}: world evaluation failed: {e}"));
    for r in 0..p {
        let (out, recorder) = &world[r];
        assert_eq!(
            recorder.events(),
            &live[r].1[..],
            "{label} rank {r}: world events differ from the live log"
        );
        assert_eq!(out, &live[r].0, "{label} rank {r}: world output differs");
        assert_eq!(
            out, &expect[r],
            "{label} rank {r}: output differs from reference"
        );
    }
}

fn input_len(op: CollectiveOp, p: usize) -> usize {
    match op {
        CollectiveOp::Alltoall => 4 * p,
        CollectiveOp::Barrier => 0,
        _ => 24,
    }
}

#[test]
fn world_matches_live_recorded_runs_on_uniform_collectives() {
    let mut cases = 0;
    for p in WORLDS {
        for op in CollectiveOp::ALL {
            let n = input_len(op, p);
            let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(r, n)).collect();
            for alg in unique_candidates(op, p, MAX_K) {
                let args = CollArgs::new(op, alg);
                let expect = expected_outputs(op, args.root, args.dtype, args.rop, &inputs)
                    .expect("reference computes");
                let plans: Vec<Schedule> = (0..p).map(|r| lower(&args, p, r, n)).collect();
                for (name, opt) in VARIANTS {
                    let rewritten = apply_opt_spec(&plans, &opt, CHUNK, FUSE).expect("passes run");
                    check(
                        &format!("{op}/{alg}{name} p={p}"),
                        &rewritten,
                        &inputs,
                        &expect,
                    );
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 400, "grid should be dense, got {cases} cases");
}

#[test]
fn world_matches_live_recorded_runs_on_irregular_collectives() {
    let mut cases = 0;
    for p in WORLDS {
        // Ragged, with zero-count ranks and a heavy head.
        let counts: Vec<usize> = (0..p).map(|r| [16, 0, 5, 9, 0, 3][r % 6]).collect();
        for op in [CollectiveOp::Allgather, CollectiveOp::ReduceScatter] {
            let inputs: Vec<Vec<u8>> = (0..p)
                .map(|r| match op {
                    CollectiveOp::Allgather => payload(r, counts[r]),
                    _ => payload(r, counts.iter().sum()),
                })
                .collect();
            for alg in unique_candidates_v(op, MAX_K, &counts) {
                let args = CollArgs::new(op, alg);
                let expect = expected_outputs_v(op, args.dtype, args.rop, &counts, &inputs)
                    .expect("reference computes");
                let plans: Vec<Schedule> = (0..p).map(|r| lower_v(&args, r, &counts)).collect();
                for (name, opt) in VARIANTS {
                    let rewritten = apply_opt_spec(&plans, &opt, CHUNK, FUSE).expect("passes run");
                    check(
                        &format!("{op}v/{alg}{name} p={p}"),
                        &rewritten,
                        &inputs,
                        &expect,
                    );
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 40, "grid should be dense, got {cases} cases");
}
