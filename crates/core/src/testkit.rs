//! Shared drivers for the collective modules' unit tests.

use crate::registry::{execute, execute_v, CollArgs};
use crate::schedule::{world, Schedule};
use exacoll_comm::{run_ranks, Comm, Rank};

/// Run `args` live: one thread per entry of `inputs`, each rank through
/// [`execute`].
pub(crate) fn live(args: &CollArgs, inputs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    run_ranks(inputs.len(), |c| execute(c, args, &inputs[c.rank()]))
}

/// [`live`] for the irregular variants, through [`execute_v`].
pub(crate) fn live_v(args: &CollArgs, counts: &[usize], inputs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    run_ranks(inputs.len(), |c| {
        execute_v(c, args, counts, &inputs[c.rank()])
    })
}

/// Evaluate hand-built plans — `plan(rank)` for every rank of `inputs` —
/// in the single-threaded world, for builders the registry does not
/// expose on their own.
pub(crate) fn world(inputs: &[Vec<u8>], plan: impl Fn(Rank) -> Schedule) -> Vec<Vec<u8>> {
    let plans: Vec<Schedule> = (0..inputs.len()).map(plan).collect();
    world::evaluate(&plans, inputs).unwrap_or_else(|e| panic!("world evaluation failed: {e}"))
}
