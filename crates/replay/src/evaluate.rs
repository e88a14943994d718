//! The expected side of a replay: the fault-free run, re-derived.
//!
//! [`evaluate`] re-lowers the artifact's collective, re-applies its
//! optimizer passes, and runs every rank's compiled plan in the
//! single-threaded world evaluator
//! ([`exacoll_core::schedule::world`]) with each rank's loopback wrapped in
//! the same [`RecordComm`] a live recording uses. The expected event logs
//! are produced by the executor and recorder that produced the observed
//! ones, so a fault-free live run matches them by construction, and the
//! evaluation is a pure function of the artifact: no threads, no network.

use crate::artifact::Artifact;
use crate::ReplayError;
use exacoll_comm::{RecordComm, RecordedEvent};
use exacoll_core::schedule::world::run_world;
use exacoll_opt::cached_world;

/// The fault-free run: per-rank expected events and output bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluated {
    /// Expected event log per rank, in posting order.
    pub events: Vec<Vec<RecordedEvent>>,
    /// Output bytes per rank.
    pub outputs: Vec<Vec<u8>>,
}

/// Re-derive the fault-free run of `artifact` from its recorded inputs,
/// through the plan that actually ran (the stock lowering rewritten by the
/// recorded passes).
///
/// # Errors
///
/// [`ReplayError::Unsupported`] if the registry rejects the combination,
/// [`ReplayError::Header`] if the recorded passes reject their parameters,
/// and [`ReplayError::World`] if the world evaluator fails — a rank input
/// shorter than its plan's input view (a malformed artifact), or a
/// deadlock, size mismatch or reduction error (a lowering bug).
pub fn evaluate(artifact: &Artifact) -> Result<Evaluated, ReplayError> {
    let (args, p) = (&artifact.args, artifact.p);
    args.alg
        .supports(args.op, p)
        .map_err(ReplayError::Unsupported)?;
    let plans = cached_world(
        args,
        &artifact.opt,
        artifact.opt_chunk,
        artifact.opt_fuse,
        p,
        artifact.n,
    )
    .map_err(|e| ReplayError::Header(format!("optimizer passes failed: {e}")))?;
    let inputs: Vec<Vec<u8>> = artifact.ranks.iter().map(|l| l.input.clone()).collect();
    let ranks = run_world(&plans, &inputs, RecordComm::new).map_err(ReplayError::World)?;
    let (outputs, events) = ranks
        .into_iter()
        .map(|(out, recorder)| (out, recorder.finish()))
        .unzip();
    Ok(Evaluated { events, outputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::record_thread_run;
    use exacoll_core::registry::{Algorithm, CollArgs, CollectiveOp};
    use exacoll_core::schedule::world::WorldError;

    #[test]
    fn evaluation_is_deterministic() {
        let args = CollArgs::new(CollectiveOp::Allreduce, Algorithm::KRing { k: 3 });
        let a = record_thread_run(&args, 6, 24, 5);
        assert_eq!(evaluate(&a).unwrap(), evaluate(&a).unwrap());
    }

    #[test]
    fn unsupported_combinations_are_rejected() {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let mut a = record_thread_run(&args, 4, 8, 1);
        a.args.op = CollectiveOp::Alltoall;
        assert!(matches!(evaluate(&a), Err(ReplayError::Unsupported(_))));
    }

    #[test]
    fn short_rank_input_is_a_typed_error() {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let mut a = record_thread_run(&args, 4, 8, 1);
        a.ranks[2].input.truncate(3);
        assert_eq!(
            evaluate(&a).unwrap_err(),
            ReplayError::World(WorldError::ShortInput {
                rank: 2,
                need: 8,
                got: 3
            })
        );
    }
}
