//! Convenience recorder: run a collective on the threaded backend under
//! [`RecordComm`] and package the result as a self-contained [`Artifact`].
//!
//! This is the clean-record path (`exacoll record`, CI's replay smoke, the
//! property tests). Fault-injected recordings are assembled by
//! `exacoll-chaos`, which layers the recorder over its fault injector.

use crate::artifact::{Artifact, RankLog, RankStatus};
use exacoll_comm::{fnv1a, run_ranks, Comm, RecordComm, ThreadComm};
use exacoll_core::registry::CollArgs;
use exacoll_core::spec::{OptSpec, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES};
use exacoll_core::Executor;
use exacoll_opt::cached_world;

/// Deterministic pseudo-random input for `rank`: a SplitMix64 stream keyed
/// on `(seed, rank)`. Stable across platforms, so an artifact recorded from
/// `(seed, rank, n)` is reproducible anywhere.
pub fn payload(seed: u64, rank: usize, n: usize) -> Vec<u8> {
    let mut state = seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(n);
    out
}

/// Record one fault-free run of `args` on the threaded backend: `p` ranks,
/// `n` input bytes each (generated by [`payload`] from `seed`).
///
/// # Panics
///
/// Panics if the registry rejects `(op, alg, p)` or the run itself errors —
/// this is the *clean* path; faulty runs are recorded by the chaos crate.
pub fn record_thread_run(args: &CollArgs, p: usize, n: usize, seed: u64) -> Artifact {
    record_thread_run_opt(&RecordOptions::plain(), args, p, n, seed)
}

/// Optimizer settings for [`record_thread_run_opt`].
#[derive(Debug, Clone, Copy)]
pub struct RecordOptions {
    /// Passes to apply to the lowered plan before running.
    pub opt: OptSpec,
    /// Pipelining chunk threshold.
    pub chunk: usize,
    /// Aggregation fuse ceiling.
    pub fuse: usize,
}

impl RecordOptions {
    /// No passes: record through the stock execute path.
    pub fn plain() -> RecordOptions {
        RecordOptions {
            opt: OptSpec::NONE,
            chunk: OPT_PIPELINE_CHUNK_BYTES,
            fuse: OPT_AGGREGATE_MAX_FUSE_BYTES,
        }
    }
}

/// [`record_thread_run`] with optimizer passes applied to the plan first.
/// The artifact carries the pass settings, so replay rewrites the plan
/// identically before comparing event streams.
pub fn record_thread_run_opt(
    ropts: &RecordOptions,
    args: &CollArgs,
    p: usize,
    n: usize,
    seed: u64,
) -> Artifact {
    args.alg
        .supports(args.op, p)
        .unwrap_or_else(|e| panic!("unsupported configuration: {e}"));
    // Plain and optimized recordings both execute cached compiled plans, so
    // repeated recordings of one shape (the property-test grids) lower
    // once.
    let plans = cached_world(args, &ropts.opt, ropts.chunk, ropts.fuse, p, n)
        .unwrap_or_else(|e| panic!("optimizer passes failed: {e}"));
    let logs = run_ranks(p, |c: &mut ThreadComm| {
        let rank = c.rank();
        let input = payload(seed, rank, n);
        let mut rc = RecordComm::new(&mut *c);
        let out = Executor::new().run(&mut rc, &plans[rank], &input)?;
        Ok((rank, input, fnv1a(&out), rc.finish()))
    });
    let ranks = logs
        .into_iter()
        .map(|(rank, input, output_digest, events)| RankLog {
            rank,
            status: RankStatus::Ok,
            input,
            output_digest: Some(output_digest),
            events,
        })
        .collect();
    Artifact {
        case: None,
        backend: "thread".into(),
        fault_seed: None,
        args: *args,
        opt: ropts.opt,
        opt_chunk: ropts.chunk,
        opt_fuse: ropts.fuse,
        p,
        n,
        ranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::registry::{Algorithm, CollectiveOp};

    #[test]
    fn payload_is_deterministic_and_rank_distinct() {
        assert_eq!(payload(1, 0, 32), payload(1, 0, 32));
        assert_ne!(payload(1, 0, 32), payload(1, 1, 32));
        assert_ne!(payload(1, 0, 32), payload(2, 0, 32));
        assert_eq!(payload(9, 3, 7).len(), 7);
    }

    #[test]
    fn records_a_complete_artifact() {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Bruck);
        let a = record_thread_run(&args, 5, 6, 11);
        assert_eq!(a.ranks.len(), 5);
        for (r, log) in a.ranks.iter().enumerate() {
            assert_eq!(log.rank, r);
            assert_eq!(log.status, RankStatus::Ok);
            assert_eq!(log.input, payload(11, r, 6));
            assert!(log.output_digest.is_some());
            assert!(!log.events.is_empty());
        }
    }
}
