//! Error types for the communication layer.

use crate::types::{DType, Rank, ReduceOp, Tag};
use std::fmt;

/// Result alias for communication operations.
pub type CommResult<T> = Result<T, CommError>;

/// Errors raised by the communication backends.
///
/// The threaded runtime surfaces these instead of panicking so the test
/// suite can exercise failure injection (truncation, invalid peers,
/// mismatched reductions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive was posted with a buffer smaller than the arriving message,
    /// the MPI "truncation" error.
    Truncation {
        /// Receiving rank.
        rank: Rank,
        /// Sending rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Bytes the receive was posted for.
        posted: usize,
        /// Bytes that actually arrived.
        arrived: usize,
    },
    /// A rank outside `0..size` was named as a peer.
    InvalidRank {
        /// The offending rank value.
        rank: Rank,
        /// Communicator size.
        size: usize,
    },
    /// A wait referenced a request handle that does not exist or was already
    /// completed.
    UnknownRequest {
        /// The stale handle index.
        handle: usize,
    },
    /// The peer's mailbox disappeared (its thread panicked or exited early).
    PeerGone {
        /// The unreachable peer.
        peer: Rank,
    },
    /// A payload larger than the transport can carry in one message. The
    /// peer is alive; nothing was sent.
    MessageTooLarge {
        /// Payload size in bytes.
        bytes: usize,
        /// The transport's per-message limit in bytes.
        limit: usize,
    },
    /// A reduction was attempted with an operator undefined for the datatype.
    UnsupportedReduction {
        /// The operator.
        op: ReduceOp,
        /// The datatype.
        dtype: DType,
    },
    /// Buffer length is not a multiple of the element size.
    MisalignedBuffer {
        /// Buffer length in bytes.
        len: usize,
        /// Element datatype.
        dtype: DType,
    },
    /// A blocking receive exceeded the runtime's deadline. Carries a
    /// snapshot of the pending operation so a hang diagnoses itself.
    Timeout {
        /// The rank whose receive timed out.
        rank: Rank,
        /// Source rank of the pending receive.
        from: Rank,
        /// Tag of the pending receive.
        tag: Tag,
        /// Bytes the receive was posted for.
        bytes: usize,
    },
    /// The collective was cooperatively aborted (a fault-injection kill or
    /// an explicit [`crate::AbortHandle::abort`]).
    Aborted {
        /// The rank that triggered the abort.
        origin: Rank,
    },
    /// A schedule was executed on a communicator it was not lowered for:
    /// the plan's `(p, rank)` disagrees with the endpoint's `(size, rank)`.
    /// Surfaced as an error (not a panic) so a mis-routed plan cannot take
    /// down a worker process mid-launch.
    PlanMismatch {
        /// Process count the plan was lowered for.
        plan_p: usize,
        /// Rank the plan was lowered for.
        plan_rank: Rank,
        /// The communicator's actual size.
        comm_size: usize,
        /// The communicator's actual rank.
        comm_rank: Rank,
    },
    /// The caller's input buffer is shorter than the schedule's input region.
    ShortInput {
        /// Bytes the plan reads.
        need: usize,
        /// Bytes the caller supplied.
        got: usize,
    },
    /// A rank's closure panicked; the run harness converts the panic into
    /// this error so sibling failures can still be reported.
    RankPanicked {
        /// The rank that panicked.
        rank: Rank,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Truncation {
                rank,
                from,
                tag,
                posted,
                arrived,
            } => write!(
                f,
                "truncation on rank {rank}: recv from {from} tag {tag} posted {posted} B, {arrived} B arrived"
            ),
            CommError::InvalidRank { rank, size } => {
                write!(f, "invalid rank {rank} for communicator of size {size}")
            }
            CommError::UnknownRequest { handle } => {
                write!(f, "unknown or already-completed request handle {handle}")
            }
            CommError::PeerGone { peer } => write!(f, "peer rank {peer} is gone"),
            CommError::MessageTooLarge { bytes, limit } => write!(
                f,
                "message of {bytes} B exceeds the transport's {limit} B per-message limit"
            ),
            CommError::UnsupportedReduction { op, dtype } => {
                write!(f, "reduction {op} is undefined for datatype {dtype}")
            }
            CommError::MisalignedBuffer { len, dtype } => write!(
                f,
                "buffer of {len} B is not a whole number of {dtype} elements"
            ),
            CommError::Timeout {
                rank,
                from,
                tag,
                bytes,
            } => write!(
                f,
                "timeout on rank {rank}: recv from {from} tag {tag} ({bytes} B) never matched"
            ),
            CommError::Aborted { origin } => {
                write!(f, "aborted: rank {origin} signalled abort")
            }
            CommError::PlanMismatch {
                plan_p,
                plan_rank,
                comm_size,
                comm_rank,
            } => write!(
                f,
                "plan lowered for rank {plan_rank}/{plan_p} executed on endpoint {comm_rank}/{comm_size}"
            ),
            CommError::ShortInput { need, got } => {
                write!(f, "input buffer of {got} B is shorter than the plan's {need} B input region")
            }
            CommError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_cleanly() {
        let e = CommError::Truncation {
            rank: 1,
            from: 0,
            tag: 7,
            posted: 8,
            arrived: 16,
        };
        let s = e.to_string();
        assert!(s.contains("truncation"));
        assert!(s.contains("rank 1"));

        let e = CommError::UnsupportedReduction {
            op: ReduceOp::BXor,
            dtype: DType::F64,
        };
        assert!(e.to_string().contains("bxor"));
    }

    #[test]
    fn timeout_names_the_pending_op() {
        let e = CommError::Timeout {
            rank: 3,
            from: 1,
            tag: 42,
            bytes: 4096,
        };
        let s = e.to_string();
        assert!(s.contains("timeout"));
        assert!(s.contains("rank 3"));
        assert!(s.contains("from 1"));
        assert!(s.contains("tag 42"));
        assert!(s.contains("4096 B"));
    }

    #[test]
    fn aborted_names_the_origin() {
        let e = CommError::Aborted { origin: 5 };
        let s = e.to_string();
        assert!(s.contains("aborted"));
        assert!(s.contains("rank 5"));
    }

    #[test]
    fn plan_mismatch_names_both_sides() {
        let e = CommError::PlanMismatch {
            plan_p: 8,
            plan_rank: 3,
            comm_size: 4,
            comm_rank: 1,
        };
        let s = e.to_string();
        assert!(s.contains("3/8"));
        assert!(s.contains("1/4"));

        let e = CommError::ShortInput { need: 64, got: 16 };
        let s = e.to_string();
        assert!(s.contains("16 B"));
        assert!(s.contains("64 B"));
    }

    #[test]
    fn rank_panicked_carries_the_message() {
        let e = CommError::RankPanicked {
            rank: 2,
            message: "index out of bounds".into(),
        };
        let s = e.to_string();
        assert!(s.contains("rank 2 panicked"));
        assert!(s.contains("index out of bounds"));
    }
}
