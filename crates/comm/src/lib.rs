//! # exacoll-comm — MPI-like communication layer
//!
//! This crate provides the point-to-point substrate that the generalized
//! collective algorithms in `exacoll-core` are written against. It mirrors
//! the subset of MPI semantics the paper's MPICH integration relies on:
//! non-blocking sends/receives with `(source, tag)` matching, `waitall`
//! completion, typed buffers, and reduction operators.
//!
//! The central abstraction is the [`Comm`] trait. Collective algorithms are
//! written **once** as generic functions over `Comm` and then executed on two
//! backends:
//!
//! * [`ThreadComm`] — every rank is an OS thread and messages are real byte
//!   buffers moved over channels. This backend is used by the test suite to
//!   prove the algorithms implement MPI semantics correctly (data contents,
//!   reduction arithmetic, arbitrary roots, non-power-of-`k` process counts).
//! * [`TraceComm`] — a single-threaded recorder that captures each rank's
//!   operation schedule (sends, receives, waits, reduction compute) as a
//!   [`RankTrace`]. The `exacoll-sim` crate replays these traces on a
//!   discrete-event model of an exascale machine to produce virtual time.
//!   Production pricing reads traces off compiled plans instead; the
//!   recorder is their test oracle and the tool for hand-written traces.
//!
//! Because the collective algorithms' control flow depends only on
//! `(rank, size, radix, message size)` — never on received data — a trace
//! recorded with dummy payloads is exactly the schedule the threaded backend
//! executes.

pub mod buffer;
pub mod comm;
pub mod error;
pub mod fault;
pub mod record;
pub mod reduce_ops;
pub mod sg;
pub mod thread_rt;
pub mod trace;
pub mod types;

pub use buffer::TypedBuf;
pub use comm::{Comm, Req};
pub use error::{CommError, CommResult};
pub use fault::{FaultComm, FaultEvent, FaultPlan, KillSpec};
pub use record::{fnv1a, RecordComm, RecordedEvent};
pub use reduce_ops::{check_reduction, reduce_into};
pub use sg::SgView;
pub use thread_rt::{
    run_ranks, try_run_ranks, try_run_ranks_with, AbortHandle, ThreadComm, ThreadWorld,
    WorldOptions,
};
pub use trace::{record_traces, RankTrace, TraceComm, TraceOp};
pub use types::{DType, Rank, ReduceOp, Tag};
