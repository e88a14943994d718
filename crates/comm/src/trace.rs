//! Trace recording backend: captures each rank's operation schedule for
//! replay on the discrete-event simulator.
//!
//! A [`RankTrace`] is the bridge between "algorithms as executable code"
//! and "algorithms as timed schedules". Production pricing never runs a
//! plan to get one: `CompiledSchedule::to_trace` in `exacoll-core` reads
//! the trace straight off the compiled step stream, in time linear in the
//! number of steps and independent of message sizes.
//!
//! A [`TraceComm`] implements [`Comm`] but performs no real communication:
//! sends record their destination and size, receives return zero-filled
//! dummy payloads, waits record completion dependencies, and `compute`
//! records reduction work. It has two remaining jobs:
//!
//! * the test oracle for that byte-free walk — the executor run over a
//!   `TraceComm` on zero input must record exactly the walk's trace;
//! * hand-written traces for simulator tests, via [`record_traces`] over
//!   closures that call [`Comm`] directly.

use crate::comm::{Comm, Req};
use crate::error::{CommError, CommResult};
use crate::types::{Rank, Tag};

/// One recorded operation in a rank's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Post a non-blocking send of `bytes` to `to`.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag (used for matching during replay).
        tag: Tag,
        /// Payload size.
        bytes: u64,
    },
    /// Post a non-blocking receive of `bytes` from `from`.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Expected payload size.
        bytes: u64,
    },
    /// Block until the listed prior operations (indices into this rank's
    /// `ops`) have completed.
    WaitAll {
        /// Indices of `Send`/`Recv` ops this wait covers.
        reqs: Vec<u32>,
    },
    /// Local reduction computation over `bytes` bytes (the γ term).
    Compute {
        /// Bytes combined.
        bytes: u64,
    },
    /// Round/phase boundary annotation emitted via [`Comm::mark`]. Zero-cost
    /// in replay; carried through so timelines can attribute ops to phases.
    Mark {
        /// Phase label (static: algorithm code marks with string literals).
        label: &'static str,
        /// 0-based round index within the phase.
        round: u32,
    },
}

/// The recorded program of a single rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTrace {
    /// The rank this program belongs to.
    pub rank: Rank,
    /// Communicator size the trace was recorded for.
    pub size: usize,
    /// Operation sequence.
    pub ops: Vec<TraceOp>,
}

impl RankTrace {
    /// Total bytes this rank sends.
    pub fn bytes_sent(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Send { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes this rank receives.
    pub fn bytes_received(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Recv { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Number of point-to-point messages this rank originates.
    pub fn messages_sent(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Send { .. }))
            .count()
    }

    /// Total reduction bytes this rank computes.
    pub fn bytes_computed(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Compute { bytes } => *bytes,
                _ => 0,
            })
            .sum()
    }
}

/// [`Comm`] backend that records a [`RankTrace`] instead of communicating.
pub struct TraceComm {
    rank: Rank,
    size: usize,
    ops: Vec<TraceOp>,
    /// Posted-but-unwaited request op indices, for hygiene checking.
    outstanding: std::collections::BTreeSet<usize>,
}

impl TraceComm {
    /// Create a recorder for `rank` of a size-`size` communicator.
    pub fn new(rank: Rank, size: usize) -> Self {
        assert!(rank < size, "rank {rank} out of range for size {size}");
        TraceComm {
            rank,
            size,
            ops: Vec::new(),
            outstanding: std::collections::BTreeSet::new(),
        }
    }

    /// Finish recording and return the trace.
    ///
    /// Panics if any request was posted but never waited on — collectives
    /// must complete all their requests, and a leaked request is a bug.
    pub fn finish(self) -> RankTrace {
        let leaked: Vec<usize> = self.outstanding.iter().copied().collect();
        assert!(
            leaked.is_empty(),
            "rank {} leaked {} unwaited request(s): ops {:?}",
            self.rank,
            leaked.len(),
            leaked
        );
        RankTrace {
            rank: self.rank,
            size: self.size,
            ops: self.ops,
        }
    }

    fn check_rank(&self, r: Rank) -> CommResult<()> {
        if r >= self.size {
            return Err(CommError::InvalidRank {
                rank: r,
                size: self.size,
            });
        }
        Ok(())
    }
}

impl Comm for TraceComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        self.check_rank(to)?;
        self.ops.push(TraceOp::Send {
            to,
            tag,
            bytes: data.len() as u64,
        });
        self.outstanding.insert(self.ops.len() - 1);
        Ok(Req(self.ops.len() - 1))
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        self.check_rank(from)?;
        self.ops.push(TraceOp::Recv {
            from,
            tag,
            bytes: bytes as u64,
        });
        self.outstanding.insert(self.ops.len() - 1);
        Ok(Req(self.ops.len() - 1))
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        self.waitall(vec![req]).map(|mut v| v.pop().unwrap())
    }

    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        let mut results = Vec::with_capacity(reqs.len());
        let mut indices = Vec::with_capacity(reqs.len());
        for req in &reqs {
            let idx = req.0;
            match self.ops.get(idx) {
                Some(TraceOp::Recv { bytes, .. }) => results.push(Some(vec![0u8; *bytes as usize])),
                Some(TraceOp::Send { .. }) => results.push(None),
                _ => return Err(CommError::UnknownRequest { handle: idx }),
            }
            if !self.outstanding.remove(&idx) {
                return Err(CommError::UnknownRequest { handle: idx });
            }
            indices.push(u32::try_from(idx).expect("trace op index exceeds u32"));
        }
        self.ops.push(TraceOp::WaitAll { reqs: indices });
        Ok(results)
    }

    fn compute(&mut self, bytes: usize) {
        self.ops.push(TraceOp::Compute {
            bytes: bytes as u64,
        });
    }

    fn mark(&mut self, label: &'static str, round: u32) {
        self.ops.push(TraceOp::Mark { label, round });
    }
}

/// Record traces for all `p` ranks of a collective, running the per-rank
/// program sequentially (no threads needed: the recorder never blocks).
pub fn record_traces<F>(p: usize, f: F) -> Vec<RankTrace>
where
    F: Fn(&mut TraceComm) -> CommResult<()>,
{
    (0..p)
        .map(|rank| {
            let mut c = TraceComm::new(rank, p);
            f(&mut c).unwrap_or_else(|e| panic!("trace recording failed on rank {rank}: {e}"));
            c.finish()
        })
        .collect()
}

/// Global conservation check: across all ranks, every `Send` must have a
/// matching `Recv` with the same (src, dst, tag, bytes) multiplicity.
///
/// Collective tests call this on recorded traces; replay would otherwise
/// deadlock, but this gives a much more precise diagnostic.
pub fn check_conservation(traces: &[RankTrace]) -> Result<(), String> {
    use std::collections::HashMap;
    // (src, dst, tag, bytes) -> net count (sends minus recvs)
    let mut net: HashMap<(Rank, Rank, Tag, u64), i64> = HashMap::new();
    for t in traces {
        for op in &t.ops {
            match op {
                TraceOp::Send { to, tag, bytes } => {
                    *net.entry((t.rank, *to, *tag, *bytes)).or_default() += 1;
                }
                TraceOp::Recv { from, tag, bytes } => {
                    *net.entry((*from, t.rank, *tag, *bytes)).or_default() -= 1;
                }
                _ => {}
            }
        }
    }
    let unmatched: Vec<String> = net
        .iter()
        .filter(|(_, &c)| c != 0)
        .map(|((s, d, tag, b), c)| format!("{s}->{d} tag {tag} {b}B net {c}"))
        .collect();
    if unmatched.is_empty() {
        Ok(())
    } else {
        Err(format!("unmatched messages: {}", unmatched.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_ops_in_order() {
        let mut c = TraceComm::new(0, 4);
        let s = c.isend(1, 7, vec![0u8; 16]).unwrap();
        let r = c.irecv(2, 7, 32).unwrap();
        let out = c.waitall(vec![s, r]).unwrap();
        assert_eq!(out[0], None);
        assert_eq!(out[1].as_ref().unwrap().len(), 32);
        c.compute(32);
        let t = c.finish();
        assert_eq!(t.ops.len(), 4);
        assert_eq!(
            t.ops[0],
            TraceOp::Send {
                to: 1,
                tag: 7,
                bytes: 16
            }
        );
        assert_eq!(t.ops[3], TraceOp::Compute { bytes: 32 });
        assert_eq!(t.bytes_sent(), 16);
        assert_eq!(t.bytes_received(), 32);
        assert_eq!(t.messages_sent(), 1);
        assert_eq!(t.bytes_computed(), 32);
    }

    #[test]
    #[should_panic(expected = "leaked")]
    fn leaked_request_panics_on_finish() {
        let mut c = TraceComm::new(0, 2);
        let _ = c.isend(1, 0, vec![0u8; 8]).unwrap();
        let _ = c.finish();
    }

    #[test]
    fn double_wait_rejected() {
        let mut c = TraceComm::new(0, 2);
        let r = c.isend(1, 0, vec![]).unwrap();
        let idx = r.0;
        c.wait(r).unwrap();
        assert!(matches!(
            c.wait(Req(idx)),
            Err(CommError::UnknownRequest { .. })
        ));
        c.finish();
    }

    #[test]
    fn conservation_detects_mismatch() {
        let traces = record_traces(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0u8; 8])?;
            } else {
                let _ = c.recv(0, 0, 8)?;
            }
            Ok(())
        });
        assert!(check_conservation(&traces).is_ok());

        // Now a broken "collective": rank 0 sends, nobody receives.
        let traces = record_traces(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0u8; 8])?;
            }
            Ok(())
        });
        assert!(check_conservation(&traces).is_err());
    }

    #[test]
    fn recv_returns_dummy_of_posted_len() {
        let mut c = TraceComm::new(1, 2);
        let data = c.recv(0, 0, 24).unwrap();
        assert_eq!(data, vec![0u8; 24]);
        c.finish();
    }
}
