//! Single-threaded evaluation of a whole plan set.
//!
//! [`run_world`] steps one [`Executor`] per rank cooperatively, in one
//! thread, over a private in-memory [`Loopback`] transport. Sends are
//! eager; a rank stops before any [`CStep::Flush`](super::compiled::CStep::Flush)
//! whose receives have not all arrived, and resumes on a later pass. The
//! executor is the one live backends use, so the world computes exactly
//! what a live run computes — the optimizer's
//! byte-identity gate, the `verify` sweeps and replay's expected side all
//! evaluate through it.
//!
//! The loopback keeps FIFO channels keyed `(from, to, tag)` — the
//! non-overtaking order both live backends guarantee — and a message must
//! be exactly as long as the receive it completes. A pass in which no rank
//! advances is a deadlock and returns [`WorldError::Deadlock`]; the world
//! never hangs.

use super::{compile, CompiledSchedule, Executor, Schedule};
use exacoll_comm::{Comm, CommError, CommResult, Rank, Req, Tag};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Why a plan set could not be evaluated. A verified plan set with
/// well-formed inputs never produces these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// Plan count, input count, or a plan's `(p, rank)` disagree.
    Shape(String),
    /// A rank's input is shorter than its plan's input view.
    ShortInput {
        /// The rank.
        rank: Rank,
        /// Bytes the plan reads.
        need: usize,
        /// Bytes supplied.
        got: usize,
    },
    /// No rank can advance and some rank is unfinished.
    Deadlock {
        /// The first blocked rank.
        rank: Rank,
        /// The compiled step it is parked at.
        step: usize,
    },
    /// A message is shorter or longer than the receive it would complete.
    SizeMismatch {
        /// Receiving rank.
        rank: Rank,
        /// Sending rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Posted receive length.
        want: usize,
        /// Message length.
        got: usize,
    },
    /// A rank's executor failed (e.g. an unsupported reduction).
    Rank {
        /// The failing rank.
        rank: Rank,
        /// What failed.
        error: CommError,
    },
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::Shape(s) => write!(f, "shape error: {s}"),
            WorldError::ShortInput { rank, need, got } => write!(
                f,
                "rank {rank}: input is {got} bytes but the plan consumes {need}"
            ),
            WorldError::Deadlock { rank, step } => {
                write!(f, "deadlock: rank {rank} blocked at step {step}")
            }
            WorldError::SizeMismatch {
                rank,
                from,
                tag,
                want,
                got,
            } => write!(
                f,
                "size mismatch at rank {rank}: recv(from {from}, tag {tag}) \
                 posted {want} bytes but message has {got}"
            ),
            WorldError::Rank { rank, error } => write!(f, "rank {rank}: {error}"),
        }
    }
}

impl std::error::Error for WorldError {}

/// A posted, not yet completed receive.
struct Posted {
    req: usize,
    from: Rank,
    tag: Tag,
    bytes: usize,
}

/// The shared in-memory network of one world.
struct Net {
    chans: HashMap<(Rank, Rank, Tag), VecDeque<Vec<u8>>>,
    /// Each rank's posted receives, in posting order.
    posted: Vec<Vec<Posted>>,
}

impl Net {
    /// Whether every receive `rank` has posted can complete now, matching
    /// in posting order against each channel's FIFO.
    fn ready(&self, rank: Rank) -> Result<bool, WorldError> {
        let posted = &self.posted[rank];
        for (i, p) in posted.iter().enumerate() {
            let ahead = posted[..i]
                .iter()
                .filter(|q| (q.from, q.tag) == (p.from, p.tag))
                .count();
            let Some(msg) = self
                .chans
                .get(&(p.from, rank, p.tag))
                .and_then(|q| q.get(ahead))
            else {
                return Ok(false);
            };
            if msg.len() != p.bytes {
                return Err(WorldError::SizeMismatch {
                    rank,
                    from: p.from,
                    tag: p.tag,
                    want: p.bytes,
                    got: msg.len(),
                });
            }
        }
        Ok(true)
    }
}

/// One rank's endpoint on a world's in-memory network. Only [`run_world`]
/// creates these; wrap one (e.g. in a `RecordComm`) through its `wrap`
/// argument.
pub struct Loopback {
    rank: Rank,
    size: usize,
    /// The last request index handed out.
    last_req: usize,
    net: Rc<RefCell<Net>>,
}

impl Comm for Loopback {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        let key = (self.rank, to, tag);
        self.net
            .borrow_mut()
            .chans
            .entry(key)
            .or_default()
            .push_back(data);
        self.last_req += 1;
        Ok(Req::from_index(self.last_req))
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        self.last_req += 1;
        let req = self.last_req;
        let post = Posted {
            req,
            from,
            tag,
            bytes,
        };
        self.net.borrow_mut().posted[self.rank].push(post);
        Ok(Req::from_index(req))
    }

    /// Sends complete at once. A receive completes with its channel's head
    /// message; the world only waits on receives `Net::ready` accepted,
    /// so an empty channel here means a caller outside the world's
    /// discipline and is reported as a timeout rather than a hang.
    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        let mut net = self.net.borrow_mut();
        let posted = &mut net.posted[self.rank];
        let Some(i) = posted.iter().position(|p| p.req == req.index()) else {
            return Ok(None);
        };
        let p = posted.remove(i);
        let msg = net.chans.get_mut(&(p.from, self.rank, p.tag));
        match msg.and_then(VecDeque::pop_front) {
            Some(payload) => Ok(Some(payload)),
            None => Err(CommError::Timeout {
                rank: self.rank,
                from: p.from,
                tag: p.tag,
                bytes: p.bytes,
            }),
        }
    }

    fn compute(&mut self, _bytes: usize) {}
}

/// Evaluate one compiled plan per rank over an in-memory network.
///
/// `plans[r]` (a plan or a shared handle to one) must be rank `r`'s plan
/// for a size-`plans.len()` world and `inputs[r]` its input bytes (extra
/// bytes are ignored). `wrap` builds each rank's transport from its
/// [`Loopback`] — the identity for plain evaluation, a recorder to capture
/// event logs. Returns every rank's output bytes with its transport.
///
/// # Errors
///
/// Any [`WorldError`]; see the variants.
pub fn run_world<P: Borrow<CompiledSchedule>, W: Comm>(
    plans: &[P],
    inputs: &[Vec<u8>],
    mut wrap: impl FnMut(Loopback) -> W,
) -> Result<Vec<(Vec<u8>, W)>, WorldError> {
    let p = plans.len();
    if inputs.len() != p {
        return Err(WorldError::Shape(format!(
            "{p} plans but {} inputs",
            inputs.len()
        )));
    }
    let net = Rc::new(RefCell::new(Net {
        chans: HashMap::new(),
        posted: (0..p).map(|_| Vec::new()).collect(),
    }));
    let mut ranks = Vec::with_capacity(p);
    for (rank, (plan, input)) in plans.iter().map(Borrow::borrow).zip(inputs).enumerate() {
        if (plan.p, plan.rank) != (p, rank) {
            return Err(WorldError::Shape(format!(
                "plan at index {rank} is for rank {}/{} (expected {rank}/{p})",
                plan.rank, plan.p
            )));
        }
        let comm = wrap(Loopback {
            rank,
            size: p,
            last_req: 0,
            net: Rc::clone(&net),
        });
        let mut exec = Executor::new();
        exec.start(&comm, plan, input).map_err(|e| match e {
            CommError::ShortInput { need, got } => WorldError::ShortInput { rank, need, got },
            error => WorldError::Rank { rank, error },
        })?;
        ranks.push((comm, exec, false));
    }
    loop {
        let mut progress = false;
        for (rank, (comm, exec, done)) in ranks.iter_mut().enumerate() {
            if *done {
                continue;
            }
            let before = exec.cursor();
            let mut mismatch = None;
            let finished = exec
                .resume(comm, plans[rank].borrow(), || {
                    match RefCell::borrow(&net).ready(rank) {
                        Ok(ready) => ready,
                        Err(e) => {
                            mismatch = Some(e);
                            false
                        }
                    }
                })
                .map_err(|error| WorldError::Rank { rank, error })?;
            if let Some(e) = mismatch {
                return Err(e);
            }
            progress |= finished || exec.cursor() != before;
            *done = finished;
        }
        if let Some((rank, (_, exec, _))) = ranks.iter().enumerate().find(|(_, r)| !r.2) {
            if !progress {
                return Err(WorldError::Deadlock {
                    rank,
                    step: exec.cursor(),
                });
            }
        } else {
            break;
        }
    }
    Ok(ranks
        .into_iter()
        .zip(plans)
        .map(|((comm, exec, _), plan)| (exec.output(plan.borrow()), comm))
        .collect())
}

/// Compile `plans` and evaluate them on `inputs` over plain loopbacks,
/// returning every rank's output bytes.
///
/// # Errors
///
/// Any [`WorldError`].
pub fn evaluate(plans: &[Schedule], inputs: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, WorldError> {
    let compiled: Vec<CompiledSchedule> = plans.iter().map(compile).collect();
    let outs = run_world(&compiled, inputs, |l| l)?;
    Ok(outs.into_iter().map(|(out, _)| out).collect())
}

/// Deterministic rank-distinguishing probe inputs for a plan set: rank
/// `r`'s byte `i` mixes both, so a misrouted block, swapped rank, or
/// off-by-one slice shows up in a byte comparison.
pub fn probe_inputs(plans: &[Schedule]) -> Vec<Vec<u8>> {
    plans
        .iter()
        .map(|s| {
            (0..s.input.len())
                .map(|i| (s.rank.wrapping_mul(131) ^ i.wrapping_mul(29)) as u8)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ScheduleBuilder, SgList};
    use exacoll_comm::{DType, ReduceOp};

    /// Rank 0 sends `sent` bytes to rank 1, which posts a `posted`-byte
    /// receive.
    fn pair(sent: usize, posted: usize) -> Vec<Schedule> {
        let mut b = ScheduleBuilder::new(2, 0);
        let x = b.alloc(sent);
        b.send(1, 3, x.clone());
        let s0 = b.finish(x, SgList::empty());
        let mut b = ScheduleBuilder::new(2, 1);
        let y = b.alloc(posted);
        b.recv(0, 3, y.clone());
        let s1 = b.finish(SgList::empty(), y);
        vec![s0, s1]
    }

    #[test]
    fn delivers_in_fifo_order_per_channel() {
        // Two same-tag messages land in posting order.
        let mut b = ScheduleBuilder::new(2, 0);
        let x = b.alloc(2);
        b.send(1, 1, x.slice(0, 1));
        b.send(1, 1, x.slice(1, 1));
        let s0 = b.finish(x, SgList::empty());
        let mut b = ScheduleBuilder::new(2, 1);
        let y = b.alloc(2);
        b.recv(0, 1, y.slice(0, 1));
        b.recv(0, 1, y.slice(1, 1));
        let s1 = b.finish(SgList::empty(), y);
        let out = evaluate(&[s0, s1], &[vec![7, 8], vec![]]).unwrap();
        assert_eq!(out[1], vec![7, 8]);
    }

    #[test]
    fn detects_deadlock_instead_of_hanging() {
        // Two ranks that each only receive: nothing can ever progress.
        let plans: Vec<_> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let slot = b.alloc(1);
                b.recv(1 - r, 3, slot.clone());
                b.finish(SgList::empty(), slot)
            })
            .collect();
        let err = evaluate(&plans, &[vec![], vec![]]).unwrap_err();
        // Step 0 is the receive; the rank is parked at the flush after it.
        assert_eq!(err, WorldError::Deadlock { rank: 0, step: 1 });
        assert!(
            err.to_string().contains("rank 0 blocked at step 1"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_message_longer_than_its_receive() {
        let err = evaluate(&pair(2, 1), &[vec![7, 8], vec![]]).unwrap_err();
        assert!(
            matches!(
                err,
                WorldError::SizeMismatch {
                    rank: 1,
                    from: 0,
                    want: 1,
                    got: 2,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_message_shorter_than_its_receive() {
        let err = evaluate(&pair(1, 2), &[vec![7], vec![]]).unwrap_err();
        assert!(
            matches!(
                err,
                WorldError::SizeMismatch {
                    rank: 1,
                    want: 2,
                    got: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_shape_and_short_input_mismatches() {
        let plans = pair(2, 2);
        assert!(matches!(
            evaluate(&plans, &[vec![7, 8]]),
            Err(WorldError::Shape(_))
        ));
        assert!(matches!(
            evaluate(&[plans[1].clone(), plans[0].clone()], &[vec![], vec![7, 8]]),
            Err(WorldError::Shape(_))
        ));
        assert_eq!(
            evaluate(&plans, &[vec![7], vec![]]).unwrap_err(),
            WorldError::ShortInput {
                rank: 0,
                need: 2,
                got: 1
            }
        );
    }

    #[test]
    fn reports_executor_failures_with_their_rank() {
        // Bitwise ops are undefined for floats.
        let mut b = ScheduleBuilder::new(1, 0);
        let x = b.alloc(8);
        let y = b.alloc(8);
        b.reduce(DType::F64, ReduceOp::BXor, y.clone(), x.clone());
        let plan = b.finish(SgList::concat([&x, &y]), x);
        let err = evaluate(&[plan], &[vec![0; 16]]).unwrap_err();
        assert!(
            matches!(
                err,
                WorldError::Rank {
                    rank: 0,
                    error: CommError::UnsupportedReduction { .. }
                }
            ),
            "{err}"
        );
    }
}
