//! The aggregation pass: fuse consecutive small same-peer messages.
//!
//! Two back-to-back `Send` steps to the same (peer, tag) inside one flush
//! group are one logical transfer paying two per-message overheads. When
//! the matching receives are equally back-to-back plain `Recv` steps on the
//! receiver, both sides can be rewritten into a single scatter-gather
//! message (`SgList::concat`) carrying the concatenated payload — the IR's
//! byte views make "one message, many buffers" free.
//!
//! Legality: the i-th send on a FIFO (src, dst, tag) channel matches the
//! i-th receive, so fusing sends i and i+1 is sound exactly when receives i
//! and i+1 fuse too — the pass rewrites both endpoints in one step and only
//! when the posted lengths agree pairwise. Fusion never crosses a flush
//! boundary (the fused steps are adjacent, and round marks / computes are
//! steps themselves), keeps the original tag, and concatenates disjoint
//! define-once byte sets, so every verifier guarantee survives; the
//! `PassManager` re-verifies anyway.
//!
//! Fusion is applied pairwise to a fixpoint, so a run of m fusable sends
//! collapses to one message while the cumulative payload stays at or below
//! `max_fuse_bytes` — past that bound a message is bandwidth-bound and
//! fusion would no longer buy back α.

use crate::OptError;
use exacoll_comm::{Rank, Tag};
use exacoll_core::schedule::{Schedule, SgList, Step};

/// The step position of the `idx`-th receive posted by `sched` on channel
/// (`from` → `sched.rank`, `tag`), and whether it is a plain `Recv`.
fn nth_recv_pos(sched: &Schedule, from: Rank, tag: Tag, idx: usize) -> Option<(usize, bool)> {
    let mut seen = 0;
    for (pos, step) in sched.steps.iter().enumerate() {
        let (matches, plain) = match step {
            Step::Recv {
                from: f, tag: t, ..
            } => (*f == from && *t == tag, true),
            Step::SendRecv {
                from: f,
                recv_tag: t,
                ..
            } => (*f == from && *t == tag, false),
            _ => (false, false),
        };
        if matches {
            if seen == idx {
                return Some((pos, plain));
            }
            seen += 1;
        }
    }
    None
}

/// How many sends `sched` posts on channel (`sched.rank` → `to`, `tag`)
/// before step `pos`.
fn sends_before(sched: &Schedule, to: Rank, tag: Tag, pos: usize) -> usize {
    sched.steps[..pos]
        .iter()
        .filter(|step| match step {
            Step::Send { to: t, tag: g, .. } => *t == to && *g == tag,
            Step::SendRecv {
                to: t, send_tag: g, ..
            } => *t == to && *g == tag,
            _ => false,
        })
        .count()
}

/// One fusable candidate: sender `rank` steps `pos`/`pos + 1` and the
/// receiver's matching adjacent receives at `recv_pos`/`recv_pos + 1`.
struct Fusion {
    rank: usize,
    pos: usize,
    peer: usize,
    recv_pos: usize,
}

fn find_fusion(schedules: &[Schedule], max_fuse_bytes: usize) -> Option<Fusion> {
    for (rank, s) in schedules.iter().enumerate() {
        for pos in 0..s.steps.len().saturating_sub(1) {
            let (
                Step::Send { to, tag, src },
                Step::Send {
                    to: to2,
                    tag: tag2,
                    src: src2,
                },
            ) = (&s.steps[pos], &s.steps[pos + 1])
            else {
                continue;
            };
            if to != to2 || tag != tag2 || *to == rank {
                continue;
            }
            if src.len() + src2.len() > max_fuse_bytes {
                continue;
            }
            // FIFO index of the first send on its channel, then the
            // receiver's matching pair: both plain receives, adjacent, with
            // pairwise-equal lengths.
            let idx = sends_before(s, *to, *tag, pos);
            let peer = &schedules[*to];
            let Some((q, true)) = nth_recv_pos(peer, rank, *tag, idx) else {
                continue;
            };
            let Some((q2, true)) = nth_recv_pos(peer, rank, *tag, idx + 1) else {
                continue;
            };
            if q2 != q + 1 {
                continue;
            }
            let (Step::Recv { dst, .. }, Step::Recv { dst: dst2, .. }) =
                (&peer.steps[q], &peer.steps[q2])
            else {
                continue;
            };
            if dst.len() != src.len() || dst2.len() != src2.len() {
                continue;
            }
            return Some(Fusion {
                rank,
                pos,
                peer: *to,
                recv_pos: q,
            });
        }
    }
    None
}

/// Replace steps `pos` and `pos + 1` of `steps` with `fused`.
fn splice(steps: &mut Vec<Step>, pos: usize, fused: Step) {
    steps.splice(pos..pos + 2, [fused]);
}

/// Apply the aggregation pass: repeatedly fuse adjacent same-(peer, tag)
/// send pairs (and the matching adjacent receive pairs) while the combined
/// payload stays at or below `max_fuse_bytes`, until no pair remains.
///
/// # Errors
///
/// [`OptError::BadParam`] when `max_fuse_bytes` is zero.
pub fn aggregate(schedules: &[Schedule], max_fuse_bytes: usize) -> Result<Vec<Schedule>, OptError> {
    if max_fuse_bytes == 0 {
        return Err(OptError::BadParam("max_fuse_bytes must be positive".into()));
    }
    let mut out = schedules.to_vec();
    while let Some(f) = find_fusion(&out, max_fuse_bytes) {
        let (to, tag, src) = {
            let s = &out[f.rank];
            let (Step::Send { to, tag, src }, Step::Send { src: src2, .. }) =
                (&s.steps[f.pos], &s.steps[f.pos + 1])
            else {
                unreachable!("find_fusion returned a non-send pair");
            };
            (*to, *tag, SgList::concat([src, src2]))
        };
        splice(&mut out[f.rank].steps, f.pos, Step::Send { to, tag, src });
        let (from, rtag, dst) = {
            let peer = &out[f.peer];
            let (Step::Recv { from, tag, dst }, Step::Recv { dst: dst2, .. }) =
                (&peer.steps[f.recv_pos], &peer.steps[f.recv_pos + 1])
            else {
                unreachable!("find_fusion returned a non-recv pair");
            };
            (*from, *tag, SgList::concat([dst, dst2]))
        };
        splice(
            &mut out[f.peer].steps,
            f.recv_pos,
            Step::Recv {
                from,
                tag: rtag,
                dst,
            },
        );
    }
    Ok(out)
}

/// A deliberately unfused exchange: every rank sends each of `blocks`
/// small blocks to its ring successor as a separate message, then receives
/// its predecessor's blocks one by one — the canonical per-field neighbor
/// halo exchange an application would emit naively. The registry's own
/// lowerings pre-fuse via `SgList::concat`, so this is the demonstration
/// workload (tests, the `opt_passes` bench) where aggregation visibly wins.
pub fn naive_block_exchange(p: usize, blocks: usize, bytes: usize) -> Vec<Schedule> {
    use exacoll_core::schedule::ScheduleBuilder;
    (0..p)
        .map(|r| {
            let mut b = ScheduleBuilder::new(p, r);
            let own = b.alloc(blocks * bytes);
            let inbox = b.alloc(blocks * bytes);
            b.mark("halo", 0);
            for i in 0..blocks {
                b.send((r + 1) % p, 9, own.slice(i * bytes, bytes));
            }
            for i in 0..blocks {
                b.recv((r + p - 1) % p, 9, inbox.slice(i * bytes, bytes));
            }
            b.finish(own, inbox)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::schedule::verify::verify;
    use exacoll_core::schedule::world::{evaluate, probe_inputs};

    #[test]
    fn fuses_a_run_of_small_sends_into_one_message() {
        let plans = naive_block_exchange(4, 6, 16);
        verify(&plans).expect("the naive exchange is itself a valid plan");
        let fused = aggregate(&plans, 4096).unwrap();
        verify(&fused).expect("fused plan must re-verify");
        for s in &fused {
            let sends = s
                .steps
                .iter()
                .filter(|st| matches!(st, Step::Send { .. }))
                .count();
            assert_eq!(sends, 1, "6 block sends should fuse to 1");
        }
        let inputs = probe_inputs(&plans);
        assert_eq!(
            evaluate(&fused, &inputs).unwrap(),
            evaluate(&plans, &inputs).unwrap()
        );
    }

    #[test]
    fn respects_the_fuse_byte_ceiling() {
        let plans = naive_block_exchange(3, 4, 100);
        // Ceiling admits two blocks per message, not four.
        let fused = aggregate(&plans, 200).unwrap();
        verify(&fused).expect("partially fused plan must re-verify");
        let sends = fused[0]
            .steps
            .iter()
            .filter(|st| matches!(st, Step::Send { .. }))
            .count();
        assert_eq!(sends, 2);
        let inputs = probe_inputs(&plans);
        assert_eq!(
            evaluate(&fused, &inputs).unwrap(),
            evaluate(&plans, &inputs).unwrap()
        );
    }

    #[test]
    fn stock_lowerings_are_already_fused() {
        use exacoll_core::registry::{candidates, lower, CollArgs, CollectiveOp};
        // Every registry lowering pre-fuses via SgList::concat, so the pass
        // must be an exact no-op on them.
        for op in CollectiveOp::ALL {
            for alg in candidates(op, 6, 3) {
                let args = CollArgs::new(op, alg);
                let plans: Vec<_> = (0..6).map(|r| lower(&args, 6, r, 12)).collect();
                assert_eq!(aggregate(&plans, 1 << 30).unwrap(), plans, "{op}/{alg}");
            }
        }
    }

    #[test]
    fn zero_ceiling_is_rejected() {
        let plans = naive_block_exchange(2, 2, 8);
        assert!(matches!(aggregate(&plans, 0), Err(OptError::BadParam(_))));
    }
}
