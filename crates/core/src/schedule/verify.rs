//! Static schedule verification.
//!
//! [`verify`] takes the lowered plans of **all** `p` ranks and proves, without
//! executing anything:
//!
//! * **Well-formedness** — every scatter/gather list stays inside the rank's
//!   scratch buffer and peers are in range.
//! * **Data flow** — every byte is defined (by the input view, a receive, or
//!   a copy) before it is sent, reduced, or returned; receives and copies
//!   never overwrite live data; every output byte is written exactly once.
//! * **Matching** — replaying the executor's flush discipline symbolically,
//!   every receive is matched by a same-size send on its (source,
//!   destination, tag) channel in FIFO order, no sends are left over, and
//!   the whole exchange makes progress (deadlock-freedom under the
//!   buffered-send semantics both backends provide).
//! * **Tag hygiene** — no channel carries messages from two different
//!   algorithm phases, which is how cross-phase mis-matching bugs start.
//!
//! Verification also yields [`ScheduleStats`], the α/β/γ term counts of the
//! plan, so the analytical models can be checked against the IR they claim
//! to describe (`exacoll-models::predict_from_schedule`).
//!
//! # The flush-group model
//!
//! The executor posts steps non-blocking and waits at well-defined points
//! (round marks, computes, forwarding hazards, end of plan — see
//! [`super::compiled`]). Between two waits, a rank's posted sends and receives
//! form a *flush group*. The verifier reconstructs the same groups with the
//! same rules and then plays a token game: a rank's group posts as soon as
//! the previous group completed; sends buffer immediately; a group completes
//! when all its receives are matched. If the game stalls, the schedule would
//! deadlock on a real backend.

use super::{ComputeKind, Schedule, SgList, Step};
use exacoll_comm::{Rank, Tag};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// α/β/γ term counts of a verified schedule set.
///
/// * `alpha_rounds` — the longest dependency chain of message hops: a
///   receive's completion depends on data its sender had one flush group
///   earlier. This is the number of α terms on the critical path.
/// * `beta_bytes` — `max` over ranks of `max(bytes sent, bytes received)`:
///   sends and receives overlap on a full-duplex link, so the busier
///   direction bounds the β cost.
/// * `gamma_bytes` — `max` over ranks of bytes fed through reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Message hops on the critical path (α terms).
    pub alpha_rounds: usize,
    /// Per-rank maximum of directional traffic (β bytes).
    pub beta_bytes: usize,
    /// Per-rank maximum of reduced bytes (γ bytes).
    pub gamma_bytes: usize,
}

/// Why a schedule set failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A plan is internally inconsistent (wrong p/rank, out-of-bounds
    /// ranges, peer out of range).
    Malformed {
        /// Offending rank.
        rank: Rank,
        /// What is wrong.
        detail: String,
    },
    /// A step uses undefined bytes or overwrites live ones.
    DataFlow {
        /// Offending rank.
        rank: Rank,
        /// Index into that rank's step list.
        step: usize,
        /// What is wrong.
        detail: String,
    },
    /// A matched send/receive pair disagrees on message size.
    SizeMismatch {
        /// Sender rank.
        from: Rank,
        /// Receiver rank.
        to: Rank,
        /// Channel tag.
        tag: Tag,
        /// Bytes the send carries.
        send_len: usize,
        /// Bytes the receive expects.
        recv_len: usize,
    },
    /// The symbolic execution stalled: some rank waits forever.
    Deadlock {
        /// One line per blocked rank.
        detail: String,
    },
    /// Sends nobody ever receives.
    UnmatchedSend {
        /// Sender rank.
        from: Rank,
        /// Receiver rank.
        to: Rank,
        /// Channel tag.
        tag: Tag,
        /// How many sends were left in the channel.
        leftover: usize,
    },
    /// One (source, destination, tag) channel carries sends from two
    /// different phases.
    TagCollision {
        /// Sender rank.
        from: Rank,
        /// Receiver rank.
        to: Rank,
        /// Channel tag.
        tag: Tag,
        /// The distinct phase labels seen on the channel.
        labels: Vec<String>,
    },
    /// Two tenants sharing a runtime claim intersecting tag windows, so
    /// their messages could mis-match on a shared channel.
    TenantOverlap {
        /// First tenant id.
        a: usize,
        /// First tenant's half-open tag window.
        a_window: (Tag, Tag),
        /// Second tenant id.
        b: usize,
        /// Second tenant's half-open tag window.
        b_window: (Tag, Tag),
    },
    /// A tenant's plan uses a tag outside the window it was assigned, so
    /// disjoint windows would not actually isolate it.
    TagOutOfWindow {
        /// Offending tenant id.
        tenant: usize,
        /// Offending rank within that tenant's plan set.
        rank: Rank,
        /// The escaping tag.
        tag: Tag,
        /// The tenant's half-open tag window.
        window: (Tag, Tag),
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Malformed { rank, detail } => {
                write!(f, "rank {rank}: malformed schedule: {detail}")
            }
            VerifyError::DataFlow { rank, step, detail } => {
                write!(f, "rank {rank} step {step}: {detail}")
            }
            VerifyError::SizeMismatch {
                from,
                to,
                tag,
                send_len,
                recv_len,
            } => write!(
                f,
                "channel {from}->{to} tag {tag:#06x}: send carries {send_len} \
                 bytes but the matching recv expects {recv_len}"
            ),
            VerifyError::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            VerifyError::UnmatchedSend {
                from,
                to,
                tag,
                leftover,
            } => write!(
                f,
                "channel {from}->{to} tag {tag:#06x}: {leftover} send(s) never received"
            ),
            VerifyError::TagCollision {
                from,
                to,
                tag,
                labels,
            } => write!(
                f,
                "channel {from}->{to} tag {tag:#06x} carries sends from phases {labels:?}: \
                 cross-phase messages could mis-match"
            ),
            VerifyError::TenantOverlap {
                a,
                a_window,
                b,
                b_window,
            } => write!(
                f,
                "tenant {a} window [{:#06x}, {:#06x}) intersects tenant {b} window \
                 [{:#06x}, {:#06x}): concurrent collectives could mis-match",
                a_window.0, a_window.1, b_window.0, b_window.1
            ),
            VerifyError::TagOutOfWindow {
                tenant,
                rank,
                tag,
                window,
            } => write!(
                f,
                "tenant {tenant} rank {rank} uses tag {tag:#06x} outside its window \
                 [{:#06x}, {:#06x})",
                window.0, window.1
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// One posted send awaiting a matching receive.
struct SendMsg {
    len: usize,
    /// Chain depth of the data the message carries (sender's depth when the
    /// send posted).
    avail: usize,
}

struct SendEv {
    to: Rank,
    tag: Tag,
    len: usize,
    label: &'static str,
}

struct RecvEv {
    from: Rank,
    tag: Tag,
    len: usize,
}

/// One flush group: everything a rank posts between two executor waits.
#[derive(Default)]
struct Group {
    sends: Vec<SendEv>,
    recvs: Vec<RecvEv>,
}

impl Group {
    fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.recvs.is_empty()
    }
}

fn check_bounds(rank: Rank, what: &str, sg: &SgList, buf_len: usize) -> Result<(), VerifyError> {
    for r in sg.ranges() {
        if r.end > buf_len {
            return Err(VerifyError::Malformed {
                rank,
                detail: format!("{what} range {r:?} exceeds scratch buffer of {buf_len} bytes"),
            });
        }
    }
    Ok(())
}

fn check_peer(rank: Rank, peer: Rank, p: usize) -> Result<(), VerifyError> {
    if peer >= p {
        return Err(VerifyError::Malformed {
            rank,
            detail: format!("peer {peer} out of range for size {p}"),
        });
    }
    Ok(())
}

/// Byte-granular definedness tracking for one rank.
struct DefSet(Vec<bool>);

impl DefSet {
    fn all_defined(&self, sg: &SgList) -> bool {
        sg.ranges()
            .iter()
            .all(|r| self.0[r.clone()].iter().all(|&d| d))
    }

    /// Define every byte of `sg`; returns false if any byte was already
    /// defined (overwrite) or appears twice in the list.
    fn define(&mut self, sg: &SgList) -> bool {
        for r in sg.ranges() {
            for b in r.clone() {
                if self.0[b] {
                    return false;
                }
                self.0[b] = true;
            }
        }
        true
    }
}

/// Statically verify the plans of all `p` ranks together; on success return
/// the plan's α/β/γ term counts.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found; see the enum for the properties
/// checked.
pub fn verify(schedules: &[Schedule]) -> Result<ScheduleStats, VerifyError> {
    let p = schedules.len();
    assert!(p > 0, "verify needs at least one rank's schedule");

    // ---- Stage 1+2: per-rank shape and data-flow checks; group building.
    let mut groups: Vec<Vec<Group>> = Vec::with_capacity(p);
    let mut sent_bytes = vec![0usize; p];
    let mut recv_bytes = vec![0usize; p];
    let mut gamma = vec![0usize; p];

    for (rank, s) in schedules.iter().enumerate() {
        if s.p != p || s.rank != rank {
            return Err(VerifyError::Malformed {
                rank,
                detail: format!(
                    "plan says rank {}/{} but occupies slot {rank} of {p}",
                    s.rank, s.p
                ),
            });
        }
        check_bounds(rank, "input", &s.input, s.buf_len)?;
        check_bounds(rank, "output", &s.output, s.buf_len)?;

        let mut defined = DefSet(vec![false; s.buf_len]);
        if !defined.define(&s.input) {
            return Err(VerifyError::Malformed {
                rank,
                detail: "input view maps two input bytes to the same scratch byte".into(),
            });
        }

        let mut rank_groups: Vec<Group> = Vec::new();
        let mut cur = Group::default();
        let mut pending_dsts: Vec<SgList> = Vec::new();
        let mut cur_label: &'static str = "";

        let close = |cur: &mut Group, pending_dsts: &mut Vec<SgList>, out: &mut Vec<Group>| {
            if !cur.is_empty() {
                out.push(std::mem::take(cur));
            }
            pending_dsts.clear();
        };

        for (i, step) in s.steps.iter().enumerate() {
            let dataflow = |detail: String| VerifyError::DataFlow {
                rank,
                step: i,
                detail,
            };
            // Mirror the executor: a receive's bytes only become *defined*
            // (usable by later steps) after the flush that delivers them,
            // but for define-once purposes we claim them at post time.
            match step {
                Step::RoundMark { label, .. } => {
                    close(&mut cur, &mut pending_dsts, &mut rank_groups);
                    cur_label = label;
                }
                Step::Compute { kind, src, dst } => {
                    close(&mut cur, &mut pending_dsts, &mut rank_groups);
                    check_bounds(rank, "compute src", src, s.buf_len)?;
                    check_bounds(rank, "compute dst", dst, s.buf_len)?;
                    if src.len() != dst.len() {
                        return Err(dataflow(format!(
                            "compute operands differ: src {} bytes, dst {}",
                            src.len(),
                            dst.len()
                        )));
                    }
                    if !defined.all_defined(src) {
                        return Err(dataflow("compute reads undefined bytes".into()));
                    }
                    match kind {
                        ComputeKind::Copy => {
                            if !defined.define(dst) {
                                return Err(dataflow("copy overwrites live bytes".into()));
                            }
                        }
                        ComputeKind::Reduce { .. } => {
                            if !defined.all_defined(dst) {
                                return Err(dataflow(
                                    "reduce accumulates into undefined bytes".into(),
                                ));
                            }
                            gamma[rank] += dst.len();
                        }
                    }
                }
                Step::Send { to, tag, src } => {
                    check_peer(rank, *to, p)?;
                    check_bounds(rank, "send src", src, s.buf_len)?;
                    if pending_dsts.iter().any(|d| src.overlaps(d)) {
                        close(&mut cur, &mut pending_dsts, &mut rank_groups);
                    }
                    if !defined.all_defined(src) {
                        return Err(dataflow("send reads undefined bytes".into()));
                    }
                    sent_bytes[rank] += src.len();
                    cur.sends.push(SendEv {
                        to: *to,
                        tag: *tag,
                        len: src.len(),
                        label: cur_label,
                    });
                }
                Step::Recv { from, tag, dst } => {
                    check_peer(rank, *from, p)?;
                    check_bounds(rank, "recv dst", dst, s.buf_len)?;
                    if !defined.define(dst) {
                        return Err(dataflow("recv overwrites live bytes".into()));
                    }
                    recv_bytes[rank] += dst.len();
                    pending_dsts.push(dst.clone());
                    cur.recvs.push(RecvEv {
                        from: *from,
                        tag: *tag,
                        len: dst.len(),
                    });
                }
                Step::SendRecv {
                    to,
                    send_tag,
                    src,
                    from,
                    recv_tag,
                    dst,
                } => {
                    check_peer(rank, *to, p)?;
                    check_peer(rank, *from, p)?;
                    check_bounds(rank, "sendrecv src", src, s.buf_len)?;
                    check_bounds(rank, "sendrecv dst", dst, s.buf_len)?;
                    if pending_dsts.iter().any(|d| src.overlaps(d)) {
                        close(&mut cur, &mut pending_dsts, &mut rank_groups);
                    }
                    if !defined.all_defined(src) {
                        return Err(dataflow("sendrecv reads undefined bytes".into()));
                    }
                    if !defined.define(dst) {
                        return Err(dataflow("sendrecv overwrites live bytes".into()));
                    }
                    sent_bytes[rank] += src.len();
                    recv_bytes[rank] += dst.len();
                    cur.sends.push(SendEv {
                        to: *to,
                        tag: *send_tag,
                        len: src.len(),
                        label: cur_label,
                    });
                    pending_dsts.push(dst.clone());
                    cur.recvs.push(RecvEv {
                        from: *from,
                        tag: *recv_tag,
                        len: dst.len(),
                    });
                }
            }
        }
        close(&mut cur, &mut pending_dsts, &mut rank_groups);

        if !defined.all_defined(&s.output) {
            return Err(VerifyError::DataFlow {
                rank,
                step: s.steps.len(),
                detail: "output contains bytes no step ever wrote".into(),
            });
        }
        groups.push(rank_groups);
    }

    // ---- Stage 3: symbolic execution of the flush-group token game.
    type ChannelKey = (Rank, Rank, Tag);
    let mut channels: BTreeMap<ChannelKey, VecDeque<SendMsg>> = BTreeMap::new();
    let mut labels: BTreeMap<ChannelKey, BTreeSet<&'static str>> = BTreeMap::new();
    let mut next = vec![0usize; p];
    let mut posted = vec![false; p];
    let mut depth = vec![0usize; p];

    let mut progress = true;
    while progress {
        progress = false;
        for r in 0..p {
            while next[r] < groups[r].len() {
                let g = &groups[r][next[r]];
                if !posted[r] {
                    for send in &g.sends {
                        let key = (r, send.to, send.tag);
                        channels.entry(key).or_default().push_back(SendMsg {
                            len: send.len,
                            avail: depth[r],
                        });
                        labels.entry(key).or_default().insert(send.label);
                    }
                    posted[r] = true;
                    progress = true;
                }
                // The group completes when every receive has a matching
                // send available, consumed in FIFO channel order.
                let mut need: BTreeMap<ChannelKey, Vec<usize>> = BTreeMap::new();
                for recv in &g.recvs {
                    need.entry((recv.from, r, recv.tag))
                        .or_default()
                        .push(recv.len);
                }
                let satisfiable = need
                    .iter()
                    .all(|(key, lens)| channels.get(key).is_some_and(|q| q.len() >= lens.len()));
                if !satisfiable {
                    break;
                }
                let mut max_avail = None;
                for (key, lens) in &need {
                    let q = channels.get_mut(key).expect("checked above");
                    for &recv_len in lens {
                        let msg = q.pop_front().expect("checked above");
                        if msg.len != recv_len {
                            return Err(VerifyError::SizeMismatch {
                                from: key.0,
                                to: key.1,
                                tag: key.2,
                                send_len: msg.len,
                                recv_len,
                            });
                        }
                        max_avail = Some(max_avail.unwrap_or(0).max(msg.avail));
                    }
                }
                if let Some(a) = max_avail {
                    depth[r] = depth[r].max(a + 1);
                }
                next[r] += 1;
                posted[r] = false;
                progress = true;
            }
        }
    }

    if let Some(r) = (0..p).find(|&r| next[r] < groups[r].len()) {
        let mut lines = Vec::new();
        for r in (0..p).filter(|&r| next[r] < groups[r].len()) {
            let g = &groups[r][next[r]];
            let stuck = g
                .recvs
                .iter()
                .find(|recv| {
                    channels
                        .get(&(recv.from, r, recv.tag))
                        .is_none_or(|q| q.is_empty())
                })
                .map(|recv| format!("recv from {} tag {:#06x}", recv.from, recv.tag))
                .unwrap_or_else(|| "a receive".into());
            lines.push(format!(
                "rank {r} blocked in flush group {} on {stuck}",
                next[r]
            ));
        }
        let _ = r;
        return Err(VerifyError::Deadlock {
            detail: lines.join("; "),
        });
    }

    for (key, q) in &channels {
        if !q.is_empty() {
            return Err(VerifyError::UnmatchedSend {
                from: key.0,
                to: key.1,
                tag: key.2,
                leftover: q.len(),
            });
        }
    }

    for (key, set) in &labels {
        if set.len() >= 2 {
            return Err(VerifyError::TagCollision {
                from: key.0,
                to: key.1,
                tag: key.2,
                labels: set.iter().map(|s| s.to_string()).collect(),
            });
        }
    }

    Ok(ScheduleStats {
        alpha_rounds: depth.iter().copied().max().unwrap_or(0),
        beta_bytes: (0..p)
            .map(|r| sent_bytes[r].max(recv_bytes[r]))
            .max()
            .unwrap_or(0),
        gamma_bytes: gamma.iter().copied().max().unwrap_or(0),
    })
}

/// One tenant's claim for multi-tenant verification: its id, the half-open
/// tag window `[window.0, window.1)` it was assigned, and the per-rank plans
/// it will run inside that window.
pub struct TenantPlans<'a> {
    /// The tenant's id (for error reporting; ids need not be contiguous).
    pub tenant: usize,
    /// Half-open tag window the tenant may use.
    pub window: (Tag, Tag),
    /// The tenant's per-rank schedules, one per rank of the shared runtime.
    pub schedules: &'a [Schedule],
}

/// Every tag a schedule puts on the wire (send and receive sides).
fn wire_tags(s: &Schedule) -> impl Iterator<Item = Tag> + '_ {
    s.steps.iter().flat_map(|step| match step {
        Step::Send { tag, .. } | Step::Recv { tag, .. } => vec![*tag],
        Step::SendRecv {
            send_tag, recv_tag, ..
        } => vec![*send_tag, *recv_tag],
        Step::Compute { .. } | Step::RoundMark { .. } => Vec::new(),
    })
}

/// Verify tenants sharing one runtime: prove the tag windows pairwise
/// disjoint, prove every plan stays inside its tenant's window, then run the
/// full [`verify`] pass on each tenant's plan set in isolation.
///
/// Disjoint windows plus in-window plans are exactly what makes per-tenant
/// verification sound on a shared communicator: no channel `(from, to, tag)`
/// of one tenant can ever name a message of another, so the token game of
/// each tenant composes with any interleaving of the others.
///
/// Returns one [`ScheduleStats`] per tenant, in input order.
///
/// # Errors
///
/// [`VerifyError::TenantOverlap`] / [`VerifyError::TagOutOfWindow`] for the
/// tenancy properties, or any single-tenant [`VerifyError`] from the nested
/// [`verify`] pass.
pub fn verify_tenants(tenants: &[TenantPlans<'_>]) -> Result<Vec<ScheduleStats>, VerifyError> {
    for t in tenants {
        assert!(
            t.window.0 < t.window.1,
            "tenant {} has an empty tag window",
            t.tenant
        );
    }
    for (i, a) in tenants.iter().enumerate() {
        for b in &tenants[i + 1..] {
            if a.window.0 < b.window.1 && b.window.0 < a.window.1 {
                return Err(VerifyError::TenantOverlap {
                    a: a.tenant,
                    a_window: a.window,
                    b: b.tenant,
                    b_window: b.window,
                });
            }
        }
    }
    for t in tenants {
        for (rank, s) in t.schedules.iter().enumerate() {
            if let Some(tag) = wire_tags(s).find(|&tag| tag < t.window.0 || tag >= t.window.1) {
                return Err(VerifyError::TagOutOfWindow {
                    tenant: t.tenant,
                    rank,
                    tag,
                    window: t.window,
                });
            }
        }
    }
    tenants.iter().map(|t| verify(t.schedules)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleBuilder;

    /// The two-rank swap: one round, one hop.
    fn swap(rank: usize, n: usize) -> Schedule {
        let mut b = ScheduleBuilder::new(2, rank);
        let mine = b.alloc(n);
        let theirs = b.alloc(n);
        b.mark("swap", 0);
        b.sendrecv(rank ^ 1, 7, mine.clone(), rank ^ 1, 7, theirs.clone());
        b.finish(mine, theirs)
    }

    #[test]
    fn swap_verifies_with_one_alpha_round() {
        let stats = verify(&[swap(0, 4), swap(1, 4)]).unwrap();
        assert_eq!(
            stats,
            ScheduleStats {
                alpha_rounds: 1,
                beta_bytes: 4,
                gamma_bytes: 0
            }
        );
    }

    #[test]
    fn ring_pipeline_depth_is_p_minus_one() {
        // 4-rank ring allgather built from the real lowering.
        let p = 4;
        let sizes = vec![8usize; p];
        let schedules: Vec<Schedule> = (0..p)
            .map(|r| {
                let mut b = ScheduleBuilder::new(p, r);
                let own = b.alloc(8);
                let blocks = crate::allgather::build_allgather_kernel(
                    &mut b,
                    crate::allgather::AllgatherKernel::Ring,
                    own.clone(),
                    &sizes,
                );
                let out = SgList::concat(&blocks);
                b.finish(own, out)
            })
            .collect();
        let stats = verify(&schedules).unwrap();
        assert_eq!(stats.alpha_rounds, p - 1);
        assert_eq!(stats.beta_bytes, (p - 1) * 8);
    }

    #[test]
    fn detects_cyclic_deadlock() {
        // Both ranks wait for each other before sending: recv is flushed
        // (by the round mark) before the send ever posts.
        let plans: Vec<Schedule> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let own = b.alloc(2);
                let other = b.alloc(2);
                b.recv(r ^ 1, 9, other.clone());
                b.mark("stall", 0);
                b.send(r ^ 1, 9, own.clone());
                b.finish(own, other)
            })
            .collect();
        assert!(matches!(verify(&plans), Err(VerifyError::Deadlock { .. })));
    }

    #[test]
    fn buffered_sends_make_the_same_shape_safe() {
        // Send first, recv second, same flush group: fine with buffering.
        let plans: Vec<Schedule> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let own = b.alloc(2);
                let other = b.alloc(2);
                b.send(r ^ 1, 9, own.clone());
                b.recv(r ^ 1, 9, other.clone());
                b.finish(own, other)
            })
            .collect();
        assert!(verify(&plans).is_ok());
    }

    #[test]
    fn detects_unmatched_send() {
        let mut b = ScheduleBuilder::new(2, 0);
        let own = b.alloc(2);
        b.send(1, 3, own.clone());
        let s0 = b.finish(own, SgList::empty());
        let b1 = ScheduleBuilder::new(2, 1);
        let s1 = b1.finish(SgList::empty(), SgList::empty());
        assert!(matches!(
            verify(&[s0, s1]),
            Err(VerifyError::UnmatchedSend {
                from: 0,
                to: 1,
                tag: 3,
                leftover: 1
            })
        ));
    }

    #[test]
    fn detects_size_mismatch() {
        let mut b0 = ScheduleBuilder::new(2, 0);
        let own = b0.alloc(4);
        b0.send(1, 3, own.clone());
        let s0 = b0.finish(own, SgList::empty());
        let mut b1 = ScheduleBuilder::new(2, 1);
        let slot = b1.alloc(2);
        b1.recv(0, 3, slot.clone());
        let s1 = b1.finish(SgList::empty(), slot);
        assert!(matches!(
            verify(&[s0, s1]),
            Err(VerifyError::SizeMismatch {
                send_len: 4,
                recv_len: 2,
                ..
            })
        ));
    }

    #[test]
    fn detects_undefined_send_and_unwritten_output() {
        // Sending scratch bytes nothing defined.
        let mut b = ScheduleBuilder::new(1, 0);
        let hole = b.alloc(2);
        b.send(0, 1, hole.clone());
        let s = b.finish(SgList::empty(), SgList::empty());
        assert!(matches!(verify(&[s]), Err(VerifyError::DataFlow { .. })));

        // Output referencing bytes nothing wrote.
        let mut b = ScheduleBuilder::new(1, 0);
        let hole = b.alloc(2);
        let s = b.finish(SgList::empty(), hole);
        assert!(matches!(verify(&[s]), Err(VerifyError::DataFlow { .. })));
    }

    #[test]
    fn detects_receive_overwrite() {
        let mut b0 = ScheduleBuilder::new(2, 0);
        let own = b0.alloc(2);
        b0.send(1, 3, own.clone());
        b0.send(1, 3, own.clone());
        let s0 = b0.finish(own, SgList::empty());
        let mut b1 = ScheduleBuilder::new(2, 1);
        let slot = b1.alloc(2);
        b1.recv(0, 3, slot.clone());
        b1.mark("again", 0);
        b1.recv(0, 3, slot.clone());
        let s1 = b1.finish(SgList::empty(), slot);
        assert!(matches!(
            verify(&[s0, s1]),
            Err(VerifyError::DataFlow { .. })
        ));
    }

    #[test]
    fn detects_tag_collision_across_phases() {
        // Phase "a" and phase "b" both send on tag 5 over the same channel.
        let mut b0 = ScheduleBuilder::new(2, 0);
        let x = b0.alloc(1);
        let y = b0.alloc(1);
        b0.mark("a", 0);
        b0.send(1, 5, x.clone());
        b0.mark("b", 0);
        b0.send(1, 5, y.clone());
        let s0 = b0.finish(SgList::concat([&x, &y]), SgList::empty());
        let mut b1 = ScheduleBuilder::new(2, 1);
        let u = b1.alloc(1);
        let v = b1.alloc(1);
        b1.recv(0, 5, u.clone());
        b1.mark("gap", 0);
        b1.recv(0, 5, v.clone());
        let s1 = b1.finish(SgList::empty(), SgList::concat([&u, &v]));
        assert!(matches!(
            verify(&[s0, s1]),
            Err(VerifyError::TagCollision { tag: 5, .. })
        ));
    }

    /// The two-rank swap on an arbitrary tag.
    fn swap_on_tag(rank: usize, tag: Tag) -> Schedule {
        let mut b = ScheduleBuilder::new(2, rank);
        let mine = b.alloc(4);
        let theirs = b.alloc(4);
        b.mark("swap", 0);
        b.sendrecv(rank ^ 1, tag, mine.clone(), rank ^ 1, tag, theirs.clone());
        b.finish(mine, theirs)
    }

    #[test]
    fn disjoint_tenants_verify_per_tenant() {
        let t0 = [swap_on_tag(0, 0x0010), swap_on_tag(1, 0x0010)];
        let t1 = [swap_on_tag(0, 0x1010), swap_on_tag(1, 0x1010)];
        let stats = verify_tenants(&[
            TenantPlans {
                tenant: 0,
                window: (0x0000, 0x1000),
                schedules: &t0,
            },
            TenantPlans {
                tenant: 1,
                window: (0x1000, 0x2000),
                schedules: &t1,
            },
        ])
        .unwrap();
        assert_eq!(stats.len(), 2);
        assert!(stats
            .iter()
            .all(|s| s.alpha_rounds == 1 && s.beta_bytes == 4));
    }

    #[test]
    fn detects_tenant_window_overlap() {
        let t0 = [swap_on_tag(0, 0x0010), swap_on_tag(1, 0x0010)];
        let t1 = [swap_on_tag(0, 0x0810), swap_on_tag(1, 0x0810)];
        let err = verify_tenants(&[
            TenantPlans {
                tenant: 0,
                window: (0x0000, 0x1000),
                schedules: &t0,
            },
            TenantPlans {
                tenant: 1,
                window: (0x0800, 0x1800),
                schedules: &t1,
            },
        ])
        .unwrap_err();
        assert!(matches!(err, VerifyError::TenantOverlap { a: 0, b: 1, .. }));
    }

    #[test]
    fn detects_tag_escaping_its_window() {
        // Tenant 1's plan uses a tag inside tenant 0's window.
        let t0 = [swap_on_tag(0, 0x0010), swap_on_tag(1, 0x0010)];
        let t1 = [swap_on_tag(0, 0x0020), swap_on_tag(1, 0x0020)];
        let err = verify_tenants(&[
            TenantPlans {
                tenant: 0,
                window: (0x0000, 0x1000),
                schedules: &t0,
            },
            TenantPlans {
                tenant: 1,
                window: (0x1000, 0x2000),
                schedules: &t1,
            },
        ])
        .unwrap_err();
        assert_eq!(
            err,
            VerifyError::TagOutOfWindow {
                tenant: 1,
                rank: 0,
                tag: 0x0020,
                window: (0x1000, 0x2000),
            }
        );
    }

    #[test]
    fn tenant_verification_still_runs_the_full_pass() {
        // A deadlocking plan inside a perfectly disjoint window still fails.
        let plans: Vec<Schedule> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let own = b.alloc(2);
                let other = b.alloc(2);
                b.recv(r ^ 1, 0x1009, other.clone());
                b.mark("stall", 0);
                b.send(r ^ 1, 0x1009, own.clone());
                b.finish(own, other)
            })
            .collect();
        let err = verify_tenants(&[TenantPlans {
            tenant: 1,
            window: (0x1000, 0x2000),
            schedules: &plans,
        }])
        .unwrap_err();
        assert!(matches!(err, VerifyError::Deadlock { .. }));
    }

    #[test]
    fn reduce_counts_gamma() {
        let mut b = ScheduleBuilder::new(1, 0);
        let acc = b.alloc(4);
        let src = b.alloc(4);
        b.reduce(
            exacoll_comm::DType::U8,
            exacoll_comm::ReduceOp::Sum,
            src.clone(),
            acc.clone(),
        );
        let s = b.finish(SgList::concat([&acc, &src]), acc);
        let stats = verify(&[s]).unwrap();
        assert_eq!(stats.gamma_bytes, 4);
        assert_eq!(stats.alpha_rounds, 0);
    }
}
