//! Compiled, arena-backed execution plans and the executor — the one place
//! that gives schedule steps their meaning.
//!
//! [`compile`] lowers a [`Schedule`] — a straight-line `Vec<Step>` of
//! heap-allocated [`SgList`](super::SgList)s — into an immutable
//! [`CompiledSchedule`]: every scatter/gather list is flattened into one
//! contiguous range arena, every instruction into one flat [`CStep`] array,
//! and — because the plan is straight-line — every flush decision is
//! resolved statically. Requests complete at a flush, and a flush is due:
//!
//! 1. at a `RoundMark`, *before* the mark is emitted — one `waitall` per
//!    round;
//! 2. before a `Compute`, so reductions see delivered data;
//! 3. before a send whose source overlaps a pending receive's destination
//!    (read-after-write hazard: forwarding data still in flight);
//! 4. at the end of the plan.
//!
//! Which requests are outstanding at each step is a pure function of the
//! step sequence, so compilation emits an explicit [`CStep::Flush`] exactly
//! where a due flush has requests to complete, and nowhere else.
//!
//! [`Executor::run`] therefore does no overlap scans, no per-flush unzip
//! into parallel `Vec`s (the receive-destination arena is persistent and
//! reused), and no payload gathering on sends — payloads go out as borrowed
//! [`SgView`]s via [`Comm::send_sg`]. Live backends and the single-threaded
//! [`world`](super::world) evaluator run plans through it.
//! Pricing does not run plans: static flushes make the executor's op
//! stream a pure function of the steps, and [`CompiledSchedule::to_trace`]
//! reads it off them in O(steps), whatever the message sizes.

use super::{ComputeKind, Schedule, Step};
use exacoll_comm::{
    check_reduction, reduce_into, Comm, CommError, CommResult, DType, Rank, RankTrace, ReduceOp,
    Req, SgView, Tag, TraceOp,
};
use std::ops::Range;

/// A slice of the compiled plan's range arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First range index in the arena.
    start: u32,
    /// Number of ranges.
    count: u32,
    /// Total bytes the ranges denote, at full width: a receive region may
    /// exceed 4 GiB.
    bytes: usize,
}

impl Span {
    /// Total bytes the span denotes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// One compiled instruction. `SendRecv` is decomposed into `Send` + `Recv`
/// (posted in that order), and flushes are explicit instructions rather
/// than runtime decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CStep {
    /// Complete every outstanding request with one `waitall`, scattering
    /// received payloads. Emitted only where a due flush has a non-empty
    /// pending set.
    Flush,
    /// Timeline annotation (the flush due first is a separate preceding
    /// [`CStep::Flush`] when requests are outstanding).
    Mark {
        /// Phase label.
        label: &'static str,
        /// Round index within the phase.
        round: u32,
    },
    /// Post a zero-copy scatter-gather send of the bytes `src` denotes.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload ranges in the scratch buffer.
        src: Span,
    },
    /// Post a receive of `dst.bytes()` bytes, scattered into `dst` at the
    /// next flush.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Destination ranges.
        dst: Span,
    },
    /// `dst = src` local movement.
    Copy {
        /// Source ranges.
        src: Span,
        /// Destination ranges.
        dst: Span,
    },
    /// `dst = dst ⊕ src` elementwise, charged `dst.bytes()` γ bytes.
    Reduce {
        /// Element type.
        dtype: DType,
        /// Combining operator.
        op: ReduceOp,
        /// Right-hand operand.
        src: Span,
        /// Destination and left-hand operand.
        dst: Span,
    },
}

/// An immutable, arena-backed execution plan: the cacheable product of
/// `lower` (+ optional optimizer passes) + [`compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSchedule {
    /// Communicator size the plan was lowered for.
    pub p: usize,
    /// The rank this plan belongs to.
    pub rank: Rank,
    /// Scratch buffer size in bytes.
    pub buf_len: usize,
    input: Span,
    output: Span,
    ranges: Box<[Range<usize>]>,
    steps: Box<[CStep]>,
}

impl CompiledSchedule {
    /// Bytes of caller input the plan consumes.
    pub fn input_bytes(&self) -> usize {
        self.input.bytes()
    }

    /// Bytes of output the plan produces.
    pub fn output_bytes(&self) -> usize {
        self.output.bytes()
    }

    /// The compiled instruction sequence.
    pub fn steps(&self) -> &[CStep] {
        &self.steps
    }

    /// The ranges a span denotes, in payload order.
    pub fn ranges_of(&self, span: Span) -> &[Range<usize>] {
        &self.ranges[span.start as usize..(span.start + span.count) as usize]
    }

    /// The rank's [`RankTrace`] for discrete-event simulation: the op stream
    /// [`Executor::run`] issues, read off the steps without running them.
    /// `Send`/`Recv` record their span's bytes and join the pending
    /// requests, `Flush` is a `WaitAll` over them, `Reduce` is a `Compute`
    /// of `dst.bytes()`, `Mark` passes through and `Copy` records nothing.
    ///
    /// # Panics
    ///
    /// Panics, naming the rank, where the executor would refuse: a peer
    /// `>= p`, a reduction its dtype or operand lengths do not allow, or a
    /// request still pending at the end.
    pub fn to_trace(&self) -> RankTrace {
        let rank = self.rank;
        let refuse = |e: CommError| -> ! { panic!("compiled replay failed on rank {rank}: {e}") };
        let mut ops = Vec::with_capacity(self.steps.len());
        let mut pending: Vec<u32> = Vec::new();
        for step in self.steps() {
            let op = match *step {
                CStep::Flush => TraceOp::WaitAll {
                    reqs: std::mem::take(&mut pending),
                },
                CStep::Mark { label, round } => TraceOp::Mark { label, round },
                CStep::Send { to, tag, src } => TraceOp::Send {
                    to,
                    tag,
                    bytes: src.bytes() as u64,
                },
                CStep::Recv { from, tag, dst } => TraceOp::Recv {
                    from,
                    tag,
                    bytes: dst.bytes() as u64,
                },
                CStep::Copy { .. } => continue,
                CStep::Reduce {
                    dtype,
                    op,
                    src,
                    dst,
                } => {
                    check_reduction(dtype, op, dst.bytes(), src.bytes())
                        .unwrap_or_else(|e| refuse(e));
                    TraceOp::Compute {
                        bytes: dst.bytes() as u64,
                    }
                }
            };
            if let TraceOp::Send { to: peer, .. } | TraceOp::Recv { from: peer, .. } = op {
                if peer >= self.p {
                    refuse(CommError::InvalidRank {
                        rank: peer,
                        size: self.p,
                    });
                }
                pending.push(u32::try_from(ops.len()).unwrap_or_else(|_| {
                    panic!("rank {rank}: trace op index {} exceeds u32", ops.len())
                }));
            }
            ops.push(op);
        }
        assert!(
            pending.is_empty(),
            "rank {rank} leaked unwaited requests: ops {pending:?}"
        );
        RankTrace {
            rank,
            size: self.p,
            ops,
        }
    }
}

/// Flatten `schedule` into a [`CompiledSchedule`], resolving every flush
/// decision statically (see the module docs for the rules).
pub fn compile(schedule: &Schedule) -> CompiledSchedule {
    let mut ranges: Vec<Range<usize>> = Vec::new();
    let mut steps: Vec<CStep> = Vec::new();
    let intern = |ranges: &mut Vec<Range<usize>>, rs: &[Range<usize>]| -> Span {
        let start = ranges.len() as u32;
        ranges.extend_from_slice(rs);
        Span {
            start,
            count: rs.len() as u32,
            bytes: rs.iter().map(|r| r.len()).sum(),
        }
    };
    // The pending set at each step: how many requests are outstanding, and
    // the destination lists of the outstanding receives.
    let mut outstanding = 0usize;
    let mut pending_dsts: Vec<&super::SgList> = Vec::new();
    macro_rules! flush {
        () => {
            if outstanding > 0 {
                steps.push(CStep::Flush);
                outstanding = 0;
                pending_dsts.clear();
            }
        };
    }
    for step in &schedule.steps {
        match step {
            Step::RoundMark { label, round } => {
                flush!();
                steps.push(CStep::Mark {
                    label,
                    round: *round,
                });
            }
            Step::Compute { kind, src, dst } => {
                flush!();
                let (src, dst) = (
                    intern(&mut ranges, src.ranges()),
                    intern(&mut ranges, dst.ranges()),
                );
                steps.push(match kind {
                    ComputeKind::Copy => CStep::Copy { src, dst },
                    ComputeKind::Reduce { dtype, op } => CStep::Reduce {
                        dtype: *dtype,
                        op: *op,
                        src,
                        dst,
                    },
                });
            }
            Step::Send { to, tag, src } => {
                if pending_dsts.iter().any(|d| src.overlaps(d)) {
                    flush!();
                }
                let src = intern(&mut ranges, src.ranges());
                steps.push(CStep::Send {
                    to: *to,
                    tag: *tag,
                    src,
                });
                outstanding += 1;
            }
            Step::Recv { from, tag, dst } => {
                let span = intern(&mut ranges, dst.ranges());
                steps.push(CStep::Recv {
                    from: *from,
                    tag: *tag,
                    dst: span,
                });
                outstanding += 1;
                pending_dsts.push(dst);
            }
            Step::SendRecv {
                to,
                send_tag,
                src,
                from,
                recv_tag,
                dst,
            } => {
                if pending_dsts.iter().any(|d| src.overlaps(d)) {
                    flush!();
                }
                let sspan = intern(&mut ranges, src.ranges());
                steps.push(CStep::Send {
                    to: *to,
                    tag: *send_tag,
                    src: sspan,
                });
                outstanding += 1;
                let rspan = intern(&mut ranges, dst.ranges());
                steps.push(CStep::Recv {
                    from: *from,
                    tag: *recv_tag,
                    dst: rspan,
                });
                outstanding += 1;
                pending_dsts.push(dst);
            }
        }
    }
    if outstanding > 0 {
        steps.push(CStep::Flush);
    }
    let input = intern(&mut ranges, schedule.input.ranges());
    let output = intern(&mut ranges, schedule.output.ranges());
    CompiledSchedule {
        p: schedule.p,
        rank: schedule.rank,
        buf_len: schedule.buf_len,
        input,
        output,
        ranges: ranges.into_boxed_slice(),
        steps: steps.into_boxed_slice(),
    }
}

/// Scatter `data` into `ranges` of `buf` in order; a short payload fills a
/// prefix.
fn scatter(buf: &mut [u8], ranges: &[Range<usize>], data: &[u8]) {
    let mut pos = 0;
    for r in ranges {
        if pos >= data.len() {
            break;
        }
        let take = r.len().min(data.len() - pos);
        buf[r.start..r.start + take].copy_from_slice(&data[pos..pos + take]);
        pos += take;
    }
}

/// Reusable execution state for compiled plans.
///
/// One `Executor` may run any number of plans; its pending-request arena and
/// compute scratch grow to a high-water mark and are reused, so a steady
/// state run allocates only what [`Comm::waitall`]'s by-value signature
/// forces (the request vector itself).
///
/// Execution is a cursor over the plan's steps: [`Executor::run`] is
/// "start, then resume until done", and the [`world`](super::world)
/// evaluator resumes many executors cooperatively, parking each one before
/// a flush its loopback cannot satisfy yet.
#[derive(Default)]
pub struct Executor {
    buf: Vec<u8>,
    reqs: Vec<Req>,
    dsts: Vec<Option<Span>>,
    scratch_src: Vec<u8>,
    scratch_dst: Vec<u8>,
    /// Index of the next step to execute.
    pc: usize,
}

impl Executor {
    /// A fresh executor with empty arenas.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Run `plan` on backend `c` with this rank's `input` bytes, returning
    /// the rank's output bytes.
    ///
    /// # Errors
    ///
    /// [`CommError::PlanMismatch`] when `c`'s rank/size disagree with the
    /// plan's, [`CommError::ShortInput`] when `input` is shorter than the
    /// plan's input region, and any backend error at the step that raised
    /// it.
    pub fn run<C: Comm>(
        &mut self,
        c: &mut C,
        plan: &CompiledSchedule,
        input: &[u8],
    ) -> CommResult<Vec<u8>> {
        self.start(c, plan, input)?;
        self.resume(c, plan, || true)?;
        Ok(self.output(plan))
    }

    /// Check that `plan` belongs to `c`'s endpoint, load `input` into fresh
    /// scratch, and put the cursor on the first step.
    pub(crate) fn start<C: Comm>(
        &mut self,
        c: &C,
        plan: &CompiledSchedule,
        input: &[u8],
    ) -> CommResult<()> {
        if (c.size(), c.rank()) != (plan.p, plan.rank) {
            return Err(CommError::PlanMismatch {
                plan_p: plan.p,
                plan_rank: plan.rank,
                comm_size: c.size(),
                comm_rank: c.rank(),
            });
        }
        if input.len() < plan.input_bytes() {
            return Err(CommError::ShortInput {
                need: plan.input_bytes(),
                got: input.len(),
            });
        }
        self.buf.clear();
        self.buf.resize(plan.buf_len, 0);
        self.reqs.clear();
        self.dsts.clear();
        self.pc = 0;
        scatter(&mut self.buf, plan.ranges_of(plan.input), input);
        Ok(())
    }

    /// The index of the next step to execute.
    pub(crate) fn cursor(&self) -> usize {
        self.pc
    }

    /// Execute steps from the cursor on. Before each [`CStep::Flush`],
    /// `can_flush` decides whether to complete it now; on `false` the cursor
    /// stays on the flush and this returns `Ok(false)`. Returns `Ok(true)`
    /// once the plan has run to the end.
    pub(crate) fn resume<C: Comm>(
        &mut self,
        c: &mut C,
        plan: &CompiledSchedule,
        mut can_flush: impl FnMut() -> bool,
    ) -> CommResult<bool> {
        let steps = plan.steps();
        while let Some(step) = steps.get(self.pc) {
            match step {
                CStep::Flush => {
                    if !can_flush() {
                        return Ok(false);
                    }
                    let reqs = std::mem::take(&mut self.reqs);
                    let results = c.waitall(reqs)?;
                    for (res, dst) in results.into_iter().zip(self.dsts.drain(..)) {
                        if let (Some(payload), Some(span)) = (res, dst) {
                            scatter(&mut self.buf, plan.ranges_of(span), &payload);
                        }
                    }
                }
                CStep::Mark { label, round } => c.mark(label, *round),
                CStep::Send { to, tag, src } => {
                    let view = SgView::new(&self.buf, plan.ranges_of(*src));
                    let req = c.send_sg(*to, *tag, view)?;
                    self.reqs.push(req);
                    self.dsts.push(None);
                }
                CStep::Recv { from, tag, dst } => {
                    let req = c.irecv(*from, *tag, dst.bytes())?;
                    self.reqs.push(req);
                    self.dsts.push(Some(*dst));
                }
                CStep::Copy { src, dst } => {
                    let (s, d) = (plan.ranges_of(*src), plan.ranges_of(*dst));
                    if let ([s], [d]) = (s, d) {
                        // Contiguous fast path; `copy_within` is memmove, so
                        // overlap behaves like a gather-then-scatter.
                        self.buf.copy_within(s.clone(), d.start);
                    } else {
                        self.scratch_src.clear();
                        for r in s {
                            self.scratch_src.extend_from_slice(&self.buf[r.clone()]);
                        }
                        scatter(&mut self.buf, d, &self.scratch_src);
                    }
                }
                CStep::Reduce {
                    dtype,
                    op,
                    src,
                    dst,
                } => {
                    let (s, d) = (plan.ranges_of(*src), plan.ranges_of(*dst));
                    match (s, d) {
                        // Contiguous disjoint operands reduce in place via a
                        // split borrow — no gather, no scatter.
                        ([s], [d]) if s.end <= d.start => {
                            let (lo, hi) = self.buf.split_at_mut(d.start);
                            reduce_into(*dtype, *op, &mut hi[..d.len()], &lo[s.clone()])?;
                        }
                        ([s], [d]) if d.end <= s.start => {
                            let (lo, hi) = self.buf.split_at_mut(s.start);
                            reduce_into(*dtype, *op, &mut lo[d.clone()], &hi[..s.len()])?;
                        }
                        _ => {
                            self.scratch_src.clear();
                            for r in s {
                                self.scratch_src.extend_from_slice(&self.buf[r.clone()]);
                            }
                            self.scratch_dst.clear();
                            for r in d {
                                self.scratch_dst.extend_from_slice(&self.buf[r.clone()]);
                            }
                            reduce_into(*dtype, *op, &mut self.scratch_dst, &self.scratch_src)?;
                            scatter(&mut self.buf, d, &self.scratch_dst);
                        }
                    }
                    c.compute(dst.bytes());
                }
            }
            self.pc += 1;
        }
        Ok(true)
    }

    /// The plan's output bytes, gathered from scratch after a finished run.
    pub(crate) fn output(&self, plan: &CompiledSchedule) -> Vec<u8> {
        let mut out = Vec::with_capacity(plan.output_bytes());
        for r in plan.ranges_of(plan.output) {
            out.extend_from_slice(&self.buf[r.clone()]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ScheduleBuilder, SgList};
    use super::*;
    use exacoll_comm::{run_ranks, ReduceOp, TraceComm};

    fn swap_schedule(p: usize, rank: usize, n: usize) -> Schedule {
        let mut b = ScheduleBuilder::new(p, rank);
        let mine = b.alloc(n);
        let theirs = b.alloc(n);
        let peer = rank ^ 1;
        b.mark("swap", 0);
        b.sendrecv(peer, 7, mine.clone(), peer, 7, theirs.clone());
        b.finish(mine, theirs)
    }

    #[test]
    fn compiled_swap_runs_live() {
        let out = run_ranks(2, |c| {
            let s = swap_schedule(2, c.rank(), 4);
            Executor::new().run(c, &compile(&s), &[c.rank() as u8; 4])
        });
        assert_eq!(out[0], vec![1; 4]);
        assert_eq!(out[1], vec![0; 4]);
    }

    #[test]
    fn trace_records_the_executed_op_stream() {
        let t = swap_schedule(2, 0, 4).to_trace();
        assert_eq!(t, compile(&swap_schedule(2, 0, 4)).to_trace());
        assert_eq!(
            t.ops,
            vec![
                TraceOp::Mark {
                    label: "swap",
                    round: 0
                },
                TraceOp::Send {
                    to: 1,
                    tag: 7,
                    bytes: 4
                },
                TraceOp::Recv {
                    from: 1,
                    tag: 7,
                    bytes: 4
                },
                TraceOp::WaitAll { reqs: vec![1, 2] },
            ]
        );
    }

    #[test]
    fn static_flush_placement_matches_hazard_rule() {
        // Relay: recv then send from the same slot — the send must be
        // preceded by a compiled-in flush.
        let mut b = ScheduleBuilder::new(3, 1);
        let slot = b.alloc(2);
        b.recv(0, 5, slot.clone());
        b.send(2, 5, slot.clone());
        let plan = compile(&b.finish(SgList::empty(), SgList::empty()));
        assert_eq!(
            plan.steps()
                .iter()
                .filter(|s| matches!(s, CStep::Flush))
                .count(),
            2,
            "one hazard flush + one end-of-plan flush: {:?}",
            plan.steps()
        );
        assert!(matches!(plan.steps()[1], CStep::Flush));
    }

    #[test]
    fn forwarding_hazard_delivers_before_the_relay() {
        // Rank 1 relays rank 0's message to rank 2: the relay send reads the
        // pending receive's destination, so the executor must wait first.
        let out = run_ranks(3, |c| {
            let mut b = ScheduleBuilder::new(3, c.rank());
            let slot = b.alloc(2);
            let (plan, input): (Schedule, &[u8]) = match c.rank() {
                0 => {
                    b.send(1, 5, slot.clone());
                    (b.finish(slot, SgList::empty()), &[3, 9])
                }
                1 => {
                    b.recv(0, 5, slot.clone());
                    b.send(2, 5, slot.clone());
                    (b.finish(SgList::empty(), SgList::empty()), &[])
                }
                _ => {
                    b.recv(1, 5, slot.clone());
                    (b.finish(SgList::empty(), slot), &[])
                }
            };
            Executor::new().run(c, &compile(&plan), input)
        });
        assert_eq!(out[2], vec![3, 9]);
    }

    #[test]
    fn no_flush_emitted_for_empty_pending() {
        // A mark with nothing outstanding must not emit a waitall.
        let mut b = ScheduleBuilder::new(1, 0);
        let x = b.alloc(2);
        b.mark("phase", 0);
        b.copy(x.slice(0, 1), x.slice(1, 1));
        let plan = compile(&b.finish(x.slice(0, 1), x.clone()));
        assert!(!plan.steps().iter().any(|s| matches!(s, CStep::Flush)));
    }

    #[test]
    fn reduce_step_accumulates_in_place() {
        // Single-rank plan: input holds [acc | src]; one reduce folds src in.
        let mut b = ScheduleBuilder::new(1, 0);
        let acc = b.alloc(2);
        let src = b.alloc(2);
        b.reduce(DType::U8, ReduceOp::Sum, src.clone(), acc.clone());
        let s = compile(&b.finish(SgList::concat([&acc, &src]), acc));
        let mut c = TraceComm::new(0, 1);
        let out = Executor::new().run(&mut c, &s, &[10, 20, 1, 2]).unwrap();
        assert_eq!(out, vec![11, 22]);
        assert_eq!(c.finish().ops, vec![TraceOp::Compute { bytes: 2 }]);
    }

    #[test]
    fn reduce_fast_path_matches_gathered_path() {
        // The same fold with contiguous operands (split-borrow fast path,
        // in both buffer orders) and with operands split into two ranges
        // each (gather/reduce/scatter path) must agree.
        for (first_is_dst, n) in [(true, 8), (false, 8), (true, 5), (false, 5)] {
            let run = |split: bool| {
                let mut b = ScheduleBuilder::new(1, 0);
                let a = b.alloc(n);
                let s = b.alloc(n);
                let (dst, src) = if first_is_dst { (a, s) } else { (s, a) };
                let frag = |l: &SgList| {
                    let h = n / 2;
                    SgList::concat([&l.slice(h, n - h), &l.slice(0, h)])
                };
                let (rd, rs) = if split {
                    (frag(&dst), frag(&src))
                } else {
                    (dst.clone(), src.clone())
                };
                b.reduce(DType::U8, ReduceOp::Sum, rs, rd);
                let plan = compile(&b.finish(SgList::concat([&dst, &src]), dst));
                let input: Vec<u8> = (0..2 * n as u8).collect();
                Executor::new()
                    .run(&mut TraceComm::new(0, 1), &plan, &input)
                    .unwrap()
            };
            let fast = run(false);
            assert_eq!(fast, run(true));
            assert_eq!(
                fast,
                (0..n as u8).map(|i| i + i + n as u8).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn scatter_follows_range_order_and_prefix_fills_short_data() {
        let mut buf = vec![0u8; 8];
        scatter(&mut buf, &[4..8, 0..4], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(buf, vec![5, 6, 7, 8, 1, 2, 3, 4]);
        let mut buf = vec![9u8; 6];
        scatter(&mut buf, std::slice::from_ref(&(0..6)), &[1, 2]);
        assert_eq!(buf, vec![1, 2, 9, 9, 9, 9]);
    }

    #[test]
    fn permuted_views_round_trip_through_the_executor() {
        // Input lands through a permuted view; an identity output view
        // exposes the permutation and the permuted one undoes it.
        let x = SgList::from(0..8);
        let perm = SgList::concat([&x.slice(4, 4), &x.slice(0, 4)]);
        let input: Vec<u8> = (1..=8).collect();
        let run = |out: SgList| {
            let mut b = ScheduleBuilder::new(1, 0);
            assert_eq!(b.alloc(8), x);
            let plan = compile(&b.finish(perm.clone(), out));
            Executor::new()
                .run(&mut TraceComm::new(0, 1), &plan, &input)
                .unwrap()
        };
        assert_eq!(run(x.clone()), vec![5, 6, 7, 8, 1, 2, 3, 4]);
        assert_eq!(run(perm.clone()), input);
    }

    #[test]
    fn spans_keep_full_width_beyond_4_gib() {
        // Metadata only: the bump allocator reserves offsets, nothing is
        // allocated, and compile never touches payload bytes.
        let big = (1usize << 32) + 8;
        let mut b = ScheduleBuilder::new(2, 1);
        let region = b.alloc(big);
        b.recv(0, 3, region.clone());
        let plan = compile(&b.finish(SgList::empty(), region));
        let CStep::Recv { dst, .. } = plan.steps()[0] else {
            panic!("first step must be the receive: {:?}", plan.steps());
        };
        assert_eq!(dst.bytes(), big);
        assert_eq!(plan.output_bytes(), big);
    }

    /// A hand-built plan over `ranges` for rank 0 of `p`, with a scratch
    /// buffer just covering them: `compile` never emits the refused shapes
    /// below, so they are assembled directly.
    fn raw(p: usize, ranges: Vec<Range<usize>>, steps: Vec<CStep>) -> CompiledSchedule {
        let empty = Span {
            start: 0,
            count: 0,
            bytes: 0,
        };
        CompiledSchedule {
            p,
            rank: 0,
            buf_len: ranges.iter().map(|r| r.end).max().unwrap_or(0),
            input: empty,
            output: empty,
            ranges: ranges.into(),
            steps: steps.into(),
        }
    }

    /// The span of the single range at arena index `i`.
    fn one(plan_ranges: &[Range<usize>], i: u32) -> Span {
        Span {
            start: i,
            count: 1,
            bytes: plan_ranges[i as usize].len(),
        }
    }

    #[test]
    fn byte_free_trace_refuses_what_the_executor_refuses() {
        let rs = vec![0..8, 8..16, 16..20, 20..26];
        let reduce = |dtype, op, src, dst| CStep::Reduce {
            dtype,
            op,
            src: one(&rs, src),
            dst: one(&rs, dst),
        };
        let send = |to| CStep::Send {
            to,
            tag: 0,
            src: one(&rs, 0),
        };
        let cases = [
            (
                "peer >= p (send)",
                raw(2, rs.clone(), vec![send(2), CStep::Flush]),
            ),
            (
                "peer >= p (recv)",
                raw(
                    2,
                    rs.clone(),
                    vec![
                        CStep::Recv {
                            from: 5,
                            tag: 0,
                            dst: one(&rs, 0),
                        },
                        CStep::Flush,
                    ],
                ),
            ),
            (
                "operator unsupported for dtype",
                raw(
                    1,
                    rs.clone(),
                    vec![reduce(DType::F64, ReduceOp::BXor, 0, 1)],
                ),
            ),
            (
                "operand lengths differ",
                raw(1, rs.clone(), vec![reduce(DType::U8, ReduceOp::Sum, 0, 2)]),
            ),
            (
                "operands not whole elements",
                raw(1, rs.clone(), vec![reduce(DType::F64, ReduceOp::Sum, 3, 3)]),
            ),
            (
                "request pending at the end",
                raw(2, rs.clone(), vec![send(1)]),
            ),
        ];
        for (what, plan) in cases {
            let walked = std::panic::catch_unwind(|| plan.to_trace())
                .expect_err(&format!("{what}: the walk must refuse"));
            let msg = walked.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("rank 0"),
                "{what}: panic names the rank: {msg}"
            );
            let executed = std::panic::catch_unwind(|| {
                let mut c = TraceComm::new(0, plan.p);
                Executor::new().run(&mut c, &plan, &[]).map(|_| c.finish())
            });
            assert!(
                !matches!(executed, Ok(Ok(_))),
                "{what}: the executor accepted what the walk refused"
            );
        }
    }

    #[test]
    fn mismatched_endpoint_is_an_error_not_a_panic() {
        let plan = compile(&swap_schedule(2, 0, 4));
        let mut c = TraceComm::new(0, 4);
        let e = Executor::new().run(&mut c, &plan, &[0; 4]).unwrap_err();
        assert!(matches!(e, CommError::PlanMismatch { plan_p: 2, .. }));

        let mut c = TraceComm::new(0, 2);
        let e = Executor::new().run(&mut c, &plan, &[0; 2]).unwrap_err();
        assert!(matches!(e, CommError::ShortInput { need: 4, got: 2 }));
    }
}
