//! Multi-tenant execution: several collectives sharing one communicator.
//!
//! A shared runtime (one [`Comm`] endpoint per rank) can carry several
//! concurrent collectives — different jobs of one application, or different
//! applications multiplexed onto one fabric — as long as their messages can
//! never mis-match. The isolation mechanism is *tag-space partitioning*:
//! tenant `i` owns the half-open tag window
//! `[i * TENANT_TAG_STRIDE, (i+1) * TENANT_TAG_STRIDE)`, and
//! [`Tenant::rewrite`] relocates a lowered plan into that window by adding
//! the window base to every wire tag. Every tag the lowerings emit is below
//! [`TENANT_TAG_STRIDE`] (asserted by `tags::tests` and re-checked here), so
//! rewritten plans of distinct tenants are disjoint by construction — and
//! [`crate::schedule::verify::verify_tenants`] *proves* it for arbitrary
//! plans rather than trusting the construction.
//!
//! Execution reuses the one executor instead of growing a second one:
//! [`merge_tenants`] splices each rank's per-tenant plans into a single
//! [`Schedule`] — scratch buffers stacked, step lists spliced back-to-back
//! in tenant order with **no barrier at the seams** — and [`run_tenants`]
//! compiles that merged plan and runs it on an [`Executor`]. Because the merged
//! plan is ordinary IR, the static verifier's deadlock/matching/data-flow
//! guarantees apply to the *combined* execution, not just to each tenant in
//! isolation.
//!
//! Why a splice and not a round-robin interleave of flush segments: the
//! executor waits at every flush boundary, so interleaving is only safe when
//! every tenant has the *same* number of segments on *every* rank — then
//! merged group `T·s + t` means the same thing everywhere. Plans with
//! rank-dependent phase structure (recursive multiplying's fold/unfold at
//! non-power-of-k worlds, the v-collectives' skewed rounds) break that
//! alignment, and the misaligned waits deadlock for real — the verifier
//! catches exactly this on the merged plans. The sequential splice is safe
//! for any tenant mix: a rank that races ahead only *pre-posts* sends in a
//! later tenant's disjoint tag window, and never waits on anything a slower
//! peer hasn't already been sent. Cross-tenant overlap still happens across
//! ranks, because nothing synchronizes the seam.

use crate::schedule::{compile, Executor, Schedule, SgList, Step};
use exacoll_comm::{Comm, CommResult, Tag};

/// Width of each tenant's tag window. Every tag a lowering emits (base +
/// per-round offset) is below this, so adding `id * TENANT_TAG_STRIDE`
/// relocates a plan without collisions.
pub const TENANT_TAG_STRIDE: Tag = 0x1000;

/// Upper bound on tenant ids, keeping every window inside the `u32` tag
/// space with room to spare.
pub const MAX_TENANTS: usize = 1 << 16;

/// One tenant of a shared runtime: an id naming a disjoint tag window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tenant {
    id: usize,
}

impl Tenant {
    /// Tenant `id`, owning tag window `[id·stride, (id+1)·stride)`.
    ///
    /// # Panics
    ///
    /// If `id >= MAX_TENANTS`.
    pub fn new(id: usize) -> Tenant {
        assert!(id < MAX_TENANTS, "tenant id {id} exceeds {MAX_TENANTS}");
        Tenant { id }
    }

    /// The tenant's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The tenant's half-open tag window.
    pub fn window(&self) -> (Tag, Tag) {
        let base = (self.id as Tag) * TENANT_TAG_STRIDE;
        (base, base + TENANT_TAG_STRIDE)
    }

    /// Relocate a lowered plan into this tenant's tag window by adding the
    /// window base to every wire tag. Buffers, peers, and step order are
    /// untouched — the plan computes exactly what it did before.
    ///
    /// # Panics
    ///
    /// If the plan already uses a tag at or above [`TENANT_TAG_STRIDE`]
    /// (i.e. it was already rewritten, or a lowering escaped the base
    /// window).
    pub fn rewrite(&self, s: &Schedule) -> Schedule {
        let base = self.window().0;
        let shift = |tag: Tag| {
            assert!(
                tag < TENANT_TAG_STRIDE,
                "tag {tag:#06x} already outside the base window; refusing to rewrite twice"
            );
            tag + base
        };
        let steps = s
            .steps
            .iter()
            .map(|step| match step {
                Step::Send { to, tag, src } => Step::Send {
                    to: *to,
                    tag: shift(*tag),
                    src: src.clone(),
                },
                Step::Recv { from, tag, dst } => Step::Recv {
                    from: *from,
                    tag: shift(*tag),
                    dst: dst.clone(),
                },
                Step::SendRecv {
                    to,
                    send_tag,
                    src,
                    from,
                    recv_tag,
                    dst,
                } => Step::SendRecv {
                    to: *to,
                    send_tag: shift(*send_tag),
                    src: src.clone(),
                    from: *from,
                    recv_tag: shift(*recv_tag),
                    dst: dst.clone(),
                },
                other => other.clone(),
            })
            .collect();
        Schedule {
            p: s.p,
            rank: s.rank,
            buf_len: s.buf_len,
            input: s.input.clone(),
            output: s.output.clone(),
            steps,
        }
    }
}

/// `sg` with every range shifted up by `base` bytes.
fn offset_sg(sg: &SgList, base: usize) -> SgList {
    let mut out = SgList::empty();
    for r in sg.ranges() {
        out.push(r.start + base..r.end + base);
    }
    out
}

/// `step` with every buffer reference shifted up by `base` bytes.
fn offset_step(step: &Step, base: usize) -> Step {
    match step {
        Step::Send { to, tag, src } => Step::Send {
            to: *to,
            tag: *tag,
            src: offset_sg(src, base),
        },
        Step::Recv { from, tag, dst } => Step::Recv {
            from: *from,
            tag: *tag,
            dst: offset_sg(dst, base),
        },
        Step::SendRecv {
            to,
            send_tag,
            src,
            from,
            recv_tag,
            dst,
        } => Step::SendRecv {
            to: *to,
            send_tag: *send_tag,
            src: offset_sg(src, base),
            from: *from,
            recv_tag: *recv_tag,
            dst: offset_sg(dst, base),
        },
        Step::Compute { kind, src, dst } => Step::Compute {
            kind: *kind,
            src: offset_sg(src, base),
            dst: offset_sg(dst, base),
        },
        Step::RoundMark { label, round } => Step::RoundMark {
            label,
            round: *round,
        },
    }
}

/// Splice one rank's per-tenant plans into a single merged [`Schedule`]:
/// scratch buffers stacked in tenant order, step lists spliced back-to-back
/// in tenant order (no barrier between tenants — see the module docs for
/// why this order, unlike a flush-segment interleave, is deadlock-safe for
/// any tenant mix), input and output views concatenated in tenant order.
///
/// The merged plan is ordinary schedule IR, so the whole toolchain applies
/// to the combined execution: [`crate::schedule::verify::verify`] proves
/// the merged exchange deadlock-free, `to_trace` prices it, and
/// [`run_tenants`] runs it. Every rank of the shared runtime must
/// merge the same tenants in the same order.
///
/// # Panics
///
/// If `plans` is empty or the plans disagree on `(p, rank)`.
pub fn merge_tenants(plans: &[Schedule]) -> Schedule {
    assert!(!plans.is_empty(), "merge_tenants needs at least one tenant");
    let (p, rank) = (plans[0].p, plans[0].rank);
    for s in plans {
        assert_eq!(
            (s.p, s.rank),
            (p, rank),
            "every tenant's plan must target the same (p, rank)"
        );
    }
    // Stack the scratch buffers: tenant i's bytes live at bases[i]..
    let mut bases = Vec::with_capacity(plans.len());
    let mut top = 0usize;
    for s in plans {
        bases.push(top);
        top += s.buf_len;
    }
    let mut steps = Vec::new();
    for (t, s) in plans.iter().enumerate() {
        steps.extend(s.steps.iter().map(|step| offset_step(step, bases[t])));
    }
    let input = SgList::concat(
        plans
            .iter()
            .zip(&bases)
            .map(|(s, &b)| offset_sg(&s.input, b))
            .collect::<Vec<_>>()
            .iter(),
    );
    let output = SgList::concat(
        plans
            .iter()
            .zip(&bases)
            .map(|(s, &b)| offset_sg(&s.output, b))
            .collect::<Vec<_>>()
            .iter(),
    );
    Schedule {
        p,
        rank,
        buf_len: top,
        input,
        output,
        steps,
    }
}

/// Run several tenants' plans concurrently on one shared communicator.
///
/// `plans[i]` is this rank's (already tag-rewritten) plan for tenant `i` and
/// `inputs[i]` its input bytes; the return value is one output per tenant.
/// All ranks must call with the same tenants in the same order — the merged
/// interleaving is part of the global plan, exactly like the schedules
/// themselves.
///
/// # Errors
///
/// Propagates any backend error from the merged execution.
pub fn run_tenants<C: Comm>(
    c: &mut C,
    plans: &[Schedule],
    inputs: &[Vec<u8>],
) -> CommResult<Vec<Vec<u8>>> {
    assert_eq!(plans.len(), inputs.len(), "one input per tenant");
    let merged = merge_tenants(plans);
    let cat: Vec<u8> = inputs.iter().flat_map(|i| i.iter().copied()).collect();
    let out = Executor::new().run(c, &compile(&merged), &cat)?;
    let mut outs = Vec::with_capacity(plans.len());
    let mut pos = 0;
    for s in plans {
        let n = s.output.len();
        outs.push(out[pos..pos + n].to_vec());
        pos += n;
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::expected_outputs;
    use crate::registry::{lower, Algorithm, CollArgs, CollectiveOp};
    use crate::schedule::verify::{verify, verify_tenants, TenantPlans};
    use exacoll_comm::run_ranks;

    fn payload(seed: usize, n: usize) -> Vec<u8> {
        (0..n).map(|i| (seed * 37 + i * 11) as u8).collect()
    }

    #[test]
    fn windows_are_disjoint_and_ordered() {
        let a = Tenant::new(0).window();
        let b = Tenant::new(1).window();
        let c = Tenant::new(5).window();
        assert_eq!(a, (0x0000, 0x1000));
        assert_eq!(b, (0x1000, 0x2000));
        assert_eq!(c, (0x5000, 0x6000));
        assert!(a.1 <= b.0 && b.1 <= c.0);
    }

    #[test]
    #[should_panic(expected = "refusing to rewrite twice")]
    fn rewrite_rejects_already_relocated_plans() {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let s = lower(&args, 4, 0, 8);
        let moved = Tenant::new(2).rewrite(&s);
        let _ = Tenant::new(1).rewrite(&moved);
    }

    #[test]
    fn rewritten_tenants_pass_the_tenancy_verifier() {
        let p = 4;
        let ag = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let ar = CollArgs::new(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        );
        let (t0, t1) = (Tenant::new(0), Tenant::new(1));
        let plans0: Vec<Schedule> = (0..p).map(|r| t0.rewrite(&lower(&ag, p, r, 8))).collect();
        let plans1: Vec<Schedule> = (0..p).map(|r| t1.rewrite(&lower(&ar, p, r, 8))).collect();
        let stats = verify_tenants(&[
            TenantPlans {
                tenant: t0.id(),
                window: t0.window(),
                schedules: &plans0,
            },
            TenantPlans {
                tenant: t1.id(),
                window: t1.window(),
                schedules: &plans1,
            },
        ])
        .unwrap();
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn merged_plans_verify_as_one_schedule_set() {
        // The verifier's guarantees must hold for the *interleaved*
        // execution, which is exactly what the merged plans are.
        let p = 4;
        let ag = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let ar = CollArgs::new(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        );
        let merged: Vec<Schedule> = (0..p)
            .map(|r| {
                merge_tenants(&[
                    Tenant::new(0).rewrite(&lower(&ag, p, r, 8)),
                    Tenant::new(1).rewrite(&lower(&ar, p, r, 8)),
                ])
            })
            .collect();
        verify(&merged).unwrap();
    }

    #[test]
    fn merged_plans_survive_rank_dependent_phase_structure() {
        // p = 6 recursive multiplying folds ranks 4 and 5 into the q = 4
        // core, so its flush-segment count differs per rank. A round-robin
        // interleave of such a tenant with a ring allgather misaligns the
        // executor's waits across ranks and deadlocks (the verifier catches
        // it); the sequential splice must verify and run.
        let p = 6;
        let n = 12;
        let ag = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let ar = CollArgs::new(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        );
        let merged: Vec<Schedule> = (0..p)
            .map(|r| {
                merge_tenants(&[
                    Tenant::new(0).rewrite(&lower(&ag, p, r, n)),
                    Tenant::new(1).rewrite(&lower(&ar, p, r, n)),
                ])
            })
            .collect();
        verify(&merged).unwrap();
        let outs = run_ranks(p, |c| {
            let r = c.rank();
            let plans = [
                Tenant::new(0).rewrite(&lower(&ag, p, r, n)),
                Tenant::new(1).rewrite(&lower(&ar, p, r, n)),
            ];
            run_tenants(c, &plans, &[payload(r, n), payload(100 + r, n)])
        });
        for (tenant, args) in [(0, &ag), (1, &ar)] {
            let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(tenant * 100 + r, n)).collect();
            let expect =
                expected_outputs(args.op, args.root, args.dtype, args.rop, &inputs).unwrap();
            for r in 0..p {
                assert_eq!(outs[r][tenant], expect[r], "tenant {tenant} rank {r}");
            }
        }
    }

    #[test]
    fn concurrent_tenants_match_their_solo_references() {
        let p = 4;
        let n = 16;
        let ag = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let ar = CollArgs::new(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        );
        let bc = CollArgs::new(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 3 });
        let outs = run_ranks(p, |c| {
            let r = c.rank();
            let plans = [
                Tenant::new(0).rewrite(&lower(&ag, p, r, n)),
                Tenant::new(1).rewrite(&lower(&ar, p, r, n)),
                Tenant::new(2).rewrite(&lower(&bc, p, r, n)),
            ];
            let inputs = [payload(r, n), payload(100 + r, n), payload(200 + r, n)];
            run_tenants(c, &plans, &inputs)
        });
        for (tenant, args) in [(0, &ag), (1, &ar), (2, &bc)] {
            let seed = tenant * 100;
            let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(seed + r, n)).collect();
            let expect =
                expected_outputs(args.op, args.root, args.dtype, args.rop, &inputs).unwrap();
            for r in 0..p {
                assert_eq!(
                    outs[r][tenant], expect[r],
                    "tenant {tenant} rank {r} diverged from its solo reference"
                );
            }
        }
    }

    #[test]
    fn merge_preserves_input_and_output_sizes() {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let a = Tenant::new(0).rewrite(&lower(&args, 4, 1, 8));
        let b = Tenant::new(1).rewrite(&lower(&args, 4, 1, 12));
        let m = merge_tenants(&[a.clone(), b.clone()]);
        assert_eq!(m.buf_len, a.buf_len + b.buf_len);
        assert_eq!(m.input.len(), a.input.len() + b.input.len());
        assert_eq!(m.output.len(), a.output.len() + b.output.len());
    }
}
