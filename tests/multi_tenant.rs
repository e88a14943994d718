//! Multi-tenant integration tests: several collectives share one
//! communicator through disjoint tag windows. Each tenant's result must be
//! byte-identical to a solo run of the same collective (zero cross-tenant
//! interference), the merged execution must record and replay cleanly, and
//! the tenancy verifier must refuse overlapping tag-window claims before
//! anything touches a wire.

use exacoll::collectives::reference::{expected_outputs, expected_outputs_v};
use exacoll::collectives::registry::{lower, lower_v};
use exacoll::collectives::schedule::verify::{verify, verify_tenants, TenantPlans, VerifyError};
use exacoll::collectives::schedule::world::{evaluate, run_world};
use exacoll::collectives::schedule::{compile, CompiledSchedule, Executor, Schedule};
use exacoll::collectives::{merge_tenants, run_tenants, Algorithm, CollArgs, CollectiveOp, Tenant};
use exacoll::comm::{run_ranks, Comm, RecordComm, RecordedEvent};
use exacoll::net::run_socket_ranks;
use exacoll::obs::payload;
use proptest::prelude::*;

/// One tenant's workload: its collective, per-rank input length, and (for
/// the v-variants) the count vector.
struct Workload {
    args: CollArgs,
    counts: Option<Vec<usize>>,
    n: usize,
}

impl Workload {
    fn uniform(op: CollectiveOp, alg: Algorithm, n: usize) -> Workload {
        Workload {
            args: CollArgs::new(op, alg),
            counts: None,
            n,
        }
    }

    fn irregular(op: CollectiveOp, alg: Algorithm, counts: Vec<usize>) -> Workload {
        Workload {
            args: CollArgs::new(op, alg),
            counts: Some(counts),
            n: 0,
        }
    }

    fn ranks(&self, p: usize) -> usize {
        self.counts.as_ref().map_or(p, |c| c.len())
    }

    fn input_len(&self, rank: usize) -> usize {
        match &self.counts {
            None => self.n,
            Some(c) => match self.args.op {
                CollectiveOp::ReduceScatter => c.iter().sum(),
                _ => c[rank],
            },
        }
    }

    fn plan(&self, p: usize, rank: usize) -> Schedule {
        match &self.counts {
            None => lower(&self.args, p, rank, self.n),
            Some(c) => lower_v(&self.args, rank, c),
        }
    }

    fn reference(&self, inputs: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let a = &self.args;
        match &self.counts {
            None => expected_outputs(a.op, a.root, a.dtype, a.rop, inputs),
            Some(c) => expected_outputs_v(a.op, a.dtype, a.rop, c, inputs),
        }
        .expect("reference computes")
    }
}

/// Tag-rewritten per-tenant plans for one rank, plus the per-tenant inputs
/// (seeded so no two tenants ever share a byte pattern). Inputs come in
/// two shapes: `ref_inputs[t][r]` is the full logical contribution the
/// sequential reference wants, `live_inputs[t][r]` the (possibly shorter)
/// prefix the plan's input view actually consumes — a bcast plan, for
/// example, takes zero input bytes at non-root ranks. `payload` is
/// prefix-consistent, so the two agree wherever bytes are read.
#[allow(clippy::type_complexity)]
fn tenant_world(
    workloads: &[Workload],
    p: usize,
) -> (Vec<Vec<Schedule>>, Vec<Vec<Vec<u8>>>, Vec<Vec<Vec<u8>>>) {
    let plans: Vec<Vec<Schedule>> = (0..p)
        .map(|r| {
            workloads
                .iter()
                .enumerate()
                .map(|(t, w)| Tenant::new(t).rewrite(&w.plan(p, r)))
                .collect()
        })
        .collect();
    let ref_inputs: Vec<Vec<Vec<u8>>> = workloads
        .iter()
        .enumerate()
        .map(|(t, w)| {
            (0..p)
                .map(|r| payload(100 * t + r, w.input_len(r)))
                .collect()
        })
        .collect();
    let live_inputs: Vec<Vec<Vec<u8>>> = ref_inputs
        .iter()
        .enumerate()
        .map(|(t, ins)| {
            (0..p)
                .map(|r| ins[r][..plans[r][t].input.len()].to_vec())
                .collect()
        })
        .collect();
    (plans, live_inputs, ref_inputs)
}

/// Each rank's merged inputs: its tenant inputs concatenated in tenant order.
fn concat_inputs(live_inputs: &[Vec<Vec<u8>>], p: usize) -> Vec<Vec<u8>> {
    (0..p)
        .map(|r| live_inputs.iter().flat_map(|ins| ins[r].clone()).collect())
        .collect()
}

/// Split one rank's merged output back into its per-tenant outputs.
fn split_outputs(merged: &[u8], tenant_plans: &[Schedule]) -> Vec<Vec<u8>> {
    let mut pos = 0;
    tenant_plans
        .iter()
        .map(|s| {
            pos += s.output.len();
            merged[pos - s.output.len()..pos].to_vec()
        })
        .collect()
}

/// Run `workloads` as tenants of one shared runtime on both backends and in
/// the single-threaded world evaluator, and check every tenant's output
/// against its solo reference.
fn check_tenancy(workloads: &[Workload], p: usize) {
    for w in workloads {
        assert_eq!(w.ranks(p), p, "every tenant must span the shared runtime");
    }
    let (plans, live_inputs, ref_inputs) = tenant_world(workloads, p);

    // Static proof first: per-tenant windows, then the merged plan set.
    let by_tenant: Vec<Vec<Schedule>> = (0..workloads.len())
        .map(|t| (0..p).map(|r| plans[r][t].clone()).collect())
        .collect();
    let claims: Vec<TenantPlans<'_>> = by_tenant
        .iter()
        .enumerate()
        .map(|(t, schedules)| TenantPlans {
            tenant: t,
            window: Tenant::new(t).window(),
            schedules,
        })
        .collect();
    verify_tenants(&claims).expect("tenant windows verify");
    let merged: Vec<Schedule> = (0..p).map(|r| merge_tenants(&plans[r])).collect();
    verify(&merged).expect("merged plan set verifies");

    let expect: Vec<Vec<Vec<u8>>> = workloads
        .iter()
        .zip(&ref_inputs)
        .map(|(w, ins)| w.reference(ins))
        .collect();

    let run = |outs: Vec<Vec<Vec<u8>>>, backend: &str| {
        for (t, w) in workloads.iter().enumerate() {
            for r in 0..p {
                assert_eq!(
                    outs[r][t], expect[t][r],
                    "tenant {t} ({}/{}) rank {r} diverged on {backend}",
                    w.args.op, w.args.alg
                );
            }
        }
    };
    run(
        run_ranks(p, |c| {
            let per_tenant: Vec<Vec<u8>> = live_inputs
                .iter()
                .map(|ins| ins[c.rank()].clone())
                .collect();
            run_tenants(c, &plans[c.rank()], &per_tenant)
        }),
        "threads",
    );
    run(
        run_socket_ranks(p, |c| {
            let per_tenant: Vec<Vec<u8>> = live_inputs
                .iter()
                .map(|ins| ins[c.rank()].clone())
                .collect();
            run_tenants(c, &plans[c.rank()], &per_tenant)
        }),
        "sockets",
    );
    let world = evaluate(&merged, &concat_inputs(&live_inputs, p)).expect("merged plans evaluate");
    run(
        world
            .iter()
            .zip(&plans)
            .map(|(out, tenant_plans)| split_outputs(out, tenant_plans))
            .collect(),
        "the world evaluator",
    );
}

/// Two tenants with different collectives share a p=4 world without
/// interfering, on both the threaded and the socket runtime.
#[test]
fn two_tenants_share_one_runtime_without_interference() {
    check_tenancy(
        &[
            Workload::uniform(CollectiveOp::Allgather, Algorithm::Ring, 24),
            Workload::uniform(
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 2 },
                16,
            ),
        ],
        4,
    );
}

/// Four tenants mixing uniform collectives with irregular v-variants —
/// including a zero-count rank — on one shared runtime.
#[test]
fn four_mixed_tenants_including_v_variants() {
    check_tenancy(
        &[
            Workload::uniform(CollectiveOp::Allreduce, Algorithm::Ring, 32),
            Workload::irregular(CollectiveOp::Allgather, Algorithm::Ring, vec![40, 0, 8, 16]),
            Workload::uniform(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }, 12),
            Workload::irregular(
                CollectiveOp::ReduceScatter,
                Algorithm::Ring,
                vec![8, 24, 0, 16],
            ),
        ],
        4,
    );
}

/// Tenants with rank-dependent phase structure: at p = 6 the recursive
/// multiplying allreduce folds two ranks into a q = 4 core, so the tenants'
/// step counts disagree across ranks. The sequential-splice merge must
/// stay deadlock-free regardless (the regression behind the merge design;
/// see `exacoll-core/src/tenant.rs`).
#[test]
fn tenants_with_rank_dependent_phases_merge_safely() {
    check_tenancy(
        &[
            Workload::uniform(CollectiveOp::Allgather, Algorithm::Ring, 12),
            Workload::uniform(
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 2 },
                16,
            ),
            Workload::uniform(
                CollectiveOp::Allreduce,
                Algorithm::GeneralizedMultiplying { k: 3 },
                8,
            ),
        ],
        6,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tenant mixes on random world sizes: every tenant matches its
    /// solo reference on the threaded runtime.
    #[test]
    fn random_tenant_mixes_never_interfere(
        p_idx in 0usize..3,
        picks in collection::vec(0usize..4, 2..5),
        n in 4usize..40,
    ) {
        let p = [4, 6, 8][p_idx];
        let workloads: Vec<Workload> = picks
            .iter()
            .map(|&i| match i {
                0 => Workload::uniform(CollectiveOp::Allgather, Algorithm::Ring, n),
                1 => Workload::uniform(
                    CollectiveOp::Allreduce,
                    Algorithm::RecursiveMultiplying { k: 2 },
                    n,
                ),
                2 => Workload::uniform(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }, n),
                _ => Workload::irregular(
                    CollectiveOp::Allgather,
                    Algorithm::Ring,
                    (0..p).map(|r| if r % 2 == 0 { n } else { 0 }).collect(),
                ),
            })
            .collect();
        let (plans, live_inputs, ref_inputs) = tenant_world(&workloads, p);
        let merged: Vec<Schedule> = (0..p).map(|r| merge_tenants(&plans[r])).collect();
        verify(&merged).expect("merged plan set verifies");
        let expect: Vec<Vec<Vec<u8>>> = workloads
            .iter()
            .zip(&ref_inputs)
            .map(|(w, ins)| w.reference(ins))
            .collect();
        let outs = run_ranks(p, |c| {
            let per_tenant: Vec<Vec<u8>> =
                live_inputs.iter().map(|ins| ins[c.rank()].clone()).collect();
            run_tenants(c, &plans[c.rank()], &per_tenant)
        });
        for (t, w) in workloads.iter().enumerate() {
            for r in 0..p {
                prop_assert_eq!(
                    &outs[r][t], &expect[t][r],
                    "tenant {} ({}/{}) rank {} diverged", t, w.args.op, w.args.alg, r
                );
            }
        }
    }
}

/// A multi-tenant execution records cleanly and deterministically: two
/// recordings of the same merged plan produce identical event logs, and
/// the world evaluator under the same recorder "replays" the merged plans
/// to the same events and bytes the live run produced.
#[test]
fn tenant_runs_record_and_replay_cleanly() {
    let p = 4;
    let workloads = [
        Workload::uniform(CollectiveOp::Allgather, Algorithm::Ring, 16),
        Workload::uniform(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
            16,
        ),
    ];
    let (plans, live_inputs, _) = tenant_world(&workloads, p);
    let merged: Vec<CompiledSchedule> =
        (0..p).map(|r| compile(&merge_tenants(&plans[r]))).collect();
    let cat = concat_inputs(&live_inputs, p);

    let record = || -> Vec<(Vec<u8>, Vec<RecordedEvent>)> {
        run_ranks(p, |c| {
            let r = c.rank();
            let mut rc = RecordComm::new(&mut *c);
            let out = Executor::new().run(&mut rc, &merged[r], &cat[r])?;
            Ok((out, rc.finish()))
        })
    };
    let first = record();
    let second = record();
    for r in 0..p {
        assert!(!first[r].1.is_empty(), "rank {r} recorded no events");
        assert_eq!(
            first[r].1, second[r].1,
            "rank {r} event log must be deterministic across recordings"
        );
    }

    // Replay in the world evaluator: no communicator, same events and bytes.
    let replayed = run_world(&merged, &cat, RecordComm::new).expect("merged plans evaluate");
    for (r, (out, recorder)) in replayed.iter().enumerate() {
        assert_eq!(out, &first[r].0, "rank {r} replay diverged from live run");
        assert_eq!(
            recorder.events(),
            &first[r].1[..],
            "rank {r} replayed events diverged from the live log"
        );
    }
}

/// Overlapping tag-window claims are refused outright, and a plan that
/// strays outside its tenant's window is pinned to the offending tenant,
/// rank, and tag.
#[test]
fn verifier_rejects_overlapping_tenant_windows() {
    let p = 4;
    let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
    let base: Vec<Schedule> = (0..p).map(|r| lower(&args, p, r, 8)).collect();
    let t1: Vec<Schedule> = base.iter().map(|s| Tenant::new(1).rewrite(s)).collect();

    // Two tenants claiming intersecting windows.
    let err = verify_tenants(&[
        TenantPlans {
            tenant: 0,
            window: Tenant::new(0).window(),
            schedules: &base,
        },
        TenantPlans {
            tenant: 1,
            window: (0x0800, 0x1800), // straddles tenant 0's upper half
            schedules: &t1,
        },
    ])
    .unwrap_err();
    assert!(
        matches!(err, VerifyError::TenantOverlap { a: 0, b: 1, .. }),
        "got: {err}"
    );

    // A tenant whose plan uses tags outside its claimed window.
    let err = verify_tenants(&[TenantPlans {
        tenant: 1,
        window: Tenant::new(1).window(),
        schedules: &base, // still tagged in tenant 0's window
    }])
    .unwrap_err();
    assert!(
        matches!(err, VerifyError::TagOutOfWindow { tenant: 1, .. }),
        "got: {err}"
    );
}
