//! Algorithm registry: the collective/algorithm compatibility matrix
//! (Table I), uniform dispatch, and sweep enumeration.
//!
//! Dispatch is two-staged: [`lower`] turns a [`CollArgs`] into the per-rank
//! [`Schedule`] IR, and [`execute`] compiles it (once, through the plan
//! cache) and runs it on the one [`Executor`]. Everything downstream — correctness runs, trace simulation,
//! static verification, model term counting — consumes the same lowering.

use crate::allgather::{build_allgather_kernel, AllgatherKernel};
use crate::allreduce::{
    build_allreduce_general, build_allreduce_hierarchical, build_allreduce_recmult_mapped,
    build_allreduce_reduce_bcast, build_allreduce_rsag,
};
use crate::alltoall::{build_alltoall_bruck, build_alltoall_pairwise, build_alltoall_spread};
use crate::barrier::build_barrier_dissemination;
use crate::bcast::{build_bcast_knomial, build_bcast_linear, build_bcast_scatter_allgather};
use crate::gather::build_gather_knomial;
use crate::plan_cache::{PlanCache, PlanKey};
use crate::reduce::{build_reduce_knomial, build_reduce_linear};
use crate::reduce_scatter::{
    build_reduce_scatter_recmult, build_reduce_scatter_ring, build_reduce_scatter_v,
};
use crate::schedule::{compile, Executor, Schedule, ScheduleBuilder, SgList};
use crate::topo::is_smooth;
use exacoll_comm::{Comm, CommResult, DType, Rank, ReduceOp};
use std::fmt;

/// The four collectives the paper evaluates, plus gather (used by Fig. 1 and
/// the gather+bcast allgather composite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Reduce`.
    Reduce,
    /// `MPI_Gather`.
    Gather,
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Barrier` (extension: generalized dissemination).
    Barrier,
    /// `MPI_Alltoall` (extension: radix-generalized Bruck, §VII's Fan et
    /// al. direction).
    Alltoall,
    /// `MPI_Reduce_scatter_block` (extension: radix-generalized recursive
    /// splitting; recursive halving is the `k = 2` case).
    ReduceScatter,
}

impl CollectiveOp {
    /// The four operations of Table I (the evaluation set).
    pub const EVALUATED: [CollectiveOp; 4] = [
        CollectiveOp::Bcast,
        CollectiveOp::Reduce,
        CollectiveOp::Allgather,
        CollectiveOp::Allreduce,
    ];

    /// All operations.
    pub const ALL: [CollectiveOp; 8] = [
        CollectiveOp::Bcast,
        CollectiveOp::Reduce,
        CollectiveOp::Gather,
        CollectiveOp::Allgather,
        CollectiveOp::Allreduce,
        CollectiveOp::Barrier,
        CollectiveOp::Alltoall,
        CollectiveOp::ReduceScatter,
    ];
}

impl fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectiveOp::Bcast => "bcast",
            CollectiveOp::Reduce => "reduce",
            CollectiveOp::Gather => "gather",
            CollectiveOp::Allgather => "allgather",
            CollectiveOp::Allreduce => "allreduce",
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::Alltoall => "alltoall",
            CollectiveOp::ReduceScatter => "reduce_scatter",
        };
        f.write_str(s)
    }
}

/// A collective algorithm, possibly generalized with a radix `k`.
///
/// The classical baselines are the `k = 2` (trees, recursive multiplying)
/// and ring instances; [`Algorithm::base`] maps each generalized algorithm
/// to its fixed-radix baseline, which Fig. 7's no-slowdown experiment and
/// Fig. 9's "default radix" speedup baseline rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Naïve root-sequential algorithm (`p(α + βn)`).
    Linear,
    /// K-nomial tree (`k = 2` = binomial).
    KnomialTree {
        /// Tree radix.
        k: usize,
    },
    /// Recursive multiplying (`k = 2` = recursive doubling). For Bcast this
    /// is the scatter + recursive-multiplying-allgather composite.
    RecursiveMultiplying {
        /// Per-round group size bound.
        k: usize,
    },
    /// Generalized recursive multiplying allreduce (Kolmakov & Zhang,
    /// arXiv:2004.09362): block-recursive cross exchanges valid for *any*
    /// process count, where recursive multiplying proper wants a k-smooth
    /// one (and pre-folds the remainder otherwise).
    GeneralizedMultiplying {
        /// Per-level split bound.
        k: usize,
    },
    /// Classic neighbor ring. For Bcast: scatter + ring allgather; for
    /// Allreduce: ring reduce-scatter + ring allgather.
    Ring,
    /// Generalized k-ring with group size `k`. For Bcast: scatter + k-ring
    /// allgather; for Allreduce: ring reduce-scatter + k-ring allgather.
    KRing {
        /// Group size (the paper's optimal is the processes-per-node).
        k: usize,
    },
    /// Bruck's allgather (baseline).
    Bruck,
    /// K-nomial reduce + k-nomial bcast allreduce composite.
    ReduceBcast {
        /// Tree radix.
        k: usize,
    },
    /// K-dissemination barrier (`k = 2` = classic dissemination), the
    /// generalization of Hoefler et al.'s n-way dissemination barrier.
    Dissemination {
        /// Per-round fan-out radix.
        k: usize,
    },
    /// Hierarchical (SMP-aware) allreduce: flat intranode reduce, radix-`k`
    /// recursive multiplying among node leaders, flat intranode broadcast —
    /// the Hasanov-style structure cited as k-ring's inspiration [17].
    Hierarchical {
        /// Processes per node (`ppn` must divide `p`).
        ppn: usize,
        /// Leader-phase radix.
        k: usize,
    },
    /// Pairwise-exchange alltoall: `p-1` direct exchange rounds.
    Pairwise,
    /// Radix-`r` Bruck alltoall (`r = 2` = Bruck's classic algorithm):
    /// larger radixes buy less forwarding volume with more rounds.
    GeneralizedBruck {
        /// Digit radix.
        r: usize,
    },
    /// Deferred choice: "ask the selection service". `Auto` is a request,
    /// not a plan — it must be resolved to a concrete algorithm (via
    /// `exacoll_select` or [`default_algorithm`]) before lowering;
    /// [`Algorithm::supports`] rejects it for every collective so an
    /// unresolved `Auto` can never reach the executor silently.
    Auto,
}

impl Algorithm {
    /// The radix parameter, if this algorithm is generalized.
    pub fn radix(&self) -> Option<usize> {
        match self {
            Algorithm::KnomialTree { k }
            | Algorithm::RecursiveMultiplying { k }
            | Algorithm::GeneralizedMultiplying { k }
            | Algorithm::KRing { k }
            | Algorithm::ReduceBcast { k }
            | Algorithm::Dissemination { k }
            | Algorithm::Hierarchical { k, .. } => Some(*k),
            Algorithm::GeneralizedBruck { r } => Some(*r),
            _ => None,
        }
    }

    /// Same kernel with a different radix (no-op for fixed algorithms).
    pub fn with_radix(&self, k: usize) -> Algorithm {
        match self {
            Algorithm::KnomialTree { .. } => Algorithm::KnomialTree { k },
            Algorithm::RecursiveMultiplying { .. } => Algorithm::RecursiveMultiplying { k },
            Algorithm::GeneralizedMultiplying { .. } => Algorithm::GeneralizedMultiplying { k },
            Algorithm::KRing { .. } => Algorithm::KRing { k },
            Algorithm::ReduceBcast { .. } => Algorithm::ReduceBcast { k },
            Algorithm::Dissemination { .. } => Algorithm::Dissemination { k },
            Algorithm::Hierarchical { ppn, .. } => Algorithm::Hierarchical { ppn: *ppn, k },
            Algorithm::GeneralizedBruck { .. } => Algorithm::GeneralizedBruck { r: k },
            other => *other,
        }
    }

    /// The non-generalized baseline of this kernel: binomial for k-nomial,
    /// recursive doubling for recursive multiplying, ring for k-ring.
    pub fn base(&self) -> Algorithm {
        match self {
            Algorithm::KnomialTree { .. } => Algorithm::KnomialTree { k: 2 },
            Algorithm::RecursiveMultiplying { .. } => Algorithm::RecursiveMultiplying { k: 2 },
            Algorithm::GeneralizedMultiplying { .. } => Algorithm::GeneralizedMultiplying { k: 2 },
            Algorithm::KRing { .. } => Algorithm::Ring,
            Algorithm::ReduceBcast { .. } => Algorithm::ReduceBcast { k: 2 },
            Algorithm::Dissemination { .. } => Algorithm::Dissemination { k: 2 },
            // The hierarchy's flat comparator is recursive doubling.
            Algorithm::Hierarchical { .. } => Algorithm::RecursiveMultiplying { k: 2 },
            Algorithm::GeneralizedBruck { .. } => Algorithm::GeneralizedBruck { r: 2 },
            other => *other,
        }
    }

    /// Whether `self` may run `op` on `p` ranks; `Err` explains why not.
    pub fn supports(&self, op: CollectiveOp, p: usize) -> Result<(), String> {
        use Algorithm::*;
        use CollectiveOp::*;
        if p == 0 {
            return Err("empty communicator".into());
        }
        if matches!(self, Auto) {
            return Err(format!(
                "`auto` must be resolved to a concrete algorithm before running {op} \
                 (consult the selection service or default_algorithm)"
            ));
        }
        let ok_ops: &[CollectiveOp] = match self {
            // For Alltoall, `Linear` is the spread-out (post-everything)
            // algorithm, MPICH's isend_irecv.
            Linear => &[Bcast, Reduce, Alltoall],
            KnomialTree { .. } => &[Bcast, Reduce, Gather, Allgather],
            RecursiveMultiplying { .. } => &[Bcast, Allgather, Allreduce, ReduceScatter],
            GeneralizedMultiplying { .. } => &[Allreduce],
            Ring => &[Bcast, Allgather, Allreduce, ReduceScatter],
            KRing { .. } => &[Bcast, Allgather, Allreduce],
            Bruck => &[Allgather],
            ReduceBcast { .. } => &[Allreduce],
            Dissemination { .. } => &[Barrier],
            Hierarchical { .. } => &[Allreduce],
            Pairwise => &[Alltoall],
            GeneralizedBruck { .. } => &[Alltoall],
            Auto => unreachable!("rejected above"),
        };
        if !ok_ops.contains(&op) {
            return Err(format!("{self} does not implement {op}"));
        }
        match self {
            KnomialTree { k }
            | RecursiveMultiplying { k }
            | GeneralizedMultiplying { k }
            | ReduceBcast { k }
            | Dissemination { k }
                if *k < 2 =>
            {
                Err(format!("radix {k} < 2"))
            }
            GeneralizedBruck { r } if *r < 2 => Err(format!("radix {r} < 2")),
            RecursiveMultiplying { k } if op == ReduceScatter && !is_smooth(p, *k) => Err(format!(
                "recursive-splitting reduce-scatter needs a {k}-smooth p, got {p}"
            )),
            KRing { k } if *k < 1 => Err("k-ring group size must be >= 1".into()),
            KRing { k } if *k > p => Err(format!("k-ring group size {k} exceeds p = {p}")),
            _ => Ok(()),
        }
    }

    /// Whether the algorithm benefits from radix tuning (a paper
    /// contribution) as opposed to being a fixed baseline.
    pub fn is_generalized(&self) -> bool {
        self.radix().is_some()
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Linear => write!(f, "linear"),
            Algorithm::KnomialTree { k } => write!(f, "knomial({k})"),
            Algorithm::RecursiveMultiplying { k } => write!(f, "recmult({k})"),
            Algorithm::GeneralizedMultiplying { k } => write!(f, "genmult({k})"),
            Algorithm::Ring => write!(f, "ring"),
            Algorithm::KRing { k } => write!(f, "kring({k})"),
            Algorithm::Bruck => write!(f, "bruck"),
            Algorithm::ReduceBcast { k } => write!(f, "reduce+bcast({k})"),
            Algorithm::Dissemination { k } => write!(f, "dissemination({k})"),
            Algorithm::Hierarchical { ppn, k } => write!(f, "hier({ppn},{k})"),
            Algorithm::Pairwise => write!(f, "pairwise"),
            Algorithm::GeneralizedBruck { r } => write!(f, "gbruck({r})"),
            Algorithm::Auto => write!(f, "auto"),
        }
    }
}

/// The MPICH-style fixed default for `op`: what runs when no selection rule
/// or learned table entry matches (binomial trees, recursive doubling, ring,
/// classic dissemination, pairwise). One shared definition so the offline
/// `Selector` rules, the online selection service, and the tests all agree
/// on the fallback.
pub fn default_algorithm(op: CollectiveOp) -> Algorithm {
    match op {
        CollectiveOp::Bcast | CollectiveOp::Reduce | CollectiveOp::Gather => {
            Algorithm::KnomialTree { k: 2 }
        }
        CollectiveOp::Allgather => Algorithm::Ring,
        CollectiveOp::Allreduce => Algorithm::RecursiveMultiplying { k: 2 },
        CollectiveOp::Barrier => Algorithm::Dissemination { k: 2 },
        CollectiveOp::Alltoall => Algorithm::Pairwise,
        CollectiveOp::ReduceScatter => Algorithm::Ring,
    }
}

/// Full description of one collective invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollArgs {
    /// Which collective.
    pub op: CollectiveOp,
    /// Which algorithm.
    pub alg: Algorithm,
    /// Root rank (bcast/reduce/gather; ignored otherwise).
    pub root: Rank,
    /// Element datatype (reductions).
    pub dtype: DType,
    /// Reduction operator (reductions).
    pub rop: ReduceOp,
}

impl CollArgs {
    /// Convenience constructor with root 0, byte elements, sum.
    pub fn new(op: CollectiveOp, alg: Algorithm) -> Self {
        CollArgs {
            op,
            alg,
            root: 0,
            dtype: DType::U8,
            rop: ReduceOp::Sum,
        }
    }
}

/// Run one collective. Input/output conventions:
///
/// | op        | input (`n` bytes each rank)           | output                              |
/// |-----------|----------------------------------------|-------------------------------------|
/// | Bcast     | payload at root, ignored elsewhere     | the payload, every rank             |
/// | Reduce    | contribution                           | reduction at root, empty elsewhere  |
/// | Gather    | own block                              | `p·n` at root, empty elsewhere      |
/// | Allgather | own block                              | `p·n`, every rank                   |
/// | Allreduce | contribution                           | reduction, every rank               |
/// | Barrier   | ignored                                | empty, after synchronization        |
/// | Alltoall  | `p` blocks of `n/p` bytes              | received blocks in source order     |
/// | ReduceScatter | contribution                       | own reduced block (element-aligned) |
pub fn execute<C: Comm>(c: &mut C, args: &CollArgs, input: &[u8]) -> CommResult<Vec<u8>> {
    let (p, rank) = (c.size(), c.rank());
    let plan = PlanCache::global()
        .get_or_insert_with(PlanKey::plain(args, p, rank, input.len()), || {
            compile(&lower(args, p, rank, input.len()))
        });
    Executor::new().run(c, &plan, input)
}

/// Lower one collective invocation to `rank`'s communication plan, for a
/// size-`p` communicator with `n` input bytes per rank.
///
/// This is the *whole* registry dispatch: [`execute`] is `lower` +
/// [`compile`] behind the plan cache, run by an [`Executor`], and the
/// simulator, verifier, world evaluator and model term counter consume the
/// identical plans.
///
/// # Panics
///
/// Panics with `unsupported configuration: ...` when
/// [`Algorithm::supports`] rejects the combination, and on malformed
/// shapes (e.g. an alltoall input not divisible into `p` blocks).
pub fn lower(args: &CollArgs, p: usize, rank: Rank, n: usize) -> Schedule {
    args.alg
        .supports(args.op, p)
        .unwrap_or_else(|e| panic!("unsupported configuration: {e}"));
    let mut b = ScheduleBuilder::new(p, rank);
    let root = args.root;
    let (dtype, rop) = (args.dtype, args.rop);
    match args.op {
        CollectiveOp::Bcast => {
            let data = (rank == root).then(|| b.alloc(n));
            let out = match args.alg {
                Algorithm::Linear => build_bcast_linear(&mut b, root, data.clone(), n),
                Algorithm::KnomialTree { k } => {
                    build_bcast_knomial(&mut b, k, root, data.clone(), n)
                }
                Algorithm::RecursiveMultiplying { k } => build_bcast_scatter_allgather(
                    &mut b,
                    AllgatherKernel::RecursiveMultiplying { k },
                    root,
                    data.clone(),
                    n,
                ),
                Algorithm::Ring => build_bcast_scatter_allgather(
                    &mut b,
                    AllgatherKernel::Ring,
                    root,
                    data.clone(),
                    n,
                ),
                Algorithm::KRing { k } => build_bcast_scatter_allgather(
                    &mut b,
                    AllgatherKernel::KRing { k },
                    root,
                    data.clone(),
                    n,
                ),
                _ => unreachable!("guarded by supports()"),
            };
            b.finish(data.unwrap_or_default(), out)
        }
        CollectiveOp::Reduce => {
            let own = b.alloc(n);
            let out = match args.alg {
                Algorithm::Linear => build_reduce_linear(&mut b, root, own.clone(), dtype, rop),
                Algorithm::KnomialTree { k } => {
                    build_reduce_knomial(&mut b, k, root, own.clone(), dtype, rop)
                }
                _ => unreachable!("guarded by supports()"),
            };
            b.finish(own, out.unwrap_or_default())
        }
        CollectiveOp::Gather => {
            let own = b.alloc(n);
            let out = match args.alg {
                Algorithm::KnomialTree { k } => build_gather_knomial(&mut b, k, root, own.clone()),
                _ => unreachable!("guarded by supports()"),
            };
            b.finish(own, out.unwrap_or_default())
        }
        CollectiveOp::Allgather => {
            let sizes = vec![n; p];
            let kernel = match args.alg {
                Algorithm::KnomialTree { k } => AllgatherKernel::GatherBcast { k },
                Algorithm::RecursiveMultiplying { k } => {
                    AllgatherKernel::RecursiveMultiplying { k }
                }
                Algorithm::Ring => AllgatherKernel::Ring,
                Algorithm::KRing { k } => AllgatherKernel::KRing { k },
                Algorithm::Bruck => AllgatherKernel::Bruck,
                _ => unreachable!("guarded by supports()"),
            };
            let own = b.alloc(n);
            let blocks = build_allgather_kernel(&mut b, kernel, own.clone(), &sizes);
            let out = SgList::concat(&blocks);
            b.finish(own, out)
        }
        CollectiveOp::ReduceScatter => {
            let own = b.alloc(n);
            let out = match args.alg {
                Algorithm::Ring => build_reduce_scatter_ring(&mut b, own.clone(), dtype, rop),
                Algorithm::RecursiveMultiplying { k } => {
                    build_reduce_scatter_recmult(&mut b, k, own.clone(), dtype, rop)
                }
                _ => unreachable!("guarded by supports()"),
            };
            b.finish(own, out)
        }
        CollectiveOp::Alltoall => {
            assert!(
                n.is_multiple_of(p),
                "alltoall input must be p blocks of equal size"
            );
            let nb = n / p;
            let own = b.alloc(n);
            let out = match args.alg {
                Algorithm::Linear => build_alltoall_spread(&mut b, own.clone(), nb),
                Algorithm::Pairwise => build_alltoall_pairwise(&mut b, own.clone(), nb),
                Algorithm::GeneralizedBruck { r } => {
                    build_alltoall_bruck(&mut b, r, own.clone(), nb)
                }
                _ => unreachable!("guarded by supports()"),
            };
            b.finish(own, out)
        }
        CollectiveOp::Barrier => {
            match args.alg {
                Algorithm::Dissemination { k } => build_barrier_dissemination(&mut b, k),
                _ => unreachable!("guarded by supports()"),
            }
            b.finish(SgList::empty(), SgList::empty())
        }
        CollectiveOp::Allreduce => {
            let own = b.alloc(n);
            let out = match args.alg {
                Algorithm::RecursiveMultiplying { k } => build_allreduce_recmult_mapped(
                    &mut b,
                    k,
                    p,
                    rank,
                    |g| g,
                    own.clone(),
                    dtype,
                    rop,
                ),
                Algorithm::Ring => {
                    build_allreduce_rsag(&mut b, AllgatherKernel::Ring, own.clone(), dtype, rop)
                }
                Algorithm::KRing { k } => build_allreduce_rsag(
                    &mut b,
                    AllgatherKernel::KRing { k },
                    own.clone(),
                    dtype,
                    rop,
                ),
                Algorithm::ReduceBcast { k } => {
                    build_allreduce_reduce_bcast(&mut b, k, own.clone(), dtype, rop)
                }
                Algorithm::Hierarchical { ppn, k } => {
                    build_allreduce_hierarchical(&mut b, ppn, k, own.clone(), dtype, rop)
                }
                Algorithm::GeneralizedMultiplying { k } => {
                    build_allreduce_general(&mut b, k, own.clone(), dtype, rop)
                }
                _ => unreachable!("guarded by supports()"),
            };
            b.finish(own, out)
        }
    }
}

/// Whether `alg` may run the irregular ("v") variant of `op` over the
/// per-rank `counts` vector (one entry per rank; `counts.len()` is the
/// communicator size). Only Allgather and ReduceScatter have v-variants.
/// Algorithms that rotate or forward fixed-size blocks (Bruck, the
/// gather+bcast composite) only accept uniform counts; the reduce-scatter
/// v-variant is ring-structured, so ReduceScatter admits `Ring` alone.
pub fn supports_v(alg: Algorithm, op: CollectiveOp, counts: &[usize]) -> Result<(), String> {
    if counts.is_empty() {
        return Err("counts vector must name at least one rank".into());
    }
    let p = counts.len();
    let uniform = counts.iter().all(|&c| c == counts[0]);
    match op {
        CollectiveOp::Allgather => {
            alg.supports(op, p)?;
            match alg {
                Algorithm::Bruck | Algorithm::KnomialTree { .. } if !uniform => Err(format!(
                    "{alg} rotates fixed-size blocks and needs uniform counts"
                )),
                _ => Ok(()),
            }
        }
        CollectiveOp::ReduceScatter => {
            if alg != Algorithm::Ring {
                return Err(format!(
                    "reduce_scatter_v is ring-structured; {alg} only implements the \
                     near-equal block split"
                ));
            }
            alg.supports(op, p)
        }
        other => Err(format!("{other} has no irregular (v) variant")),
    }
}

/// Lower the irregular ("v") variant of one collective to `rank`'s plan.
/// `counts[r]` is the byte count contributed by (Allgather) or left at
/// (ReduceScatter) rank `r`. Input/output lengths follow [`execute_v`].
///
/// # Panics
///
/// Panics with `unsupported irregular configuration: ...` when
/// [`supports_v`] rejects the combination, and (for ReduceScatter) when a
/// count is not aligned to the element size.
pub fn lower_v(args: &CollArgs, rank: Rank, counts: &[usize]) -> Schedule {
    supports_v(args.alg, args.op, counts)
        .unwrap_or_else(|e| panic!("unsupported irregular configuration: {e}"));
    let p = counts.len();
    let mut b = ScheduleBuilder::new(p, rank);
    match args.op {
        CollectiveOp::Allgather => {
            let kernel = match args.alg {
                Algorithm::KnomialTree { k } => AllgatherKernel::GatherBcast { k },
                Algorithm::RecursiveMultiplying { k } => {
                    AllgatherKernel::RecursiveMultiplying { k }
                }
                Algorithm::Ring => AllgatherKernel::Ring,
                Algorithm::KRing { k } => AllgatherKernel::KRing { k },
                Algorithm::Bruck => AllgatherKernel::Bruck,
                _ => unreachable!("guarded by supports_v()"),
            };
            let own = b.alloc(counts[rank]);
            let blocks = build_allgather_kernel(&mut b, kernel, own.clone(), counts);
            let out = SgList::concat(&blocks);
            b.finish(own, out)
        }
        CollectiveOp::ReduceScatter => {
            let total: usize = counts.iter().sum();
            let own = b.alloc(total);
            let out = build_reduce_scatter_v(&mut b, counts, own.clone(), args.dtype, args.rop);
            b.finish(own, out)
        }
        _ => unreachable!("guarded by supports_v()"),
    }
}

/// Run one irregular ("v") collective. Input/output conventions:
///
/// | op            | input (per rank)      | output                           |
/// |---------------|-----------------------|----------------------------------|
/// | Allgather     | `counts[rank]` bytes  | `sum(counts)` bytes, every rank  |
/// | ReduceScatter | `sum(counts)` bytes   | reduced `counts[rank]` bytes     |
///
/// Plans are served from the global [`PlanCache`] under a key that digests
/// the full count vector, so two invocations with equal totals but
/// different distributions can never alias.
pub fn execute_v<C: Comm>(
    c: &mut C,
    args: &CollArgs,
    counts: &[usize],
    input: &[u8],
) -> CommResult<Vec<u8>> {
    let rank = c.rank();
    assert_eq!(c.size(), counts.len(), "one count per rank");
    let plan = PlanCache::global().get_or_insert_with(
        PlanKey::with_counts(args, counts, rank, input.len()),
        || compile(&lower_v(args, rank, counts)),
    );
    Executor::new().run(c, &plan, input)
}

/// [`unique_candidates`] for the irregular variants: every candidate that
/// supports (op, counts), deduplicated by lowered-plan equality *at this
/// count vector*. Distinct count vectors are distinct plan shapes, so the
/// dedup probes the actual counts (plus an 8× scaling that preserves the
/// shape, guarding against coincidental size-dependent collisions) rather
/// than a uniform proxy size.
pub fn unique_candidates_v(op: CollectiveOp, max_k: usize, counts: &[usize]) -> Vec<Algorithm> {
    let p = counts.len();
    let scaled: Vec<usize> = counts.iter().map(|&c| c * 8).collect();
    let mut out: Vec<Algorithm> = Vec::new();
    let mut seen: Vec<Vec<Schedule>> = Vec::new();
    for a in candidates(op, p, max_k) {
        if supports_v(a, op, counts).is_err() {
            continue;
        }
        let args = CollArgs::new(op, a);
        let mut plans: Vec<Schedule> = Vec::with_capacity(2 * p);
        for cs in [counts, &scaled[..]] {
            for r in 0..p {
                plans.push(lower_v(&args, r, cs));
            }
        }
        if !seen.contains(&plans) {
            seen.push(plans);
            out.push(a);
        }
    }
    out
}

/// Table I: for each generalized kernel, the collectives it implements.
/// Returns rows of (base kernel, generalized kernel, collectives).
pub fn table_i() -> Vec<(&'static str, &'static str, Vec<CollectiveOp>)> {
    use CollectiveOp::*;
    vec![
        (
            "binomial",
            "k-nomial",
            vec![Reduce, Bcast, Gather, Allgather],
        ),
        (
            "recursive doubling",
            "recursive multiplying",
            vec![Bcast, Allgather, Allreduce],
        ),
        ("ring", "k-ring", vec![Bcast, Allgather, Allreduce]),
    ]
}

/// All algorithm candidates for `op` on `p` ranks with radixes up to
/// `max_k`, for exhaustive sweeps (§VI-G's selection-table generation).
pub fn candidates(op: CollectiveOp, p: usize, max_k: usize) -> Vec<Algorithm> {
    let mut out = Vec::new();
    let radixes: Vec<usize> = (2..=max_k.min(p.max(2))).collect();
    let mut push = |a: Algorithm| {
        if a.supports(op, p).is_ok() {
            out.push(a);
        }
    };
    push(Algorithm::Linear);
    push(Algorithm::Ring);
    push(Algorithm::Bruck);
    push(Algorithm::Pairwise);
    for &k in &radixes {
        push(Algorithm::KnomialTree { k });
        push(Algorithm::RecursiveMultiplying { k });
        push(Algorithm::GeneralizedMultiplying { k });
        push(Algorithm::KRing { k });
        push(Algorithm::ReduceBcast { k });
        push(Algorithm::Dissemination { k });
        push(Algorithm::GeneralizedBruck { r: k });
    }
    out
}

/// [`candidates`] with aliased configurations removed: two candidates that
/// lower to identical per-rank plans are the *same* schedule wearing two
/// radix labels (e.g. recursive multiplying with `k = 3` on `p = 4` factors
/// to `2·2`, exactly the `k = 2` plan), and sweeping both would benchmark
/// and verify one schedule twice. Plans are compared at two probe sizes so
/// a coincidental size-dependent collision cannot hide a real difference.
pub fn unique_candidates(op: CollectiveOp, p: usize, max_k: usize) -> Vec<Algorithm> {
    let mut out: Vec<Algorithm> = Vec::new();
    let mut seen: Vec<Vec<Schedule>> = Vec::new();
    // Both probes are p-divisible (alltoall) and element-aligned for the
    // default u8 dtype (reduce-scatter).
    let probes = [p, 8 * p];
    for a in candidates(op, p, max_k) {
        let args = CollArgs::new(op, a);
        let plans: Vec<Schedule> = probes
            .iter()
            .flat_map(|&n| (0..p).map(move |r| (n, r)))
            .map(|(n, r)| lower(&args, p, r, n))
            .collect();
        if !seen.contains(&plans) {
            seen.push(plans);
            out.push(a);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supports_matrix() {
        use Algorithm::*;
        use CollectiveOp::*;
        assert!(KnomialTree { k: 2 }.supports(Reduce, 8).is_ok());
        assert!(KnomialTree { k: 2 }.supports(Allreduce, 8).is_err());
        assert!(RecursiveMultiplying { k: 4 }.supports(Allreduce, 7).is_ok());
        assert!(RecursiveMultiplying { k: 1 }
            .supports(Allreduce, 7)
            .is_err());
        assert!(Ring.supports(Bcast, 5).is_ok());
        assert!(Ring.supports(Reduce, 5).is_err());
        assert!(KRing { k: 4 }.supports(Allgather, 8).is_ok());
        // Non-divisible group sizes run the non-uniform variant.
        assert!(KRing { k: 3 }.supports(Allgather, 8).is_ok());
        assert!(KRing { k: 9 }.supports(Allgather, 8).is_err());
        assert!(Bruck.supports(Allgather, 9).is_ok());
        assert!(Bruck.supports(Bcast, 9).is_err());
        assert!(Linear.supports(Bcast, 3).is_ok());
        assert!(ReduceBcast { k: 3 }.supports(Allreduce, 9).is_ok());
    }

    #[test]
    fn base_mapping() {
        assert_eq!(
            Algorithm::KnomialTree { k: 9 }.base(),
            Algorithm::KnomialTree { k: 2 }
        );
        assert_eq!(
            Algorithm::RecursiveMultiplying { k: 4 }.base(),
            Algorithm::RecursiveMultiplying { k: 2 }
        );
        assert_eq!(Algorithm::KRing { k: 8 }.base(), Algorithm::Ring);
        assert_eq!(Algorithm::Ring.base(), Algorithm::Ring);
    }

    #[test]
    fn radix_accessors() {
        assert_eq!(Algorithm::KnomialTree { k: 7 }.radix(), Some(7));
        assert_eq!(Algorithm::Ring.radix(), None);
        assert_eq!(
            Algorithm::KRing { k: 2 }.with_radix(8),
            Algorithm::KRing { k: 8 }
        );
        assert!(Algorithm::KnomialTree { k: 2 }.is_generalized());
        assert!(!Algorithm::Bruck.is_generalized());
    }

    #[test]
    fn table_i_has_ten_entries() {
        // Table I: 4 + 3 + 3 = 10 generalized algorithm implementations.
        let total: usize = table_i().iter().map(|(_, _, ops)| ops.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn candidates_are_supported_and_nonempty() {
        for op in CollectiveOp::ALL {
            for p in [2usize, 7, 8, 12] {
                let cands = candidates(op, p, 8);
                assert!(!cands.is_empty(), "{op} p={p}");
                for a in cands {
                    assert!(a.supports(op, p).is_ok(), "{a} {op} p={p}");
                }
            }
        }
    }

    #[test]
    fn unique_candidates_drop_schedule_aliases() {
        // p = 4: recmult k=3 factors 4 as 2·2 — the k=2 plan exactly.
        let cands = candidates(CollectiveOp::Allreduce, 4, 4);
        let unique = unique_candidates(CollectiveOp::Allreduce, 4, 4);
        assert!(cands.contains(&Algorithm::RecursiveMultiplying { k: 3 }));
        assert!(!unique.contains(&Algorithm::RecursiveMultiplying { k: 3 }));
        assert!(unique.contains(&Algorithm::RecursiveMultiplying { k: 2 }));
        assert!(unique.contains(&Algorithm::RecursiveMultiplying { k: 4 }));
        assert!(unique.len() < cands.len());
        // Every survivor is still a supported candidate, order preserved.
        let mut it = cands.iter();
        for u in &unique {
            assert!(it.any(|c| c == u), "unique_candidates reordered {u}");
        }
    }

    #[test]
    fn genmult_is_an_allreduce_candidate_everywhere() {
        use Algorithm::GeneralizedMultiplying;
        for p in [2usize, 6, 7, 9, 13] {
            assert!(GeneralizedMultiplying { k: 3 }
                .supports(CollectiveOp::Allreduce, p)
                .is_ok());
            let cands = candidates(CollectiveOp::Allreduce, p, 4);
            assert!(cands.contains(&GeneralizedMultiplying { k: 2 }), "p={p}");
            // Radixes above p alias k = p, so candidates() caps them.
            if p >= 3 {
                assert!(cands.contains(&GeneralizedMultiplying { k: 3 }), "p={p}");
            }
        }
        assert!(GeneralizedMultiplying { k: 1 }
            .supports(CollectiveOp::Allreduce, 8)
            .is_err());
        assert!(GeneralizedMultiplying { k: 2 }
            .supports(CollectiveOp::Bcast, 8)
            .is_err());
        assert_eq!(
            Algorithm::GeneralizedMultiplying { k: 5 }.base(),
            Algorithm::GeneralizedMultiplying { k: 2 }
        );
        assert_eq!(
            Algorithm::GeneralizedMultiplying { k: 2 }.with_radix(4),
            Algorithm::GeneralizedMultiplying { k: 4 }
        );
        assert_eq!(
            Algorithm::GeneralizedMultiplying { k: 4 }.to_string(),
            "genmult(4)"
        );
    }

    #[test]
    fn supports_v_matrix() {
        let ragged = [4usize, 0, 7, 1];
        let uniform = [4usize; 4];
        use Algorithm::*;
        use CollectiveOp::*;
        assert!(supports_v(Ring, Allgather, &ragged).is_ok());
        assert!(supports_v(KRing { k: 3 }, Allgather, &ragged).is_ok());
        assert!(supports_v(RecursiveMultiplying { k: 2 }, Allgather, &ragged).is_ok());
        // Fixed-block rotators need uniform counts.
        assert!(supports_v(Bruck, Allgather, &ragged).is_err());
        assert!(supports_v(Bruck, Allgather, &uniform).is_ok());
        assert!(supports_v(KnomialTree { k: 2 }, Allgather, &ragged).is_err());
        // Reduce-scatter-v is ring only.
        assert!(supports_v(Ring, ReduceScatter, &ragged).is_ok());
        assert!(supports_v(RecursiveMultiplying { k: 2 }, ReduceScatter, &ragged).is_err());
        // No v-variant at all for the rest.
        assert!(supports_v(KnomialTree { k: 2 }, Bcast, &uniform).is_err());
        assert!(supports_v(Ring, Allgather, &[]).is_err());
    }

    #[test]
    fn lower_v_shapes_and_execute_v() {
        use exacoll_comm::run_ranks;
        let counts = [3usize, 0, 5, 2];
        let p = counts.len();
        let total: usize = counts.iter().sum();
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        for r in 0..p {
            let s = lower_v(&args, r, &counts);
            assert_eq!((s.p, s.rank), (p, r));
            assert_eq!(s.input.len(), counts[r]);
            assert_eq!(s.output.len(), total);
        }
        let out = run_ranks(p, |c| {
            let input = vec![c.rank() as u8 + 10; counts[c.rank()]];
            execute_v(c, &args, &counts, &input)
        });
        let expect = [10, 10, 10, 12, 12, 12, 12, 12, 13, 13];
        for o in &out {
            assert_eq!(o[..], expect);
        }
    }

    #[test]
    fn unique_candidates_v_key_on_count_vectors() {
        // On a uniform vector the allgather pool includes the rotators;
        // on a ragged one they drop out, and the pool is still non-empty.
        let uniform = unique_candidates_v(CollectiveOp::Allgather, 4, &[8, 8, 8, 8]);
        assert!(uniform.contains(&Algorithm::Bruck));
        let ragged = unique_candidates_v(CollectiveOp::Allgather, 4, &[8, 0, 24, 8]);
        assert!(!ragged.contains(&Algorithm::Bruck));
        assert!(ragged.contains(&Algorithm::Ring));
        for a in &ragged {
            assert!(supports_v(*a, CollectiveOp::Allgather, &[8, 0, 24, 8]).is_ok());
        }
        // Ragged counts break plan-aliases that exist at uniform counts:
        // the dedup must key on the vector, not on p/radix alone.
        let rs = unique_candidates_v(CollectiveOp::ReduceScatter, 4, &[8, 0, 24, 8]);
        assert_eq!(rs, vec![Algorithm::Ring]);
    }

    #[test]
    fn lower_matches_execute_output_shape() {
        use exacoll_comm::run_ranks;
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let p = 4;
        let plans: Vec<Schedule> = (0..p).map(|r| lower(&args, p, r, 3)).collect();
        for (r, s) in plans.iter().enumerate() {
            assert_eq!((s.p, s.rank), (p, r));
            assert_eq!(s.input.len(), 3);
            assert_eq!(s.output.len(), 3 * p);
        }
        // And the executor agrees with execute().
        let out = run_ranks(p, |c| {
            let input = vec![c.rank() as u8; 3];
            execute(c, &args, &input)
        });
        for o in &out {
            assert_eq!(o, &[0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::KnomialTree { k: 4 }.to_string(), "knomial(4)");
        assert_eq!(
            Algorithm::RecursiveMultiplying { k: 2 }.to_string(),
            "recmult(2)"
        );
        assert_eq!(Algorithm::KRing { k: 8 }.to_string(), "kring(8)");
        assert_eq!(CollectiveOp::Allreduce.to_string(), "allreduce");
    }
}
