//! Dispatch-overhead microbenchmark of the execution hot path.
//!
//! Collective *dispatch* — everything between `execute(...)` and the first
//! byte handed to the transport — is pure overhead at small message sizes,
//! where an exascale α-bound collective lives or dies on per-call cost.
//! This bench isolates it by running one rank's plan over a [`SinkComm`]
//! (a transport that costs as close to nothing as the `Comm` contract
//! allows: no threads, no sockets, no hygiene bookkeeping — receives
//! complete instantly with zeroed payloads) and timing two paths per
//! message size:
//!
//! * **cold** — lower + compile + execute per call: the cache-miss cost,
//!   i.e. dispatch without the plan cache.
//! * **cached** — plan-cache hit + executor with persistent arenas: the
//!   steady-state hot path every dispatch site takes.
//!
//! The acceptance bar (asserted, not just reported): at α-bound sizes
//! (≤ 256 B) the cached path must cost at most half of the cold path per
//! call. Raw numbers land in `results/hotpath.json`.

use exacoll_comm::{Comm, CommError, CommResult, Rank, Req, SgView, Tag};
use exacoll_core::plan_cache::{PlanCache, PlanKey};
use exacoll_core::registry::{lower, Algorithm, CollArgs, CollectiveOp};
use exacoll_core::schedule::{compile, Executor};
use exacoll_json::Value;
use exacoll_osu::sweep::fmt_size;
use exacoll_osu::Table;
use std::time::Instant;

/// A transport whose cost is as close to zero as the [`Comm`] contract
/// allows: requests are indices into a reused op list, receives complete
/// with zeroed payloads, scatter-gather sends drop the view without
/// gathering (like a vectored wire would). Whatever a measured path spends
/// beyond this floor is dispatch overhead — the quantity under test.
struct SinkComm {
    rank: Rank,
    size: usize,
    /// `bytes + 1` for a posted receive, 0 for a posted send.
    reqs: Vec<usize>,
}

impl SinkComm {
    fn new(rank: Rank, size: usize) -> SinkComm {
        SinkComm {
            rank,
            size,
            reqs: Vec::new(),
        }
    }

    /// Start the next call: forget posted requests, keep the allocation.
    fn reset(&mut self) {
        self.reqs.clear();
    }
}

impl Comm for SinkComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, _to: Rank, _tag: Tag, _data: Vec<u8>) -> CommResult<Req> {
        self.reqs.push(0);
        Ok(Req::from_index(self.reqs.len() - 1))
    }

    fn send_sg(&mut self, _to: Rank, _tag: Tag, _view: SgView<'_>) -> CommResult<Req> {
        self.reqs.push(0);
        Ok(Req::from_index(self.reqs.len() - 1))
    }

    fn irecv(&mut self, _from: Rank, _tag: Tag, bytes: usize) -> CommResult<Req> {
        self.reqs.push(bytes + 1);
        Ok(Req::from_index(self.reqs.len() - 1))
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        match self.reqs.get(req.index()) {
            Some(0) => Ok(None),
            Some(&marker) => Ok(Some(vec![0u8; marker - 1])),
            None => Err(CommError::UnknownRequest {
                handle: req.index(),
            }),
        }
    }

    fn compute(&mut self, _bytes: usize) {}
}

/// Message sizes swept: 8 B to 64 KiB.
const SIZES: &[usize] = &[8, 64, 256, 4 << 10, 64 << 10];

/// Sizes where dispatch dominates and the ≥2x bar applies.
const ALPHA_BOUND: usize = 256;

/// Time `f` over `iters` calls and return mean ns/call. A warmup pass
/// lets the cache fill and the branch predictors settle before timing.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Run the hot-path benchmark; also writes `results/hotpath.json`.
pub fn run(quick: bool) -> Vec<Table> {
    let (p, rank) = (8, 3);
    let args = CollArgs::new(
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 2 },
    );
    let iters = if quick { 1000 } else { 5000 };

    let mut t = Table::new(
        format!("dispatch overhead, allreduce/recmult(2) p={p} rank {rank} (ns per call)"),
        &["size", "cold", "cached", "cached speedup"],
    );
    let mut rows = Vec::new();
    for &n in SIZES {
        let input = vec![1u8; n];
        // Fewer iterations at sizes where the executor's own copies dominate.
        let iters = if n > 1024 { iters / 4 } else { iters };

        let mut c = SinkComm::new(rank, p);

        let cold = per_call_ns(iters, || {
            let plan = compile(&lower(&args, p, rank, n));
            c.reset();
            Executor::new()
                .run(&mut c, &plan, &input)
                .expect("cold run");
        });
        // Steady state: a resident cache entry and an executor whose
        // request/destination arenas persist across calls — exactly what a
        // dispatch site sees from call two onward.
        let cache = PlanCache::new();
        let key = PlanKey::plain(&args, p, rank, n);
        let mut exec = Executor::new();
        let cached = per_call_ns(iters, || {
            let plan = cache.get_or_insert_with(key, || compile(&lower(&args, p, rank, n)));
            c.reset();
            exec.run(&mut c, &plan, &input).expect("cached run");
        });

        let speedup = cold / cached;
        if n <= ALPHA_BOUND {
            assert!(
                speedup >= 2.0,
                "{}: cached path must be >=2x cheaper than cold dispatch \
                 (lower + compile + execute) at alpha-bound sizes, got \
                 {speedup:.2}x (cold {cold:.0} ns, cached {cached:.0} ns)",
                fmt_size(n)
            );
        }
        t.row(vec![
            fmt_size(n),
            format!("{cold:.0}"),
            format!("{cached:.0}"),
            format!("{speedup:.2}x"),
        ]);
        rows.push(Value::obj(vec![
            ("bytes", Value::Num(n as f64)),
            ("cold_ns_per_call", Value::Num(cold)),
            ("cached_ns_per_call", Value::Num(cached)),
            ("cached_speedup_vs_cold", Value::Num(speedup)),
        ]));
    }
    if std::fs::create_dir_all("results").is_ok() {
        let json = Value::obj(vec![
            ("bench", Value::Str("hotpath".into())),
            ("quick", Value::Bool(quick)),
            (
                "case",
                Value::Str(format!("allreduce/recmult(2) p={p} rank {rank}")),
            ),
            ("alpha_bound_bytes", Value::Num(ALPHA_BOUND as f64)),
            ("sizes", Value::Arr(rows)),
        ]);
        let _ = std::fs::write("results/hotpath.json", json.pretty());
    }
    vec![t]
}
