//! Offline workloads: cold `SelectionService::seed_priors` passes on the
//! Frontier preset, and the traced decomposition of the same pass into the
//! public calls `seed_point` makes.

use crate::procfs::{self, Usage};
use crate::report::{CacheTally, Report};
use crate::{stats, Args};
use exacoll_comm::RankTrace;
use exacoll_core::plan_cache::{PlanCache, PlanKey};
use exacoll_core::registry::{default_algorithm, lower, unique_candidates};
use exacoll_core::schedule::{compile, CompiledSchedule, Schedule};
use exacoll_core::spec::{
    OptSpec, Variant, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES,
};
use exacoll_core::{CollArgs, CollectiveOp};
use exacoll_opt::apply_opt_spec;
use exacoll_select::{bucket_of_bytes, Policy, SelectionService};
use exacoll_sim::{simulate, Machine};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest radix priced.
pub const MAX_K: usize = 8;

/// Percentiles tried, in order, when a run is too short for its
/// workload's tail percentile.
pub const TAIL_LADDER: &[f64] = &[99.0, 95.0, 90.0, 75.0, 50.0];

/// One offline workload: a Frontier machine shape and a pricing grid.
#[derive(Debug)]
pub struct PriceSpec {
    /// Frontier nodes.
    pub nodes: usize,
    /// Ranks per node.
    pub ppn: usize,
    /// Collectives priced.
    pub ops: &'static [CollectiveOp],
    /// Per-rank message sizes priced.
    pub sizes: &'static [usize],
}

/// p=8 large messages: `to_trace` fabricates zero buffers in O(bytes) and
/// dominates; the 2 MiB point is above the pipelining threshold, so
/// `@pipeline` variants are priced too. Allgather is left out: its 2 MiB
/// point alone takes longer than a whole run can afford to repeat.
pub const PRICE_LARGE: PriceSpec = PriceSpec {
    nodes: 2,
    ppn: 4,
    ops: &[
        CollectiveOp::Allreduce,
        CollectiveOp::Bcast,
        CollectiveOp::Reduce,
    ],
    sizes: &[64 << 10, 2 << 20],
};

/// Layer totals of decomposed seeding passes.
#[derive(Debug, Default, Clone)]
pub struct Offline {
    /// Passes accumulated.
    pub passes: u64,
    /// `unique_candidates` plus `registry::lower`.
    pub lower: Duration,
    /// `apply_opt_spec`.
    pub apply: Duration,
    /// `schedule::compile`.
    pub compile: Duration,
    /// `CompiledSchedule::to_trace`, plus the plain-vs-pipelined trace
    /// comparison `seed_point` makes.
    pub trace: Duration,
    /// `exacoll_sim::simulate`.
    pub simulate: Duration,
    /// `PlanCache::get`.
    pub get: Duration,
    /// Cache lookups.
    pub gets: u64,
    /// `PlanCache::insert`.
    pub insert: Duration,
    /// Cache inserts.
    pub inserts: u64,
    /// Trace ops recorded.
    pub trace_ops: u64,
    /// Variants priced.
    pub variants: u64,
}

impl Offline {
    /// Per-pass means of the layer totals, as per-layer metrics.
    pub fn report(&self, r: &mut Report) {
        let passes = self.passes.max(1) as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / passes;
        r.set("core.lower_ms", ms(self.lower));
        r.set("opt.apply_ms", ms(self.apply));
        r.set("core.compile_ms", ms(self.compile));
        r.set("comm.trace_ms", ms(self.trace));
        r.set("sim.simulate_ms", ms(self.simulate));
        r.set("comm.trace_ops", self.trace_ops as f64 / passes);
        r.set("select.variants", self.variants as f64 / passes);
    }
}

/// The per-rank payload `seed_point` prices for `op` at `bytes`.
fn probe_len(op: CollectiveOp, bytes: usize, p: usize) -> usize {
    match op {
        CollectiveOp::Alltoall | CollectiveOp::ReduceScatter => bytes.max(p).div_ceil(p) * p,
        CollectiveOp::Barrier => 0,
        _ => bytes.max(1),
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// `cached_world`, decomposed: `p` cache lookups; on any miss, lower,
/// rewrite, compile and insert the whole world.
fn world(
    k: &mut Offline,
    args: &CollArgs,
    opt: &OptSpec,
    p: usize,
    n: usize,
) -> Result<Vec<Arc<CompiledSchedule>>, String> {
    let (chunk, fuse) = (OPT_PIPELINE_CHUNK_BYTES, OPT_AGGREGATE_MAX_FUSE_BYTES);
    let cache = PlanCache::global();
    let key = |r| PlanKey::with_opt(args, opt, chunk, fuse, p, r, n);
    let hits: Vec<_> = timed(&mut k.get, || (0..p).map(|r| cache.get(&key(r))).collect());
    k.gets += p as u64;
    if hits.iter().all(Option::is_some) {
        return Ok(hits.into_iter().flatten().collect());
    }
    let plans: Vec<Schedule> = timed(&mut k.lower, || {
        (0..p).map(|r| lower(args, p, r, n)).collect()
    });
    let plans = if opt.is_none() {
        plans
    } else {
        timed(&mut k.apply, || apply_opt_spec(&plans, opt, chunk, fuse))
            .map_err(|e| format!("optimizing {}/{}: {e}", args.op, args.alg))?
    };
    let compiled: Vec<CompiledSchedule> =
        timed(&mut k.compile, || plans.iter().map(compile).collect());
    k.inserts += p as u64;
    Ok(timed(&mut k.insert, || {
        compiled
            .into_iter()
            .enumerate()
            .map(|(r, plan)| cache.insert(key(r), plan))
            .collect()
    }))
}

fn traces(k: &mut Offline, world: &[Arc<CompiledSchedule>]) -> Vec<RankTrace> {
    let out: Vec<RankTrace> = timed(&mut k.trace, || {
        world.iter().map(|s| s.to_trace()).collect()
    });
    k.trace_ops += out.iter().map(|t| t.ops.len() as u64).sum::<u64>();
    out
}

fn makespan(k: &mut Offline, m: &Machine, traces: &[RankTrace]) -> Result<f64, String> {
    timed(&mut k.simulate, || simulate(m, traces))
        .map(|o| o.makespan.as_nanos())
        .map_err(|e| e.to_string())
}

/// Price one grid point the way `SelectionService::seed_point` does, one
/// public call at a time, accumulating each layer's time into `k`. Returns
/// every priced variant with its modeled makespan.
pub fn decompose_point(
    k: &mut Offline,
    m: &Machine,
    op: CollectiveOp,
    bytes: usize,
) -> Result<Vec<(Variant, f64)>, String> {
    let p = m.ranks();
    let n = probe_len(op, bytes, p);
    let cands = timed(&mut k.lower, || unique_candidates(op, p, MAX_K));
    let mut priced = Vec::with_capacity(cands.len());
    for alg in cands {
        let args = CollArgs::new(op, alg);
        let plain = world(k, &args, &OptSpec::NONE, p, n)?;
        let plain_traces = traces(k, &plain);
        priced.push((Variant::plain(alg), makespan(k, m, &plain_traces)?));
        let piped = world(k, &args, &OptSpec::PIPELINE, p, n)?;
        let piped_traces = traces(k, &piped);
        if timed(&mut k.trace, || piped_traces != plain_traces) {
            let variant = Variant {
                alg,
                opt: OptSpec::PIPELINE,
            };
            priced.push((variant, makespan(k, m, &piped_traces)?));
        }
    }
    k.variants += priced.len() as u64;
    Ok(priced)
}

/// The priors `svc` holds for the bucket of (`op`, p, `bytes`), as
/// `(variant spec, prior ns)` in canonical order.
pub fn priors(
    svc: &SelectionService,
    op: CollectiveOp,
    p: usize,
    bytes: usize,
) -> Vec<(String, f64)> {
    let bucket = bucket_of_bytes(bytes);
    let mut out = Vec::new();
    svc.for_each_bucket(|o, q, b, cells| {
        if (o, q, b) == (op, p, bucket) {
            out = cells
                .iter()
                .filter_map(|c| Some((c.variant.spec(), c.prior_ns?)))
                .collect();
        }
    });
    out
}

/// Whether a decomposed point's makespans equal the seeded priors exactly.
pub fn matches_priors(priced: &[(Variant, f64)], seeded: &[(String, f64)]) -> bool {
    let mut ours: Vec<(String, f64)> = priced.iter().map(|(v, ns)| (v.spec(), *ns)).collect();
    ours.sort_by(|a, b| a.0.cmp(&b.0));
    ours == seeded
}

/// Default algorithm's modeled makespan ÷ the selected winner's, at one
/// grid point (paper Fig. 9's speedup).
pub fn point_speedup(
    svc: &SelectionService,
    op: CollectiveOp,
    p: usize,
    bytes: usize,
) -> Result<f64, String> {
    let seeded = priors(svc, op, p, bytes);
    let prior_of = |v: Variant| {
        let spec = v.spec();
        seeded
            .iter()
            .find(|(s, _)| *s == spec)
            .map(|(_, ns)| *ns)
            .ok_or_else(|| format!("{op} {bytes} B: no prior for {spec}"))
    };
    let default = prior_of(Variant::plain(default_algorithm(op)))?;
    let winner = prior_of(svc.select(op, p, bytes))?;
    Ok(default / winner)
}

/// Geometric-mean speedup over a grid.
pub fn modeled_speedup(
    svc: &SelectionService,
    p: usize,
    grid: &[(CollectiveOp, usize)],
) -> Result<f64, String> {
    let ratios = grid
        .iter()
        .map(|&(op, bytes)| point_speedup(svc, op, p, bytes))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(stats::geomean(&ratios))
}

/// Set the live-path metrics an offline run does not exercise: no socket
/// world, no executor on a live `Comm`.
fn no_live_path(r: &mut Report) {
    for name in [
        "core.executor.self_us",
        "net.send_us",
        "net.recv_post_us",
        "net.frames",
        "net.bytes",
        "net.wait_us",
        "net.waits",
        "net.stalls_25ms",
        "net.join_ms",
    ] {
        r.set(name, 0.0);
    }
}

/// Run an offline workload.
pub fn run(spec: &PriceSpec, args: &Args) -> Result<Report, String> {
    // The grid is the workload: nothing in it is drawn from the seed. (A
    // seeded grid order was tried and moved peak RSS by 10% between seeds,
    // since plans are freed and reallocated in a different order.)
    let grid: Vec<(CollectiveOp, usize)> = spec
        .ops
        .iter()
        .flat_map(|&op| spec.sizes.iter().map(move |&b| (op, b)))
        .collect();
    let mut r = Report::default();

    // Set-up: build the machine and the service, then one warm-up pass
    // that fills the allocator's arenas and records the priors every
    // measured pass must reproduce.
    let t = Instant::now();
    let m = Machine::frontier(spec.nodes, spec.ppn);
    let svc = SelectionService::new(Policy::default());
    let (variants, _) = seed_pass(&svc, &m, &grid, &mut r);
    let setup = t.elapsed().as_secs_f64();
    let reference = svc.to_json().pretty();
    let p = m.ranks();

    // Measured passes. A traced run alternates untraced and decomposed
    // passes, so the host's drift in speed falls on both alike.
    let mut passes_s = Vec::new();
    let mut k = Offline::default();
    let mut traced_passes = Vec::new();
    let (mut usage, mut cache) = (Usage::default(), CacheTally::default());
    let start = Instant::now();
    while passes_s.is_empty()
        || (args.trace && traced_passes.is_empty())
        || start.elapsed() < args.seconds
    {
        if args.trace && traced_passes.len() < passes_s.len() {
            let (u, c) = (Usage::now(), PlanCache::global().metrics());
            traced_passes.push(decomposed_pass(&mut k, &svc, &m, &grid, &mut r));
            usage.add(&Usage::now().since(&u));
            cache.add(&c, &PlanCache::global().metrics());
            continue;
        }
        let (n, secs) = seed_pass(&svc, &m, &grid, &mut r);
        passes_s.push(secs);
        // Every cold pass must price the same variants to the same priors.
        if n != variants || svc.to_json().pretty() != reference {
            eprintln!("exabench: a seeding pass priced differently from the first");
            r.failed += grid.len() as u64;
        }
    }
    let untraced_pass = stats::median(&passes_s);

    if args.trace {
        no_live_path(&mut r);
        r.usage(&usage, k.passes * grid.len() as u64);
        cache.report(&mut r);
        if k.variants != variants * k.passes {
            eprintln!("exabench: decomposition priced a different number of variants");
            r.failed += 1;
        }
        // `select` is not on a seeding pass's path; it is timed on the
        // table the passes built, once per grid point per traced pass.
        let (mut select, mut hits) = (Duration::ZERO, 0u64);
        for &(op, bytes) in grid.iter().cycle().take(grid.len() * traced_passes.len()) {
            hits += u64::from(svc.lookup(op, p, bytes).is_some());
            let t = Instant::now();
            std::hint::black_box(svc.select(op, p, bytes));
            select += t.elapsed();
        }
        let selects = (grid.len() * traced_passes.len()) as f64;
        k.report(&mut r);
        r.set("select.select_ns", select.as_nanos() as f64 / selects);
        r.set("select.hit_ratio", hits as f64 / selects);
        r.set(
            "core.plan_cache.get_ns",
            k.get.as_nanos() as f64 / k.gets.max(1) as f64,
        );
        r.set(
            "core.plan_cache.insert_ns",
            k.insert.as_nanos() as f64 / k.inserts.max(1) as f64,
        );
        let traced_pass = stats::median(&traced_passes);
        r.set(
            "trace.overhead_pct",
            (traced_pass - untraced_pass) / untraced_pass * 100.0,
        );
        r.note("passes_traced", traced_passes.len());
    } else {
        let mut steps_us: Vec<f64> = passes_s.iter().map(|s| s * 1e6).collect();
        steps_us.sort_by(f64::total_cmp);
        // A run holds about fifteen passes: too few for ten beyond any
        // percentile, so the tail falls back to the median.
        let (pct, tail) = stats::tail(&steps_us, 99.0, TAIL_LADDER);
        r.set("step_p50_us", stats::percentile(&steps_us, 50.0));
        r.set("step_tail_us", tail);
        r.set("modeled_speedup", modeled_speedup(&svc, p, &grid)?);
        r.set("setup_s", setup);
        r.set(
            "success_ratio",
            (r.attempted - r.failed) as f64 / r.attempted as f64,
        );
        r.set("peak_rss_mb", procfs::peak_rss_mib());
        r.note("step_tail_pct", pct);
    }
    r.note("machine", format!("frontier-{}x{}", spec.nodes, spec.ppn));
    r.note("step_samples", passes_s.len());
    r.note("variants_per_pass", variants);
    r.note("world_threads", procfs::threads());
    Ok(r)
}

/// One cold decomposed pass: clear the plan cache, then price every grid
/// point with [`decompose_point`], checking its makespans against the
/// priors `svc` holds. Returns the pass's wall time in seconds.
fn decomposed_pass(
    k: &mut Offline,
    svc: &SelectionService,
    m: &Machine,
    grid: &[(CollectiveOp, usize)],
    r: &mut Report,
) -> f64 {
    PlanCache::global().clear();
    let t = Instant::now();
    for &(op, bytes) in grid {
        r.attempted += 1;
        match decompose_point(k, m, op, bytes) {
            Ok(priced) if matches_priors(&priced, &priors(svc, op, m.ranks(), bytes)) => {}
            Ok(_) => {
                eprintln!("exabench: {op} {bytes} B: decomposition differs from the priors");
                r.failed += 1;
            }
            Err(e) => {
                eprintln!("exabench: decomposing {op} {bytes} B: {e}");
                r.failed += 1;
            }
        }
    }
    k.passes += 1;
    t.elapsed().as_secs_f64()
}

/// One cold pass: clear the plan cache, then seed every grid point through
/// the public `seed_priors` entry point, one call per point so a failing
/// point is counted on its own, and publish. Returns the variants priced
/// and the pass's wall time in seconds.
fn seed_pass(
    svc: &SelectionService,
    m: &Machine,
    grid: &[(CollectiveOp, usize)],
    r: &mut Report,
) -> (u64, f64) {
    PlanCache::global().clear();
    let t = Instant::now();
    let mut variants = 0u64;
    for &(op, bytes) in grid {
        r.attempted += 1;
        match svc.seed_priors(m, &[op], &[bytes], MAX_K) {
            Ok(n) => variants += n as u64,
            Err(e) => {
                eprintln!("exabench: seeding {op} {bytes} B: {e}");
                r.failed += 1;
            }
        }
    }
    svc.publish();
    (variants, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_reproduces_seed_point_priors() {
        let m = Machine::frontier(1, 4);
        let svc = SelectionService::new(Policy::default());
        let mut k = Offline::default();
        for (op, bytes) in [
            (CollectiveOp::Allreduce, 4096),
            (CollectiveOp::Bcast, 3 << 20),
        ] {
            svc.seed_point(&m, op, bytes, MAX_K).unwrap();
            let priced = decompose_point(&mut k, &m, op, bytes).unwrap();
            assert!(matches_priors(&priced, &priors(&svc, op, 4, bytes)));
        }
        assert!(k.trace_ops > 0 && k.variants > 0);
        // The pipelined variants only appear above the chunk threshold.
        assert!(priors(&svc, CollectiveOp::Bcast, 4, 3 << 20)
            .iter()
            .any(|(s, _)| s.contains('@')));
        svc.publish();
        let s = point_speedup(&svc, CollectiveOp::Allreduce, 4, 4096).unwrap();
        assert!(s >= 1.0, "the winner is never slower than the default: {s}");
    }
}
