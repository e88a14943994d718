//! Live workloads: a single-process TCP world of `P` rank threads running
//! the paper's four collectives through the public dispatch path,
//! `SelectionService::select` → `exacoll_opt::cached_plan` →
//! `Executor::run` over `SocketComm`.

use crate::price::{self, Offline, MAX_K, TAIL_LADDER};
use crate::procfs::{self, Usage};
use crate::report::{CacheTally, Report};
use crate::{stats, Args, Rng};
use exacoll_comm::{Comm, CommResult, DType, Rank, ReduceOp, Req, SgView, Tag};
use exacoll_core::plan_cache::{CacheMetrics, PlanCache};
use exacoll_core::reference::expected_outputs;
use exacoll_core::schedule::CompiledSchedule;
use exacoll_core::spec::{Variant, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES};
use exacoll_core::{CollArgs, CollectiveOp, Executor};
use exacoll_net::{serve_rendezvous, SocketComm, SocketOptions};
use exacoll_opt::cached_plan;
use exacoll_select::{Policy, SelectionService};
use exacoll_sim::Machine;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Ranks in the world. Each rank adds one reader thread per peer, so p=2
/// is 4 threads: the most a 2-core host runs without oversubscription.
const P: usize = 2;

/// The socket runtime's receive poll quantum; a wait at least this long
/// slept through at least one poll.
const POLL_QUANTUM: Duration = Duration::from_millis(25);

/// Receive deadline: a lost message fails the run instead of hanging it.
const DEADLINE: Duration = Duration::from_secs(20);

/// Distinct seeded input sets a run cycles through.
const POOL: usize = 2;

/// Root, element type and reduction of every collective: rank 0, `MPI_INT`
/// sum.
const ROOT: Rank = 0;
const DTYPE: DType = DType::I32;
const ROP: ReduceOp = ReduceOp::Sum;

/// Percentile of a world's steps reported as `step_tail_us`. Ten samples
/// lie beyond it in every world; p90 rather than p99 because a loopback
/// world's p99 on a shared 2-core host moves by half from run to run with
/// the neighbours' load.
const TAIL_PCT: f64 = 90.0;

/// One live workload.
#[derive(Debug)]
pub struct LiveSpec {
    /// Per-rank message sizes; every step runs each of
    /// [`CollectiveOp::EVALUATED`] at each.
    pub sizes: &'static [usize],
    /// Steps between the ranks' agreements on whether to go on.
    pub batch: usize,
    /// Untimed steps after set-up.
    pub warmup: usize,
    /// Measured steps one world serves before it is torn down and a fresh
    /// one is set up. Step percentiles are taken per world and their median
    /// over worlds is reported, which averages thread placement; the fixed
    /// length also keeps a world's per-request state (the socket runtime
    /// never reuses request slots) from growing with the run's speed.
    pub world_steps: u64,
}

/// α-bound: per-message wire writes, reader wake-ups and condvar waits.
pub const TCP_SMALL: LiveSpec = LiveSpec {
    sizes: &[8, 256],
    batch: 16,
    warmup: 100,
    world_steps: 2_000,
};

/// β/γ-bound: gather/scatter/reduce, receive-side copies, large writes.
pub const TCP_LARGE: LiveSpec = LiveSpec {
    sizes: &[4 << 20],
    batch: 2,
    warmup: 4,
    world_steps: 200,
};

/// The machine model the world's selection table is priced on: one
/// Frontier node hosting both ranks.
fn machine() -> Machine {
    Machine::frontier(1, P)
}

/// One collective of a step.
#[derive(Debug, Clone, Copy)]
struct Point {
    op: CollectiveOp,
    bytes: usize,
}

impl Point {
    /// This rank's compiled plan for `variant`, from the global plan cache.
    fn plan(&self, variant: Variant, rank: Rank) -> Result<Arc<CompiledSchedule>, String> {
        let args = CollArgs {
            op: self.op,
            alg: variant.alg,
            root: ROOT,
            dtype: DTYPE,
            rop: ROP,
        };
        cached_plan(
            &args,
            &variant.opt,
            OPT_PIPELINE_CHUNK_BYTES,
            OPT_AGGREGATE_MAX_FUSE_BYTES,
            P,
            rank,
            self.bytes,
        )
        .map_err(|e| format!("{} {} B: {e}", self.op, self.bytes))
    }
}

/// Time and traffic inside `Comm` calls, gathered by [`TimingComm`].
#[derive(Debug, Default, Clone, Copy)]
struct NetCounters {
    send: Duration,
    frames: u64,
    bytes: u64,
    recv_post: Duration,
    wait: Duration,
    waits: u64,
    stalls: u64,
}

impl NetCounters {
    fn in_comm(&self) -> Duration {
        self.send + self.recv_post + self.wait
    }

    fn add(&mut self, o: &NetCounters) {
        self.send += o.send;
        self.frames += o.frames;
        self.bytes += o.bytes;
        self.recv_post += o.recv_post;
        self.wait += o.wait;
        self.waits += o.waits;
        self.stalls += o.stalls;
    }
}

/// A `Comm` wrapper that times every call into the wrapped endpoint.
struct TimingComm<'a, C> {
    inner: &'a mut C,
    k: &'a mut NetCounters,
}

impl<C: Comm> TimingComm<'_, C> {
    fn wait_timed<T>(&mut self, f: impl FnOnce(&mut C) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner);
        let dt = t.elapsed();
        self.k.wait += dt;
        self.k.waits += 1;
        self.k.stalls += u64::from(dt >= POLL_QUANTUM);
        out
    }
}

impl<C: Comm> Comm for TimingComm<'_, C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        let len = data.len() as u64;
        let t = Instant::now();
        let req = self.inner.isend(to, tag, data);
        self.k.send += t.elapsed();
        self.k.frames += 1;
        self.k.bytes += len;
        req
    }
    fn send_sg(&mut self, to: Rank, tag: Tag, view: SgView<'_>) -> CommResult<Req> {
        let len = view.len() as u64;
        let t = Instant::now();
        let req = self.inner.send_sg(to, tag, view);
        self.k.send += t.elapsed();
        self.k.frames += 1;
        self.k.bytes += len;
        req
    }
    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        let t = Instant::now();
        let req = self.inner.irecv(from, tag, bytes);
        self.k.recv_post += t.elapsed();
        req
    }
    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        self.wait_timed(|c| c.wait(req))
    }
    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        self.wait_timed(|c| c.waitall(reqs))
    }
    fn compute(&mut self, bytes: usize) {
        self.inner.compute(bytes)
    }
    fn mark(&mut self, label: &'static str, round: u32) {
        self.inner.mark(label, round)
    }
}

/// Time spent in the dispatch layers above `Comm`, traced steps only.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    select: Duration,
    selects: u64,
    select_hits: u64,
    get: Duration,
    gets: u64,
    exec_self: Duration,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.select += o.select;
        self.selects += o.selects;
        self.select_hits += o.select_hits;
        self.get += o.get;
        self.gets += o.gets;
        self.exec_self += o.exec_self;
    }
}

/// Inputs and reference outputs, generated from the seed before set-up.
struct Inputs {
    points: Vec<Point>,
    /// `[set][point][rank]` input bytes.
    inputs: Vec<Vec<Vec<Vec<u8>>>>,
    /// `[set][point][rank]` expected output bytes.
    expected: Vec<Vec<Vec<Vec<u8>>>>,
}

impl Inputs {
    fn generate(spec: &LiveSpec, seed: u64) -> Result<Inputs, String> {
        let points: Vec<Point> = CollectiveOp::EVALUATED
            .iter()
            .flat_map(|&op| spec.sizes.iter().map(move |&bytes| Point { op, bytes }))
            .collect();
        let mut inputs = Vec::with_capacity(POOL);
        let mut expected = Vec::with_capacity(POOL);
        for set in 0..POOL {
            let mut ins = Vec::with_capacity(points.len());
            let mut exp = Vec::with_capacity(points.len());
            for (j, pt) in points.iter().enumerate() {
                let per_rank: Vec<Vec<u8>> = (0..P)
                    .map(|r| {
                        let stream = ((set * points.len() + j) * P + r) as u64;
                        Rng::new(seed, stream + 1).bytes(pt.bytes)
                    })
                    .collect();
                exp.push(
                    expected_outputs(pt.op, ROOT, DTYPE, ROP, &per_rank)
                        .map_err(|e| format!("reference {}: {e}", pt.op))?,
                );
                ins.push(per_rank);
            }
            inputs.push(ins);
            expected.push(exp);
        }
        Ok(Inputs {
            points,
            inputs,
            expected,
        })
    }
}

/// Shared state of one world.
struct World<'a> {
    data: &'a Inputs,
    svc: &'a SelectionService,
    traced: bool,
    barrier: Barrier,
    go: AtomicBool,
    abort: AtomicBool,
    /// Rank 0's account of the measured loop: its length, and the process
    /// usage and cache metrics over it.
    measured: Mutex<Option<(Duration, Usage, CacheMetrics)>>,
}

/// What one rank brings back from a world.
#[derive(Debug, Default)]
struct RankOut {
    join: Duration,
    setup_done: Option<Instant>,
    /// Measured step durations (ns).
    samples: Vec<u64>,
    /// Steps run, warm-up included.
    steps: u64,
    /// `(step, point)` of every failed operation.
    failures: Vec<(u64, usize)>,
    net: NetCounters,
    layers: Layers,
}

/// One collective through the public dispatch path.
fn dispatch(
    c: &mut SocketComm,
    w: &World<'_>,
    exec: &mut Executor,
    rank: usize,
    j: usize,
    input: &[u8],
) -> Result<Vec<u8>, String> {
    let pt = w.data.points[j];
    let plan = pt.plan(w.svc.select(pt.op, P, pt.bytes), rank)?;
    exec.run(c, &plan, input).map_err(|e| e.to_string())
}

/// One traced collective: the same calls as [`dispatch`], each timed.
fn dispatch_traced(
    c: &mut TimingComm<'_, SocketComm>,
    w: &World<'_>,
    exec: &mut Executor,
    lay: &mut Layers,
    rank: usize,
    j: usize,
    input: &[u8],
) -> Result<Vec<u8>, String> {
    let pt = w.data.points[j];
    lay.select_hits += u64::from(w.svc.lookup(pt.op, P, pt.bytes).is_some());
    let t0 = Instant::now();
    let v = w.svc.select(pt.op, P, pt.bytes);
    let t1 = Instant::now();
    let plan = pt.plan(v, rank);
    let t2 = Instant::now();
    let plan = plan?;
    let comm_before = c.k.in_comm();
    let out = exec.run(c, &plan, input);
    let t3 = Instant::now();
    lay.select += t1 - t0;
    lay.selects += 1;
    lay.get += t2 - t1;
    lay.gets += 1;
    lay.exec_self += (t3 - t2).saturating_sub(c.k.in_comm() - comm_before);
    out.map_err(|e| e.to_string())
}

/// Run one step (every point once), timing it and checking each output
/// against the reference outside the timer.
fn step(c: &mut SocketComm, w: &World<'_>, exec: &mut Executor, out: &mut RankOut, record: bool) {
    let rank = c.rank();
    let set = (out.steps % POOL as u64) as usize;
    let n = w.data.points.len();
    let mut outputs: Vec<Vec<u8>> = Vec::with_capacity(n);
    let mut error = None;
    let traced = w.traced && record;
    let t = Instant::now();
    if traced {
        let mut net = NetCounters::default();
        let mut tc = TimingComm {
            inner: &mut *c,
            k: &mut net,
        };
        for j in 0..n {
            let input = &w.data.inputs[set][j][rank];
            match dispatch_traced(&mut tc, w, exec, &mut out.layers, rank, j, input) {
                Ok(o) => outputs.push(o),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        out.net.add(&net);
    } else {
        for j in 0..n {
            match dispatch(c, w, exec, rank, j, &w.data.inputs[set][j][rank]) {
                Ok(o) => outputs.push(o),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
    }
    let dt = t.elapsed();
    if record {
        out.samples.push(dt.as_nanos() as u64);
    }
    for (j, o) in outputs.iter().enumerate() {
        if *o != w.data.expected[set][j][rank] {
            out.failures.push((out.steps, j));
        }
    }
    if let Some(e) = error {
        eprintln!("exabench: rank {rank} step {}: {e}", out.steps);
        out.failures
            .extend((outputs.len()..n).map(|j| (out.steps, j)));
        w.abort.store(true, Ordering::SeqCst);
        c.abort(rank);
    }
    out.steps += 1;
}

/// One rank of a world: join, compile every point's plan, warm up, then
/// run measured batches while rank 0 says to go on.
fn rank_main(
    rank: usize,
    opts: &SocketOptions,
    w: &World<'_>,
    spec: &LiveSpec,
) -> Result<RankOut, String> {
    let mut out = RankOut::default();
    let t = Instant::now();
    let setup = SocketComm::join(rank, P, opts)
        .map_err(|e| format!("rank {rank} join: {e}"))
        .and_then(|c| {
            out.join = t.elapsed();
            for pt in &w.data.points {
                pt.plan(w.svc.select(pt.op, P, pt.bytes), rank)
                    .map_err(|e| format!("rank {rank} compile: {e}"))?;
            }
            Ok(c)
        });
    // Every rank reaches the barrier, failed or not, so a failed set-up
    // ends the world instead of leaving its peers waiting.
    if setup.is_err() {
        w.abort.store(true, Ordering::SeqCst);
    }
    w.barrier.wait();
    out.setup_done = Some(Instant::now());
    let mut c = setup?;
    if w.abort.load(Ordering::SeqCst) {
        return Ok(out);
    }
    let mut exec = Executor::new();
    for _ in 0..spec.warmup {
        if w.abort.load(Ordering::SeqCst) {
            break;
        }
        step(&mut c, w, &mut exec, &mut out, false);
    }
    // Rank 0 decides between two barriers whether the next batch runs, so
    // every rank runs the same steps, and accounts for the measured loop.
    let start = (rank == 0).then(|| (Instant::now(), Usage::now(), PlanCache::global().metrics()));
    let mut measured = 0u64;
    loop {
        w.barrier.wait();
        if let Some((t0, usage, cache)) = start {
            let go = measured < spec.world_steps && !w.abort.load(Ordering::SeqCst);
            if !go {
                *w.measured.lock().expect("measurement lock") =
                    Some((t0.elapsed(), Usage::now().since(&usage), cache));
            }
            w.go.store(go, Ordering::SeqCst);
        }
        w.barrier.wait();
        if !w.go.load(Ordering::SeqCst) {
            break;
        }
        for _ in 0..spec.batch {
            if w.abort.load(Ordering::SeqCst) {
                break;
            }
            step(&mut c, w, &mut exec, &mut out, true);
        }
        measured += spec.batch as u64;
    }
    Ok(out)
}

/// Outcome of one world: its set-up, and its measured steps.
struct WorldRun {
    setup: Duration,
    join: Duration,
    variants: usize,
    speedup: f64,
    measured: Duration,
    usage: Usage,
    /// Plan-cache metrics at the start of the measured loop.
    cache_before: CacheMetrics,
    cache_after: CacheMetrics,
    ranks: Vec<RankOut>,
}

/// Seed a fresh table, bootstrap the world, compile every plan, then run
/// the world's measured steps. Set-up is timed from before seeding until
/// every rank holds its plans.
fn run_world(data: &Inputs, spec: &LiveSpec, traced: bool) -> Result<WorldRun, String> {
    PlanCache::global().clear();
    let t0 = Instant::now();
    let svc = SelectionService::new(Policy::default());
    let variants = svc.seed_priors(&machine(), &CollectiveOp::EVALUATED, spec.sizes, MAX_K)?;
    svc.publish();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind rendezvous: {e}"))?;
    let mut opts = SocketOptions::new(listener.local_addr().map_err(|e| e.to_string())?);
    opts.deadline = DEADLINE;
    let w = World {
        data,
        svc: &svc,
        traced,
        barrier: Barrier::new(P),
        go: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        measured: Mutex::new(None),
    };
    let results: Vec<Result<RankOut, String>> = std::thread::scope(|s| {
        let server = s.spawn(|| serve_rendezvous(&listener, P, DEADLINE));
        let ranks: Vec<_> = (0..P)
            .map(|rank| {
                let (opts, w) = (&opts, &w);
                s.spawn(move || rank_main(rank, opts, w, spec))
            })
            .collect();
        let out = ranks
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("rank thread panicked".into()))
            })
            .collect();
        let _ = server.join();
        out
    });
    let ranks = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let grid: Vec<(CollectiveOp, usize)> = data.points.iter().map(|p| (p.op, p.bytes)).collect();
    let speedup = price::modeled_speedup(&svc, P, &grid)?;
    let done = ranks
        .iter()
        .filter_map(|r| r.setup_done)
        .max()
        .ok_or("no rank finished set-up")?;
    let (measured, usage, cache_before) = w
        .measured
        .into_inner()
        .expect("measurement lock")
        .ok_or("rank 0 did not measure")?;
    Ok(WorldRun {
        setup: done - t0,
        join: ranks.iter().map(|r| r.join).max().unwrap_or_default(),
        variants,
        speedup,
        measured,
        usage,
        cache_before,
        cache_after: PlanCache::global().metrics(),
        ranks,
    })
}

/// Everything the worlds of one mode measured.
#[derive(Debug, Default)]
struct Pooled {
    /// Each world's step-latency median and tail, µs.
    world_p50: Vec<f64>,
    world_tail: Vec<f64>,
    /// The tail percentile each world supported.
    tail_pcts: Vec<f64>,
    steps: usize,
    measured: Duration,
    usage: Usage,
    cache: CacheTally,
    net: NetCounters,
    layers: Layers,
}

impl Pooled {
    fn add(&mut self, s: &WorldRun) -> Result<(), String> {
        // A rank that aborted stops early; its peer's extra steps are not
        // comparable, so only steps every rank completed count.
        let shortest = s.ranks.iter().map(|r| r.samples.len()).min().unwrap_or(0);
        if shortest == 0 {
            return Ok(());
        }
        let per_rank: Vec<Vec<u64>> = s
            .ranks
            .iter()
            .map(|r| r.samples[..shortest].to_vec())
            .collect();
        let mut us: Vec<f64> = stats::max_over_ranks(&per_rank)?
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();
        us.sort_by(f64::total_cmp);
        let (pct, tail) = stats::tail(&us, TAIL_PCT, TAIL_LADDER);
        self.world_p50.push(stats::percentile(&us, 50.0));
        self.world_tail.push(tail);
        self.tail_pcts.push(pct);
        self.steps += us.len();
        self.measured += s.measured;
        self.usage.add(&s.usage);
        self.cache.add(&s.cache_before, &s.cache_after);
        for o in &s.ranks {
            self.net.add(&o.net);
            self.layers.add(&o.layers);
        }
        Ok(())
    }
}

/// Run a live workload: worlds are set up and measured one after another
/// until the measured time reaches the budget. A traced run alternates
/// untraced and traced worlds, giving each mode half the budget.
pub fn run(spec: &LiveSpec, args: &Args) -> Result<Report, String> {
    let data = Inputs::generate(spec, args.seed)?;
    let budgets = if args.trace {
        [args.seconds / 2, args.seconds - args.seconds / 2]
    } else {
        [args.seconds, Duration::ZERO]
    };
    let mut pooled = [Pooled::default(), Pooled::default()];
    let (mut setups, mut joins) = (Vec::new(), Vec::new());
    let mut r = Report::default();
    let mut variants = None;
    let mut speedup = 0.0;
    let mut mode = 0;
    while let Some(m) = [mode, 1 - mode]
        .into_iter()
        .find(|&m| pooled[m].measured < budgets[m])
    {
        let s = run_world(&data, spec, m == 1)?;
        setups.push(s.setup.as_secs_f64());
        joins.push(s.join.as_secs_f64());
        speedup = s.speedup;
        if *variants.get_or_insert(s.variants) != s.variants {
            eprintln!(
                "exabench: seeding priced {} variants, first world {variants:?}",
                s.variants
            );
            r.failed += 1;
        }
        let mut failures: Vec<(u64, usize)> =
            s.ranks.iter().flat_map(|o| o.failures.clone()).collect();
        failures.sort_unstable();
        failures.dedup();
        r.failed += failures.len() as u64;
        r.attempted +=
            s.ranks.iter().map(|o| o.steps).max().unwrap_or(0) * data.points.len() as u64;
        pooled[m].add(&s)?;
        mode = 1 - m;
    }
    let [plain, traced] = &pooled;
    if plain.world_p50.is_empty() {
        return Err("no step completed".into());
    }
    let p50 = |p: &Pooled| stats::median(&p.world_p50);
    if args.trace {
        if traced.world_p50.is_empty() {
            return Err("no traced step completed".into());
        }
        let (net, lay) = (&traced.net, &traced.layers);
        // Per-layer times and counts are per step per rank.
        let rank_steps = (traced.steps * P) as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6 / rank_steps;
        r.set(
            "select.select_ns",
            lay.select.as_nanos() as f64 / lay.selects as f64,
        );
        r.set(
            "select.hit_ratio",
            lay.select_hits as f64 / lay.selects as f64,
        );
        r.set("select.variants", variants.unwrap_or(0) as f64);
        r.set(
            "core.plan_cache.get_ns",
            lay.get.as_nanos() as f64 / lay.gets as f64,
        );
        traced.cache.report(&mut r);
        r.set("core.executor.self_us", us(lay.exec_self));
        r.set("net.send_us", us(net.send));
        r.set("net.recv_post_us", us(net.recv_post));
        r.set("net.frames", net.frames as f64 / rank_steps);
        r.set("net.bytes", net.bytes as f64 / rank_steps);
        r.set("net.wait_us", us(net.wait));
        r.set("net.waits", net.waits as f64 / rank_steps);
        r.set("net.stalls_25ms", net.stalls as f64);
        r.set("net.join_ms", stats::median(&joins) * 1e3);
        let ops = traced.steps as u64 * data.points.len() as u64;
        r.usage(&traced.usage, ops);
        r.set(
            "trace.overhead_pct",
            (p50(traced) - p50(plain)) / p50(plain) * 100.0,
        );
        let k = offline_layers(spec, &mut r)?;
        if Some(k.variants as usize) != variants {
            eprintln!(
                "exabench: decomposition priced {} variants, seed_priors {variants:?}",
                k.variants
            );
            r.failed += 1;
        }
        r.note("steps_traced", traced.steps);
    } else {
        r.set("step_p50_us", p50(plain));
        r.set("step_tail_us", stats::median(&plain.world_tail));
        r.set("modeled_speedup", speedup);
        r.set("setup_s", stats::median(&setups));
        r.set(
            "success_ratio",
            (r.attempted - r.failed) as f64 / r.attempted as f64,
        );
        r.set("peak_rss_mb", procfs::peak_rss_mib());
        r.note("step_tail_pct", stats::median(&plain.tail_pcts));
    }
    r.note("step_samples", plain.steps);
    r.note("steps_per_world", spec.world_steps);
    r.note("machine", format!("frontier-1x{P} (loopback TCP)"));
    r.note("rank_threads", P);
    r.note("world_threads", P + P * (P - 1));
    r.note("oversubscribed", P > procfs::nproc());
    r.note("worlds", setups.len());
    Ok(r)
}

/// The offline layers of this world's table seeding: one decomposed pass
/// over the step's grid, each point checked against a real `seed_priors`
/// pass. Sets the offline per-layer metrics and returns the layer totals.
fn offline_layers(spec: &LiveSpec, r: &mut Report) -> Result<Offline, String> {
    let m = machine();
    let svc = SelectionService::new(Policy::default());
    svc.seed_priors(&m, &CollectiveOp::EVALUATED, spec.sizes, MAX_K)?;
    PlanCache::global().clear();
    let mut k = Offline::default();
    for op in CollectiveOp::EVALUATED {
        for &bytes in spec.sizes {
            r.attempted += 1;
            let priced = price::decompose_point(&mut k, &m, op, bytes)?;
            if !price::matches_priors(&priced, &price::priors(&svc, op, P, bytes)) {
                eprintln!("exabench: {op} {bytes} B: decomposition differs from the priors");
                r.failed += 1;
            }
        }
    }
    k.passes = 1;
    k.report(r);
    r.set(
        "core.plan_cache.insert_ns",
        k.insert.as_nanos() as f64 / k.inserts.max(1) as f64,
    );
    Ok(k)
}
