//! `exacoll launch` — multi-process execution on the TCP backend.
//!
//! The launcher hosts the rendezvous listener, forks one worker **process**
//! per rank (re-invoking its own binary with `EXACOLL_RANK`/`EXACOLL_ROOT`
//! in the environment), and waits for all of them under a hard timeout so a
//! matching-logic deadlock fails the job instead of hanging it. Each worker
//! joins the socket world, runs the chosen collective under a [`TimedComm`],
//! verifies its own output against the sequential reference (inputs are the
//! deterministic [`exacoll_obs::payload`] pattern, so every process can
//! reconstruct all inputs without any data exchange), and exits non-zero on
//! any mismatch.
//!
//! `--spawn N` launches only ranks `0..N` locally and prints the
//! environment for the rest, so the remaining workers can be started by
//! hand on other hosts (`--bind` must then name an external interface).
//!
//! With `--chrome FILE`, workers additionally dump their timelines as JSON
//! (via `EXACOLL_TIMELINE`); the launcher merges them into one Chrome trace
//! with one track per rank.
//!
//! With `--record DIR`, workers dump their canonical event logs as per-rank
//! fragments (via `EXACOLL_RECORD`) — written *before* any execute error
//! propagates, so failed runs still leave evidence — and the launcher merges
//! them into one self-contained replay artifact under `DIR`, checkable
//! offline with `exacoll replay`.

use crate::args::{alg_to_spec, parse_alg, parse_backend, parse_size, Args, Backend};
use exacoll_comm::{fnv1a, RecordComm};
use exacoll_core::plan_cache::{PlanCache, PlanKey};
use exacoll_core::reference::{expected_outputs, expected_outputs_v};
use exacoll_core::registry::{lower, lower_v, supports_v};
use exacoll_core::schedule::verify::{verify, verify_tenants, TenantPlans};
use exacoll_core::schedule::{compile, Executor, Schedule};
use exacoll_core::spec::{opt_to_spec, variant_to_spec, CountsSpec, OptSpec, Variant};
use exacoll_core::tenant::MAX_TENANTS;
use exacoll_core::{
    execute, merge_tenants, run_tenants, Algorithm, CollArgs, CollectiveOp, Tenant,
};
use exacoll_net::{serve_rendezvous, SocketComm, SocketOptions};
use exacoll_obs::{
    chrome_trace, makespan_ns, payload, rank_tracks, timeline_from_json, timeline_to_json,
    BackendRun, ProfileSpec, RankTimeline, TimedComm,
};
use exacoll_opt::cached_plan;
use exacoll_replay::{Artifact, RankLog, RankStatus};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What to run: one collective × algorithm × world size × message size,
/// bounded by a wall-clock timeout.
#[derive(Debug, Clone)]
struct LaunchSpec {
    op: CollectiveOp,
    alg: Algorithm,
    ranks: usize,
    size: usize,
    timeout: Duration,
    /// Optimizer passes to apply to the lowered plan before running (every
    /// worker rewrites deterministically, so all processes agree).
    opt: OptSpec,
    /// Pipelining chunk threshold.
    chunk: usize,
    /// Aggregation fuse ceiling.
    fuse: usize,
    /// Set when `--select auto` resolved the algorithm: the learned-table
    /// path to feed the measured makespan back into. Launcher-only state —
    /// `worker_argv` hands workers the concrete `--alg`, never `--select`.
    select_table: Option<String>,
    /// Per-rank byte counts for the irregular ("v") variant; `None` runs
    /// the uniform collective at `size` bytes per rank.
    counts: Option<CountsSpec>,
    /// Concurrent collectives sharing the runtime in disjoint tag windows;
    /// 1 is the plain single-collective launch.
    tenants: usize,
}

/// Per-rank input length for (op, ranks, size): alltoall needs a multiple
/// of `p`, barrier carries no payload (mirrors `ProfileSpec::input_len`).
fn input_len_of(op: CollectiveOp, ranks: usize, size: usize) -> usize {
    match op {
        CollectiveOp::Alltoall => {
            if size < ranks {
                ranks
            } else {
                size - size % ranks
            }
        }
        CollectiveOp::Barrier => 0,
        _ => size,
    }
}

impl LaunchSpec {
    fn from_args(args: &Args) -> Result<LaunchSpec, String> {
        let op = match args.positional() {
            Some(name) => crate::args::parse_op(name)?,
            None => args.op()?,
        };
        let ranks = args.req_usize("ranks")?;
        if ranks == 0 {
            return Err("--ranks must be at least 1".into());
        }
        let size = match args.opt("size") {
            None => 1024,
            Some(s) => parse_size(s).ok_or_else(|| format!("bad --size `{s}`"))?,
        };
        let counts = args.opt("counts").map(CountsSpec::parse).transpose()?;
        let tenants = args.opt_usize("tenants", 1)?;
        if tenants == 0 {
            return Err("--tenants must be at least 1".into());
        }
        if tenants > MAX_TENANTS {
            return Err(format!("--tenants {tenants} exceeds {MAX_TENANTS}"));
        }
        if let Some(c) = &counts {
            if c.ranks() != ranks {
                return Err(format!(
                    "--counts names {} rank(s) but --ranks says {ranks}",
                    c.ranks()
                ));
            }
            if args.opt("size").is_some() {
                return Err("--size is meaningless with --counts (the vector is the size)".into());
            }
        }
        let irregular = counts.is_some() || tenants > 1;
        if irregular {
            if args.opt("select").is_some() {
                return Err(
                    "--select cannot be combined with --counts/--tenants (give an explicit --alg)"
                        .into(),
                );
            }
            if args.opt("opt").is_some() {
                return Err("--opt does not apply to irregular or multi-tenant plans".into());
            }
        }
        let (opt_flag, chunk, fuse) = crate::commands::opt_flags(args)?;
        let (alg, opt, select_table) = match args.opt("select") {
            None => (
                parse_alg(args.req("alg")?)?,
                opt_flag.unwrap_or(OptSpec::NONE),
                None,
            ),
            Some("auto") => {
                // Priors are priced on the machine model named by
                // `--machine` (the TCP world itself has no α-β-γ
                // parameters); observations then come from real sockets.
                let machine =
                    crate::args::parse_machine(args.opt("machine").unwrap_or("testbed"), ranks, 1)?;
                let bytes = input_len_of(op, ranks, size);
                let (svc, variant) =
                    crate::commands::resolve_auto(args, op, ranks, bytes, &machine)?;
                drop(svc); // reloaded fresh at feedback time
                eprintln!("select: auto resolved {op} p={ranks} -> {variant}");
                (
                    variant.alg,
                    // An explicit `--opt` overrides the learned passes.
                    opt_flag.unwrap_or(variant.opt),
                    Some(crate::commands::table_path(args).to_string()),
                )
            }
            Some(other) => return Err(format!("--select supports only `auto` (got `{other}`)")),
        };
        let timeout = Duration::from_secs(args.opt_usize("timeout", 120)? as u64);
        match &counts {
            Some(c) => supports_v(alg, op, c.counts())?,
            None => alg.supports(op, ranks)?,
        }
        Ok(LaunchSpec {
            op,
            alg,
            ranks,
            size,
            timeout,
            opt,
            chunk,
            fuse,
            select_table,
            counts,
            tenants,
        })
    }

    /// Per-rank input length (uniform runs).
    fn input_len(&self) -> usize {
        input_len_of(self.op, self.ranks, self.size)
    }

    /// Per-rank input length for `rank`, honoring an irregular count
    /// vector: allgatherv ranks contribute their own count, while every
    /// reduce-scatter-v rank contributes the full total.
    fn input_len_for(&self, rank: usize) -> usize {
        match &self.counts {
            None => self.input_len(),
            Some(c) => match self.op {
                CollectiveOp::ReduceScatter => c.total(),
                _ => c.counts()[rank],
            },
        }
    }

    /// The worker argv re-invoking this spec (parseable by
    /// [`LaunchSpec::from_args`]).
    fn worker_argv(&self) -> Vec<String> {
        let mut argv = vec![
            "launch".into(),
            self.op.to_string(),
            "--alg".into(),
            alg_to_spec(&self.alg),
            "--ranks".into(),
            self.ranks.to_string(),
            "--timeout".into(),
            self.timeout.as_secs().to_string(),
        ];
        match &self.counts {
            Some(c) => argv.extend(["--counts".into(), c.spec()]),
            None => argv.extend(["--size".into(), self.size.to_string()]),
        }
        if self.tenants > 1 {
            argv.extend(["--tenants".into(), self.tenants.to_string()]);
        }
        if !self.opt.is_none() {
            argv.extend([
                "--opt".into(),
                opt_to_spec(&self.opt),
                "--chunk".into(),
                self.chunk.to_string(),
                "--fuse".into(),
                self.fuse.to_string(),
            ]);
        }
        argv
    }

    /// The `alg[@passes]` label for logs and artifact names.
    fn variant_spec(&self) -> String {
        variant_to_spec(&self.alg, &self.opt)
    }
}

/// Entry point for the `launch` subcommand. Worker processes are told apart
/// from the launcher by the presence of `EXACOLL_RANK` in the environment.
pub fn run(args: &Args) -> Result<(), String> {
    if std::env::var_os("EXACOLL_RANK").is_some() {
        worker(&LaunchSpec::from_args(args)?)
    } else {
        launcher(args)
    }
}

fn env_var(key: &str) -> Result<String, String> {
    std::env::var(key).map_err(|_| format!("{key} is not set or not UTF-8"))
}

/// A dissemination barrier, used to align worker epochs before the timed
/// collective and to keep output ordering clean after it.
fn barrier<C: exacoll_comm::Comm>(c: &mut C) -> Result<(), String> {
    let args = CollArgs::new(CollectiveOp::Barrier, Algorithm::Dissemination { k: 2 });
    execute(c, &args, &[])
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// One worker process: join the socket world, run the collective under
/// instrumentation, verify against the sequential reference, optionally
/// dump the timeline.
fn worker(spec: &LaunchSpec) -> Result<(), String> {
    let rank: usize = env_var("EXACOLL_RANK")?
        .parse()
        .map_err(|_| "EXACOLL_RANK must be an integer".to_string())?;
    let root: SocketAddr = env_var("EXACOLL_ROOT")?
        .parse()
        .map_err(|_| "EXACOLL_ROOT must be a socket address".to_string())?;
    let fail = |stage: &str, e: String| format!("rank {rank} ({stage}): {e}");

    let mut opts = SocketOptions::new(root);
    opts.deadline = spec.timeout;
    let mut c =
        SocketComm::join(rank, spec.ranks, &opts).map_err(|e| fail("join", e.to_string()))?;

    let coll = CollArgs::new(spec.op, spec.alg);
    if spec.tenants > 1 || spec.counts.is_some() {
        return worker_irregular(spec, rank, &mut c, &coll);
    }
    let len = spec.input_len();
    let input = payload(rank, len);

    // Compile this rank's `algorithm@opt` plan through the process-wide
    // plan cache. Optimized runs lower *every* rank's plan and rewrite the
    // set with the same passes and thresholds in every process: the rewrite
    // is pure and deterministic, so all workers post matching messages
    // without exchanging a byte of plan state. Done before the entry
    // barrier so the timed region measures communication, not planning.
    let plan = cached_plan(
        &coll, &spec.opt, spec.chunk, spec.fuse, spec.ranks, rank, len,
    )
    .map_err(|e| fail("optimize", e.to_string()))?;

    // Align the epoch across processes: everyone leaves the barrier within
    // one wire latency of each other, then starts its clock.
    barrier(&mut c).map_err(|e| fail("entry barrier", e))?;
    let record_to = std::env::var("EXACOLL_RECORD").ok();
    let (result, timeline, events) = {
        let mut rc = RecordComm::new(TimedComm::new(&mut c));
        let result = Executor::new().run(&mut rc, &plan, &input);
        let (tc, events) = rc.into_parts();
        let (_, timeline) = tc.into_parts();
        (result, timeline, events)
    };
    // The replay fragment is written before any execute error propagates, so
    // a failed run still leaves its half of the evidence.
    if let Some(path) = &record_to {
        let log = RankLog {
            rank,
            status: match &result {
                Ok(_) => RankStatus::Ok,
                Err(e) => RankStatus::Error(e.to_string()),
            },
            input: input.clone(),
            output_digest: result.as_ref().ok().map(|o| fnv1a(o)),
            events,
        };
        std::fs::write(path, log.to_json().pretty())
            .map_err(|e| fail("record", format!("writing {path}: {e}")))?;
    }
    let output = result.map_err(|e| fail("execute", e.to_string()))?;

    let inputs: Vec<Vec<u8>> = (0..spec.ranks).map(|r| payload(r, len)).collect();
    let expected = expected_outputs(coll.op, coll.root, coll.dtype, coll.rop, &inputs)
        .map_err(|e| fail("reference", e.to_string()))?;
    if output != expected[rank] {
        return Err(fail(
            "verify",
            format!(
                "output mismatch: got {} B, expected {} B",
                output.len(),
                expected[rank].len()
            ),
        ));
    }
    barrier(&mut c).map_err(|e| fail("exit barrier", e))?;

    if let Ok(path) = env_var("EXACOLL_TIMELINE") {
        std::fs::write(&path, timeline_to_json(&timeline).pretty())
            .map_err(|e| fail("timeline", format!("writing {path}: {e}")))?;
    }
    if rank == 0 {
        println!(
            "rank 0: {}/{} verified on {} process(es), {} B per rank",
            spec.op,
            spec.variant_spec(),
            spec.ranks,
            len
        );
    }
    Ok(())
}

/// The irregular / multi-tenant worker path: lower this launch's plans
/// directly (the v-variant when `--counts` is given), statically prove the
/// whole world's plan set safe — per-tenant tag windows disjoint and the
/// merged splice deadlock-free — then execute and verify every tenant's
/// output against its sequential reference. Lowering and verification are
/// deterministic, so all workers prove the same facts without exchanging a
/// byte of plan state.
fn worker_irregular(
    spec: &LaunchSpec,
    rank: usize,
    c: &mut SocketComm,
    coll: &CollArgs,
) -> Result<(), String> {
    let fail = |stage: &str, e: String| format!("rank {rank} ({stage}): {e}");
    let p = spec.ranks;
    let base = |r: usize| -> Schedule {
        match &spec.counts {
            Some(cv) => lower_v(coll, r, cv.counts()),
            None => lower(coll, p, r, spec.input_len()),
        }
    };
    let all: Vec<Vec<Schedule>> = (0..spec.tenants)
        .map(|t| (0..p).map(|r| Tenant::new(t).rewrite(&base(r))).collect())
        .collect();
    if spec.tenants > 1 {
        let desc: Vec<TenantPlans> = all
            .iter()
            .enumerate()
            .map(|(t, plans)| TenantPlans {
                tenant: t,
                window: Tenant::new(t).window(),
                schedules: plans,
            })
            .collect();
        verify_tenants(&desc).map_err(|e| fail("verify tenants", e.to_string()))?;
    }
    let merged: Vec<Schedule> = (0..p)
        .map(|r| {
            let per_tenant: Vec<Schedule> = all.iter().map(|t| t[r].clone()).collect();
            merge_tenants(&per_tenant)
        })
        .collect();
    verify(&merged).map_err(|e| fail("verify merged", e.to_string()))?;

    let inputs: Vec<Vec<u8>> = (0..spec.tenants)
        .map(|t| payload(t * p + rank, spec.input_len_for(rank)))
        .collect();
    let my_plans: Vec<Schedule> = all.iter().map(|t| t[rank].clone()).collect();
    // Single-tenant v-runs go through the process-wide plan cache under the
    // counts-digest key; compiled before the entry barrier so the timed
    // region measures communication, not planning.
    let compiled = match (&spec.counts, spec.tenants) {
        (Some(cv), 1) => Some(PlanCache::global().get_or_insert_with(
            PlanKey::with_counts(coll, cv.counts(), rank, spec.input_len_for(rank)),
            || compile(&merged[rank]),
        )),
        _ => None,
    };

    barrier(c).map_err(|e| fail("entry barrier", e))?;
    let (result, timeline) = {
        let mut tc = TimedComm::new(&mut *c);
        let result = match &compiled {
            Some(plan) => Executor::new()
                .run(&mut tc, plan, &inputs[0])
                .map(|o| vec![o]),
            None => run_tenants(&mut tc, &my_plans, &inputs),
        };
        let (_, timeline) = tc.into_parts();
        (result, timeline)
    };
    let outs = result.map_err(|e| fail("execute", e.to_string()))?;

    for (t, out) in outs.iter().enumerate() {
        let t_inputs: Vec<Vec<u8>> = (0..p)
            .map(|r| payload(t * p + r, spec.input_len_for(r)))
            .collect();
        let expected = match &spec.counts {
            Some(cv) => expected_outputs_v(coll.op, coll.dtype, coll.rop, cv.counts(), &t_inputs),
            None => expected_outputs(coll.op, coll.root, coll.dtype, coll.rop, &t_inputs),
        }
        .map_err(|e| fail("reference", e.to_string()))?;
        if out != &expected[rank] {
            return Err(fail(
                "verify",
                format!(
                    "tenant {t} output mismatch: got {} B, expected {} B",
                    out.len(),
                    expected[rank].len()
                ),
            ));
        }
    }
    barrier(c).map_err(|e| fail("exit barrier", e))?;

    if let Ok(path) = env_var("EXACOLL_TIMELINE") {
        std::fs::write(&path, timeline_to_json(&timeline).pretty())
            .map_err(|e| fail("timeline", format!("writing {path}: {e}")))?;
    }
    if rank == 0 {
        println!(
            "rank 0: {}/{} verified on {} process(es), {} tenant(s), {}",
            spec.op,
            spec.variant_spec(),
            spec.ranks,
            spec.tenants,
            launch_shape(spec)
        );
    }
    Ok(())
}

/// Human-readable payload shape of a launch, uniform or irregular.
fn launch_shape(spec: &LaunchSpec) -> String {
    match &spec.counts {
        Some(cv) => format!("counts [{}] ({} B total)", cv.spec(), cv.total()),
        None => format!("{} B per rank", spec.input_len()),
    }
}

/// Resolve the binary to re-invoke for workers. `EXACOLL_BIN` overrides
/// `current_exe` so test harnesses (whose `current_exe` is the test runner)
/// can point workers at the real CLI.
fn worker_binary() -> Result<PathBuf, String> {
    if let Some(bin) = std::env::var_os("EXACOLL_BIN") {
        return Ok(PathBuf::from(bin));
    }
    std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))
}

/// A fresh scratch directory for per-rank dump files (timelines, replay
/// fragments). Uniqueness needs both the pid and a counter: one process may
/// run several launches.
fn scratch_dir() -> Result<PathBuf, String> {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "exacoll-launch-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn timeline_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.json"))
}

fn fragment_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.record.json"))
}

/// Spawn worker processes for ranks `0..spawn_n`, optionally pointing each
/// at a timeline dump file and/or a replay-fragment file.
fn spawn_workers(
    spec: &LaunchSpec,
    root: SocketAddr,
    spawn_n: usize,
    tl_dir: Option<&Path>,
    rec_dir: Option<&Path>,
) -> Result<Vec<Child>, String> {
    let bin = worker_binary()?;
    let argv = spec.worker_argv();
    let mut children = Vec::with_capacity(spawn_n);
    for rank in 0..spawn_n {
        let mut cmd = Command::new(&bin);
        cmd.args(&argv)
            .env("EXACOLL_RANK", rank.to_string())
            .env("EXACOLL_ROOT", root.to_string())
            .stdin(Stdio::null());
        if let Some(dir) = tl_dir {
            cmd.env("EXACOLL_TIMELINE", timeline_path(dir, rank));
        }
        if let Some(dir) = rec_dir {
            cmd.env("EXACOLL_RECORD", fragment_path(dir, rank));
        }
        children.push(
            cmd.spawn()
                .map_err(|e| format!("spawning rank {rank} ({}): {e}", bin.display()))?,
        );
    }
    Ok(children)
}

/// Wait for all children within `timeout`; kill and report whatever is
/// still running when it expires. Returns per-rank failure descriptions.
fn wait_workers(children: &mut [Child], timeout: Duration) -> Vec<String> {
    let start = Instant::now();
    let mut failures = Vec::new();
    let mut done = vec![false; children.len()];
    while done.iter().any(|d| !d) {
        let mut progressed = false;
        for (rank, child) in children.iter_mut().enumerate() {
            if done[rank] {
                continue;
            }
            match child.try_wait() {
                Ok(Some(status)) => {
                    done[rank] = true;
                    progressed = true;
                    if !status.success() {
                        failures.push(format!("rank {rank} exited with {status}"));
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    done[rank] = true;
                    progressed = true;
                    failures.push(format!("rank {rank} unwaitable: {e}"));
                }
            }
        }
        if done.iter().all(|d| *d) {
            break;
        }
        if start.elapsed() >= timeout {
            for (rank, child) in children.iter_mut().enumerate() {
                if !done[rank] {
                    let _ = child.kill();
                    let _ = child.wait();
                    failures.push(format!("rank {rank} killed after {timeout:?} timeout"));
                }
            }
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    failures
}

/// Read back the per-rank timeline dumps written by the workers.
fn collect_timelines(dir: &Path, p: usize) -> Result<Vec<RankTimeline>, String> {
    (0..p)
        .map(|rank| {
            let path = timeline_path(dir, rank);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let value = exacoll_json::parse(&text)
                .map_err(|e| format!("parsing {}: {e}", path.display()))?;
            timeline_from_json(&value)
        })
        .collect()
}

/// Merge the per-rank replay fragments into one self-contained artifact.
/// A rank whose fragment is missing or unreadable (worker died before it
/// could record) gets an error-status log with a reconstructed input and an
/// empty event list — the replayer then pins its first divergence at step 0.
fn merge_fragments(spec: &LaunchSpec, dir: &Path) -> Artifact {
    let len = spec.input_len();
    let ranks = (0..spec.ranks)
        .map(|rank| {
            let path = fragment_path(dir, rank);
            let parsed = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| exacoll_json::parse(&text))
                .and_then(|v| RankLog::from_json(&v, rank).map_err(|e| e.to_string()));
            parsed.unwrap_or_else(|e| RankLog {
                rank,
                status: RankStatus::Error(format!("no replay fragment: {e}")),
                input: payload(rank, len),
                output_digest: None,
                events: Vec::new(),
            })
        })
        .collect();
    Artifact {
        case: Some(format!(
            "{}/{}/p{}/launch",
            spec.op,
            spec.variant_spec(),
            spec.ranks
        )),
        backend: "tcp".into(),
        fault_seed: None,
        args: CollArgs::new(spec.op, spec.alg),
        opt: spec.opt,
        opt_chunk: spec.chunk,
        opt_fuse: spec.fuse,
        p: spec.ranks,
        n: len,
        ranks,
    }
}

/// Run a full local world for `spec` and return the per-rank timelines.
/// This is the engine under both `exacoll launch` (all-local case) and
/// `exacoll profile --backend tcp`.
fn run_local_world(
    spec: &LaunchSpec,
    want_timelines: bool,
) -> Result<Option<Vec<RankTimeline>>, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding rendezvous: {e}"))?;
    let root = listener.local_addr().map_err(|e| e.to_string())?;
    let p = spec.ranks;
    let deadline = spec.timeout + Duration::from_secs(5);
    let server = std::thread::spawn(move || serve_rendezvous(&listener, p, deadline));

    let tl_dir = if want_timelines {
        Some(scratch_dir()?)
    } else {
        None
    };
    let result = (|| {
        let mut children = spawn_workers(spec, root, p, tl_dir.as_deref(), None)?;
        // Workers get the full timeout; the launcher allows a little extra
        // so worker-side deadlines fire first with a precise error.
        let failures = wait_workers(&mut children, spec.timeout + Duration::from_secs(10));
        if !failures.is_empty() {
            return Err(format!(
                "{}/{} worker(s) failed:\n  {}",
                failures.len(),
                p,
                failures.join("\n  ")
            ));
        }
        match &tl_dir {
            Some(dir) => collect_timelines(dir, p).map(Some),
            None => Ok(None),
        }
    })();
    if let Some(dir) = &tl_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    match server.join() {
        Ok(Ok(_)) | Ok(Err(_)) => {} // worker errors already reported above
        Err(_) => return Err("rendezvous thread panicked".into()),
    }
    result
}

/// Profile one collective on the TCP backend: run a full local world with
/// timeline collection and fold the result into the same [`BackendRun`]
/// shape the thread/sim profilers produce, so critical-path extraction,
/// residual analysis, and Chrome export apply unchanged.
pub fn profile_tcp(spec: &ProfileSpec) -> Result<BackendRun, String> {
    let launch = LaunchSpec {
        op: spec.op,
        alg: spec.alg,
        ranks: spec.ranks(),
        size: spec.size,
        timeout: Duration::from_secs(120),
        opt: spec.opt,
        chunk: spec.chunk_bytes,
        fuse: spec.fuse_bytes,
        select_table: None,
        counts: None,
        tenants: 1,
    };
    let timelines = run_local_world(&launch, true)?.expect("timelines requested");
    let makespan = makespan_ns(&timelines);
    Ok(BackendRun {
        backend: "tcp",
        timelines,
        makespan_ns: makespan,
    })
}

/// The launcher process: host the rendezvous, fork workers (or print their
/// environment for manual multi-host starts), wait, merge timelines.
fn launcher(args: &Args) -> Result<(), String> {
    let spec = LaunchSpec::from_args(args)?;
    match parse_backend(args.opt("backend").unwrap_or("tcp"))? {
        Backend::Tcp => {}
        other => {
            return Err(format!(
                "launch runs multi-process worlds on the tcp backend only (got {other:?}; \
                 use `exacoll profile` for thread|sim)"
            ))
        }
    }
    let spawn_n = args.opt_usize("spawn", spec.ranks)?;
    if spawn_n > spec.ranks {
        return Err(format!("--spawn {spawn_n} exceeds --ranks {}", spec.ranks));
    }
    let chrome = args.opt("chrome");
    if chrome.is_some() && spawn_n != spec.ranks {
        return Err("--chrome needs all ranks local (don't combine with --spawn)".into());
    }
    let record = args.opt("record");
    if record.is_some() && spawn_n != spec.ranks {
        return Err("--record needs all ranks local (don't combine with --spawn)".into());
    }
    if record.is_some() && (spec.tenants > 1 || spec.counts.is_some()) {
        // Replay artifacts describe one uniform collective; the merged
        // tenant plan has no single (args, n) to replay against.
        return Err("--record supports uniform single-tenant launches only".into());
    }
    if spec.select_table.is_some() && spawn_n != spec.ranks {
        return Err("--select auto needs all ranks local (don't combine with --spawn)".into());
    }

    let bind = args.opt("bind").unwrap_or("127.0.0.1:0");
    let listener =
        TcpListener::bind(bind).map_err(|e| format!("binding rendezvous on {bind}: {e}"))?;
    let root = listener.local_addr().map_err(|e| e.to_string())?;
    let p = spec.ranks;
    let deadline = spec.timeout + Duration::from_secs(5);
    let server = std::thread::spawn(move || serve_rendezvous(&listener, p, deadline));

    eprintln!(
        "launch: {}/{} on {} process(es), {} tenant(s), {}, rendezvous at {root}",
        spec.op,
        spec.variant_spec(),
        spec.ranks,
        spec.tenants,
        launch_shape(&spec)
    );
    if spawn_n < spec.ranks {
        let argv = spec.worker_argv().join(" ");
        eprintln!("start the remaining ranks by hand:");
        for rank in spawn_n..spec.ranks {
            println!("EXACOLL_RANK={rank} EXACOLL_ROOT={root} exacoll {argv}");
        }
    }

    // Timelines are needed for a Chrome trace *and* for feeding the
    // measured makespan back into the selection table.
    let tl_dir = if chrome.is_some() || spec.select_table.is_some() {
        Some(scratch_dir()?)
    } else {
        None
    };
    let rec_dir = if record.is_some() {
        Some(scratch_dir()?)
    } else {
        None
    };
    let result = (|| {
        let mut children =
            spawn_workers(&spec, root, spawn_n, tl_dir.as_deref(), rec_dir.as_deref())?;
        let failures = wait_workers(&mut children, spec.timeout + Duration::from_secs(10));
        // Merge the replay artifact before failure handling: a failed run is
        // exactly when the artifact matters most.
        if let (Some(dir), Some(out_dir)) = (&rec_dir, record) {
            let artifact = merge_fragments(&spec, dir);
            std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
            let name = crate::commands::sanitize_artifact_name(&format!(
                "{}-{}-p{}-launch",
                spec.op,
                spec.variant_spec(),
                spec.ranks
            ));
            let path = format!("{out_dir}/{name}.replay.json");
            std::fs::write(&path, artifact.to_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("replay artifact written to {path} (verify with `exacoll replay {path}`)");
        }
        if !failures.is_empty() {
            return Err(format!(
                "{}/{} worker(s) failed:\n  {}",
                failures.len(),
                spawn_n,
                failures.join("\n  ")
            ));
        }
        if let Some(dir) = &tl_dir {
            let timelines = collect_timelines(dir, spec.ranks)?;
            if let Some(path) = chrome {
                let doc = chrome_trace(&[("tcp", timelines.as_slice())]);
                let tracks = rank_tracks(&doc)?;
                std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!(
                    "chrome trace written to {path} ({} track(s), makespan {:.3} us); \
                     open it at https://ui.perfetto.dev",
                    tracks.len(),
                    makespan_ns(&timelines) / 1000.0
                );
            }
            if spec.select_table.is_some() {
                crate::commands::record_feedback(
                    // Reload rather than reuse the resolve-time instance, so
                    // concurrent launches at worst lose an observation
                    // instead of resurrecting a stale table.
                    &exacoll_select::SelectionService::load_or_new(
                        crate::commands::table_path(args),
                        exacoll_select::Policy::default(),
                    )?,
                    args,
                    spec.op,
                    spec.ranks,
                    spec.input_len(),
                    Variant {
                        alg: spec.alg,
                        opt: spec.opt,
                    },
                    &[makespan_ns(&timelines)],
                )?;
            }
        }
        Ok(())
    })();
    if let Some(dir) = &tl_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Some(dir) = &rec_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Err(e) = server.join().map_err(|_| "rendezvous thread panicked")? {
        // Rendezvous failure usually surfaces as worker failures too; only
        // add it when the workers somehow looked clean.
        if result.is_ok() {
            return Err(format!("rendezvous failed: {e}"));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn launch_spec_parses_the_acceptance_grammar() {
        let spec = LaunchSpec::from_args(&args(
            "launch --ranks 8 --backend tcp allreduce --alg recmult:4 --size 65536",
        ))
        .unwrap();
        assert_eq!(spec.op, CollectiveOp::Allreduce);
        assert_eq!(spec.alg, Algorithm::RecursiveMultiplying { k: 4 });
        assert_eq!(spec.ranks, 8);
        assert_eq!(spec.size, 65536);
        assert_eq!(spec.input_len(), 65536);
    }

    #[test]
    fn launch_spec_adjusts_alltoall_and_barrier_lengths() {
        let a2a = LaunchSpec::from_args(&args(
            "launch alltoall --alg pairwise --ranks 6 --size 1000",
        ))
        .unwrap();
        assert_eq!(a2a.input_len(), 996);
        let bar =
            LaunchSpec::from_args(&args("launch barrier --alg dissemination:2 --ranks 4")).unwrap();
        assert_eq!(bar.input_len(), 0);
    }

    #[test]
    fn worker_argv_round_trips_through_the_parser() {
        let spec = LaunchSpec::from_args(&args(
            "launch allreduce --alg recmult:4 --ranks 8 --size 64K --timeout 30",
        ))
        .unwrap();
        let argv = spec.worker_argv();
        let back = LaunchSpec::from_args(&Args::parse(&argv).unwrap()).unwrap();
        assert_eq!(back.op, spec.op);
        assert_eq!(back.alg, spec.alg);
        assert_eq!(back.ranks, spec.ranks);
        assert_eq!(back.size, spec.size);
        assert_eq!(back.timeout, spec.timeout);
    }

    #[test]
    fn worker_argv_round_trips_optimizer_flags() {
        let spec = LaunchSpec::from_args(&args(
            "launch allgather --alg ring --ranks 4 --size 64K --opt pipeline,agg \
             --chunk 4K --fuse 256",
        ))
        .unwrap();
        assert!(spec.opt.pipeline && spec.opt.aggregate);
        let back = LaunchSpec::from_args(&Args::parse(&spec.worker_argv()).unwrap()).unwrap();
        assert_eq!(back.opt, spec.opt);
        assert_eq!(back.chunk, 4096);
        assert_eq!(back.fuse, 256);
        // Plain specs keep the historical argv shape.
        let plain = LaunchSpec::from_args(&args("launch allreduce --alg ring --ranks 2")).unwrap();
        assert!(!plain.worker_argv().iter().any(|a| a == "--opt"));
    }

    #[test]
    fn launcher_rejects_non_tcp_backends_and_bad_spawn() {
        let err = launcher(&args(
            "launch allreduce --alg ring --ranks 2 --backend thread",
        ))
        .unwrap_err();
        assert!(err.contains("tcp backend only"), "got: {err}");
        let err = launcher(&args("launch allreduce --alg ring --ranks 2 --spawn 3")).unwrap_err();
        assert!(err.contains("--spawn"), "got: {err}");
    }

    #[test]
    fn launch_spec_resolves_select_auto_without_alg() {
        let dir = std::env::temp_dir().join(format!("exacoll-launch-auto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let table = dir.join("table.json");
        let spec = LaunchSpec::from_args(&args(&format!(
            "launch allreduce --select auto --ranks 4 --size 1K --table {}",
            table.display()
        )))
        .unwrap();
        assert!(spec.alg.supports(CollectiveOp::Allreduce, 4).is_ok());
        assert_eq!(
            spec.select_table.as_deref(),
            Some(&*table.display().to_string())
        );
        // Lazy seeding persisted the priors.
        assert!(table.exists());
        // A second resolve reuses the learned table (no reseeding crash).
        let again = LaunchSpec::from_args(&args(&format!(
            "launch allreduce --select auto --ranks 4 --size 1K --table {}",
            table.display()
        )))
        .unwrap();
        assert_eq!(again.alg, spec.alg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_combination_is_rejected_up_front() {
        // bruck is an allgather/alltoall algorithm, not an allreduce one.
        assert!(LaunchSpec::from_args(&args("launch allreduce --alg bruck --ranks 4")).is_err());
    }

    #[test]
    fn counts_and_tenants_parse_and_round_trip_worker_argv() {
        let spec = LaunchSpec::from_args(&args(
            "launch allgather --alg ring --ranks 4 --counts 4K,0,64,1M --tenants 3",
        ))
        .unwrap();
        assert_eq!(
            spec.counts.as_ref().unwrap().counts(),
            &[4096, 0, 64, 1 << 20]
        );
        assert_eq!(spec.tenants, 3);
        assert_eq!(spec.input_len_for(0), 4096);
        assert_eq!(spec.input_len_for(1), 0);
        let back = LaunchSpec::from_args(&Args::parse(&spec.worker_argv()).unwrap()).unwrap();
        assert_eq!(back.counts, spec.counts);
        assert_eq!(back.tenants, spec.tenants);
        // reduce_scatter_v ranks each contribute the full total.
        let rs = LaunchSpec::from_args(&args(
            "launch reduce_scatter --alg ring --ranks 4 --counts 64,16,0,48",
        ))
        .unwrap();
        assert_eq!(rs.input_len_for(2), 128);
    }

    #[test]
    fn irregular_flag_combinations_are_validated() {
        // Vector length must match --ranks; --size/--opt/--select and
        // uniform-only algorithms don't compose with --counts.
        assert!(
            LaunchSpec::from_args(&args("launch allgather --alg ring --ranks 8 --counts 8,8"))
                .is_err()
        );
        assert!(LaunchSpec::from_args(&args(
            "launch allgather --alg ring --ranks 2 --counts 8,8 --size 64"
        ))
        .is_err());
        assert!(LaunchSpec::from_args(&args(
            "launch allgather --alg ring --ranks 2 --counts 8,8 --opt pipeline"
        ))
        .is_err());
        assert!(LaunchSpec::from_args(&args(
            "launch allgather --select auto --ranks 2 --counts 8,8"
        ))
        .is_err());
        assert!(LaunchSpec::from_args(&args(
            "launch allgather --alg bruck --ranks 4 --counts 8,0,8,0"
        ))
        .is_err());
        assert!(
            LaunchSpec::from_args(&args("launch allreduce --alg ring --ranks 4 --tenants 0"))
                .is_err()
        );
        assert!(LaunchSpec::from_args(&args(
            "launch allreduce --alg ring --ranks 4 --tenants 2 --select auto"
        ))
        .is_err());
    }

    #[test]
    fn launcher_rejects_record_for_irregular_and_tenant_runs() {
        let err = launcher(&args(
            "launch allgather --alg ring --ranks 2 --counts 8,8 --record /tmp/nope",
        ))
        .unwrap_err();
        assert!(err.contains("uniform single-tenant"), "got: {err}");
        let err = launcher(&args(
            "launch allreduce --alg recmult:2 --ranks 2 --tenants 2 --record /tmp/nope",
        ))
        .unwrap_err();
        assert!(err.contains("uniform single-tenant"), "got: {err}");
    }
}
