//! Subcommand implementations.

use crate::args::{parse_alg, parse_backend, parse_size, Args, Backend};
use exacoll_comm::CommResult;
use exacoll_core::reference::{expected_outputs, expected_outputs_v};
use exacoll_core::registry::{
    candidates, lower, lower_v, supports_v, table_i, unique_candidates, unique_candidates_v,
};
use exacoll_core::schedule::verify::{verify, verify_tenants, ScheduleStats, TenantPlans};
use exacoll_core::schedule::world::{evaluate, probe_inputs};
use exacoll_core::schedule::Schedule;
use exacoll_core::spec::{
    parse_opt_spec, variant_to_spec, CountsSpec, OptSpec, Variant, OPT_AGGREGATE_MAX_FUSE_BYTES,
    OPT_PIPELINE_CHUNK_BYTES,
};
use exacoll_core::{merge_tenants, Algorithm, CollArgs, CollectiveOp, Tenant};
use exacoll_obs::{
    analyze_residuals, chrome_trace, intra_net_of, net_of, profile_sim, profile_thread,
    rank_tracks, BackendRun, Metrics, ProfileSpec, RankTimeline,
};
use exacoll_opt::{layout_for, PassKind, PassManager, TopoDesc};
use exacoll_osu::sweep::fmt_size;
use exacoll_osu::{latency, measure, Table, VendorPolicy};
use exacoll_select::{bucket_range, Policy, SelectionService};
use exacoll_tuning::{autotune, AutotuneOptions};

/// Top-level usage text.
pub const USAGE: &str = "usage:
  exacoll sweep    --machine <name> --nodes N [--ppn P] --op <coll> [--sizes 8,64K,...] [--max-k K]
  exacoll radix    --machine <name> --nodes N [--ppn P] --op <coll> --size BYTES [--max-k K]
  exacoll time     --machine <name> --nodes N [--ppn P] --op <coll> --alg <alg[:k]> --size BYTES
  exacoll autotune --machine <name> --nodes N [--ppn P] [--max-k K] [--out FILE]
  exacoll chaos    [--ranks P] [--max-k K] [--seed S] [--bytes N] [--record DIR]
  exacoll profile  <coll> (--alg <alg[:k]> | --select auto) --ranks P [--ppn N]
                   [--machine <name>] [--size BYTES] [--counts LIST]
                   [--backend thread|sim|tcp|both]
                   [--opt <passes>] [--chunk BYTES] [--fuse BYTES]
                   [--chrome FILE] [--metrics FILE] [--table FILE]
  exacoll launch   <coll> (--alg <alg[:k]> | --select auto) --ranks P [--size BYTES]
                   [--counts LIST] [--tenants N]
                   [--backend tcp] [--timeout SECS] [--chrome FILE] [--spawn N]
                   [--opt <passes>] [--chunk BYTES] [--fuse BYTES]
                   [--bind HOST:PORT] [--record DIR] [--table FILE] [--machine <name>]
  exacoll opt      <coll> --alg <alg[:k]> --ranks P [--ppn N] [--machine <name>]
                   [--size BYTES] [--passes pipeline,aggregate,remap]
                   [--chunk BYTES] [--fuse BYTES] [--check nonneg]
  exacoll select   <seed|show|diff|export|import> [--table FILE]
                   (seed: --machine <name> --nodes N [--ppn P] [--sizes ...] [--max-k K];
                    export: [--out FILE]; import: --from FILE)
  exacoll record   <coll> --alg <alg[:k]> --ranks P [--size BYTES] [--seed S] [--out FILE]
  exacoll replay   <artifact.json>
  exacoll verify   [--ranks P] [--max-k K] [--size BYTES] [--counts LIST]
  exacoll machines
  exacoll table1

machines: frontier | polaris | aurora | testbed
ops:      bcast reduce gather allgather allreduce barrier alltoall reduce_scatter
algs:     linear ring bruck pairwise binomial recdoubling knomial:K recmult:K
          kring:K reduce+bcast:K dissemination:K gbruck:R hier:PPN:K genmult:K
opt:      --opt takes none|pipeline|aggregate (comma-separated, aliases
          pipe|agg); thresholds default to 1M (--chunk) and 4K (--fuse)
counts:   --counts takes one byte count per rank (4K,0,64,...) and selects
          the irregular (\"v\") variant; allgather/reduce_scatter only";

/// Why a command line failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The invocation itself is malformed (unknown subcommand, unparsable
    /// arguments): worth showing [`USAGE`].
    Usage(String),
    /// The subcommand ran and failed; its message stands alone.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) | CliError::Failed(e) => f.write_str(e),
        }
    }
}

/// Dispatch `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv).map_err(CliError::Usage)?;
    let result = match args.command.as_str() {
        "sweep" => sweep(&args),
        "radix" => radix(&args),
        "time" => time(&args),
        "autotune" => run_autotune(&args),
        "select" => select_cmd(&args),
        "chaos" => chaos(&args),
        "profile" => profile(&args),
        "opt" => opt_cmd(&args),
        "launch" => crate::launch::run(&args),
        "record" => record(&args),
        "replay" => replay(&args),
        "verify" => verify_schedules(&args),
        "machines" => machines(),
        "table1" => {
            table1();
            Ok(())
        }
        other => return Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    };
    result.map_err(CliError::Failed)
}

/// Best algorithm per message size, with vendor comparison.
fn sweep(args: &Args) -> Result<(), String> {
    let m = args.machine()?;
    let op = args.op()?;
    let sizes = args.sizes()?;
    let max_k = args.opt_usize("max-k", 16)?;
    let cands = unique_candidates(op, m.ranks(), max_k);
    let mut t = Table::new(
        format!("{op} sweep on {}", m.name),
        &["size", "best alg", "latency (us)", "vs vendor"],
    );
    for &n in &sizes {
        let best = cands
            .iter()
            .map(|&alg| (alg, latency(&m, op, alg, n).expect("simulates")))
            .min_by_key(|&(_, t)| t)
            .ok_or("no candidate algorithms")?;
        let vendor = VendorPolicy::select(op, n, m.ranks());
        let tv = latency(&m, op, vendor, n).expect("vendor simulates");
        t.row(vec![
            fmt_size(n),
            best.0.to_string(),
            format!("{:.2}", best.1.as_micros()),
            format!("{:.2}x", tv / best.1),
        ]);
    }
    t.print();
    Ok(())
}

/// Latency of every radix of the op's generalized kernels at one size.
fn radix(args: &Args) -> Result<(), String> {
    let m = args.machine()?;
    let op = args.op()?;
    let n = crate::args::parse_size(args.req("size")?).ok_or_else(|| "bad --size".to_string())?;
    let max_k = args.opt_usize("max-k", 16)?;
    let mut t = Table::new(
        format!("{op} radix sweep at {} on {}", fmt_size(n), m.name),
        &["algorithm", "latency (us)"],
    );
    for alg in unique_candidates(op, m.ranks(), max_k) {
        let lat = latency(&m, op, alg, n).expect("simulates");
        t.row(vec![alg.to_string(), format!("{:.2}", lat.as_micros())]);
    }
    t.print();
    Ok(())
}

/// Time one specific (op, algorithm, size) with full statistics.
fn time(args: &Args) -> Result<(), String> {
    let m = args.machine()?;
    let op = args.op()?;
    let alg = parse_alg(args.req("alg")?)?;
    let n = crate::args::parse_size(args.req("size")?).ok_or_else(|| "bad --size".to_string())?;
    alg.supports(op, m.ranks())?;
    let out = measure(&m, op, alg, n, 0).map_err(|e| e.to_string())?;
    println!("machine:   {}", m.name);
    println!("op/alg:    {op} / {alg} @ {}", fmt_size(n));
    println!("latency:   {}", out.makespan);
    println!(
        "traffic:   {} internode msgs ({} B), {} intranode msgs ({} B)",
        out.stats.inter_messages,
        out.stats.inter_bytes,
        out.stats.intra_messages,
        out.stats.intra_bytes
    );
    let worst = out
        .breakdown
        .iter()
        .filter_map(|b| b.blocked_fraction())
        .fold(0.0f64, f64::max);
    println!("blocked:   worst rank spends {:.0}% waiting", worst * 100.0);
    Ok(())
}

/// Autotune a machine and print/save the selection configuration.
fn run_autotune(args: &Args) -> Result<(), String> {
    let m = args.machine()?;
    let opts = AutotuneOptions {
        ops: CollectiveOp::EVALUATED.to_vec(),
        sizes: (3..=20).step_by(2).map(|e| 1usize << e).collect(),
        max_k: args.opt_usize("max-k", 16)?,
    };
    eprintln!("autotuning {} over {} sizes ...", m.name, opts.sizes.len());
    let cfg = autotune(&m, &opts)?;
    let json = cfg.to_json();
    match args.opt("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("selection configuration written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Where `--select auto` keeps its learned table unless `--table` says
/// otherwise.
pub(crate) const DEFAULT_TABLE: &str = "results/selection_auto.json";

/// The learned-table path for this invocation.
pub(crate) fn table_path(args: &Args) -> &str {
    args.opt("table").unwrap_or(DEFAULT_TABLE)
}

/// Resolve `--select auto` into a concrete variant (algorithm plus
/// optimizer passes) for (op, ranks, bytes): load (or create) the learned
/// table, lazily seed cost-model priors for this bucket if nothing is
/// known yet, and return the published winner. Returns the service so the
/// caller can feed observed timings back after the run.
pub(crate) fn resolve_auto(
    args: &Args,
    op: CollectiveOp,
    ranks: usize,
    bytes: usize,
    machine: &exacoll_sim::Machine,
) -> Result<(SelectionService, Variant), String> {
    let table = table_path(args);
    let svc = SelectionService::load_or_new(table, Policy::default())?;
    if !svc.knows(op, ranks, bytes) {
        let max_k = args.opt_usize("max-k", 8)?;
        let priced = svc.seed_point(machine, op, bytes, max_k)?;
        svc.publish();
        svc.save(table)?;
        eprintln!(
            "select: seeded {priced} cost-model prior(s) for {op} p={ranks} \
             bucket {} into {table}",
            bucket_range(exacoll_select::bucket_of_bytes(bytes))
        );
    }
    let variant = svc.select(op, ranks, bytes);
    Ok((svc, variant))
}

/// Fold measured makespans back into the learned table and persist it.
pub(crate) fn record_feedback(
    svc: &SelectionService,
    args: &Args,
    op: CollectiveOp,
    ranks: usize,
    bytes: usize,
    variant: Variant,
    observations: &[f64],
) -> Result<(), String> {
    for &ns in observations {
        svc.observe(op, ranks, bytes, variant, ns);
    }
    svc.publish();
    let table = table_path(args);
    svc.save(table)?;
    eprintln!(
        "select: recorded {} observation(s) for {op}/{variant} p={ranks} into {table}",
        observations.len()
    );
    Ok(())
}

/// Parse the optimizer flags shared by `profile`, `launch`, and `opt`:
/// the `--opt` pass list (None when the flag is absent, so callers can
/// distinguish "not given" from an explicit `--opt none`) and the
/// `--chunk`/`--fuse` thresholds, defaulting to the spec constants.
pub(crate) fn opt_flags(args: &Args) -> Result<(Option<OptSpec>, usize, usize), String> {
    let opt = args.opt("opt").map(parse_opt_spec).transpose()?;
    let chunk = match args.opt("chunk") {
        None => OPT_PIPELINE_CHUNK_BYTES,
        Some(s) => parse_size(s).ok_or_else(|| format!("bad --chunk `{s}`"))?,
    };
    let fuse = match args.opt("fuse") {
        None => OPT_AGGREGATE_MAX_FUSE_BYTES,
        Some(s) => parse_size(s).ok_or_else(|| format!("bad --fuse `{s}`"))?,
    };
    if chunk == 0 {
        return Err("--chunk must be at least 1 byte".into());
    }
    if fuse == 0 {
        return Err("--fuse must be at least 1 byte".into());
    }
    Ok((opt, chunk, fuse))
}

/// Inspect, grow, and move learned selection tables.
fn select_cmd(args: &Args) -> Result<(), String> {
    let table = table_path(args);
    match args.positional().unwrap_or("show") {
        // Full prior sweep: price every candidate for the paper's four
        // collectives over the probed sizes and persist the result.
        "seed" => {
            let m = args.machine()?;
            let sizes = args.sizes()?;
            let max_k = args.opt_usize("max-k", 16)?;
            let svc = SelectionService::load_or_new(table, Policy::default())?;
            let priced = svc.seed_priors(&m, &CollectiveOp::EVALUATED, &sizes, max_k)?;
            svc.publish();
            svc.save(table)?;
            eprintln!(
                "select: seeded {priced} prior(s) over {} size(s) on {} -> {table}",
                sizes.len(),
                m.name
            );
            Ok(())
        }
        "show" => {
            let svc = SelectionService::load(table)?;
            let mut t = Table::new(
                format!("learned selection table ({table})"),
                &[
                    "collective",
                    "p",
                    "size range",
                    "published",
                    "model pick",
                    "samples",
                ],
            );
            let policy = svc.policy();
            svc.for_each_bucket(|op, p, bucket, cells| {
                let published = exacoll_select::policy::winner(cells, &policy)
                    .map_or("-".to_string(), |a| a.to_string());
                let model = exacoll_select::policy::prior_winner(cells)
                    .map_or("-".to_string(), |a| a.to_string());
                let samples: u64 = cells.iter().map(|c| c.obs_n).sum();
                t.row(vec![
                    op.to_string(),
                    p.to_string(),
                    bucket_range(bucket),
                    published,
                    model,
                    samples.to_string(),
                ]);
            });
            t.print();
            Ok(())
        }
        "diff" => {
            let svc = SelectionService::load(table)?;
            print!("{}", exacoll_select::diff::render(&svc.diff()));
            Ok(())
        }
        "export" => {
            let svc = SelectionService::load(table)?;
            let json = svc.to_json().pretty();
            match args.opt("out") {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("selection table exported to {path}");
                }
                None => println!("{json}"),
            }
            Ok(())
        }
        // Validate the incoming file by loading it, then re-serialize
        // canonically into the table path.
        "import" => {
            let from = args.req("from")?;
            let svc = SelectionService::load(from)?;
            svc.save(table)?;
            eprintln!(
                "selection table imported from {from} -> {table} ({} bucket(s))",
                svc.tracked()
            );
            Ok(())
        }
        other => Err(format!(
            "unknown select action `{other}` (expected seed|show|diff|export|import)"
        )),
    }
}

/// Run the fault-injection campaign on the threaded runtime and print the
/// survival table.
fn chaos(args: &Args) -> Result<(), String> {
    let p = args.opt_usize("ranks", 8)?;
    let max_k = args.opt_usize("max-k", 3)?;
    let seed = args.opt_usize("seed", 42)? as u64;
    let bytes = args.opt_usize("bytes", 64)?;
    if p == 0 {
        return Err("--ranks must be at least 1".into());
    }
    eprintln!(
        "chaos campaign: p={p}, max-k={max_k}, seed={seed}, {bytes} B payloads \
         (each case is deadline-bounded; drop cases wait out their timeout)"
    );
    let results = exacoll_chaos::campaign(p, max_k, seed, bytes);
    print!("{}", exacoll_chaos::survival_table(&results));
    // Any failed case is re-run under the recorder and dumped as a
    // self-contained replay artifact, so the failure can be reproduced
    // offline with `exacoll replay <file>`.
    let failed: Vec<_> = results.iter().filter(|r| !r.survived).collect();
    if !failed.is_empty() {
        let dir = args.opt("record").unwrap_or("chaos-artifacts");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for case in &failed {
            let (_, artifact) = exacoll_chaos::run_case_recorded(
                case.op, case.alg, case.p, case.fault, seed, bytes,
            );
            let name = sanitize_artifact_name(&format!(
                "{}-{}-p{}-{}",
                case.op,
                exacoll_core::spec::alg_to_spec(&case.alg),
                case.p,
                case.fault.name()
            ));
            let path = format!("{dir}/{name}.replay.json");
            std::fs::write(&path, artifact.to_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("replay artifact written to {path} (inspect with `exacoll replay {path}`)");
        }
    }
    exacoll_chaos::verdict(&results)
}

/// Make a case label safe as a file name (`:` and `+` appear in alg specs,
/// `@` in optimizer variants).
pub(crate) fn sanitize_artifact_name(label: &str) -> String {
    label
        .chars()
        .map(|c| match c {
            ':' | '+' | '/' | ' ' | '@' => '_',
            c => c,
        })
        .collect()
}

/// Record one fault-free run on the threaded backend as a replay artifact.
fn record(args: &Args) -> Result<(), String> {
    let op = match args.positional() {
        Some(name) => crate::args::parse_op(name)?,
        None => args.op()?,
    };
    let alg = parse_alg(args.req("alg")?)?;
    let p = args.req_usize("ranks")?;
    if p == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let size = match args.opt("size") {
        None => 64,
        Some(s) => crate::args::parse_size(s).ok_or_else(|| format!("bad --size `{s}`"))?,
    };
    // Same payload normalization as launch: alltoall needs p equal blocks,
    // barrier carries none.
    let n = match op {
        CollectiveOp::Alltoall => size.max(p).div_ceil(p) * p,
        CollectiveOp::Barrier => 0,
        _ => size,
    };
    let seed = args.opt_usize("seed", 42)? as u64;
    alg.supports(op, p)?;
    let coll = CollArgs::new(op, alg);
    let artifact = exacoll_replay::record_thread_run(&coll, p, n, seed);
    let default_name = format!(
        "{}.replay.json",
        sanitize_artifact_name(&format!(
            "{op}-{}-p{p}",
            exacoll_core::spec::alg_to_spec(&alg)
        ))
    );
    let path = args.opt("out").unwrap_or(&default_name);
    std::fs::write(path, artifact.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "recorded {op}/{alg} on {p} thread rank(s), {n} B per rank -> {path} \
         (verify with `exacoll replay {path}`)"
    );
    Ok(())
}

/// Replay an artifact against the schedule IR; exit nonzero on divergence
/// or on a gapped/truncated/corrupt artifact.
fn replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional()
        .ok_or("usage: exacoll replay <artifact.json>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let artifact = exacoll_replay::Artifact::from_json(&text).map_err(|e| e.to_string())?;
    let report = exacoll_replay::replay(&artifact).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if report.is_clean() {
        Ok(())
    } else {
        let h = report.headline().expect("diverged report has a headline");
        Err(format!(
            "replay diverged: first at rank {} step {} ({})",
            h.rank, h.step, h.explanation
        ))
    }
}

/// Profile the irregular ("v") variant of a collective over an explicit
/// per-rank count vector: verify the lowered plans, price them on the
/// simulated machine, and run them with real data on the threaded backend
/// against the sequential v-reference. The uniform profile's timeline
/// machinery assumes one payload size per rank, so the v-path reports the
/// verifier's term counts and the simulated makespan instead.
fn profile_v(args: &Args, spec: &str) -> Result<(), String> {
    let counts = CountsSpec::parse(spec)?;
    let op = match args.positional() {
        Some(name) => crate::args::parse_op(name)?,
        None => args.op()?,
    };
    let ranks = counts.ranks();
    if args.opt_usize("ranks", ranks)? != ranks {
        return Err(format!(
            "--ranks disagrees with --counts (the vector names {ranks} rank(s))"
        ));
    }
    if args.opt("select").is_some() {
        return Err("--select cannot be combined with --counts (give an explicit --alg)".into());
    }
    if args.opt("opt").is_some() {
        return Err("--opt does not apply to irregular (--counts) plans".into());
    }
    let ppn = args.opt_usize("ppn", 1)?;
    if ppn == 0 || !ranks.is_multiple_of(ppn) {
        return Err(format!(
            "--ranks must be a positive multiple of --ppn (got ranks={ranks}, ppn={ppn})"
        ));
    }
    let alg = parse_alg(args.req("alg")?)?;
    supports_v(alg, op, counts.counts())?;
    let machine =
        crate::args::parse_machine(args.opt("machine").unwrap_or("frontier"), ranks / ppn, ppn)?;

    let cargs = CollArgs::new(op, alg);
    let plans: Vec<_> = (0..ranks)
        .map(|r| lower_v(&cargs, r, counts.counts()))
        .collect();
    let stats = verify(&plans).map_err(|e| format!("{op}v / {alg}: {e}"))?;
    let sim = exacoll_sim::cost(&machine, &plans).map_err(|e| e.to_string())?;

    let inputs: Vec<Vec<u8>> = plans
        .iter()
        .map(|s| exacoll_obs::payload(s.rank, s.input.len()))
        .collect();
    let expect = expected_outputs_v(op, cargs.dtype, cargs.rop, counts.counts(), &inputs)
        .map_err(|e| e.to_string())?;
    let outputs = exacoll_comm::try_run_ranks(ranks, |c| {
        use exacoll_comm::Comm;
        let r = c.rank();
        exacoll_core::registry::execute_v(c, &cargs, counts.counts(), &inputs[r])
    });
    for (r, out) in outputs.into_iter().enumerate() {
        match out {
            Ok(out) if out == expect[r] => {}
            Ok(_) => return Err(format!("rank {r}: output differs from the v-reference")),
            Err(e) => return Err(format!("rank {r}: {e}")),
        }
    }

    println!(
        "profile: {op}v / {alg} on {} ({ranks} rank(s), counts [{}], {} B total, skew {:.2})",
        machine.name,
        counts.spec(),
        counts.total(),
        counts.skew()
    );
    println!(
        "verifier: {} round(s), {} beta B, {} gamma B",
        stats.alpha_rounds, stats.beta_bytes, stats.gamma_bytes
    );
    println!("sim makespan: {}", sim.makespan);
    println!("thread backend: all {ranks} rank(s) byte-identical to the sequential v-reference");
    Ok(())
}

/// Profile one collective on both backends: per-rank timelines, critical
/// path, model-vs-measured residuals, and an optional Chrome trace.
fn profile(args: &Args) -> Result<(), String> {
    if let Some(spec) = args.opt("counts") {
        return profile_v(args, spec);
    }
    let op = match args.positional() {
        Some(name) => crate::args::parse_op(name)?,
        None => args.op()?,
    };
    let ranks = args.req_usize("ranks")?;
    let ppn = args.opt_usize("ppn", 1)?;
    if ranks == 0 || ppn == 0 || ranks % ppn != 0 {
        return Err(format!(
            "--ranks must be a positive multiple of --ppn (got ranks={ranks}, ppn={ppn})"
        ));
    }
    let machine =
        crate::args::parse_machine(args.opt("machine").unwrap_or("frontier"), ranks / ppn, ppn)?;
    let size = match args.opt("size") {
        None => 1024,
        Some(s) => crate::args::parse_size(s).ok_or_else(|| format!("bad --size `{s}`"))?,
    };
    // Resolve the variant: explicit `--alg` (plus optional `--opt`), or the
    // selection service under `--select auto` (which then gets the measured
    // makespans fed back after the runs). An explicit `--opt` always wins
    // over whatever passes the learned winner carries.
    let (opt, chunk, fuse) = opt_flags(args)?;
    let mut spec = ProfileSpec::plain(
        op,
        exacoll_core::registry::default_algorithm(op),
        machine,
        size,
    );
    spec.chunk_bytes = chunk;
    spec.fuse_bytes = fuse;
    let service = match args.opt("select") {
        None => {
            spec.alg = parse_alg(args.req("alg")?)?;
            spec.opt = opt.unwrap_or(OptSpec::NONE);
            None
        }
        Some("auto") => {
            let (svc, variant) = resolve_auto(args, op, ranks, spec.input_len(), &spec.machine)?;
            spec.alg = variant.alg;
            spec.opt = opt.unwrap_or(variant.opt);
            eprintln!("select: auto resolved {op} p={ranks} -> {variant}");
            Some(svc)
        }
        Some(other) => return Err(format!("--select supports only `auto` (got `{other}`)")),
    };
    spec.alg.supports(op, ranks)?;

    let runs: Vec<BackendRun> = match parse_backend(args.opt("backend").unwrap_or("both"))? {
        Backend::Sim => vec![profile_sim(&spec)?],
        Backend::Thread => vec![profile_thread(&spec)?],
        Backend::Tcp => vec![crate::launch::profile_tcp(&spec)?],
        Backend::Both => vec![profile_thread(&spec)?, profile_sim(&spec)?],
    };

    println!(
        "profile: {op} / {} on {} ({ranks} rank(s), {} B per rank)",
        variant_to_spec(&spec.alg, &spec.opt),
        spec.machine.name,
        spec.input_len()
    );
    let net = net_of(&spec.machine);
    let intra = intra_net_of(&spec.machine);
    let mut metrics = Metrics::new();
    for run in &runs {
        println!();
        println!("== backend: {} ==", run.backend);
        println!("makespan: {:.3} us", run.makespan_ns / 1000.0);
        let cp = exacoll_obs::critical_path::critical_path(&run.timelines);
        print!("{}", exacoll_obs::critical_path::render(&cp));
        let report = analyze_residuals(
            &run.timelines,
            op,
            spec.alg,
            spec.input_len(),
            &net,
            Some(&intra),
        );
        print!("{}", exacoll_obs::residual::render(&report));
        let scope = format!("{op}/{}/{}/{}", spec.alg, spec.input_len(), run.backend);
        metrics.record_timelines(&scope, &run.timelines);
    }

    if let Some(path) = args.opt("chrome") {
        let pairs: Vec<(&str, &[RankTimeline])> = runs
            .iter()
            .map(|r| (r.backend, r.timelines.as_slice()))
            .collect();
        let doc = chrome_trace(&pairs);
        let tracks = rank_tracks(&doc)?;
        std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "chrome trace written to {path} ({} track(s)); open it at https://ui.perfetto.dev",
            tracks.len()
        );
    }
    if let Some(path) = args.opt("metrics") {
        std::fs::write(path, metrics.to_json().pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics snapshot written to {path}");
    }
    if let Some(svc) = &service {
        // Feed real measurements back; the simulator's makespan *is* the
        // cost model, so it would only restate the prior.
        let observed: Vec<f64> = runs
            .iter()
            .filter(|r| r.backend != "sim")
            .map(|r| r.makespan_ns)
            .collect();
        let variant = Variant {
            alg: spec.alg,
            opt: spec.opt,
        };
        record_feedback(svc, args, op, ranks, spec.input_len(), variant, &observed)?;
    }
    Ok(())
}

/// Run the optimizer pass pipeline over one lowered plan set and report
/// each pass's verdict and modeled cost delta. `--check nonneg` turns a
/// modeled regression into a non-zero exit, for CI smoke jobs.
fn opt_cmd(args: &Args) -> Result<(), String> {
    let op = match args.positional() {
        Some(name) => crate::args::parse_op(name)?,
        None => args.op()?,
    };
    let alg = parse_alg(args.req("alg")?)?;
    let ranks = args.req_usize("ranks")?;
    let ppn = args.opt_usize("ppn", 1)?;
    if ranks == 0 || ppn == 0 || !ranks.is_multiple_of(ppn) {
        return Err(format!(
            "--ranks must be a positive multiple of --ppn (got ranks={ranks}, ppn={ppn})"
        ));
    }
    alg.supports(op, ranks)?;
    let machine =
        crate::args::parse_machine(args.opt("machine").unwrap_or("frontier"), ranks / ppn, ppn)?;
    let size = match args.opt("size") {
        None => 1024,
        Some(s) => parse_size(s).ok_or_else(|| format!("bad --size `{s}`"))?,
    };
    let (_, chunk, fuse) = opt_flags(args)?;

    // Same payload normalization as profile/launch: alltoall needs p equal
    // blocks, barrier carries none.
    let n = match op {
        CollectiveOp::Alltoall => size.max(ranks).div_ceil(ranks) * ranks,
        CollectiveOp::Barrier => 0,
        _ => size,
    };
    let cargs = CollArgs::new(op, alg);
    let plans: Vec<_> = (0..ranks).map(|r| lower(&cargs, ranks, r, n)).collect();

    let mut manager = PassManager::new(machine.clone());
    for name in args
        .opt("passes")
        .unwrap_or("pipeline,aggregate,remap")
        .split(',')
    {
        manager = manager.with_pass(match name.trim() {
            "pipeline" | "pipe" => PassKind::Pipeline { chunk_bytes: chunk },
            "aggregate" | "agg" => PassKind::Aggregate {
                max_fuse_bytes: fuse,
            },
            "remap" => PassKind::Remap {
                topo: TopoDesc {
                    nodes: ranks / ppn,
                    ppn,
                },
                layout: layout_for(op),
            },
            other => {
                return Err(format!(
                    "unknown pass `{other}` (expected pipeline|aggregate|remap)"
                ))
            }
        });
    }
    if manager.passes().is_empty() {
        return Err("--passes selects no passes".into());
    }

    let report = manager.run(&plans).map_err(|e| e.to_string())?;
    let mut t = Table::new(
        format!(
            "optimizer report: {op}/{alg} p={ranks} ({n} B per rank) on {}",
            machine.name
        ),
        &["pass", "verdict", "before (us)", "after (us)", "delta"],
    );
    for o in &report.outcomes {
        let verdict = match (&o.refused, o.changed) {
            (Some(why), _) => format!("refused: {why}"),
            (None, true) => "rewritten".into(),
            (None, false) => "no-op".into(),
        };
        let delta = if o.cost_before_ns > 0.0 {
            format!(
                "{:+.2}%",
                (o.cost_after_ns - o.cost_before_ns) / o.cost_before_ns * 100.0
            )
        } else {
            "-".into()
        };
        t.row(vec![
            o.pass.clone(),
            verdict,
            format!("{:.3}", o.cost_before_ns / 1000.0),
            format!("{:.3}", o.cost_after_ns / 1000.0),
            delta,
        ]);
    }
    t.print();
    println!(
        "total: {:.3} us -> {:.3} us ({:+.2}%); every accepted rewrite re-verified \
         and matched the reference bytes",
        report.cost_initial_ns / 1000.0,
        report.cost_final_ns / 1000.0,
        if report.cost_initial_ns > 0.0 {
            (report.cost_final_ns - report.cost_initial_ns) / report.cost_initial_ns * 100.0
        } else {
            0.0
        }
    );
    match args.opt("check") {
        None => Ok(()),
        Some("nonneg") => {
            if report.cost_final_ns > report.cost_initial_ns {
                Err(format!(
                    "--check nonneg: modeled cost regressed {:.0} ns -> {:.0} ns",
                    report.cost_initial_ns, report.cost_final_ns
                ))
            } else {
                Ok(())
            }
        }
        Some(other) => Err(format!("--check supports only `nonneg` (got `{other}`)")),
    }
}

/// Split `p` ranks into a two-level nodes×ppn shape for the remap sweep:
/// the smallest divisor >= 2 becomes the ppn (prime `p` degenerates to one
/// rank per node, which remap treats as a no-op but still validates).
fn split_topo(p: usize) -> TopoDesc {
    let ppn = (2..p).find(|d| p.is_multiple_of(*d)).unwrap_or(1);
    TopoDesc {
        nodes: p / ppn,
        ppn,
    }
}

/// One row of the `verify` table: label, algorithm, and the verifier's
/// α/β/γ counts.
fn stats_row(label: String, alg: impl std::fmt::Display, stats: &ScheduleStats) -> Vec<String> {
    vec![
        label,
        alg.to_string(),
        stats.alpha_rounds.to_string(),
        stats.beta_bytes.to_string(),
        stats.gamma_bytes.to_string(),
    ]
}

/// Evaluate `plans` in the world on probe inputs and compare with the
/// sequential `reference`; any disagreement becomes a failure for `what`.
fn check_reference(
    what: &str,
    plans: &[Schedule],
    failures: &mut Vec<String>,
    reference: impl FnOnce(&[Vec<u8>]) -> CommResult<Vec<Vec<u8>>>,
) {
    let inputs = probe_inputs(plans);
    match (evaluate(plans, &inputs), reference(&inputs)) {
        (Ok(out), Ok(expect)) if out == expect => {}
        (Ok(_), Ok(_)) => failures.push(format!("{what}: outputs differ from reference")),
        (Err(e), _) => failures.push(format!("{what}: evaluation: {e}")),
        (_, Err(e)) => failures.push(format!("{what}: reference: {e}")),
    }
}

/// Statically verify every registry candidate's lowered schedule: per-rank
/// plans must be deadlock-free, tag-hygienic, and cover every output byte.
/// Every optimizer pass is then applied to every candidate and the result
/// re-verified *and* checked byte-identical on rank-distinguishing probe
/// inputs — the optimizer must never be able to break a plan the verifier
/// accepted.
fn verify_schedules(args: &Args) -> Result<(), String> {
    let p = args.opt_usize("ranks", 8)?;
    let max_k = args.opt_usize("max-k", 4)?;
    if p == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let n = match args.opt("size") {
        None => 8 * p,
        Some(s) => crate::args::parse_size(s).ok_or_else(|| format!("bad --size `{s}`"))?,
    };
    let mut t = Table::new(
        format!("schedule verification: p = {p}, {n} B per rank, k <= {max_k}"),
        &["collective", "algorithm", "rounds", "beta (B)", "gamma (B)"],
    );
    let mut checked = 0usize;
    let mut rewrites = 0usize;
    // Check every configuration before deciding the exit code, so one bad
    // schedule doesn't hide the rest of the audit.
    let mut failures: Vec<String> = Vec::new();
    for op in CollectiveOp::ALL {
        // Alltoall plans need p equal blocks; round the payload up.
        let n_op = if op == CollectiveOp::Alltoall {
            n.div_ceil(p) * p
        } else {
            n
        };
        // The optimizer sweep for this op: a chunk small enough that
        // pipelining actually bites at this payload, the default fuse
        // ceiling, and a two-level split of p for the remap.
        let passes = [
            PassKind::Pipeline {
                chunk_bytes: (n_op / 2).max(1),
            },
            PassKind::Aggregate {
                max_fuse_bytes: OPT_AGGREGATE_MAX_FUSE_BYTES,
            },
            PassKind::Remap {
                topo: split_topo(p),
                layout: layout_for(op),
            },
        ];
        for alg in candidates(op, p, max_k) {
            let cargs = CollArgs::new(op, alg);
            let plans: Vec<_> = (0..p).map(|r| lower(&cargs, p, r, n_op)).collect();
            match verify(&plans) {
                Ok(stats) => {
                    t.row(stats_row(op.to_string(), alg, &stats));
                    let inputs = probe_inputs(&plans);
                    let reference = match evaluate(&plans, &inputs) {
                        Ok(r) => Some(r),
                        Err(e) => {
                            failures.push(format!("{op} / {alg}: baseline evaluation: {e}"));
                            None
                        }
                    };
                    for pass in &passes {
                        let rewritten = match pass.apply(&plans) {
                            Ok(r) => r,
                            Err(e) => {
                                failures.push(format!("{op} / {alg} under {pass}: {e}"));
                                continue;
                            }
                        };
                        if rewritten == plans {
                            continue;
                        }
                        rewrites += 1;
                        if let Err(e) = verify(&rewritten) {
                            failures
                                .push(format!("{op} / {alg} after {pass}: re-verification: {e}"));
                            continue;
                        }
                        if let Some(reference) = &reference {
                            match evaluate(&rewritten, &inputs) {
                                Ok(out) if &out == reference => {}
                                Ok(_) => failures.push(format!(
                                    "{op} / {alg} after {pass}: outputs differ from reference"
                                )),
                                Err(e) => failures
                                    .push(format!("{op} / {alg} after {pass}: evaluation: {e}")),
                            }
                        }
                    }
                }
                Err(e) => {
                    t.row(vec![
                        op.to_string(),
                        alg.to_string(),
                        "FAIL".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    failures.push(format!("{op} / {alg}: {e}"));
                }
            }
            checked += 1;
        }
    }

    // ---- irregular ("v") collectives ------------------------------------
    // Sweep every v-capable candidate over either the user's `--counts`
    // vector or a built-in ragged grid (uniform control, heavy-head skew,
    // zero-count ranks). Each plan set must verify *and* evaluate
    // byte-identical to the sequential v-reference.
    let count_grid: Vec<Vec<usize>> = match args.opt("counts") {
        Some(spec) => vec![CountsSpec::parse(spec)?.counts().to_vec()],
        None => {
            let mut head = vec![8usize; p];
            head[0] = 8 * p;
            let holes: Vec<usize> = (0..p).map(|r| if r % 2 == 0 { 24 } else { 0 }).collect();
            vec![vec![8usize; p], head, holes]
        }
    };
    for counts in &count_grid {
        let fmt_counts = counts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        for op in [CollectiveOp::Allgather, CollectiveOp::ReduceScatter] {
            for alg in unique_candidates_v(op, max_k, counts) {
                let cargs = CollArgs::new(op, alg);
                let plans: Vec<_> = (0..counts.len())
                    .map(|r| lower_v(&cargs, r, counts))
                    .collect();
                let label = format!("{op}v [{fmt_counts}]");
                match verify(&plans) {
                    Ok(stats) => {
                        t.row(stats_row(label.clone(), alg, &stats));
                        check_reference(
                            &format!("{label} / {alg}"),
                            &plans,
                            &mut failures,
                            |ins| expected_outputs_v(op, cargs.dtype, cargs.rop, counts, ins),
                        );
                    }
                    Err(e) => failures.push(format!("{label} / {alg}: {e}")),
                }
                checked += 1;
            }
        }
    }

    // Generalized allreduce at awkward (non-power-of-k) process counts —
    // the worlds the block-recursive construction exists for — pinned
    // independently of `--ranks`.
    for (pg, k) in [(6usize, 2usize), (7, 2), (7, 3), (9, 2), (9, 3)] {
        let alg = Algorithm::GeneralizedMultiplying { k };
        let cargs = CollArgs::new(CollectiveOp::Allreduce, alg);
        let plans: Vec<_> = (0..pg).map(|r| lower(&cargs, pg, r, 32)).collect();
        let label = format!("allreduce p={pg}");
        match verify(&plans) {
            Ok(stats) => {
                t.row(stats_row(label.clone(), alg, &stats));
                check_reference(&format!("{label} / {alg}"), &plans, &mut failures, |ins| {
                    expected_outputs(cargs.op, cargs.root, cargs.dtype, cargs.rop, ins)
                });
            }
            Err(e) => failures.push(format!("{label} / {alg}: {e}")),
        }
        checked += 1;
    }

    // Multi-tenant tag partitioning: two concurrent collectives sharing one
    // runtime must verify per-tenant (disjoint tag windows) *and* as the
    // single merged plan set the shared runtime actually executes.
    if p >= 2 {
        let rewrite = |id: usize, cargs: &CollArgs| -> Vec<_> {
            (0..p)
                .map(|r| Tenant::new(id).rewrite(&lower(cargs, p, r, 16)))
                .collect()
        };
        let t0 = rewrite(0, &CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring));
        let t1 = rewrite(
            1,
            &CollArgs::new(
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 2 },
            ),
        );
        let tenants = [
            TenantPlans {
                tenant: 0,
                window: Tenant::new(0).window(),
                schedules: &t0,
            },
            TenantPlans {
                tenant: 1,
                window: Tenant::new(1).window(),
                schedules: &t1,
            },
        ];
        if let Err(e) = verify_tenants(&tenants) {
            failures.push(format!("tenancy: per-tenant verification: {e}"));
        }
        let merged: Vec<_> = (0..p)
            .map(|r| merge_tenants(&[t0[r].clone(), t1[r].clone()]))
            .collect();
        match verify(&merged) {
            Ok(stats) => {
                t.row(stats_row(
                    "2 tenants (merged)".into(),
                    "ring + recmult:2",
                    &stats,
                ));
            }
            Err(e) => failures.push(format!("tenancy: merged plan set: {e}")),
        }
        checked += 1;
    }

    t.print();
    if !failures.is_empty() {
        return Err(format!(
            "{}/{checked} configuration(s) failed verification:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    println!(
        "{checked} configurations verified: matched sends, no deadlock, full data flow; \
         {rewrites} optimizer rewrite(s) re-verified byte-identical \
         (including irregular v-plans, generalized allreduce, and tenant tag windows)"
    );
    Ok(())
}

/// List the machine presets.
fn machines() -> Result<(), String> {
    let mut t = Table::new(
        "simulated machine presets",
        &[
            "name",
            "ports/node",
            "inter alpha",
            "inter GB/s",
            "intra alpha",
            "topology",
        ],
    );
    for m in [
        exacoll_sim::Machine::frontier(128, 8),
        exacoll_sim::Machine::polaris(128, 4),
        exacoll_sim::Machine::aurora(128, 12),
        exacoll_sim::Machine::testbed(8, 1, 2),
    ] {
        t.row(vec![
            m.name.split('-').next().unwrap_or(&m.name).to_string(),
            m.ports_per_node.to_string(),
            format!("{:.1} us", m.inter.alpha_ns / 1000.0),
            format!("{:.1}", 1.0 / m.inter.beta_ns_per_byte),
            format!("{:.1} us", m.intra.alpha_ns / 1000.0),
            format!("{:?}", m.topology),
        ]);
    }
    t.print();
    Ok(())
}

/// Print Table I.
fn table1() {
    let mut t = Table::new(
        "Table I  generalized kernels",
        &["base", "generalized", "collectives"],
    );
    for (base, general, ops) in table_i() {
        let names: Vec<String> = ops.iter().map(|o| o.to_string()).collect();
        t.row(vec![base.into(), general.into(), names.join(", ")]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: &str) -> Result<(), String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        dispatch(&argv).map_err(|e| e.to_string())
    }

    #[test]
    fn machines_and_table1_print() {
        run("machines").unwrap();
        run("table1").unwrap();
    }

    #[test]
    fn time_command_runs() {
        run("time --machine frontier --nodes 4 --ppn 2 --op allreduce --alg recmult:4 --size 64K")
            .unwrap();
    }

    #[test]
    fn radix_command_runs() {
        run("radix --machine testbed --nodes 4 --op reduce --size 8 --max-k 4").unwrap();
    }

    #[test]
    fn sweep_command_runs_with_explicit_sizes() {
        run("sweep --machine frontier --nodes 4 --op bcast --sizes 8,1K --max-k 4").unwrap();
    }

    #[test]
    fn verify_command_sweeps_the_registry_and_optimizer() {
        // Every pass over every candidate must re-verify and stay
        // byte-identical at even, power-of-two, and odd-composite worlds.
        for p in [4, 6, 8, 9] {
            run(&format!("verify --ranks {p} --max-k 4")).unwrap();
        }
        run("verify --ranks 4 --size 64").unwrap();
        assert!(run("verify --ranks 0").is_err());
    }

    #[test]
    fn verify_command_accepts_an_explicit_count_vector() {
        // A ragged vector with a zero-count rank sweeps every v-capable
        // candidate and the tenancy/genmult checks alongside it.
        run("verify --ranks 4 --max-k 3 --counts 24,0,56,8").unwrap();
        assert!(run("verify --ranks 4 --counts 24,x,8").is_err());
    }

    #[test]
    fn profile_counts_runs_the_v_path_and_validates_flags() {
        run("profile allgather --alg ring --machine testbed --counts 96,0,24,8").unwrap();
        run("profile reduce_scatter --alg ring --machine testbed --counts 64,16,0,48").unwrap();
        // bruck rotates fixed-size blocks: uniform counts only.
        let err =
            run("profile allgather --alg bruck --machine testbed --counts 96,0,24,8").unwrap_err();
        assert!(err.contains("uniform"), "got: {err}");
        // --ranks must agree with the vector; --select/--opt don't compose.
        assert!(run("profile allgather --alg ring --ranks 8 --counts 96,0,24,8").is_err());
        assert!(run("profile allgather --select auto --counts 96,0,24,8").is_err());
        assert!(run("profile allgather --alg ring --opt pipeline --counts 96,0,24,8").is_err());
    }

    #[test]
    fn opt_command_reports_pass_deltas() {
        // Large messages, one rank per node: pipelining must not regress
        // the modeled cost (CI smoke leans on --check nonneg).
        run(
            "opt allgather --alg ring --ranks 8 --machine frontier --size 4M \
             --passes pipeline --check nonneg",
        )
        .unwrap();
        // Default pass pipeline on a hierarchical shape, tiny payload.
        run("opt allreduce --alg recmult:2 --ranks 8 --ppn 4 --machine frontier --size 64")
            .unwrap();
        assert!(run("opt allgather --alg ring --ranks 8 --passes wat").is_err());
        assert!(run("opt allgather --alg ring --ranks 8 --check wat").is_err());
        assert!(run("opt allgather --alg ring --ranks 6 --ppn 4").is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(run("sweep --machine nope --nodes 4 --op bcast").is_err());
        assert!(run("time --machine frontier --nodes 4 --op bcast --alg bruck --size 8").is_err());
        assert!(run("wat").is_err());
    }

    #[test]
    fn record_then_replay_round_trips_cleanly() {
        let dir = std::env::temp_dir().join(format!("exacoll-cli-rr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("case.replay.json");
        run(&format!(
            "record allreduce --alg recmult:2 --ranks 4 --size 32 --out {}",
            out.display()
        ))
        .unwrap();
        run(&format!("replay {}", out.display())).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_rejects_missing_and_corrupt_artifacts() {
        assert!(run("replay /nonexistent/artifact.json").is_err());
        let dir = std::env::temp_dir().join(format!("exacoll-cli-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(run(&format!("replay {}", path.display())).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_validates_its_arguments() {
        // bruck does not implement allreduce; ranks must be positive.
        assert!(run("record allreduce --alg bruck --ranks 4").is_err());
        assert!(run("record bcast --alg ring --ranks 0").is_err());
        assert!(run("record bcast --alg ring").is_err());
    }

    #[test]
    fn select_seed_show_diff_export_import_round_trip() {
        let dir = std::env::temp_dir().join(format!("exacoll-cli-select-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let table = dir.join("table.json");
        let copy = dir.join("copy.json");
        run(&format!(
            "select seed --machine testbed --nodes 4 --sizes 64,4K --max-k 4 --table {}",
            table.display()
        ))
        .unwrap();
        assert!(table.exists());
        run(&format!("select show --table {}", table.display())).unwrap();
        run(&format!("select diff --table {}", table.display())).unwrap();
        run(&format!(
            "select export --table {} --out {}",
            table.display(),
            copy.display()
        ))
        .unwrap();
        // Export is already canonical, so import re-serializes identically.
        run(&format!(
            "select import --from {} --table {}",
            copy.display(),
            table.display()
        ))
        .unwrap();
        assert_eq!(
            std::fs::read(&table).unwrap(),
            std::fs::read(&copy).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn select_rejects_unknown_actions_and_missing_tables() {
        assert!(run("select wat").is_err());
        assert!(run("select show --table /nonexistent/table.json").is_err());
        assert!(run("select import --table /tmp/t.json").is_err()); // --from required
    }

    #[test]
    fn profile_select_rejects_non_auto_values() {
        let err = run("profile allreduce --select always --ranks 4").unwrap_err();
        assert!(err.contains("auto"), "got: {err}");
    }

    #[test]
    fn artifact_names_are_filesystem_safe() {
        assert_eq!(
            sanitize_artifact_name("allreduce-recmult:4-p8-corrupt"),
            "allreduce-recmult_4-p8-corrupt"
        );
        assert_eq!(
            sanitize_artifact_name("allreduce-reduce+bcast:2-p6"),
            "allreduce-reduce_bcast_2-p6"
        );
    }
}
