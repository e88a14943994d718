//! # exacoll-opt — verified optimizer passes over the schedule IR
//!
//! Every collective in this workspace lowers to the per-rank [`Schedule`]
//! IR, and the static verifier (`schedule::verify`) can prove a plan set
//! deadlock-free, define-once, FIFO-matched, and tag-hygienic. That makes
//! automated plan *rewriting* safe: a pass may transform plans
//! aggressively, because an independent checker re-proves every guarantee
//! afterwards and the single-threaded world evaluator
//! ([`exacoll_core::schedule::world`]) — the same executor live runs use —
//! re-checks byte-identical results.
//!
//! Three passes ship today:
//!
//! * [`pipeline`] — chunk messages larger than a threshold so one logical
//!   transfer stripes across the node's NIC port pool and small tails turn
//!   eager ([`exacoll_core::spec::OPT_PIPELINE_CHUNK_BYTES`]).
//! * [`aggregate`] — fuse consecutive small same-peer messages into one
//!   scatter-gather send
//!   ([`exacoll_core::spec::OPT_AGGREGATE_MAX_FUSE_BYTES`]).
//! * [`remap`] — permute rank→placement under a hierarchical topology
//!   descriptor to move heavy traffic onto cheap intra-node links,
//!   Bine-style.
//!
//! The [`PassManager`] composes passes and enforces the contract: each
//! rewrite must (1) re-verify, (2) leave the world evaluator's outputs
//! byte-identical on rank-distinguishing probe inputs, and (3) be priced by
//! `sim::cost` before/after so wins are quantified, not asserted. A rewrite
//! failing (1) or (2) is *refused* — the previous plan is kept and the
//! refusal reason reported.

pub mod aggregate;
pub mod cached;
pub mod pipeline;
pub mod remap;

pub use aggregate::{aggregate, naive_block_exchange};
pub use cached::{cached_plan, cached_world};
pub use pipeline::pipeline;
pub use remap::{layout_for, remap, BlockLayout, TopoDesc};

use exacoll_core::schedule::verify::{verify, ScheduleStats};
use exacoll_core::schedule::world::{evaluate, probe_inputs};
use exacoll_core::schedule::Schedule;
use exacoll_core::spec::OptSpec;
use exacoll_sim::{cost, Machine};
use std::fmt;

/// Why the optimizer could not run at all (pass parameter or baseline
/// problems — a *refused rewrite* is reported in [`PassOutcome::refused`]
/// instead, because refusal is the gate working as designed).
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// A pass parameter is out of range.
    BadParam(String),
    /// The input plan set fails static verification — the optimizer only
    /// accepts plans the verifier already accepts.
    InvalidInput(String),
    /// The input plan set cannot be evaluated or priced.
    Baseline(String),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::BadParam(s) => write!(f, "bad pass parameter: {s}"),
            OptError::InvalidInput(s) => write!(f, "input plan fails verification: {s}"),
            OptError::Baseline(s) => write!(f, "cannot establish baseline: {s}"),
        }
    }
}

impl std::error::Error for OptError {}

/// One optimizer pass with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Chunk messages larger than `chunk_bytes`.
    Pipeline {
        /// Maximum message size before splitting.
        chunk_bytes: usize,
    },
    /// Fuse consecutive same-peer sends up to `max_fuse_bytes` combined.
    Aggregate {
        /// Combined-payload ceiling for fusion.
        max_fuse_bytes: usize,
    },
    /// Permute rank→placement under `topo` with buffer semantics `layout`.
    Remap {
        /// The two-level machine shape.
        topo: TopoDesc,
        /// Which views are rank-indexed blocks.
        layout: BlockLayout,
    },
}

impl PassKind {
    /// Run the pass as a pure plan-set transformation (no gating).
    pub fn apply(&self, schedules: &[Schedule]) -> Result<Vec<Schedule>, OptError> {
        match self {
            PassKind::Pipeline { chunk_bytes } => pipeline(schedules, *chunk_bytes),
            PassKind::Aggregate { max_fuse_bytes } => aggregate(schedules, *max_fuse_bytes),
            PassKind::Remap { topo, layout } => remap(schedules, topo, *layout),
        }
    }
}

impl fmt::Display for PassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassKind::Pipeline { chunk_bytes } => write!(f, "pipeline(chunk={chunk_bytes})"),
            PassKind::Aggregate { max_fuse_bytes } => {
                write!(f, "aggregate(fuse={max_fuse_bytes})")
            }
            PassKind::Remap { topo, .. } => {
                write!(f, "remap({}x{})", topo.nodes, topo.ppn)
            }
        }
    }
}

/// What happened to one pass in a [`PassManager`] run.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// Human-readable pass name with parameters.
    pub pass: String,
    /// Whether the pass changed the plan (and the change was accepted).
    pub changed: bool,
    /// Why the rewrite was refused, if it was (plan kept as-is).
    pub refused: Option<String>,
    /// Modeled makespan (ns) entering the pass.
    pub cost_before_ns: f64,
    /// Modeled makespan (ns) leaving the pass.
    pub cost_after_ns: f64,
    /// Verifier stats entering the pass.
    pub stats_before: ScheduleStats,
    /// Verifier stats leaving the pass.
    pub stats_after: ScheduleStats,
}

/// The result of running a pass pipeline: the final (verified,
/// byte-identical) plan set plus per-pass accounting.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// Per-pass outcomes, in pipeline order.
    pub outcomes: Vec<PassOutcome>,
    /// The final plan set.
    pub schedules: Vec<Schedule>,
    /// Modeled makespan (ns) of the unoptimized input.
    pub cost_initial_ns: f64,
    /// Modeled makespan (ns) of the final plan set.
    pub cost_final_ns: f64,
}

/// Composes optimizer passes and enforces the rewrite contract: re-verify,
/// byte-identity on probe inputs, and before/after cost pricing on one
/// machine model.
#[derive(Debug, Clone)]
pub struct PassManager {
    machine: Machine,
    passes: Vec<PassKind>,
}

impl PassManager {
    /// A manager pricing rewrites on `machine`, with no passes yet.
    pub fn new(machine: Machine) -> Self {
        PassManager {
            machine,
            passes: Vec::new(),
        }
    }

    /// Append a pass to the pipeline.
    pub fn with_pass(mut self, pass: PassKind) -> Self {
        self.passes.push(pass);
        self
    }

    /// The pipeline an [`OptSpec`] describes, using the given thresholds
    /// (pipeline before aggregate, matching [`apply_opt_spec`]).
    pub fn from_opt_spec(machine: Machine, opt: &OptSpec, chunk: usize, fuse: usize) -> Self {
        let mut m = PassManager::new(machine);
        if opt.pipeline {
            m = m.with_pass(PassKind::Pipeline { chunk_bytes: chunk });
        }
        if opt.aggregate {
            m = m.with_pass(PassKind::Aggregate {
                max_fuse_bytes: fuse,
            });
        }
        m
    }

    /// The configured passes, in order.
    pub fn passes(&self) -> &[PassKind] {
        &self.passes
    }

    /// Run the pipeline over `schedules` (one per rank).
    ///
    /// # Errors
    ///
    /// [`OptError::InvalidInput`] when the *input* fails verification,
    /// [`OptError::Baseline`] when it cannot be evaluated or priced, and
    /// [`OptError::BadParam`] on out-of-range pass parameters. A rewrite
    /// that fails re-verification or changes the reference bytes is not an
    /// error: it is refused and recorded in the matching [`PassOutcome`].
    pub fn run(&self, schedules: &[Schedule]) -> Result<OptReport, OptError> {
        let mut stats = verify(schedules).map_err(|e| OptError::InvalidInput(e.to_string()))?;
        let inputs = probe_inputs(schedules);
        let reference =
            evaluate(schedules, &inputs).map_err(|e| OptError::Baseline(e.to_string()))?;
        let price = |plans: &[Schedule]| -> Result<f64, String> {
            cost(&self.machine, plans)
                .map(|o| o.makespan.as_nanos())
                .map_err(|e| e.to_string())
        };
        let cost_initial_ns = price(schedules).map_err(OptError::Baseline)?;

        let mut cur = schedules.to_vec();
        let mut cur_cost = cost_initial_ns;
        let mut outcomes = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let candidate = pass.apply(&cur)?;
            let mut outcome = PassOutcome {
                pass: pass.to_string(),
                changed: false,
                refused: None,
                cost_before_ns: cur_cost,
                cost_after_ns: cur_cost,
                stats_before: stats,
                stats_after: stats,
            };
            if candidate != cur {
                // The gate: re-verify, byte-identity, re-price. Any failure
                // refuses the rewrite and keeps the current plan.
                let gated = verify(&candidate)
                    .map_err(|e| format!("re-verification failed: {e}"))
                    .and_then(|st| {
                        let out = evaluate(&candidate, &inputs)
                            .map_err(|e| format!("evaluation failed: {e}"))?;
                        if out != reference {
                            return Err("outputs differ from the reference result".into());
                        }
                        Ok(st)
                    })
                    .and_then(|st| {
                        let c = price(&candidate).map_err(|e| format!("pricing failed: {e}"))?;
                        Ok((st, c))
                    });
                match gated {
                    Ok((st, c)) => {
                        outcome.changed = true;
                        outcome.cost_after_ns = c;
                        outcome.stats_after = st;
                        stats = st;
                        cur = candidate;
                        cur_cost = c;
                    }
                    Err(why) => outcome.refused = Some(why),
                }
            }
            outcomes.push(outcome);
        }
        Ok(OptReport {
            outcomes,
            schedules: cur,
            cost_initial_ns,
            cost_final_ns: cur_cost,
        })
    }
}

/// Apply the passes an [`OptSpec`] selects as a pure, deterministic plan
/// transformation — pipeline first, then aggregate — with no verification
/// gate and no pricing. This is what execution paths (launch workers, the
/// profiler) call: every process transforms the same lowered plans with the
/// same spec and thresholds and therefore posts the same messages. The
/// gate lives in [`PassManager::run`] and in the verify sweep, which cover
/// the same transformations.
///
/// # Errors
///
/// [`OptError::BadParam`] when a threshold is zero.
pub fn apply_opt_spec(
    schedules: &[Schedule],
    opt: &OptSpec,
    chunk_bytes: usize,
    max_fuse_bytes: usize,
) -> Result<Vec<Schedule>, OptError> {
    let mut cur = schedules.to_vec();
    if opt.pipeline {
        cur = pipeline(&cur, chunk_bytes)?;
    }
    if opt.aggregate {
        cur = aggregate(&cur, max_fuse_bytes)?;
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::registry::{lower, Algorithm, CollArgs, CollectiveOp};
    use exacoll_core::spec::{OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES};

    fn lowered(op: CollectiveOp, alg: Algorithm, p: usize, n: usize) -> Vec<Schedule> {
        let args = CollArgs::new(op, alg);
        (0..p).map(|r| lower(&args, p, r, n)).collect()
    }

    #[test]
    fn manager_prices_a_pipeline_win_at_large_messages() {
        // One rank per frontier node: each node's 4-NIC port pool serves a
        // single rank, so chunking a 4 MiB ring block stripes one logical
        // transfer across all four rails and the modeled makespan drops.
        // (With ppn = 4 the pool is already saturated by four ranks'
        // concurrent sends and chunking would only add overhead.)
        let plans = lowered(CollectiveOp::Allgather, Algorithm::Ring, 8, 4 << 20);
        let m = PassManager::new(Machine::frontier(8, 1)).with_pass(PassKind::Pipeline {
            chunk_bytes: OPT_PIPELINE_CHUNK_BYTES,
        });
        let report = m.run(&plans).unwrap();
        let o = &report.outcomes[0];
        assert!(o.changed && o.refused.is_none(), "{:?}", o.refused);
        assert!(
            report.cost_final_ns < report.cost_initial_ns,
            "pipelining 4 MiB messages should beat {} ns, got {} ns",
            report.cost_initial_ns,
            report.cost_final_ns
        );
        verify(&report.schedules).unwrap();
    }

    #[test]
    fn manager_reports_noop_passes_without_refusal() {
        // Tiny messages: nothing to chunk, nothing to fuse.
        let plans = lowered(CollectiveOp::Allreduce, Algorithm::Ring, 4, 16);
        let m = PassManager::from_opt_spec(
            Machine::testbed(2, 2, 2),
            &exacoll_core::spec::OptSpec {
                pipeline: true,
                aggregate: true,
            },
            OPT_PIPELINE_CHUNK_BYTES,
            OPT_AGGREGATE_MAX_FUSE_BYTES,
        );
        let report = m.run(&plans).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        for o in &report.outcomes {
            assert!(!o.changed && o.refused.is_none());
            assert_eq!(o.cost_before_ns, o.cost_after_ns);
        }
        assert_eq!(report.schedules, plans);
    }

    #[test]
    fn manager_refuses_a_semantics_breaking_rewrite() {
        // A remap told the output has no rank-indexed blocks when it does:
        // relabeling then misroutes blocks, the byte-identity gate must
        // refuse, and the original plan must survive.
        let plans = lowered(
            CollectiveOp::Allgather,
            Algorithm::RecursiveMultiplying { k: 2 },
            8,
            64,
        );
        let m = PassManager::new(Machine::testbed(2, 4, 2)).with_pass(PassKind::Remap {
            topo: TopoDesc { nodes: 2, ppn: 4 },
            layout: BlockLayout::Symmetric,
        });
        let report = m.run(&plans).unwrap();
        let o = &report.outcomes[0];
        assert!(!o.changed, "mislabeled remap must not be accepted");
        assert!(
            o.refused.as_deref().unwrap_or("").contains("reference"),
            "{:?}",
            o.refused
        );
        assert_eq!(report.schedules, plans);
        assert_eq!(report.cost_final_ns, report.cost_initial_ns);
    }

    #[test]
    fn manager_rejects_invalid_input_plans() {
        use exacoll_core::schedule::ScheduleBuilder;
        // An unmatched send fails input verification outright.
        let mut b = ScheduleBuilder::new(2, 0);
        let x = b.alloc(4);
        b.send(1, 1, x.clone());
        let s0 = b.finish(x, exacoll_core::schedule::SgList::empty());
        let s1 = ScheduleBuilder::new(2, 1).finish(
            exacoll_core::schedule::SgList::empty(),
            exacoll_core::schedule::SgList::empty(),
        );
        let m = PassManager::new(Machine::testbed(1, 2, 2))
            .with_pass(PassKind::Pipeline { chunk_bytes: 1 });
        assert!(matches!(m.run(&[s0, s1]), Err(OptError::InvalidInput(_))));
    }

    #[test]
    fn apply_opt_spec_is_deterministic_and_matches_manager_output() {
        let plans = lowered(CollectiveOp::Allgather, Algorithm::Ring, 6, 3000);
        let spec = exacoll_core::spec::OptSpec {
            pipeline: true,
            aggregate: true,
        };
        let a = apply_opt_spec(&plans, &spec, 1024, 256).unwrap();
        let b = apply_opt_spec(&plans, &spec, 1024, 256).unwrap();
        assert_eq!(a, b);
        let m = PassManager::from_opt_spec(Machine::testbed(2, 3, 2), &spec, 1024, 256);
        let report = m.run(&plans).unwrap();
        assert_eq!(report.schedules, a);
    }
}
