//! The locality-remapping pass: permute rank→placement to keep heavy
//! traffic on cheap links.
//!
//! A lowered plan assigns algorithmic *roles* to physical ranks by
//! identity. On a hierarchical machine (intra-node cheap, inter-node
//! expensive) that identity mapping can be badly wrong: recursive
//! multiplying's last — largest — exchange crosses node boundaries under
//! block placement, while a Bine-style relabeling puts it entirely
//! in-node. This pass builds the role-to-role traffic matrix from the
//! steps, hill-climbs a permutation σ minimizing inter-node bytes under the
//! given [`TopoDesc`], and rewrites every schedule so role `r`'s program
//! runs on physical rank σ(r) with all peers mapped through σ.
//!
//! Relabeling alone changes which *data* lands where for collectives whose
//! buffers are rank-indexed block arrays (allgather, alltoall, gather), so
//! the pass additionally permutes the input/output byte views per the
//! [`BlockLayout`] the caller derives from the collective: the universal
//! fixup is `new_view = concat_j old_view.slice(σ⁻¹(j)·nb, nb)`, which
//! re-routes block `j` to/from the physical rank that now plays role
//! σ⁻¹(j). σ is further restricted to permute only within (input length,
//! output length) signature classes, which pins roots and any other
//! shape-distinguished rank. Reduce-scatter's output block is chosen by the
//! role itself and cannot be fixed up by views, so callers pass
//! [`BlockLayout::Fixed`] and the pass returns the plan unchanged.

use crate::OptError;
use exacoll_core::registry::CollectiveOp;
use exacoll_core::schedule::{Schedule, SgList, Step};

/// A two-level machine shape: `nodes` nodes of `ppn` ranks each, block
/// placement (rank `r` lives on node `r / ppn`) — the same convention the
/// simulator's `Machine` uses. Intra-node traffic is considered cheap,
/// inter-node traffic expensive; the pass minimizes the latter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoDesc {
    /// Node count.
    pub nodes: usize,
    /// Ranks per node.
    pub ppn: usize,
}

impl TopoDesc {
    /// The node hosting physical rank `r`.
    pub fn node_of(&self, r: usize) -> usize {
        r / self.ppn
    }
}

/// How a collective's user-visible buffers relate to rank indices, i.e.
/// which views need permuting when roles move. Derive with [`layout_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockLayout {
    /// No rank-indexed blocks (bcast, reduce, allreduce, barrier): pure
    /// relabeling suffices.
    Symmetric,
    /// The output is `p` rank-indexed blocks on every rank that has a
    /// non-empty output (allgather everywhere, gather at the root).
    OutputBlocks,
    /// Both input and output are `p` rank-indexed blocks (alltoall).
    InputOutputBlocks,
    /// Placement is semantically fixed; remapping must not touch the plan
    /// (reduce-scatter: each role computes its own output block).
    Fixed,
}

/// The [`BlockLayout`] of each collective in the registry.
pub fn layout_for(op: CollectiveOp) -> BlockLayout {
    match op {
        CollectiveOp::Bcast
        | CollectiveOp::Reduce
        | CollectiveOp::Allreduce
        | CollectiveOp::Barrier => BlockLayout::Symmetric,
        CollectiveOp::Allgather | CollectiveOp::Gather => BlockLayout::OutputBlocks,
        CollectiveOp::Alltoall => BlockLayout::InputOutputBlocks,
        CollectiveOp::ReduceScatter => BlockLayout::Fixed,
    }
}

/// Role-to-role traffic in bytes, from the plan's send steps.
fn traffic_matrix(schedules: &[Schedule]) -> Vec<Vec<u64>> {
    let p = schedules.len();
    let mut t = vec![vec![0u64; p]; p];
    for s in schedules {
        for step in &s.steps {
            match step {
                Step::Send { to, src, .. } => t[s.rank][*to] += src.len() as u64,
                Step::SendRecv { to, src, .. } => t[s.rank][*to] += src.len() as u64,
                _ => {}
            }
        }
    }
    t
}

/// Bytes crossing node boundaries when role `r` runs on rank `sigma[r]`.
fn inter_node_bytes(t: &[Vec<u64>], sigma: &[usize], topo: &TopoDesc) -> u64 {
    let mut total = 0;
    for (r, row) in t.iter().enumerate() {
        for (s, &bytes) in row.iter().enumerate() {
            if topo.node_of(sigma[r]) != topo.node_of(sigma[s]) {
                total += bytes;
            }
        }
    }
    total
}

/// Deterministic greedy hill-climb: repeatedly apply the best
/// cost-reducing swap of two same-class roles (lowest-index pair on ties)
/// until no swap improves. Signature classes — (input length, output
/// length) — pin roots in place.
fn solve_sigma(t: &[Vec<u64>], classes: &[(usize, usize)], topo: &TopoDesc) -> Vec<usize> {
    let p = classes.len();
    let mut sigma: Vec<usize> = (0..p).collect();
    let mut cost = inter_node_bytes(t, &sigma, topo);
    loop {
        let mut best: Option<(u64, usize, usize)> = None;
        for a in 0..p {
            for b in a + 1..p {
                if classes[a] != classes[b] {
                    continue;
                }
                sigma.swap(a, b);
                let c = inter_node_bytes(t, &sigma, topo);
                sigma.swap(a, b);
                if c < cost && best.is_none_or(|(bc, _, _)| c < bc) {
                    best = Some((c, a, b));
                }
            }
        }
        match best {
            Some((c, a, b)) => {
                sigma.swap(a, b);
                cost = c;
            }
            None => return sigma,
        }
    }
}

/// Permute a rank-indexed block view: block `j` of the new view is block
/// σ⁻¹(j) of the old, so physical rank `j`'s data flows through the role
/// now playing it. No-op on views that are empty or not `p` equal blocks.
fn permute_blocks(view: &SgList, sigma_inv: &[usize]) -> SgList {
    let p = sigma_inv.len();
    if view.is_empty() || !view.len().is_multiple_of(p) {
        return view.clone();
    }
    let nb = view.len() / p;
    SgList::concat(
        &(0..p)
            .map(|j| view.slice(sigma_inv[j] * nb, nb))
            .collect::<Vec<_>>(),
    )
}

/// Apply the remapping pass under `topo`, with buffer semantics described
/// by `layout`. Returns the plan unchanged when the hill-climb finds no
/// improving permutation (or `layout` is [`BlockLayout::Fixed`]).
///
/// # Errors
///
/// [`OptError::BadParam`] when `topo` does not cover exactly the plan's
/// rank count.
pub fn remap(
    schedules: &[Schedule],
    topo: &TopoDesc,
    layout: BlockLayout,
) -> Result<Vec<Schedule>, OptError> {
    let p = schedules.len();
    if topo.nodes * topo.ppn != p || topo.ppn == 0 {
        return Err(OptError::BadParam(format!(
            "topology {}x{} does not cover p = {p}",
            topo.nodes, topo.ppn
        )));
    }
    if layout == BlockLayout::Fixed || topo.nodes < 2 {
        return Ok(schedules.to_vec());
    }
    let t = traffic_matrix(schedules);
    let classes: Vec<(usize, usize)> = schedules
        .iter()
        .map(|s| (s.input.len(), s.output.len()))
        .collect();
    let sigma = solve_sigma(&t, &classes, topo);
    if sigma.iter().enumerate().all(|(r, &q)| r == q) {
        return Ok(schedules.to_vec());
    }
    let mut sigma_inv = vec![0usize; p];
    for (r, &q) in sigma.iter().enumerate() {
        sigma_inv[q] = r;
    }
    // Physical rank q runs role sigma_inv[q]'s program with peers mapped
    // through sigma and rank-indexed block views permuted.
    let mut out = Vec::with_capacity(p);
    for q in 0..p {
        let role = &schedules[sigma_inv[q]];
        let mut ns = role.clone();
        ns.rank = q;
        for step in &mut ns.steps {
            match step {
                Step::Send { to, .. } => *to = sigma[*to],
                Step::Recv { from, .. } => *from = sigma[*from],
                Step::SendRecv { to, from, .. } => {
                    *to = sigma[*to];
                    *from = sigma[*from];
                }
                _ => {}
            }
        }
        if matches!(layout, BlockLayout::InputOutputBlocks) {
            ns.input = permute_blocks(&ns.input, &sigma_inv);
        }
        if matches!(
            layout,
            BlockLayout::OutputBlocks | BlockLayout::InputOutputBlocks
        ) {
            ns.output = permute_blocks(&ns.output, &sigma_inv);
        }
        out.push(ns);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::registry::{lower, Algorithm, CollArgs, CollectiveOp};
    use exacoll_core::schedule::verify::verify;
    use exacoll_core::schedule::world::{evaluate, probe_inputs};

    fn lowered(op: CollectiveOp, alg: Algorithm, p: usize, n: usize) -> Vec<Schedule> {
        let args = CollArgs::new(op, alg);
        (0..p).map(|r| lower(&args, p, r, n)).collect()
    }

    #[test]
    fn recursive_multiplying_allgather_moves_big_exchanges_in_node() {
        // p = 8, 2 nodes of 4: recursive doubling's dimension-2 exchange
        // (4n bytes per rank) crosses nodes under identity; the remap puts
        // it in-node, leaving only the n-byte dimension on the cut.
        let plans = lowered(
            CollectiveOp::Allgather,
            Algorithm::RecursiveMultiplying { k: 2 },
            8,
            32,
        );
        let topo = TopoDesc { nodes: 2, ppn: 4 };
        let t = traffic_matrix(&plans);
        let before = inter_node_bytes(&t, &(0..8).collect::<Vec<_>>(), &topo);
        let mapped = remap(&plans, &topo, BlockLayout::OutputBlocks).unwrap();
        verify(&mapped).expect("remapped plan must re-verify");
        let t2 = traffic_matrix(&mapped);
        let after = inter_node_bytes(&t2, &(0..8).collect::<Vec<_>>(), &topo);
        assert!(
            after * 2 <= before,
            "expected at least 2x inter-node reduction, got {before} -> {after}"
        );
        // And the block fixup keeps outputs byte-identical.
        let inputs = probe_inputs(&plans);
        assert_eq!(
            evaluate(&mapped, &inputs).unwrap(),
            evaluate(&plans, &inputs).unwrap()
        );
    }

    #[test]
    fn alltoall_fixup_routes_both_directions() {
        let plans = lowered(
            CollectiveOp::Alltoall,
            Algorithm::GeneralizedBruck { r: 2 },
            8,
            64,
        );
        let topo = TopoDesc { nodes: 2, ppn: 4 };
        let mapped = remap(&plans, &topo, BlockLayout::InputOutputBlocks).unwrap();
        verify(&mapped).expect("remapped alltoall must re-verify");
        let inputs = probe_inputs(&plans);
        assert_eq!(
            evaluate(&mapped, &inputs).unwrap(),
            evaluate(&plans, &inputs).unwrap()
        );
    }

    #[test]
    fn roots_are_pinned_by_signature_classes() {
        let plans = lowered(
            CollectiveOp::Bcast,
            Algorithm::KnomialTree { k: 2 },
            8,
            1024,
        );
        let topo = TopoDesc { nodes: 2, ppn: 4 };
        let mapped = remap(&plans, &topo, BlockLayout::Symmetric).unwrap();
        verify(&mapped).expect("remapped bcast must re-verify");
        // Role 0 (the root, the only rank with input) must still be rank 0.
        assert_eq!(mapped[0].input.len(), 1024);
        assert!(mapped[1..].iter().all(|s| s.input.is_empty()));
        let inputs = probe_inputs(&plans);
        assert_eq!(
            evaluate(&mapped, &inputs).unwrap(),
            evaluate(&plans, &inputs).unwrap()
        );
    }

    #[test]
    fn fixed_layout_and_single_node_are_no_ops() {
        let plans = lowered(CollectiveOp::ReduceScatter, Algorithm::Ring, 4, 16);
        let topo = TopoDesc { nodes: 2, ppn: 2 };
        assert_eq!(remap(&plans, &topo, BlockLayout::Fixed).unwrap(), plans);
        let one = TopoDesc { nodes: 1, ppn: 4 };
        assert_eq!(remap(&plans, &one, BlockLayout::Symmetric).unwrap(), plans);
        let bad = TopoDesc { nodes: 3, ppn: 2 };
        assert!(remap(&plans, &bad, BlockLayout::Fixed).is_err());
    }
}
