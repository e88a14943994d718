//! Reduction-to-root algorithms.
//!
//! * k-nomial tree reduce (§III); the paper's headline
//!   k-nomial collective (Fig. 8a, Fig. 9a, Fig. 10a). `k = 2` is MPICH's
//!   binomial reduce. The tree is *receive-heavy at parents*: each parent
//!   absorbs `k-1` concurrent child messages per level, which multi-port
//!   NICs and message buffering overlap cheaply — the reason the optimal
//!   radix for tiny messages sits near `p`.
//! * linear — every rank sends its vector to the root, which
//!   combines them sequentially.
//!
//! Reductions assume a commutative operator (all [`ReduceOp`]s are); partial
//! results are always folded in ascending source-rank order so results are
//! bitwise deterministic for a given tree shape. In the lowered plan that
//! order is the order of the [`Step::Compute`](crate::schedule::Step) steps.

use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::topo::KnomialTree;
use exacoll_comm::{DType, Rank, ReduceOp};

/// Lower a k-nomial reduce into `b`, accumulating in place into `own`.
/// Returns the result view at the root, `None` elsewhere.
pub(crate) fn build_reduce_knomial(
    b: &mut ScheduleBuilder,
    k: usize,
    root: Rank,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> Option<SgList> {
    let p = b.p();
    let me = b.rank();
    let n = own.len();
    if p == 1 {
        return Some(own);
    }
    let t = KnomialTree::new(p, k);
    let v = t.vrank(me, root);
    // Round index = distance from the root's level: the tree round in
    // which this rank forwards its partial upward (0 at the root).
    b.mark("red-knomial", (t.depth() - t.level(v)) as u32);
    let mut children = t.children(v);
    // Post every child receive up front (message buffering), then fold
    // in ascending vrank order for determinism.
    children.sort_unstable();
    let regions: Vec<SgList> = children
        .iter()
        .map(|&ch| {
            let region = b.alloc(n);
            b.recv(t.unvrank(ch, root), tags::REDUCE_TREE, region.clone());
            region
        })
        .collect();
    for region in regions {
        b.reduce(dtype, op, region, own.clone());
    }
    if let Some(parent) = t.parent(v) {
        b.send(t.unvrank(parent, root), tags::REDUCE_TREE, own);
        return None;
    }
    Some(own)
}

/// Lower a linear reduce into `b`, accumulating in place into `own`.
pub(crate) fn build_reduce_linear(
    b: &mut ScheduleBuilder,
    root: Rank,
    own: SgList,
    dtype: DType,
    op: ReduceOp,
) -> Option<SgList> {
    let p = b.p();
    let n = own.len();
    if b.rank() == root {
        // Fold in ascending sender order.
        let regions: Vec<SgList> = (0..p)
            .filter(|&r| r != root)
            .map(|r| {
                let region = b.alloc(n);
                b.recv(r, tags::REDUCE_LINEAR, region.clone());
                region
            })
            .collect();
        for region in regions {
            b.reduce(dtype, op, region, own.clone());
        }
        Some(own)
    } else {
        b.send(root, tags::REDUCE_LINEAR, own);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Algorithm, CollArgs, CollectiveOp};
    use crate::testkit::live;
    use exacoll_comm::{reduce_ops::reduce_all, TypedBuf};

    fn args(alg: Algorithm, root: usize, dtype: DType, rop: ReduceOp) -> CollArgs {
        CollArgs {
            root,
            dtype,
            rop,
            ..CollArgs::new(CollectiveOp::Reduce, alg)
        }
    }

    fn rank_input(rank: usize, count: usize, dtype: DType) -> Vec<u8> {
        let vals: Vec<f64> = (0..count)
            .map(|i| ((rank + 1) * (i + 2) % 17) as f64)
            .collect();
        TypedBuf::from_f64s(dtype, &vals).bytes
    }

    fn check(p: usize, k: usize, root: usize, count: usize, dtype: DType, op: ReduceOp) {
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| rank_input(r, count, dtype)).collect();
        let expect = reduce_all(dtype, op, &inputs).unwrap();
        let out = live(
            &args(Algorithm::KnomialTree { k }, root, dtype, op),
            &inputs,
        );
        for (r, o) in out.iter().enumerate() {
            if r == root {
                assert_eq!(o, &expect, "p={p} k={k} root={root} {dtype} {op}");
            } else {
                assert!(o.is_empty());
            }
        }
    }

    #[test]
    fn knomial_sum_across_shapes() {
        for p in [1usize, 2, 3, 6, 9, 16, 17] {
            for k in [2usize, 3, 5, 16] {
                check(p, k, 0, 8, DType::I64, ReduceOp::Sum);
            }
        }
    }

    #[test]
    fn knomial_nonzero_root() {
        for root in 0..6 {
            check(6, 3, root, 5, DType::I32, ReduceOp::Sum);
        }
    }

    #[test]
    fn knomial_every_op_and_dtype() {
        for op in ReduceOp::ALL {
            for dtype in DType::ALL {
                if op.supports(dtype) {
                    check(7, 3, 2, 6, dtype, op);
                }
            }
        }
    }

    #[test]
    fn knomial_float_exact_on_small_ints() {
        check(9, 3, 0, 16, DType::F64, ReduceOp::Sum);
        check(8, 4, 3, 16, DType::F32, ReduceOp::Max);
    }

    #[test]
    fn linear_matches_reference() {
        for p in [1usize, 2, 5, 9] {
            let inputs: Vec<Vec<u8>> = (0..p).map(|r| rank_input(r, 4, DType::U64)).collect();
            let expect = reduce_all(DType::U64, ReduceOp::Prod, &inputs).unwrap();
            let out = live(
                &args(Algorithm::Linear, 0, DType::U64, ReduceOp::Prod),
                &inputs,
            );
            assert_eq!(out[0], expect);
        }
    }

    #[test]
    fn k_equals_p_single_round() {
        // Flat tree: root absorbs p-1 messages in one round.
        check(10, 10, 0, 3, DType::I32, ReduceOp::Min);
    }

    #[test]
    fn zero_length_reduce() {
        let out = live(
            &args(
                Algorithm::KnomialTree { k: 2 },
                0,
                DType::F64,
                ReduceOp::Sum,
            ),
            &vec![vec![]; 4],
        );
        assert_eq!(out, vec![Vec::<u8>::new(); 4]);
    }
}
