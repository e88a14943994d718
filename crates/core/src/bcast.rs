//! Broadcast algorithms.
//!
//! * k-nomial tree (§III); `k = 2` is MPICH's binomial. Best for small,
//!   latency-bound messages.
//! * linear — root sends to every rank sequentially; the naïve
//!   `p(α + βn)` baseline from §III-B.
//! * scatter-allgather — the large-message path (§V-C): a binomial
//!   scatter of `n/p` blocks followed by any allgather kernel (ring, k-ring,
//!   or recursive multiplying), exactly how MPICH composes its large
//!   broadcast and how the paper's k-ring and recursive-multiplying
//!   broadcasts are built.
//!
//! Each variant is a schedule *builder*: lowering appends [`crate::schedule`]
//! steps, and [`crate::registry`] dispatches to them.

use crate::allgather::{build_allgather_kernel, AllgatherKernel};
use crate::scatter::build_scatter_knomial;
use crate::schedule::{ScheduleBuilder, SgList};
use crate::tags;
use crate::topo::KnomialTree;
use crate::util::block_len;
use exacoll_comm::Rank;

/// Lower a k-nomial broadcast into `b`. `data` must be `Some` at the root;
/// returns the full-payload view every rank ends up holding.
pub(crate) fn build_bcast_knomial(
    b: &mut ScheduleBuilder,
    k: usize,
    root: Rank,
    data: Option<SgList>,
    n: usize,
) -> SgList {
    let p = b.p();
    let me = b.rank();
    if p == 1 {
        return data.expect("root provides data");
    }
    let t = KnomialTree::new(p, k);
    let v = t.vrank(me, root);
    // Round index = distance from the root's level: the tree round in which
    // this rank receives its data (0 at the root).
    b.mark("bc-knomial", (t.depth() - t.level(v)) as u32);
    let data = if v == 0 {
        data.expect("root provides data")
    } else {
        let parent = t.unvrank(t.parent(v).expect("non-root"), root);
        let region = b.alloc(n);
        b.recv(parent, tags::BCAST_TREE, region.clone());
        region
    };
    // Deepest-subtree children first; all sends overlap via buffering.
    for ch in t.children(v) {
        b.send(t.unvrank(ch, root), tags::BCAST_TREE, data.clone());
    }
    data
}

/// Lower a linear broadcast into `b`.
pub(crate) fn build_bcast_linear(
    b: &mut ScheduleBuilder,
    root: Rank,
    data: Option<SgList>,
    n: usize,
) -> SgList {
    let p = b.p();
    if b.rank() == root {
        let data = data.expect("root provides data");
        for r in (0..p).filter(|&r| r != root) {
            b.send(r, tags::BCAST_LINEAR, data.clone());
        }
        data
    } else {
        let region = b.alloc(n);
        b.recv(root, tags::BCAST_LINEAR, region.clone());
        region
    }
}

/// Lower a scatter-allgather broadcast into `b`: binomial scatter of
/// near-equal blocks, then the chosen allgather kernel reassembles the
/// payload everywhere.
pub(crate) fn build_bcast_scatter_allgather(
    b: &mut ScheduleBuilder,
    kernel: AllgatherKernel,
    root: Rank,
    data: Option<SgList>,
    n: usize,
) -> SgList {
    let p = b.p();
    if p == 1 {
        return data.expect("root provides data");
    }
    b.mark("bc-scatter", 0);
    let my_block = build_scatter_knomial(b, 2, root, data, n);
    let sizes: Vec<usize> = (0..p).map(|i| block_len(n, p, i)).collect();
    let blocks = build_allgather_kernel(b, kernel, my_block, &sizes);
    SgList::concat(&blocks)
}

#[cfg(test)]
mod tests {
    use crate::registry::{Algorithm, CollArgs, CollectiveOp};
    use crate::testkit::live;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// Broadcast `payload(n)` from `root` with `alg`; every rank's output
    /// must be the payload.
    fn check(p: usize, alg: Algorithm, root: usize, n: usize) {
        let data = payload(n);
        let inputs: Vec<Vec<u8>> = (0..p)
            .map(|r| if r == root { data.clone() } else { vec![0; n] })
            .collect();
        let args = CollArgs {
            root,
            ..CollArgs::new(CollectiveOp::Bcast, alg)
        };
        for (r, o) in live(&args, &inputs).iter().enumerate() {
            assert_eq!(o, &data, "{alg} p={p} root={root} n={n} rank={r}");
        }
    }

    #[test]
    fn knomial_all_radixes_roots_sizes() {
        for p in [1usize, 2, 3, 4, 6, 9, 16, 17] {
            for k in [2usize, 3, 4, 8] {
                for root in [0, p / 2, p - 1] {
                    check(p, Algorithm::KnomialTree { k }, root, 33);
                }
            }
        }
    }

    #[test]
    fn linear_matches() {
        for p in [1usize, 2, 5, 8] {
            for root in [0, p - 1] {
                check(p, Algorithm::Linear, root, 17);
            }
        }
    }

    #[test]
    fn scatter_allgather_ring() {
        for p in [2usize, 3, 7, 8] {
            for root in [0, p - 1] {
                for n in [0usize, 5, 64, 129] {
                    check(p, Algorithm::Ring, root, n);
                }
            }
        }
    }

    #[test]
    fn scatter_allgather_kring() {
        for (p, k) in [(6usize, 3usize), (8, 4), (8, 2), (12, 4), (9, 3)] {
            check(p, Algorithm::KRing { k }, 1, 97);
        }
    }

    #[test]
    fn scatter_allgather_recmult() {
        for (p, k) in [(8usize, 2usize), (9, 3), (12, 4), (7, 4), (10, 5)] {
            check(p, Algorithm::RecursiveMultiplying { k }, 0, 64);
        }
    }

    #[test]
    fn zero_byte_bcast() {
        check(5, Algorithm::KnomialTree { k: 3 }, 0, 0);
    }
}
