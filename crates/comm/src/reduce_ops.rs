//! Typed elementwise reductions over raw byte buffers.
//!
//! Collective reduction algorithms (reduce, allreduce, reduce-scatter) move
//! opaque byte buffers but must combine them elementwise according to a
//! [`ReduceOp`] and [`DType`], exactly as MPICH's `MPIR_Reduce_local` does.
//! Integer arithmetic wraps so that results are deterministic regardless of
//! the order in which a tree or ring combines partial results.

use crate::error::{CommError, CommResult};
use crate::types::{DType, ReduceOp};

macro_rules! reduce_typed {
    ($acc:expr, $src:expr, $op:expr, $ty:ty, $from:ident, $to:ident, $wrap_sum:expr, $wrap_prod:expr) => {{
        let n = std::mem::size_of::<$ty>();
        for (a, s) in $acc.chunks_exact_mut(n).zip($src.chunks_exact(n)) {
            let x = <$ty>::$from(a.try_into().unwrap());
            let y = <$ty>::$from(s.try_into().unwrap());
            let r: $ty = match $op {
                ReduceOp::Sum => $wrap_sum(x, y),
                ReduceOp::Prod => $wrap_prod(x, y),
                ReduceOp::Max => {
                    if y > x {
                        y
                    } else {
                        x
                    }
                }
                ReduceOp::Min => {
                    if y < x {
                        y
                    } else {
                        x
                    }
                }
                _ => unreachable!("bitwise handled separately"),
            };
            a.copy_from_slice(&r.$to());
        }
    }};
}

/// Lane count per iteration of the fast path's inner loop. A fixed trip
/// count gives the autovectorizer a straight shot at SIMD codegen.
#[cfg(target_endian = "little")]
const LANES: usize = 8;

/// Aligned typed fast path: reinterpret both buffers as element slices and
/// combine them in fixed-width chunks. Returns `false` when either buffer
/// does not land on element alignment — the portable per-element decoder
/// below handles those, with bit-identical results.
#[cfg(target_endian = "little")]
macro_rules! reduce_lanes {
    ($acc:expr, $src:expr, $op:expr, $ty:ty, $sum:expr, $prod:expr) => {{
        // SAFETY: every bit pattern is a valid $ty (plain integer or IEEE
        // float), so viewing aligned u8 storage as $ty lanes is sound; on
        // little-endian targets the view equals `from_le_bytes` per element.
        let (ah, am, at) = unsafe { $acc.align_to_mut::<$ty>() };
        let (sh, sm, st) = unsafe { $src.align_to::<$ty>() };
        if !ah.is_empty() || !at.is_empty() || !sh.is_empty() || !st.is_empty() {
            false
        } else {
            #[inline(always)]
            fn apply<T: Copy>(am: &mut [T], sm: &[T], f: impl Fn(T, T) -> T) {
                let mut ac = am.chunks_exact_mut(LANES);
                let mut sc = sm.chunks_exact(LANES);
                for (a, s) in ac.by_ref().zip(sc.by_ref()) {
                    for i in 0..LANES {
                        a[i] = f(a[i], s[i]);
                    }
                }
                for (a, s) in ac.into_remainder().iter_mut().zip(sc.remainder().iter()) {
                    *a = f(*a, *s);
                }
            }
            match $op {
                ReduceOp::Sum => apply(am, sm, $sum),
                ReduceOp::Prod => apply(am, sm, $prod),
                ReduceOp::Max => apply(am, sm, |x: $ty, y: $ty| if y > x { y } else { x }),
                ReduceOp::Min => apply(am, sm, |x: $ty, y: $ty| if y < x { y } else { x }),
                _ => unreachable!("bitwise handled separately"),
            }
            true
        }
    }};
}

#[cfg(target_endian = "little")]
fn reduce_fast(dtype: DType, op: ReduceOp, acc: &mut [u8], src: &[u8]) -> bool {
    match dtype {
        // The byte path below is already lane-width.
        DType::U8 => false,
        DType::I32 => reduce_lanes!(acc, src, op, i32, i32::wrapping_add, i32::wrapping_mul),
        DType::I64 => reduce_lanes!(acc, src, op, i64, i64::wrapping_add, i64::wrapping_mul),
        DType::U64 => reduce_lanes!(acc, src, op, u64, u64::wrapping_add, u64::wrapping_mul),
        DType::F32 => reduce_lanes!(
            acc,
            src,
            op,
            f32,
            |x: f32, y: f32| x + y,
            |x: f32, y: f32| x * y
        ),
        DType::F64 => reduce_lanes!(
            acc,
            src,
            op,
            f64,
            |x: f64, y: f64| x + y,
            |x: f64, y: f64| x * y
        ),
    }
}

macro_rules! reduce_bitwise {
    ($acc:expr, $src:expr, $op:expr) => {{
        for (a, s) in $acc.iter_mut().zip($src.iter()) {
            *a = match $op {
                ReduceOp::BAnd => *a & *s,
                ReduceOp::BOr => *a | *s,
                ReduceOp::BXor => *a ^ *s,
                _ => unreachable!(),
            };
        }
    }};
}

/// [`reduce_into`]'s checks, on operand lengths alone: a reduction can be
/// validated without its bytes.
pub fn check_reduction(
    dtype: DType,
    op: ReduceOp,
    acc_len: usize,
    src_len: usize,
) -> CommResult<()> {
    if !op.supports(dtype) {
        return Err(CommError::UnsupportedReduction { op, dtype });
    }
    if acc_len != src_len || !acc_len.is_multiple_of(dtype.size()) {
        return Err(CommError::MisalignedBuffer {
            len: if acc_len != src_len { src_len } else { acc_len },
            dtype,
        });
    }
    Ok(())
}

/// Combine `src` into `acc` elementwise: `acc[i] = op(acc[i], src[i])`.
///
/// Both buffers must have the same length and that length must be a whole
/// number of `dtype` elements.
///
/// # Errors
///
/// * [`CommError::UnsupportedReduction`] for bitwise ops on floats.
/// * [`CommError::MisalignedBuffer`] if lengths differ or are not a multiple
///   of the element size.
pub fn reduce_into(dtype: DType, op: ReduceOp, acc: &mut [u8], src: &[u8]) -> CommResult<()> {
    check_reduction(dtype, op, acc.len(), src.len())?;
    match op {
        ReduceOp::BAnd | ReduceOp::BOr | ReduceOp::BXor => reduce_bitwise!(acc, src, op),
        _ => {
            #[cfg(target_endian = "little")]
            if reduce_fast(dtype, op, acc, src) {
                return Ok(());
            }
            reduce_slow(dtype, op, acc, src)
        }
    }
    Ok(())
}

/// Portable per-element decode/combine/encode path. Alignment-oblivious;
/// the reference semantics the fast path must match bit-for-bit.
fn reduce_slow(dtype: DType, op: ReduceOp, acc: &mut [u8], src: &[u8]) {
    {
        match dtype {
            DType::U8 => {
                for (a, s) in acc.iter_mut().zip(src.iter()) {
                    *a = match op {
                        ReduceOp::Sum => a.wrapping_add(*s),
                        ReduceOp::Prod => a.wrapping_mul(*s),
                        ReduceOp::Max => (*a).max(*s),
                        ReduceOp::Min => (*a).min(*s),
                        _ => unreachable!(),
                    };
                }
            }
            DType::I32 => reduce_typed!(
                acc,
                src,
                op,
                i32,
                from_le_bytes,
                to_le_bytes,
                i32::wrapping_add,
                i32::wrapping_mul
            ),
            DType::I64 => reduce_typed!(
                acc,
                src,
                op,
                i64,
                from_le_bytes,
                to_le_bytes,
                i64::wrapping_add,
                i64::wrapping_mul
            ),
            DType::U64 => reduce_typed!(
                acc,
                src,
                op,
                u64,
                from_le_bytes,
                to_le_bytes,
                u64::wrapping_add,
                u64::wrapping_mul
            ),
            DType::F32 => reduce_typed!(
                acc,
                src,
                op,
                f32,
                from_le_bytes,
                to_le_bytes,
                |x: f32, y: f32| x + y,
                |x: f32, y: f32| x * y
            ),
            DType::F64 => reduce_typed!(
                acc,
                src,
                op,
                f64,
                from_le_bytes,
                to_le_bytes,
                |x: f64, y: f64| x + y,
                |x: f64, y: f64| x * y
            ),
        }
    }
}

/// Sequentially reduce a set of buffers into one, in ascending index order.
///
/// This is the reference semantics the collective test-suite checks tree and
/// ring reductions against.
pub fn reduce_all(dtype: DType, op: ReduceOp, bufs: &[Vec<u8>]) -> CommResult<Vec<u8>> {
    assert!(!bufs.is_empty(), "reduce_all needs at least one buffer");
    let mut acc = bufs[0].clone();
    for b in &bufs[1..] {
        reduce_into(dtype, op, &mut acc, b)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i32s(v: &[i32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }
    fn f64s(v: &[f64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn sum_i32() {
        let mut a = i32s(&[1, -2, 3]);
        reduce_into(DType::I32, ReduceOp::Sum, &mut a, &i32s(&[10, 20, 30])).unwrap();
        assert_eq!(a, i32s(&[11, 18, 33]));
    }

    #[test]
    fn sum_wraps() {
        let mut a = i32s(&[i32::MAX]);
        reduce_into(DType::I32, ReduceOp::Sum, &mut a, &i32s(&[1])).unwrap();
        assert_eq!(a, i32s(&[i32::MIN]));
    }

    #[test]
    fn prod_max_min_f64() {
        let mut a = f64s(&[2.0, -1.0, 5.0]);
        reduce_into(DType::F64, ReduceOp::Prod, &mut a, &f64s(&[3.0, 4.0, 0.5])).unwrap();
        assert_eq!(a, f64s(&[6.0, -4.0, 2.5]));

        let mut a = f64s(&[2.0, -1.0]);
        reduce_into(DType::F64, ReduceOp::Max, &mut a, &f64s(&[1.0, 7.0])).unwrap();
        assert_eq!(a, f64s(&[2.0, 7.0]));

        let mut a = f64s(&[2.0, -1.0]);
        reduce_into(DType::F64, ReduceOp::Min, &mut a, &f64s(&[1.0, 7.0])).unwrap();
        assert_eq!(a, f64s(&[1.0, -1.0]));
    }

    #[test]
    fn bitwise_u8() {
        let mut a = vec![0b1100u8];
        reduce_into(DType::U8, ReduceOp::BAnd, &mut a, &[0b1010]).unwrap();
        assert_eq!(a, vec![0b1000]);
        let mut a = vec![0b1100u8];
        reduce_into(DType::U8, ReduceOp::BOr, &mut a, &[0b1010]).unwrap();
        assert_eq!(a, vec![0b1110]);
        let mut a = vec![0b1100u8];
        reduce_into(DType::U8, ReduceOp::BXor, &mut a, &[0b1010]).unwrap();
        assert_eq!(a, vec![0b0110]);
    }

    #[test]
    fn bitwise_on_float_is_error() {
        let mut a = f64s(&[1.0]);
        let e = reduce_into(DType::F64, ReduceOp::BXor, &mut a, &f64s(&[2.0])).unwrap_err();
        assert!(matches!(e, CommError::UnsupportedReduction { .. }));
    }

    #[test]
    fn length_mismatch_is_error() {
        let mut a = i32s(&[1, 2]);
        let e = reduce_into(DType::I32, ReduceOp::Sum, &mut a, &i32s(&[1])).unwrap_err();
        assert!(matches!(e, CommError::MisalignedBuffer { .. }));
    }

    #[test]
    fn misaligned_is_error() {
        let mut a = vec![0u8; 6];
        let src = vec![0u8; 6];
        let e = reduce_into(DType::I32, ReduceOp::Sum, &mut a, &src).unwrap_err();
        assert!(matches!(e, CommError::MisalignedBuffer { len: 6, .. }));
    }

    #[test]
    fn reduce_all_matches_sequential() {
        let bufs: Vec<Vec<u8>> = (0..5).map(|r| i32s(&[r, r * 2, 100 - r])).collect();
        let out = reduce_all(DType::I32, ReduceOp::Sum, &bufs).unwrap();
        assert_eq!(out, i32s(&[1 + 2 + 3 + 4, 2 + 4 + 6 + 8, 500 - 10]));
    }

    /// The aligned fast path and the portable decoder must agree
    /// bit-for-bit. Offsetting both buffers by one byte defeats element
    /// alignment, forcing the portable path; comparing against the aligned
    /// run of the same data pins the two implementations together.
    #[test]
    fn fast_and_portable_paths_agree() {
        let dtypes = [DType::I32, DType::I64, DType::U64, DType::F32, DType::F64];
        let ops = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];
        for dtype in dtypes {
            let n = dtype.size() * 19;
            // Floats get finite values (NaN payloads would still agree, but
            // finite data makes a failure legible); ints get raw LCG bytes.
            let fill = |seed: u64| -> Vec<u8> {
                match dtype {
                    DType::F32 => (0..19)
                        .flat_map(|i| ((i as f32) * 0.75 - seed as f32).to_le_bytes())
                        .collect(),
                    DType::F64 => (0..19)
                        .flat_map(|i| ((i as f64) * 1.25 + seed as f64).to_le_bytes())
                        .collect(),
                    _ => {
                        let mut x = seed | 1;
                        (0..n)
                            .map(|_| {
                                x = x
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                                (x >> 32) as u8
                            })
                            .collect()
                    }
                }
            };
            for op in ops {
                let (acc0, src0) = (fill(3), fill(11));
                // Aligned run: Vec allocations land on element alignment.
                let mut aligned = acc0.clone();
                reduce_into(dtype, op, &mut aligned, &src0).unwrap();
                // Misaligned run: same bytes shifted one past an aligned base.
                let mut abuf = vec![0u8; n + 1];
                let mut sbuf = vec![0u8; n + 1];
                abuf[1..].copy_from_slice(&acc0);
                sbuf[1..].copy_from_slice(&src0);
                reduce_into(dtype, op, &mut abuf[1..], &sbuf[1..]).unwrap();
                assert_eq!(aligned, abuf[1..], "divergence for {dtype} {op}");
            }
        }
    }

    #[test]
    fn u64_prod_wraps() {
        let mut a: Vec<u8> = u64::MAX.to_le_bytes().to_vec();
        reduce_into(DType::U64, ReduceOp::Prod, &mut a, &2u64.to_le_bytes()).unwrap();
        assert_eq!(a, (u64::MAX.wrapping_mul(2)).to_le_bytes().to_vec());
    }
}
