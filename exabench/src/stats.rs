//! Summary statistics: nearest-rank percentiles with the ten-samples-beyond
//! rule, per-step max over ranks, medians, and geometric means.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Zero-based index of the nearest-rank `pct` percentile in a sorted sample
/// of `n` values: the smallest value with at least `pct`% of the sample at
/// or below it.
fn rank_index(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the `pct` percentile's rank.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, pct)
}

/// Whether a sample of `n` values supports reporting the `pct` percentile:
/// at least [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, pct: f64) -> bool {
    beyond(n, pct) >= MIN_BEYOND
}

/// Nearest-rank `pct` percentile of an already sorted, non-empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank_index(sorted.len(), pct)]
}

/// The reported tail: `want` when the sample supports it, else the highest
/// percentile of `ladder` (descending) that it does support, else the
/// median. Returns `(percentile, value)`.
pub fn tail(sorted: &[f64], want: f64, ladder: &[f64]) -> (f64, f64) {
    let pct = std::iter::once(want)
        .chain(ladder.iter().copied().filter(|&p| p < want))
        .find(|&p| supports(sorted.len(), p))
        .unwrap_or(50.0);
    (pct, percentile(sorted, pct))
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-step maximum over ranks: `per_rank[r][i]` is rank `r`'s duration of
/// step `i`; the result's entry `i` is the slowest rank's. Every rank must
/// have timed the same steps.
pub fn max_over_ranks(per_rank: &[Vec<u64>]) -> Result<Vec<u64>, String> {
    let Some(first) = per_rank.first() else {
        return Ok(Vec::new());
    };
    if let Some((r, v)) = per_rank
        .iter()
        .enumerate()
        .find(|(_, v)| v.len() != first.len())
    {
        return Err(format!(
            "rank {r} timed {} steps, rank 0 timed {}",
            v.len(),
            first.len()
        ));
    }
    Ok((0..first.len())
        .map(|i| per_rank.iter().map(|v| v[i]).max().expect("non-empty"))
        .collect())
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    assert!(xs.iter().all(|&x| x > 0.0), "geomean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples has exactly ten beyond it; of 999, nine.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_falls_back_down_the_ladder() {
        let ladder = [99.0, 95.0, 90.0, 75.0, 50.0];
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big, 99.0, &ladder), (99.0, 990.0));
        let mid: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&mid, 99.0, &ladder), (90.0, 135.0));
        let tiny: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&tiny, 99.0, &ladder), (50.0, 3.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn per_step_max_over_ranks() {
        let per_rank = vec![vec![5, 1, 9], vec![2, 8, 9]];
        assert_eq!(max_over_ranks(&per_rank).unwrap(), vec![5, 8, 9]);
        assert!(max_over_ranks(&[vec![1], vec![1, 2]]).is_err());
        assert!(max_over_ranks(&[]).unwrap().is_empty());
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
