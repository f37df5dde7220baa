//! Order statistics: the percentile rule, medians, and the quartile
//! spread the benchmark prints beside every end-to-end metric.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// The value at quantile `q` of `sorted` (ascending nanosecond readings),
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
///
/// Clock readings are whole nanoseconds, so many samples tie. A reading
/// `v` stands for a true value somewhere in `[v - 0.5, v + 0.5)`; the
/// rank is interpolated inside its run of ties so the result keeps
/// sub-nanosecond resolution instead of sticking to one integer.
pub fn percentile(sorted: &[u32], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - rank < MIN_BEYOND {
        return None;
    }
    let v = sorted[rank];
    let first = sorted.partition_point(|&x| x < v);
    let last = sorted.partition_point(|&x| x <= v);
    let within = (rank - first) as f64 + 0.5;
    Some(v as f64 - 0.5 + within / (last - first) as f64)
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one window.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// the spreads printed here are the ones the acceptance script sees.
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0 or there is a single value).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// Least-squares line through `(x, y)` points: `(intercept, slope)`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom == 0.0 {
        return (sy / n.max(1.0), 0.0);
    }
    let slope = (n * sxy - sx * sy) / denom;
    ((sy - slope * sx) / n, slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u32> = (0..1010).collect();
        // p99 of 1010 samples sits at rank 999: exactly 10 beyond.
        assert!(percentile(&v, 0.99).is_some());
        let v: Vec<u32> = (0..1009).collect();
        // rank 998 of 1009: 10 beyond still (ceil(998.91) = 999 -> idx 998).
        assert!(percentile(&v, 0.99).is_some());
        let v: Vec<u32> = (0..900).collect();
        assert!(percentile(&v, 0.99).is_none(), "only 9 beyond");
        assert!(percentile(&v, 0.5).is_some());
        let v: Vec<u32> = (0..19).collect();
        assert!(percentile(&v, 0.5).is_none(), "9 beyond the median of 19");
        let v: Vec<u32> = (0..20).collect();
        assert!(percentile(&v, 0.5).is_some());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn percentile_interpolates_inside_ties() {
        // 100 readings of 7 ns: the median rank is the middle of the run.
        let v = vec![7u32; 100];
        let p = percentile(&v, 0.5).unwrap();
        assert!((p - 7.0).abs() < 0.01, "{p}");
        // 30 x 5 ns then 70 x 6 ns: rank 49 is the 20th of 70 sixes.
        let mut v = vec![5u32; 30];
        v.extend(vec![6u32; 70]);
        let p = percentile(&v, 0.5).unwrap();
        assert!(p > 5.5 && p < 6.0, "{p}");
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_a_line() {
        let (a, b) = linear_fit(&[(1.0, 5.0), (8.0, 19.0), (32.0, 67.0)]);
        assert!((a - 3.0).abs() < 1e-9 && (b - 2.0).abs() < 1e-9);
    }
}
