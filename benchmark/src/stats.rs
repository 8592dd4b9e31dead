//! Percentiles, medians and quartiles.

/// Nearest-rank percentile of an ascending-sorted sample. Refuses a
/// percentile that has fewer than ten samples beyond it: with fewer, the
/// value is set by a handful of outliers and does not repeat run to run.
pub fn percentile(sorted: &[u32], p: f64) -> Result<u32, String> {
    assert!((0.0..1.0).contains(&p), "percentile {p} outside [0, 1)");
    let n = sorted.len();
    let rank = ((n as f64 * p).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < 10 {
        return Err(format!(
            "p{:.0} needs at least 10 samples beyond it, {n} samples leave {beyond}",
            p * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// [`percentile`] for per-layer numbers, where a rare span (a purge pass)
/// may have too few samples: falls back to the maximum, and to 0 when the
/// sample is empty.
pub fn percentile_or_max(sorted: &[u32], p: f64) -> u32 {
    percentile(sorted, p).unwrap_or_else(|_| sorted.last().copied().unwrap_or(0))
}

/// Median of an unsorted sample; the mean of the middle two when the count
/// is even. Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default, "exclusive",
/// method), since that is what the benchmark's acceptance rule is stated in.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// `a / b`, or 0 when `b` is 0 (a counter that never moved on this workload).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let sample: Vec<u32> = (1..=1000).collect();
        // p99 of 1000 samples: rank 990, exactly ten samples beyond it.
        assert_eq!(percentile(&sample, 0.99), Ok(990));
        assert!(percentile(&sample[..999], 0.99).is_err());
        assert_eq!(percentile(&sample[..20], 0.5), Ok(10));
        assert!(percentile(&sample[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn lenient_percentile_falls_back_to_max() {
        assert_eq!(percentile_or_max(&[3, 5, 9], 0.99), 9);
        assert_eq!(percentile_or_max(&[], 0.99), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
    }
}
