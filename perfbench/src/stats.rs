//! Order statistics used by every workload: median, quartiles, the tail
//! percentile, and the error rate.

/// Percentiles the tail is chosen from, in tenths of a percent, highest
/// last.
const TAIL_LADDER: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to count as the tail.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// A single value is its own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples above its nearest-rank position, with its
/// value. With too few samples for any of them the tail is the maximum,
/// reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len == 0 {
        return (100.0, 0.0);
    }
    for &permille in TAIL_LADDER.iter().rev() {
        let rank = (permille * len).div_ceil(1000);
        if rank >= 1 && len - rank >= TAIL_MIN_BEYOND {
            return (permille as f64 / 10.0, v[rank - 1]);
        }
    }
    (100.0, v[len - 1])
}

/// Failed operations as a share of attempted ones (0 when nothing ran).
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1024 samples: p99 is rank 1014, leaving exactly 10 above it;
        // p99.9 would leave only one.
        let v: Vec<f64> = (1..=1024).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 1014.0));
        // 100 samples: p90 is rank 90, leaving 10; p95 would leave 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        // 10 000 samples reach p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.9, 9990.0));
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        assert_eq!(tail(&[2.0, 9.0, 4.0]), (100.0, 9.0));
        // 19 samples: the median leaves only 9 beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), (100.0, 19.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 10.0));
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        assert_eq!(error_rate(0, 40), 0.0);
        assert_eq!(error_rate(1, 4), 0.25);
        assert_eq!(error_rate(0, 0), 0.0);
    }
}
