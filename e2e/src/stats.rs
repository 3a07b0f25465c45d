//! Measurement maths: medians, the tail percentile a sample can
//! support, the relative gap `--selfcheck` compares against a metric's
//! bound, and the generator every derived seed comes from.

/// Value at quantile `q` (0..=1) of an ascending slice, linearly
/// interpolated between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest percentile that still has at least ten samples beyond
/// it; `None` when even the upper quartile does not (fewer than 40
/// samples), in which case only the median is reported.
pub fn tail_percent(n: usize) -> Option<f64> {
    // In hundredths of a percent, so that the count beyond is exact.
    [9999_usize, 9990, 9900, 9500, 9000, 7500]
        .into_iter()
        .find(|p| n * (10_000 - p) / 10_000 >= 10)
        .map(|p| p as f64 / 100.0)
}

/// A timing as it is reported: median, sample count, and the tail the
/// sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percent, value)` of the highest supported percentile.
    pub tail: Option<(f64, f64)>,
}

/// Summarize a sample; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        median: quantile(&sorted, 0.5),
        tail: tail_percent(sorted.len()).map(|p| (p, quantile(&sorted, p / 100.0))),
    })
}

/// Median of a sample (0 when empty, for derived rows that subtract
/// medians of possibly absent hops).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// How far apart two runs of one metric are, as a share of the smaller.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    (a - b).abs() / base
}

/// splitmix64: derives seeds and contents from `--seed` and nothing
/// else.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percent(39), None);
        assert_eq!(tail_percent(40), Some(75.0));
        assert_eq!(tail_percent(99), Some(75.0));
        assert_eq!(tail_percent(100), Some(90.0));
        assert_eq!(tail_percent(199), Some(90.0));
        assert_eq!(tail_percent(200), Some(95.0));
        assert_eq!(tail_percent(999), Some(95.0));
        assert_eq!(tail_percent(1000), Some(99.0));
        assert_eq!(tail_percent(10_000), Some(99.9));
        assert_eq!(tail_percent(100_000), Some(99.99));
    }

    #[test]
    fn median_and_tail_of_a_known_sample() {
        let values: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        let s = summarize(&values).unwrap();
        assert_eq!(s.n, 101);
        assert_eq!(s.median, 51.0);
        assert_eq!(s.tail, Some((90.0, 91.0)));
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn relative_gap_is_a_share_of_the_smaller_run() {
        assert!((relative_gap(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((relative_gap(110.0, 100.0) - 0.10).abs() < 1e-12);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert_eq!(relative_gap(0.0, 1.0), f64::INFINITY);
    }
}
