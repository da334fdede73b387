//! Order statistics over the benchmark's own per-op samples.
//!
//! Percentiles use the nearest-rank rule on the raw samples, never the
//! obskit log2 buckets (which print a 300 µs p50 as 524287 ns). A
//! percentile is only reported when at least [`MIN_TAIL`] samples lie
//! beyond it, so a p95 needs 200 samples.

/// Samples that must lie strictly above a reported percentile's rank.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of percentile `pct` among `n` samples:
/// `ceil(pct * n / 100)`, in integers so p95 of 200 is rank 190 exactly.
fn rank(pct: u32, n: usize) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// Smallest sample count for which percentile `pct` has [`MIN_TAIL`]
/// samples beyond it.
pub fn min_samples(pct: u32) -> usize {
    (1..)
        .find(|&n| n - rank(pct, n) >= MIN_TAIL)
        .expect("the tail grows with n for any pct < 100")
}

/// Nearest-rank percentile of ascending `sorted`, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[u64], pct: u32) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || pct >= 100 {
        return None;
    }
    let r = rank(pct, n);
    (n - r >= MIN_TAIL).then(|| sorted[r - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(95), 200);
        assert_eq!(min_samples(50), 20);
        let v: Vec<u64> = (1..=200).collect();
        // Rank 190: exactly ten samples (191..=200) lie beyond it.
        assert_eq!(percentile(&v, 95), Some(190));
        assert_eq!(percentile(&v[..199], 95), None);
        assert_eq!(percentile(&v, 50), Some(100));
    }

    #[test]
    fn every_reported_percentile_keeps_its_tail() {
        for n in 1..400usize {
            let v: Vec<u64> = (0..n as u64).collect();
            for pct in [50, 90, 95, 99] {
                match percentile(&v, pct) {
                    Some(x) => {
                        let beyond = v.iter().filter(|&&s| s > x).count();
                        assert!(beyond >= MIN_TAIL, "n={n} p{pct}: {beyond} beyond");
                        assert!(n >= min_samples(pct));
                    }
                    None => assert!(n < min_samples(pct), "n={n} p{pct}"),
                }
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
