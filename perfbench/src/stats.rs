//! Order statistics for the benchmark's samples.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported tail percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `samples` ascending (NaN-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`, with
/// the number of samples strictly beyond that rank; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(p, sorted.len());
    Some((sorted[r - 1], sorted.len() - r))
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it: `(percentile, value, beyond)`.
/// `None` when even the median has fewer than ten samples above it.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    TAIL_LADDER
        .iter()
        .find_map(|&p| match percentile(sorted, p) {
            Some((value, beyond)) if beyond >= MIN_BEYOND => Some((p, value, beyond)),
            _ => None,
        })
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&v, 95.0), Some((95.0, 5)));
        assert_eq!(percentile(&v, 100.0), Some((100.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p95 leaves 5 beyond, p90 leaves exactly 10.
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0, 10)));
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(tail_percentile(&ramp(200)), Some((95.0, 190.0, 10)));
        // 1000 samples: p99 leaves 10.
        assert_eq!(tail_percentile(&ramp(1000)), Some((99.0, 990.0, 10)));
        // 20 samples: only the median has 10 beyond it.
        assert_eq!(tail_percentile(&ramp(20)), Some((50.0, 10.0, 10)));
        assert_eq!(tail_percentile(&ramp(19)), None);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
