//! Order statistics for reported timings.
//!
//! Every timing is reported as its median plus the highest percentile
//! that still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a
//! tail figure is never a single outlier. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), the
//! definition the steadiness check is specified against.

/// Samples a reported tail percentile must leave beyond itself.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// A percentile estimate and the percentile it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.0).
    pub percentile: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of already sorted, non-empty data.
fn nearest_rank(sorted: &[f64], percentile: f64) -> (usize, f64) {
    let n = sorted.len();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((percentile / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (rank, sorted[rank - 1])
}

/// The median (mean of the two middle values for even counts), or
/// `None` when there are no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile, or `None` when there are no samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(nearest_rank(&sorted(samples), p).1)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its rank: p99 from 1000 samples, p99.5 from 2000.
/// Falls back to the maximum under 20 samples.
#[must_use]
pub fn tail(samples: &[f64]) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    TAIL_LADDER
        .iter()
        .filter(|_| n > 0)
        .find_map(|&p| {
            let (rank, value) = nearest_rank(&v, p);
            (n - rank >= TAIL_MIN_BEYOND).then_some(Tail {
                percentile: p,
                value,
            })
        })
        .unwrap_or(Tail {
            percentile: 100.0,
            value: v.last().copied().unwrap_or(0.0),
        })
}

/// First, second and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..=3).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // May be negative once `j` is clamped, exactly as in Python.
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_wrap)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (`None` when the
/// median is 0 or there are too few samples).
#[must_use]
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);

        // 2000 samples: p99.5 leaves exactly ten beyond.
        let more: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&more).percentile, 99.5);

        // 19 samples cannot leave ten beyond even the median.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few).percentile, 100.0);
        assert_eq!(tail(&few).value, 19.0);
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        v.swap(3, 700);
        assert_eq!(tail(&v).value, 990.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quartiles(&v).unwrap(), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), [0.75, 1.5, 2.25]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
    }
}
