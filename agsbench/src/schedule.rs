//! The open-loop arrival schedule and the rate verdicts built on it.
//!
//! Arrivals are a Poisson process conditioned on its count: a phase at
//! rate `r` for `d` seconds gets exactly `round(r * d)` arrivals placed
//! as sorted uniform draws over `[0, d)`. That is the same distribution
//! a Poisson process has once its count is known, and fixing the count
//! keeps the offered load of a phase identical across seeds.

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// Arrival offsets in seconds from the phase start, sorted ascending.
#[must_use]
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let count = (rate_per_s * seconds).round().max(1.0) as usize;
    let mut rng = Rng::new(seed);
    let mut offsets: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    offsets
}

/// Whether the count of outstanding tasks, sampled at a fixed interval
/// through a phase, grew: the last third's mean exceeds the first
/// third's by half again plus two tasks. A stable system hovers around
/// `rate × latency`; an overloaded one climbs linearly from zero.
#[must_use]
pub fn backlog_grows(outstanding: &[usize]) -> bool {
    let third = outstanding.len() / 3;
    if third == 0 {
        return false;
    }
    #[allow(clippy::cast_precision_loss)]
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let first = mean(&outstanding[..third]);
    let last = mean(&outstanding[outstanding.len() - third..]);
    last > first * 1.5 + 2.0
}

/// One fixed-rate phase's verdict inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseVerdict {
    /// The offered rate (submissions per second).
    pub rate_per_s: f64,
    /// Completed tasks per second actually achieved.
    pub achieved_per_s: f64,
    /// The phase's tail submit→result latency, failures counted as
    /// missing the limit.
    pub result_tail_ms: f64,
    /// Whether the outstanding-task count grew through the phase.
    pub backlog_grew: bool,
}

impl PhaseVerdict {
    /// Whether the phase meets `limit_ms` with no growing backlog.
    #[must_use]
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.result_tail_ms <= limit_ms && !self.backlog_grew
    }
}

/// The achieved rate of the highest offered rate that meets the limit
/// with no growing backlog; 0 when none does.
#[must_use]
pub fn max_rate(phases: &[PhaseVerdict], limit_ms: f64) -> f64 {
    phases
        .iter()
        .filter(|p| p.passes(limit_ms))
        .max_by(|a, b| a.rate_per_s.total_cmp(&b.rate_per_s))
        .map_or(0.0, |p| p.achieved_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 30.0, 4.0);
        let b = poisson_schedule(7, 30.0, 4.0);
        let c = poisson_schedule(8, 30.0, 4.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 120);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
    }

    #[test]
    fn schedule_gaps_look_exponential() {
        // Mean gap ≈ 1/rate, and the gap's coefficient of variation ≈ 1
        // (an evenly spaced schedule would have 0).
        let s = poisson_schedule(3, 100.0, 100.0);
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.1, "cv {cv}");
    }

    #[test]
    fn backlog_detection() {
        let steady = [3, 4, 2, 5, 3, 4, 3, 2, 4, 5, 3, 4];
        assert!(!backlog_grows(&steady));
        let climbing: Vec<usize> = (0..30).map(|i| i * 2).collect();
        assert!(backlog_grows(&climbing));
        assert!(!backlog_grows(&[1, 50]));
    }

    #[test]
    fn max_rate_rejects_a_growing_backlog() {
        let phase = |rate: f64, tail: f64, grew: bool| PhaseVerdict {
            rate_per_s: rate,
            achieved_per_s: rate * 0.99,
            result_tail_ms: tail,
            backlog_grew: grew,
        };
        let phases = [
            phase(10.0, 80.0, false),
            phase(20.0, 90.0, false),
            phase(40.0, 95.0, true), // under the limit, but queueing up
        ];
        assert!((max_rate(&phases, 250.0) - 19.8).abs() < 1e-9);
        let slow = [phase(10.0, 80.0, false), phase(20.0, 400.0, false)];
        assert!((max_rate(&slow, 250.0) - 9.9).abs() < 1e-9);
        assert_eq!(max_rate(&[phase(10.0, 300.0, false)], 250.0), 0.0);
    }
}
