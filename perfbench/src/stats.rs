//! Pure helpers: the percentile rule, timing summaries, the capacity
//! ladder search and the metric records the report is built from.

use std::time::Duration;

use crate::report::unit_of;

/// Candidate tail percentiles, highest first. A summary reports the
/// highest one that leaves at least [`TAIL_MIN_BEYOND`] samples above it.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Wall time in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) among `n` sorted
/// samples. Computed in basis points with integers, so 99.9 of 10,000 is
/// exactly rank 9,990.
fn rank_index(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let bp = (p * 100.0).round() as usize;
    let rank = (bp * n).div_ceil(10_000);
    rank.clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank percentile position.
fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or the median when the sample is
/// too small for any of them.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// A distribution of samples: its median and its tail by the rule above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The percentile the tail was taken at.
    pub tail_pct: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). An empty sample summarizes to
    /// zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Summary {
                n,
                p50: 0.0,
                tail: 0.0,
                tail_pct: 50.0,
            };
        }
        let tail_pct = tail_percentile(n);
        Summary {
            n,
            p50: sorted[rank_index(n, 50.0)],
            tail: sorted[rank_index(n, tail_pct)],
            tail_pct,
        }
    }
}

/// Median of `samples` (nearest rank); 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Searches a geometric rate ladder `0..steps` for the highest step at
/// which `passes` holds, assuming pass/fail is monotone in the step.
/// Bisects between the highest known pass and the lowest known failure,
/// so it probes at most `ceil(log2(steps + 1))` steps. Returns `None`
/// when even step 0 fails. Every probed step and its outcome is appended
/// to `probes`.
pub fn ladder_search(
    steps: usize,
    probes: &mut Vec<(usize, bool)>,
    mut passes: impl FnMut(usize) -> bool,
) -> Option<usize> {
    // Invariant: every step <= `pass` passed (or `pass` is None); every
    // step >= `fail` failed.
    let mut pass: Option<usize> = None;
    let mut fail = steps;
    loop {
        let lo = pass.map_or(0, |p| p + 1);
        if lo >= fail {
            return pass;
        }
        let mid = lo + (fail - lo) / 2;
        let ok = passes(mid);
        probes.push((mid, ok));
        if ok {
            pass = Some(mid);
        } else {
            fail = mid;
        }
    }
}

/// Rate of ladder step `k`: `base × ratio^k`.
pub fn ladder_rate(base: f64, ratio: f64, k: usize) -> f64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    let exp = k as i32;
    base * ratio.powi(exp)
}

/// One reported metric: its value plus, for timing distributions, the
/// sample count and the percentile it was taken at.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json` (see [`unit_of`]).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: usize,
    /// The percentile taken, for distribution summaries.
    pub percentile: Option<f64>,
}

impl Metric {
    /// A single measured value or exact count.
    pub fn value(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit: unit_of(name),
            value,
            samples: 1,
            percentile: None,
        }
    }

    /// The median of a distribution.
    pub fn p50(name: &'static str, s: &Summary) -> Metric {
        Metric {
            name,
            unit: unit_of(name),
            value: s.p50,
            samples: s.n,
            percentile: Some(50.0),
        }
    }

    /// The tail of a distribution.
    pub fn tail(name: &'static str, s: &Summary) -> Metric {
        Metric {
            name,
            unit: unit_of(name),
            value: s.tail,
            samples: s.n,
            percentile: Some(s.tail_pct),
        }
    }

    /// The median of per-operation samples of a layer quantity.
    pub fn median_of(name: &'static str, samples: &[f64]) -> Metric {
        Metric::p50(name, &Summary::of(samples))
    }
}

/// Formats a finite number as JSON with all its digits.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert!((tail_percentile(10_000) - 99.9).abs() < 1e-9);
        assert!((tail_percentile(9_999) - 99.0).abs() < 1e-9);
        assert!((tail_percentile(1_000) - 99.0).abs() < 1e-9);
        assert!((tail_percentile(999) - 90.0).abs() < 1e-9);
        assert!((tail_percentile(100) - 90.0).abs() < 1e-9);
        assert!((tail_percentile(99) - 75.0).abs() < 1e-9);
        assert!((tail_percentile(40) - 75.0).abs() < 1e-9);
        assert!((tail_percentile(39) - 50.0).abs() < 1e-9);
        assert!((tail_percentile(1) - 50.0).abs() < 1e-9);
        // The rule itself: at least ten samples sit above the chosen
        // percentile, and fewer than ten above the next one up.
        for n in 1..3_000 {
            let p = tail_percentile(n);
            if let Some(i) = TAIL_LADDER.iter().position(|&q| (q - p).abs() < 1e-9) {
                assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
                if i > 0 {
                    assert!(beyond(n, TAIL_LADDER[i - 1]) < TAIL_MIN_BEYOND, "n={n}");
                }
            } else {
                assert!(TAIL_LADDER.iter().all(|&q| beyond(n, q) < TAIL_MIN_BEYOND));
            }
        }
    }

    #[test]
    fn summary_takes_nearest_rank_values() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 100);
        assert!((s.p50 - 50.0).abs() < 1e-9);
        assert!((s.tail_pct - 90.0).abs() < 1e-9);
        assert!((s.tail - 90.0).abs() < 1e-9);
        assert_eq!(Summary::of(&[]).n, 0);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ladder_search_finds_highest_passing_step() {
        for steps in 1..40 {
            for threshold in 0..=steps {
                // Steps below `threshold` pass.
                let mut probes = Vec::new();
                let found = ladder_search(steps, &mut probes, |k| k < threshold);
                assert_eq!(
                    found,
                    threshold.checked_sub(1),
                    "steps={steps} t={threshold}"
                );
                let bound = (usize::BITS - steps.leading_zeros()) as usize + 1;
                assert!(
                    probes.len() <= bound,
                    "{} probes for {steps} steps",
                    probes.len()
                );
                let mut seen: Vec<usize> = probes.iter().map(|p| p.0).collect();
                seen.dedup();
                assert_eq!(seen.len(), probes.len(), "a step was probed twice");
            }
        }
    }

    #[test]
    fn ladder_steps_stay_within_five_percent() {
        let ratio = crate::serve::LADDER_RATIO;
        assert!(ratio > 1.0 && ratio <= 1.05);
        let r0 = ladder_rate(40.0, ratio, 0);
        let r1 = ladder_rate(40.0, ratio, 1);
        assert!((r0 - 40.0).abs() < 1e-9);
        assert!(r1 / r0 <= 1.05 + 1e-12);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(92_920.0), "92920");
    }
}
