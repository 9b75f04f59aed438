//! Order statistics and sampled span timing.

use std::time::Instant;

/// Median, quartiles and sample count of one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single value with no spread (a count, or a deterministic ratio).
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Summarizes `values` with the same quartile rule as Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
    /// spreads printed here match the ones an external checker computes.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Summary::exact(median);
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a sample set.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Wall time of `f` in nanoseconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_nanos() as f64, r)
}

/// One in this many calls through a [`Probe`] is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// A 1-in-[`SAMPLE_EVERY`] sampled span around calls into one layer.
///
/// With `ON = false` the probe only counts calls, so the same composition
/// code runs with and without timing and the difference is the probe
/// overhead.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe<const ON: bool> {
    pub calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl<const ON: bool> Probe<ON> {
    #[inline(always)]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if ON && self.calls.is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            let r = f();
            self.sampled_ns += start.elapsed().as_nanos() as u64;
            self.sampled += 1;
            r
        } else {
            f()
        }
    }

    /// Estimated total nanoseconds spent in the layer: the mean sampled
    /// span minus the calibrated cost of an empty span, times all calls.
    pub fn estimate_ns(&self, empty_span_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_call = self.sampled_ns as f64 / self.sampled as f64 - empty_span_ns;
        per_call.max(0.0) * self.calls as f64
    }
}

/// Mean cost in nanoseconds of a sampled span around nothing: the clock
/// reads a probe adds to each sampled call.
pub fn empty_span_ns() -> f64 {
    let mut probe = Probe::<true>::default();
    for _ in 0..SAMPLE_EVERY * 100_000 {
        probe.time(|| std::hint::black_box(()));
    }
    probe.sampled_ns as f64 / probe.sampled as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
