//! Statistics accumulators used by the SSD metrics layer and the experiment harness.
//!
//! These are intentionally simple, allocation-light accumulators: a running
//! mean and fixed-bucket histograms.

/// Online mean tracker (Welford's update).
///
/// # Example
///
/// ```
/// use sprinkler_sim::MeanStat;
///
/// let mut m = MeanStat::new();
/// assert_eq!(m.mean(), 0.0);
/// for x in [2.0, 4.0, 6.0] {
///     m.record(x);
/// }
/// assert_eq!(m.mean(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanStat {
    count: u64,
    mean: f64,
}

impl MeanStat {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
    }

    /// Mean of observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Fixed-bucket histogram over `u64` samples (latencies in nanoseconds, sizes in
/// bytes, ...).  Buckets are defined by their inclusive upper bounds; samples above
/// the last bound land in an overflow bucket.
///
/// # Example
///
/// ```
/// use sprinkler_sim::Histogram;
///
/// let mut h = Histogram::with_bounds(&[10, 100, 1000]);
/// h.record(5);
/// h.record(50);
/// h.record(5000);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_counts(), &[1, 1, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    /// Non-zero iff the bounds are `start, start*2, start*4, ...`: enables the
    /// O(1) `leading_zeros` bucket lookup instead of a bound scan.
    pow2_start: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds (must be strictly
    /// increasing).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            max: 0,
            pow2_start: 0,
        }
    }

    /// Creates a histogram with exponentially growing bounds: `start, start*2, ...`
    /// for `n` buckets.
    ///
    /// Bucket counts large enough that a doubling would overflow `u64` are
    /// clamped: bound generation stops at the last representable power-of-two
    /// multiple of `start`, and everything above it lands in the overflow
    /// bucket.  (The seed built each bound with `start * (1 << i)`, where the
    /// shift itself overflows for `n >= 64`.)
    pub fn exponential(start: u64, n: usize) -> Self {
        assert!(start > 0 && n > 0);
        let mut bounds = Vec::with_capacity(n);
        let mut bound = start;
        for _ in 0..n {
            bounds.push(bound);
            match bound.checked_mul(2) {
                Some(next) => bound = next,
                None => break,
            }
        }
        let mut h = Self::with_bounds(&bounds);
        h.pow2_start = start;
        h
    }

    /// The bucket a sample falls into: O(1) via `leading_zeros` for
    /// exponential bounds, a binary search otherwise.
    fn bucket_index(&self, sample: u64) -> usize {
        if self.pow2_start != 0 {
            if sample <= self.pow2_start {
                0
            } else {
                // Smallest i with start * 2^i >= sample.  q = ceil(sample /
                // start) - 1 rounded into [1, ..], so the answer is the bit
                // length of q — a single leading_zeros instruction.
                let q = (sample - 1) / self.pow2_start;
                ((64 - q.leading_zeros()) as usize).min(self.bounds.len())
            }
        } else {
            self.bounds.partition_point(|&b| b < sample)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = self.bucket_index(sample);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += sample as u128;
        self.max = self.max.max(sample);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The configured inclusive bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Approximate quantile (0.0–1.0) using the bucket upper bound of the bucket in
    /// which the quantile falls.  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        Self::quantile_from_counts(&self.bounds, &self.counts, self.max, q)
    }

    /// The quantile convention of [`Histogram::quantile`], applied to raw
    /// bucket counts (`counts` has one trailing overflow bucket beyond
    /// `bounds`; `max` is the largest recorded sample, reported for the
    /// overflow bucket).  This is the single home of the bucket-walk and
    /// rounding rules, so consumers that merge bucket counts from several
    /// histograms with shared bounds (e.g. per-device latency merges) stay
    /// convention-identical with per-histogram quantiles.
    pub fn quantile_from_counts(bounds: &[u64], counts: &[u64], max: u64, q: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in counts.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return if i < bounds.len() { bounds[i] } else { max };
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_stat_basic() {
        let mut m = MeanStat::new();
        assert_eq!(m.mean(), 0.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            m.record(x);
        }
        assert!((m.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::with_bounds(&[10, 20, 40]);
        for s in [1, 5, 15, 25, 100] {
            h.record(s);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1]);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 29.2).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(0.5), 20);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.bounds(), &[10, 20, 40]);
    }

    #[test]
    fn histogram_exponential_bounds() {
        let h = Histogram::exponential(8, 4);
        assert_eq!(h.bounds(), &[8, 16, 32, 64]);
    }

    #[test]
    fn exponential_bounds_clamp_instead_of_overflowing() {
        // n >= 64 used to overflow the `1 << i` shift before the saturating
        // multiply could help; now generation stops at the last representable
        // bound and stays strictly increasing.
        let h = Histogram::exponential(1 << 62, 70);
        assert_eq!(h.bounds(), &[1 << 62, 1 << 63]);
        let h = Histogram::exponential(3, 128);
        assert!(h.bounds().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*h.bounds().last().unwrap(), 3u64 << 62);

        let mut h = Histogram::exponential(1 << 62, 70);
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts(), &[0, 0, 1]);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn o1_bucket_indexing_matches_the_linear_scan() {
        for start in [1u64, 3, 8, 1_000] {
            let h = Histogram::exponential(start, 27);
            let mut samples: Vec<u64> = vec![0, 1, start, u64::MAX];
            for &b in h.bounds() {
                samples.extend([b - 1, b, b + 1, b.saturating_mul(3) / 2]);
            }
            for sample in samples {
                let scan = h
                    .bounds()
                    .iter()
                    .position(|&b| sample <= b)
                    .unwrap_or(h.bounds().len());
                assert_eq!(
                    h.bucket_index(sample),
                    scan,
                    "start {start}, sample {sample}"
                );
            }
        }
        // Arbitrary (non-exponential) bounds take the search path and agree too.
        let h = Histogram::with_bounds(&[10, 20, 40]);
        for sample in [0, 9, 10, 11, 20, 39, 40, 41, u64::MAX] {
            let scan = h
                .bounds()
                .iter()
                .position(|&b| sample <= b)
                .unwrap_or(h.bounds().len());
            assert_eq!(h.bucket_index(sample), scan);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_bad_bounds() {
        let _ = Histogram::with_bounds(&[10, 10]);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::with_bounds(&[10]);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
