//! Statistics accumulators used by the SSD metrics layer and the experiment harness.
//!
//! These are intentionally simple, allocation-light accumulators:
//! mean/variance trackers, busy-time trackers, and fixed-bucket histograms.

use crate::time::{Duration, SimTime};

/// Online mean / min / max / variance tracker (Welford's algorithm).
///
/// # Example
///
/// ```
/// use sprinkler_sim::MeanStat;
///
/// let mut m = MeanStat::new();
/// for x in [2.0, 4.0, 6.0] {
///     m.record(x);
/// }
/// assert_eq!(m.mean(), 4.0);
/// assert_eq!(m.max(), 6.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanStat {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl MeanStat {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another tracker into this one.
    pub fn merge(&mut self, other: &MeanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let combined = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / combined as f64;
        let new_m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / combined as f64;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count = combined;
        self.mean = new_mean;
        self.m2 = new_m2;
    }
}

/// Accumulates busy time for a binary busy/idle resource.
///
/// # Example
///
/// ```
/// use sprinkler_sim::{SimTime, Duration};
/// use sprinkler_sim::stats::BusyTracker;
///
/// let mut b = BusyTracker::new();
/// b.mark_busy(SimTime::from_nanos(10));
/// b.mark_idle(SimTime::from_nanos(30));
/// assert_eq!(b.busy_time(), Duration::from_nanos(20));
/// assert!(!b.is_busy());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyTracker {
    busy_since: Option<SimTime>,
    busy_total: Duration,
    transitions: u64,
}

impl BusyTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the resource busy at `now`; a no-op if already busy.
    pub fn mark_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
            self.transitions += 1;
        }
    }

    /// Marks the resource idle at `now`, accumulating the elapsed busy period; a
    /// no-op if already idle.
    pub fn mark_idle(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy_total += now.saturating_since(since);
        }
    }

    /// Returns `true` while the resource is marked busy.
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Total accumulated busy time (not counting an open busy period).
    pub fn busy_time(&self) -> Duration {
        self.busy_total
    }

    /// Total busy time including any open busy period, evaluated at `now`.
    pub fn busy_time_at(&self, now: SimTime) -> Duration {
        match self.busy_since {
            Some(since) => self.busy_total + now.saturating_since(since),
            None => self.busy_total,
        }
    }

    /// Number of idle→busy transitions observed.
    pub fn busy_periods(&self) -> u64 {
        self.transitions
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
        assert_eq!(m.min(), 0.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            m.record(x);
        }
        assert_eq!(m.count(), 4);
        assert!((m.mean() - 2.5).abs() < 1e-12);
        assert!((m.variance() - 1.25).abs() < 1e-12);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.sum(), 10.0);
    }

    #[test]
    fn mean_stat_merge_matches_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = MeanStat::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = MeanStat::new();
        let mut b = MeanStat::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn mean_stat_merge_empty_cases() {
        let mut a = MeanStat::new();
        let empty = MeanStat::new();
        a.merge(&empty);
        assert_eq!(a.count(), 0);
        let mut b = MeanStat::new();
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 5.0);
    }

    #[test]
    fn busy_tracker_accumulates_periods() {
        let mut b = BusyTracker::new();
        assert!(!b.is_busy());
        b.mark_busy(SimTime::from_nanos(10));
        assert!(b.is_busy());
        b.mark_busy(SimTime::from_nanos(15)); // no-op
        b.mark_idle(SimTime::from_nanos(20));
        b.mark_idle(SimTime::from_nanos(25)); // no-op
        b.mark_busy(SimTime::from_nanos(30));
        assert_eq!(b.busy_time(), Duration::from_nanos(10));
        assert_eq!(
            b.busy_time_at(SimTime::from_nanos(40)),
            Duration::from_nanos(20)
        );
        assert_eq!(b.busy_periods(), 2);
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
