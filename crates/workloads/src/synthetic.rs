//! Synthetic trace generation parameterized by the statistics of Table 1.

use sprinkler_sim::{DeterministicRng, Duration, SimTime};

use crate::source::TraceSource;
use crate::trace::{Trace, TraceOp, TraceRecord};

/// Transactional-locality class of a workload (last column of Table 1): how likely
/// the requests outstanding at any instant are to form high-FLP flash transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locality {
    /// Requests are scattered; little opportunity to coalesce.
    Low,
    /// Some clustering of offsets within bursts.
    Medium,
    /// Bursts concentrate on neighbouring offsets, exposing many same-chip,
    /// different-die/plane pairs.
    High,
}

impl Locality {
    /// Probability that the next request in a burst continues the current cluster.
    fn cluster_probability(self) -> f64 {
        match self {
            Locality::Low => 0.10,
            Locality::Medium => 0.45,
            Locality::High => 0.80,
        }
    }

    /// Short label used by Table 1 reports.
    pub fn label(self) -> &'static str {
        match self {
            Locality::Low => "Low",
            Locality::Medium => "Medium",
            Locality::High => "High",
        }
    }
}

/// Parameters of a synthetic workload.
///
/// # Example
///
/// ```
/// use sprinkler_workloads::{SyntheticSpec, Locality};
///
/// let spec = SyntheticSpec::new("demo")
///     .with_read_fraction(0.8)
///     .with_mean_sizes_kb(16.0, 8.0)
///     .with_randomness(0.9, 0.8)
///     .with_locality(Locality::High);
/// let trace = spec.generate(200, 42);
/// assert_eq!(trace.len(), 200);
/// assert_eq!(trace.name(), "demo");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Workload name.
    pub name: String,
    /// Fraction of requests that are reads (by count).
    pub read_fraction: f64,
    /// Mean read request size in KB.
    pub read_mean_kb: f64,
    /// Mean write request size in KB.
    pub write_mean_kb: f64,
    /// Fraction of reads whose offset is random (vs. sequential to the previous
    /// read).
    pub read_randomness: f64,
    /// Fraction of writes whose offset is random.
    pub write_randomness: f64,
    /// Transactional-locality class.
    pub locality: Locality,
    /// Logical footprint in MB that offsets are drawn from.
    pub footprint_mb: u64,
    /// Number of requests issued back-to-back in one burst.
    pub burst_size: u32,
    /// Mean gap between bursts in microseconds.
    pub mean_burst_gap_us: f64,
}

impl SyntheticSpec {
    /// Creates a specification with neutral defaults.
    pub fn new(name: impl Into<String>) -> Self {
        SyntheticSpec {
            name: name.into(),
            read_fraction: 0.7,
            read_mean_kb: 16.0,
            write_mean_kb: 16.0,
            read_randomness: 0.9,
            write_randomness: 0.9,
            locality: Locality::Medium,
            footprint_mb: 1024,
            burst_size: 8,
            mean_burst_gap_us: 200.0,
        }
    }

    /// Sets the read fraction (by request count).
    pub fn with_read_fraction(mut self, fraction: f64) -> Self {
        self.read_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets mean read and write request sizes in KB.
    pub fn with_mean_sizes_kb(mut self, read_kb: f64, write_kb: f64) -> Self {
        self.read_mean_kb = read_kb.max(0.5);
        self.write_mean_kb = write_kb.max(0.5);
        self
    }

    /// Sets read and write randomness (fraction of non-sequential offsets).
    pub fn with_randomness(mut self, read: f64, write: f64) -> Self {
        self.read_randomness = read.clamp(0.0, 1.0);
        self.write_randomness = write.clamp(0.0, 1.0);
        self
    }

    /// Sets the transactional-locality class.
    pub fn with_locality(mut self, locality: Locality) -> Self {
        self.locality = locality;
        self
    }

    /// Sets the logical footprint in MB.
    pub fn with_footprint_mb(mut self, mb: u64) -> Self {
        self.footprint_mb = mb.max(1);
        self
    }

    /// Sets the burst shape: requests per burst and mean gap between bursts.
    pub fn with_bursts(mut self, burst_size: u32, mean_gap_us: f64) -> Self {
        self.burst_size = burst_size.max(1);
        self.mean_burst_gap_us = mean_gap_us.max(1.0);
        self
    }

    /// Generates `count` requests deterministically from `seed`, fully
    /// materialized.  Equivalent to draining [`SyntheticSpec::stream`].
    pub fn generate(&self, count: u64, seed: u64) -> Trace {
        self.stream(count, seed).collect_trace()
    }

    /// A lazy [`TraceSource`] that yields the same `count` records
    /// [`SyntheticSpec::generate`] would materialize, one at a time, in O(1)
    /// memory — the representation multi-million-I/O replays stream from.
    pub fn stream(&self, count: u64, seed: u64) -> SyntheticStream {
        let mut rng = DeterministicRng::seeded(seed ^ 0x5052_494E_4B4C_4552);
        let footprint = self.footprint_mb * 1024 * 1024;
        let seq_read = rng.uniform_u64(footprint);
        let seq_write = rng.uniform_u64(footprint);
        let cluster_base = rng.uniform_u64(footprint);
        SyntheticStream {
            spec: self.clone(),
            rng,
            footprint,
            count,
            next_id: 0,
            now: SimTime::ZERO,
            seq_read,
            seq_write,
            cluster_base,
        }
    }
}

/// The lazily evaluating twin of [`SyntheticSpec::generate`]: holds only the
/// generator state (RNG, sequential pointers, cluster base), never the records.
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    spec: SyntheticSpec,
    rng: DeterministicRng,
    footprint: u64,
    count: u64,
    next_id: u64,
    now: SimTime,
    seq_read: u64,
    seq_write: u64,
    cluster_base: u64,
}

impl SyntheticStream {
    /// 2 MB cluster neighbourhood for transactional locality.
    const CLUSTER_SPAN: u64 = 2 * 1024 * 1024;
}

impl TraceSource for SyntheticStream {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.count - self.next_id)
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.next_id >= self.count {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let spec = &self.spec;
        let rng = &mut self.rng;
        let footprint = self.footprint;
        if id.is_multiple_of(spec.burst_size as u64) && id != 0 {
            let gap = rng.exponential(spec.mean_burst_gap_us);
            self.now += Duration::from_micros_f64(gap);
            if rng.bernoulli(0.5) {
                self.cluster_base = rng.uniform_u64(footprint);
            }
        }
        let is_read = rng.bernoulli(spec.read_fraction);
        let (mean_kb, randomness, seq_ptr) = if is_read {
            (spec.read_mean_kb, spec.read_randomness, &mut self.seq_read)
        } else {
            (
                spec.write_mean_kb,
                spec.write_randomness,
                &mut self.seq_write,
            )
        };
        let size_kb = rng.bounded_pareto(mean_kb * 0.25, mean_kb * 6.0, 1.4);
        let bytes = ((size_kb * 1024.0) as u64)
            .clamp(512, 4 * 1024 * 1024)
            .min(footprint);
        // The whole access must fit inside the footprint: `limit` is the
        // largest admissible offset for this record's size.  The seed bounded
        // only the offset, letting up-to-4 MB requests spill logical pages
        // past the declared footprint.
        let limit = footprint - bytes;

        let offset = if rng.bernoulli(spec.locality.cluster_probability()) {
            // Stay within the current cluster neighbourhood.
            (self
                .cluster_base
                .saturating_add(rng.uniform_u64(Self::CLUSTER_SPAN))
                % footprint)
                .min(limit)
        } else if rng.bernoulli(randomness) {
            rng.uniform_u64(limit + 1)
        } else {
            let mut o = *seq_ptr;
            if o > limit {
                // A sequential run that would cross the footprint edge
                // restarts at the beginning, like a wrapped circular scan.
                o = 0;
            }
            *seq_ptr = (o + bytes) % footprint;
            o
        };

        Some(TraceRecord {
            id,
            arrival: self.now,
            op: if is_read {
                TraceOp::Read
            } else {
                TraceOp::Write
            },
            offset,
            bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticSpec::new("det");
        let a = spec.generate(100, 9);
        let b = spec.generate(100, 9);
        assert_eq!(a, b);
        let c = spec.generate(100, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn read_fraction_is_respected() {
        let spec = SyntheticSpec::new("reads").with_read_fraction(0.8);
        let trace = spec.generate(2000, 3);
        let reads = trace.iter().filter(|r| r.op.is_read()).count();
        let fraction = reads as f64 / trace.len() as f64;
        assert!((fraction - 0.8).abs() < 0.05, "fraction={fraction}");
        let all_writes = SyntheticSpec::new("w")
            .with_read_fraction(0.0)
            .generate(100, 1);
        assert!(all_writes.iter().all(|r| !r.op.is_read()));
    }

    #[test]
    fn sizes_scale_with_the_mean() {
        let small = SyntheticSpec::new("s")
            .with_mean_sizes_kb(4.0, 4.0)
            .generate(1000, 5);
        let large = SyntheticSpec::new("l")
            .with_mean_sizes_kb(256.0, 256.0)
            .generate(1000, 5);
        let mean = |t: &Trace| t.iter().map(|r| r.bytes as f64).sum::<f64>() / t.len() as f64;
        assert!(mean(&large) > mean(&small) * 8.0);
    }

    #[test]
    fn offsets_stay_within_the_footprint() {
        // Regression for the footprint-spill bug: the seed bounded only the
        // offset, so `offset + bytes` leaked past the footprint on all three
        // offset paths (cluster, random, sequential).  The whole access must
        // fit.
        let bound = 64 * 1024 * 1024;
        for seed in [11, 12, 13] {
            let spec = SyntheticSpec::new("fp").with_footprint_mb(64);
            let trace = spec.generate(1000, seed);
            for r in trace.iter() {
                assert!(
                    r.offset + r.bytes <= bound,
                    "record {} spills past the footprint: offset={} bytes={}",
                    r.id,
                    r.offset,
                    r.bytes
                );
            }
        }
        // Locality extremes force each offset path to dominate.
        for locality in [Locality::Low, Locality::High] {
            for randomness in [0.0, 1.0] {
                let trace = SyntheticSpec::new("fp")
                    .with_footprint_mb(16)
                    .with_locality(locality)
                    .with_randomness(randomness, randomness)
                    .generate(500, 29);
                assert!(trace.iter().all(|r| r.offset + r.bytes <= 16 * 1024 * 1024));
            }
        }
    }

    #[test]
    fn stream_and_generate_agree_record_for_record() {
        let spec = SyntheticSpec::new("twin").with_footprint_mb(32);
        let trace = spec.generate(300, 17);
        let mut stream = spec.stream(300, 17);
        assert_eq!(stream.name(), "twin");
        assert_eq!(stream.footprint_bytes(), 32 * 1024 * 1024);
        assert_eq!(stream.remaining_hint(), Some(300));
        for expected in trace.iter() {
            assert_eq!(stream.next_record().as_ref(), Some(expected));
        }
        assert!(stream.next_record().is_none());
        assert_eq!(stream.remaining_hint(), Some(0));
    }

    #[test]
    fn lower_randomness_means_more_sequential_offsets() {
        let spec_seq = SyntheticSpec::new("seq")
            .with_randomness(0.05, 0.05)
            .with_locality(Locality::Low);
        let spec_rand = SyntheticSpec::new("rand")
            .with_randomness(0.95, 0.95)
            .with_locality(Locality::Low);
        let seq_trace = spec_seq.generate(1000, 21);
        let rand_trace = spec_rand.generate(1000, 21);
        // Use the specs' actual footprint for the wrap-around comparison (the
        // seed hardcoded a 1 GiB modulus that only matched the default spec).
        assert_eq!(spec_seq.footprint_mb, spec_rand.footprint_mb);
        let footprint = spec_seq.footprint_mb * 1024 * 1024;
        let sequential_pairs = |t: &Trace| {
            let mut count = 0;
            let recs = t.records();
            for w in recs.windows(2) {
                if w[1].offset == (w[0].offset + w[0].bytes) % footprint {
                    count += 1;
                }
            }
            count
        };
        assert!(sequential_pairs(&seq_trace) > sequential_pairs(&rand_trace));
    }

    #[test]
    fn bursts_share_arrival_times() {
        let spec = SyntheticSpec::new("burst").with_bursts(4, 500.0);
        let trace = spec.generate(64, 2);
        let records = trace.records();
        // Within a burst of 4, arrival times are identical.
        assert_eq!(records[0].arrival, records[3].arrival);
        // Across bursts, time advances.
        assert!(records[4].arrival > records[3].arrival);
    }

    #[test]
    fn locality_labels() {
        assert_eq!(Locality::Low.label(), "Low");
        assert_eq!(Locality::Medium.label(), "Medium");
        assert_eq!(Locality::High.label(), "High");
    }
}
