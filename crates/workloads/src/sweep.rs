//! Fixed-transfer-size microbenchmarks.
//!
//! Figures 1, 15, 16, and 17 sweep the data transfer size from 4 KB to 4 MB while
//! keeping the access pattern simple (random offsets, saturating arrivals).  The
//! [`SweepSpec`] generator produces those workloads.

use sprinkler_sim::{DeterministicRng, Duration, SimTime};

use crate::source::TraceSource;
use crate::trace::{Trace, TraceOp, TraceRecord};

/// A fixed-transfer-size microbenchmark.
///
/// # Example
///
/// ```
/// use sprinkler_workloads::SweepSpec;
///
/// let trace = SweepSpec::new(64).with_read_fraction(1.0).generate(100, 1);
/// assert_eq!(trace.len(), 100);
/// assert!(trace.iter().all(|r| r.bytes == 64 * 1024));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Transfer size in KB (every request has exactly this size).
    pub transfer_kb: u64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Logical footprint in MB offsets are drawn from.
    pub footprint_mb: u64,
    /// Requests issued back-to-back per burst.
    pub burst_size: u32,
    /// Mean gap between bursts in microseconds.
    pub mean_burst_gap_us: f64,
}

impl SweepSpec {
    /// Creates a read-heavy sweep point at the given transfer size.
    pub fn new(transfer_kb: u64) -> Self {
        SweepSpec {
            transfer_kb: transfer_kb.max(1),
            read_fraction: 1.0,
            footprint_mb: 4096,
            burst_size: 8,
            mean_burst_gap_us: 100.0,
        }
    }

    /// Sets the read fraction.
    pub fn with_read_fraction(mut self, fraction: f64) -> Self {
        self.read_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the logical footprint in MB.
    pub fn with_footprint_mb(mut self, mb: u64) -> Self {
        self.footprint_mb = mb.max(1);
        self
    }

    /// Sets the burst shape.
    pub fn with_bursts(mut self, burst_size: u32, mean_gap_us: f64) -> Self {
        self.burst_size = burst_size.max(1);
        self.mean_burst_gap_us = mean_gap_us.max(1.0);
        self
    }

    /// Generates `count` requests deterministically from `seed`, fully
    /// materialized.  Equivalent to draining [`SweepSpec::stream`].
    pub fn generate(&self, count: u64, seed: u64) -> Trace {
        self.stream(count, seed).collect_trace()
    }

    /// A lazy [`TraceSource`] yielding the same records as
    /// [`SweepSpec::generate`], one at a time, in O(1) memory.
    pub fn stream(&self, count: u64, seed: u64) -> SweepStream {
        SweepStream {
            name: format!("sweep-{}KB", self.transfer_kb),
            spec: self.clone(),
            rng: DeterministicRng::seeded(seed ^ 0x5357_4545_5000_0000 ^ self.transfer_kb),
            count,
            next_id: 0,
            now: SimTime::ZERO,
        }
    }
}

/// The lazily evaluating twin of [`SweepSpec::generate`].
#[derive(Debug, Clone)]
pub struct SweepStream {
    name: String,
    spec: SweepSpec,
    rng: DeterministicRng,
    count: u64,
    next_id: u64,
    now: SimTime,
}

impl TraceSource for SweepStream {
    fn name(&self) -> &str {
        &self.name
    }

    fn footprint_bytes(&self) -> u64 {
        // A transfer larger than the configured footprint still issues one
        // whole transfer at offset 0, so the bound is the larger of the two.
        (self.spec.footprint_mb * 1024 * 1024).max(self.spec.transfer_kb * 1024)
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
        let bytes = self.spec.transfer_kb * 1024;
        let footprint = self.spec.footprint_mb * 1024 * 1024;
        if id.is_multiple_of(self.spec.burst_size as u64) && id != 0 {
            self.now +=
                Duration::from_micros_f64(self.rng.exponential(self.spec.mean_burst_gap_us));
        }
        let is_read = self.rng.bernoulli(self.spec.read_fraction);
        // Align offsets to the transfer size so requests do not straddle more
        // pages than necessary; `slots` counts the aligned positions whose
        // whole transfer fits inside the footprint.
        let slots = (footprint / bytes).max(1);
        let offset = self.rng.uniform_u64(slots) * bytes;
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

/// The transfer sizes (in KB) swept by Figs 15 and 16: 4 KB to 4 MB.
pub const TRANSFER_SIZES_KB: [u64; 11] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_has_the_requested_size() {
        for kb in [4u64, 64, 1024] {
            let trace = SweepSpec::new(kb).generate(50, 3);
            assert!(trace.iter().all(|r| r.bytes == kb * 1024));
            assert_eq!(trace.len(), 50);
        }
    }

    #[test]
    fn read_fraction_zero_generates_only_writes() {
        let trace = SweepSpec::new(16).with_read_fraction(0.0).generate(100, 1);
        assert!(trace.iter().all(|r| !r.op.is_read()));
    }

    #[test]
    fn offsets_are_aligned_and_bounded() {
        let spec = SweepSpec::new(128).with_footprint_mb(256);
        let trace = spec.generate(200, 5);
        for r in trace.iter() {
            assert_eq!(r.offset % (128 * 1024), 0);
            assert!(r.offset < 256 * 1024 * 1024);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SweepSpec::new(32).generate(100, 9);
        let b = SweepSpec::new(32).generate(100, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_sizes_cover_4kb_to_4mb() {
        assert_eq!(TRANSFER_SIZES_KB[0], 4);
        assert_eq!(*TRANSFER_SIZES_KB.last().unwrap(), 4096);
        assert!(TRANSFER_SIZES_KB.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn bursts_advance_time() {
        let trace = SweepSpec::new(8).with_bursts(4, 50.0).generate(16, 2);
        let records = trace.records();
        assert_eq!(records[0].arrival, records[3].arrival);
        assert!(records[4].arrival > records[0].arrival);
    }

    #[test]
    fn stream_and_generate_agree_record_for_record() {
        let spec = SweepSpec::new(64).with_read_fraction(0.5);
        let trace = spec.generate(120, 9);
        let mut stream = spec.stream(120, 9);
        assert_eq!(stream.name(), "sweep-64KB");
        assert_eq!(stream.remaining_hint(), Some(120));
        for expected in trace.iter() {
            assert_eq!(stream.next_record().as_ref(), Some(expected));
        }
        assert!(stream.next_record().is_none());
    }

    #[test]
    fn footprint_bound_covers_oversized_transfers() {
        let stream = SweepSpec::new(4096).with_footprint_mb(1).stream(10, 1);
        assert_eq!(stream.footprint_bytes(), 4096 * 1024);
        let mut stream = stream;
        while let Some(r) = stream.next_record() {
            assert!(r.offset + r.bytes <= 4096 * 1024);
        }
    }
}
