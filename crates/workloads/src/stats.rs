//! Trace analysis: the statistics Table 1 reports, recomputed from a trace.

use crate::trace::Trace;

/// Summary statistics of a trace, mirroring the columns of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceStats {
    /// Total bytes read.
    pub read_bytes: u64,
    /// Total bytes written.
    pub write_bytes: u64,
    /// Number of read requests.
    pub read_count: u64,
    /// Number of write requests.
    pub write_count: u64,
    /// Mean read size in KB.
    pub read_mean_kb: f64,
    /// Mean write size in KB.
    pub write_mean_kb: f64,
    /// Fraction of reads that are not sequential to the previous read.
    pub read_randomness: f64,
    /// Fraction of writes that are not sequential to the previous write.
    pub write_randomness: f64,
}

impl TraceStats {
    /// Analyzes a trace.
    pub fn analyze(trace: &Trace) -> Self {
        let mut stats = TraceStats::default();
        let mut last_read_end: Option<u64> = None;
        let mut last_write_end: Option<u64> = None;
        let mut random_reads = 0u64;
        let mut random_writes = 0u64;
        for record in trace.iter() {
            if record.op.is_read() {
                stats.read_bytes += record.bytes;
                stats.read_count += 1;
                if last_read_end != Some(record.offset) {
                    random_reads += 1;
                }
                last_read_end = Some(record.offset + record.bytes);
            } else {
                stats.write_bytes += record.bytes;
                stats.write_count += 1;
                if last_write_end != Some(record.offset) {
                    random_writes += 1;
                }
                last_write_end = Some(record.offset + record.bytes);
            }
        }
        if stats.read_count > 0 {
            stats.read_mean_kb = stats.read_bytes as f64 / 1024.0 / stats.read_count as f64;
            stats.read_randomness = random_reads as f64 / stats.read_count as f64;
        }
        if stats.write_count > 0 {
            stats.write_mean_kb = stats.write_bytes as f64 / 1024.0 / stats.write_count as f64;
            stats.write_randomness = random_writes as f64 / stats.write_count as f64;
        }
        stats
    }

    /// Fraction of requests that are reads.
    pub fn read_fraction(&self) -> f64 {
        let total = self.read_count + self.write_count;
        if total == 0 {
            0.0
        } else {
            self.read_count as f64 / total as f64
        }
    }

    /// Total transferred MB (both directions).
    pub fn total_mb(&self) -> f64 {
        (self.read_bytes + self.write_bytes) as f64 / 1024.0 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;
    use crate::trace::{TraceOp, TraceRecord};
    use sprinkler_sim::SimTime;

    fn rec(id: u64, op: TraceOp, offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord {
            id,
            arrival: SimTime::from_micros(id),
            op,
            offset,
            bytes,
        }
    }

    #[test]
    fn empty_trace_has_zero_stats() {
        let stats = TraceStats::analyze(&Trace::new("e", vec![]));
        assert_eq!(stats.read_count, 0);
        assert_eq!(stats.read_fraction(), 0.0);
        assert_eq!(stats.total_mb(), 0.0);
    }

    #[test]
    fn counts_and_volumes_are_split_by_direction() {
        let trace = Trace::new(
            "t",
            vec![
                rec(0, TraceOp::Read, 0, 8192),
                rec(1, TraceOp::Write, 0, 4096),
                rec(2, TraceOp::Read, 8192, 8192),
            ],
        );
        let stats = TraceStats::analyze(&trace);
        assert_eq!(stats.read_count, 2);
        assert_eq!(stats.write_count, 1);
        assert_eq!(stats.read_bytes, 16384);
        assert_eq!(stats.write_bytes, 4096);
        assert!((stats.read_mean_kb - 8.0).abs() < 1e-9);
        assert!((stats.write_mean_kb - 4.0).abs() < 1e-9);
        assert!((stats.read_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert!(stats.total_mb() > 0.0);
    }

    #[test]
    fn sequential_run_has_low_randomness() {
        let mut records = Vec::new();
        for i in 0..100u64 {
            records.push(rec(i, TraceOp::Read, i * 4096, 4096));
        }
        let stats = TraceStats::analyze(&Trace::new("seq", records));
        // Only the first read is "random" (no predecessor).
        assert!(stats.read_randomness < 0.02);
    }

    #[test]
    fn random_workload_has_high_randomness() {
        let spec = SyntheticSpec::new("r").with_randomness(0.95, 0.95);
        let stats = TraceStats::analyze(&spec.generate(2000, 3));
        assert!(stats.read_randomness > 0.8, "{}", stats.read_randomness);
        assert!(stats.write_randomness > 0.8);
    }

    #[test]
    fn analyzed_randomness_tracks_the_spec() {
        let low = SyntheticSpec::new("low")
            .with_randomness(0.1, 0.1)
            .with_locality(crate::synthetic::Locality::Low);
        let high = SyntheticSpec::new("high")
            .with_randomness(0.95, 0.95)
            .with_locality(crate::synthetic::Locality::Low);
        let low_stats = TraceStats::analyze(&low.generate(3000, 5));
        let high_stats = TraceStats::analyze(&high.generate(3000, 5));
        assert!(low_stats.read_randomness < high_stats.read_randomness);
    }
}
