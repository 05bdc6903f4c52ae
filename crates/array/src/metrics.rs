//! Merged array metrics: the host's view of a striped replay.

use sprinkler_sim::TelemetrySnapshot;
use sprinkler_ssd::{merged_latency_quantile, weighted_mean_latency_ns, RunMetrics};

use crate::placement::PlacementStats;

/// Per-device imbalance statistics: how evenly the striping map spread the
/// workload, and how much the slowest device dragged the array.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceSkew {
    /// Fewest bytes any device moved.
    pub min_device_bytes: u64,
    /// Most bytes any device moved.
    pub max_device_bytes: u64,
    /// Mean bytes per device.
    pub mean_device_bytes: f64,
    /// `max_device_bytes / mean_device_bytes`; 1.0 is perfectly balanced, the
    /// array width is the worst case (everything on one device).
    pub byte_imbalance: f64,
    /// Fewest I/Os any device served.
    pub min_device_ios: u64,
    /// Most I/Os any device served.
    pub max_device_ios: u64,
    /// `max_device_ios / mean ios per device`.
    pub io_imbalance: f64,
    /// Slowest device elapsed over mean device elapsed — how long the array
    /// waits on its hottest shard.
    pub elapsed_imbalance: f64,
    /// `io_imbalance` normalized by per-device service weights (chip counts):
    /// `max(ios[d] / w[d]) / (Σ ios / Σ w)`.  Equals `io_imbalance` on
    /// homogeneous arrays; on heterogeneous ones it reports overload relative
    /// to each device's capability — a 32-chip device serving twice a 16-chip
    /// device's I/Os is *balanced* here.
    pub weighted_io_imbalance: f64,
    /// `byte_imbalance` under the same per-device weight normalization.
    pub weighted_byte_imbalance: f64,
}

impl DeviceSkew {
    fn from_devices(devices: &[RunMetrics], weights: &[f64]) -> Self {
        let n = devices.len().max(1) as f64;
        let bytes: Vec<u64> = devices
            .iter()
            .map(|m| m.bytes_read + m.bytes_written)
            .collect();
        let ios: Vec<u64> = devices.iter().map(|m| m.io_count).collect();
        let mean_bytes = bytes.iter().sum::<u64>() as f64 / n;
        let mean_ios = ios.iter().sum::<u64>() as f64 / n;
        let mean_elapsed = devices.iter().map(|m| m.elapsed_ns).sum::<u64>() as f64 / n;
        let max_elapsed = devices.iter().map(|m| m.elapsed_ns).max().unwrap_or(0);
        let ratio = |max: u64, mean: f64| if mean > 0.0 { max as f64 / mean } else { 1.0 };
        let uniform = vec![1.0; devices.len()];
        let weights = if weights.len() == devices.len() {
            weights
        } else {
            &uniform
        };
        // Weighted imbalance: each device's share over the share its weight
        // entitles it to; 1.0 means every device is loaded exactly to its
        // capability.
        let weighted = |values: &[u64]| {
            let total: f64 = values.iter().map(|&v| v as f64).sum();
            let weight_total: f64 = weights.iter().sum();
            if total <= 0.0 || weight_total <= 0.0 {
                return 1.0;
            }
            let fair = total / weight_total;
            values
                .iter()
                .zip(weights)
                .map(|(&v, &w)| v as f64 / w / fair)
                .fold(1.0f64, f64::max)
        };
        DeviceSkew {
            min_device_bytes: bytes.iter().copied().min().unwrap_or(0),
            max_device_bytes: bytes.iter().copied().max().unwrap_or(0),
            mean_device_bytes: mean_bytes,
            byte_imbalance: ratio(bytes.iter().copied().max().unwrap_or(0), mean_bytes),
            min_device_ios: ios.iter().copied().min().unwrap_or(0),
            max_device_ios: ios.iter().copied().max().unwrap_or(0),
            io_imbalance: ratio(ios.iter().copied().max().unwrap_or(0), mean_ios),
            elapsed_imbalance: ratio(max_elapsed, mean_elapsed),
            weighted_io_imbalance: weighted(&ios),
            weighted_byte_imbalance: weighted(&bytes),
        }
    }
}

/// Everything a striped array replay measures: host-level aggregates merged
/// from the per-device [`RunMetrics`], imbalance statistics, and the full
/// per-device breakdown for drill-down.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayMetrics {
    /// Scheduler every device ran.
    pub scheduler: String,
    /// Array width.
    pub device_count: usize,
    /// Stripe size in bytes.
    pub stripe_bytes: u64,
    /// Device-level I/Os completed, summed (a host record straddling a stripe
    /// boundary counts once per fragment).
    pub io_count: u64,
    /// Completed reads, summed.
    pub read_ios: u64,
    /// Completed writes, summed.
    pub write_ios: u64,
    /// Bytes returned to the host by reads, summed.
    pub bytes_read: u64,
    /// Bytes accepted from the host by writes, summed.
    pub bytes_written: u64,
    /// Wall-clock of the array replay: the slowest device's elapsed ns.
    pub elapsed_ns: u64,
    /// Aggregate bandwidth in KB/s: total bytes over the slowest device's
    /// elapsed time — what the host actually observes end to end.
    pub bandwidth_kb_per_sec: f64,
    /// Aggregate I/Os per second over the slowest device's elapsed time.
    pub iops: f64,
    /// I/O-count-weighted mean device-level latency in ns.
    pub avg_latency_ns: f64,
    /// 99th-percentile latency over the union of every device's samples
    /// (exact merge of the shared-bound latency histograms).
    pub p99_latency_ns: u64,
    /// Maximum latency over all devices, ns.
    pub max_latency_ns: u64,
    /// Total queue-stall time, summed over devices, ns.
    pub queue_stall_ns: u64,
    /// Per-device imbalance statistics.
    pub skew: DeviceSkew,
    /// High-water mark of fragments buffered in the fanout while devices
    /// replayed at different positions.
    ///
    /// This is a *host-side* measurement: it depends on how the OS
    /// interleaves the pump and device threads, so it varies between
    /// otherwise identical runs.  Every other field in this struct is
    /// deterministic simulated output (`tests/determinism.rs` enforces
    /// this by full-struct equality with only this field normalized).
    pub peak_fanout_buffered: u64,
    /// Stripes the adaptive placement layer migrated between devices (0 with
    /// the rebalancer off).
    pub stripes_migrated: u64,
    /// Bytes of stripe payload migrated; the devices served twice this much
    /// injected copy traffic (a read on the source, a write on the target),
    /// which the goodput figures below exclude.
    pub migration_bytes: u64,
    /// Heat-EWMA decay passes the rebalancer applied (one per window).
    pub heat_decays: u64,
    /// The per-device metrics, in device order.
    pub devices: Vec<RunMetrics>,
}

impl ArrayMetrics {
    /// Merges per-device run metrics into the host-level array view, with no
    /// adaptive-placement activity (static striping).
    ///
    /// A single-device merge is the identity on every shared field, so a
    /// 1-device array reports exactly what the bare device run reported.
    pub fn merge(stripe_bytes: u64, devices: Vec<RunMetrics>, peak_fanout_buffered: u64) -> Self {
        Self::merge_with(
            stripe_bytes,
            devices,
            peak_fanout_buffered,
            PlacementStats::default(),
            &[],
        )
    }

    /// Merges per-device run metrics into the host-level array view,
    /// accounting for the placement layer's activity and the devices' service
    /// weights.
    ///
    /// `placement`'s migration traffic is *excluded* from the goodput figures
    /// (`bandwidth_kb_per_sec`, `iops`): each migration injected one
    /// stripe-sized read and one stripe-sized write that served no host
    /// payload, while its service time still stretches the elapsed window —
    /// so a rebalancer only wins on these figures when the improved balance
    /// outweighs what the copies cost.  Raw totals (`io_count`, byte
    /// counters) keep counting everything the devices served.  `weights`
    /// (one per device, or empty for uniform) feed the weighted skew figures.
    pub fn merge_with(
        stripe_bytes: u64,
        devices: Vec<RunMetrics>,
        peak_fanout_buffered: u64,
        placement: PlacementStats,
        weights: &[f64],
    ) -> Self {
        assert!(!devices.is_empty(), "an array has at least one device");
        let scheduler = devices[0].scheduler.clone();
        // The array's wall-clock is the *union* of the devices' activity
        // windows on the shared simulation clock — not the longest per-device
        // span, which would overstate aggregate bandwidth whenever shards are
        // active at different times (e.g. a hot shard touched only late).
        // Devices that served nothing carry no window and are skipped.
        let active = || devices.iter().filter(|m| m.io_count > 0);
        let union_start = active().map(|m| m.run_start_ns).min().unwrap_or(0);
        let union_end = active().map(|m| m.run_end_ns).max().unwrap_or(0);
        let elapsed_ns = union_end.saturating_sub(union_start);
        let io_count: u64 = devices.iter().map(|m| m.io_count).sum();
        let bytes_read: u64 = devices.iter().map(|m| m.bytes_read).sum();
        let bytes_written: u64 = devices.iter().map(|m| m.bytes_written).sum();
        let (bandwidth_kb_per_sec, iops, avg_latency_ns, p99_latency_ns) = if devices.len() == 1 {
            // Identity merge: copy the derived floats verbatim rather than
            // recomputing them, so a 1-device array is bit-identical to the
            // bare device run.
            let only = &devices[0];
            (
                only.bandwidth_kb_per_sec,
                only.iops,
                only.avg_latency_ns,
                only.p99_latency_ns,
            )
        } else {
            let elapsed_secs = (elapsed_ns as f64 / 1e9).max(1e-12);
            // Goodput: host payload only.  Each migration injected a
            // stripe-sized read plus a stripe-sized write of copy traffic.
            let payload_bytes =
                (bytes_read + bytes_written).saturating_sub(2 * placement.migration_bytes);
            let payload_ios = io_count.saturating_sub(2 * placement.stripes_migrated);
            (
                payload_bytes as f64 / 1024.0 / elapsed_secs,
                payload_ios as f64 / elapsed_secs,
                weighted_mean_latency_ns(devices.iter()),
                merged_latency_quantile(devices.iter(), 0.99),
            )
        };
        ArrayMetrics {
            scheduler,
            device_count: devices.len(),
            stripe_bytes,
            io_count,
            read_ios: devices.iter().map(|m| m.read_ios).sum(),
            write_ios: devices.iter().map(|m| m.write_ios).sum(),
            bytes_read,
            bytes_written,
            elapsed_ns,
            bandwidth_kb_per_sec,
            iops,
            avg_latency_ns,
            p99_latency_ns,
            max_latency_ns: devices.iter().map(|m| m.max_latency_ns).max().unwrap_or(0),
            queue_stall_ns: devices.iter().map(|m| m.queue_stall_ns).sum(),
            skew: DeviceSkew::from_devices(&devices, weights),
            peak_fanout_buffered,
            stripes_migrated: placement.stripes_migrated,
            migration_bytes: placement.migration_bytes,
            heat_decays: placement.heat_decays,
            devices,
        }
    }

    /// The merged view flattened into a [`RunMetrics`] so array outcomes can
    /// flow through harnesses built for single-device runs (e.g. the scenario
    /// registry).  Fields with no array-level meaning (FLP/execution
    /// breakdowns, GC, series) are averaged or left default; chip utilization
    /// is the device mean.
    pub fn summary_run_metrics(&self) -> RunMetrics {
        let n = self.device_count.max(1) as f64;
        // Preserve the RunMetrics window invariant
        // (`run_end_ns - run_start_ns == elapsed_ns`): the summary's window is
        // the union window the merge measured.
        let run_start_ns = self
            .devices
            .iter()
            .filter(|m| m.io_count > 0)
            .map(|m| m.run_start_ns)
            .min()
            .unwrap_or(0);
        // Elementwise sum of the shared-bound per-device histograms: the exact
        // bucket counts a single collector observing every device's I/Os would
        // have recorded, so the summary round-trips through
        // `merged_latency_quantile` to the same p99 the array reported.
        // (Dropping these silently — the old `..default()` behaviour — made
        // every downstream latency merge treat the array as sample-free.)
        let bucket_len = self
            .devices
            .iter()
            .map(|m| m.latency_buckets.len())
            .max()
            .unwrap_or(0);
        let mut latency_buckets = vec![0u64; bucket_len];
        for device in &self.devices {
            for (slot, &count) in latency_buckets.iter_mut().zip(&device.latency_buckets) {
                *slot += count;
            }
        }
        RunMetrics {
            scheduler: self.scheduler.clone(),
            io_count: self.io_count,
            read_ios: self.read_ios,
            write_ios: self.write_ios,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            elapsed_ns: self.elapsed_ns,
            run_start_ns,
            run_end_ns: run_start_ns + self.elapsed_ns,
            bandwidth_kb_per_sec: self.bandwidth_kb_per_sec,
            iops: self.iops,
            avg_latency_ns: self.avg_latency_ns,
            p99_latency_ns: self.p99_latency_ns,
            max_latency_ns: self.max_latency_ns,
            queue_stall_ns: self.queue_stall_ns,
            peak_host_backlog: self
                .devices
                .iter()
                .map(|m| m.peak_host_backlog)
                .max()
                .unwrap_or(0),
            peak_pending_events: self
                .devices
                .iter()
                .map(|m| m.peak_pending_events)
                .max()
                .unwrap_or(0),
            chip_utilization: self.devices.iter().map(|m| m.chip_utilization).sum::<f64>() / n,
            transactions: self.devices.iter().map(|m| m.transactions).sum(),
            memory_requests: self.devices.iter().map(|m| m.memory_requests).sum(),
            latency_buckets,
            telemetry: {
                // Fold the device counters, then stamp in the array-level
                // placement counters (devices never touch those fields).
                let mut folded = self
                    .devices
                    .iter()
                    .fold(TelemetrySnapshot::default(), |acc, m| {
                        acc.merged(&m.telemetry)
                    });
                folded.stripes_migrated += self.stripes_migrated;
                folded.migration_bytes += self.migration_bytes;
                folded.heat_decays += self.heat_decays;
                folded
            },
            ..RunMetrics::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(io: u64, bytes: u64, elapsed_ns: u64, avg_latency: f64) -> RunMetrics {
        RunMetrics {
            scheduler: "SPK3".to_string(),
            io_count: io,
            read_ios: io,
            bytes_read: bytes,
            elapsed_ns,
            run_start_ns: 0,
            run_end_ns: elapsed_ns,
            avg_latency_ns: avg_latency,
            bandwidth_kb_per_sec: bytes as f64 / 1024.0 / (elapsed_ns as f64 / 1e9).max(1e-12),
            ..RunMetrics::default()
        }
    }

    #[test]
    fn single_device_merge_is_the_identity() {
        let only = device(100, 1 << 20, 5_000_000, 42_000.0);
        let merged = ArrayMetrics::merge(1 << 20, vec![only.clone()], 3);
        assert_eq!(merged.device_count, 1);
        assert_eq!(merged.io_count, only.io_count);
        assert_eq!(merged.elapsed_ns, only.elapsed_ns);
        assert_eq!(merged.bandwidth_kb_per_sec, only.bandwidth_kb_per_sec);
        assert_eq!(merged.avg_latency_ns, only.avg_latency_ns);
        assert_eq!(merged.p99_latency_ns, only.p99_latency_ns);
        assert_eq!(merged.skew.byte_imbalance, 1.0);
        assert_eq!(merged.peak_fanout_buffered, 3);
    }

    #[test]
    fn merge_sums_totals_and_takes_the_slowest_elapsed() {
        let a = device(100, 10 << 20, 4_000_000, 10_000.0);
        let b = device(300, 30 << 20, 8_000_000, 30_000.0);
        let merged = ArrayMetrics::merge(1 << 20, vec![a, b], 0);
        assert_eq!(merged.io_count, 400);
        assert_eq!(merged.bytes_read, 40 << 20);
        assert_eq!(merged.elapsed_ns, 8_000_000);
        // 40 MiB over 8 ms.
        let expect = (40u64 << 20) as f64 / 1024.0 / 8e-3;
        assert!((merged.bandwidth_kb_per_sec - expect).abs() < 1e-6);
        // Weighted mean: (100*10k + 300*30k) / 400 = 25k.
        assert!((merged.avg_latency_ns - 25_000.0).abs() < 1e-9);
    }

    /// Regression: the merged wall-clock is the union of the devices'
    /// activity windows, not the longest per-device span.  Two devices active
    /// in disjoint 1 ms windows 9 ms apart span 10 ms of host time; taking
    /// `max(elapsed)` would report 1 ms and a ~10x inflated bandwidth.
    #[test]
    fn merge_spans_the_union_of_device_windows() {
        let early = device(100, 10 << 20, 1_000_000, 10_000.0); // [0, 1ms)
        let mut late = device(100, 10 << 20, 1_000_000, 10_000.0);
        late.run_start_ns = 9_000_000; // [9ms, 10ms)
        late.run_end_ns = 10_000_000;
        let merged = ArrayMetrics::merge(1 << 20, vec![early, late], 0);
        assert_eq!(merged.elapsed_ns, 10_000_000);
        let expect_bw = (20u64 << 20) as f64 / 1024.0 / 10e-3;
        assert!((merged.bandwidth_kb_per_sec - expect_bw).abs() < 1e-6);
        // An idle device contributes no window.
        let early = device(100, 10 << 20, 1_000_000, 10_000.0);
        let mut idle = device(0, 0, 0, 0.0);
        idle.run_start_ns = 0;
        idle.run_end_ns = 0;
        let merged = ArrayMetrics::merge(1 << 20, vec![early, idle], 0);
        assert_eq!(merged.elapsed_ns, 1_000_000);
    }

    #[test]
    fn skew_reports_the_hot_device() {
        let cold = device(100, 10 << 20, 4_000_000, 10_000.0);
        let hot = device(300, 30 << 20, 8_000_000, 30_000.0);
        let merged = ArrayMetrics::merge(1 << 20, vec![cold, hot], 0);
        assert_eq!(merged.skew.min_device_ios, 100);
        assert_eq!(merged.skew.max_device_ios, 300);
        assert!((merged.skew.io_imbalance - 1.5).abs() < 1e-9);
        assert!((merged.skew.byte_imbalance - 1.5).abs() < 1e-9);
        assert!(merged.skew.elapsed_imbalance > 1.0);
    }

    #[test]
    fn summary_preserves_the_aggregate_view() {
        let a = device(10, 1 << 20, 1_000_000, 5_000.0);
        let b = device(30, 3 << 20, 2_000_000, 15_000.0);
        let merged = ArrayMetrics::merge(1 << 20, vec![a, b], 0);
        let summary = merged.summary_run_metrics();
        assert_eq!(summary.io_count, merged.io_count);
        assert_eq!(summary.bandwidth_kb_per_sec, merged.bandwidth_kb_per_sec);
        assert_eq!(summary.avg_latency_ns, merged.avg_latency_ns);
        assert_eq!(summary.scheduler, "SPK3");
    }

    /// Builds a device run whose latency histogram has `count` samples in the
    /// shared bucket whose upper bound is closest above `latency_ns`.
    fn device_with_latencies(io: u64, samples: &[(u64, u64)]) -> RunMetrics {
        let bounds = sprinkler_ssd::latency_bucket_bounds();
        let mut latency_buckets = vec![0u64; bounds.len() + 1];
        let mut max_latency_ns = 0;
        for &(latency_ns, count) in samples {
            let idx = bounds
                .iter()
                .position(|&b| latency_ns <= b)
                .unwrap_or(bounds.len());
            latency_buckets[idx] += count;
            max_latency_ns = max_latency_ns.max(latency_ns);
        }
        RunMetrics {
            max_latency_ns,
            latency_buckets,
            ..device(io, io * 4096, 1_000_000, 10_000.0)
        }
    }

    /// Regression (the silently-dropped histogram): the summary must carry the
    /// elementwise-summed per-device bucket counts, so feeding the summary back
    /// through `merged_latency_quantile` reproduces the p99 the array itself
    /// reported.  Before the fix `..RunMetrics::default()` zeroed the buckets
    /// and the round-tripped quantile collapsed to 0.
    #[test]
    fn summary_round_trips_the_merged_latency_histogram() {
        let a = device_with_latencies(40, &[(5_000, 30), (40_000, 10)]);
        let b = device_with_latencies(60, &[(40_000, 50), (900_000, 10)]);
        let merged = ArrayMetrics::merge(1 << 20, vec![a, b], 0);
        assert!(merged.p99_latency_ns > 0);
        let summary = merged.summary_run_metrics();
        assert_eq!(summary.latency_buckets.iter().sum::<u64>(), 100);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                merged_latency_quantile([&summary], q),
                merged_latency_quantile(merged.devices.iter(), q),
                "quantile {q} diverged after the summary round-trip",
            );
        }
        assert_eq!(
            merged_latency_quantile([&summary], 0.99),
            merged.p99_latency_ns
        );
    }

    #[test]
    fn summary_sums_device_telemetry() {
        let mut a = device(10, 1 << 20, 1_000_000, 5_000.0);
        a.telemetry = TelemetrySnapshot {
            sched_rounds: 7,
            stream_admissions: 10,
            ..TelemetrySnapshot::default()
        };
        let mut b = device(30, 3 << 20, 2_000_000, 15_000.0);
        b.telemetry = TelemetrySnapshot {
            sched_rounds: 5,
            hazard_war_deferrals: 2,
            ..TelemetrySnapshot::default()
        };
        let merged = ArrayMetrics::merge(1 << 20, vec![a, b], 0);
        let summary = merged.summary_run_metrics();
        assert_eq!(summary.telemetry.sched_rounds, 12);
        assert_eq!(summary.telemetry.stream_admissions, 10);
        assert_eq!(summary.telemetry.hazard_war_deferrals, 2);
        assert_eq!(summary.telemetry.stream_stalls, 0);
    }
}
