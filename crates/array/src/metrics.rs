//! Merged array metrics: the host's view of a striped replay.

use sprinkler_sim::TelemetrySnapshot;
use sprinkler_ssd::ftl::GcStats;
use sprinkler_ssd::{
    merged_latency_quantile, weighted_mean_latency_ns, FlpBreakdown, RunMetrics, WorkCounts,
};

use crate::placement::PlacementStats;

/// Per-device imbalance statistics: how evenly the striping map spread the
/// workload's I/Os.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceSkew {
    /// Most I/Os any device served over the mean per device; 1.0 is perfectly
    /// balanced, the array width is the worst case (everything on one device).
    pub io_imbalance: f64,
    /// `io_imbalance` normalized by per-device service weights (chip counts):
    /// `max(ios[d] / w[d]) / (Σ ios / Σ w)`.  Equals `io_imbalance` on
    /// homogeneous arrays; on heterogeneous ones it reports overload relative
    /// to each device's capability — a 32-chip device serving twice a 16-chip
    /// device's I/Os is *balanced* here.
    pub weighted_io_imbalance: f64,
}

impl DeviceSkew {
    fn from_devices(devices: &[RunMetrics], weights: &[f64]) -> Self {
        let ios: Vec<f64> = devices.iter().map(|m| m.io_count as f64).collect();
        let total: f64 = ios.iter().sum();
        let max = ios.iter().copied().fold(0.0, f64::max);
        let mean = total / devices.len().max(1) as f64;
        let uniform = vec![1.0; devices.len()];
        let weights = if weights.len() == devices.len() {
            weights
        } else {
            &uniform
        };
        // Each device's share over the share its weight entitles it to; 1.0
        // means every device is loaded exactly to its capability.
        let weight_total: f64 = weights.iter().sum();
        let weighted_io_imbalance = if total <= 0.0 || weight_total <= 0.0 {
            1.0
        } else {
            let fair = total / weight_total;
            ios.iter()
                .zip(weights)
                .map(|(&v, &w)| v / w / fair)
                .fold(1.0f64, f64::max)
        };
        DeviceSkew {
            io_imbalance: if mean > 0.0 { max / mean } else { 1.0 },
            weighted_io_imbalance,
        }
    }
}

/// Everything a striped array replay measures: the merged host-level view,
/// imbalance statistics, the placement layer's counters, and the full
/// per-device breakdown for drill-down.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayMetrics {
    /// The host's view of the whole array as one [`RunMetrics`] (see
    /// [`ArrayMetrics::merge`] for how each field combines the devices), so
    /// array outcomes flow through harnesses built for single-device runs.
    pub summary: RunMetrics,
    /// Stripe size in bytes.
    pub stripe_bytes: u64,
    /// Per-device imbalance statistics.
    pub skew: DeviceSkew,
    /// The adaptive placement layer's counters; all zero with the rebalancer
    /// off.
    pub placement: PlacementStats,
    /// The per-device metrics, in device order.
    pub devices: Vec<RunMetrics>,
}

impl ArrayMetrics {
    /// Merges per-device run metrics into the host-level array view,
    /// accounting for the placement layer's activity and the devices' service
    /// weights (one per device, or empty for uniform; they feed the weighted
    /// skew figures).
    ///
    /// The summary sums the counts, bytes, queue-stall time, transactions,
    /// memory requests, failed and refused I/Os, GC counts, work counters,
    /// telemetry and latency-histogram buckets (a host record straddling a
    /// stripe boundary counts once per fragment), takes the maximum latency
    /// and queue peaks, and averages chip utilization over the devices;
    /// inter-chip idleness is its complement, as for one device.  Requests
    /// per transaction is the ratio of the summed counts, and each FLP
    /// fraction the devices' mean weighted by their memory requests.  Its
    /// window is the *union* of the devices' activity windows on the shared
    /// simulation clock.  The mean latency is I/O-weighted and the p99 an
    /// exact merge of the shared-bound histograms, so the summary round-trips
    /// through `merged_latency_quantile`.  Intra-chip idleness and the
    /// execution breakdown stay default: they need per-chip busy sums, which
    /// `RunMetrics` does not carry.  The latency series and tenant lanes stay
    /// empty.
    ///
    /// `placement`'s migration traffic is *excluded* from the goodput figures
    /// (`bandwidth_kb_per_sec`, `iops`): each migration injected one
    /// stripe-sized read and one stripe-sized write that served no host
    /// payload, while its service time still stretches the elapsed window —
    /// so a rebalancer only wins on these figures when the improved balance
    /// outweighs what the copies cost.  Raw totals (`io_count`, byte
    /// counters) keep counting everything the devices served.
    ///
    /// A single device's derived figures (bandwidth, IOPS, mean and p99
    /// latency) are copied, not recomputed, so a 1-device array reports
    /// exactly what the bare device run reported.
    pub fn merge(
        stripe_bytes: u64,
        devices: Vec<RunMetrics>,
        placement: PlacementStats,
        weights: &[f64],
    ) -> Self {
        assert!(!devices.is_empty(), "an array has at least one device");
        // The union window, not the longest per-device span, which would
        // overstate aggregate bandwidth whenever shards are active at
        // different times (e.g. a hot shard touched only late).  Devices that
        // served nothing carry no window and are skipped.
        let active = || devices.iter().filter(|m| m.io_count > 0);
        let run_start_ns = active().map(|m| m.run_start_ns).min().unwrap_or(0);
        let union_end = active().map(|m| m.run_end_ns).max().unwrap_or(0);
        let elapsed_ns = union_end.saturating_sub(run_start_ns);
        let sum = |field: fn(&RunMetrics) -> u64| devices.iter().map(field).sum::<u64>();
        let max = |field: fn(&RunMetrics) -> u64| devices.iter().map(field).max().unwrap_or(0);
        let io_count = sum(|m| m.io_count);
        let bytes_read = sum(|m| m.bytes_read);
        let bytes_written = sum(|m| m.bytes_written);
        let (bandwidth_kb_per_sec, iops, avg_latency_ns, p99_latency_ns) = if devices.len() == 1 {
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
        let bucket_len = devices
            .iter()
            .map(|m| m.latency_buckets.len())
            .max()
            .unwrap_or(0);
        let mut latency_buckets = vec![0u64; bucket_len];
        for device in &devices {
            for (slot, &count) in latency_buckets.iter_mut().zip(&device.latency_buckets) {
                *slot += count;
            }
        }
        let transactions = sum(|m| m.transactions);
        let memory_requests = sum(|m| m.memory_requests);
        let chip_utilization =
            devices.iter().map(|m| m.chip_utilization).sum::<f64>() / devices.len() as f64;
        let flp_mean = |class: fn(&FlpBreakdown) -> f64| {
            devices
                .iter()
                .filter(|m| m.memory_requests > 0)
                .map(|m| class(&m.flp) * (m.memory_requests as f64 / memory_requests as f64))
                .sum::<f64>()
        };
        let summary = RunMetrics {
            scheduler: devices[0].scheduler.clone(),
            io_count,
            read_ios: sum(|m| m.read_ios),
            write_ios: sum(|m| m.write_ios),
            bytes_read,
            bytes_written,
            elapsed_ns,
            run_start_ns,
            run_end_ns: run_start_ns + elapsed_ns,
            bandwidth_kb_per_sec,
            iops,
            avg_latency_ns,
            p99_latency_ns,
            max_latency_ns: max(|m| m.max_latency_ns),
            queue_stall_ns: sum(|m| m.queue_stall_ns),
            peak_host_backlog: max(|m| m.peak_host_backlog),
            peak_pending_events: max(|m| m.peak_pending_events),
            chip_utilization,
            inter_chip_idleness: (1.0 - chip_utilization).clamp(0.0, 1.0),
            flp: FlpBreakdown {
                non_pal: flp_mean(|f| f.non_pal),
                pal1: flp_mean(|f| f.pal1),
                pal2: flp_mean(|f| f.pal2),
                pal3: flp_mean(|f| f.pal3),
            },
            transactions,
            memory_requests,
            requests_per_transaction: if transactions == 0 {
                0.0
            } else {
                memory_requests as f64 / transactions as f64
            },
            gc: GcStats {
                invocations: sum(|m| m.gc.invocations),
                pages_migrated: sum(|m| m.gc.pages_migrated),
                cross_plane_migrations: sum(|m| m.gc.cross_plane_migrations),
                blocks_erased: sum(|m| m.gc.blocks_erased),
            },
            failed_writes: sum(|m| m.failed_writes),
            refused_ios: sum(|m| m.refused_ios),
            work: devices
                .iter()
                .fold(WorkCounts::default(), |acc, m| acc.merged(&m.work)),
            latency_buckets,
            telemetry: devices.iter().fold(TelemetrySnapshot::default(), |acc, m| {
                acc.merged(&m.telemetry)
            }),
            ..RunMetrics::default()
        };
        ArrayMetrics {
            summary,
            stripe_bytes,
            skew: DeviceSkew::from_devices(&devices, weights),
            placement,
            devices,
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

    /// Merges with no placement activity and uniform weights.
    fn merge(devices: Vec<RunMetrics>) -> RunMetrics {
        ArrayMetrics::merge(1 << 20, devices, PlacementStats::default(), &[]).summary
    }

    #[test]
    fn single_device_merge_is_the_identity() {
        let only = device(100, 1 << 20, 5_000_000, 42_000.0);
        let array =
            ArrayMetrics::merge(1 << 20, vec![only.clone()], PlacementStats::default(), &[]);
        let merged = &array.summary;
        assert_eq!(array.devices.len(), 1);
        assert_eq!(merged.io_count, only.io_count);
        assert_eq!(merged.elapsed_ns, only.elapsed_ns);
        assert_eq!(merged.bandwidth_kb_per_sec, only.bandwidth_kb_per_sec);
        assert_eq!(merged.avg_latency_ns, only.avg_latency_ns);
        assert_eq!(merged.p99_latency_ns, only.p99_latency_ns);
        assert_eq!(array.skew.io_imbalance, 1.0);
    }

    #[test]
    fn merge_sums_totals_and_takes_the_slowest_elapsed() {
        let a = device(100, 10 << 20, 4_000_000, 10_000.0);
        let b = device(300, 30 << 20, 8_000_000, 30_000.0);
        let merged = merge(vec![a, b]);
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
        let merged = merge(vec![early, late]);
        assert_eq!(merged.elapsed_ns, 10_000_000);
        let expect_bw = (20u64 << 20) as f64 / 1024.0 / 10e-3;
        assert!((merged.bandwidth_kb_per_sec - expect_bw).abs() < 1e-6);
        // An idle device contributes no window.
        let early = device(100, 10 << 20, 1_000_000, 10_000.0);
        let mut idle = device(0, 0, 0, 0.0);
        idle.run_start_ns = 0;
        idle.run_end_ns = 0;
        let merged = merge(vec![early, idle]);
        assert_eq!(merged.elapsed_ns, 1_000_000);
    }

    #[test]
    fn skew_reports_the_hot_device() {
        let cold = device(100, 10 << 20, 4_000_000, 10_000.0);
        let hot = device(300, 30 << 20, 8_000_000, 30_000.0);
        let merged = ArrayMetrics::merge(1 << 20, vec![cold, hot], PlacementStats::default(), &[]);
        assert!((merged.skew.io_imbalance - 1.5).abs() < 1e-9);
    }

    /// The device-level figures that merge exactly from `RunMetrics` alone,
    /// against closed forms for two devices; one device merges to itself.
    #[test]
    fn summary_merges_flp_gc_and_transaction_figures() {
        let gc = |n: u64| GcStats {
            invocations: n,
            pages_migrated: 2 * n,
            cross_plane_migrations: 3 * n,
            blocks_erased: 4 * n,
        };
        let device_with = |requests: u64, txns: u64, [non_pal, pal1, pal2, pal3]: [f64; 4]| {
            let util = requests as f64 / 400.0;
            RunMetrics {
                memory_requests: requests,
                transactions: txns,
                requests_per_transaction: requests as f64 / txns as f64,
                flp: FlpBreakdown {
                    non_pal,
                    pal1,
                    pal2,
                    pal3,
                },
                gc: gc(txns),
                chip_utilization: util,
                inter_chip_idleness: 1.0 - util,
                intra_chip_idleness: 0.3,
                execution: sprinkler_ssd::ExecutionBreakdown {
                    idle: 0.4,
                    ..Default::default()
                },
                ..device(10, 1 << 20, 1_000_000, 5_000.0)
            }
        };
        let a = device_with(100, 40, [0.5, 0.0, 0.0, 0.5]);
        let b = device_with(300, 60, [0.0, 0.25, 0.0, 0.75]);
        let summary = merge(vec![a.clone(), b.clone()]);
        // 400 requests over 100 transactions.
        assert_eq!(summary.requests_per_transaction, 4.0);
        assert_eq!(summary.gc, gc(100));
        // Weights 100/400 and 300/400: non-PAL 0.5 × 0.25, PAL1 0.25 × 0.75,
        // PAL3 0.5 × 0.25 + 0.75 × 0.75.
        assert_eq!(summary.flp.as_array(), [0.125, 0.1875, 0.0, 0.6875]);
        // Utilization (0.25 + 0.75) / 2, and its complement.
        assert_eq!(summary.inter_chip_idleness, 0.5);
        // Not derivable from `RunMetrics`: left at the default.
        assert_eq!(summary.intra_chip_idleness, 0.0);
        assert_eq!(summary.execution, Default::default());
        for only in [a, b] {
            let summary = merge(vec![only.clone()]);
            let figures = |m: &RunMetrics| (m.requests_per_transaction, m.gc, m.flp);
            assert_eq!(figures(&summary), figures(&only));
            assert_eq!(summary.inter_chip_idleness, only.inter_chip_idleness);
        }
    }

    #[test]
    fn summary_preserves_the_aggregate_view() {
        let mut a = device(10, 1 << 20, 1_000_000, 5_000.0);
        a.failed_writes = 2;
        let mut b = device(30, 3 << 20, 2_000_000, 15_000.0);
        b.failed_writes = 3;
        let summary = merge(vec![a, b]);
        assert_eq!(summary.io_count, 40);
        assert_eq!(summary.failed_writes, 5);
        assert_eq!(
            summary.run_end_ns - summary.run_start_ns,
            summary.elapsed_ns
        );
        // 4 MiB over the 2 ms union window.
        let expect = (4u64 << 20) as f64 / 1024.0 / 2e-3;
        assert!((summary.bandwidth_kb_per_sec - expect).abs() < 1e-6);
        // Weighted mean: (10*5k + 30*15k) / 40 = 12.5k.
        assert!((summary.avg_latency_ns - 12_500.0).abs() < 1e-9);
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
        let array = ArrayMetrics::merge(1 << 20, vec![a, b], PlacementStats::default(), &[]);
        let summary = &array.summary;
        assert!(summary.p99_latency_ns > 0);
        assert_eq!(summary.latency_buckets.iter().sum::<u64>(), 100);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                merged_latency_quantile([summary], q),
                merged_latency_quantile(array.devices.iter(), q),
                "quantile {q} diverged after the summary round-trip",
            );
        }
        assert_eq!(
            merged_latency_quantile([summary], 0.99),
            summary.p99_latency_ns
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
        let summary = merge(vec![a, b]);
        assert_eq!(summary.telemetry.sched_rounds, 12);
        assert_eq!(summary.telemetry.stream_admissions, 10);
        assert_eq!(summary.telemetry.hazard_war_deferrals, 2);
        assert_eq!(summary.telemetry.stream_stalls, 0);
    }
}
