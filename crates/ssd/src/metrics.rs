//! Run metrics: everything the paper's evaluation section measures.
//!
//! The [`MetricsCollector`] is fed by the SSD simulator while it runs; at the end
//! of a run it is frozen into a [`RunMetrics`] value that the experiment harness
//! turns into the rows and series of the paper's tables and figures.

use std::sync::Arc;

use sprinkler_flash::ParallelismLevel;
use sprinkler_sim::{Duration, Histogram, MeanStat, SimTime, TelemetryCounters, TelemetrySnapshot};

use crate::ftl::GcStats;

/// First inclusive bucket bound of the latency histogram, in nanoseconds.
const LATENCY_HIST_START_NS: u64 = 1_000;
/// Number of exponential latency buckets (excluding the overflow bucket).
const LATENCY_HIST_BUCKETS: usize = 27;

/// The inclusive upper bounds of the latency histogram every run records:
/// exponential buckets from 1 µs to ~67 s, shared by all [`RunMetrics`] so
/// per-device bucket counts can be merged exactly (see
/// [`merged_latency_quantile`]).
pub fn latency_bucket_bounds() -> Vec<u64> {
    Histogram::exponential(LATENCY_HIST_START_NS, LATENCY_HIST_BUCKETS)
        .bounds()
        .to_vec()
}

/// Exact quantile of the union of several runs' latency samples, computed from
/// their shared-bound latency bucket counts ([`RunMetrics::latency_buckets`]).
///
/// All runs record latencies into histograms with identical bounds
/// ([`latency_bucket_bounds`]), so summing bucket counts elementwise yields the
/// histogram a single collector observing every I/O would have built; the
/// quantile of that merged histogram is returned (bucket upper bound, or the
/// overall maximum latency for the overflow bucket — the same convention as a
/// single run's `p99_latency_ns`).  Runs with no recorded buckets (legacy or
/// empty) contribute nothing.  Returns 0 when no samples exist.
pub fn merged_latency_quantile<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>, q: f64) -> u64 {
    let mut counts = vec![0u64; LATENCY_HIST_BUCKETS + 1];
    let mut max_latency = 0u64;
    for run in runs {
        // A run that contributed no bucket counts must not contribute its
        // `max_latency_ns` either: the overflow-bucket answer would otherwise
        // report a latency absent from the merged samples.
        if run.latency_buckets.iter().all(|&count| count == 0) {
            continue;
        }
        max_latency = max_latency.max(run.max_latency_ns);
        for (slot, &count) in counts.iter_mut().zip(&run.latency_buckets) {
            *slot += count;
        }
    }
    // One shared quantile convention: the walk and rounding live in
    // `Histogram`, so merged and per-run quantiles can never diverge.
    Histogram::quantile_from_counts(&latency_bucket_bounds(), &counts, max_latency, q)
}

/// I/O-count-weighted mean latency across several runs, in nanoseconds — the
/// average a single collector observing every run's I/Os would report.
/// Returns 0 when no I/Os were completed.
pub fn weighted_mean_latency_ns<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> f64 {
    let mut ios = 0u64;
    let mut weighted = 0.0f64;
    for run in runs {
        ios += run.io_count;
        weighted += run.avg_latency_ns * run.io_count as f64;
    }
    if ios == 0 {
        0.0
    } else {
        weighted / ios as f64
    }
}

/// Fractions of memory requests served at each flash-level parallelism class
/// (Fig 14).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlpBreakdown {
    /// Served with no flash-level parallelism.
    pub non_pal: f64,
    /// Served via plane sharing.
    pub pal1: f64,
    /// Served via die interleaving.
    pub pal2: f64,
    /// Served via die interleaving combined with plane sharing.
    pub pal3: f64,
}

impl FlpBreakdown {
    /// The four fractions in `[NON-PAL, PAL1, PAL2, PAL3]` order.
    pub fn as_array(&self) -> [f64; 4] {
        [self.non_pal, self.pal1, self.pal2, self.pal3]
    }

    /// Weighted average parallelism class (0 = NON-PAL … 3 = PAL3); a scalar
    /// summary used in assertions and reports.
    pub fn mean_level(&self) -> f64 {
        self.pal1 + 2.0 * self.pal2 + 3.0 * self.pal3
    }
}

/// Execution-time breakdown fractions (Fig 13).  Fractions are of total chip-time
/// (elapsed time × number of chips) and sum to ≤ 1, the remainder being idle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionBreakdown {
    /// Time chips spent driving bus operations (commands, addresses, payload).
    pub bus_operation: f64,
    /// Time transactions waited for a busy channel.
    pub bus_contention: f64,
    /// Time flash memory cells were active.
    pub memory_operation: f64,
    /// Remaining (idle) fraction.
    pub idle: f64,
}

/// All measurements from one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Scheduler that produced this run.
    pub scheduler: String,
    /// Host I/O requests completed.
    pub io_count: u64,
    /// Completed reads.
    pub read_ios: u64,
    /// Completed writes.
    pub write_ios: u64,
    /// Bytes returned to the host by reads.
    pub bytes_read: u64,
    /// Bytes accepted from the host by writes.
    pub bytes_written: u64,
    /// Simulated time from the first arrival to the last completion, in ns.
    pub elapsed_ns: u64,
    /// Simulated instant of the first host arrival, ns (0 when no I/Os
    /// arrived).  Together with [`RunMetrics::run_end_ns`] this places the
    /// run's activity window on the simulation clock, so independent runs
    /// (e.g. the devices of a striped array) can merge their windows as a
    /// *union* rather than assuming they coincide.
    pub run_start_ns: u64,
    /// Simulated instant the run's activity ended (last completion or final
    /// event), ns; `run_end_ns - run_start_ns == elapsed_ns`.
    pub run_end_ns: u64,
    /// I/O bandwidth in KB/s (the unit of Fig 10a).
    pub bandwidth_kb_per_sec: f64,
    /// I/O operations per second (Fig 10b).
    pub iops: f64,
    /// Mean device-level latency per I/O request in ns (Fig 10c).
    pub avg_latency_ns: f64,
    /// 99th-percentile latency in ns.
    pub p99_latency_ns: u64,
    /// Maximum latency in ns.
    pub max_latency_ns: u64,
    /// Total time host requests waited for a device-queue slot, in ns (Fig 10d is
    /// this value normalized to VAS).
    pub queue_stall_ns: u64,
    /// Peak number of host requests buffered *outside* the device queue at any
    /// instant.  The streaming replay path bounds this by the queue depth, so a
    /// multi-million-I/O replay runs in memory proportional to the outstanding
    /// work, not the trace length.
    pub peak_host_backlog: u64,
    /// Peak number of pending simulation events at any instant; bounded by the
    /// in-flight work (the eager replay of the seed held one arrival event per
    /// trace record up front).
    pub peak_pending_events: u64,
    /// Mean chip utilization: busy time / elapsed, averaged over chips (Figs 6/15).
    pub chip_utilization: f64,
    /// Inter-chip idleness (Fig 11a).
    pub inter_chip_idleness: f64,
    /// Intra-chip idleness (Fig 11b).
    pub intra_chip_idleness: f64,
    /// Flash-level parallelism breakdown (Fig 14).
    pub flp: FlpBreakdown,
    /// Execution-time breakdown (Fig 13).
    pub execution: ExecutionBreakdown,
    /// Number of flash transactions executed (Fig 16).
    pub transactions: u64,
    /// Number of memory requests served.
    pub memory_requests: u64,
    /// Memory requests folded per transaction, on average.
    pub requests_per_transaction: f64,
    /// Garbage collection statistics (Fig 17).
    pub gc: GcStats,
    /// Per-bucket latency sample counts over the shared exponential bounds of
    /// [`latency_bucket_bounds`], with one trailing overflow bucket.  Because
    /// every run uses the same bounds, bucket counts from independent runs
    /// (e.g. the devices of a striped array) merge exactly — see
    /// [`merged_latency_quantile`].
    pub latency_buckets: Vec<u64>,
    /// Optional per-I/O latency time series `(host request id, latency ns)`
    /// (Fig 12); populated only when series recording is enabled.
    pub latency_series: Vec<(u64, u64)>,
    /// Always-on hot-path telemetry counters, frozen at finalize.  Summed
    /// elementwise when device runs are aggregated into an array summary.
    pub telemetry: TelemetrySnapshot,
    /// Per-tenant metric slices, in tenant-lane order.  Empty unless the run
    /// was fed through the multi-tenant admission front and the lanes were
    /// registered with [`MetricsCollector::configure_tenants`] before replay.
    pub tenants: Vec<TenantMetrics>,
}

impl RunMetrics {
    /// Average latency expressed in milliseconds.
    pub fn avg_latency_ms(&self) -> f64 {
        self.avg_latency_ns / 1e6
    }

    /// Bandwidth expressed in MB/s.
    pub fn bandwidth_mb_per_sec(&self) -> f64 {
        self.bandwidth_kb_per_sec / 1024.0
    }
}

/// Identity and QoS contract of one tenant lane, registered with
/// [`MetricsCollector::configure_tenants`] before a multi-tenant replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLaneSpec {
    /// Tenant name, carried into [`TenantMetrics::name`].
    pub name: String,
    /// Latency SLO threshold in ns; completions slower than this count as
    /// violations.  `0` means the tenant has no latency SLO.
    pub slo_latency_ns: u64,
}

/// The per-tenant slice of a run's metrics.
///
/// Latency is measured from the tenant's *submission* time (before fair-share
/// admission delay), so queueing imposed by the multi-tenant front counts
/// against the tenant — unlike the device-level figures in [`RunMetrics`],
/// which measure from device arrival.  The latency buckets use the same shared
/// bounds as [`RunMetrics::latency_buckets`] ([`latency_bucket_bounds`]), so
/// per-tenant histograms from independent runs merge exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantMetrics {
    /// Tenant name from the lane spec.
    pub name: String,
    /// Host I/Os completed for this tenant.
    pub io_count: u64,
    /// Completed reads.
    pub read_ios: u64,
    /// Completed writes.
    pub write_ios: u64,
    /// Bytes returned to this tenant by reads.
    pub bytes_read: u64,
    /// Bytes accepted from this tenant by writes.
    pub bytes_written: u64,
    /// Mean submission-to-completion latency, ns.
    pub avg_latency_ns: f64,
    /// 99th-percentile submission-to-completion latency, ns.
    pub p99_latency_ns: u64,
    /// Maximum submission-to-completion latency, ns.
    pub max_latency_ns: u64,
    /// The lane's SLO threshold (0 = none).
    pub slo_latency_ns: u64,
    /// Completions whose latency exceeded the SLO threshold.
    pub slo_violations: u64,
    /// Per-bucket latency counts over the shared [`latency_bucket_bounds`].
    pub latency_buckets: Vec<u64>,
}

impl TenantMetrics {
    /// Total bytes moved for this tenant.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Live accumulation state for one tenant lane.
#[derive(Debug, Clone)]
struct TenantLane {
    spec: TenantLaneSpec,
    io_count: u64,
    read_ios: u64,
    write_ios: u64,
    bytes_read: u64,
    bytes_written: u64,
    latency: MeanStat,
    latency_hist: Histogram,
    slo_violations: u64,
}

impl TenantLane {
    fn new(spec: TenantLaneSpec) -> Self {
        TenantLane {
            spec,
            io_count: 0,
            read_ios: 0,
            write_ios: 0,
            bytes_read: 0,
            bytes_written: 0,
            latency: MeanStat::new(),
            latency_hist: Histogram::exponential(LATENCY_HIST_START_NS, LATENCY_HIST_BUCKETS),
            slo_violations: 0,
        }
    }

    fn finalize(self) -> TenantMetrics {
        TenantMetrics {
            name: self.spec.name,
            io_count: self.io_count,
            read_ios: self.read_ios,
            write_ios: self.write_ios,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            avg_latency_ns: self.latency.mean(),
            p99_latency_ns: self.latency_hist.quantile(0.99),
            max_latency_ns: self.latency_hist.max(),
            slo_latency_ns: self.spec.slo_latency_ns,
            slo_violations: self.slo_violations,
            latency_buckets: self.latency_hist.bucket_counts().to_vec(),
        }
    }
}

/// Collects measurements during a run.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    scheduler: String,
    record_series: bool,
    io_count: u64,
    read_ios: u64,
    write_ios: u64,
    bytes_read: u64,
    bytes_written: u64,
    latency: MeanStat,
    latency_hist: Histogram,
    queue_stall: Duration,
    first_arrival: Option<SimTime>,
    last_completion: SimTime,
    flp_requests: [u64; 4],
    transactions: u64,
    memory_requests: u64,
    bus_operation: Duration,
    bus_contention: Duration,
    cell_operation: Duration,
    latency_series: Vec<(u64, u64)>,
    peak_host_backlog: u64,
    peak_pending_events: u64,
    telemetry: Arc<TelemetryCounters>,
    tenant_lanes: Vec<TenantLane>,
}

impl MetricsCollector {
    /// Creates a collector for a run driven by `scheduler`.
    pub fn new(scheduler: &str, record_series: bool) -> Self {
        MetricsCollector {
            scheduler: scheduler.to_string(),
            record_series,
            io_count: 0,
            read_ios: 0,
            write_ios: 0,
            bytes_read: 0,
            bytes_written: 0,
            latency: MeanStat::new(),
            // Buckets from 1 µs to ~67 s; shared bounds, see latency_bucket_bounds.
            latency_hist: Histogram::exponential(LATENCY_HIST_START_NS, LATENCY_HIST_BUCKETS),
            queue_stall: Duration::ZERO,
            first_arrival: None,
            last_completion: SimTime::ZERO,
            flp_requests: [0; 4],
            transactions: 0,
            memory_requests: 0,
            bus_operation: Duration::ZERO,
            bus_contention: Duration::ZERO,
            cell_operation: Duration::ZERO,
            latency_series: Vec::new(),
            peak_host_backlog: 0,
            peak_pending_events: 0,
            telemetry: Arc::new(TelemetryCounters::new()),
            tenant_lanes: Vec::new(),
        }
    }

    /// Registers the run's tenant lanes, pre-sizing one histogram and stat
    /// bundle per tenant so the per-I/O attribution path never allocates.
    /// Replaces any previously configured lanes.
    pub fn configure_tenants(&mut self, specs: &[TenantLaneSpec]) {
        self.tenant_lanes = specs.iter().cloned().map(TenantLane::new).collect();
    }

    /// The run's hot-path telemetry counters.  The SSD substrate and its
    /// scheduler clone this `Arc` and increment the counters directly; the
    /// collector freezes them into [`RunMetrics::telemetry`] at finalize.
    pub fn telemetry(&self) -> &Arc<TelemetryCounters> {
        &self.telemetry
    }

    /// Records the replay loop's memory pressure: how many host requests sit
    /// outside the device queue and how many simulation events are pending.
    pub fn record_queue_pressure(&mut self, host_backlog: usize, pending_events: usize) {
        self.peak_host_backlog = self.peak_host_backlog.max(host_backlog as u64);
        self.peak_pending_events = self.peak_pending_events.max(pending_events as u64);
    }

    /// Records a host arrival.
    pub fn record_arrival(&mut self, at: SimTime) {
        let first = self.first_arrival.get_or_insert(at);
        *first = (*first).min(at);
    }

    /// Records the admission of a host request that arrived at `arrival` into the
    /// device queue at `admitted` (the difference is queue stall).
    pub fn record_admission(&mut self, arrival: SimTime, admitted: SimTime) {
        self.queue_stall += admitted.saturating_since(arrival);
    }

    /// Records a completed host I/O.
    pub fn record_io(
        &mut self,
        host_id: u64,
        is_read: bool,
        bytes: u64,
        arrival: SimTime,
        completed: SimTime,
    ) {
        self.io_count += 1;
        if is_read {
            self.read_ios += 1;
            self.bytes_read += bytes;
        } else {
            self.write_ios += 1;
            self.bytes_written += bytes;
        }
        let latency = completed.saturating_since(arrival);
        self.latency.record(latency.as_nanos() as f64);
        self.latency_hist.record(latency.as_nanos());
        self.last_completion = self.last_completion.max(completed);
        if self.record_series {
            self.latency_series.push((host_id, latency.as_nanos()));
        }
    }

    /// Attributes a completed host I/O to its tenant lane.  Latency is
    /// measured from `submitted` (the tenant's pre-admission submission time),
    /// so fair-share queueing delay counts against the tenant's SLO.  A no-op
    /// when no lanes are configured or `tenant` is out of range.
    pub fn record_tenant_io(
        &mut self,
        tenant: u32,
        is_read: bool,
        bytes: u64,
        submitted: SimTime,
        completed: SimTime,
    ) {
        let Some(lane) = self.tenant_lanes.get_mut(tenant as usize) else {
            return;
        };
        lane.io_count += 1;
        if is_read {
            lane.read_ios += 1;
            lane.bytes_read += bytes;
        } else {
            lane.write_ios += 1;
            lane.bytes_written += bytes;
        }
        let latency = completed.saturating_since(submitted);
        lane.latency.record(latency.as_nanos() as f64);
        lane.latency_hist.record(latency.as_nanos());
        if lane.spec.slo_latency_ns > 0 && latency.as_nanos() > lane.spec.slo_latency_ns {
            lane.slo_violations += 1;
        }
    }

    /// Records an executed flash transaction: its parallelism class, how many
    /// memory requests it folded, its bus occupancy, the contention it suffered,
    /// and its cell time.
    pub fn record_transaction(
        &mut self,
        level: ParallelismLevel,
        requests: usize,
        bus_time: Duration,
        contention: Duration,
        cell_time: Duration,
    ) {
        self.transactions += 1;
        self.memory_requests += requests as u64;
        let idx = match level {
            ParallelismLevel::NonPal => 0,
            ParallelismLevel::Pal1 => 1,
            ParallelismLevel::Pal2 => 2,
            ParallelismLevel::Pal3 => 3,
        };
        self.flp_requests[idx] += requests as u64;
        self.bus_operation += bus_time;
        self.bus_contention += contention;
        self.cell_operation += cell_time;
    }

    /// Number of I/Os completed so far.
    pub fn completed_ios(&self) -> u64 {
        self.io_count
    }

    /// Freezes the collector into a [`RunMetrics`], given the final simulation
    /// time, per-chip busy/plane-busy totals, and GC statistics.
    pub fn finalize(
        self,
        end: SimTime,
        chip_busy: &[Duration],
        chip_plane_busy: &[Duration],
        planes_per_chip: usize,
        gc: GcStats,
    ) -> RunMetrics {
        let start = self.first_arrival.unwrap_or(SimTime::ZERO);
        let end = end.max(self.last_completion);
        let elapsed = end.saturating_since(start);
        let elapsed_secs = elapsed.as_secs_f64().max(1e-12);

        let chips = chip_busy.len().max(1);
        let utilization = if elapsed.is_zero() {
            0.0
        } else {
            chip_busy
                .iter()
                .map(|b| b.as_nanos() as f64 / elapsed.as_nanos() as f64)
                .sum::<f64>()
                / chips as f64
        };
        let total_chip_busy: f64 = chip_busy.iter().map(|b| b.as_nanos() as f64).sum();
        let total_plane_busy: f64 = chip_plane_busy.iter().map(|b| b.as_nanos() as f64).sum();
        let intra_idle = if total_chip_busy <= 0.0 || planes_per_chip == 0 {
            0.0
        } else {
            (1.0 - total_plane_busy / (total_chip_busy * planes_per_chip as f64)).clamp(0.0, 1.0)
        };

        let total_requests: u64 = self.flp_requests.iter().sum();
        let frac = |n: u64| {
            if total_requests == 0 {
                0.0
            } else {
                n as f64 / total_requests as f64
            }
        };
        let flp = FlpBreakdown {
            non_pal: frac(self.flp_requests[0]),
            pal1: frac(self.flp_requests[1]),
            pal2: frac(self.flp_requests[2]),
            pal3: frac(self.flp_requests[3]),
        };

        let total_chip_time = elapsed.as_nanos() as f64 * chips as f64;
        let breakdown_frac = |d: Duration| {
            if total_chip_time <= 0.0 {
                0.0
            } else {
                (d.as_nanos() as f64 / total_chip_time).clamp(0.0, 1.0)
            }
        };
        let bus_operation = breakdown_frac(self.bus_operation);
        let bus_contention = breakdown_frac(self.bus_contention);
        let memory_operation = breakdown_frac(self.cell_operation);
        let execution = ExecutionBreakdown {
            bus_operation,
            bus_contention,
            memory_operation,
            idle: (1.0 - bus_operation - bus_contention - memory_operation).clamp(0.0, 1.0),
        };

        let total_bytes = self.bytes_read + self.bytes_written;
        RunMetrics {
            scheduler: self.scheduler,
            io_count: self.io_count,
            read_ios: self.read_ios,
            write_ios: self.write_ios,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            elapsed_ns: elapsed.as_nanos(),
            run_start_ns: start.as_nanos(),
            run_end_ns: end.as_nanos(),
            bandwidth_kb_per_sec: total_bytes as f64 / 1024.0 / elapsed_secs,
            iops: self.io_count as f64 / elapsed_secs,
            avg_latency_ns: self.latency.mean(),
            p99_latency_ns: self.latency_hist.quantile(0.99),
            max_latency_ns: self.latency_hist.max(),
            queue_stall_ns: self.queue_stall.as_nanos(),
            peak_host_backlog: self.peak_host_backlog,
            peak_pending_events: self.peak_pending_events,
            chip_utilization: utilization,
            inter_chip_idleness: (1.0 - utilization).clamp(0.0, 1.0),
            intra_chip_idleness: intra_idle,
            flp,
            execution,
            transactions: self.transactions,
            memory_requests: self.memory_requests,
            requests_per_transaction: if self.transactions == 0 {
                0.0
            } else {
                self.memory_requests as f64 / self.transactions as f64
            },
            gc,
            latency_buckets: self.latency_hist.bucket_counts().to_vec(),
            latency_series: self.latency_series,
            telemetry: self.telemetry.snapshot(),
            tenants: self
                .tenant_lanes
                .into_iter()
                .map(TenantLane::finalize)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micros(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn basic_io_accounting() {
        let mut m = MetricsCollector::new("test", true);
        m.record_arrival(micros(0));
        m.record_admission(micros(0), micros(2));
        m.record_io(0, true, 4096, micros(0), micros(100));
        m.record_io(1, false, 2048, micros(10), micros(60));
        assert_eq!(m.completed_ios(), 2);
        let r = m.finalize(
            micros(100),
            &[Duration::from_micros(50)],
            &[Duration::from_micros(50)],
            8,
            GcStats::default(),
        );
        assert_eq!(r.io_count, 2);
        assert_eq!(r.read_ios, 1);
        assert_eq!(r.write_ios, 1);
        assert_eq!(r.bytes_read, 4096);
        assert_eq!(r.bytes_written, 2048);
        assert_eq!(r.elapsed_ns, 100_000);
        assert_eq!(r.run_start_ns, 0);
        assert_eq!(r.run_end_ns, 100_000);
        assert_eq!(r.run_end_ns - r.run_start_ns, r.elapsed_ns);
        assert_eq!(r.queue_stall_ns, 2_000);
        assert!((r.avg_latency_ns - 75_000.0).abs() < 1.0);
        assert_eq!(r.scheduler, "test");
        assert_eq!(r.latency_series.len(), 2);
        assert!(r.iops > 0.0);
        assert!(r.bandwidth_kb_per_sec > 0.0);
        assert!((r.bandwidth_mb_per_sec() - r.bandwidth_kb_per_sec / 1024.0).abs() < 1e-9);
        assert!((r.avg_latency_ms() - 0.075).abs() < 1e-9);
    }

    #[test]
    fn utilization_and_idleness() {
        let mut m = MetricsCollector::new("util", false);
        m.record_arrival(micros(0));
        m.record_io(0, true, 2048, micros(0), micros(100));
        let chip_busy = vec![Duration::from_micros(100), Duration::from_micros(0)];
        // Chip 0 busy the whole time but only 1 of 8 plane-equivalents active.
        let plane_busy = vec![Duration::from_micros(100), Duration::ZERO];
        let r = m.finalize(micros(100), &chip_busy, &plane_busy, 8, GcStats::default());
        assert!((r.chip_utilization - 0.5).abs() < 1e-9);
        assert!((r.inter_chip_idleness - 0.5).abs() < 1e-9);
        assert!((r.intra_chip_idleness - 0.875).abs() < 1e-9);
    }

    #[test]
    fn flp_and_execution_breakdowns() {
        let mut m = MetricsCollector::new("flp", false);
        m.record_arrival(micros(0));
        m.record_io(0, true, 2048, micros(0), micros(200));
        m.record_transaction(
            ParallelismLevel::NonPal,
            1,
            Duration::from_micros(10),
            Duration::from_micros(5),
            Duration::from_micros(20),
        );
        m.record_transaction(
            ParallelismLevel::Pal3,
            4,
            Duration::from_micros(20),
            Duration::ZERO,
            Duration::from_micros(20),
        );
        let r = m.finalize(
            micros(200),
            &[Duration::from_micros(100)],
            &[Duration::from_micros(100)],
            8,
            GcStats::default(),
        );
        assert!((r.flp.non_pal - 0.2).abs() < 1e-9);
        assert!((r.flp.pal3 - 0.8).abs() < 1e-9);
        assert_eq!(r.flp.as_array()[0], r.flp.non_pal);
        assert!(r.flp.mean_level() > 2.0);
        assert_eq!(r.transactions, 2);
        assert_eq!(r.memory_requests, 5);
        assert!((r.requests_per_transaction - 2.5).abs() < 1e-9);
        // Execution fractions: total chip time = 200us * 1 chip.
        assert!((r.execution.bus_operation - 0.15).abs() < 1e-9);
        assert!((r.execution.bus_contention - 0.025).abs() < 1e-9);
        assert!((r.execution.memory_operation - 0.2).abs() < 1e-9);
        assert!((r.execution.idle - 0.625).abs() < 1e-9);
    }

    #[test]
    fn series_recording_is_optional() {
        let mut m = MetricsCollector::new("s", false);
        m.record_arrival(micros(0));
        m.record_io(0, true, 2048, micros(0), micros(10));
        let r = m.finalize(micros(10), &[], &[], 8, GcStats::default());
        assert!(r.latency_series.is_empty());
        assert_eq!(r.chip_utilization, 0.0);
    }

    #[test]
    fn empty_run_finalizes_cleanly() {
        let m = MetricsCollector::new("empty", false);
        let r = m.finalize(SimTime::ZERO, &[], &[], 0, GcStats::default());
        assert_eq!(r.io_count, 0);
        assert_eq!(r.avg_latency_ns, 0.0);
        assert_eq!(r.requests_per_transaction, 0.0);
        assert_eq!(r.flp.as_array(), [0.0; 4]);
        assert!(r.latency_buckets.iter().all(|&c| c == 0));
    }

    /// Builds a finalized run from raw latency samples (µs).
    fn run_with_latencies(latencies_us: &[u64]) -> RunMetrics {
        let mut m = MetricsCollector::new("m", false);
        m.record_arrival(micros(0));
        for (i, &l) in latencies_us.iter().enumerate() {
            m.record_io(i as u64, true, 2048, micros(0), micros(l));
        }
        m.finalize(micros(10_000_000), &[], &[], 8, GcStats::default())
    }

    #[test]
    fn bucket_counts_match_the_shared_bounds() {
        let bounds = latency_bucket_bounds();
        assert_eq!(bounds.len(), LATENCY_HIST_BUCKETS);
        assert_eq!(bounds[0], LATENCY_HIST_START_NS);
        let r = run_with_latencies(&[1, 10, 100]);
        assert_eq!(r.latency_buckets.len(), LATENCY_HIST_BUCKETS + 1);
        assert_eq!(r.latency_buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn merged_quantile_of_one_run_matches_its_own_p99() {
        let latencies: Vec<u64> = (1..=200).collect();
        let r = run_with_latencies(&latencies);
        assert_eq!(merged_latency_quantile([&r], 0.99), r.p99_latency_ns);
        // The bucket convention reports the containing bucket's upper bound,
        // so any quantile is at least the true sample quantile's bucket floor.
        assert!(merged_latency_quantile([&r], 1.0) >= r.max_latency_ns);
    }

    #[test]
    fn merged_quantile_equals_a_single_collector_over_the_union() {
        // Two disjoint sample sets merged must match one collector that saw all.
        let a: Vec<u64> = (1..=150).collect();
        let b: Vec<u64> = (500..=600).collect();
        let union: Vec<u64> = a.iter().chain(&b).copied().collect();
        let ra = run_with_latencies(&a);
        let rb = run_with_latencies(&b);
        let whole = run_with_latencies(&union);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(
                merged_latency_quantile([&ra, &rb], q),
                merged_latency_quantile([&whole], q),
                "quantile {q} diverged",
            );
        }
    }

    #[test]
    fn weighted_mean_latency_weights_by_io_count() {
        let a = run_with_latencies(&[10, 10, 10, 10]); // mean 10 µs, 4 I/Os
        let b = run_with_latencies(&[50]); // mean 50 µs, 1 I/O
        let merged = weighted_mean_latency_ns([&a, &b]);
        assert!((merged - 18_000.0).abs() < 1.0, "got {merged}");
        assert_eq!(weighted_mean_latency_ns([]), 0.0);
    }

    #[test]
    fn empty_bucket_runs_do_not_leak_their_max_into_the_merge() {
        let real = run_with_latencies(&[10, 20, 30]);
        // A run carrying a max but no bucket counts (e.g. a legacy summary)
        // must not become the merged overflow answer.
        let phantom = RunMetrics {
            max_latency_ns: u64::MAX,
            p99_latency_ns: u64::MAX,
            ..RunMetrics::default()
        };
        assert_eq!(
            merged_latency_quantile([&real, &phantom], 1.0),
            merged_latency_quantile([&real], 1.0)
        );
        assert_eq!(
            merged_latency_quantile([&real, &phantom], 0.99),
            real.p99_latency_ns
        );
    }

    #[test]
    fn telemetry_snapshot_is_carried_through_finalize() {
        let m = MetricsCollector::new("t", false);
        let counters = Arc::clone(m.telemetry());
        TelemetryCounters::incr(&counters.sched_rounds);
        TelemetryCounters::incr(&counters.stream_admissions);
        let r = m.finalize(SimTime::ZERO, &[], &[], 0, GcStats::default());
        assert_eq!(r.telemetry.sched_rounds, 1);
        assert_eq!(r.telemetry.stream_admissions, 1);
        assert_eq!(r.telemetry.stream_stalls, 0);
    }

    #[test]
    fn merged_quantile_of_empty_runs_is_zero() {
        let empty = MetricsCollector::new("e", false).finalize(
            SimTime::ZERO,
            &[],
            &[],
            0,
            GcStats::default(),
        );
        assert_eq!(merged_latency_quantile([&empty], 0.99), 0);
    }
}
