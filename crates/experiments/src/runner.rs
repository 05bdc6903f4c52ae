//! Shared experiment machinery.

use sprinkler_core::SchedulerKind;
use sprinkler_ssd::request::HostRequest;
use sprinkler_ssd::{RunMetrics, SsdConfig};
use sprinkler_workloads::Trace;

use crate::replay::{self, CapacityPolicy};

/// How large each experiment should be.  The full scale approximates the paper's
/// runs; the quick scale keeps CI runs in the seconds range while preserving
/// every qualitative trend.  Every binary maps its scale flags through
/// [`ExperimentScale::from_args`], so `--quick` means the same everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Host I/O requests per workload run.
    pub ios_per_workload: u64,
    /// Blocks per plane used in experiment geometries (keeps GC working sets and
    /// mapping tables tractable).
    pub blocks_per_plane: usize,
}

impl ExperimentScale {
    /// The scale used when regenerating the figures for the record.
    pub fn full() -> Self {
        ExperimentScale {
            ios_per_workload: 2000,
            blocks_per_plane: 64,
        }
    }

    /// A fast scale for smoke tests and CI runs.
    pub fn quick() -> Self {
        ExperimentScale {
            ios_per_workload: 300,
            blocks_per_plane: 32,
        }
    }

    /// The scale of `BENCH_seed.json`'s fig10 cells (`--bench`): 200 I/Os
    /// per workload, small enough for a gate that runs on every change, large
    /// enough that every qualitative trend of the paper still shows.
    pub fn bench() -> Self {
        ExperimentScale {
            ios_per_workload: 200,
            blocks_per_plane: 32,
        }
    }

    /// Maps CLI arguments to a scale: `--quick`, `--bench` and `--full` (last
    /// one wins, default full).  Arguments without a leading `--` are left to
    /// the caller.  Any other `--` flag is returned as the error, so a typo
    /// such as `--quik` cannot silently fall back to the full scale.
    pub fn from_args<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Self, &'a str> {
        let mut scale = Self::full();
        for arg in args {
            scale = match arg {
                "--quick" => Self::quick(),
                "--bench" => Self::bench(),
                "--full" => Self::full(),
                flag if flag.starts_with("--") => return Err(flag),
                _ => scale,
            };
        }
        Ok(scale)
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self::full()
    }
}

impl ExperimentScale {
    /// The transfer sizes (KB) swept by the microbenchmark figures at this scale.
    pub fn sweep_sizes_kb(&self) -> Vec<u64> {
        if self.ios_per_workload >= 1000 {
            sprinkler_workloads::sweep::TRANSFER_SIZES_KB.to_vec()
        } else {
            vec![4, 16, 64, 256, 1024, 4096]
        }
    }

    /// Page budget for one sweep run; bounds the memory-request count so very
    /// large transfer sizes do not dominate the run time.
    pub fn sweep_page_budget(&self) -> u64 {
        self.ios_per_workload * 24
    }

    /// Builds the fixed-transfer-size trace for one sweep point: the request count
    /// shrinks as the transfer size grows so each point issues roughly the same
    /// number of page-level memory requests.
    pub fn sweep_trace(&self, transfer_kb: u64, read_fraction: f64, seed: u64) -> Trace {
        let pages_per_io = (transfer_kb * 1024).div_ceil(2048).max(1);
        // The lower bound keeps large-transfer points statistically meaningful
        // but must never exceed the scale's own I/O budget: `clamp` panics when
        // its bounds invert, which the seed hit for `ios_per_workload < 12`
        // (and a zero-I/O scale still yields one record rather than panicking).
        let floor = 12.min(self.ios_per_workload).max(1);
        let ceiling = self.ios_per_workload.max(floor);
        let ios = (self.sweep_page_budget() / pages_per_io).clamp(floor, ceiling);
        sprinkler_workloads::SweepSpec::new(transfer_kb)
            .with_read_fraction(read_fraction)
            .generate(ios, seed)
    }
}

/// Converts a block-level trace into page-granular host requests for the SSD.
///
/// Pure conversion, no capacity bound — the streaming replay boundary
/// ([`crate::replay::run_source`]) is where records are validated against the
/// device's logical capacity; this eager helper exists for tests and
/// hand-assembled runs.
pub fn to_host_requests(trace: &Trace, page_size: usize) -> Vec<HostRequest> {
    trace
        .iter()
        .map(|record| replay::record_to_request(record, page_size))
        .collect()
}

/// Runs one scheduler over one trace on the given SSD configuration, through
/// the streaming replay boundary: records are pulled from the trace lazily,
/// validated against the device's logical capacity (out-of-capacity ranges
/// wrap deterministically), and admitted under bounded backpressure.
pub fn run_one(config: &SsdConfig, kind: SchedulerKind, trace: &Trace) -> RunMetrics {
    replay::run_source(config, kind, &mut trace.source(), CapacityPolicy::Wrap)
        .expect("the wrap policy never rejects a record")
}

/// Like [`run_one`] but records the per-I/O latency series (Fig 12) and optionally
/// pre-conditions the SSD into a fragmented state (Fig 17).
pub fn run_one_detailed(
    config: &SsdConfig,
    kind: SchedulerKind,
    trace: &Trace,
    record_series: bool,
    precondition: Option<f64>,
) -> RunMetrics {
    replay::run_source_detailed(
        config,
        kind,
        &mut trace.source(),
        CapacityPolicy::Wrap,
        record_series,
        precondition,
    )
    .expect("the wrap policy never rejects a record")
}

/// Runs one closure per cell on a bounded pool of scoped worker threads and
/// returns the results in input order.
///
/// Every experiment cell — a (scheduler × workload × chip-count) triple — is an
/// independent simulation, so regenerating a whole figure is embarrassingly
/// parallel.  Workers pull cells from a shared cursor, so uneven cell costs
/// (the 1024-chip points dominate a scaling panel) still balance; the pool is
/// capped at `available_parallelism` so a full-scale regeneration never
/// oversubscribes the host.  Results are reassembled in input order, keeping
/// every figure's output byte-identical to a serial run.
pub fn run_cells<T, R, F>(cells: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cells.len());
    if workers <= 1 {
        return cells.iter().map(run).collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(cells.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(cell) = cells.get(index) else {
                            break;
                        };
                        local.push((index, run(cell)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            indexed.extend(handle.join().expect("experiment worker panicked"));
        }
    });
    indexed.sort_unstable_by_key(|&(index, _)| index);
    indexed.into_iter().map(|(_, result)| result).collect()
}

/// One cell of a scheduler × workload matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Workload name.
    pub workload: String,
    /// Scheduler evaluated.
    pub scheduler: SchedulerKind,
    /// The collected metrics.
    pub metrics: RunMetrics,
}

/// Runs every scheduler over every trace, in parallel across the independent
/// cells via [`run_cells`].  Cells come back in deterministic order: by
/// workload, then by scheduler order in the request.
pub fn run_matrix(
    config: &SsdConfig,
    schedulers: &[SchedulerKind],
    traces: &[Trace],
) -> Vec<MatrixCell> {
    let cells: Vec<(&Trace, SchedulerKind)> = traces
        .iter()
        .flat_map(|trace| schedulers.iter().map(move |&kind| (trace, kind)))
        .collect();
    run_cells(&cells, |&(trace, kind)| MatrixCell {
        workload: trace.name().to_string(),
        scheduler: kind,
        metrics: run_one(config, kind, trace),
    })
}

/// Finds the cell for a workload/scheduler pair.
pub fn find_cell<'a>(
    cells: &'a [MatrixCell],
    workload: &str,
    scheduler: SchedulerKind,
) -> Option<&'a MatrixCell> {
    cells
        .iter()
        .find(|c| c.workload == workload && c.scheduler == scheduler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinkler_workloads::SyntheticSpec;

    #[test]
    fn host_request_conversion_preserves_counts_and_direction() {
        let trace = SyntheticSpec::new("conv")
            .with_read_fraction(1.0)
            .generate(50, 3);
        let requests = to_host_requests(&trace, 2048);
        assert_eq!(requests.len(), 50);
        assert!(requests.iter().all(|r| r.direction.is_read()));
        assert!(requests.iter().all(|r| r.pages >= 1));
    }

    #[test]
    fn run_one_completes_every_io() {
        let config = SsdConfig::paper_default().with_blocks_per_plane(32);
        let trace = SyntheticSpec::new("small").generate(60, 5);
        let metrics = run_one(&config, SchedulerKind::Spk3, &trace);
        assert_eq!(metrics.io_count, 60);
    }

    #[test]
    fn run_cells_matches_a_serial_map_in_order() {
        let cells: Vec<usize> = (0..97).collect();
        let parallel = run_cells(&cells, |&i| i * i + 1);
        let serial: Vec<usize> = cells.iter().map(|&i| i * i + 1).collect();
        assert_eq!(parallel, serial);
        // Degenerate shapes.
        assert!(run_cells(&[] as &[usize], |&i: &usize| i).is_empty());
        assert_eq!(run_cells(&[7usize], |&i| i + 1), vec![8]);
    }

    #[test]
    fn matrix_covers_every_pair_in_order() {
        let config = SsdConfig::paper_default().with_blocks_per_plane(32);
        let traces = vec![
            SyntheticSpec::new("w0").generate(40, 1),
            SyntheticSpec::new("w1").generate(40, 2),
        ];
        let schedulers = [SchedulerKind::Vas, SchedulerKind::Spk3];
        let cells = run_matrix(&config, &schedulers, &traces);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].workload, "w0");
        assert_eq!(cells[0].scheduler, SchedulerKind::Vas);
        assert_eq!(cells[3].workload, "w1");
        assert_eq!(cells[3].scheduler, SchedulerKind::Spk3);
        assert!(find_cell(&cells, "w1", SchedulerKind::Vas).is_some());
        assert!(find_cell(&cells, "w2", SchedulerKind::Vas).is_none());
    }

    #[test]
    fn detailed_run_supports_series_and_precondition() {
        let config = SsdConfig::paper_default()
            .with_blocks_per_plane(8)
            .with_gc(sprinkler_ssd::GcConfig::enabled());
        let trace = SyntheticSpec::new("d")
            .with_read_fraction(0.0)
            .generate(40, 9);
        let metrics = run_one_detailed(&config, SchedulerKind::Spk3, &trace, true, Some(0.5));
        assert_eq!(metrics.io_count, 40);
        assert_eq!(metrics.latency_series.len(), 40);
    }

    #[test]
    fn scales_expose_sane_values() {
        assert!(
            ExperimentScale::full().ios_per_workload > ExperimentScale::quick().ios_per_workload
        );
        assert!(
            ExperimentScale::quick().ios_per_workload >= ExperimentScale::bench().ios_per_workload
        );
        assert_eq!(ExperimentScale::default(), ExperimentScale::full());
    }

    #[test]
    fn scale_resolution_is_shared_and_cli_flags_resolve() {
        assert_eq!(ExperimentScale::from_args([]), Ok(ExperimentScale::full()));
        assert_eq!(
            ExperimentScale::from_args(["--quick"]),
            Ok(ExperimentScale::quick())
        );
        assert_eq!(
            ExperimentScale::from_args(["ignored", "--bench"]),
            Ok(ExperimentScale::bench())
        );
        // Last flag wins.
        assert_eq!(
            ExperimentScale::from_args(["--quick", "--full"]),
            Ok(ExperimentScale::full())
        );
        // Regression: an unknown flag was dropped, so `--quik` ran at full
        // scale.
        assert_eq!(ExperimentScale::from_args(["--quik"]), Err("--quik"));
    }

    /// Regression: `sweep_trace` panicked ("assertion failed: min <= max") for
    /// any scale below 12 I/Os per workload, because the clamp's fixed lower
    /// bound exceeded the upper bound.
    #[test]
    fn sweep_trace_survives_tiny_scales() {
        for ios in [0, 1, 2, 5, 11, 12, 13] {
            let scale = ExperimentScale {
                ios_per_workload: ios,
                blocks_per_plane: 8,
            };
            for transfer_kb in [4, 4096] {
                let trace = scale.sweep_trace(transfer_kb, 1.0, 7);
                assert!(!trace.is_empty());
                assert!(trace.len() as u64 <= ios.max(1));
            }
        }
        // At normal scales the floor still applies to huge transfers.
        let scale = ExperimentScale::quick();
        assert!(scale.sweep_trace(4096, 1.0, 7).len() >= 12);
    }
}
