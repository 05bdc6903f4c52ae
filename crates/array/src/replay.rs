//! Parallel striped replay: one trace, N devices, N scoped threads.

use std::fmt;

use sprinkler_core::SchedulerKind;
use sprinkler_flash::Lpn;
use sprinkler_ssd::request::{Direction, HostRequest};
use sprinkler_ssd::{RunMetrics, Ssd};
use sprinkler_workloads::{TraceRecord, TraceSource};

use crate::config::ArrayConfig;
use crate::metrics::ArrayMetrics;
use crate::placement::Rebalancer;
use crate::splitter::{DeviceSource, StripedFanout};

/// Why an array replay could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayError {
    /// The array configuration failed validation.
    InvalidConfig(String),
    /// The source's declared footprint exceeds the array's usable logical
    /// capacity (whole stripes per device), so some fragment would address
    /// pages past a device's capacity.
    FootprintExceedsCapacity {
        /// The source's declared footprint bound in bytes.
        footprint_bytes: u64,
        /// The array's usable logical capacity in bytes.
        capacity_bytes: u64,
    },
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::InvalidConfig(message) => write!(f, "invalid array config: {message}"),
            ArrayError::FootprintExceedsCapacity {
                footprint_bytes,
                capacity_bytes,
            } => write!(
                f,
                "trace footprint of {footprint_bytes} bytes exceeds the array's usable logical \
                 capacity of {capacity_bytes} bytes"
            ),
        }
    }
}

impl std::error::Error for ArrayError {}

/// Converts one device-local trace record into a host request (the same
/// page-rounding the single-device replay boundary applies).
fn record_to_request(record: &TraceRecord, page_size: usize) -> HostRequest {
    let (lpn, pages) = record.pages(page_size);
    HostRequest::new(
        record.id,
        record.arrival,
        if record.op.is_read() {
            Direction::Read
        } else {
            Direction::Write
        },
        Lpn::new(lpn),
        pages,
    )
}

/// Adapts a device sub-source into the request stream `Ssd::run_stream`
/// consumes, pulling lazily so each device replays under its own bounded
/// admission.
struct DeviceRequestStream<'f, 'a> {
    source: DeviceSource<'f, 'a>,
    page_size: usize,
}

impl Iterator for DeviceRequestStream<'_, '_> {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        self.source
            .next_record()
            .map(|record| record_to_request(&record, self.page_size))
    }
}

/// Replays one trace source across a striped array: the source is split into
/// per-device sub-sources by the array's [`StripeMap`](crate::StripeMap), each
/// device replays its share through [`Ssd::run_stream`]'s bounded-admission
/// loop on its own scoped thread, and the per-device [`RunMetrics`] are merged
/// into an [`ArrayMetrics`].
///
/// The replay is the array's capacity boundary: the source's declared
/// footprint must fit the array's usable logical capacity
/// ([`ArrayConfig::logical_capacity_bytes`]), which guarantees every fragment
/// maps within its device — records are rejected up front rather than aliased.
///
/// # Errors
///
/// [`ArrayError::InvalidConfig`] when the configuration fails validation;
/// [`ArrayError::FootprintExceedsCapacity`] when the trace does not fit.
pub fn run_array(
    config: &ArrayConfig,
    kind: SchedulerKind,
    source: &mut (dyn TraceSource + Send),
) -> Result<ArrayMetrics, ArrayError> {
    config.validate().map_err(ArrayError::InvalidConfig)?;
    let footprint = source.footprint_bytes();
    let capacity = config.logical_capacity_bytes();
    if footprint > capacity {
        return Err(ArrayError::FootprintExceedsCapacity {
            footprint_bytes: footprint,
            capacity_bytes: capacity,
        });
    }

    // Bound the fanout buffers: a few device-queue-depths of slack per device
    // absorbs replay-position skew, while a device whose striped share ends
    // early (it still consumes the rest of the trace) waits for its siblings
    // instead of buffering the remainder — replay memory stays O(cap), not
    // O(trace length).
    let max_queue_depth = config
        .devices
        .iter()
        .map(|d| d.queue_depth)
        .max()
        .unwrap_or(0);
    let buffer_cap = (config.width() * max_queue_depth * 4).max(256);
    // Static striping unless a rebalance tuning is set; with it, the fanout
    // routes through the remappable placement table, tracks heat, and applies
    // (and charges) hot-stripe migrations at window boundaries — all inside
    // the fanout lock, in trace order, so metrics stay deterministic.
    let fanout = match &config.rebalance {
        None => StripedFanout::new(source, config.stripe_map()),
        Some(rebalance) => {
            let placement = config.placement_map(footprint);
            let total_stripes = placement.total_stripes();
            let rebalancer = Rebalancer::new(*rebalance, config.device_weights(), total_stripes);
            StripedFanout::adaptive(source, placement, rebalancer)
        }
    }
    .with_buffer_cap(buffer_cap);
    let devices = config.width();
    // One scoped worker per device (the validated width is small): every
    // sub-source must drain concurrently, otherwise a parked device's
    // fragments would accumulate in the fanout for the whole replay.
    let mut results: Vec<Result<RunMetrics, String>> = Vec::with_capacity(devices);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..devices)
            .map(|device| {
                let fanout = &fanout;
                scope.spawn(move || {
                    let device_config = config.device(device).clone();
                    let page_size = device_config.page_size();
                    let ssd = Ssd::new(device_config, kind.build()).map_err(|e| e.to_string())?;
                    Ok(ssd.run_stream(DeviceRequestStream {
                        source: fanout.device_source(device),
                        page_size,
                    }))
                })
            })
            .collect();
        for handle in handles {
            // A panicked device thread re-raises its original panic here; a
            // config that fails to build (should be impossible after
            // `config.validate()` above) surfaces as an ArrayError instead of
            // a panic.
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
    });
    let metrics = results
        .into_iter()
        .collect::<Result<Vec<RunMetrics>, String>>()
        .map_err(ArrayError::InvalidConfig)?;
    let peak = fanout.peak_buffered() as u64;
    let placement_stats = fanout.placement_stats();
    Ok(ArrayMetrics::merge_with(
        config.stripe_bytes,
        metrics,
        peak,
        placement_stats,
        &config.device_weights(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinkler_ssd::SsdConfig;
    use sprinkler_workloads::SyntheticSpec;

    fn quick_config(devices: usize) -> ArrayConfig {
        ArrayConfig::new(SsdConfig::paper_default().with_blocks_per_plane(16))
            .with_devices(devices)
            .with_stripe_kb(256)
    }

    #[test]
    fn replay_completes_every_byte_across_widths() {
        let spec = SyntheticSpec::new("array").with_footprint_mb(64);
        let trace = spec.generate(200, 0xA1);
        // The device counts page-granular bytes; because stripe boundaries are
        // page-aligned, the page-rounded total is invariant across widths.
        let mut width1_bytes = None;
        for devices in [1, 2, 4] {
            let metrics = run_array(
                &quick_config(devices),
                SchedulerKind::Spk3,
                &mut trace.source(),
            )
            .unwrap();
            assert_eq!(metrics.device_count, devices);
            assert_eq!(metrics.devices.len(), devices);
            let bytes = metrics.bytes_read + metrics.bytes_written;
            assert_eq!(
                bytes,
                *width1_bytes.get_or_insert(bytes),
                "striping must preserve page-rounded byte totals at width {devices}"
            );
            assert!(metrics.io_count >= 200, "fragments can only add requests");
            assert!(metrics.bandwidth_kb_per_sec > 0.0);
            assert!(metrics.elapsed_ns > 0);
        }
    }

    /// Regression: a device whose striped share ends early must not balloon
    /// the fanout buffers with the rest of the trace.  Device 0 owns only the
    /// first record; everything else lands on device 1.  Without the buffer
    /// cap, device 0's replay thread would pump all remaining records into
    /// device 1's queue at once (peak ≈ trace length); with it, the pumping
    /// device waits for device 1 to drain, so the high-water mark stays at
    /// the cap plus at most one record's fragments.
    #[test]
    fn early_exhausted_shares_stay_memory_bounded() {
        use sprinkler_sim::SimTime;
        use sprinkler_workloads::{Trace, TraceOp, TraceRecord};
        let config = quick_config(2); // 256 KB stripes → stripe 0 = device 0
        let total = 4_000u64;
        let records: Vec<TraceRecord> = (0..total)
            .map(|id| TraceRecord {
                id,
                arrival: SimTime::from_micros(id),
                op: TraceOp::Read,
                // Record 0 on device 0's first stripe; the rest cycle through
                // device 1's stripes (odd global stripes) only.
                offset: if id == 0 {
                    0
                } else {
                    (1 + 2 * (id % 128)) * 256 * 1024
                },
                bytes: 4096,
            })
            .collect();
        let trace = Trace::new("skewed", records);
        let metrics = run_array(&config, SchedulerKind::Vas, &mut trace.source()).unwrap();
        assert_eq!(metrics.io_count, total);
        let cap = (2 * config.device(0).queue_depth * 4).max(256) as u64;
        assert!(
            metrics.peak_fanout_buffered <= cap + 4,
            "fanout buffered {} fragments; cap is {cap} — early-exhausted \
             shares must back-pressure, not buffer the trace",
            metrics.peak_fanout_buffered
        );
    }

    #[test]
    fn oversized_footprints_are_rejected_up_front() {
        let config = quick_config(2);
        let capacity = config.logical_capacity_bytes();
        let spec = SyntheticSpec::new("big").with_footprint_mb(capacity / (1024 * 1024) + 1);
        let error = run_array(&config, SchedulerKind::Vas, &mut spec.stream(10, 1))
            .expect_err("oversized trace must be rejected");
        match error {
            ArrayError::FootprintExceedsCapacity { capacity_bytes, .. } => {
                assert_eq!(capacity_bytes, capacity);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(error.to_string().contains("capacity"));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = quick_config(2);
        config.stripe_bytes = 3; // not a page multiple
        let spec = SyntheticSpec::new("cfg").with_footprint_mb(1);
        assert!(matches!(
            run_array(&config, SchedulerKind::Vas, &mut spec.stream(5, 2)),
            Err(ArrayError::InvalidConfig(_))
        ));
    }
}
