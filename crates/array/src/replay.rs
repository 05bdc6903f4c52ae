//! Striped replay: one trace routed on the calling thread, N devices
//! replaying their shares on N scoped threads.

use std::fmt;
use std::sync::mpsc;

use sprinkler_core::SchedulerKind;
use sprinkler_flash::Lpn;
use sprinkler_ssd::request::{Direction, HostRequest};
use sprinkler_ssd::{RunMetrics, Ssd};
use sprinkler_workloads::{TraceRecord, TraceSource};

use crate::config::ArrayConfig;
use crate::metrics::ArrayMetrics;

/// Fragments each device's channel holds before routing waits for that device
/// to take one.  A small constant, not scaled by queue depth: a bounded
/// channel reserves every slot when it is created.
const CHANNEL_FRAGMENTS: usize = 256;

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

/// Replays one trace source across a striped array: the calling thread
/// routes the source's records, in trace order, through the array's
/// [`StripeRouter`](crate::StripeRouter) into one bounded channel per device;
/// each device replays its share through [`Ssd::run_stream`]'s
/// bounded-admission loop on its own scoped thread, and the per-device
/// [`RunMetrics`] are merged into an [`ArrayMetrics`].
///
/// Replay memory stays bounded by the channels: routing waits while the
/// device it routes to has a full channel, so a device whose share ends early
/// never makes the others buffer the rest of the trace.
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
    source: &mut dyn TraceSource,
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
    let mut router = config.router(footprint);
    let results: Vec<Result<RunMetrics, String>> = std::thread::scope(|scope| {
        let (senders, handles): (Vec<_>, Vec<_>) = (0..config.width())
            .map(|device| {
                let (sender, fragments) = mpsc::sync_channel::<TraceRecord>(CHANNEL_FRAGMENTS);
                let handle = scope.spawn(move || {
                    let device_config = config.device(device).clone();
                    let page_size = device_config.page_size();
                    let ssd = Ssd::new(device_config, kind.build()).map_err(|e| e.to_string())?;
                    Ok(ssd.run_stream(
                        fragments
                            .into_iter()
                            .map(|record| record_to_request(&record, page_size)),
                    ))
                });
                (sender, handle)
            })
            .collect();
        let mut routed = Vec::new();
        'trace: while let Some(record) = source.next_record() {
            router.route(&record, &mut routed);
            for (device, fragment) in routed.drain(..) {
                // A failed send means that device's thread has ended: stop
                // routing, and let the join below say why.
                if senders[device].send(fragment).is_err() {
                    break 'trace;
                }
            }
        }
        // Hanging up ends every device's stream.
        drop(senders);
        handles
            .into_iter()
            .map(|handle| {
                // A panicked device thread re-raises its original panic here;
                // a config that fails to build (should be impossible after
                // `config.validate()` above) surfaces as an ArrayError instead
                // of a panic.
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let devices = results
        .into_iter()
        .collect::<Result<Vec<RunMetrics>, String>>()
        .map_err(ArrayError::InvalidConfig)?;
    Ok(ArrayMetrics::merge(
        config.stripe_bytes,
        devices,
        router.placement_stats(),
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
            assert_eq!(metrics.devices.len(), devices);
            let summary = &metrics.summary;
            let bytes = summary.bytes_read + summary.bytes_written;
            assert_eq!(
                bytes,
                *width1_bytes.get_or_insert(bytes),
                "striping must preserve page-rounded byte totals at width {devices}"
            );
            assert!(summary.io_count >= 200, "fragments can only add requests");
            assert!(summary.bandwidth_kb_per_sec > 0.0);
            assert!(summary.elapsed_ns > 0);
        }
    }

    /// Liveness under skew: a device whose striped share ends early must not
    /// stall the replay.  Device 0 owns only the first record; everything
    /// else lands on device 1, so routing spends the whole trace waiting on
    /// device 1's full channel while device 0 waits for a fragment that
    /// never comes.  Every I/O must still complete — and replay memory stays
    /// bounded by the channel capacity, not the trace length.
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
        assert_eq!(metrics.summary.io_count, total);
        assert_eq!(metrics.devices[0].io_count, 1);
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

    /// Regression: a rebalancing array sized its placement and heat tables
    /// by the footprint alone, so a terabyte footprint of 2 KiB stripes built
    /// 12 GiB of tables.  One stripe past the tracked-stripe cap is now
    /// refused before any table is built.
    #[test]
    fn rebalancing_footprints_past_the_tracked_stripe_cap_are_refused() {
        use crate::config::MAX_TRACKED_STRIPES;
        use crate::placement::RebalanceConfig;
        use sprinkler_sim::SimTime;
        use sprinkler_workloads::{Trace, TraceOp, TraceRecord};
        // Two 2 GiB devices hold 2^21 stripes of 2 KiB, twice the cap.
        let config = ArrayConfig::new(SsdConfig::paper_default().with_blocks_per_plane(16))
            .with_devices(2)
            .with_stripe_kb(2)
            .with_rebalance(RebalanceConfig::default());
        let stripe = config.stripe_bytes;
        let cap = MAX_TRACKED_STRIPES * stripe;
        // One record on the last stripe of a footprint of `stripes` stripes.
        let replay = |stripes: u64| {
            let record = TraceRecord {
                id: 0,
                arrival: SimTime::ZERO,
                op: TraceOp::Write,
                offset: (stripes - 1) * stripe,
                bytes: stripe,
            };
            let trace = Trace::new("edge", vec![record]);
            run_array(&config, SchedulerKind::Vas, &mut trace.source())
        };
        assert_eq!(
            replay(MAX_TRACKED_STRIPES + 1).err(),
            Some(ArrayError::FootprintExceedsCapacity {
                footprint_bytes: cap + stripe,
                capacity_bytes: cap,
            })
        );
        assert_eq!(replay(MAX_TRACKED_STRIPES).unwrap().summary.io_count, 1);
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
