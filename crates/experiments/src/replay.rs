//! The streaming replay boundary: [`TraceSource`] → [`HostRequest`] → SSD.
//!
//! Every experiment feeds the simulator through this module.  A trace source
//! (in-memory, lazily generated, or parsed from text) is adapted record by
//! record into page-granular host requests and pushed through
//! [`Ssd::run_stream`]'s bounded-admission loop, so replay memory is
//! O(outstanding I/Os) rather than O(trace length).
//!
//! The adapter is also the **capacity boundary**: each record's logical page
//! range is validated against the device's logical capacity, which is the
//! FTL's logical space.  The FTL refuses writes past it (they count as
//! `RunMetrics::failed_writes`), so the replay either rejects the record with
//! a [`ReplayError`] or deterministically wraps its page range into capacity,
//! per [`CapacityPolicy`].  A configuration that fails
//! [`SsdConfig::validate`] is a [`ReplayError`] too.

use std::cell::Cell;
use std::fmt;

use sprinkler_core::SchedulerKind;
use sprinkler_flash::Lpn;
use sprinkler_ssd::ftl::Ftl;
use sprinkler_ssd::request::{Direction, HostRequest};
use sprinkler_ssd::{RunMetrics, Ssd, SsdConfig, SsdError};
use sprinkler_workloads::{TraceRecord, TraceSource};

/// How the replay boundary treats a record whose logical page range exceeds
/// the device's logical capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapacityPolicy {
    /// Stop the replay with a [`ReplayError`] naming the record.
    Reject,
    /// Deterministically wrap the record's page range into capacity: the first
    /// page is reduced modulo the capacity, then shifted down (and, for
    /// device-sized requests, truncated) so the whole range fits.
    #[default]
    Wrap,
}

/// Why a replay stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The SSD configuration failed validation, so no device was built.
    InvalidConfig(SsdError),
    /// A record addressed pages past the device's logical capacity, under
    /// [`CapacityPolicy::Reject`].
    OutOfCapacity {
        /// The offending record's id.
        record_id: u64,
        /// First logical page the record addressed.
        first_lpn: u64,
        /// Number of pages the record spanned.
        pages: u32,
        /// The device's logical capacity in pages.
        capacity_pages: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::InvalidConfig(error) => write!(f, "cannot build the device: {error}"),
            ReplayError::OutOfCapacity {
                record_id,
                first_lpn,
                pages,
                capacity_pages,
            } => write!(
                f,
                "trace record {record_id} addresses logical pages [{first_lpn}, {}) past the \
                 device's logical capacity of {capacity_pages} pages",
                first_lpn + *pages as u64,
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Converts one trace record into a host request without any capacity bound
/// (the conversion [`crate::runner::to_host_requests`] applies).
pub fn record_to_request(record: &TraceRecord, page_size: usize) -> HostRequest {
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

/// Applies a [`CapacityPolicy`] to a converted request.  Returns `Err` only
/// under [`CapacityPolicy::Reject`].
fn bound_request(
    mut request: HostRequest,
    capacity_pages: u64,
    policy: CapacityPolicy,
) -> Result<HostRequest, ReplayError> {
    let first = request.start_lpn.value();
    let span = request.pages as u64;
    if first + span <= capacity_pages {
        return Ok(request);
    }
    match policy {
        CapacityPolicy::Reject => Err(ReplayError::OutOfCapacity {
            record_id: request.id,
            first_lpn: first,
            pages: request.pages,
            capacity_pages,
        }),
        CapacityPolicy::Wrap => {
            if span >= capacity_pages {
                // Degenerate: the request alone covers the device.
                request.start_lpn = Lpn::new(0);
                request.pages = capacity_pages.min(u32::MAX as u64) as u32;
            } else {
                let wrapped = first % capacity_pages;
                request.start_lpn = Lpn::new(wrapped.min(capacity_pages - span));
            }
            Ok(request)
        }
    }
}

/// The streaming adapter: pulls records from a [`TraceSource`], converts and
/// capacity-bounds them, and yields [`HostRequest`]s.  A rejection stops the
/// stream and parks the error in the shared cell for the caller to collect
/// after the run.
struct RequestStream<'a> {
    source: &'a mut dyn TraceSource,
    page_size: usize,
    capacity_pages: u64,
    policy: CapacityPolicy,
    error: &'a Cell<Option<ReplayError>>,
}

impl Iterator for RequestStream<'_> {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        let record = self.source.next_record()?;
        let request = record_to_request(&record, self.page_size);
        match bound_request(request, self.capacity_pages, self.policy) {
            Ok(request) => Some(request),
            Err(error) => {
                self.error.set(Some(error));
                None
            }
        }
    }
}

/// Replays a [`TraceSource`] through one scheduler on one SSD configuration,
/// streaming end to end: records are pulled lazily, validated against the
/// device's logical capacity, and admitted under the simulator's bounded
/// backpressure loop.
///
/// # Errors
///
/// [`ReplayError::InvalidConfig`] if `config` fails [`SsdConfig::validate`].
/// Under [`CapacityPolicy::Reject`], [`ReplayError::OutOfCapacity`] names the
/// first out-of-capacity record (the partial run's metrics are discarded);
/// [`CapacityPolicy::Wrap`] rejects no record.
pub fn run_source(
    config: &SsdConfig,
    kind: SchedulerKind,
    source: &mut dyn TraceSource,
    policy: CapacityPolicy,
) -> Result<RunMetrics, ReplayError> {
    run_source_detailed(config, kind, source, policy, false, None)
}

/// A device pre-conditioned into a fragmented state (Fig 17 / the GC
/// steady-state scenario): `config` and its FTL after random-LPN writes of
/// `utilization` of the physical capacity (see [`Ftl::precondition`]).  The
/// fill depends on the configuration alone, so every run on `config` can
/// start from a copy of one fill ([`run_source_detailed`]).
pub fn prefill(config: &SsdConfig, utilization: f64) -> (SsdConfig, Ftl) {
    let mut ftl = Ftl::new(
        config.geometry.clone(),
        config.allocation,
        config.gc.free_block_watermark,
    );
    ftl.precondition(utilization, 0xF17);
    (config.clone(), ftl)
}

/// Like [`run_source`] but optionally records the per-I/O latency series
/// (Fig 12) and starts the device from a copy of a [`prefill`]ed one.
///
/// # Errors
///
/// As [`run_source`]; [`ReplayError::InvalidConfig`] too when `prefilled`
/// was filled for another configuration.
pub fn run_source_detailed(
    config: &SsdConfig,
    kind: SchedulerKind,
    source: &mut dyn TraceSource,
    policy: CapacityPolicy,
    record_series: bool,
    prefilled: Option<&(SsdConfig, Ftl)>,
) -> Result<RunMetrics, ReplayError> {
    let mut ssd = Ssd::with_series(config.clone(), kind.build(), record_series)
        .map_err(ReplayError::InvalidConfig)?;
    if let Some((filled_config, ftl)) = prefilled {
        ssd.copy_ftl(filled_config, ftl)
            .map_err(ReplayError::InvalidConfig)?;
    }
    let error = Cell::new(None);
    let metrics = ssd.run_stream(RequestStream {
        source,
        page_size: config.page_size(),
        capacity_pages: config.geometry.total_pages() as u64,
        policy,
        error: &error,
    });
    match error.take() {
        Some(error) => Err(error),
        None => Ok(metrics),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinkler_sim::SimTime;
    use sprinkler_ssd::GcConfig;
    use sprinkler_workloads::{SyntheticSpec, Trace, TraceOp};

    fn record(id: u64, offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord {
            id,
            arrival: SimTime::from_micros(id * 10),
            op: TraceOp::Write,
            offset,
            bytes,
        }
    }

    #[test]
    fn in_capacity_traces_replay_identically_under_both_policies() {
        let config = SsdConfig::small_test();
        let trace = SyntheticSpec::new("ok")
            .with_footprint_mb(1)
            .generate(80, 3);
        // small_test capacity comfortably exceeds a 1 MB footprint.
        assert!(trace.footprint_bytes() <= config.geometry.capacity_bytes());
        let reject = run_source(
            &config,
            SchedulerKind::Spk3,
            &mut trace.source(),
            CapacityPolicy::Reject,
        )
        .expect("in-capacity trace must replay");
        let wrap = run_source(
            &config,
            SchedulerKind::Spk3,
            &mut trace.source(),
            CapacityPolicy::Wrap,
        )
        .unwrap();
        assert_eq!(reject, wrap);
        assert_eq!(reject.io_count, 80);
    }

    /// A run started from a copy of a [`prefill`]ed device equals, field for
    /// field, one whose device was pre-conditioned in place, under a
    /// scheduler with and without `on_readdress`; a fill for another
    /// configuration is refused.
    #[test]
    fn a_run_from_a_copied_fill_equals_one_filled_in_place() {
        let config = SsdConfig::paper_default()
            .with_chip_count(16)
            .with_blocks_per_plane(8)
            .with_gc(GcConfig::enabled());
        let trace = SyntheticSpec::new("fragmented")
            .with_read_fraction(0.3)
            .with_footprint_mb(16)
            .generate(150, 0xF17);
        assert!(trace.footprint_bytes() <= config.geometry.capacity_bytes());
        let filled = prefill(&config, 0.95);
        for kind in [SchedulerKind::Vas, SchedulerKind::Spk3] {
            let copied = run_source_detailed(
                &config,
                kind,
                &mut trace.source(),
                CapacityPolicy::Reject,
                true,
                Some(&filled),
            )
            .unwrap();
            let mut in_place = Ssd::with_series(config.clone(), kind.build(), true).unwrap();
            in_place.precondition(0.95, 0xF17);
            let requests = trace
                .iter()
                .map(|record| record_to_request(record, config.page_size()));
            assert_eq!(copied, in_place.run_stream(requests), "{kind}");
            assert!(copied.gc.invocations > 0, "{kind}: the fill must force GC");
        }
        let other = config.clone().with_chip_count(32);
        assert!(matches!(
            run_source_detailed(
                &other,
                SchedulerKind::Vas,
                &mut trace.source(),
                CapacityPolicy::Reject,
                false,
                Some(&filled),
            ),
            Err(ReplayError::InvalidConfig(SsdError::InvalidConfig(_)))
        ));
    }

    /// Locks the former spill behaviour as rejected: the seed converted
    /// out-of-capacity records into LPNs past the device's logical capacity
    /// and replayed them silently.
    #[test]
    fn out_of_capacity_records_are_rejected_not_aliased() {
        let config = SsdConfig::small_test();
        let capacity_bytes = config.geometry.capacity_bytes();
        let trace = Trace::new(
            "spill",
            vec![record(0, 0, 4096), record(1, capacity_bytes, 4096)],
        );
        let error = run_source(
            &config,
            SchedulerKind::Vas,
            &mut trace.source(),
            CapacityPolicy::Reject,
        )
        .expect_err("the spilling record must be rejected");
        let ReplayError::OutOfCapacity {
            record_id,
            capacity_pages,
            ..
        } = error
        else {
            panic!("expected a capacity rejection, got {error:?}");
        };
        assert_eq!(record_id, 1);
        assert_eq!(capacity_pages, config.geometry.total_pages() as u64);
        assert!(error.to_string().contains("logical capacity"));
    }

    /// Regression: an invalid configuration panicked inside the replay
    /// ("experiment config must be valid") although the replay returns a
    /// `Result`.
    #[test]
    fn invalid_configs_are_an_error_not_a_panic() {
        let config = SsdConfig {
            queue_depth: 0,
            ..SsdConfig::small_test()
        };
        let trace = SyntheticSpec::new("any").generate(4, 1);
        let error = run_source(
            &config,
            SchedulerKind::Spk3,
            &mut trace.source(),
            CapacityPolicy::Wrap,
        )
        .expect_err("a zero queue depth must be refused");
        assert_eq!(
            error,
            ReplayError::InvalidConfig(config.validate().unwrap_err())
        );
        assert!(error.to_string().contains("queue_depth"));
    }

    /// Locks the former spill behaviour as wrapped: under the wrap policy no
    /// replayed request maps a page at or past the logical capacity.
    #[test]
    fn wrap_policy_folds_every_record_into_capacity() {
        let config = SsdConfig::small_test();
        let capacity_pages = config.geometry.total_pages() as u64;
        let capacity_bytes = config.geometry.capacity_bytes();
        let trace = Trace::new(
            "spill",
            vec![
                record(0, 0, 4096),
                record(1, capacity_bytes - 2048, 8192),
                record(2, 3 * capacity_bytes + 4096, 2048),
                record(3, 0, 2 * capacity_bytes),
            ],
        );
        let error = Cell::new(None);
        let requests: Vec<HostRequest> = RequestStream {
            source: &mut trace.source(),
            page_size: config.page_size(),
            capacity_pages,
            policy: CapacityPolicy::Wrap,
            error: &error,
        }
        .collect();
        assert!(error.take().is_none());
        assert_eq!(requests.len(), 4);
        for request in &requests {
            assert!(
                request.start_lpn.value() + request.pages as u64 <= capacity_pages,
                "request {} still spills: lpn {} + {} pages",
                request.id,
                request.start_lpn.value(),
                request.pages
            );
        }
        // Wrapping is deterministic and offset-preserving where possible.
        assert_eq!(requests[2].start_lpn.value(), 2);
        // And the wrapped trace actually replays.
        let metrics = run_source(
            &config,
            SchedulerKind::Spk3,
            &mut trace.source(),
            CapacityPolicy::Wrap,
        )
        .unwrap();
        assert_eq!(metrics.io_count, 4);
    }

    #[test]
    fn replay_is_streaming_not_materialized() {
        let config = SsdConfig::small_test();
        let spec = SyntheticSpec::new("stream").with_footprint_mb(1);
        let metrics = run_source(
            &config,
            SchedulerKind::Spk3,
            &mut spec.stream(2_000, 9),
            CapacityPolicy::Reject,
        )
        .unwrap();
        assert_eq!(metrics.io_count, 2_000);
        // The host-side backlog stayed bounded by the device queue depth.
        assert!(
            metrics.peak_host_backlog <= config.queue_depth as u64,
            "backlog {} exceeded queue depth {}",
            metrics.peak_host_backlog,
            config.queue_depth
        );
    }
}
