//! One-call replay of a [`TenantMux`] through a single SSD.
//!
//! This is the tenant-aware twin of the experiments crate's `run_source`: it
//! registers one metrics lane per tenant, rewrites each admitted record into a
//! tenant-tagged [`HostRequest`], and replays through [`Ssd::run_stream`]'s
//! bounded-admission loop.  The returned [`TenantOutcome`] pairs the device
//! [`RunMetrics`] (now carrying `tenants` lanes) with the mux's admission-side
//! statistics.

use sprinkler_core::SchedulerKind;
use sprinkler_flash::Lpn;
use sprinkler_ssd::request::{Direction, HostRequest};
use sprinkler_ssd::{RunMetrics, Ssd, SsdConfig};
use sprinkler_workloads::TraceSource;

use crate::mux::{jain_fairness_index, TenantAdmissionStats, TenantMux};

/// The result of a multi-tenant replay: device metrics with per-tenant lanes,
/// plus the admission front's own per-tenant statistics.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Device-level run metrics; [`RunMetrics::tenants`] holds one lane per
    /// tenant, in mux lane order.
    pub metrics: RunMetrics,
    /// Admission statistics per tenant, in the same order.
    pub admission: Vec<TenantAdmissionStats>,
}

impl TenantOutcome {
    /// Each tenant's admitted bytes divided by its fair-share weight.  Under a
    /// backlogged workload, deficit round-robin drives these toward equality.
    pub fn weighted_byte_shares(&self) -> Vec<f64> {
        self.admission
            .iter()
            .map(|stats| stats.bytes as f64 / stats.weight.max(1) as f64)
            .collect()
    }

    /// Jain's fairness index over the weighted byte shares (1.0 = the byte
    /// split exactly matches the configured weights).
    pub fn fairness_index(&self) -> f64 {
        jain_fairness_index(&self.weighted_byte_shares())
    }
}

/// Replays a tenant mux through one scheduler on one SSD configuration.
///
/// # Errors
///
/// Returns a message when the mux's footprint exceeds the device's logical
/// capacity or the configuration fails validation — the multi-tenant front
/// requires tenant slices to be provisioned within capacity up front rather
/// than wrapped at replay time.
pub fn run_tenants(
    config: &SsdConfig,
    kind: SchedulerKind,
    mut mux: TenantMux<'_>,
) -> Result<TenantOutcome, String> {
    let capacity_bytes = config.geometry.capacity_bytes();
    if mux.footprint_bytes() > capacity_bytes {
        return Err(format!(
            "tenant footprint bound {} exceeds device logical capacity {}",
            mux.footprint_bytes(),
            capacity_bytes
        ));
    }
    let mut ssd = Ssd::new(config.clone(), kind.build()).map_err(|e| e.to_string())?;
    let lane_specs: Vec<_> = mux.specs().iter().map(|spec| spec.lane_spec()).collect();
    ssd.configure_tenants(&lane_specs);
    let page_size = config.page_size();
    let metrics = {
        let mux = &mut mux;
        ssd.run_stream(std::iter::from_fn(move || {
            let tagged = mux.next_tagged()?;
            let (lpn, pages) = tagged.record.pages(page_size);
            let direction = if tagged.record.op.is_read() {
                Direction::Read
            } else {
                Direction::Write
            };
            Some(
                HostRequest::new(
                    tagged.record.id,
                    tagged.record.arrival,
                    direction,
                    Lpn::new(lpn),
                    pages,
                )
                .with_tenant(tagged.tenant, tagged.submitted),
            )
        }))
    };
    Ok(TenantOutcome {
        metrics,
        admission: mux.admission_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PriorityClass, TenantSpec, TokenBucketConfig};
    use sprinkler_workloads::{FootprintSlice, SlicedSource, SyntheticSpec};

    fn mux_for(config: &SsdConfig, counts: [u64; 2]) -> TenantMux<'static> {
        let slices = FootprintSlice::split_even(config.geometry.capacity_bytes(), 2, 4096);
        let mk = |i: usize, count: u64, seed: u64| {
            let spec = SyntheticSpec::new("t")
                .with_footprint_mb((slices[i].len / (1024 * 1024)).max(1))
                .with_mean_sizes_kb(8.0, 8.0);
            Box::new(SlicedSource::new(spec.stream(count, seed), slices[i])) as Box<dyn TraceSource>
        };
        TenantMux::new(vec![
            (
                TenantSpec::new("front", PriorityClass::Interactive)
                    .with_slo_latency_ns(50_000_000),
                mk(0, counts[0], 21),
            ),
            (
                TenantSpec::new("back", PriorityClass::Batch)
                    .with_bucket(TokenBucketConfig::new(64 * 1024 * 1024, 1 << 20)),
                mk(1, counts[1], 22),
            ),
        ])
    }

    #[test]
    fn run_attributes_every_io_to_a_tenant_lane() {
        let config = SsdConfig::small_test();
        let outcome =
            run_tenants(&config, SchedulerKind::Spk3, mux_for(&config, [150, 150])).unwrap();
        assert_eq!(outcome.metrics.io_count, 300);
        assert_eq!(outcome.metrics.tenants.len(), 2);
        let lane_total: u64 = outcome.metrics.tenants.iter().map(|t| t.io_count).sum();
        assert_eq!(
            lane_total, 300,
            "every completion lands in exactly one lane"
        );
        assert_eq!(outcome.metrics.tenants[0].name, "front");
        assert!(outcome.metrics.tenants[0].p99_latency_ns > 0);
        let admitted: u64 = outcome.admission.iter().map(|s| s.admitted).sum();
        assert_eq!(admitted, 300, "the mux admitted every record once");
        let fairness = outcome.fairness_index();
        assert!((0.0..=1.0).contains(&fairness));
    }

    #[test]
    fn per_tenant_latency_includes_admission_queueing() {
        let config = SsdConfig::small_test();
        let outcome =
            run_tenants(&config, SchedulerKind::Vas, mux_for(&config, [100, 100])).unwrap();
        for lane in &outcome.metrics.tenants {
            assert!(lane.io_count > 0);
            assert!(lane.avg_latency_ns > 0.0);
            assert!(lane.max_latency_ns as f64 >= lane.avg_latency_ns);
        }
        // Device-level mean measures from (post-admission) arrival, so the
        // submission-measured tenant means can only be larger or equal.
        let weighted: f64 = outcome
            .metrics
            .tenants
            .iter()
            .map(|t| t.avg_latency_ns * t.io_count as f64)
            .sum::<f64>()
            / outcome.metrics.io_count as f64;
        assert!(weighted + 1e-6 >= outcome.metrics.avg_latency_ns);
    }

    #[test]
    fn oversized_footprint_is_rejected() {
        let config = SsdConfig::small_test();
        let big = SyntheticSpec::new("big")
            .with_footprint_mb(1 << 20)
            .stream(1, 0);
        let mux = TenantMux::new(vec![(
            TenantSpec::new("big", PriorityClass::Batch),
            Box::new(big) as Box<dyn TraceSource>,
        )]);
        let err = run_tenants(&config, SchedulerKind::Vas, mux).unwrap_err();
        assert!(err.contains("capacity"));
    }
}
