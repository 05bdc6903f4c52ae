//! Integration coverage for the multi-tenant serving front through the facade.
//!
//! The load-bearing guarantees: every completed I/O is attributed to exactly
//! one tenant lane, per-tenant latency is measured from *submission* (so
//! fair-share queueing counts against the tenant's SLO), the token bucket
//! actually throttles a lane that exceeds its contract, and the admission
//! stats and lane metrics tell the same story.

use sprinkler::core::SchedulerKind;
use sprinkler::ssd::SsdConfig;
use sprinkler::tenants::{run_tenants, PriorityClass, TenantMux, TenantSpec, TokenBucketConfig};
use sprinkler::workloads::{FootprintSlice, SlicedSource, SyntheticSpec, TraceSource};

fn device_config() -> SsdConfig {
    SsdConfig::paper_default().with_blocks_per_plane(16)
}

/// Builds `n` equally provisioned tenants over disjoint slices of the device.
fn tenants(
    config: &SsdConfig,
    specs: Vec<TenantSpec>,
    count: u64,
) -> Vec<(TenantSpec, Box<dyn TraceSource>)> {
    let slices = FootprintSlice::split_even(
        config.geometry.capacity_bytes(),
        specs.len(),
        config.page_size() as u64,
    );
    specs
        .into_iter()
        .zip(slices)
        .enumerate()
        .map(|(i, (spec, slice))| {
            let workload = SyntheticSpec::new("lane")
                .with_read_fraction(0.6)
                .with_mean_sizes_kb(16.0, 16.0)
                .with_footprint_mb((slice.len / (1024 * 1024)).clamp(1, 32))
                .stream(count, 0xBEEF + i as u64);
            let boxed: Box<dyn TraceSource> = Box::new(SlicedSource::new(workload, slice));
            (spec, boxed)
        })
        .collect()
}

#[test]
fn every_io_lands_in_exactly_one_lane_and_the_books_agree() {
    let config = device_config();
    let mux = TenantMux::new(tenants(
        &config,
        vec![
            TenantSpec::new("web", PriorityClass::Interactive),
            TenantSpec::new("video", PriorityClass::Streaming),
            TenantSpec::new("etl", PriorityClass::Batch),
        ],
        100,
    ));
    let outcome = run_tenants(&config, SchedulerKind::Spk3, mux).expect("run succeeds");

    // Lane attribution partitions the run: per-tenant counts and bytes sum to
    // the device totals.
    assert_eq!(outcome.metrics.tenants.len(), 3);
    let ios: u64 = outcome.metrics.tenants.iter().map(|t| t.io_count).sum();
    assert_eq!(ios, outcome.metrics.io_count);
    let bytes: u64 = outcome
        .metrics
        .tenants
        .iter()
        .map(|t| t.total_bytes())
        .sum();
    assert_eq!(
        bytes,
        outcome.metrics.bytes_read + outcome.metrics.bytes_written
    );

    // The admission stats and the lane metrics agree lane by lane.
    assert_eq!(outcome.admission.len(), 3);
    for (stats, lane) in outcome.admission.iter().zip(&outcome.metrics.tenants) {
        assert_eq!(stats.name, lane.name);
        assert_eq!(stats.admitted, lane.io_count, "lane {}", lane.name);
        // Admission counts raw trace bytes; the lane counts the page-rounded
        // transfer the device actually performed.
        assert!(stats.bytes <= lane.total_bytes(), "lane {}", lane.name);
    }

    // And the front admitted exactly the I/Os the device completed.
    let admitted: u64 = outcome.admission.iter().map(|s| s.admitted).sum();
    assert_eq!(admitted, ios);
}

#[test]
fn per_tenant_latency_charges_admission_queueing_to_the_tenant() {
    let config = device_config();
    // An SLO of 1 ns is unmeetable: every completion must count as a
    // violation, proving the violation counter sees real latencies.
    let mux = TenantMux::new(tenants(
        &config,
        vec![
            TenantSpec::new("strict", PriorityClass::Interactive).with_slo_latency_ns(1),
            TenantSpec::new("lax", PriorityClass::Batch).with_slo_latency_ns(u64::MAX),
        ],
        80,
    ));
    let outcome = run_tenants(&config, SchedulerKind::Spk3, mux).expect("run succeeds");
    let lane = |name: &str| {
        outcome
            .metrics
            .tenants
            .iter()
            .find(|t| t.name == name)
            .expect("lane exists")
    };
    assert_eq!(lane("strict").slo_violations, lane("strict").io_count);
    assert_eq!(lane("lax").slo_violations, 0);
    // Submission-measured latency can only exceed the device-side figure.
    for tenant in &outcome.metrics.tenants {
        assert!(tenant.p99_latency_ns > 0, "lane {}", tenant.name);
        assert!(
            tenant.max_latency_ns as f64 >= tenant.avg_latency_ns,
            "lane {}",
            tenant.name
        );
    }
}

#[test]
fn token_bucket_throttles_the_lane_that_exceeds_its_contract() {
    let config = device_config();
    // 1 MB/s against a greedy 16KB-mean workload: the bucket must engage.
    let throttled = TenantSpec::new("capped", PriorityClass::Batch)
        .with_bucket(TokenBucketConfig::new(1024 * 1024, 64 * 1024));
    let free = TenantSpec::new("free", PriorityClass::Batch);
    let mux = TenantMux::new(tenants(&config, vec![throttled, free], 60));
    let outcome = run_tenants(&config, SchedulerKind::Spk3, mux).expect("run succeeds");
    let stats = |name: &str| {
        outcome
            .admission
            .iter()
            .find(|s| s.name == name)
            .expect("stats exist")
    };
    assert!(
        stats("capped").throttles > 0,
        "the bucket never engaged: {:?}",
        stats("capped")
    );
    assert_eq!(stats("free").throttles, 0);
    // Both lanes still complete all their work — throttling delays, never drops.
    assert_eq!(stats("capped").admitted + stats("free").admitted, 120);
}

#[test]
fn runs_without_tenancy_report_no_tenant_lanes() {
    // The single-tenant (anonymous) path must stay byte-identical to the
    // pre-tenancy world: no lanes.
    let config = device_config();
    let trace = SyntheticSpec::new("solo").generate(50, 11);
    let requests = sprinkler::experiments::to_host_requests(&trace, config.page_size());
    let ssd = sprinkler::ssd::Ssd::new(config, SchedulerKind::Spk3.build()).expect("valid config");
    let metrics = ssd.run(requests);
    assert!(metrics.tenants.is_empty());
}
