//! Integration coverage for the multi-SSD array frontend through the facade.
//!
//! The load-bearing guarantee: a 1-device array is not "approximately" a bare
//! SSD — it is *metric-for-metric identical* to `Ssd::run_stream` over the
//! same trace, for every scheduler.  The striping map's single-device case is
//! the identity, the splitter renumbers fragments to the original dense ids,
//! and the metrics merge copies (not recomputes) the single device's derived
//! figures, so the entire `RunMetrics` struct — counts, bytes, latencies,
//! histogram buckets, FLP and execution breakdowns — must compare equal.

use sprinkler::array::{run_array, ArrayConfig};
use sprinkler::core::SchedulerKind;
use sprinkler::experiments::{run_source, CapacityPolicy};
use sprinkler::ssd::{merged_latency_quantile, SsdConfig};
use sprinkler::workloads::SyntheticSpec;

fn device_config() -> SsdConfig {
    SsdConfig::paper_default().with_blocks_per_plane(16)
}

/// A workload that exercises reads, writes, bursts, and multi-stripe
/// transfers, small enough that all five schedulers replay in test time.
fn workload() -> SyntheticSpec {
    SyntheticSpec::new("identity")
        .with_read_fraction(0.6)
        .with_mean_sizes_kb(48.0, 48.0)
        .with_footprint_mb(64)
        .with_bursts(8, 100.0)
}

#[test]
fn one_device_array_is_metric_for_metric_identical_for_all_schedulers() {
    let config = ArrayConfig::new(device_config()).with_stripe_kb(64);
    let trace = workload().generate(150, 0x1D);
    assert!(
        trace.footprint_bytes() <= config.logical_capacity_bytes(),
        "the identity workload must fit the single-device array"
    );
    for kind in SchedulerKind::ALL {
        let bare = run_source(
            config.device(0),
            kind,
            &mut trace.source(),
            CapacityPolicy::Reject,
        )
        .expect("the workload fits the bare device");
        let array = run_array(&config, kind, &mut trace.source())
            .expect("the workload fits the 1-device array");

        // The device-level metrics are the *same struct*, field for field —
        // including latency histogram buckets and breakdowns.
        assert_eq!(array.devices.len(), 1);
        assert_eq!(
            array.devices[0], bare,
            "{kind}: 1-device array diverged from the bare run"
        );

        // And the merged aggregates are bit-identical copies, not recomputed
        // approximations.
        let summary = &array.summary;
        assert_eq!(summary.io_count, bare.io_count, "{kind}");
        assert_eq!(summary.read_ios, bare.read_ios, "{kind}");
        assert_eq!(summary.write_ios, bare.write_ios, "{kind}");
        assert_eq!(summary.bytes_read, bare.bytes_read, "{kind}");
        assert_eq!(summary.bytes_written, bare.bytes_written, "{kind}");
        assert_eq!(summary.elapsed_ns, bare.elapsed_ns, "{kind}");
        assert_eq!(
            summary.bandwidth_kb_per_sec, bare.bandwidth_kb_per_sec,
            "{kind}"
        );
        assert_eq!(summary.iops, bare.iops, "{kind}");
        assert_eq!(summary.avg_latency_ns, bare.avg_latency_ns, "{kind}");
        assert_eq!(summary.p99_latency_ns, bare.p99_latency_ns, "{kind}");
        assert_eq!(summary.max_latency_ns, bare.max_latency_ns, "{kind}");
        assert_eq!(summary.queue_stall_ns, bare.queue_stall_ns, "{kind}");
    }
}

/// Regression for the silently-dropped latency histogram: flattening an array
/// replay into a summary `RunMetrics` must carry the elementwise-summed
/// per-device bucket counts, so feeding the summary back through
/// `merged_latency_quantile` reproduces the exact p99 the array reported.
/// Before the fix the summary's `..RunMetrics::default()` zeroed the buckets
/// and the round-tripped quantile collapsed to 0 for every scheduler.
#[test]
fn array_summary_round_trips_its_latency_histogram_for_all_schedulers() {
    let config = ArrayConfig::new(device_config())
        .with_stripe_kb(64)
        .with_devices(4);
    let trace = workload().generate(150, 0x42);
    for kind in SchedulerKind::ALL {
        let array = run_array(&config, kind, &mut trace.source())
            .expect("the workload fits the 4-device array");
        let summary = &array.summary;
        assert!(summary.p99_latency_ns > 0, "{kind}: no latency samples");
        assert_eq!(
            summary.latency_buckets.iter().sum::<u64>(),
            summary.io_count,
            "{kind}: the summary histogram must hold every device sample"
        );
        assert_eq!(
            merged_latency_quantile([summary], 0.99),
            summary.p99_latency_ns,
            "{kind}: summary did not round-trip to the array's p99"
        );
        assert_eq!(
            summary.p99_latency_ns,
            merged_latency_quantile(array.devices.iter(), 0.99),
            "{kind}: the array's p99 is the exact merge of its devices'"
        );
        // The always-on telemetry rides along: the summed device counters
        // appear in the summary, and a real replay schedules at least once.
        assert!(
            summary.telemetry.sched_rounds > 0,
            "{kind}: device telemetry was dropped by the summary"
        );
        assert_eq!(
            summary.telemetry.sched_rounds,
            array
                .devices
                .iter()
                .map(|d| d.telemetry.sched_rounds)
                .sum::<u64>(),
            "{kind}"
        );
    }
}

/// Tracking stripes changes nothing until a stripe moves: a width-4 replay
/// whose `PlacementMap` tracks no stripe (`rebalance: None`, every lookup in
/// closed form) must stay *metric-for-metric identical* — full `RunMetrics`
/// equality per device, histogram buckets included — to the same replay
/// whose map tracks the footprint's stripes for a rebalancer that may never
/// act.  The test pins the whole struct, so any divergence between the
/// tracked and closed-form lookups (id renumbering, arrival order, heat side
/// effects) fails loudly for every scheduler.
#[test]
fn rebalancer_off_replay_is_identical_to_static_striping_for_all_schedulers() {
    let static_config = ArrayConfig::new(device_config())
        .with_stripe_kb(64)
        .with_devices(4);
    assert!(static_config.rebalance.is_none(), "default must be static");
    // The same array with its footprint's stripes tracked, under a
    // rebalancer that can never act (zero migration budget).
    let inert_config = static_config
        .clone()
        .with_rebalance(sprinkler::array::RebalanceConfig {
            max_total_migrations: 0,
            ..Default::default()
        });
    let trace = workload().generate(150, 0x8A);
    for kind in SchedulerKind::ALL {
        let stat = run_array(&static_config, kind, &mut trace.source()).unwrap();
        let inert = run_array(&inert_config, kind, &mut trace.source()).unwrap();
        assert_eq!(
            stat.devices, inert.devices,
            "{kind}: an inert rebalancer diverged from static striping"
        );
        assert_eq!(stat.skew, inert.skew, "{kind}");
        assert_eq!(stat.placement.stripes_migrated, 0, "{kind}");
        assert_eq!(inert.placement.stripes_migrated, 0, "{kind}");
        // The summaries agree too.
        assert_eq!(stat.summary, inert.summary, "{kind}");
    }
}

/// With migrations allowed, the rebalancer's activity is visible end to end:
/// its counters surface in the `ArrayMetrics`, and the placement genuinely
/// moved stripes off the hot device.
#[test]
fn rebalancer_on_migrates_and_surfaces_telemetry() {
    let config = ArrayConfig::new(device_config())
        .with_stripe_kb(64)
        .with_devices(4)
        .with_rebalance(sprinkler::array::RebalanceConfig {
            window_records: 16,
            trigger_ratio: 1.1,
            ..Default::default()
        });
    // Hammer stripes 0 and 4 — both dealt to device 0 — so round-robin
    // cannot spread the heat but the placement layer can.
    use sprinkler::sim::SimTime;
    use sprinkler::workloads::{Trace, TraceOp, TraceRecord};
    let stripe = config.stripe_bytes;
    let records: Vec<TraceRecord> = (0..400u64)
        .map(|i| TraceRecord {
            id: i,
            arrival: SimTime::from_micros(i * 20),
            op: if i % 3 == 0 {
                TraceOp::Write
            } else {
                TraceOp::Read
            },
            // 80% of I/Os on stripes {0, 4} (both device 0), rest spread.
            offset: match i % 10 {
                0..=3 => 0,
                4..=7 => 4 * stripe,
                8 => stripe,
                _ => 2 * stripe,
            } + (i % 4) * 4096,
            bytes: 16 * 1024,
        })
        .collect();
    let trace = Trace::new("hot", records);
    let metrics = run_array(&config, SchedulerKind::Spk3, &mut trace.source()).unwrap();
    let placement = metrics.placement;
    assert!(
        placement.stripes_migrated > 0,
        "a clustered workload must trigger migration"
    );
    assert_eq!(
        placement.migration_bytes,
        placement.stripes_migrated * config.stripe_bytes
    );
    assert!(placement.heat_decays > 0);
}

/// Widening the array changes the partitioning, not the work: page-rounded
/// byte totals and read/write splits are preserved for every scheduler at
/// width 4.
#[test]
fn striped_replay_preserves_work_for_all_schedulers() {
    let trace = workload().generate(120, 0x77);
    let one = ArrayConfig::new(device_config()).with_stripe_kb(64);
    let four = one.clone().with_devices(4);
    for kind in SchedulerKind::ALL {
        let narrow = run_array(&one, kind, &mut trace.source()).unwrap().summary;
        let wide = run_array(&four, kind, &mut trace.source()).unwrap().summary;
        assert_eq!(
            narrow.bytes_read + narrow.bytes_written,
            wide.bytes_read + wide.bytes_written,
            "{kind}: page-rounded byte totals must survive striping"
        );
        assert_eq!(narrow.read_ios > 0, wide.read_ios > 0, "{kind}");
        assert!(wide.io_count >= narrow.io_count, "{kind}: splits only add");
        assert!(wide.bandwidth_kb_per_sec > 0.0, "{kind}");
    }
}

#[test]
fn tenant_mux_composes_with_striping() {
    // Tenancy composes with the array frontend: the fair-share mux is itself
    // a `TraceSource`, so its admission-ordered stream stripes across devices
    // like any other trace.  (Per-tenant attribution is a single-device
    // feature — the array path keeps the admission ordering and isolation but
    // reports merged device metrics; see ARCHITECTURE.md.)
    use sprinkler::tenants::{PriorityClass, TenantMux, TenantSpec};
    use sprinkler::workloads::{FootprintSlice, SlicedSource, TraceSource};

    let config = ArrayConfig::new(device_config())
        .with_devices(2)
        .with_stripe_kb(64);
    let slices = FootprintSlice::split_even(config.logical_capacity_bytes(), 2, 4096);
    let lanes = slices
        .into_iter()
        .enumerate()
        .map(|(i, slice)| {
            let workload = SyntheticSpec::new("lane")
                .with_read_fraction(0.5)
                .with_mean_sizes_kb(32.0, 32.0)
                .with_footprint_mb((slice.len / (1024 * 1024)).clamp(1, 32))
                .stream(60, 0xA11 + i as u64);
            let source: Box<dyn TraceSource> = Box::new(SlicedSource::new(workload, slice));
            (
                TenantSpec::new(format!("t{i}"), PriorityClass::Interactive),
                source,
            )
        })
        .collect();
    let mut mux = TenantMux::new(lanes);
    let metrics = run_array(&config, SchedulerKind::Spk3, &mut mux).expect("array run succeeds");
    // Transfers that cross a stripe boundary split into per-device fragments,
    // so the merged count is at least the 120 admitted records.
    assert!(
        metrics.summary.io_count >= 120,
        "records went missing: {}",
        metrics.summary.io_count
    );
    assert!(metrics.summary.bandwidth_kb_per_sec > 0.0);
    // Both devices saw work: the two tenant slices land on different halves
    // of the striped address space.
    assert!(metrics.devices.iter().all(|d| d.io_count > 0));
}
