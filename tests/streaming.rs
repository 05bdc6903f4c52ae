//! Integration coverage for the streaming trace-ingestion path: the bounded
//! admission loop, its equivalence with eager (fully materialized) replay, and
//! the capacity validation at the `TraceSource` → SSD boundary.

use sprinkler::core::SchedulerKind;
use sprinkler::experiments::runner::ExperimentScale;
use sprinkler::experiments::{run_source, to_host_requests, CapacityPolicy};
use sprinkler::ssd::{GcConfig, Ssd, SsdConfig};
use sprinkler::workloads::{workload, SyntheticSpec};

/// The full streaming pipeline (lazy generator → `TraceSource` → capacity
/// boundary → `run_stream`) must be metric-identical to the materialized
/// pipeline (eager generation → `to_host_requests` → `Ssd::run`) for every
/// scheduler, including under saturating bursts that force admission
/// backpressure.  (The substrate-level proof that `run_stream`'s deferral
/// matches the seed's pre-scheduled eager event loop is
/// `bounded_streaming_matches_the_eager_reference_loop` in
/// `crates/ssd/src/ssd.rs`, which diffs against that loop directly.)
#[test]
fn streaming_replay_matches_materialized_replay_for_every_scheduler() {
    let config = SsdConfig::small_test();
    // Bursty and saturating: the 8-deep small_test queue is constantly full.
    let spec = SyntheticSpec::new("equiv")
        .with_footprint_mb(1)
        .with_bursts(16, 40.0);
    let trace = spec.generate(400, 23);
    for kind in SchedulerKind::ALL {
        // Materialized: convert the whole trace, hand the Vec to `run`.
        let requests = to_host_requests(&trace, config.page_size());
        let eager = Ssd::new(config.clone(), kind.build())
            .unwrap()
            .run(requests);
        // Streaming: the lazily generated twin through the replay boundary.
        let streamed = run_source(
            &config,
            kind,
            &mut spec.stream(400, 23),
            CapacityPolicy::Reject,
        )
        .unwrap();
        assert_eq!(
            eager, streamed,
            "{kind}: streaming replay diverged from materialized replay"
        );
    }
}

/// Preconditioned + GC-enabled runs stream identically too (GC readdressing is
/// the one path that mutates scheduler-visible state outside a scheduling
/// round).
#[test]
fn streaming_replay_matches_eager_replay_under_gc() {
    let config = SsdConfig::small_test()
        .with_blocks_per_plane(4)
        .with_gc(GcConfig::enabled());
    let spec = SyntheticSpec::new("gc-equiv")
        .with_read_fraction(0.2)
        .with_footprint_mb(1)
        .with_bursts(8, 60.0);
    let trace = spec.generate(300, 5);
    for kind in [SchedulerKind::Vas, SchedulerKind::Spk3] {
        let eager = Ssd::new(config.clone(), kind.build())
            .unwrap()
            .run(to_host_requests(&trace, config.page_size()));
        let streamed = run_source(
            &config,
            kind,
            &mut spec.stream(300, 5),
            CapacityPolicy::Reject,
        )
        .unwrap();
        assert_eq!(eager.io_count, streamed.io_count);
        assert_eq!(eager.gc.invocations, streamed.gc.invocations);
        assert_eq!(eager.avg_latency_ns, streamed.avg_latency_ns, "{kind}");
    }
}

/// The headline property of the tentpole: replay memory is bounded by the
/// queue depth, not the trace length.  A 20k-I/O saturating burst through an
/// 8-deep queue keeps the host-side backlog at ≤ 8 buffered requests and the
/// event queue bounded by in-flight work (the seed pre-scheduled one arrival
/// event per trace record — 20k pending events up front).
#[test]
fn backlog_stays_bounded_by_queue_depth_across_20k_ios() {
    let config = SsdConfig::small_test();
    let depth = config.queue_depth as u64;
    let metrics = run_source(
        &config,
        SchedulerKind::Spk3,
        &mut SyntheticSpec::new("bounded")
            .with_footprint_mb(1)
            .with_bursts(32, 10.0)
            .stream(20_000, 11),
        CapacityPolicy::Reject,
    )
    .unwrap();
    assert_eq!(metrics.io_count, 20_000);
    assert!(
        metrics.peak_host_backlog <= depth,
        "host backlog {} exceeded queue depth {depth}",
        metrics.peak_host_backlog
    );
    assert!(
        metrics.peak_pending_events < 20_000 / 4,
        "event queue grew with the trace: {} pending events",
        metrics.peak_pending_events
    );
}

/// The ≥1M-I/O streaming demonstration, the streaming subsystem's acceptance
/// test: a million-request enterprise replay completes with queue-side memory
/// bounded by the queue depth.  Ignored in everyday `cargo test` for time; CI
/// runs it in release mode (`--ignored`), and perfbench times the same
/// `run_stream` path end to end.
#[test]
#[ignore = "multi-minute in debug builds; CI runs it in release via --ignored"]
fn million_io_streaming_replay_is_bounded() {
    let scale = ExperimentScale::quick();
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    let ios = 1_000_000;
    let mut stream = workload("msnfs1")
        .expect("msnfs1 is a Table 1 workload")
        .stream(ios, 0x1A6E);
    let metrics = run_source(
        &config,
        SchedulerKind::Spk3,
        &mut stream,
        CapacityPolicy::Reject,
    )
    .unwrap();
    assert_eq!(metrics.io_count, ios);
    assert!(
        metrics.peak_host_backlog <= config.queue_depth as u64,
        "host backlog {} exceeded queue depth {}",
        metrics.peak_host_backlog,
        config.queue_depth
    );
    assert!(
        metrics.peak_pending_events < 10_000,
        "event queue must track in-flight work, not trace length: {}",
        metrics.peak_pending_events
    );
}

/// Capacity validation at the boundary: a workload bigger than the device is
/// rejected under `Reject` and folded under `Wrap` — never silently aliased
/// (the seed's behaviour).
#[test]
fn oversized_workloads_are_rejected_or_wrapped_at_the_boundary() {
    // 16 chips at 8 blocks/plane: a 256 MiB device; the workload spans 1 GiB.
    let config = SsdConfig::paper_default()
        .with_chip_count(16)
        .with_blocks_per_plane(8);
    let capacity_pages = config.geometry.total_pages() as u64;
    let spec = SyntheticSpec::new("oversized").with_footprint_mb(1024);
    assert!(
        1024 * 1024 * 1024 > config.geometry.capacity_bytes(),
        "the fixture workload must exceed the device"
    );

    let error = run_source(
        &config,
        SchedulerKind::Spk3,
        &mut spec.stream(500, 3),
        CapacityPolicy::Reject,
    )
    .expect_err("a trace bigger than the device must be rejected");
    assert_eq!(error.capacity_pages, capacity_pages);
    assert!(error.first_lpn + error.pages as u64 > capacity_pages);

    let metrics = run_source(
        &config,
        SchedulerKind::Spk3,
        &mut spec.stream(500, 3),
        CapacityPolicy::Wrap,
    )
    .expect("wrapping folds every record into capacity");
    assert_eq!(metrics.io_count, 500);
}
