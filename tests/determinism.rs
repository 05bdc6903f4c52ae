//! Determinism double-replay gate: the dynamic twin of the linter's
//! `no-wall-clock` rule.
//!
//! Two back-to-back replays of the same scenario must produce *fully equal*
//! metrics structs — every latency histogram bucket, every telemetry counter,
//! every per-device breakdown — not merely matching headline figures.  The
//! array-skew cell runs with the rebalancer on (heat tracking, migrations,
//! and concurrent device threads all engaged), which is exactly where a
//! stray wall-clock read, ambient RNG call, or thread-interleaving-dependent
//! accounting would first leak into the numbers.

use sprinkler::core::SchedulerKind;
use sprinkler::experiments::runner::{run_one, ExperimentScale};
use sprinkler::experiments::scenario::array_skew_metrics;
use sprinkler::ssd::SsdConfig;
use sprinkler::workloads::SweepSpec;

#[test]
fn array_skew_with_rebalancer_replays_identically() {
    let scale = ExperimentScale::quick();
    let first = array_skew_metrics(&scale, "hot-shard-rebalance", SchedulerKind::Spk3);
    let second = array_skew_metrics(&scale, "hot-shard-rebalance", SchedulerKind::Spk3);
    // Full struct equality, no field excepted: the merged summary with its
    // histogram, imbalance stats, placement/migration counters, per-device
    // RunMetrics (each with its own telemetry snapshot).
    assert_eq!(
        first, second,
        "adaptive array replay diverged between two identical runs"
    );
    // The gate must exercise the rebalancer, not an idle configuration.
    assert!(
        first.placement.stripes_migrated > 0,
        "the rebalance cell is expected to migrate at least one stripe"
    );
}

#[test]
fn single_device_replay_is_bit_identical() {
    let config = SsdConfig::paper_default().with_blocks_per_plane(32);
    let trace = SweepSpec::new(16).with_read_fraction(0.4).generate(300, 7);
    let first = run_one(&config, SchedulerKind::Spk3, &trace);
    let second = run_one(&config, SchedulerKind::Spk3, &trace);
    // Covers avg/percentile latencies (floats), the full latency histogram,
    // transaction-level stats, GC stats, and the telemetry snapshot.
    assert_eq!(
        first, second,
        "single-device replay diverged between two identical runs"
    );
    assert_eq!(first.io_count, 300);
}

#[test]
fn tenant_storm_replays_identically() {
    // The multi-tenant front adds three new decision streams on top of the
    // device replay — deficit round-robin turn order, token-bucket refill
    // arithmetic, and per-tenant metric attribution — so the storm cell (the
    // most contended configuration: one lane at 8x volume against a bucket)
    // gets its own double-replay gate.  Full struct equality covers the
    // per-tenant histograms and SLO counters plus the admission stats.
    use sprinkler::experiments::scenario::tenant_storm_outcome;
    let scale = ExperimentScale::quick();
    let first = tenant_storm_outcome(&scale, "storm", SchedulerKind::Spk3);
    let second = tenant_storm_outcome(&scale, "storm", SchedulerKind::Spk3);
    assert_eq!(
        first.metrics, second.metrics,
        "tenant-storm metrics diverged between two identical runs"
    );
    assert_eq!(
        first.admission, second.admission,
        "tenant-storm admission stats diverged between two identical runs"
    );
    // The gate must exercise the contended paths, not an idle front.
    assert!(first.admission.iter().any(|lane| lane.throttles > 0));
    assert!(first.admission.iter().any(|lane| lane.deferrals > 0));
}
