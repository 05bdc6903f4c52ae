//! Multi-SSD array frontend: stripes one workload across an array of
//! independent Sprinkler devices and compares how scheduler choice composes
//! with host-level sharding.
//!
//! Drives `sprinkler::array` directly: a fixed 64-chip budget is partitioned
//! into 1, 4, or 16 devices, the same 256 KB-transfer workload is striped over
//! each array shape, and the merged metrics show whether the frontend converts
//! added devices into aggregate bandwidth.  A second panel shows hot-shard
//! imbalance: clustered offsets against coarse stripes pin bursts to one
//! device at a time.  A third panel turns the adaptive rebalancer on against
//! the scenario registry's standing hot shard and shows the placement layer
//! clawing the lost bandwidth back.
//!
//! Run with `cargo run --example array_frontend --release`.

use sprinkler::array::{run_array, ArrayConfig};
use sprinkler::core::SchedulerKind;
use sprinkler::experiments::runner::ExperimentScale;
use sprinkler::experiments::scenario;
use sprinkler::ssd::SsdConfig;
use sprinkler::workloads::{Locality, SweepSpec, SyntheticSpec};

fn main() {
    println!("Array scale-out: 64 chips, repartitioned into n devices, one striped workload\n");
    println!(
        "{:<6} {:>6} {:>14} {:>14} {:>12} {:>10}",
        "width", "chips", "VAS KB/s", "SPK3 KB/s", "SPK3/VAS", "io skew"
    );
    for devices in [1usize, 4, 16] {
        let config = ArrayConfig::new(
            SsdConfig::paper_default()
                .with_blocks_per_plane(32)
                .with_chip_count(64 / devices),
        )
        .with_devices(devices)
        .with_stripe_kb(32);
        let spec = SweepSpec::new(256)
            .with_read_fraction(0.8)
            .with_footprint_mb(512)
            .with_bursts(16, 50.0);
        let run = |kind| {
            run_array(&config, kind, &mut spec.stream(300, 0xA44A))
                .expect("the workload fits the array")
        };
        let vas = run(SchedulerKind::Vas);
        let spk3 = run(SchedulerKind::Spk3);
        println!(
            "n={:<4} {:>6} {:>14.0} {:>14.0} {:>11.2}x {:>10.2}",
            devices,
            64 / devices,
            vas.summary.bandwidth_kb_per_sec,
            spk3.summary.bandwidth_kb_per_sec,
            spk3.summary.bandwidth_kb_per_sec / vas.summary.bandwidth_kb_per_sec,
            spk3.skew.io_imbalance,
        );
    }

    println!("\nHot-shard imbalance: 4 devices, 4 MB stripes, clustered vs uniform offsets\n");
    for (label, locality, randomness, footprint_mb) in [
        ("uniform", Locality::Low, 1.0, 256),
        ("hot-shard", Locality::High, 0.2, 24),
    ] {
        let config = ArrayConfig::new(
            SsdConfig::paper_default()
                .with_blocks_per_plane(32)
                .with_chip_count(16),
        )
        .with_devices(4)
        .with_stripe_kb(4096);
        let spec = SyntheticSpec::new(label)
            .with_read_fraction(0.7)
            .with_mean_sizes_kb(16.0, 16.0)
            .with_locality(locality)
            .with_randomness(randomness, randomness)
            .with_footprint_mb(footprint_mb)
            .with_bursts(16, 60.0);
        let metrics = run_array(&config, SchedulerKind::Spk3, &mut spec.stream(300, 0x5E))
            .expect("the workload fits the array");
        let ios: Vec<u64> = metrics.devices.iter().map(|d| d.io_count).collect();
        println!(
            "{label:<10} bw {:>10.0} KB/s  io imbalance {:.2}  per-device I/Os {ios:?}",
            metrics.summary.bandwidth_kb_per_sec, metrics.skew.io_imbalance,
        );
    }
    println!("\nStriping spreads uniform load evenly; clustered offsets leave shards cold.");

    println!("\nAdaptive placement: the standing hot shard, static vs rebalanced (SPK3)\n");
    let scale = ExperimentScale::quick();
    for label in ["uniform", "hot-shard", "hot-shard-rebalance"] {
        let metrics = scenario::array_skew_figure_metrics(&scale, label, SchedulerKind::Spk3);
        println!(
            "{label:<20} bw {:>10.0} KB/s  io imbalance {:.2}  stripes migrated {}",
            metrics.summary.bandwidth_kb_per_sec,
            metrics.skew.io_imbalance,
            metrics.placement.stripes_migrated,
        );
    }
    println!("\nThe rebalancer moves hot stripes off the overloaded device between replay");
    println!("windows, paying for each copy with injected read+write traffic.");
}
