//! The named-scenario registry.
//!
//! The figure modules reproduce the paper's published panels; the registry
//! covers the *operational* situations a production many-chip SSD must handle,
//! each as a named, deterministic, scale-aware experiment that fans out over
//! [`run_cells`]:
//!
//! | scenario            | what it exercises |
//! |---------------------|-------------------|
//! | `enterprise-replay` | parsed text traces (the embedded MSR + blkparse corpora) and a streamed Table 1 workload, replayed through the capacity-validating boundary |
//! | `gc-steady-state`   | a pre-conditioned, fragmented SSD under sustained overwrites with garbage collection on |
//! | `queue-depth-sweep` | the same bursty workload across device queue depths 8→64 |
//! | `mixed-burst`       | half-read/half-write bursts at high and low transactional locality |
//! | `array-scaleout`    | the multi-SSD frontend: one trace striped over 1→16 devices at a fixed 64-chip budget and fixed footprint (the array analogue of the fig15 sweep) |
//! | `array-skew`        | hot-shard imbalance: clustered offsets against coarse stripes vs a uniform workload on a 4-device array, plus the same hot shard with the adaptive rebalancer on — the regression the placement layer must win |
//! | `array-rebalance`   | a modular hot set (every hot stripe ≡ 0 mod width, so round-robin deals them all to one device) replayed static vs adaptive — only the placement indirection can spread the heat |
//! | `array-hetero`      | heterogeneous devices (32/16/8/8 chips) with the hot set dealt to a small device: weight-aware migration moves it toward the big device |
//! | `tenant-mix`        | three tenant classes (interactive / streaming / batch) share one device through the fair-share admission front; per-tenant p99, SLO counts, and the weighted fairness index ride the run metrics |
//! | `tenant-storm`      | the batch tenant storms (8× its baseline submission volume, arriving all at once); the token bucket plus deficit round-robin must hold the isolated tenants' p99 while the storming tenant eats its own queueing |
//!
//! Every scenario compares the conventional controller (VAS) against full
//! Sprinkler (SPK3) and returns per-cell [`RunMetrics`], so regressions in any
//! operating regime — not just the paper's figures — are visible from one
//! `run_all` call.  The `scenarios` binary runs the registry from the command
//! line (CI runs it at quick scale).

use sprinkler_array::{run_array, ArrayConfig, ArrayMetrics, RebalanceConfig};
use sprinkler_core::SchedulerKind;
use sprinkler_sim::{SimTime, SplitMix64};
use sprinkler_ssd::{GcConfig, RunMetrics, SsdConfig};
use sprinkler_workloads::{parse, workload, SweepSpec, SyntheticSpec, Trace, TraceOp, TraceRecord};

use sprinkler_tenants::{
    run_tenants, PriorityClass, TenantMux, TenantOutcome, TenantSpec, TokenBucketConfig,
};
use sprinkler_workloads::{FootprintSlice, SlicedSource, TraceSource};

use crate::replay::{run_source, run_source_detailed, CapacityPolicy};
use crate::report::{fmt_f64, Table};
use crate::runner::{run_cells, ExperimentScale};

/// The registered scenario names, in run order.
pub const SCENARIO_NAMES: [&str; 10] = [
    "enterprise-replay",
    "gc-steady-state",
    "queue-depth-sweep",
    "mixed-burst",
    "array-scaleout",
    "array-skew",
    "array-rebalance",
    "array-hetero",
    "tenant-mix",
    "tenant-storm",
];

/// Array widths the scale-out scenario sweeps; the chip budget is fixed, so
/// width `n` runs `n` devices of `ARRAY_CHIP_BUDGET / n` chips each.
pub const ARRAY_SCALEOUT_DEVICES: [usize; 5] = [1, 2, 4, 8, 16];

/// Total flash chips across the array in the scale-out sweep (the paper
/// platform's 64-chip budget, re-partitioned instead of grown).
pub const ARRAY_CHIP_BUDGET: usize = 64;

/// The schedulers every scenario compares.
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Vas, SchedulerKind::Spk3];

/// One measured cell of a scenario: a workload variant under one scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    /// The workload variant (e.g. `"sample_msr"`, `"qd16"`).
    pub label: String,
    /// Scheduler evaluated.
    pub scheduler: SchedulerKind,
    /// Collected metrics.
    pub metrics: RunMetrics,
}

/// The result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario's registry name.
    pub scenario: String,
    /// Every (variant × scheduler) cell, in deterministic order.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioOutcome {
    /// The cell for one variant/scheduler pair.
    pub fn cell(&self, label: &str, scheduler: SchedulerKind) -> Option<&ScenarioCell> {
        self.cells
            .iter()
            .find(|c| c.label == label && c.scheduler == scheduler)
    }

    /// Bandwidth/latency summary table, one row per variant.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!("Scenario: {}", self.scenario),
            vec![
                "variant".into(),
                "VAS KB/s".into(),
                "SPK3 KB/s".into(),
                "VAS lat us".into(),
                "SPK3 lat us".into(),
            ],
        );
        let mut variants: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if !variants.contains(&cell.label.as_str()) {
                variants.push(&cell.label);
            }
        }
        for variant in variants {
            let metric = |kind, f: fn(&RunMetrics) -> f64| {
                self.cell(variant, kind)
                    .map_or_else(String::new, |c| fmt_f64(f(&c.metrics)))
            };
            table.add_row(vec![
                variant.to_string(),
                metric(SchedulerKind::Vas, |m| m.bandwidth_kb_per_sec),
                metric(SchedulerKind::Spk3, |m| m.bandwidth_kb_per_sec),
                metric(SchedulerKind::Vas, |m| m.avg_latency_ns / 1000.0),
                metric(SchedulerKind::Spk3, |m| m.avg_latency_ns / 1000.0),
            ]);
        }
        table
    }
}

/// Runs one named scenario at the given scale.  Returns `None` for an unknown
/// name (see [`SCENARIO_NAMES`]).
pub fn run(name: &str, scale: &ExperimentScale) -> Option<ScenarioOutcome> {
    let cells = match name {
        "enterprise-replay" => enterprise_replay(scale),
        "gc-steady-state" => gc_steady_state(scale),
        "queue-depth-sweep" => queue_depth_sweep(scale),
        "mixed-burst" => mixed_burst(scale),
        "array-scaleout" => array_scaleout(scale),
        "array-skew" => array_skew(scale),
        "array-rebalance" => array_rebalance(scale),
        "array-hetero" => array_hetero(scale),
        "tenant-mix" => tenant_mix(scale),
        "tenant-storm" => tenant_storm(scale),
        _ => return None,
    };
    Some(ScenarioOutcome {
        scenario: name.to_string(),
        cells,
    })
}

/// Runs every registered scenario, in [`SCENARIO_NAMES`] order.
pub fn run_all(scale: &ExperimentScale) -> Vec<ScenarioOutcome> {
    SCENARIO_NAMES
        .iter()
        .map(|name| run(name, scale).expect("registry names are valid"))
        .collect()
}

/// The baseline configuration scenarios run on.
fn scenario_config(scale: &ExperimentScale) -> SsdConfig {
    SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane)
}

/// enterprise-replay: the embedded text corpora stream through the parser and
/// the capacity-rejecting replay boundary (proving validation is active on
/// real trace text), plus one Table 1 workload streamed lazily at scale.
fn enterprise_replay(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    let config = scenario_config(scale);
    let cells: Vec<(&str, SchedulerKind)> = ["sample_msr", "sample_blkparse", "msnfs1"]
        .into_iter()
        .flat_map(|label| SCHEDULERS.iter().map(move |&kind| (label, kind)))
        .collect();
    run_cells(&cells, |&(label, kind)| {
        let metrics = match label {
            "sample_msr" => run_source(
                &config,
                kind,
                &mut parse::sample_msr(),
                CapacityPolicy::Reject,
            ),
            "sample_blkparse" => run_source(
                &config,
                kind,
                &mut parse::sample_blkparse(),
                CapacityPolicy::Reject,
            ),
            _ => {
                let spec = workload(label).expect("msnfs1 is a Table 1 workload");
                run_source(
                    &config,
                    kind,
                    &mut spec.stream(scale.ios_per_workload, 0x5CE0),
                    CapacityPolicy::Reject,
                )
            }
        }
        .expect("enterprise traces fit the device's logical capacity");
        ScenarioCell {
            label: label.to_string(),
            scheduler: kind,
            metrics,
        }
    })
}

/// gc-steady-state: a small, fragmented SSD (pre-conditioned to 90% physical
/// utilization) under sustained overwrites, garbage collection enabled — the
/// regime of Fig 17, held as a standing scenario.
fn gc_steady_state(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    let config = SsdConfig::paper_default()
        .with_chip_count(16)
        .with_blocks_per_plane(8)
        .with_gc(GcConfig::enabled());
    // A footprint of half the logical capacity keeps overwrites hot.
    let footprint_mb = (config.geometry.capacity_bytes() / (2 * 1024 * 1024)).max(1);
    let cells: Vec<SchedulerKind> = SCHEDULERS.to_vec();
    run_cells(&cells, |&kind| {
        let spec = SyntheticSpec::new("gc-steady")
            .with_read_fraction(0.3)
            .with_mean_sizes_kb(16.0, 16.0)
            .with_footprint_mb(footprint_mb)
            .with_randomness(0.95, 0.95);
        let metrics = run_source_detailed(
            &config,
            kind,
            &mut spec.stream(scale.ios_per_workload, 0x6C),
            CapacityPolicy::Reject,
            false,
            Some(0.90),
        )
        .expect("the GC workload fits the device");
        ScenarioCell {
            label: "fragmented-90pct".to_string(),
            scheduler: kind,
            metrics,
        }
    })
}

/// queue-depth-sweep: one bursty, read-heavy workload replayed at device
/// queue depths 8 → 64.
fn queue_depth_sweep(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    let depths: [usize; 4] = [8, 16, 32, 64];
    let cells: Vec<(usize, SchedulerKind)> = depths
        .into_iter()
        .flat_map(|depth| SCHEDULERS.iter().map(move |&kind| (depth, kind)))
        .collect();
    run_cells(&cells, |&(depth, kind)| {
        let config = scenario_config(scale).with_queue_depth(depth);
        let spec = SyntheticSpec::new("qd-sweep")
            .with_read_fraction(0.8)
            .with_bursts(16, 80.0)
            .with_footprint_mb(1024);
        let metrics = run_source(
            &config,
            kind,
            &mut spec.stream(scale.ios_per_workload, 0x9D),
            CapacityPolicy::Reject,
        )
        .expect("the sweep workload fits the device");
        ScenarioCell {
            label: format!("qd{depth}"),
            scheduler: kind,
            metrics,
        }
    })
}

/// mixed-burst: half-read/half-write bursts, at high and low transactional
/// locality.
fn mixed_burst(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    use sprinkler_workloads::Locality;
    let variants: [(&str, Locality); 2] = [
        ("burst-high-locality", Locality::High),
        ("burst-low-locality", Locality::Low),
    ];
    let cells: Vec<((&str, Locality), SchedulerKind)> = variants
        .into_iter()
        .flat_map(|variant| SCHEDULERS.iter().map(move |&kind| (variant, kind)))
        .collect();
    run_cells(&cells, |&((label, locality), kind)| {
        let config = scenario_config(scale);
        let spec = SyntheticSpec::new(label)
            .with_read_fraction(0.5)
            .with_mean_sizes_kb(32.0, 32.0)
            .with_bursts(32, 60.0)
            .with_locality(locality)
            .with_footprint_mb(1024);
        let metrics = run_source(
            &config,
            kind,
            &mut spec.stream(scale.ios_per_workload, 0xB5),
            CapacityPolicy::Reject,
        )
        .expect("the burst workload fits the device");
        ScenarioCell {
            label: label.to_string(),
            scheduler: kind,
            metrics,
        }
    })
}

/// The device configuration of one scale-out array cell: the fixed chip
/// budget split evenly across `devices` devices.
fn array_scaleout_config(scale: &ExperimentScale, devices: usize) -> ArrayConfig {
    ArrayConfig::new(scenario_config(scale).with_chip_count(ARRAY_CHIP_BUDGET / devices))
        .with_devices(devices)
        .with_stripe_kb(32)
}

/// The fixed-footprint workload every scale-out cell stripes: 256 KB
/// transfers (8 stripes each, so every request fans out across devices) in
/// read-heavy bursts, saturating enough that the single-device point is
/// completion-bound.  Public so the baseline gate checks exactly the cells
/// the scenario runs.
pub fn array_scaleout_metrics(
    scale: &ExperimentScale,
    devices: usize,
    kind: SchedulerKind,
) -> ArrayMetrics {
    let spec = SweepSpec::new(256)
        .with_read_fraction(0.8)
        .with_footprint_mb(512)
        .with_bursts(16, 50.0);
    run_array(
        &array_scaleout_config(scale, devices),
        kind,
        &mut spec.stream(scale.ios_per_workload, 0xA44A),
    )
    .expect("the scale-out workload fits the array")
}

/// array-scaleout: one trace, striped across 1→16 devices at a fixed total
/// chip budget and fixed footprint — does the host-level frontend convert
/// added devices into aggregate bandwidth, and how does scheduler choice
/// compose with striping?
fn array_scaleout(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    let cells: Vec<(usize, SchedulerKind)> = ARRAY_SCALEOUT_DEVICES
        .into_iter()
        .flat_map(|devices| SCHEDULERS.iter().map(move |&kind| (devices, kind)))
        .collect();
    run_cells(&cells, |&(devices, kind)| ScenarioCell {
        label: format!("n{devices}"),
        scheduler: kind,
        metrics: array_scaleout_metrics(scale, devices, kind).summary_run_metrics(),
    })
}

/// Logical stripes the skew workload spans (64 MB at 4 MB stripes).
const ARRAY_SKEW_TOTAL_STRIPES: u64 = 16;

/// Standing hot stripes in the skew workload, all ≡ 0 (mod 4): round-robin
/// deals every one to device 0.
const ARRAY_SKEW_HOT_STRIPES: u64 = 4;

/// The skew workload family: one deterministic generator serves all three
/// variants so the hot-shard and rebalance cells replay *byte-identical*
/// streams and the uniform cell differs only in where offsets land.  The
/// hot variants aim 40% of the requests at a standing 4-stripe hot set whose
/// 2 MB offset clusters sit inside single 4 MB stripes — and every hot
/// stripe index is ≡ 0 (mod 4), so static round-robin concentrates the
/// whole shard on device 0.
fn array_skew_trace(label: &str, records: u64) -> Trace {
    let stripe_bytes = 4 * 1024 * 1024;
    modular_hot_trace(
        label,
        records,
        0x5E,
        &HotSetSpec {
            stripe_bytes,
            width: 4,
            residue: 0,
            hot_stripes: ARRAY_SKEW_HOT_STRIPES,
            total_stripes: ARRAY_SKEW_TOTAL_STRIPES,
            hot_percent: if label == "uniform" { 0 } else { 40 },
            // Clustered offsets: hot requests stay inside a 2 MB window of
            // their stripe.
            hot_span: stripe_bytes / 2,
            request_bytes: 64 * 1024,
        },
    )
}

/// The rebalance tuning the skew scenario's third variant runs.  Coarse
/// 4 MB stripes make migration expensive (each move injects ~8 MB of copy
/// traffic), so the window is long enough for an accurate heat estimate and
/// the budget is tight: two or three decisive moves spread the standing hot
/// set, then the trigger guard goes quiet.
fn array_skew_rebalance() -> RebalanceConfig {
    RebalanceConfig {
        window_records: 48,
        decay: 0.9,
        trigger_ratio: 1.2,
        max_migrations_per_window: 1,
        max_total_migrations: 3,
    }
}

/// One array-skew cell, exposed for tests that assert on the imbalance
/// statistics the [`ScenarioCell`] summary flattens away.  The
/// `"hot-shard-rebalance"` variant replays the *byte-identical* hot-shard
/// stream with the adaptive placement layer on, so any difference in the
/// metrics is attributable to migration alone.
pub fn array_skew_metrics(
    scale: &ExperimentScale,
    label: &str,
    kind: SchedulerKind,
) -> ArrayMetrics {
    let mut config =
        ArrayConfig::new(scenario_config(scale).with_chip_count(ARRAY_CHIP_BUDGET / 4))
            .with_devices(4)
            .with_stripe_kb(4096);
    let trace_label = if label == "hot-shard-rebalance" {
        config = config.with_rebalance(array_skew_rebalance());
        "hot-shard"
    } else {
        label
    };
    let trace = array_skew_trace(trace_label, scale.ios_per_workload);
    run_array(&config, kind, &mut trace.source()).expect("the skew workload fits the array")
}

/// The horizon multiplier for the skew acceptance figures.  A 4 MB stripe
/// copy is ~8 MB of injected device traffic — more than the whole quick-scale
/// payload — so the quick cell cannot amortize even one migration.  The
/// recorded figures replay the same cells over this many quick horizons,
/// the way a standing hot shard would amortize a one-time move.
pub const ARRAY_SKEW_FIGURE_IOS_FACTOR: u64 = 12;

/// The array-skew cell at the figure horizon
/// ([`ARRAY_SKEW_FIGURE_IOS_FACTOR`] × the scale's record count) — the
/// deterministic basis for the recorded skew/rebalance figures.
pub fn array_skew_figure_metrics(
    scale: &ExperimentScale,
    label: &str,
    kind: SchedulerKind,
) -> ArrayMetrics {
    let horizon = ExperimentScale {
        ios_per_workload: scale.ios_per_workload * ARRAY_SKEW_FIGURE_IOS_FACTOR,
        ..*scale
    };
    array_skew_metrics(&horizon, label, kind)
}

/// array-skew: hot-shard imbalance on a 4-device array — clustered offsets
/// against coarse 4 MB stripes concentrate bursts on one shard at a time,
/// vs. the same burst shape spread uniformly, vs. the same hot shard with
/// the adaptive rebalancer migrating stripes off the hot device.
fn array_skew(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    let variants = ["uniform", "hot-shard", "hot-shard-rebalance"];
    let cells: Vec<(&str, SchedulerKind)> = variants
        .into_iter()
        .flat_map(|label| SCHEDULERS.iter().map(move |&kind| (label, kind)))
        .collect();
    run_cells(&cells, |&(label, kind)| ScenarioCell {
        label: label.to_string(),
        scheduler: kind,
        metrics: array_skew_metrics(scale, label, kind).summary_run_metrics(),
    })
}

/// Shape of a deterministic "modular hot set" workload (see
/// [`modular_hot_trace`]).
struct HotSetSpec {
    /// Stripe size the offsets are laid out against.
    stripe_bytes: u64,
    /// Array width the hot residue is chosen against.
    width: u64,
    /// Hot stripe indices are `residue + width * k` — all the same device
    /// under chunked round-robin.
    residue: u64,
    /// Number of stripes in the hot set.
    hot_stripes: u64,
    /// Total logical stripes (the footprint).
    total_stripes: u64,
    /// Percent of requests aimed at the hot set (0 = uniform workload).
    hot_percent: u64,
    /// Bytes of each hot stripe the hot requests cluster within.
    hot_span: u64,
    /// Fixed request size.
    request_bytes: u64,
}

/// A deterministic "modular hot set" trace: `hot_percent` of the requests
/// cycle through `hot_stripes` stripe indices that are all ≡ `residue`
/// (mod `width`), so chunked round-robin deals every hot stripe to the same
/// device and no *static* layout can spread the heat — only the placement
/// indirection can.  The rest of the requests scatter uniformly over
/// `total_stripes` stripes.  Arrivals outpace any single device, so the
/// replay is completion-bound and imbalance shows up directly as elapsed
/// time (and therefore bandwidth).
fn modular_hot_trace(name: &str, records: u64, seed: u64, spec: &HotSetSpec) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let out: Vec<TraceRecord> = (0..records)
        .map(|i| {
            let (stripe, span) = if rng.next_u64() % 100 < spec.hot_percent {
                (
                    spec.residue + spec.width * (rng.next_u64() % spec.hot_stripes),
                    spec.hot_span,
                )
            } else {
                (rng.next_u64() % spec.total_stripes, spec.stripe_bytes)
            };
            let slots = span / spec.request_bytes;
            TraceRecord {
                id: i,
                arrival: SimTime::from_micros(i * 20),
                op: if rng.next_u64().is_multiple_of(4) {
                    TraceOp::Write
                } else {
                    TraceOp::Read
                },
                offset: stripe * spec.stripe_bytes + (rng.next_u64() % slots) * spec.request_bytes,
                bytes: spec.request_bytes,
            }
        })
        .collect();
    Trace::new(name, out)
}

/// Stripes in the modular-hot-set scenarios: 256 KB keeps a migration's copy
/// bill (two ~512 KB device transfers) small next to the payload.
const ARRAY_REBALANCE_STRIPE_KB: u64 = 256;

/// Logical stripes the modular hot set scatters over (64 MB of footprint).
const ARRAY_REBALANCE_TOTAL_STRIPES: u64 = 256;

/// Hot stripes in the modular hot set.
const ARRAY_REBALANCE_HOT_STRIPES: u64 = 8;

/// The rebalance tuning for the modular-hot-set scenarios: cheap 256 KB
/// stripes afford a budget wide enough to re-home the whole hot set.
fn array_rebalance_tuning() -> RebalanceConfig {
    RebalanceConfig {
        window_records: 16,
        decay: 0.5,
        trigger_ratio: 1.2,
        max_migrations_per_window: 2,
        max_total_migrations: 12,
    }
}

/// One array-rebalance cell: the modular hot set (every hot stripe on device
/// 0 under round-robin) replayed `"static"` or `"adaptive"`.  Public so the
/// baseline gate checks exactly the cells the scenario runs.
pub fn array_rebalance_metrics(
    scale: &ExperimentScale,
    label: &str,
    kind: SchedulerKind,
) -> ArrayMetrics {
    let stripe_bytes = ARRAY_REBALANCE_STRIPE_KB * 1024;
    let mut config =
        ArrayConfig::new(scenario_config(scale).with_chip_count(ARRAY_CHIP_BUDGET / 4))
            .with_devices(4)
            .with_stripe_kb(ARRAY_REBALANCE_STRIPE_KB);
    if label == "adaptive" {
        config = config.with_rebalance(array_rebalance_tuning());
    }
    let trace = modular_hot_trace(
        "modular-hot",
        scale.ios_per_workload,
        0xC1A0,
        &HotSetSpec {
            stripe_bytes,
            width: 4,
            residue: 0,
            hot_stripes: ARRAY_REBALANCE_HOT_STRIPES,
            total_stripes: ARRAY_REBALANCE_TOTAL_STRIPES,
            hot_percent: 75,
            hot_span: stripe_bytes,
            request_bytes: 64 * 1024,
        },
    );
    run_array(&config, kind, &mut trace.source()).expect("the modular hot set fits the array")
}

/// array-rebalance: the adaptive placement layer against its adversarial
/// best case — a hot set round-robin provably cannot spread (every hot
/// stripe ≡ 0 mod width lands on device 0), static vs adaptive.
fn array_rebalance(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    let variants = ["static", "adaptive"];
    let cells: Vec<(&str, SchedulerKind)> = variants
        .into_iter()
        .flat_map(|label| SCHEDULERS.iter().map(move |&kind| (label, kind)))
        .collect();
    run_cells(&cells, |&(label, kind)| ScenarioCell {
        label: label.to_string(),
        scheduler: kind,
        metrics: array_rebalance_metrics(scale, label, kind).summary_run_metrics(),
    })
}

/// Chip counts of the heterogeneous array's devices (the fixed
/// [`ARRAY_CHIP_BUDGET`], split unevenly).
pub const ARRAY_HETERO_CHIPS: [usize; 4] = [32, 16, 8, 8];

/// One array-hetero cell: the same modular hot set, but dealt (residue 2) to
/// an 8-chip device of a 32/16/8/8-chip array.  Static round-robin pins the
/// hot set to the weakest device; the weight-aware rebalancer migrates it
/// toward spare capability.  Public for the baseline gate and tests.
pub fn array_hetero_metrics(
    scale: &ExperimentScale,
    label: &str,
    kind: SchedulerKind,
) -> ArrayMetrics {
    let stripe_bytes = ARRAY_REBALANCE_STRIPE_KB * 1024;
    let base = scenario_config(scale);
    let devices = ARRAY_HETERO_CHIPS
        .iter()
        .map(|&chips| base.clone().with_chip_count(chips))
        .collect();
    let mut config = ArrayConfig::heterogeneous(devices).with_stripe_kb(ARRAY_REBALANCE_STRIPE_KB);
    if label == "adaptive" {
        config = config.with_rebalance(array_rebalance_tuning());
    }
    let trace = modular_hot_trace(
        "hetero-hot",
        scale.ios_per_workload,
        0x4E70,
        &HotSetSpec {
            stripe_bytes,
            width: 4,
            residue: 2,
            hot_stripes: ARRAY_REBALANCE_HOT_STRIPES,
            total_stripes: ARRAY_REBALANCE_TOTAL_STRIPES,
            hot_percent: 75,
            hot_span: stripe_bytes,
            request_bytes: 64 * 1024,
        },
    );
    run_array(&config, kind, &mut trace.source()).expect("the hetero hot set fits the array")
}

/// array-hetero: heterogeneous devices under a hot set that round-robin
/// deals to a small device — does weight-aware migration convert spare
/// big-device capability into aggregate bandwidth?
fn array_hetero(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    let variants = ["static", "adaptive"];
    let cells: Vec<(&str, SchedulerKind)> = variants
        .into_iter()
        .flat_map(|label| SCHEDULERS.iter().map(move |&kind| (label, kind)))
        .collect();
    run_cells(&cells, |&(label, kind)| ScenarioCell {
        label: label.to_string(),
        scheduler: kind,
        metrics: array_hetero_metrics(scale, label, kind).summary_run_metrics(),
    })
}

// ---------------------------------------------------------------------------
// Multi-tenant scenarios
// ---------------------------------------------------------------------------

/// Storm multiplier: the storming tenant submits this many times its baseline
/// record count, all arriving in a dense front-loaded burst.
pub const TENANT_STORM_FACTOR: u64 = 8;

/// The pinned isolation bound the tenant-storm scenario must hold: each
/// isolated tenant's p99 under the storm stays within this factor of its
/// baseline p99 (asserted by a test and gated in `BENCH_tenants.json`).
pub const TENANT_ISOLATION_P99_BOUND: f64 = 2.0;

/// Carves the device's logical capacity into `n` page-aligned tenant slices.
fn tenant_slices(config: &SsdConfig, n: usize) -> Vec<FootprintSlice> {
    FootprintSlice::split_even(
        config.geometry.capacity_bytes(),
        n,
        config.page_size() as u64,
    )
}

/// Wraps a synthetic workload into one tenant's footprint slice.  The
/// generator's footprint is clamped to the slice (64 MB keeps offsets hot
/// enough to exercise parallelism without touching the whole device).
fn tenant_source(
    spec: SyntheticSpec,
    slice: FootprintSlice,
    count: u64,
    seed: u64,
) -> Box<dyn TraceSource + Send + 'static> {
    let footprint_mb = (slice.len / (1024 * 1024)).clamp(1, 64);
    Box::new(SlicedSource::new(
        spec.with_footprint_mb(footprint_mb).stream(count, seed),
        slice,
    ))
}

/// The interactive tenant every tenant scenario runs: small, latency-critical
/// random reads with a 5 ms SLO.
fn interactive_tenant(
    slice: FootprintSlice,
    count: u64,
) -> (TenantSpec, Box<dyn TraceSource + Send>) {
    let spec = SyntheticSpec::new("interactive")
        .with_read_fraction(0.95)
        .with_mean_sizes_kb(4.0, 4.0)
        .with_randomness(1.0, 1.0)
        .with_bursts(4, 120.0);
    (
        TenantSpec::new("interactive", PriorityClass::Interactive).with_slo_latency_ns(5_000_000),
        tenant_source(spec, slice, count, 0x7E01),
    )
}

/// The streaming tenant: deadline-driven sequential 256 KB reads (the
/// video-allocation class from PAPERS.md) with a 50 ms SLO.
fn streaming_tenant(
    slice: FootprintSlice,
    count: u64,
) -> (TenantSpec, Box<dyn TraceSource + Send>) {
    let spec = SyntheticSpec::new("streaming")
        .with_read_fraction(1.0)
        .with_mean_sizes_kb(256.0, 256.0)
        .with_randomness(0.05, 0.05)
        .with_bursts(2, 500.0);
    (
        TenantSpec::new("streaming", PriorityClass::Streaming).with_slo_latency_ns(50_000_000),
        tenant_source(spec, slice, count, 0x7E02),
    )
}

/// The batch tenant: large, throughput-oriented writes behind a token bucket
/// (the burst-isolation mechanism the storm scenario stresses).
fn batch_tenant(
    slice: FootprintSlice,
    count: u64,
    storming: bool,
) -> (TenantSpec, Box<dyn TraceSource + Send>) {
    let spec = if storming {
        // The storm: everything submitted in one dense front-loaded burst.
        SyntheticSpec::new("batch")
            .with_read_fraction(0.1)
            .with_mean_sizes_kb(128.0, 128.0)
            .with_bursts(4096, 1.0)
    } else {
        SyntheticSpec::new("batch")
            .with_read_fraction(0.1)
            .with_mean_sizes_kb(128.0, 128.0)
            .with_bursts(16, 400.0)
    };
    (
        TenantSpec::new("batch", PriorityClass::Batch)
            .with_bucket(TokenBucketConfig::new(64 * 1024 * 1024, 1024 * 1024)),
        tenant_source(spec, slice, count, 0x7E03),
    )
}

/// One tenant-mix cell: interactive + streaming + batch sharing one device
/// through the fair-share front.  Public so the baseline gate and tests
/// measure exactly the cell the scenario runs.
pub fn tenant_mix_outcome(scale: &ExperimentScale, kind: SchedulerKind) -> TenantOutcome {
    let config = scenario_config(scale);
    let slices = tenant_slices(&config, 3);
    let n = scale.ios_per_workload;
    let mux = TenantMux::new(vec![
        interactive_tenant(slices[0], n / 2),
        streaming_tenant(slices[1], n / 4),
        batch_tenant(slices[2], n / 4, false),
    ]);
    run_tenants(&config, kind, mux).expect("tenant slices are provisioned within capacity")
}

/// One tenant-storm cell.  `"baseline"` runs the same tenants as tenant-mix;
/// `"storm"` multiplies the batch tenant's submission volume by
/// [`TENANT_STORM_FACTOR`] and front-loads its arrivals, leaving the isolated
/// tenants' streams byte-identical — any change in their latency is
/// attributable to the storm alone.  Public for the baseline gate and tests.
pub fn tenant_storm_outcome(
    scale: &ExperimentScale,
    label: &str,
    kind: SchedulerKind,
) -> TenantOutcome {
    let config = scenario_config(scale);
    let slices = tenant_slices(&config, 3);
    let n = scale.ios_per_workload;
    let storming = label == "storm";
    let batch_count = if storming {
        (n / 4) * TENANT_STORM_FACTOR
    } else {
        n / 4
    };
    let mux = TenantMux::new(vec![
        interactive_tenant(slices[0], n / 2),
        streaming_tenant(slices[1], n / 4),
        batch_tenant(slices[2], batch_count, storming),
    ]);
    run_tenants(&config, kind, mux).expect("tenant slices are provisioned within capacity")
}

/// tenant-mix: the three tenant classes share one device through the
/// deficit-round-robin admission front; per-tenant figures ride
/// [`RunMetrics::tenants`].
fn tenant_mix(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    let cells: Vec<SchedulerKind> = SCHEDULERS.to_vec();
    run_cells(&cells, |&kind| ScenarioCell {
        label: "mix".to_string(),
        scheduler: kind,
        metrics: tenant_mix_outcome(scale, kind).metrics,
    })
}

/// tenant-storm: burst isolation under a storming batch tenant, baseline vs
/// storm — the isolated tenants' p99 must hold within
/// [`TENANT_ISOLATION_P99_BOUND`] of baseline.
fn tenant_storm(scale: &ExperimentScale) -> Vec<ScenarioCell> {
    let variants = ["baseline", "storm"];
    let cells: Vec<(&str, SchedulerKind)> = variants
        .into_iter()
        .flat_map(|label| SCHEDULERS.iter().map(move |&kind| (label, kind)))
        .collect();
    run_cells(&cells, |&(label, kind)| ScenarioCell {
        label: label.to_string(),
        scheduler: kind,
        metrics: tenant_storm_outcome(scale, label, kind).metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinkler_workloads::TraceSource;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            ios_per_workload: 120,
            blocks_per_plane: 16,
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(run("no-such-scenario", &tiny()).is_none());
    }

    #[test]
    fn every_registered_scenario_runs_and_reports() {
        let outcomes = run_all(&tiny());
        assert_eq!(outcomes.len(), SCENARIO_NAMES.len());
        for (outcome, name) in outcomes.iter().zip(SCENARIO_NAMES) {
            assert_eq!(outcome.scenario, name);
            assert!(!outcome.cells.is_empty(), "{name} produced no cells");
            for cell in &outcome.cells {
                assert!(
                    cell.metrics.io_count > 0,
                    "{name}/{} completed no I/Os",
                    cell.label
                );
                assert!(cell.metrics.bandwidth_kb_per_sec > 0.0);
            }
            let rendered = outcome.table().render();
            assert!(rendered.contains(name));
        }
    }

    #[test]
    fn enterprise_replay_covers_both_text_formats() {
        let outcome = run("enterprise-replay", &tiny()).unwrap();
        for label in ["sample_msr", "sample_blkparse", "msnfs1"] {
            let cell = outcome
                .cell(label, SchedulerKind::Spk3)
                .unwrap_or_else(|| panic!("missing cell {label}"));
            assert!(cell.metrics.io_count > 0);
        }
        // The parsed corpora replay every record they contain.
        let mut msr = parse::sample_msr();
        let msr_records = std::iter::from_fn(|| msr.next_record()).count() as u64;
        assert_eq!(
            outcome
                .cell("sample_msr", SchedulerKind::Vas)
                .unwrap()
                .metrics
                .io_count,
            msr_records
        );
    }

    #[test]
    fn gc_steady_state_actually_garbage_collects() {
        let outcome = run("gc-steady-state", &tiny()).unwrap();
        for cell in &outcome.cells {
            assert!(
                cell.metrics.gc.invocations > 0,
                "{} never triggered GC",
                cell.scheduler
            );
        }
    }

    #[test]
    fn array_scaleout_converts_devices_into_aggregate_bandwidth() {
        let scale = ExperimentScale::quick();
        let outcome = run("array-scaleout", &scale).unwrap();
        assert_eq!(
            outcome.cells.len(),
            ARRAY_SCALEOUT_DEVICES.len() * SCHEDULERS.len()
        );
        let bw = |label: &str| {
            outcome
                .cell(label, SchedulerKind::Spk3)
                .unwrap()
                .metrics
                .bandwidth_kb_per_sec
        };
        // The frontend must convert added devices into aggregate bandwidth.
        assert!(
            bw("n16") > bw("n1") * 1.1,
            "16 devices must beat 1 device: {} vs {}",
            bw("n16"),
            bw("n1")
        );
        // And the sweep must not collapse anywhere along the way.
        for pair in ARRAY_SCALEOUT_DEVICES.windows(2) {
            let (a, b) = (format!("n{}", pair[0]), format!("n{}", pair[1]));
            assert!(
                bw(&b) >= bw(&a) * 0.9,
                "bandwidth regressed from {a} to {b}: {} vs {}",
                bw(&a),
                bw(&b)
            );
        }
    }

    #[test]
    fn array_skew_exposes_the_hot_shard() {
        let scale = ExperimentScale::quick();
        for kind in SCHEDULERS {
            let uniform = array_skew_metrics(&scale, "uniform", kind);
            let skewed = array_skew_metrics(&scale, "hot-shard", kind);
            assert!(
                skewed.skew.io_imbalance > uniform.skew.io_imbalance * 1.2,
                "{kind}: clustered offsets must imbalance the shards \
                 ({} vs {})",
                skewed.skew.io_imbalance,
                uniform.skew.io_imbalance
            );
            assert!(
                skewed.bandwidth_kb_per_sec < uniform.bandwidth_kb_per_sec,
                "{kind}: the hot shard must cost aggregate bandwidth"
            );
        }
        // The registry serves all three variants as cells.
        let outcome = run("array-skew", &scale).unwrap();
        assert_eq!(outcome.cells.len(), 3 * SCHEDULERS.len());
        assert!(outcome.cell("hot-shard", SchedulerKind::Spk3).is_some());
        assert!(outcome
            .cell("hot-shard-rebalance", SchedulerKind::Spk3)
            .is_some());
    }

    /// The acceptance bar from the roadmap, pinned for every scheduler at the
    /// figure horizon: the rebalancer must recover at least half of the hot
    /// shard's bandwidth cost *and* bring I/O imbalance back under 1.2×, and
    /// it must do so by actually migrating stripes rather than by the workload
    /// happening to spread itself.
    #[test]
    fn array_skew_rebalancer_wins_the_acceptance_targets() {
        let scale = ExperimentScale::quick();
        for kind in SCHEDULERS {
            let uniform = array_skew_figure_metrics(&scale, "uniform", kind);
            let hot = array_skew_figure_metrics(&scale, "hot-shard", kind);
            let rebalanced = array_skew_figure_metrics(&scale, "hot-shard-rebalance", kind);
            assert!(rebalanced.stripes_migrated > 0, "{kind}: no migrations");
            let midpoint = (uniform.bandwidth_kb_per_sec + hot.bandwidth_kb_per_sec) / 2.0;
            assert!(
                rebalanced.bandwidth_kb_per_sec >= midpoint,
                "{kind}: recovered less than half the bandwidth gap \
                 (uniform {:.0}, hot {:.0}, rebalanced {:.0})",
                uniform.bandwidth_kb_per_sec,
                hot.bandwidth_kb_per_sec,
                rebalanced.bandwidth_kb_per_sec
            );
            assert!(
                rebalanced.skew.io_imbalance <= 1.2,
                "{kind}: imbalance stayed at {:.3} (hot shard was {:.3})",
                rebalanced.skew.io_imbalance,
                hot.skew.io_imbalance
            );
        }
    }

    /// On the modular hot set — every hot stripe dealt to the same device by
    /// chunked round-robin — only placement indirection can spread the load,
    /// so the adaptive variant must beat static striping on both bandwidth
    /// and balance for every scheduler.
    #[test]
    fn array_rebalance_adaptive_beats_static() {
        let scale = ExperimentScale::quick();
        for kind in SCHEDULERS {
            let stat = array_rebalance_metrics(&scale, "static", kind);
            let adaptive = array_rebalance_metrics(&scale, "adaptive", kind);
            assert_eq!(stat.stripes_migrated, 0, "{kind}");
            assert!(adaptive.stripes_migrated > 0, "{kind}: no migrations");
            assert!(
                adaptive.bandwidth_kb_per_sec > stat.bandwidth_kb_per_sec,
                "{kind}: adaptive {:.0} did not beat static {:.0}",
                adaptive.bandwidth_kb_per_sec,
                stat.bandwidth_kb_per_sec
            );
            assert!(
                adaptive.skew.io_imbalance < stat.skew.io_imbalance,
                "{kind}: imbalance {:.3} did not improve on {:.3}",
                adaptive.skew.io_imbalance,
                stat.skew.io_imbalance
            );
        }
    }

    /// Heterogeneous devices: the hot set lands on an 8-chip device, and the
    /// weight-aware rebalancer must shed it toward the larger devices —
    /// improving both weighted imbalance and aggregate bandwidth.
    #[test]
    fn array_hetero_adaptive_restores_weighted_balance() {
        let scale = ExperimentScale::quick();
        for kind in SCHEDULERS {
            let stat = array_hetero_metrics(&scale, "static", kind);
            let adaptive = array_hetero_metrics(&scale, "adaptive", kind);
            assert!(adaptive.stripes_migrated > 0, "{kind}: no migrations");
            assert!(
                adaptive.skew.weighted_io_imbalance < stat.skew.weighted_io_imbalance,
                "{kind}: weighted imbalance {:.3} did not improve on {:.3}",
                adaptive.skew.weighted_io_imbalance,
                stat.skew.weighted_io_imbalance
            );
            assert!(
                adaptive.bandwidth_kb_per_sec > stat.bandwidth_kb_per_sec,
                "{kind}: adaptive {:.0} did not beat static {:.0}",
                adaptive.bandwidth_kb_per_sec,
                stat.bandwidth_kb_per_sec
            );
        }
    }

    #[test]
    fn tenant_mix_attributes_every_io_and_class() {
        let scale = ExperimentScale::quick();
        for kind in SCHEDULERS {
            let outcome = tenant_mix_outcome(&scale, kind);
            assert_eq!(outcome.metrics.tenants.len(), 3, "{kind}");
            let attributed: u64 = outcome.metrics.tenants.iter().map(|t| t.io_count).sum();
            assert_eq!(attributed, outcome.metrics.io_count, "{kind}");
            for tenant in &outcome.metrics.tenants {
                assert!(tenant.io_count > 0, "{kind}: {} ran nothing", tenant.name);
                assert!(tenant.p99_latency_ns > 0, "{kind}: {}", tenant.name);
            }
            let fairness = outcome.fairness_index();
            assert!(
                fairness > 0.0 && fairness <= 1.0,
                "{kind}: fairness {fairness}"
            );
        }
        // The registry serves the scenario as scheduler cells.
        let outcome = run("tenant-mix", &scale).unwrap();
        assert_eq!(outcome.cells.len(), SCHEDULERS.len());
    }

    /// The acceptance bar for the multi-tenant front, pinned for every
    /// scheduler at the figure horizon: when the batch tenant storms at
    /// [`TENANT_STORM_FACTOR`]× its baseline volume, its own p99 must degrade
    /// (the storm is real) while each isolated tenant's p99 holds within
    /// [`TENANT_ISOLATION_P99_BOUND`]× of its baseline (the bucket and the
    /// deficit-round-robin front absorb the blast).
    #[test]
    fn tenant_storm_holds_isolated_tenant_p99() {
        let scale = ExperimentScale::quick();
        for kind in SCHEDULERS {
            let baseline = tenant_storm_outcome(&scale, "baseline", kind);
            let storm = tenant_storm_outcome(&scale, "storm", kind);
            let p99 = |outcome: &TenantOutcome, name: &str| {
                outcome
                    .metrics
                    .tenants
                    .iter()
                    .find(|t| t.name == name)
                    .unwrap_or_else(|| panic!("missing tenant {name}"))
                    .p99_latency_ns
            };
            assert!(
                p99(&storm, "batch") >= 2 * p99(&baseline, "batch"),
                "{kind}: the storm must cost the storming tenant \
                 ({} vs baseline {})",
                p99(&storm, "batch"),
                p99(&baseline, "batch")
            );
            for victim in ["interactive", "streaming"] {
                let held = p99(&storm, victim) as f64;
                let bound = p99(&baseline, victim) as f64 * TENANT_ISOLATION_P99_BOUND;
                assert!(
                    held <= bound,
                    "{kind}: {victim} p99 {held} broke the {TENANT_ISOLATION_P99_BOUND}x \
                     isolation bound (baseline {})",
                    p99(&baseline, victim)
                );
            }
            // The storm drags the run's byte-share fairness down.
            assert!(
                storm.fairness_index() < baseline.fairness_index(),
                "{kind}: fairness did not register the storm"
            );
        }
        let outcome = run("tenant-storm", &scale).unwrap();
        assert_eq!(outcome.cells.len(), 2 * SCHEDULERS.len());
    }

    #[test]
    fn queue_depth_sweep_covers_all_depths() {
        let outcome = run("queue-depth-sweep", &tiny()).unwrap();
        assert_eq!(outcome.cells.len(), 8);
        // Deeper queues cannot hurt SPK3's bandwidth at this workload.
        let bw = |label: &str| {
            outcome
                .cell(label, SchedulerKind::Spk3)
                .unwrap()
                .metrics
                .bandwidth_kb_per_sec
        };
        assert!(bw("qd64") >= bw("qd8") * 0.8);
    }
}
