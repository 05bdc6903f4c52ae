//! Regenerates — and gates on — the repository's simulated-figure baselines
//! (`BENCH_seed.json`, `BENCH_scaling.json`, `BENCH_array.json`,
//! `BENCH_tenants.json`) through the parallel experiment runner.
//!
//! ```sh
//! # Rewrite all four baselines (changes that move a simulated figure):
//! cargo run --release -p sprinkler_experiments --bin regen_baselines -- \
//!     --label "what changed the figures"
//!
//! # CI perf-regression gate: recompute the deterministic metrics_check
//! # sections and diff them against the committed files (nonzero exit on
//! # drift):
//! cargo run --release -p sprinkler_experiments --bin regen_baselines -- --check
//! ```
//!
//! `--label` stamps the rewritten files with the change they baseline (an
//! unlabeled run says so in the output).  Every figure in a baseline file is
//! simulated — bandwidth ratios, aggregate KB/s, exact telemetry counts — and
//! so identical on every machine; host time is measured by `perfbench/` and
//! recorded in neither.  `--check` recomputes the `metrics_check` figures and
//! compares them within [`CHECK_TOLERANCE`], so a scheduler or replay change
//! that silently shifts any headline result fails CI until the baselines are
//! regenerated deliberately.  Any other argument prints the usage and exits 2
//! before anything runs or is written.

use std::cell::Cell;
use std::process::ExitCode;
use std::rc::Rc;

use sprinkler_core::SchedulerKind;
use sprinkler_experiments::runner::{run_one_detailed, ExperimentScale};
use sprinkler_experiments::{fig10, fig15_scaling, scenario};
use sprinkler_flash::Lpn;
use sprinkler_sim::{AllocScope, CountingAllocator, SimTime};
use sprinkler_ssd::request::{Direction, HostRequest};
use sprinkler_ssd::{GcConfig, RunMetrics, Ssd, SsdConfig};

/// Every baseline figure is measured under the counting allocator, so the
/// steady-state allocs-per-I/O figures below are real measurements, not
/// assertions carried over from the test suite.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Relative tolerance of the `--check` gate.  The simulated metrics are
/// deterministic; the slack only absorbs the 4-decimal rounding the baseline
/// files store.
const CHECK_TOLERANCE: f64 = 1e-3;

/// Escapes a string for interpolation into a JSON string literal.
fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn today() -> String {
    // Derive a calendar date from the system clock without chrono: civil-date
    // conversion of days since the Unix epoch (Howard Hinnant's algorithm).
    let days = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() / 86_400)
        .unwrap_or(0) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

// ---------------------------------------------------------------------------
// Deterministic metric recipes: each baseline's `metrics_check` keys map to
// simulated figures recomputed by exactly one function below, shared by the
// regeneration path and the `--check` gate.
// ---------------------------------------------------------------------------

/// Replays the steady-state workload of tests/zero_alloc.rs (fixed 8-page
/// requests, a warm-up-mapped 512-LPN write footprint, roaming reads) through
/// `Ssd::run_stream` under SPK3, measuring allocation events after the
/// warm-up boundary.  Returns the run metrics and allocations per measured
/// I/O — 0.0 by construction, and baselined so the `--check` perf gate fails
/// alongside the release test gate if a per-I/O allocation sneaks back in.
fn steady_replay(chips: usize) -> (RunMetrics, f64) {
    const TOTAL: u64 = 6_000;
    const WARMUP: u64 = 3_000;
    const PAGES: u32 = 8;
    const WRITE_BASES: u64 = 64;
    let config = SsdConfig::paper_default()
        .with_chip_count(chips)
        .with_blocks_per_plane(64);
    let scope: Rc<Cell<Option<AllocScope>>> = Rc::new(Cell::new(None));
    let steady_allocs: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let (scope_w, allocs_w) = (Rc::clone(&scope), Rc::clone(&steady_allocs));
    let mut yielded = 0u64;
    let source = std::iter::from_fn(move || {
        if yielded == TOTAL {
            if let Some(open) = scope_w.get() {
                allocs_w.set(Some(open.allocations()));
            }
            return None;
        }
        let i = yielded;
        yielded += 1;
        if yielded == WARMUP {
            scope_w.set(Some(AllocScope::begin()));
        }
        let (direction, lpn) = if i.is_multiple_of(2) {
            (Direction::Read, Lpn::new((i * 13) % 4096))
        } else {
            (Direction::Write, Lpn::new((i % WRITE_BASES) * PAGES as u64))
        };
        Some(HostRequest::new(
            i,
            SimTime::from_nanos(i * 1_000),
            direction,
            lpn,
            PAGES,
        ))
    });
    let ssd = Ssd::new(config, SchedulerKind::Spk3.build()).expect("steady-replay config is valid");
    let metrics = ssd.run_stream(source);
    let allocs = steady_allocs.get().expect("the replay drained the source") as f64;
    (metrics, allocs / (TOTAL - WARMUP) as f64)
}

/// The fragmented cell of `examples/gc_pressure.rs` under `kind`: 64 chips,
/// 8 blocks per plane, GC on, pre-filled to 95%, a write-heavy 64 KB sweep.
///
/// # Panics
///
/// Panics if GC moved no page across planes: the cell exists to keep the
/// readdressing paths (the stale-readdress penalty for schedulers without
/// `on_readdress`, the callback for the rest) under the gate.
fn gc_fragmented(kind: SchedulerKind) -> RunMetrics {
    let scale = ExperimentScale {
        ios_per_workload: 400,
        blocks_per_plane: 8,
    };
    let config = SsdConfig::paper_default()
        .with_chip_count(64)
        .with_blocks_per_plane(scale.blocks_per_plane)
        .with_gc(GcConfig::enabled());
    let trace = scale.sweep_trace(64, 0.3, 0x6C);
    let metrics = run_one_detailed(&config, kind, &trace, false, Some(0.95));
    assert!(
        metrics.gc.cross_plane_migrations > 0,
        "the {} GC cell no longer migrates across planes",
        kind.label()
    );
    metrics
}

/// `BENCH_seed.json`: the fig10 headline comparison at bench scale (with
/// the chip utilization and intra-chip idleness behind Figs 11 and 15, each
/// the mean over the fig10 workloads), the 95%-full GC cell, plus the
/// always-on telemetry counters and the steady-state allocation budget of
/// the paper-geometry replay.
fn seed_metrics() -> Vec<(&'static str, f64)> {
    let comparison = &fig10::run(&ExperimentScale::bench(), None);
    let runs = |kind| {
        comparison
            .workloads
            .iter()
            .filter_map(move |w| comparison.metrics(w, kind))
    };
    let mean = |kind, figure: fn(&RunMetrics) -> f64| {
        let values: Vec<f64> = runs(kind).map(figure).collect();
        values.iter().sum::<f64>() / values.len() as f64
    };
    let bandwidth_x = comparison.bandwidth_speedup(SchedulerKind::Spk3, SchedulerKind::Vas);
    let latency_pct = 100.0 * comparison.latency_reduction(SchedulerKind::Spk3, SchedulerKind::Vas);
    let spk3_rounds: u64 = runs(SchedulerKind::Spk3)
        .map(|m| m.telemetry.sched_rounds)
        .sum();
    let spk3_faro: u64 = runs(SchedulerKind::Spk3)
        .map(|m| m.telemetry.faro_fast_path_rounds)
        .sum();
    let gc_vas = gc_fragmented(SchedulerKind::Vas);
    let gc_spk3 = gc_fragmented(SchedulerKind::Spk3);
    let (steady, allocs_per_io) = steady_replay(64);
    vec![
        ("fig10_spk3_vas_bandwidth_x", bandwidth_x),
        ("fig10_spk3_vas_latency_reduction_pct", latency_pct),
        ("fig10_spk3_sched_rounds_total", spk3_rounds as f64),
        ("fig10_spk3_faro_fast_path_rounds_total", spk3_faro as f64),
        (
            "fig10_spk3_chip_utilization",
            mean(SchedulerKind::Spk3, |m| m.chip_utilization),
        ),
        (
            "fig10_vas_chip_utilization",
            mean(SchedulerKind::Vas, |m| m.chip_utilization),
        ),
        (
            "fig10_spk3_intra_chip_idleness",
            mean(SchedulerKind::Spk3, |m| m.intra_chip_idleness),
        ),
        (
            "fig10_vas_intra_chip_idleness",
            mean(SchedulerKind::Vas, |m| m.intra_chip_idleness),
        ),
        ("gc_fragmented_vas_kbps", gc_vas.bandwidth_kb_per_sec),
        ("gc_fragmented_spk3_kbps", gc_spk3.bandwidth_kb_per_sec),
        (
            "gc_fragmented_spk3_pages_migrated",
            gc_spk3.gc.pages_migrated as f64,
        ),
        (
            "steady_replay_stream_admissions",
            steady.telemetry.stream_admissions as f64,
        ),
        ("steady_state_allocs_per_io", allocs_per_io),
    ]
}

/// `BENCH_scaling.json`: the quick-scale scaling panel at 16 and 64 chips.
fn scaling_metrics() -> Vec<(&'static str, f64)> {
    let result = fig15_scaling::run(&ExperimentScale::quick(), Some(&[16, 64]), Some(&[32]));
    let point = |chips, kind| {
        result
            .point(chips, 32, kind)
            .expect("swept point exists")
            .bandwidth_kb_per_sec
    };
    let rounds = |chips, kind| {
        result
            .point(chips, 32, kind)
            .expect("swept point exists")
            .sched_rounds as f64
    };
    let (steady_1024, allocs_per_io_1024) = steady_replay(1024);
    vec![
        ("scaling_vas_16chips_kbps", point(16, SchedulerKind::Vas)),
        ("scaling_vas_64chips_kbps", point(64, SchedulerKind::Vas)),
        ("scaling_spk3_16chips_kbps", point(16, SchedulerKind::Spk3)),
        ("scaling_spk3_64chips_kbps", point(64, SchedulerKind::Spk3)),
        (
            "scaling_spk3_vas_speedup_64chips",
            result.speedup(64, 32).expect("both schedulers ran"),
        ),
        // Round totals are exact telemetry counts: any change to the round
        // loop's decision stream (not just its speed) moves these and trips
        // the 0.1% gate.
        (
            "scaling_vas_64chips_sched_rounds",
            rounds(64, SchedulerKind::Vas),
        ),
        (
            "scaling_spk3_64chips_sched_rounds",
            rounds(64, SchedulerKind::Spk3),
        ),
        (
            "steady_replay_1024chips_sched_rounds",
            steady_1024.telemetry.sched_rounds as f64,
        ),
        ("steady_state_allocs_per_io_1024chips", allocs_per_io_1024),
    ]
}

/// `BENCH_array.json`: the array scale-out sweep at quick scale, plus the
/// adaptive-placement figures — the skew acceptance triple (uniform /
/// hot-shard / hot-shard-rebalance at the skew figure horizon) and the
/// modular-hot-set and heterogeneous headline cells, with the rebalancer's
/// telemetry counters baselined from the merged summary so the whole
/// heat-track → migrate → merge path sits under the perf gate.
fn array_metrics() -> Vec<(&'static str, f64)> {
    let scale = ExperimentScale::quick();
    let spk3 = |devices| scenario::array_scaleout_metrics(&scale, devices, SchedulerKind::Spk3);
    let n1 = spk3(1);
    let n4 = spk3(4);
    let n16 = spk3(16);
    let vas16 = scenario::array_scaleout_metrics(&scale, 16, SchedulerKind::Vas);
    // The summary carries the merged per-device telemetry and latency
    // histogram; baselining counters from it keeps the array merge path
    // itself under the perf gate.
    let n16_summary = n16.summary_run_metrics();
    let skew = |label| scenario::array_skew_figure_metrics(&scale, label, SchedulerKind::Spk3);
    let uniform = skew("uniform");
    let hot = skew("hot-shard");
    let rebalanced = skew("hot-shard-rebalance");
    // The headline acceptance figure: what fraction of the hot shard's
    // bandwidth cost the rebalancer claws back (0 = no better than static,
    // 1 = fully recovered to the uniform workload's bandwidth).
    let recovered = (rebalanced.bandwidth_kb_per_sec - hot.bandwidth_kb_per_sec)
        / (uniform.bandwidth_kb_per_sec - hot.bandwidth_kb_per_sec);
    let reb_adaptive = scenario::array_rebalance_metrics(&scale, "adaptive", SchedulerKind::Spk3);
    let reb_static = scenario::array_rebalance_metrics(&scale, "static", SchedulerKind::Spk3);
    let reb_telemetry = reb_adaptive.summary_run_metrics().telemetry;
    let het_adaptive = scenario::array_hetero_metrics(&scale, "adaptive", SchedulerKind::Spk3);
    let het_static = scenario::array_hetero_metrics(&scale, "static", SchedulerKind::Spk3);
    vec![
        ("array_spk3_n1_kbps", n1.bandwidth_kb_per_sec),
        ("array_spk3_n4_kbps", n4.bandwidth_kb_per_sec),
        ("array_spk3_n16_kbps", n16.bandwidth_kb_per_sec),
        ("array_vas_n16_kbps", vas16.bandwidth_kb_per_sec),
        (
            "array_spk3_scaleout_x_n16_over_n1",
            n16.bandwidth_kb_per_sec / n1.bandwidth_kb_per_sec,
        ),
        ("array_spk3_n16_io_imbalance", n16.skew.io_imbalance),
        (
            "array_spk3_n16_sched_rounds",
            n16_summary.telemetry.sched_rounds as f64,
        ),
        (
            "array_spk3_n16_p99_latency_ns",
            n16_summary.p99_latency_ns as f64,
        ),
        ("array_skew_uniform_kbps", uniform.bandwidth_kb_per_sec),
        ("array_skew_hot_shard_kbps", hot.bandwidth_kb_per_sec),
        ("array_skew_rebalance_kbps", rebalanced.bandwidth_kb_per_sec),
        ("array_skew_hot_shard_io_imbalance", hot.skew.io_imbalance),
        (
            "array_skew_rebalance_io_imbalance",
            rebalanced.skew.io_imbalance,
        ),
        ("array_skew_gap_recovered_frac", recovered),
        (
            "array_skew_rebalance_stripes_migrated",
            rebalanced.stripes_migrated as f64,
        ),
        (
            "array_rebalance_static_kbps",
            reb_static.bandwidth_kb_per_sec,
        ),
        (
            "array_rebalance_adaptive_kbps",
            reb_adaptive.bandwidth_kb_per_sec,
        ),
        (
            "array_rebalance_adaptive_io_imbalance",
            reb_adaptive.skew.io_imbalance,
        ),
        (
            "array_rebalance_stripes_migrated",
            reb_telemetry.stripes_migrated as f64,
        ),
        (
            "array_rebalance_migration_bytes",
            reb_telemetry.migration_bytes as f64,
        ),
        (
            "array_rebalance_heat_decays",
            reb_telemetry.heat_decays as f64,
        ),
        ("array_hetero_static_kbps", het_static.bandwidth_kb_per_sec),
        (
            "array_hetero_adaptive_kbps",
            het_adaptive.bandwidth_kb_per_sec,
        ),
        (
            "array_hetero_static_weighted_io_imbalance",
            het_static.skew.weighted_io_imbalance,
        ),
        (
            "array_hetero_adaptive_weighted_io_imbalance",
            het_adaptive.skew.weighted_io_imbalance,
        ),
    ]
}

/// `BENCH_tenants.json`: the multi-tenant serving front at quick scale — the
/// tenant-mix fairness and per-class p99 figures, and the tenant-storm
/// isolation contract (victim p99 ratios pinned at 1.0-ish, storm-tenant p99
/// ratio showing the blast landed on the storming tenant), plus the mux's
/// admission telemetry so the DRR/bucket decision stream itself is gated.
fn tenant_metrics() -> Vec<(&'static str, f64)> {
    let scale = ExperimentScale::quick();
    let mix = scenario::tenant_mix_outcome(&scale, SchedulerKind::Spk3);
    let p99 = |outcome: &sprinkler_tenants::TenantOutcome, name: &str| {
        outcome
            .metrics
            .tenants
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.p99_latency_ns as f64)
            .expect("tenant lane exists")
    };
    let baseline = scenario::tenant_storm_outcome(&scale, "baseline", SchedulerKind::Spk3);
    let storm = scenario::tenant_storm_outcome(&scale, "storm", SchedulerKind::Spk3);
    let telemetry = &storm.metrics.telemetry;
    vec![
        ("tenant_mix_spk3_fairness_index", mix.fairness_index()),
        (
            "tenant_mix_spk3_interactive_p99_ns",
            p99(&mix, "interactive"),
        ),
        ("tenant_mix_spk3_streaming_p99_ns", p99(&mix, "streaming")),
        ("tenant_mix_spk3_batch_p99_ns", p99(&mix, "batch")),
        (
            "tenant_mix_spk3_interactive_slo_violations",
            mix.metrics
                .tenants
                .iter()
                .find(|t| t.name == "interactive")
                .map(|t| t.slo_violations as f64)
                .expect("interactive lane exists"),
        ),
        (
            "tenant_storm_spk3_interactive_p99_ratio",
            p99(&storm, "interactive") / p99(&baseline, "interactive"),
        ),
        (
            "tenant_storm_spk3_streaming_p99_ratio",
            p99(&storm, "streaming") / p99(&baseline, "streaming"),
        ),
        (
            "tenant_storm_spk3_batch_p99_ratio",
            p99(&storm, "batch") / p99(&baseline, "batch"),
        ),
        ("tenant_storm_spk3_fairness_index", storm.fairness_index()),
        (
            "tenant_storm_spk3_admissions",
            telemetry.tenant_admissions as f64,
        ),
        (
            "tenant_storm_spk3_deferrals",
            telemetry.tenant_deferrals as f64,
        ),
        (
            "tenant_storm_spk3_throttles",
            telemetry.tenant_throttles as f64,
        ),
    ]
}

// ---------------------------------------------------------------------------
// The baseline files: one row each, rendered by one JSON writer
// ---------------------------------------------------------------------------

/// One committed baseline file.
struct Baseline {
    file: &'static str,
    /// `(key, JSON value)` pairs saying what the figures are, written
    /// verbatim ahead of `metrics_check`.
    context: &'static [(&'static str, &'static str)],
    /// Recomputes the file's `metrics_check` figures.
    metrics: fn() -> Vec<(&'static str, f64)>,
}

const BASELINES: [Baseline; 4] = [
    Baseline {
        file: "BENCH_seed.json",
        context: &[
            (
                "scale",
                r#"{ "ios_per_workload": 200, "blocks_per_plane": 32, "note": "fig10 at bench scale; the steady_* keys are the zero-allocation steady-state replay at 64 chips" }"#,
            ),
            (
                "paper",
                r#"{ "spk3_vs_vas_bandwidth_x": [1.8, 2.2], "spk3_vs_vas_latency_reduction_min_pct": 56.6, "note": "the bench-scale run overshoots the paper's bandwidth ratio; directionally correct" }"#,
            ),
        ],
        metrics: seed_metrics,
    },
    Baseline {
        file: "BENCH_scaling.json",
        context: &[(
            "scale",
            r#"{ "ios_per_workload": 300, "blocks_per_plane": 32, "transfer_kb": 32, "note": "fig15_scaling at quick scale, 16 and 64 chips; the steady_* keys are the zero-allocation steady-state replay at 1024 chips" }"#,
        )],
        metrics: scaling_metrics,
    },
    Baseline {
        file: "BENCH_array.json",
        context: &[(
            "scenario",
            r#""array-scaleout: one 256KB-transfer workload striped over n devices at a fixed 64-chip budget and fixed 512MB footprint (32KB stripes); plus adaptive-placement figures: array-skew uniform/hot-shard/hot-shard-rebalance at the 12x figure horizon, array-rebalance and array-hetero static/adaptive cells with the rebalancer's migration telemetry; all at quick scale to match the CI scenario run""#,
        )],
        metrics: array_metrics,
    },
    Baseline {
        file: "BENCH_tenants.json",
        context: &[
            (
                "scenario",
                r#""tenant-mix: interactive (95% 4KB random reads, 5ms SLO) + streaming (sequential 256KB reads, 50ms SLO) + batch (128KB writes behind a 64MB/s token bucket) sharing one device through the deficit-round-robin admission front; tenant-storm: the same tenants with the batch lane at 8x volume in one dense burst — the *_p99_ratio keys are storm/baseline per victim and must stay within the isolation bound while the batch ratio shows the storm cost its sender; all at quick scale to match the CI scenario run""#,
            ),
            (
                "isolation_contract",
                r#"{ "storm_factor": 8, "victim_p99_bound_x": 2.0, "note": "tenant_storm_spk3_interactive_p99_ratio and tenant_storm_spk3_streaming_p99_ratio must hold under victim_p99_bound_x; asserted by scenario::tests::tenant_storm_holds_isolated_tenant_p99 and gated here" }"#,
            ),
        ],
        metrics: tenant_metrics,
    },
];

/// Renders one baseline file: the stamp, the context, and the
/// `metrics_check` object (4-decimal values; the gate's tolerance absorbs
/// the rounding).
fn render(baseline: &Baseline, label: &str, date: &str, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\n  \"baseline\": \"{label}\",\n  \"date\": \"{date}\",\n  \"command\": \"cargo run --release -p sprinkler_experiments --bin regen_baselines -- --label '...'\",\n"
    );
    for (key, value) in baseline.context {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str(&format!(
        "  \"metrics_check\": {{\n    \"tolerance_rel\": {CHECK_TOLERANCE},\n    \"note\": \"simulated figures, deterministic across machines; checked by regen_baselines --check\""
    ));
    for (key, value) in metrics {
        out.push_str(&format!(",\n    \"{key}\": {value:.4}"));
    }
    out.push_str("\n  }\n}\n");
    out
}

// ---------------------------------------------------------------------------
// The --check gate
// ---------------------------------------------------------------------------

/// Pulls the number following `"key":` out of a baseline file written by this
/// binary (flat keys, one per line — not a general JSON parser).
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Recomputes one baseline's deterministic metrics and diffs them against the
/// committed file.  Returns the number of drifted or missing keys.
fn check_file(root: &std::path::Path, file: &str, expected: &[(&str, f64)]) -> usize {
    let path = root.join(file);
    let committed = match std::fs::read_to_string(&path) {
        Ok(content) => content,
        Err(error) => {
            println!("FAIL {file}: cannot read {}: {error}", path.display());
            return expected.len();
        }
    };
    let mut drifted = 0;
    for (key, actual) in expected {
        match extract_number(&committed, key) {
            None => {
                println!("FAIL {file}: key {key} missing (regenerate the baselines)");
                drifted += 1;
            }
            Some(baseline) => {
                let scale = baseline.abs().max(1e-12);
                let rel = (actual - baseline).abs() / scale;
                if rel > CHECK_TOLERANCE {
                    println!(
                        "FAIL {file}: {key} drifted: baseline {baseline:.4}, recomputed \
                         {actual:.4} (rel {rel:.2e} > {CHECK_TOLERANCE:.0e})"
                    );
                    drifted += 1;
                } else {
                    println!("  ok {file}: {key} = {actual:.4} (baseline {baseline:.4})");
                }
            }
        }
    }
    drifted
}

// ---------------------------------------------------------------------------
// The command line
// ---------------------------------------------------------------------------

const USAGE: &str = "usage: regen_baselines [--check | --label <text>]";

/// Parses the arguments after the program name into `--check` or the
/// `--label` text.  Anything else is an error, so a typo such as `--chek`
/// cannot turn the gate into a re-baseline.
fn parse_args<'a>(
    args: impl IntoIterator<Item = &'a str>,
) -> Result<(bool, Option<&'a str>), String> {
    let (mut check, mut label) = (false, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg {
            "--check" if label.is_none() => check = true,
            "--label" if !check => label = Some(args.next().ok_or("--label needs a value")?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok((check, label))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (check, label) = match parse_args(args.iter().map(String::as_str)) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("regen_baselines: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = workspace_root();
    if check {
        // The CI perf-regression gate: a change that shifts a headline
        // simulated result cannot land without a deliberate re-baseline.
        let drifted: usize = BASELINES
            .iter()
            .map(|baseline| check_file(&root, baseline.file, &(baseline.metrics)()))
            .sum();
        if drifted > 0 {
            println!(
                "perf gate FAILED: {drifted} metric(s) drifted. If the change is intentional, \
                 regenerate with: cargo run --release -p sprinkler_experiments --bin \
                 regen_baselines -- --label '<change description>'"
            );
            return ExitCode::FAILURE;
        }
        println!("perf gate OK: all committed baseline metrics reproduced");
        return ExitCode::SUCCESS;
    }
    let date = today();
    // Every committed re-baseline should say which change it belongs to; an
    // unlabeled run is still usable but self-identifies as such.
    let label = json_escape(&label.map_or_else(
        || format!("unlabeled regen_baselines run ({date}); pass --label '<change description>'"),
        str::to_string,
    ));
    for baseline in &BASELINES {
        let metrics = (baseline.metrics)();
        let path = root.join(baseline.file);
        if let Err(error) = std::fs::write(&path, render(baseline, &label, &date, &metrics)) {
            println!("cannot write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        println!("rewrote {} ({} figures)", baseline.file, metrics.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    /// Regression: unknown arguments were ignored, so `--chek` (a typo for
    /// `--check`) rewrote every baseline file instead of checking them.
    #[test]
    fn parse_args_accepts_check_or_a_label_and_nothing_else() {
        assert_eq!(parse_args([]), Ok((false, None)));
        assert_eq!(parse_args(["--check"]), Ok((true, None)));
        assert_eq!(parse_args(["--label", "a b"]), Ok((false, Some("a b"))));
        let rejected: [&[&str]; 4] = [
            &["--chek"],
            &["check"],
            &["--label"],
            &["--check", "--label", "x"],
        ];
        for args in rejected {
            assert!(parse_args(args.iter().copied()).is_err(), "{args:?}");
        }
    }
}
