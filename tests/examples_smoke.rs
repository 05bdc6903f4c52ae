//! Smoke coverage for `examples/`: every example must build, run to
//! completion, and produce output. This keeps the examples from rotting as the
//! API evolves — an example that no longer compiles fails this test, not a
//! human following the docs.
//!
//! Also smoke-runs the 1024-chip point of the scaling experiment directly (in
//! this process, at quick scale) so the paper's largest configuration stays
//! exercised by `cargo test` even where spawning `cargo run` is too slow.

use std::process::Command;

use sprinkler::experiments::fig15_scaling;
use sprinkler::experiments::runner::ExperimentScale;

/// Every file in `examples/`, kept in sync by `covers_every_example_file`.
const EXAMPLES: [&str; 7] = [
    "quickstart",
    "scheduler_shootout",
    "enterprise_traces",
    "gc_pressure",
    "scaling_study",
    "trace_replay",
    "array_frontend",
];

/// Runs the examples sequentially through `cargo run` (sequential so the
/// invocations don't contend on the build-directory lock).
#[test]
fn every_example_runs_to_completion() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    for example in EXAMPLES {
        let output = Command::new(&cargo)
            .args(["run", "--quiet", "--offline", "--example", example])
            .env("CARGO_TERM_COLOR", "never")
            .output()
            .unwrap_or_else(|e| panic!("failed to launch cargo for example {example}: {e}"));
        assert!(
            output.status.success(),
            "example {example} exited with {:?}\nstderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            !stdout.trim().is_empty(),
            "example {example} printed nothing to stdout"
        );
    }
}

/// The paper's largest configuration — 1024 chips — runs as a first-class
/// experiment point at quick scale: both schedulers complete the sweep point and
/// report sane metrics.
#[test]
fn scaling_1024_chip_point_runs_at_quick_scale() {
    let scale = ExperimentScale::quick();
    let cells = fig15_scaling::run(&scale, Some(&[1024]), Some(&[64]));
    assert_eq!(cells.len(), 2, "one cell per scheduler");
    for cell in &cells {
        assert_eq!(cell.key, (1024, 64));
        assert!(
            cell.metrics.bandwidth_kb_per_sec > 0.0,
            "{} produced no bandwidth",
            cell.scheduler
        );
        assert!((0.0..=1.0).contains(&cell.metrics.chip_utilization));
        assert!(cell.metrics.iops > 0.0);
    }
    assert!(fig15_scaling::panel(&cells, 64).render().contains("1024"));
}

/// The EXAMPLES list above must name exactly the files in `examples/`.
#[test]
fn covers_every_example_file() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/ directory exists")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = EXAMPLES.iter().map(|s| s.to_string()).collect();
    listed.sort();
    assert_eq!(
        listed, on_disk,
        "EXAMPLES in tests/examples_smoke.rs is out of sync with examples/"
    );
}
