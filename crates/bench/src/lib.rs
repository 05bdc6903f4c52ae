//! Shared helpers for the benchmark harness.
//!
//! The bench targets in `benches/` time the simulator on the host, one layer
//! each: scheduling rounds and one small run per scheduler
//! (`scheduler_micro`), 1024-chip sweep points (`scaling_1024`), streaming
//! ingestion (`streaming_replay`), the array frontend (`array_scaleout`,
//! `placement_rebalance`), and the tenant front (`tenant_fairness`).
//!
//! # Example
//!
//! The small run `scheduler_micro` times once per scheduler:
//!
//! ```
//! use sprinkler_core::SchedulerKind;
//!
//! let metrics = sprinkler_bench::representative_run(SchedulerKind::Spk3);
//! assert_eq!(metrics.io_count, 120);
//! ```

#![warn(missing_docs)]

use sprinkler_core::SchedulerKind;
use sprinkler_experiments::runner::ExperimentScale;
use sprinkler_ssd::RunMetrics;

/// The scale used by bench targets: small enough that `cargo bench` finishes in
/// minutes, large enough that every qualitative trend of the paper still shows.
pub fn bench_scale() -> ExperimentScale {
    sprinkler_experiments::micro::bench_scale()
}

/// A single small simulation run used as the Criterion measurement body (the
/// shared recipe from `sprinkler_experiments::micro`).
pub fn representative_run(kind: SchedulerKind) -> RunMetrics {
    sprinkler_experiments::micro::representative_run(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_run_completes() {
        let metrics = representative_run(SchedulerKind::Spk3);
        assert_eq!(metrics.io_count, 120);
    }

    #[test]
    fn bench_scale_is_quick() {
        assert!(bench_scale().ios_per_workload <= 500);
    }
}
