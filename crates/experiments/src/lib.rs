//! Experiment harness: regenerates every table and figure of the Sprinkler paper.
//!
//! Each module corresponds to one published result:
//!
//! | module      | paper content |
//! |-------------|----------------|
//! | [`table1`]  | Table 1 — trace characteristics |
//! | [`fig01`]   | Fig 1 — performance stagnation / utilization vs. number of dies |
//! | [`fig06`]   | Fig 6 — resource utilization and improvement potential |
//! | [`fig10`]   | Fig 10 — bandwidth, IOPS, latency, queue stall for VAS/PAS/SPK1-3 |
//! | [`fig11`]   | Fig 11 — inter- and intra-chip idleness |
//! | [`fig12`]   | Fig 12 — latency time series (msnfs1) |
//! | [`fig13`]   | Fig 13 — execution-time breakdown |
//! | [`fig14`]   | Fig 14 — flash-level parallelism breakdown |
//! | [`fig15`]   | Fig 15 — chip utilization vs. transfer size and chip count |
//! | [`fig15_scaling`] | Fig 1 + Fig 15 composite — the 16→1024-chip scaling sweep |
//! | [`fig16`]   | Fig 16 — flash transaction counts vs. transfer size |
//! | [`fig17`]   | Fig 17 — garbage collection / readdressing impact |
//!
//! The [`runner`] module holds the shared machinery (trace → host-request
//! conversion, parallel execution) and owns the one result type: every
//! figure and scenario is a list of [`runner::Cell`]s — a key (workload name,
//! sweep point or scenario variant), a scheduler and the run's whole
//! `RunMetrics` — fanned out by [`run_cells`] and read with [`runner::find`]
//! and [`runner::mean`]; Figs 1 and 15–17 share one chips × transfer size
//! grid.  [`replay`]
//! is the streaming [`sprinkler_workloads::TraceSource`] → SSD boundary every
//! experiment feeds through (bounded admission + logical-capacity validation),
//! [`scenario`] is the named registry — every figure above by name, plus the
//! operational scenarios (enterprise replay, GC steady-state, queue-depth
//! sweep, mixed bursts, the `sprinkler_array` frontend, tenants) — that the
//! `scenarios` binary prints, and [`report`] renders plain-text tables whose
//! rows mirror the paper's series.
//!
//! Absolute numbers differ from the paper (our substrate is a from-scratch
//! simulator, not the authors' testbed); the comparisons the paper draws — who
//! wins, by roughly what factor, and where the crossovers fall — are what these
//! experiments reproduce.  The paper-vs-measured comparison table is open item
//! 1 of `ROADMAP.md`.
//!
//! # Example
//!
//! Replay one trace through one scheduler — the primitive every figure is
//! built from:
//!
//! ```
//! use sprinkler_core::SchedulerKind;
//! use sprinkler_experiments::runner::run_one;
//! use sprinkler_ssd::SsdConfig;
//! use sprinkler_workloads::SyntheticSpec;
//!
//! let config = SsdConfig::paper_default().with_blocks_per_plane(16);
//! let trace = SyntheticSpec::new("doc").generate(50, 7);
//! let metrics = run_one(&config, SchedulerKind::Spk3, &trace);
//! assert_eq!(metrics.io_count, 50);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fig01;
pub mod fig06;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig15_scaling;
pub mod fig16;
pub mod fig17;
pub mod replay;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod table1;

pub use replay::{prefill, run_source, run_source_detailed, CapacityPolicy, ReplayError};
pub use report::Table;
pub use runner::{run_cells, run_matrix, run_one, to_host_requests, Cell, ExperimentScale};
