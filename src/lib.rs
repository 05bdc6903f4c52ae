//! Sprinkler — a reproduction of *"Sprinkler: Maximizing Resource Utilization in
//! Many-Chip Solid State Disks"* (Jung & Kandemir, HPCA 2014) as a Rust workspace.
//!
//! This facade crate re-exports the workspace's crates under one roof so examples,
//! integration tests, and downstream users can depend on a single package:
//!
//! * [`sim`] — discrete-event simulation primitives (time, event queue, RNG, stats).
//! * [`flash`] — the NAND flash microarchitecture model (geometry, ONFI timing,
//!   bus-phase cycle counts, transactions and their coalescing rules).
//! * [`ssd`] — the many-chip SSD substrate (NVMHC queue, DMA, flash controllers,
//!   channels, page-level FTL with GC, metrics, and the `IoScheduler` trait).
//! * [`core`] — the paper's contribution: VAS, PAS, and the Sprinkler schedulers
//!   (RIOS, FARO, SPK1/2/3).
//! * [`workloads`] — synthetic Table 1 enterprise traces, microbenchmark sweeps,
//!   the streaming `TraceSource` abstraction, and the MSR-CSV/blkparse text-trace
//!   parser with its embedded sample corpus.
//! * [`array`](mod@array) — the multi-SSD array frontend: stripes one logical address
//!   space across N independent Sprinkler devices and replays traces in
//!   parallel with merged host-level metrics.
//! * [`tenants`] — the multi-tenant serving front: deficit-round-robin
//!   fair-share admission with priority classes, token-bucket burst
//!   isolation, and per-tenant QoS metrics ahead of the device scheduler.
//! * [`experiments`] — one module per table/figure of the paper's evaluation,
//!   the streaming replay boundary (bounded admission + logical-capacity
//!   validation), and the named-scenario registry.
//!
//! # Quickstart
//!
//! ```
//! use sprinkler::core::SchedulerKind;
//! use sprinkler::ssd::{Ssd, SsdConfig};
//! use sprinkler::workloads::SyntheticSpec;
//! use sprinkler::experiments::to_host_requests;
//!
//! let config = SsdConfig::paper_default().with_blocks_per_plane(32);
//! let trace = SyntheticSpec::new("quickstart").generate(100, 42);
//! let requests = to_host_requests(&trace, config.page_size());
//! let ssd = Ssd::new(config, SchedulerKind::Spk3.build()).unwrap();
//! let metrics = ssd.run(requests);
//! assert_eq!(metrics.io_count, 100);
//! ```
//!
//! # Building and testing
//!
//! The workspace is self-contained (its one external dependency, `proptest`,
//! is an offline shim under `vendor/`); from a clean checkout:
//!
//! ```text
//! cargo build --release   # every crate
//! cargo test -q           # unit + integration + property + doc tests
//! ```
//!
//! Host time is measured by `perfbench/`, a package of its own (see its
//! README).
//!
//! Crate dependency order (each depends on the ones before it):
//! `sprinkler_sim` → `sprinkler_flash` → `sprinkler_ssd` → `sprinkler_core`,
//! with `sprinkler_workloads` (only needing `sim`), `sprinkler_array` (the
//! striped multi-device frontend), and `sprinkler_tenants` (the fair-share
//! admission front) feeding `sprinkler_experiments` on top.  `ARCHITECTURE.md` at the repo root walks the whole graph.

#![warn(missing_docs)]

pub use sprinkler_array as array;
pub use sprinkler_core as core;
pub use sprinkler_experiments as experiments;
pub use sprinkler_flash as flash;
pub use sprinkler_sim as sim;
pub use sprinkler_ssd as ssd;
pub use sprinkler_tenants as tenants;
pub use sprinkler_workloads as workloads;
