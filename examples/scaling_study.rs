//! Scaling study (Fig 1 and Fig 15): how bandwidth and chip utilization evolve as
//! the SSD grows from 16 to 1024 chips, under the conventional controller (VAS)
//! and under Sprinkler (SPK3).
//!
//! This drives the first-class experiment in
//! `sprinkler_experiments::fig15_scaling`; the quick scale keeps the run in the
//! seconds range while covering the full 1024-chip point.  Regenerate at paper
//! scale with `ExperimentScale::full()` (see the README's "Scaling" section).
//!
//! Run with `cargo run --example scaling_study --release`.

use sprinkler::experiments::fig15_scaling;
use sprinkler::experiments::runner::ExperimentScale;

fn main() {
    let scale = ExperimentScale::quick();
    let cells = fig15_scaling::run(&scale, None, None);
    for transfer_kb in fig15_scaling::TRANSFER_SIZES_KB {
        println!("{}", fig15_scaling::panel(&cells, transfer_kb).render());
        println!();
    }
    println!("The conventional controller stagnates (Fig 1); Sprinkler keeps scaling (Fig 15).");
}
