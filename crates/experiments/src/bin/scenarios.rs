//! Runs the named-scenario registry from the command line:
//!
//! ```sh
//! cargo run --release -p sprinkler_experiments --bin scenarios -- --quick
//! cargo run --release -p sprinkler_experiments --bin scenarios -- enterprise-replay
//! ```
//!
//! With no arguments, runs every registered scenario at full scale.  Pass
//! `--quick` (or `--bench`) for a smaller run, and/or scenario names to run a
//! subset.  Any other argument prints the usage and exits 2 before anything
//! runs.

use std::time::Instant;

use sprinkler_experiments::runner::ExperimentScale;
use sprinkler_experiments::{scenario, SCENARIO_NAMES};

const USAGE: &str = "usage: scenarios [--quick | --bench | --full] [scenario ...]";

/// Reports a rejected argument and exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("scenarios: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Scale flags (--quick / --bench / --full) resolve through the shared
    // helper so every binary agrees on what each mode means.
    let scale = ExperimentScale::from_args(args.iter().map(String::as_str))
        .unwrap_or_else(|flag| usage_error(&format!("unknown flag {flag:?}")));
    let requested: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if let Some(name) = requested.iter().find(|n| !SCENARIO_NAMES.contains(n)) {
        usage_error(&format!(
            "unknown scenario {name:?}; registered: {}",
            SCENARIO_NAMES.join(", ")
        ));
    }
    let names: Vec<&str> = if requested.is_empty() {
        SCENARIO_NAMES.to_vec()
    } else {
        requested
    };

    for name in names {
        let start = Instant::now();
        let outcome = scenario::run(name, &scale).expect("checked against SCENARIO_NAMES");
        println!("{}", outcome.table().render());
        println!(
            "{} cells in {:.2} s\n",
            outcome.cells.len(),
            start.elapsed().as_secs_f64()
        );
        // Every scenario must complete all of its work; a silent empty cell
        // set would let CI pass while covering nothing.
        assert!(!outcome.cells.is_empty());
        assert!(outcome.cells.iter().all(|c| c.metrics.io_count > 0));
    }
}
