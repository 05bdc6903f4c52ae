//! Prints the paper's figures and the named scenarios from the command line:
//!
//! ```sh
//! cargo run --release -p sprinkler_experiments --bin scenarios -- --quick
//! cargo run --release -p sprinkler_experiments --bin scenarios -- fig10 enterprise-replay
//! ```
//!
//! With no name, prints every registered figure and then every scenario at
//! full scale.  Pass `--quick` (or `--bench`) for a smaller run, and/or names
//! (`table1`, `fig01` … `fig17`, or a scenario) to print a subset.  Any other
//! argument prints the usage and exits 2 before anything runs.

use std::time::Instant;

use sprinkler_experiments::runner::ExperimentScale;
use sprinkler_experiments::scenario;

const USAGE: &str = "usage: scenarios [--quick | --bench | --full] [name ...]";

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
    if let Some(name) = requested
        .iter()
        .find(|&&name| !scenario::names().any(|known| known == name))
    {
        usage_error(&format!(
            "unknown name {name:?}; registered: {}",
            scenario::names().collect::<Vec<_>>().join(", ")
        ));
    }
    let names: Vec<&str> = if requested.is_empty() {
        scenario::names().collect()
    } else {
        requested
    };

    for name in names {
        let start = Instant::now();
        let tables = scenario::report(name, &scale).expect("checked against the registry");
        // An empty table would let CI pass while covering nothing.
        assert!(!tables.is_empty() && tables.iter().all(|t| t.row_count() > 0));
        for table in &tables {
            println!("{table}");
        }
        println!("{name} in {:.2} s\n", start.elapsed().as_secs_f64());
    }
}
