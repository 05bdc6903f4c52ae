//! Host-performance benchmark of the Sprinkler SSD simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! One process runs one workload on one thread.  The untraced run
//! (`--trace 0`) repeats an identical pass — `Ssd::new`, `precondition`,
//! then `Ssd::run_stream` over the seeded record stream — until `--seconds`
//! have passed, and reports the end-to-end metrics: host I/Os per second
//! inside `run_stream` and set-up seconds (medians, in reference seconds of
//! the host-speed probe), peak resident memory, and the simulated figures of
//! the run.  The traced run (`--trace 1`) alternates untraced passes, each
//! followed by an FTL replay of its page stream, with passes whose scheduler
//! and record stream are wrapped in timing spans; it reports the per-layer
//! split and writes the spans as a Chrome trace.
//!
//! Every pass is checked: the generator's own tally must match the
//! simulator's `RunMetrics`, and every pass — traced or not — must produce
//! the same `RunMetrics`, so the wrappers provably leave the simulation
//! untouched.  A mismatch makes the result `"correct": false` and the exit
//! code 1.
//!
//! Standard output carries one JSON record per pass and per metric, then
//! the result object as the last line; a readable table goes to standard
//! error.  README.md in this directory documents the metrics.

mod ftl_replay;
mod probe;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sprinkler_sim::CountingAllocator;
use sprinkler_ssd::{latency_bucket_bounds, merged_latency_quantile, RunMetrics, Ssd, SsdConfig};

use ftl_replay::FtlReplay;
use trace::{Kind, Summary, TimedPull, TimedScheduler};
use workload::{Tally, Workload, SCHEDULER};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Fewest passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 4;
/// Probe runs after each untraced pass; the median counts.
const PROBES_PER_PASS: usize = 3;
/// Quick set-ups are repeated alone before each untraced pass until this
/// long has passed...
const SETUP_SECONDS_PER_PASS: f64 = 0.03;
/// ...but no more than this many times.
const MAX_SETUPS_PER_PASS: usize = 50;
/// Spans stored for the Chrome trace (all spans are counted regardless).
const STORED_SPANS: usize = 50_000;

const USAGE: &str = "usage: perfbench --workload <msnfs1-1024|seqread256k-64|gc-steady-64> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out_dir,
    })
}

/// One pass through set-up and replay.
struct Pass {
    setup_s: f64,
    run_s: f64,
    /// Set-up-only repetitions timed just before the pass, seconds
    /// (untraced runs only).  They and the pass's own set-up start from the
    /// same heap state.
    setup_reps: Vec<f64>,
    /// Host-speed probe time right after the pass (untraced runs only).
    probe_s: Option<f64>,
    /// The FTL replay run right after the pass (untraced passes of traced
    /// runs only), so its host time is compared with a neighbour's.
    ftl: Option<FtlReplay>,
    metrics: RunMetrics,
    tally: Tally,
    /// The span summary, for traced passes.
    spans: Option<Summary>,
}

impl Pass {
    fn host_ios_per_s(&self) -> f64 {
        self.metrics.io_count as f64 / self.run_s
    }

    fn summary(&self) -> &Summary {
        self.spans
            .as_ref()
            .expect("only traced passes are summarized")
    }
}

/// The set-up a pass times: `Ssd::new` plus `precondition`.
fn set_up(workload: Workload, config: &SsdConfig, seed: u64, traced: bool) -> Ssd {
    let scheduler = if traced {
        Box::new(TimedScheduler::new(SCHEDULER.build()))
    } else {
        SCHEDULER.build()
    };
    let mut ssd = trace_if(traced, Kind::SsdNew, || {
        Ssd::new(config.clone(), scheduler).expect("benchmark configs are valid")
    });
    trace_if(traced, Kind::Precondition, || {
        ssd.precondition(workload.fill(), Workload::precondition_seed(seed))
    });
    ssd
}

/// Runs `f` inside a span when `traced`, bare otherwise.
fn trace_if<R>(traced: bool, kind: Kind, f: impl FnOnce() -> R) -> R {
    if traced {
        trace::timed(kind, f)
    } else {
        f()
    }
}

fn run_pass(workload: Workload, config: &SsdConfig, seed: u64, traced: bool) -> Pass {
    if traced {
        trace::reset(STORED_SPANS);
    }
    let start = Instant::now();
    let ssd = trace_if(traced, Kind::Setup, || {
        set_up(workload, config, seed, traced)
    });
    let setup_s = start.elapsed().as_secs_f64();
    let mut requests = workload.requests(config, seed);
    let (metrics, run_s) = if traced {
        let mut pull = TimedPull::new(&mut requests, workload.warmup());
        let start = Instant::now();
        let metrics = trace::timed(Kind::RunStream, || ssd.run_stream(&mut pull));
        (metrics, start.elapsed().as_secs_f64())
    } else {
        let start = Instant::now();
        let metrics = ssd.run_stream(&mut requests);
        (metrics, start.elapsed().as_secs_f64())
    };
    Pass {
        setup_s,
        run_s,
        setup_reps: Vec::new(),
        probe_s: None,
        ftl: None,
        metrics,
        tally: requests.tally(),
        spans: traced.then(trace::summary),
    }
}

/// A named measurement.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&mut passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Latency quantile `q` in µs from the run's 2×-bucket histogram, linearly
/// interpolated by rank inside the bucket `merged_latency_quantile` picks.
fn latency_quantile_us(metrics: &RunMetrics, q: f64) -> f64 {
    let bounds = latency_bucket_bounds();
    let total: u64 = metrics.latency_buckets.iter().sum();
    let target = q * total as f64;
    let mut seen = 0u64;
    for (index, &count) in metrics.latency_buckets.iter().enumerate() {
        if count > 0 && (seen + count) as f64 >= target {
            let low = if index == 0 { 0 } else { bounds[index - 1] };
            let high = bounds.get(index).copied().unwrap_or(metrics.max_latency_ns);
            let within = ((target - seen as f64) / count as f64).clamp(0.0, 1.0);
            return (low as f64 + within * high.saturating_sub(low) as f64) / 1e3;
        }
        seen += count;
    }
    0.0
}

/// Checks every pass: tally against metrics, and identical metrics across
/// passes (traced or not).
fn check_passes(passes: &[Pass], config: &SsdConfig, failures: &mut Vec<String>) {
    let first = &passes[0].metrics;
    for (index, pass) in passes.iter().enumerate() {
        for mismatch in pass.tally.mismatches(&pass.metrics, config.gc.enabled) {
            failures.push(format!("pass {index}: {mismatch}"));
        }
        if pass.metrics != *first {
            failures.push(format!(
                "pass {index} (traced: {}) simulated differently from pass 0: rounds {} vs {}, \
                 transactions {} vs {}, memory requests {} vs {}, GC runs {} vs {}",
                pass.spans.is_some(),
                pass.metrics.telemetry.sched_rounds,
                first.telemetry.sched_rounds,
                pass.metrics.transactions,
                first.transactions,
                pass.metrics.memory_requests,
                first.memory_requests,
                pass.metrics.gc.invocations,
                first.gc.invocations,
            ));
        }
        if let Some(spans) = &pass.spans {
            let rounds = spans.of(Kind::Schedule).count;
            if rounds != pass.metrics.telemetry.sched_rounds {
                failures.push(format!(
                    "pass {index}: {rounds} timed scheduling rounds, telemetry counts {}",
                    pass.metrics.telemetry.sched_rounds
                ));
            }
        }
    }
    for q in [0.5, 0.99] {
        let bound_us = merged_latency_quantile([first], q) as f64 / 1e3;
        if latency_quantile_us(first, q) > bound_us {
            failures.push(format!(
                "interpolated p{} exceeds its bucket bound",
                q * 100.0
            ));
        }
    }
}

/// Times set-up alone — `Ssd::new` plus `precondition`, dropping the device
/// untimed — until [`SETUP_SECONDS_PER_PASS`] have passed (at most
/// [`MAX_SETUPS_PER_PASS`] times).  Runs before every untraced pass, so
/// quick set-ups get enough samples, spread over the whole run.
fn time_setups(args: &Args, config: &SsdConfig) -> Vec<f64> {
    let start = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < MAX_SETUPS_PER_PASS
        && start.elapsed().as_secs_f64() < SETUP_SECONDS_PER_PASS
    {
        let begin = Instant::now();
        let ssd = set_up(args.workload, config, args.seed, false);
        setups.push(begin.elapsed().as_secs_f64());
        drop(ssd);
    }
    setups
}

/// Repeats passes until `--seconds` have passed (and at least
/// [`MIN_PASSES`] ran).  Untraced runs time set-up repetitions before each
/// pass and the host-speed probe after it; traced runs alternate untraced
/// and traced passes.
fn run_passes(args: &Args, config: &SsdConfig) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let kinds: &[bool] = if args.traced {
        &[false, true]
    } else {
        &[false]
    };
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        for &traced in kinds {
            let setup_reps = if args.traced {
                Vec::new()
            } else {
                time_setups(args, config)
            };
            let mut pass = Pass {
                setup_reps,
                ..run_pass(args.workload, config, args.seed, traced)
            };
            if !args.traced {
                let mut probes: Vec<f64> = (0..PROBES_PER_PASS).map(|_| probe::probe_s()).collect();
                pass.probe_s = Some(median(&mut probes));
            } else if !traced {
                pass.ftl = Some(replay_ftl(args, config));
            }
            passes.push(pass);
        }
    }
    passes
}

/// Replays the pass's page stream, regenerated from the seed, through an FTL
/// built and pre-conditioned as the pass's device was.
fn replay_ftl(args: &Args, config: &SsdConfig) -> FtlReplay {
    let requests: Vec<_> = args.workload.requests(config, args.seed).collect();
    ftl_replay::replay(
        config,
        args.workload.fill(),
        Workload::precondition_seed(args.seed),
        &requests,
    )
}

fn end_to_end(passes: &[Pass], failures: &mut Vec<String>) -> Vec<Metric> {
    let rss = peak_rss_mb().unwrap_or_else(|| {
        failures.push("cannot read VmHWM from /proc/self/status".to_string());
        0.0
    });
    // Host seconds become reference seconds, so a run on a machine (or in a
    // moment) k times slower than the reference reads the same: each pass,
    // and the set-ups before it, is scaled by the mean of the probe times
    // bracketing it.
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut before = None;
    for pass in passes {
        let after = pass.probe_s.unwrap_or(f64::NAN);
        let speed = (before.unwrap_or(after) + after) / 2.0 / probe::REFERENCE_S;
        rates.push(pass.host_ios_per_s() * speed);
        setups.extend(
            pass.setup_reps
                .iter()
                .chain([&pass.setup_s])
                .map(|s| s / speed),
        );
        before = Some(after);
    }
    let m = &passes[0].metrics;
    vec![
        metric("host_ios_per_s", median(&mut rates), "1/s"),
        metric("setup_s", median(&mut setups), "s"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("sim_bandwidth_mbps", m.bandwidth_mb_per_sec(), "MB/s"),
        metric("sim_latency_mean_us", m.avg_latency_ns / 1e3, "us"),
        metric("sim_latency_p50_us", latency_quantile_us(m, 0.5), "us"),
        metric("sim_latency_p99_us", latency_quantile_us(m, 0.99), "us"),
    ]
}

fn per_layer(args: &Args, passes: &[Pass], failures: &mut Vec<String>) -> Vec<Metric> {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| p.spans.is_none()).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.spans.is_some()).collect();
    let core_ns = |s: &Summary| {
        (s.of(Kind::Schedule).total_ns
            + s.of(Kind::OnComplete).total_ns
            + s.of(Kind::OnReaddress).total_ns) as f64
    };
    let pull_ns = |s: &Summary| s.of(Kind::Pull).total_ns as f64;
    let run_ns = |s: &Summary| s.of(Kind::RunStream).total_ns as f64;
    let ios = passes[0].metrics.io_count as f64;
    let per_io = |f: &dyn Fn(&Summary) -> f64| median_of(&traced, |p| f(p.summary()) / ios);
    let share =
        |f: &dyn Fn(&Summary) -> f64| median_of(&traced, |p| f(p.summary()) / run_ns(p.summary()));
    let self_ns = |s: &Summary| run_ns(s) - core_ns(s) - pull_ns(s);

    let last = traced[traced.len() - 1].summary();
    let m = &passes[0].metrics;
    let t = &m.telemetry;
    let pages = passes[0].tally.pages as f64;
    let rounds = last.of(Kind::Schedule).count as f64;
    let kio = ios / 1e3;
    let warmup = args.workload.warmup() as f64;
    let core_allocs = [Kind::Schedule, Kind::OnComplete, Kind::OnReaddress]
        .iter()
        .map(|&k| last.of(k).window_allocs)
        .sum::<u64>();
    let ssd_allocs = last
        .window_allocs
        .saturating_sub(core_allocs + last.of(Kind::Pull).window_allocs);

    let untraced_rate = median_of(&untraced, Pass::host_ios_per_s);
    let traced_rate = median_of(&traced, Pass::host_ios_per_s);
    let replay = |p: &Pass| {
        p.ftl
            .expect("untraced passes of a traced run replay the FTL")
    };
    let ftl = replay(untraced[0]);
    if ftl.failed_allocs > 0 {
        failures.push(format!(
            "{} writes found the device full",
            ftl.failed_allocs
        ));
    }

    vec![
        metric("workloads.ns_per_io", per_io(&pull_ns), "ns"),
        metric("workloads.share", share(&pull_ns), "fraction"),
        metric("core.rounds_per_io", rounds / ios, "count"),
        metric(
            "core.round_ns_p50",
            median_of(&traced, |p| p.summary().round_ns_quantile(0.5)),
            "ns",
        ),
        metric(
            "core.round_ns_p99",
            median_of(&traced, |p| p.summary().round_ns_quantile(0.99)),
            "ns",
        ),
        metric("core.ns_per_io", per_io(&core_ns), "ns"),
        metric("core.share", share(&core_ns), "fraction"),
        metric("core.commits_per_round", pages / rounds, "count"),
        metric(
            "core.commit_yield",
            pages / last.proposed as f64,
            "fraction",
        ),
        metric(
            "core.war_deferrals_per_kio",
            t.hazard_war_deferrals as f64 / kio,
            "count",
        ),
        metric(
            "core.horizon_clips_per_kio",
            t.hazard_horizon_clips as f64 / kio,
            "count",
        ),
        metric(
            "core.faro_fast_path_frac",
            t.faro_fast_path_rounds as f64 / rounds,
            "fraction",
        ),
        metric(
            "core.allocs_per_round",
            core_allocs as f64 / last.of(Kind::Schedule).window_count.max(1) as f64,
            "count",
        ),
        metric("ssd.ns_per_io", per_io(&self_ns), "ns"),
        metric("ssd.share", share(&self_ns), "fraction"),
        metric(
            "ssd.new_s",
            median_of(&traced, |p| {
                p.summary().of(Kind::SsdNew).total_ns as f64 / 1e9
            }),
            "s",
        ),
        metric(
            "ssd.precondition_s",
            median_of(&traced, |p| {
                p.summary().of(Kind::Precondition).total_ns as f64 / 1e9
            }),
            "s",
        ),
        metric(
            "ssd.mem_requests_per_io",
            m.memory_requests as f64 / ios,
            "count",
        ),
        metric("ssd.txns_per_io", m.transactions as f64 / ios, "count"),
        metric("ssd.requests_per_txn", m.requests_per_transaction, "count"),
        metric("ssd.flp_pal3_frac", m.flp.pal3, "fraction"),
        metric("ssd.chip_utilization", m.chip_utilization, "fraction"),
        metric("ssd.inter_chip_idleness", m.inter_chip_idleness, "fraction"),
        metric("ssd.intra_chip_idleness", m.intra_chip_idleness, "fraction"),
        metric(
            "ssd.bus_contention_frac",
            m.execution.bus_contention,
            "fraction",
        ),
        metric(
            "ssd.headroom_exhausted_per_kio",
            t.ledger_headroom_exhausted as f64 / kio,
            "count",
        ),
        metric(
            "ssd.stream_stalls_per_kio",
            t.stream_stalls as f64 / kio,
            "count",
        ),
        metric(
            "ssd.peak_pending_events",
            m.peak_pending_events as f64,
            "count",
        ),
        metric("ssd.peak_host_backlog", m.peak_host_backlog as f64, "count"),
        metric(
            "ssd.allocs_per_io",
            ssd_allocs as f64 / (ios - warmup),
            "count",
        ),
        metric("ssd.latency_samples", m.io_count as f64, "count"),
        metric(
            "ssd.ftl.ns_per_op",
            median_of(&untraced, |p| replay(p).ns as f64 / ftl.ops as f64),
            "ns",
        ),
        metric(
            "ssd.ftl.ops_per_io",
            ftl.ops as f64 / ftl.ios as f64,
            "count",
        ),
        metric(
            "ssd.ftl.share_est",
            median_of(&untraced, |p| replay(p).ns as f64 / (p.run_s * 1e9)),
            "fraction",
        ),
        metric(
            "ssd.ftl.gc_invocations_per_kio",
            m.gc.invocations as f64 / kio,
            "count",
        ),
        metric(
            "ssd.ftl.pages_migrated_per_io",
            m.gc.pages_migrated as f64 / ios,
            "count",
        ),
        metric("trace.host_ios_per_s", traced_rate, "1/s"),
        metric(
            "trace.overhead_frac",
            1.0 - traced_rate / untraced_rate,
            "fraction",
        ),
        metric("trace.spans", last.spans as f64, "count"),
    ]
}

/// Formats a measured value for JSON (JSON has no NaN or infinity).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = args.workload.config();
    let passes = run_passes(&args, &config);
    let mut failures = Vec::new();
    check_passes(&passes, &config, &mut failures);

    let metrics = if args.traced {
        let path = args.out_dir.join(format!(
            "{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        let label = format!("{} seed {}", args.workload.name(), args.seed);
        match trace::write_chrome_trace(&path, &label) {
            Ok(()) => eprintln!("spans of the last traced pass: {}", path.display()),
            Err(error) => eprintln!("could not write {}: {error}", path.display()),
        }
        per_layer(&args, &passes, &mut failures)
    } else {
        end_to_end(&passes, &mut failures)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("{} is not a finite number", m.name));
        }
    }

    let attempted: u64 = passes.iter().map(|p| p.tally.ios).sum();
    let completed: u64 = passes.iter().map(|p| p.metrics.io_count).sum();
    let failed = attempted.saturating_sub(completed);
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"trace\":{}",
        args.workload.name(),
        args.seed,
        u8::from(args.traced)
    );
    for (index, pass) in passes.iter().enumerate() {
        println!(
            "{{\"kind\":\"pass\",{header},\"pass\":{index},\"traced\":{},\"setup_s\":{},\"run_s\":{},\"host_ios_per_s\":{},\"probe_s\":{}}}",
            pass.spans.is_some(),
            json_number(pass.setup_s),
            json_number(pass.run_s),
            json_number(pass.host_ios_per_s()),
            json_number(pass.probe_s.unwrap_or(f64::NAN)),
        );
    }
    for m in &metrics {
        println!(
            "{{\"kind\":\"metric\",{header},\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }

    eprintln!(
        "{} seed {} ({}): {} passes of {} I/Os, {} untraced",
        args.workload.name(),
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        passes.len(),
        args.workload.ios(),
        passes.iter().filter(|p| p.spans.is_none()).count(),
    );
    for m in &metrics {
        eprintln!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for failure in &failures {
        eprintln!("CHECK FAILED: {failure}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        body.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
