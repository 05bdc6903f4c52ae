//! Cross-crate integration tests: workloads → experiments → schedulers → SSD
//! substrate → flash model, exercised through the facade crate exactly the way a
//! downstream user would.

use sprinkler::core::SchedulerKind;
use sprinkler::experiments::runner::{run_one, run_one_detailed, ExperimentScale};
use sprinkler::experiments::{prefill, to_host_requests};
use sprinkler::flash::Lpn;
use sprinkler::sim::SimTime;
use sprinkler::ssd::request::{Direction, HostRequest};
use sprinkler::ssd::{GcConfig, Ssd, SsdConfig};
use sprinkler::workloads::{paper_workloads, workload, SweepSpec, SyntheticSpec, TraceStats};

fn quick_scale() -> ExperimentScale {
    ExperimentScale {
        ios_per_workload: 200,
        blocks_per_plane: 16,
    }
}

#[test]
fn facade_quickstart_path_works() {
    let config = SsdConfig::paper_default().with_blocks_per_plane(32);
    let trace = SyntheticSpec::new("facade").generate(150, 1);
    let requests = to_host_requests(&trace, config.page_size());
    let ssd = Ssd::new(config, SchedulerKind::Spk3.build()).unwrap();
    let metrics = ssd.run(requests);
    assert_eq!(metrics.io_count, 150);
    assert_eq!(metrics.scheduler, "SPK3");
}

#[test]
fn every_paper_workload_runs_under_every_scheduler() {
    let scale = quick_scale();
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    // Keep runtime in check: three representative workloads, all five schedulers.
    for spec in paper_workloads().into_iter().take(3) {
        let trace = spec.generate(scale.ios_per_workload, 99);
        for kind in SchedulerKind::ALL {
            let metrics = run_one(&config, kind, &trace);
            assert_eq!(
                metrics.io_count,
                scale.ios_per_workload,
                "{kind} dropped I/Os on {}",
                trace.name()
            );
        }
    }
}

#[test]
fn trace_statistics_round_trip_through_the_generator() {
    let spec = workload("cfs3").unwrap();
    let trace = spec.generate(2000, 5);
    let stats = TraceStats::analyze(&trace);
    // cfs3 is read-dominated with ~94% read randomness in Table 1.
    assert!(stats.read_fraction() > 0.6);
    assert!(stats.read_randomness > 0.5);
    assert!(stats.total_mb() > 0.0);
}

#[test]
fn sweep_workloads_scale_page_counts_with_transfer_size() {
    let config = SsdConfig::paper_default().with_blocks_per_plane(16);
    let small = SweepSpec::new(4).generate(50, 3);
    let large = SweepSpec::new(256).generate(50, 3);
    let small_reqs = to_host_requests(&small, config.page_size());
    let large_reqs = to_host_requests(&large, config.page_size());
    assert!(small_reqs.iter().all(|r| r.pages == 2));
    assert!(large_reqs.iter().all(|r| r.pages == 128));
}

#[test]
fn spk3_beats_vas_on_an_enterprise_workload_end_to_end() {
    let scale = quick_scale();
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    let trace = workload("msnfs2")
        .unwrap()
        .generate(scale.ios_per_workload, 77);
    let vas = run_one(&config, SchedulerKind::Vas, &trace);
    let spk3 = run_one(&config, SchedulerKind::Spk3, &trace);
    assert!(spk3.bandwidth_kb_per_sec > vas.bandwidth_kb_per_sec);
    assert!(spk3.avg_latency_ns < vas.avg_latency_ns);
    assert!(spk3.transactions <= vas.transactions);
}

#[test]
fn gc_pipeline_works_through_the_facade() {
    let config = SsdConfig::paper_default()
        .with_chip_count(16)
        .with_blocks_per_plane(8)
        .with_gc(GcConfig::enabled());
    let trace = SweepSpec::new(16).with_read_fraction(0.2).generate(150, 11);
    let filled = prefill(&config, 0.95);
    let metrics = run_one_detailed(&config, SchedulerKind::Spk3, &trace, false, Some(&filled));
    assert_eq!(metrics.io_count, 150);
    assert!(
        metrics.gc.invocations > 0,
        "fragmented SSD must garbage-collect"
    );
    assert!(metrics.gc.blocks_erased > 0);
}

#[test]
fn hand_built_requests_honour_direction_and_size_accounting() {
    let config = SsdConfig::small_test();
    let page = config.page_size();
    let trace = vec![
        HostRequest::new(0, SimTime::ZERO, Direction::Write, Lpn::new(0), 4),
        HostRequest::new(1, SimTime::from_micros(10), Direction::Read, Lpn::new(0), 4),
        HostRequest::new(
            2,
            SimTime::from_micros(20),
            Direction::Read,
            Lpn::new(64),
            2,
        ),
    ];
    let ssd = Ssd::new(config, SchedulerKind::Pas.build()).unwrap();
    let metrics = ssd.run(trace);
    assert_eq!(metrics.io_count, 3);
    assert_eq!(metrics.write_ios, 1);
    assert_eq!(metrics.read_ios, 2);
    assert_eq!(metrics.bytes_written, 4 * page as u64);
    assert_eq!(metrics.bytes_read, 6 * page as u64);
}

#[test]
fn deterministic_runs_produce_identical_metrics() {
    let config = SsdConfig::paper_default().with_blocks_per_plane(16);
    let trace = SyntheticSpec::new("det").generate(100, 13);
    let a = run_one(&config, SchedulerKind::Spk3, &trace);
    let b = run_one(&config, SchedulerKind::Spk3, &trace);
    assert_eq!(
        a, b,
        "same trace + same scheduler must give identical metrics"
    );
}

#[test]
fn sprinkler_stays_ahead_of_vas_at_every_chip_count() {
    let scale = quick_scale();
    let trace = scale.sweep_trace(64, 1.0, 21);
    for chips in [16usize, 256] {
        let config = SsdConfig::paper_default()
            .with_chip_count(chips)
            .with_blocks_per_plane(scale.blocks_per_plane);
        let vas = run_one(&config, SchedulerKind::Vas, &trace);
        let spk3 = run_one(&config, SchedulerKind::Spk3, &trace);
        assert!(
            spk3.bandwidth_kb_per_sec >= vas.bandwidth_kb_per_sec,
            "SPK3 ({:.0} KB/s) must not fall behind VAS ({:.0} KB/s) at {chips} chips",
            spk3.bandwidth_kb_per_sec,
            vas.bandwidth_kb_per_sec
        );
        assert!(
            spk3.avg_latency_ns <= vas.avg_latency_ns,
            "SPK3 latency must not fall behind VAS at {chips} chips"
        );
    }
    // And Sprinkler keeps benefiting from more chips in absolute terms.
    let small = SsdConfig::paper_default()
        .with_chip_count(16)
        .with_blocks_per_plane(scale.blocks_per_plane);
    let large = SsdConfig::paper_default()
        .with_chip_count(256)
        .with_blocks_per_plane(scale.blocks_per_plane);
    let spk3_small = run_one(&small, SchedulerKind::Spk3, &trace);
    let spk3_large = run_one(&large, SchedulerKind::Spk3, &trace);
    assert!(
        spk3_large.bandwidth_kb_per_sec > spk3_small.bandwidth_kb_per_sec,
        "SPK3 must gain bandwidth from 16 to 256 chips ({:.0} vs {:.0} KB/s)",
        spk3_small.bandwidth_kb_per_sec,
        spk3_large.bandwidth_kb_per_sec
    );
}
