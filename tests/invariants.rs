//! Dedicated integration test for the deep debug-mode invariant validator
//! (`sprinkler::ssd::debug_invariants`).
//!
//! A wrapper scheduler calls `validate_context` on every scheduling round, so
//! a whole replay cross-checks — after each round — the commitment ledger
//! against the queued tags' per-page states, and the FUA horizon and the
//! queue's candidate index (its rows, the page entries' row handles and the
//! read-LPN hazard chains) against a from-scratch rebuild from the queued tag
//! states.  The
//! traces are chosen to push every structure: mixed reads/writes (hazard
//! chains), FUA-heavy streams (horizon), and an overwrite-heavy GC run (GC
//! requests must *not* touch the ledger).
//!
//! The validator compiles to a no-op in release builds; the negative test
//! (a deliberately desynchronized queue/ledger pair must panic) is therefore
//! compiled only under `debug_assertions`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sprinkler::core::SchedulerKind;
use sprinkler::flash::{FlashGeometry, Lpn};
use sprinkler::sim::{Duration, SimTime};
use sprinkler::ssd::request::{Direction, HostRequest, TagId};
use sprinkler::ssd::scheduler::{Commitment, IoScheduler, SchedulerContext};
use sprinkler::ssd::{validate_context, GcConfig, Ssd, SsdConfig};

/// Wraps a scheduler and validates every cross-structure invariant after
/// every scheduling round, counting the rounds so tests can assert the
/// validator actually ran.
#[derive(Debug)]
struct ValidatingScheduler {
    inner: Box<dyn IoScheduler>,
    rounds: Arc<AtomicU64>,
}

impl ValidatingScheduler {
    fn new(inner: Box<dyn IoScheduler>) -> (Self, Arc<AtomicU64>) {
        let rounds = Arc::new(AtomicU64::new(0));
        (
            ValidatingScheduler {
                inner,
                rounds: Arc::clone(&rounds),
            },
            rounds,
        )
    }
}

impl IoScheduler for ValidatingScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initialize(&mut self, geometry: &FlashGeometry) {
        self.inner.initialize(geometry);
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<sprinkler::sim::TelemetryCounters>) {
        self.inner.attach_telemetry(telemetry);
    }

    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        validate_context(ctx);
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.inner.schedule_into(ctx, out);
        // Re-validate after the round too: producing commitments must not
        // have mutated any shared structure (the context is immutable; this
        // guards against interior-mutability creep in scheduler impls).
        validate_context(ctx);
    }

    fn on_complete(&mut self, tag: TagId, page: u32) {
        self.inner.on_complete(tag, page);
    }

    fn supports_readdressing(&self) -> bool {
        self.inner.supports_readdressing()
    }

    fn on_readdress(&mut self, migration: &sprinkler::ssd::ftl::PageMigration) {
        self.inner.on_readdress(migration);
    }
}

fn run_validated(
    config: SsdConfig,
    kind: SchedulerKind,
    trace: Vec<HostRequest>,
) -> (sprinkler::ssd::RunMetrics, u64) {
    let (scheduler, rounds) = ValidatingScheduler::new(kind.build());
    let ssd = Ssd::new(config, Box::new(scheduler)).unwrap();
    let metrics = ssd.run(trace);
    let rounds = rounds.load(Ordering::Relaxed);
    (metrics, rounds)
}

/// Mixed reads and writes over a strided LPN pattern, with every
/// `fua_every`-th request flagged FUA (0 disables FUA entirely).
fn mixed_trace(n: usize, fua_every: usize) -> Vec<HostRequest> {
    (0..n)
        .map(|i| {
            let direction = if i % 3 == 0 {
                Direction::Read
            } else {
                Direction::Write
            };
            HostRequest::new(
                i as u64,
                SimTime::from_micros(i as u64 * 3),
                direction,
                Lpn::new((i as u64 * 17) % 256),
                1 + (i as u32 % 8),
            )
            .with_fua(fua_every != 0 && i % fua_every == 0)
        })
        .collect()
}

#[test]
fn every_scheduler_passes_cross_structure_validation() {
    for kind in SchedulerKind::ALL {
        let trace = mixed_trace(120, 0);
        let expected = trace.len() as u64;
        let (metrics, rounds) = run_validated(SsdConfig::small_test(), kind, trace);
        assert_eq!(metrics.io_count, expected, "{kind:?} lost I/Os");
        assert!(rounds > 0, "{kind:?}: validator never ran");
    }
}

#[test]
fn fua_reordering_horizon_stays_consistent_under_validation() {
    // FUA-dense stream: the horizon entries are exercised on almost every
    // round, including multi-FUA overlap and horizon retirement mid-stream.
    let trace = mixed_trace(150, 2);
    let expected = trace.len() as u64;
    let (metrics, rounds) = run_validated(SsdConfig::small_test(), SchedulerKind::Spk3, trace);
    assert_eq!(metrics.io_count, expected);
    assert!(rounds > 0);
}

#[test]
fn gc_pressure_does_not_desynchronize_the_ledger() {
    // Overwrite-heavy write stream on a small-capacity device with GC on:
    // GC memory requests share chips with host requests but must never be
    // charged to the commitment ledger — exactly the imbalance the validator
    // would catch after the first collection.
    let config = SsdConfig::small_test()
        .with_blocks_per_plane(4)
        .with_gc(GcConfig::enabled());
    let trace: Vec<HostRequest> = (0..2000)
        .map(|i| {
            HostRequest::new(
                i,
                SimTime::from_micros(i * 2),
                Direction::Write,
                Lpn::new(i % 48),
                1,
            )
        })
        .collect();
    let (metrics, rounds) = run_validated(config, SchedulerKind::Spk3, trace);
    assert_eq!(metrics.io_count, 2000);
    assert!(rounds > 0);
    assert!(
        metrics.gc.invocations > 0,
        "overwrite churn on a small device must trigger GC (got {:?})",
        metrics.gc
    );
}

/// A GC storm that forces cross-plane migrations: a small device (4 blocks
/// per plane, watermark 1) rewritten with one-page I/Os over a 461-LPN span
/// in a scattered order, a quarter of them reads.  The span is odd, so each
/// LPN's visits rotate through the four residues of `i mod 4`: every LPN is
/// both written and read.  GC then moves valid pages to other planes, so
/// `on_readdress` and placement refresh run for schedulers that support
/// readdressing, and the stale-readdress penalty is charged for those that
/// do not, on a migrated LPN's next read.
fn crossing_config(penalty: Duration) -> SsdConfig {
    SsdConfig::small_test()
        .with_blocks_per_plane(4)
        .with_gc(GcConfig {
            enabled: true,
            free_block_watermark: 1,
            stale_readdress_penalty: penalty,
        })
}

fn crossing_trace() -> Vec<HostRequest> {
    (0..2000u64)
        .map(|i| {
            let direction = if i % 4 == 0 {
                Direction::Read
            } else {
                Direction::Write
            };
            HostRequest::new(
                i,
                SimTime::from_micros(i * 30),
                direction,
                Lpn::new((i * 7919) % 461),
                1,
            )
        })
        .collect()
}

#[test]
fn cross_plane_gc_migrations_penalize_only_schedulers_without_readdressing() {
    let run = |kind: SchedulerKind, penalty_us: u64| {
        let config = crossing_config(Duration::from_micros(penalty_us));
        Ssd::new(config, kind.build())
            .unwrap()
            .run(crossing_trace())
    };
    let vas_free = run(SchedulerKind::Vas, 0);
    let vas_penalized = run(SchedulerKind::Vas, 40);
    assert!(
        vas_penalized.gc.cross_plane_migrations > 0,
        "the storm must move pages across planes (got {:?})",
        vas_penalized.gc
    );
    assert!(
        vas_penalized.avg_latency_ns > vas_free.avg_latency_ns,
        "VAS pays the stale-readdress penalty: {} ns vs {} ns",
        vas_penalized.avg_latency_ns,
        vas_free.avg_latency_ns
    );
    // SPK3 is told about every move, so the penalty never applies.
    let spk3_free = run(SchedulerKind::Spk3, 0);
    let spk3_penalized = run(SchedulerKind::Spk3, 40);
    assert!(spk3_penalized.gc.cross_plane_migrations > 0);
    assert_eq!(spk3_free, spk3_penalized);
}

#[test]
fn cross_plane_readdressing_passes_cross_structure_validation() {
    let (metrics, rounds) = run_validated(
        crossing_config(Duration::from_micros(40)),
        SchedulerKind::Spk3,
        crossing_trace(),
    );
    assert_eq!(metrics.io_count, 2000);
    assert!(rounds > 0);
    assert!(metrics.gc.cross_plane_migrations > 0);
}

/// The validator must actually fail on divergence: a queue with a committed
/// page paired with a ledger that was never charged is the canonical
/// accounting bug, and `validate_round` has to catch it.  Debug builds only —
/// the validator is compiled out in release.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "ledger outstanding counts diverged")]
fn desynchronized_ledger_is_caught() {
    use sprinkler::ssd::queue::DeviceQueue;
    use sprinkler::ssd::request::Placement;
    use sprinkler::ssd::{validate_round, CommitmentLedger};

    let mut queue = DeviceQueue::new(4);
    let host = HostRequest::new(0, SimTime::ZERO, Direction::Write, Lpn::new(0), 2);
    let placement = Placement {
        chip: 0,
        die: 0,
        plane: 0,
    };
    let tag = queue.admit(host, |_| placement).unwrap();
    assert!(queue.commit_page(tag, 0));

    // One page is committed on chip 0, but this ledger was never charged.
    let ledger = CommitmentLedger::new(4, 8);
    validate_round(&queue, &ledger);
}
