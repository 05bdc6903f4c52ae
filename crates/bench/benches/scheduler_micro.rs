//! Microbenchmark of the bare scheduler hot path.
//!
//! Two groups:
//!
//! * `scheduler_micro` — one `representative_run` per scheduler kind, so
//!   per-scheduler end-to-end overhead (not just SPK3's) is tracked;
//! * `scheduler_rounds` — a single `schedule()` round over a standing 32-deep
//!   queue at 256 and 1024 chips, for the optimized SPK3 and its full-scan
//!   reference twin.  This isolates the per-round decision cost the index
//!   refactor targets.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sprinkler_bench::representative_run;
use sprinkler_core::reference::ReferenceScheduler;
use sprinkler_core::SchedulerKind;
use sprinkler_experiments::micro::standing_scene;
use sprinkler_sim::SimTime;
use sprinkler_ssd::scheduler::{IoScheduler, SchedulerContext};

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_rounds");
    group.sample_size(10);
    for chips in [256usize, 1024] {
        let (geometry, queue, ledger) = standing_scene(chips);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            geometry: &geometry,
            queue: &queue,
            ledger: &ledger,
        };
        for kind in [SchedulerKind::Spk2, SchedulerKind::Spk3] {
            let mut fast = kind.build();
            fast.initialize(&geometry);
            group.bench_function(&format!("{}_{chips}chips", kind.label()), |b| {
                b.iter(|| black_box(fast.schedule(&ctx)).len())
            });
            let mut reference = ReferenceScheduler::new(kind);
            reference.initialize(&geometry);
            group.bench_function(&format!("{}ref_{chips}chips", kind.label()), |b| {
                b.iter(|| black_box(reference.schedule(&ctx)).len())
            });
        }
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_micro");
    group.sample_size(10);
    for kind in SchedulerKind::ALL {
        group.bench_function(kind.label(), |b| b.iter(|| representative_run(kind)));
    }
    group.finish();
}

criterion_group!(benches, bench, bench_rounds);
criterion_main!(benches);
