//! Shared micro-benchmark fixtures, timed by the `scheduler_micro` bench
//! target (`crates/bench/benches/scheduler_micro.rs`).

use sprinkler_core::SchedulerKind;
use sprinkler_flash::{FlashGeometry, Lpn};
use sprinkler_sim::SimTime;
use sprinkler_ssd::queue::DeviceQueue;
use sprinkler_ssd::request::{Direction, HostRequest, Placement, TagId};
use sprinkler_ssd::{CommitmentLedger, RunMetrics, SsdConfig};
use sprinkler_workloads::SyntheticSpec;

use crate::runner::{run_one, ExperimentScale};

/// The scale used by bench targets — an alias for [`ExperimentScale::bench`],
/// the shared scale-resolution source of truth.
pub fn bench_scale() -> ExperimentScale {
    ExperimentScale::bench()
}

/// A single small simulation run: the body the `scheduler_micro` bench target
/// times once per scheduler (via `sprinkler_bench`).
pub fn representative_run(kind: SchedulerKind) -> RunMetrics {
    let scale = bench_scale();
    let config = SsdConfig::paper_default().with_blocks_per_plane(scale.blocks_per_plane);
    let trace = SyntheticSpec::new("bench")
        .with_read_fraction(0.7)
        .with_mean_sizes_kb(16.0, 16.0)
        .generate(120, 0xBE);
    run_one(&config, kind, &trace)
}

/// A standing steady-state scheduling scene: a full 32-deep queue of 256-page
/// tags striped over `chips` chips, with all but the last four pages of every
/// tag already committed — the shape a mid-simulation round sees, where a
/// full-queue scan walks thousands of committed bitmap slots to find a handful
/// of schedulable pages.  Read/write LPN ranges overlap so the §4.4
/// write-after-read checks stay hot.
pub fn standing_scene(chips: usize) -> (FlashGeometry, DeviceQueue, CommitmentLedger) {
    const PAGES: u32 = 256;
    let geometry = FlashGeometry::paper_default().with_chip_count(chips);
    let mut queue = DeviceQueue::new(32);
    for t in 0..32u64 {
        let dir = if t.is_multiple_of(3) {
            Direction::Write
        } else {
            Direction::Read
        };
        let host = HostRequest::new(t, SimTime::ZERO, dir, Lpn::new(t * 8), PAGES);
        let placements = (0..PAGES as usize)
            .map(|i| {
                let chip = (t as usize * 37 + i * 13) % chips;
                let loc = geometry.chip_location(chip);
                Placement {
                    chip,
                    channel: loc.channel,
                    way: loc.way,
                    die: (i % 2) as u32,
                    plane: (i % 4) as u32,
                }
            })
            .collect();
        assert!(queue.admit(TagId(t), host, SimTime::ZERO, placements));
    }
    for t in 0..32u64 {
        for page in 0..PAGES - 4 {
            assert!(queue.commit_page(TagId(t), page, SimTime::ZERO));
        }
    }
    let ledger = CommitmentLedger::new(chips, 32);
    (geometry, queue, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standing_scene_exposes_four_uncommitted_pages_per_tag() {
        let (geometry, queue, ledger) = standing_scene(256);
        assert_eq!(geometry.total_chips(), 256);
        assert_eq!(queue.len(), 32);
        assert_eq!(queue.total_uncommitted_pages(), 32 * 4);
        assert_eq!(ledger.chip_count(), 256);
        assert_eq!(ledger.max_committed_per_chip(), 32);
    }
}
