//! The Virtual Address Scheduler (VAS) baseline.
//!
//! VAS decides the order of I/O requests purely from the device-level queue and
//! composes memory requests using only virtual addresses (§3, Fig 4).  Because it
//! never looks at the physical layout, its commitment pipeline is strictly
//! in-order: as soon as the next memory request in I/O order targets a chip that is
//! still occupied by a previously committed request, the whole pipeline stalls —
//! the request collisions of Fig 4 and the resulting inter-chip idleness.
//!
//! Implementation note: VAS itself has no physical knowledge.  The simulator uses
//! the per-chip occupancy view to model the *physical backpressure* the in-order
//! pipeline experiences, not to give VAS placement intelligence.

use std::sync::Arc;

use sprinkler_sim::TelemetryCounters;
use sprinkler_ssd::scheduler::{Commitment, IoScheduler, SchedulerContext};

/// The conventional FIFO (virtual address) scheduler.
#[derive(Debug, Default, Clone)]
pub struct VirtualAddressScheduler {
    /// Scratch: per-chip commits made this round; only the chips listed in
    /// `newly_dirty` are non-zero between rounds.
    newly: Vec<usize>,
    newly_dirty: Vec<usize>,
    /// Hot-path counters shared with the SSD substrate, when attached.
    telemetry: Option<Arc<TelemetryCounters>>,
}

impl VirtualAddressScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IoScheduler for VirtualAddressScheduler {
    fn name(&self) -> &'static str {
        "VAS"
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<TelemetryCounters>) {
        self.telemetry = Some(Arc::clone(telemetry));
    }

    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        if self.newly.len() < ctx.chip_count() {
            self.newly.resize(ctx.chip_count(), 0);
        }
        for &chip in &self.newly_dirty {
            self.newly[chip] = 0;
        }
        self.newly_dirty.clear();
        let bound = ctx.queue.horizon_seq();
        for tag in ctx.tags() {
            if tag.seq > bound {
                if let Some(telemetry) = &self.telemetry {
                    TelemetryCounters::incr(&telemetry.hazard_horizon_clips);
                }
                break;
            }
            for page in tag.uncommitted_pages() {
                let chip = tag.placements[page as usize].chip;
                // In-order pipeline: a busy target chip blocks everything behind it.
                if ctx.outstanding(chip) + self.newly[chip] >= 1 {
                    return;
                }
                if self.newly[chip] == 0 {
                    self.newly_dirty.push(chip);
                }
                self.newly[chip] += 1;
                out.push(Commitment { tag: tag.id, page });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinkler_flash::{FlashGeometry, Lpn};
    use sprinkler_sim::SimTime;
    use sprinkler_ssd::queue::DeviceQueue;
    use sprinkler_ssd::request::{Direction, HostRequest, Placement, TagId};
    use sprinkler_ssd::CommitmentLedger;

    /// Admits request `id` with page `i` on `chips[i]`; ids count from 0 on
    /// a fresh queue, so each is also its tag.
    fn admit_with_chips(queue: &mut DeviceQueue, id: u64, chips: &[usize]) {
        let host = HostRequest::new(
            id,
            SimTime::ZERO,
            Direction::Read,
            Lpn::new(id * 100),
            chips.len() as u32,
        );
        let placement = |page: u32| Placement {
            chip: chips[page as usize],
            die: 0,
            plane: 0,
        };
        assert_eq!(queue.admit(host, SimTime::ZERO, placement), Some(TagId(id)));
    }

    fn schedule(queue: &DeviceQueue, outstanding: &[usize]) -> Vec<Commitment> {
        let geometry = FlashGeometry::small_test();
        let ledger = CommitmentLedger::from_outstanding(8, outstanding);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            geometry: &geometry,
            queue,
            ledger: &ledger,
        };
        VirtualAddressScheduler::new().schedule(&ctx)
    }

    #[test]
    fn commits_in_strict_io_order_when_no_conflicts() {
        let mut queue = DeviceQueue::new(8);
        admit_with_chips(&mut queue, 0, &[0, 1]);
        admit_with_chips(&mut queue, 1, &[2, 3]);
        let out = schedule(&queue, &[0, 0, 0, 0]);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].tag, TagId(0));
        assert_eq!(out[1].tag, TagId(0));
        assert_eq!(out[2].tag, TagId(1));
        assert_eq!(out[3].tag, TagId(1));
    }

    #[test]
    fn chip_conflict_blocks_everything_behind_it() {
        let mut queue = DeviceQueue::new(8);
        admit_with_chips(&mut queue, 0, &[0, 1]);
        admit_with_chips(&mut queue, 1, &[0, 3]); // collides with tag 0 on chip 0
        admit_with_chips(&mut queue, 2, &[2, 3]); // no collision, but behind tag 1
        let out = schedule(&queue, &[0, 0, 0, 0]);
        // Tag 0 commits both pages, then tag 1's first page collides on chip 0 and
        // the pipeline stops: tag 2 gets nothing even though chips 2/3 are idle.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|c| c.tag == TagId(0)));
    }

    #[test]
    fn busy_chip_at_head_of_queue_blocks_all_commits() {
        let mut queue = DeviceQueue::new(8);
        admit_with_chips(&mut queue, 0, &[1, 2]);
        let out = schedule(&queue, &[0, 1, 0, 0]); // chip 1 already has work
        assert!(out.is_empty());
    }

    #[test]
    fn already_committed_pages_are_skipped() {
        let mut queue = DeviceQueue::new(8);
        admit_with_chips(&mut queue, 0, &[0, 1]);
        assert!(queue.commit_page(TagId(0), 0, SimTime::ZERO));
        let out = schedule(&queue, &[0, 0, 0, 0]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].page, 1);
    }
}
