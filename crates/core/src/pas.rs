//! The Physical Address Scheduler (PAS) baseline.
//!
//! PAS sees the physical addresses exposed by a preprocessor (Ozone's hardware
//! assist or PAQ's software translation, §3) and uses them to avoid request
//! collisions: when the next memory request in I/O order targets an occupied chip,
//! PAS simply skips it and keeps committing requests whose chips are idle —
//! coarse-grain out-of-order execution at the system level (Fig 5).
//!
//! PAS still composes and commits based on I/O arrival order and never
//! over-commits, so it cannot exploit flash-level transactional locality: each chip
//! gets at most one outstanding memory request at a time.

use std::sync::Arc;

use sprinkler_sim::TelemetryCounters;
use sprinkler_ssd::scheduler::{Commitment, IoScheduler, SchedulerContext};

/// The physical-address-aware, coarse-grain out-of-order scheduler.
#[derive(Debug, Default, Clone)]
pub struct PhysicalAddressScheduler {
    /// Scratch: per-chip commits made this round; only the chips listed in
    /// `newly_dirty` are non-zero between rounds.
    newly: Vec<usize>,
    newly_dirty: Vec<usize>,
    /// Hot-path counters shared with the SSD substrate, when attached.
    telemetry: Option<Arc<TelemetryCounters>>,
}

impl PhysicalAddressScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IoScheduler for PhysicalAddressScheduler {
    fn name(&self) -> &'static str {
        "PAS"
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
        // A FUA request is a reordering barrier: the horizon bound stops the walk
        // right after the first not-fully-committed FUA request.
        let bound = ctx.queue.horizon_seq();
        for tag in ctx.tags() {
            if tag.seq > bound {
                if let Some(telemetry) = &self.telemetry {
                    TelemetryCounters::incr(&telemetry.hazard_horizon_clips);
                }
                break;
            }
            let is_write = tag.host.direction.is_write();
            for page in tag.uncommitted_pages() {
                let chip = tag.placements[page as usize].chip;
                // Skip (rather than block on) occupied chips: one request per chip.
                if ctx.outstanding(chip) + self.newly[chip] >= 1 {
                    continue;
                }
                if is_write
                    && ctx
                        .queue
                        .has_blocking_read(tag.host.lpn_at(page).value(), tag.seq)
                {
                    if let Some(telemetry) = &self.telemetry {
                        TelemetryCounters::incr(&telemetry.hazard_war_deferrals);
                    }
                    continue;
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

    /// Admits `host` with page `i` on `chips[i]` and returns its tag.
    fn admit_on_chips(queue: &mut DeviceQueue, host: HostRequest, chips: &[usize]) -> TagId {
        let placement = |page: u32| Placement {
            chip: chips[page as usize],
            die: 0,
            plane: 0,
        };
        queue
            .admit(host, SimTime::ZERO, placement)
            .expect("the queue has room")
    }

    /// Admits request `id` with page `i` on `chips[i]`; ids count from 0 on
    /// a fresh queue, so each is also its tag.
    fn admit_with_chips(queue: &mut DeviceQueue, id: u64, dir: Direction, chips: &[usize]) {
        let host = HostRequest::new(
            id,
            SimTime::ZERO,
            dir,
            Lpn::new(id * 100),
            chips.len() as u32,
        );
        assert_eq!(admit_on_chips(queue, host, chips), TagId(id));
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
        PhysicalAddressScheduler::new().schedule(&ctx)
    }

    #[test]
    fn skips_colliding_requests_but_serves_later_ios() {
        let mut queue = DeviceQueue::new(8);
        admit_with_chips(&mut queue, 0, Direction::Read, &[0, 1]);
        admit_with_chips(&mut queue, 1, Direction::Read, &[0, 3]);
        admit_with_chips(&mut queue, 2, Direction::Read, &[2, 3]);
        let out = schedule(&queue, &[0, 0, 0, 0]);
        // Tag 0 takes chips 0 and 1; tag 1's chip-0 page is skipped but its chip-3
        // page commits; tag 2's chip-2 page commits, its chip-3 page is skipped.
        assert_eq!(out.len(), 4);
        let tags: Vec<u64> = out.iter().map(|c| c.tag.0).collect();
        assert_eq!(tags, vec![0, 0, 1, 2]);
    }

    #[test]
    fn never_commits_more_than_one_request_per_chip() {
        let mut queue = DeviceQueue::new(8);
        admit_with_chips(&mut queue, 0, Direction::Read, &[0, 0, 0]);
        let out = schedule(&queue, &[0, 0, 0, 0]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn busy_chips_are_skipped_not_blocking() {
        let mut queue = DeviceQueue::new(8);
        admit_with_chips(&mut queue, 0, Direction::Read, &[1, 2]);
        let out = schedule(&queue, &[0, 1, 0, 0]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].page, 1);
    }

    #[test]
    fn write_after_read_hazard_defers_the_write() {
        let mut queue = DeviceQueue::new(8);
        // Tag 0 reads LPN 0..2 (uncommitted), tag 1 writes LPN 1.
        let read = HostRequest::new(0, SimTime::ZERO, Direction::Read, Lpn::new(0), 2);
        admit_on_chips(&mut queue, read, &[0, 1]);
        let write = HostRequest::new(1, SimTime::ZERO, Direction::Write, Lpn::new(1), 1);
        let writer = admit_on_chips(&mut queue, write, &[2]);
        let out = schedule(&queue, &[0, 0, 0, 0]);
        // The write to LPN 1 must wait for the read of LPN 1 to commit first.
        assert!(out.iter().all(|c| c.tag != writer));
    }

    #[test]
    fn fua_acts_as_a_reordering_barrier() {
        let mut queue = DeviceQueue::new(8);
        admit_with_chips(&mut queue, 0, Direction::Read, &[0]);
        let fua =
            HostRequest::new(1, SimTime::ZERO, Direction::Write, Lpn::new(50), 1).with_fua(true);
        admit_on_chips(&mut queue, fua, &[0]);
        admit_with_chips(&mut queue, 2, Direction::Read, &[3]);
        let out = schedule(&queue, &[0, 0, 0, 0]);
        // The FUA write targets chip 0 which tag 0 just took, so it cannot commit;
        // tag 2 must not be scheduled past the FUA barrier.
        assert!(out.iter().all(|c| c.tag == TagId(0)));
    }
}
