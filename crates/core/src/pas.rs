//! Unit tests of PAS on the one [`Scheduler`](crate::Scheduler): the VAS walk,
//! except that a page whose chip is taken is skipped rather than stalling the
//! queue, and a write waits behind a queued read of the same LPN (§3, Fig 5).

#[cfg(test)]
mod tests {
    use crate::sprinkler::tests::{admit_at, admit_on, schedule, CAP};
    use crate::SchedulerKind::Pas;
    use sprinkler_flash::Lpn;
    use sprinkler_sim::SimTime;
    use sprinkler_ssd::queue::DeviceQueue;
    use sprinkler_ssd::request::{Direction, HostRequest};

    #[test]
    fn skips_colliding_requests_but_serves_later_ios() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[0, 1]);
        admit_on(&mut queue, 1, &[0, 3]);
        admit_on(&mut queue, 2, &[2, 3]);
        let out = schedule(Pas, &queue, CAP, &[0; 4]);
        // Tag 0 takes chips 0 and 1; tag 1's chip-0 page is skipped but its chip-3
        // page commits; tag 2's chip-2 page commits, its chip-3 page is skipped.
        assert_eq!(out.len(), 4);
        let tags: Vec<u64> = out.iter().map(|c| c.tag.0).collect();
        assert_eq!(tags, vec![0, 0, 1, 2]);
    }

    #[test]
    fn never_commits_more_than_one_request_per_chip() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[0, 0, 0]);
        let out = schedule(Pas, &queue, CAP, &[0; 4]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn busy_chips_are_skipped_not_blocking() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[1, 2]);
        let out = schedule(Pas, &queue, CAP, &[0, 1, 0, 0]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].page, 1);
    }

    #[test]
    fn write_after_read_hazard_defers_the_write() {
        let mut queue = DeviceQueue::new(8);
        // Tag 0 reads LPN 0..2 (uncommitted), tag 1 writes LPN 1.
        let read = HostRequest::new(0, SimTime::ZERO, Direction::Read, Lpn::new(0), 2);
        admit_at(&mut queue, read, &[(0, 0, 0), (1, 0, 0)]);
        let write = HostRequest::new(1, SimTime::ZERO, Direction::Write, Lpn::new(1), 1);
        let writer = admit_at(&mut queue, write, &[(2, 0, 0)]);
        let out = schedule(Pas, &queue, CAP, &[0; 4]);
        // The write to LPN 1 must wait for the read of LPN 1 to commit first.
        assert!(out.iter().all(|c| c.tag != writer));
    }
}
