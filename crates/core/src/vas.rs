//! Unit tests of VAS on the one [`Scheduler`](crate::Scheduler): memory
//! requests are composed in I/O arrival order, one per chip, and the walk
//! stalls at the first page whose chip is taken (§3, Fig 4).

#[cfg(test)]
mod tests {
    use crate::sprinkler::tests::{admit_on, schedule, CAP};
    use crate::SchedulerKind::Vas;
    use sprinkler_ssd::queue::DeviceQueue;
    use sprinkler_ssd::request::TagId;

    #[test]
    fn commits_in_strict_io_order_when_no_conflicts() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[0, 1]);
        admit_on(&mut queue, 1, &[2, 3]);
        let out = schedule(Vas, &queue, CAP, &[0; 4]);
        let tags: Vec<u64> = out.iter().map(|c| c.tag.0).collect();
        assert_eq!(tags, vec![0, 0, 1, 1]);
    }

    #[test]
    fn chip_conflict_blocks_everything_behind_it() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[0, 1]);
        admit_on(&mut queue, 1, &[0, 3]); // collides with tag 0 on chip 0
        admit_on(&mut queue, 2, &[2, 3]); // no collision, but behind tag 1
        let out = schedule(Vas, &queue, CAP, &[0; 4]);
        // Tag 0 commits both pages, then tag 1's first page collides on chip 0 and
        // the pipeline stops: tag 2 gets nothing even though chips 2/3 are idle.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|c| c.tag == TagId(0)));
    }

    #[test]
    fn busy_chip_at_head_of_queue_blocks_all_commits() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[1, 2]);
        let out = schedule(Vas, &queue, CAP, &[0, 1, 0, 0]); // chip 1 already has work
        assert!(out.is_empty());
    }
}
