//! The device-level I/O scheduler interface (NVMHC scheduling hook).
//!
//! All the controllers the paper compares — VAS, PAS, and the Sprinkler variants —
//! are implemented against this trait (in the `sprinkler-core` crate).  The SSD
//! substrate invokes [`IoScheduler::schedule_into`] whenever scheduling-relevant
//! state changes (tag admission, memory-request completion, transaction
//! completion); the scheduler inspects the device queue and the commitment
//! ledger's occupancy view and appends the memory requests it wants to compose
//! and commit.

use std::fmt;
use std::sync::Arc;

use sprinkler_flash::FlashGeometry;
use sprinkler_sim::TelemetryCounters;

use crate::ftl::PageMigration;
use crate::ledger::CommitmentLedger;
use crate::queue::{DeviceQueue, TagState};
use crate::request::TagId;

/// One scheduling decision: compose and commit the memory request for page
/// `page` of tag `tag`.
///
/// The tag is valid for the round that produced it: no tag retires, and so
/// no tag number is reused, while the substrate applies a round's
/// commitments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Commitment {
    /// The tag whose page is being committed.
    pub tag: TagId,
    /// The page offset within the tag's I/O request.
    pub page: u32,
}

/// Everything a scheduler may inspect when making decisions.
///
/// The context borrows the SSD's state; schedulers never mutate the SSD directly —
/// they only return [`Commitment`]s.
#[derive(Debug)]
pub struct SchedulerContext<'a> {
    /// The device-level queue with per-tag commitment/completion state.
    pub queue: &'a DeviceQueue,
    /// The commitment ledger: per-chip occupancy and the hard commitment cap.
    pub ledger: &'a CommitmentLedger,
}

impl<'a> SchedulerContext<'a> {
    /// Tags in arrival order together with their state.
    pub fn tags(&self) -> impl Iterator<Item = &'a TagState> + '_ {
        self.queue.iter_states()
    }

    /// Hard cap on committed-but-incomplete memory requests per chip.
    pub fn max_committed_per_chip(&self) -> usize {
        self.ledger.max_committed_per_chip()
    }

    /// Outstanding committed requests for a chip.
    pub fn outstanding(&self, chip: usize) -> usize {
        self.ledger.outstanding(chip)
    }

    /// Remaining commit capacity for a chip under the hard cap.  The ledger
    /// guarantees this is the *full* `max_committed_per_chip` headroom: same-
    /// round commits are reflected in `outstanding` once, never double-counted.
    pub fn capacity_left(&self, chip: usize) -> usize {
        self.ledger.headroom(chip)
    }

    /// Total number of chips.
    pub fn chip_count(&self) -> usize {
        self.ledger.chip_count()
    }
}

/// A device-level I/O scheduler implemented in the NVMHC.
pub trait IoScheduler: fmt::Debug {
    /// Human-readable scheduler name ("VAS", "PAS", "SPK3", ...).
    fn name(&self) -> &'static str;

    /// Called once before the simulation starts.
    fn initialize(&mut self, _geometry: &FlashGeometry) {}

    /// Hands the scheduler the run's telemetry counters (called once, before
    /// the simulation starts).  Schedulers that instrument their hot path keep
    /// a clone of the `Arc`; the default implementation ignores it.
    fn attach_telemetry(&mut self, _telemetry: &Arc<TelemetryCounters>) {}

    /// Decides which memory requests to compose and commit right now,
    /// appending the decisions to `out` in application order.
    ///
    /// `out` is a caller-owned scratch buffer (cleared before the call) so the
    /// per-round hot path performs no allocations once its capacity has grown
    /// to the high-water mark.  Commitments that are invalid (unknown tag,
    /// already-committed page) are ignored by the SSD, and commitments beyond
    /// a chip's hard capacity are deferred.
    ///
    /// The context carries one change log,
    /// [`CandidateView::changed`](crate::cand::CandidateView::changed): the
    /// chips that gained a candidate row or completed a committed page, so
    /// the only chips whose rows or ledger headroom can have grown.  The
    /// substrate clears it right after each call returns, before it applies
    /// `out`, so the next call's log lists exactly what changed in between;
    /// a round skipped because the queue is empty clears nothing.  The
    /// substrate calls [`IoScheduler::initialize`] before it admits
    /// anything, so the first call's log lists every chip with rows.
    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>);

    /// Notification that a committed memory request completed.
    fn on_complete(&mut self, _tag: TagId, _page: u32) {}

    /// Whether this scheduler implements the readdressing callback of §4.3.
    fn supports_readdressing(&self) -> bool {
        false
    }

    /// Live-data migration notification (only delivered when
    /// [`IoScheduler::supports_readdressing`] returns `true`).
    fn on_readdress(&mut self, _migration: &PageMigration) {}
}

/// A minimal reference scheduler that eagerly commits every uncommitted page of
/// every queued tag, in arrival order, up to each chip's hard capacity.
///
/// It exists for substrate tests and as a documentation example; the paper's
/// schedulers live in the `sprinkler-core` crate.
#[derive(Debug, Default, Clone)]
pub struct CommitAllScheduler {
    /// Reusable per-round scratch: remaining commit budget per chip.
    budget: Vec<usize>,
}

impl CommitAllScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        CommitAllScheduler::default()
    }
}

impl IoScheduler for CommitAllScheduler {
    fn name(&self) -> &'static str {
        "commit-all"
    }

    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        self.budget.clear();
        self.budget
            .extend((0..ctx.chip_count()).map(|c| ctx.capacity_left(c)));
        for tag in ctx.tags() {
            for page in tag.uncommitted_pages() {
                let chip = tag.placement(page).chip;
                if self.budget.get(chip).copied().unwrap_or(0) == 0 {
                    continue;
                }
                self.budget[chip] -= 1;
                out.push(Commitment { tag: tag.id, page });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Direction, HostRequest, Placement};
    use sprinkler_flash::Lpn;
    use sprinkler_sim::SimTime;

    fn make_queue(geometry: &FlashGeometry) -> DeviceQueue {
        let mut q = DeviceQueue::new(8);
        for t in 0..2u64 {
            let host = HostRequest::new(t, SimTime::ZERO, Direction::Read, Lpn::new(t * 10), 3);
            let placement = |i: u32| Placement {
                chip: (t as usize + i as usize) % geometry.total_chips(),
                die: 0,
                plane: i % geometry.planes_per_die as u32,
            };
            assert_eq!(q.admit(host, placement), Some(TagId(t)));
        }
        q
    }

    #[test]
    fn context_views_expose_queue_and_ledger() {
        let geometry = FlashGeometry::small_test();
        let queue = make_queue(&geometry);
        let outstanding: Vec<usize> = (0..geometry.total_chips())
            .map(|chip| chip.min(2))
            .collect();
        let ledger = CommitmentLedger::from_outstanding(2, &outstanding);
        let ctx = SchedulerContext {
            queue: &queue,
            ledger: &ledger,
        };
        assert_eq!(ctx.tags().count(), 2);
        assert_eq!(ctx.outstanding(2), 2);
        assert_eq!(ctx.capacity_left(0), 2);
        assert_eq!(ctx.capacity_left(2), 0);
        assert_eq!(ctx.chip_count(), geometry.total_chips());
        assert_eq!(ctx.max_committed_per_chip(), 2);
        assert_eq!(ctx.outstanding(999), 0);
    }

    #[test]
    fn commit_all_respects_chip_budget() {
        let geometry = FlashGeometry::small_test();
        let queue = make_queue(&geometry);
        let outstanding: Vec<usize> = (0..geometry.total_chips())
            .map(|chip| if chip == 0 { 2 } else { 0 })
            .collect();
        let ledger = CommitmentLedger::from_outstanding(2, &outstanding);
        let ctx = SchedulerContext {
            queue: &queue,
            ledger: &ledger,
        };
        let mut sched = CommitAllScheduler::new();
        assert_eq!(sched.name(), "commit-all");
        let mut commitments = Vec::new();
        sched.schedule_into(&ctx, &mut commitments);
        // Chip 0 has no budget left, so its pages are skipped.
        assert!(commitments
            .iter()
            .all(|c| queue.tag(c.tag).unwrap().placement(c.page).chip != 0));
        // All other pages are committed.
        assert!(!commitments.is_empty());
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for c in &commitments {
            assert!(seen.insert((c.tag, c.page)));
        }
    }

    #[test]
    fn default_trait_hooks_are_noops() {
        let mut sched = CommitAllScheduler::new();
        sched.initialize(&FlashGeometry::small_test());
        sched.on_complete(TagId(0), 0);
        assert!(!sched.supports_readdressing());
    }
}
