//! Per-channel flash controllers.
//!
//! A flash controller owns the chips of one channel.  Committed memory requests are
//! delivered into per-chip pending sets; when a chip is idle the controller builds
//! a flash transaction by coalescing pending requests that target distinct
//! dies/planes of that chip (die interleaving + plane sharing), within the limits
//! the flash microarchitecture allows.  The more requests the scheduler has
//! over-committed for the chip, the higher the flash-level parallelism of the
//! transaction — this is exactly the mechanism FARO exploits.

use sprinkler_flash::{
    FlashGeometry, FlashOp, FlashTransaction, PhysicalPageAddr, TransactionBuilder,
};
use sprinkler_sim::{Duration, SimTime};

use crate::request::{MemReqId, TagId};

/// A memory request waiting at the controller to join a flash transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// The memory request's identifier.
    pub id: MemReqId,
    /// Fully resolved physical address.
    pub addr: PhysicalPageAddr,
    /// The flash operation required.
    pub op: FlashOp,
    /// When the request reached the controller.
    pub delivered_at: SimTime,
    /// Whether this is internal garbage-collection traffic (served with priority).
    pub gc: bool,
    /// The owning tag, if any.
    pub tag: Option<TagId>,
    /// Extra service delay (stale readdressing penalty for schedulers without a
    /// readdressing callback).
    pub extra_delay: Duration,
}

/// The outcome of asking the controller to build a transaction for a chip.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltTransaction {
    /// The coalesced flash transaction.
    pub txn: FlashTransaction,
    /// The memory requests folded into it, in the same order as `txn.requests()`.
    pub members: Vec<MemReqId>,
    /// The largest extra delay among the members.
    pub extra_delay: Duration,
    /// True when any member is GC traffic.
    pub contains_gc: bool,
}

/// Reusable scratch for [`FlashController::build_transaction_with`].
///
/// The controller itself is serializable simulation state, so the scratch
/// lives with the caller (the SSD owns one) and is threaded through each
/// build.  Once its buffers and pools have grown to the coalescing high-water
/// mark, transaction building performs no allocations: the per-build `Vec`s
/// handed out inside [`BuiltTransaction`] come back through
/// [`TxnScratch::recycle_members`] / [`TxnScratch::recycle_requests`] when the
/// transaction completes.
#[derive(Debug, Default)]
pub struct TxnScratch {
    /// Candidate pending-set indices, sorted into service order.
    order: Vec<usize>,
    /// Pending-set indices accepted into the transaction, in builder order.
    accepted: Vec<usize>,
    /// Recycled request buffers for [`TransactionBuilder::new_with_buffer`].
    request_pool: Vec<Vec<PhysicalPageAddr>>,
    /// Recycled member-id buffers for [`BuiltTransaction::members`].
    member_pool: Vec<Vec<MemReqId>>,
}

impl TxnScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a spent request buffer (from
    /// [`FlashTransaction::into_requests`]) to the pool.
    pub fn recycle_requests(&mut self, buffer: Vec<PhysicalPageAddr>) {
        self.request_pool.push(buffer);
    }

    /// Returns a spent member buffer (from [`BuiltTransaction::members`]) to
    /// the pool.
    pub fn recycle_members(&mut self, buffer: Vec<MemReqId>) {
        self.member_pool.push(buffer);
    }

    /// Pre-sizes every buffer to its structural bound so the scratch never
    /// grows on the hot path: `max_pending` bounds a chip's pending set (the
    /// per-chip commitment cap), `max_fold` bounds a transaction's request
    /// count (distinct (die, plane) pairs), and `txn_slots` bounds the number
    /// of member buffers simultaneously checked out (live transactions, at
    /// most one per chip plus one being built).
    pub fn preallocate(&mut self, max_pending: usize, max_fold: usize, txn_slots: usize) {
        self.order.reserve(max_pending);
        self.accepted.reserve(max_pending);
        while self.request_pool.len() < 2 {
            self.request_pool.push(Vec::with_capacity(max_fold));
        }
        while self.member_pool.len() < txn_slots + 1 {
            self.member_pool.push(Vec::with_capacity(max_fold));
        }
    }
}

/// The flash controller of one channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashController {
    channel: usize,
    pending: Vec<Vec<PendingRequest>>,
    delivered: u64,
    coalesced: u64,
}

impl FlashController {
    /// Creates the controller for `channel` with one pending set per chip (way).
    pub fn new(channel: usize, ways: usize) -> Self {
        FlashController {
            channel,
            pending: (0..ways).map(|_| Vec::new()).collect(),
            delivered: 0,
            coalesced: 0,
        }
    }

    /// The channel this controller drives.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// Delivers a memory request into the pending set of its chip.
    ///
    /// # Panics
    ///
    /// Panics if the request's address is not on this controller's channel.
    pub fn deliver(&mut self, request: PendingRequest) {
        assert_eq!(
            request.addr.channel as usize, self.channel,
            "request delivered to the wrong channel controller"
        );
        self.delivered += 1;
        self.pending[request.addr.way as usize].push(request);
    }

    /// Number of requests pending for a chip (way) of this channel.
    pub fn pending_count(&self, way: usize) -> usize {
        self.pending[way].len()
    }

    /// True when a chip has at least one pending request.
    pub fn has_pending(&self, way: usize) -> bool {
        !self.pending[way].is_empty()
    }

    /// Total pending requests across the channel.
    pub fn total_pending(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// Number of requests delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of requests that were coalesced into multi-request transactions.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Builds the best transaction currently possible for `way`, removing the
    /// selected requests from the pending set.  Returns `None` when nothing is
    /// pending.
    ///
    /// Selection rules:
    /// 1. GC traffic is served before host traffic.
    /// 2. The operation type of the oldest eligible request wins (reads and
    ///    programs are never mixed in one transaction).
    /// 3. Further requests of the same operation are folded in while they target
    ///    distinct (die, plane) pairs — die interleaving and plane sharing.
    pub fn build_transaction(
        &mut self,
        way: usize,
        geometry: &FlashGeometry,
    ) -> Option<BuiltTransaction> {
        let mut scratch = TxnScratch::new();
        self.build_transaction_with(way, geometry, &mut scratch)
    }

    /// [`FlashController::build_transaction`] with caller-provided scratch, so
    /// a warmed-up scratch makes the build allocation-free.
    pub fn build_transaction_with(
        &mut self,
        way: usize,
        geometry: &FlashGeometry,
        scratch: &mut TxnScratch,
    ) -> Option<BuiltTransaction> {
        let queue = &mut self.pending[way];
        if queue.is_empty() {
            return None;
        }
        // Pick the seed request: GC first, then oldest delivery.
        let seed_index = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (!r.gc, r.delivered_at, r.id))
            .map(|(i, _)| i)?;
        let op = queue[seed_index].op;

        let mut builder = TransactionBuilder::new_with_buffer(
            op,
            geometry.clone(),
            scratch.request_pool.pop().unwrap_or_default(),
        );

        // Candidates of the same op, ordered GC-first then oldest-first, seed
        // guaranteed to be first.  The key is a total order (ids are unique),
        // so the outcome is independent of the pending set's internal order.
        scratch.order.clear();
        scratch
            .order
            .extend((0..queue.len()).filter(|&i| queue[i].op == op));
        scratch.order.sort_by_key(|&i| {
            (
                i != seed_index,
                !queue[i].gc,
                queue[i].delivered_at,
                queue[i].id,
            )
        });

        scratch.accepted.clear();
        for &i in &scratch.order {
            if builder.try_add(queue[i].addr).is_ok() {
                scratch.accepted.push(i);
            }
        }
        debug_assert!(!scratch.accepted.is_empty());
        let txn = builder.build().ok()?;
        if scratch.accepted.len() > 1 {
            self.coalesced += scratch.accepted.len() as u64;
        }

        // Collect member data in builder-insertion order (txn.requests() order)
        // before any removal disturbs the indices.
        let mut members = scratch.member_pool.pop().unwrap_or_default();
        members.clear();
        let mut extra_delay = Duration::ZERO;
        let mut contains_gc = false;
        for &i in &scratch.accepted {
            let request = &queue[i];
            members.push(request.id);
            extra_delay = extra_delay.max(request.extra_delay);
            contains_gc |= request.gc;
        }
        // Extract the chosen requests, largest index first so the remaining
        // indices stay valid.  `swap_remove` reorders the pending set, which
        // is fine: selection above never depends on positional order.
        scratch.accepted.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &scratch.accepted {
            queue.swap_remove(i);
        }
        Some(BuiltTransaction {
            txn,
            members,
            extra_delay,
            contains_gc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinkler_flash::ParallelismLevel;

    fn geometry() -> FlashGeometry {
        FlashGeometry::paper_default()
    }

    fn pending(
        id: u64,
        way: u32,
        die: u32,
        plane: u32,
        op: FlashOp,
        at: u64,
        gc: bool,
    ) -> PendingRequest {
        PendingRequest {
            id: MemReqId(id),
            addr: PhysicalPageAddr {
                channel: 0,
                way,
                die,
                plane,
                block: 1,
                page: 0,
            },
            op,
            delivered_at: SimTime::from_nanos(at),
            gc,
            tag: Some(TagId(id)),
            extra_delay: Duration::ZERO,
        }
    }

    #[test]
    fn empty_controller_builds_nothing() {
        let mut c = FlashController::new(0, 8);
        assert!(c.build_transaction(0, &geometry()).is_none());
        assert_eq!(c.total_pending(), 0);
        assert_eq!(c.channel(), 0);
    }

    #[test]
    fn single_request_builds_non_pal_transaction() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 2, 0, 0, FlashOp::Read, 10, false));
        assert_eq!(c.pending_count(2), 1);
        assert!(c.has_pending(2));
        let built = c.build_transaction(2, &geometry()).unwrap();
        assert_eq!(built.txn.parallelism(), ParallelismLevel::NonPal);
        assert_eq!(built.members, vec![MemReqId(1)]);
        assert!(!built.contains_gc);
        assert_eq!(c.pending_count(2), 0);
        assert_eq!(c.delivered(), 1);
        assert_eq!(c.coalesced(), 0);
    }

    #[test]
    fn coalesces_across_dies_and_planes() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 0, 1, FlashOp::Read, 11, false));
        c.deliver(pending(3, 0, 1, 0, FlashOp::Read, 12, false));
        c.deliver(pending(4, 0, 1, 1, FlashOp::Read, 13, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.txn.requests().len(), 4);
        assert_eq!(built.txn.parallelism(), ParallelismLevel::Pal3);
        assert_eq!(c.pending_count(0), 0);
        assert_eq!(c.coalesced(), 4);
    }

    #[test]
    fn plane_conflicts_stay_pending() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 0, 0, FlashOp::Read, 11, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.members, vec![MemReqId(1)]);
        assert_eq!(c.pending_count(0), 1);
        let second = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(second.members, vec![MemReqId(2)]);
    }

    #[test]
    fn different_ops_are_not_mixed() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 1, 0, FlashOp::Program, 11, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.txn.op(), FlashOp::Read);
        assert_eq!(built.members, vec![MemReqId(1)]);
        let next = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(next.txn.op(), FlashOp::Program);
    }

    #[test]
    fn oldest_request_decides_the_operation() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Program, 20, false));
        c.deliver(pending(2, 0, 1, 0, FlashOp::Read, 10, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.txn.op(), FlashOp::Read);
    }

    #[test]
    fn gc_traffic_is_prioritized() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 0, 1, FlashOp::Program, 50, true));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert!(built.contains_gc);
        assert_eq!(built.txn.op(), FlashOp::Program);
        assert_eq!(built.members, vec![MemReqId(2)]);
    }

    #[test]
    fn extra_delay_propagates_as_maximum() {
        let mut c = FlashController::new(0, 8);
        let mut a = pending(1, 0, 0, 0, FlashOp::Read, 10, false);
        a.extra_delay = Duration::from_micros(5);
        let mut b = pending(2, 0, 1, 0, FlashOp::Read, 11, false);
        b.extra_delay = Duration::from_micros(9);
        c.deliver(a);
        c.deliver(b);
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.extra_delay, Duration::from_micros(9));
    }

    #[test]
    #[should_panic(expected = "wrong channel")]
    fn wrong_channel_delivery_panics() {
        let mut c = FlashController::new(1, 8);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
    }

    #[test]
    fn members_match_transaction_request_order() {
        let mut c = FlashController::new(0, 8);
        c.deliver(pending(7, 0, 1, 3, FlashOp::Read, 10, false));
        c.deliver(pending(9, 0, 0, 2, FlashOp::Read, 12, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.members.len(), built.txn.requests().len());
        // The seed (oldest) request is first in both.
        assert_eq!(built.members[0], MemReqId(7));
        assert_eq!(built.txn.requests()[0].die, 1);
        assert_eq!(built.txn.requests()[0].plane, 3);
    }
}
