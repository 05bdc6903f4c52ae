//! Per-channel flash controllers.
//!
//! A flash controller owns the chips of one channel.  Committed memory requests are
//! delivered into per-chip pending sets; when a chip is idle the controller builds
//! a flash transaction by coalescing pending requests that target distinct
//! dies/planes of that chip (die interleaving + plane sharing), within the limits
//! the flash microarchitecture allows.  The more requests the scheduler has
//! over-committed for the chip, the higher the flash-level parallelism of the
//! transaction — this is exactly the mechanism FARO exploits.
//!
//! Requests are identified twice: by their monotone [`MemReqId`], which orders
//! service (ids are never reused, so ties break by age), and by the SSD's
//! recycled `u32` slab handle, which is what a built transaction hands back.

use sprinkler_flash::{
    FlashGeometry, FlashOp, FlashTransaction, PhysicalPageAddr, TransactionBuilder,
};
use sprinkler_sim::{Duration, SimTime};

use crate::request::MemReqId;

/// A memory request waiting at the controller to join a flash transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// The memory request's identifier (monotone: the service-order
    /// tie-break).
    pub id: MemReqId,
    /// The request's slab handle in the SSD (recycled, so never used for
    /// ordering).
    pub handle: u32,
    /// Fully resolved physical address.
    pub addr: PhysicalPageAddr,
    /// The flash operation required.
    pub op: FlashOp,
    /// When the request reached the controller.
    pub delivered_at: SimTime,
    /// Whether this is internal garbage-collection traffic (served with priority).
    pub gc: bool,
    /// Extra service delay (stale readdressing penalty for schedulers without a
    /// readdressing callback).
    pub extra_delay: Duration,
}

/// The outcome of asking the controller to build a transaction for a chip.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltTransaction {
    /// The coalesced flash transaction.
    pub txn: FlashTransaction,
    /// The slab handles of the memory requests folded into it, in the same
    /// order as `txn.requests()`.
    pub members: Vec<u32>,
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
    /// Per (die, plane): the pending-set index of the first request of the
    /// chosen operation in service order, or [`NO_REQUEST`].
    first: Vec<usize>,
    /// Pending-set indices accepted into the transaction, in builder order.
    accepted: Vec<usize>,
    /// Recycled request buffers for [`TransactionBuilder::new_with_buffer`].
    request_pool: Vec<Vec<PhysicalPageAddr>>,
    /// Recycled member-handle buffers for [`BuiltTransaction::members`].
    member_pool: Vec<Vec<u32>>,
}

/// Empty cell of [`TxnScratch::first`].
const NO_REQUEST: usize = usize::MAX;

/// Service order: GC traffic first, then oldest delivery, then the monotone
/// id (a total order, so selection never depends on the pending set's
/// internal order).
fn service_key(request: &PendingRequest) -> (bool, SimTime, MemReqId) {
    (!request.gc, request.delivered_at, request.id)
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
    pub fn recycle_members(&mut self, buffer: Vec<u32>) {
        self.member_pool.push(buffer);
    }

    /// Pre-sizes every buffer to its structural bound so the scratch never
    /// grows on the hot path: `max_pending` bounds a chip's pending set (the
    /// per-chip commitment cap), `max_fold` bounds a transaction's request
    /// count (distinct (die, plane) pairs), and `txn_slots` bounds the number
    /// of member buffers simultaneously checked out (live transactions, at
    /// most one per chip plus one being built).
    pub fn preallocate(&mut self, max_pending: usize, max_fold: usize, txn_slots: usize) {
        self.first.reserve(max_fold);
        self.accepted.reserve(max_pending.min(max_fold));
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
}

impl FlashController {
    /// Creates the controller for `channel` with one pending set per chip (way),
    /// each pre-sized to hold `pending_capacity` requests.
    pub fn new(channel: usize, ways: usize, pending_capacity: usize) -> Self {
        FlashController {
            channel,
            pending: (0..ways)
                .map(|_| Vec::with_capacity(pending_capacity))
                .collect(),
        }
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

    /// Builds the best transaction currently possible for `way`, removing the
    /// selected requests from the pending set.  Returns `None` when nothing is
    /// pending.
    ///
    /// Selection rules:
    /// 1. GC traffic is served before host traffic.
    /// 2. The operation type of the oldest eligible request wins (reads and
    ///    programs are never mixed in one transaction).
    /// 3. For each (die, plane) pair, the oldest request of that operation
    ///    joins — die interleaving and plane sharing.
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
    ///
    /// A way's pending set all targets one chip, and one request per
    /// (die, plane) is the builder's only other coalescing rule, so folding
    /// candidates greedily in service order accepts exactly the first valid
    /// request of each (die, plane).  One pass over the pending set finds
    /// those; only the accepted few are sorted.
    pub fn build_transaction_with(
        &mut self,
        way: usize,
        geometry: &FlashGeometry,
        scratch: &mut TxnScratch,
    ) -> Option<BuiltTransaction> {
        let queue = &mut self.pending[way];
        // The seed request, first in service order, picks the operation.
        let op = queue.iter().min_by_key(|r| service_key(r))?.op;

        let planes = geometry.planes_per_die;
        scratch.first.clear();
        scratch
            .first
            .resize(geometry.dies_per_chip * planes, NO_REQUEST);
        for (i, request) in queue.iter().enumerate() {
            if request.op != op || geometry.check_addr(request.addr).is_err() {
                continue;
            }
            let cell = &mut scratch.first
                [request.addr.die as usize * planes + request.addr.plane as usize];
            if *cell == NO_REQUEST || service_key(request) < service_key(&queue[*cell]) {
                *cell = i;
            }
        }
        scratch.accepted.clear();
        scratch
            .accepted
            .extend(scratch.first.iter().copied().filter(|&i| i != NO_REQUEST));
        scratch
            .accepted
            .sort_unstable_by_key(|&i| service_key(&queue[i]));
        debug_assert!(!scratch.accepted.is_empty());

        let mut builder = TransactionBuilder::new_with_buffer(
            op,
            geometry.clone(),
            scratch.request_pool.pop().unwrap_or_default(),
        );
        for &i in &scratch.accepted {
            let added = builder.try_add(queue[i].addr);
            debug_assert!(added.is_ok(), "distinct (die, plane) pairs always fold");
        }
        let txn = builder.build().ok()?;

        // Collect member data in builder-insertion order (txn.requests() order)
        // before any removal disturbs the indices.
        let mut members = scratch.member_pool.pop().unwrap_or_default();
        members.clear();
        let mut extra_delay = Duration::ZERO;
        let mut contains_gc = false;
        for &i in &scratch.accepted {
            let request = &queue[i];
            members.push(request.handle);
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

    /// Sort-then-greedy build: sort every request of the seed's operation
    /// into service order, then fold them into the builder, which rejects
    /// (die, plane) collisions.  The differential reference for
    /// [`FlashController::build_transaction_with`].
    #[cfg(test)]
    fn build_transaction_sorted(
        &mut self,
        way: usize,
        geometry: &FlashGeometry,
    ) -> Option<BuiltTransaction> {
        let queue = &mut self.pending[way];
        if queue.is_empty() {
            return None;
        }
        let seed_index = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (!r.gc, r.delivered_at, r.id))
            .map(|(i, _)| i)?;
        let op = queue[seed_index].op;
        let mut builder = TransactionBuilder::new(op, geometry.clone());
        let mut order: Vec<usize> = (0..queue.len()).filter(|&i| queue[i].op == op).collect();
        order.sort_by_key(|&i| {
            (
                i != seed_index,
                !queue[i].gc,
                queue[i].delivered_at,
                queue[i].id,
            )
        });
        let mut accepted = Vec::new();
        for &i in &order {
            if builder.try_add(queue[i].addr).is_ok() {
                accepted.push(i);
            }
        }
        let txn = builder.build().ok()?;
        let members = accepted.iter().map(|&i| queue[i].handle).collect();
        let extra_delay = accepted
            .iter()
            .map(|&i| queue[i].extra_delay)
            .max()
            .unwrap_or(Duration::ZERO);
        let contains_gc = accepted.iter().any(|&i| queue[i].gc);
        accepted.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &accepted {
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
    use proptest::prelude::*;
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
            handle: id as u32,
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
            extra_delay: Duration::ZERO,
        }
    }

    #[test]
    fn empty_controller_builds_nothing() {
        let mut c = FlashController::new(0, 8, 4);
        assert!(c.build_transaction(0, &geometry()).is_none());
        assert!(!c.has_pending(0));
    }

    #[test]
    fn single_request_builds_non_pal_transaction() {
        let mut c = FlashController::new(0, 8, 4);
        c.deliver(pending(1, 2, 0, 0, FlashOp::Read, 10, false));
        assert_eq!(c.pending_count(2), 1);
        assert!(c.has_pending(2));
        let built = c.build_transaction(2, &geometry()).unwrap();
        assert_eq!(built.txn.parallelism(), ParallelismLevel::NonPal);
        assert_eq!(built.members, vec![1]);
        assert!(!built.contains_gc);
        assert_eq!(c.pending_count(2), 0);
    }

    #[test]
    fn coalesces_across_dies_and_planes() {
        let mut c = FlashController::new(0, 8, 4);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 0, 1, FlashOp::Read, 11, false));
        c.deliver(pending(3, 0, 1, 0, FlashOp::Read, 12, false));
        c.deliver(pending(4, 0, 1, 1, FlashOp::Read, 13, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.txn.requests().len(), 4);
        assert_eq!(built.txn.parallelism(), ParallelismLevel::Pal3);
        assert_eq!(c.pending_count(0), 0);
    }

    #[test]
    fn plane_conflicts_stay_pending() {
        let mut c = FlashController::new(0, 8, 4);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 0, 0, FlashOp::Read, 11, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.members, vec![1]);
        assert_eq!(c.pending_count(0), 1);
        let second = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(second.members, vec![2]);
    }

    #[test]
    fn different_ops_are_not_mixed() {
        let mut c = FlashController::new(0, 8, 4);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 1, 0, FlashOp::Program, 11, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.txn.op(), FlashOp::Read);
        assert_eq!(built.members, vec![1]);
        let next = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(next.txn.op(), FlashOp::Program);
    }

    #[test]
    fn oldest_request_decides_the_operation() {
        let mut c = FlashController::new(0, 8, 4);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Program, 20, false));
        c.deliver(pending(2, 0, 1, 0, FlashOp::Read, 10, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.txn.op(), FlashOp::Read);
    }

    #[test]
    fn gc_traffic_is_prioritized() {
        let mut c = FlashController::new(0, 8, 4);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
        c.deliver(pending(2, 0, 0, 1, FlashOp::Program, 50, true));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert!(built.contains_gc);
        assert_eq!(built.txn.op(), FlashOp::Program);
        assert_eq!(built.members, vec![2]);
    }

    #[test]
    fn extra_delay_propagates_as_maximum() {
        let mut c = FlashController::new(0, 8, 4);
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
        let mut c = FlashController::new(1, 8, 4);
        c.deliver(pending(1, 0, 0, 0, FlashOp::Read, 10, false));
    }

    #[test]
    fn members_match_transaction_request_order() {
        let mut c = FlashController::new(0, 8, 4);
        c.deliver(pending(7, 0, 1, 3, FlashOp::Read, 10, false));
        c.deliver(pending(9, 0, 0, 2, FlashOp::Read, 12, false));
        let built = c.build_transaction(0, &geometry()).unwrap();
        assert_eq!(built.members.len(), built.txn.requests().len());
        // The seed (oldest) request is first in both.
        assert_eq!(built.members[0], 7);
        assert_eq!(built.txn.requests()[0].die, 1);
        assert_eq!(built.txn.requests()[0].plane, 3);
    }

    /// A random pending request: (die, plane, op, delivery tick, gc when 0,
    /// extra delay).  Two dies × four planes and six delivery ticks make
    /// (die, plane) collisions and delivery-time ties common.
    type PendingSpec = (u32, u32, u8, u64, u8, u64);

    fn arb_pending_set() -> impl Strategy<Value = Vec<PendingSpec>> {
        prop::collection::vec((0u32..2, 0u32..4, 0u8..3, 0u64..6, 0u8..4, 0u64..3), 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass build and the sort-then-greedy reference agree on
        /// every build until the pending set drains: members and their
        /// order, the transaction, `extra_delay`, `contains_gc`, and the
        /// leftover pending set (order included).
        #[test]
        fn one_pass_build_matches_the_sorted_reference(specs in arb_pending_set()) {
            let g = geometry();
            let ops = [FlashOp::Read, FlashOp::Program, FlashOp::Erase];
            let mut fast = FlashController::new(0, 1, 4);
            let mut reference = FlashController::new(0, 1, 4);
            for (i, &(die, plane, op, at, gc, delay)) in specs.iter().enumerate() {
                let mut request = pending(i as u64, 0, die, plane, ops[op as usize], at, gc == 0);
                // Slab handles are recycled, so they are unrelated to age.
                request.handle = (i as u32 * 7 + 3) % 41;
                request.extra_delay = Duration::from_micros(delay);
                fast.deliver(request.clone());
                reference.deliver(request);
            }
            let mut scratch = TxnScratch::new();
            loop {
                let built = fast.build_transaction_with(0, &g, &mut scratch);
                prop_assert_eq!(&built, &reference.build_transaction_sorted(0, &g));
                prop_assert_eq!(&fast.pending, &reference.pending);
                let Some(built) = built else { break };
                scratch.recycle_members(built.members);
                scratch.recycle_requests(built.txn.into_requests());
            }
        }
    }
}
