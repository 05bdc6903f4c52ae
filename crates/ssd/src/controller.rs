//! The transaction fold: how a chip's pending memory requests become one flash
//! transaction, and how long that transaction takes.
//!
//! Committed memory requests wait in their chip's pending set.  When the chip
//! is idle, [`build_transaction`] folds the pending set into one flash
//! transaction: a chip executes at most one page request per (die, plane)
//! under one command sequence (§2.2), so the fold takes the oldest request of
//! each (die, plane) — die interleaving plus plane sharing.  The more requests
//! the scheduler has over-committed for the chip, the higher the flash-level
//! parallelism of the transaction — this is exactly the mechanism FARO
//! exploits.
//!
//! Requests are identified twice: by their monotone [`MemReqId`], which orders
//! service (ids are never reused, so ties break by age), and by the SSD's
//! recycled `u32` slab handle, which is what a built transaction hands back.

use sprinkler_flash::{FlashGeometry, FlashOp, FlashTiming, ParallelismLevel, PhysicalPageAddr};
use sprinkler_sim::{Duration, SimTime};

use crate::request::MemReqId;

/// A memory request waiting in its chip's pending set to join a flash
/// transaction.
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
    /// When the request reached its chip's pending set.
    pub delivered_at: SimTime,
    /// Whether this is internal garbage-collection traffic (served with priority).
    pub gc: bool,
    /// Extra service delay (stale readdressing penalty for schedulers without a
    /// readdressing callback).
    pub extra_delay: Duration,
}

/// A folded flash transaction: its members and its phase times.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltTransaction {
    /// The slab handles of the member memory requests, one per (die, plane),
    /// in service order.
    pub members: Vec<u32>,
    /// The transaction's flash-level parallelism.
    pub level: ParallelismLevel,
    /// The issue bus phase: commands, addresses, and program data in.
    pub issue_bus: Duration,
    /// The cell phase: members overlap, so it is the slowest member's.
    pub cell_time: Duration,
    /// The completion bus phase: read data out and the status poll.
    pub completion_bus: Duration,
    /// The largest extra delay among the members.
    pub extra_delay: Duration,
}

/// Reusable scratch for [`build_transaction`].
///
/// The SSD owns one and threads it through each build.  Once its buffers and
/// pool have grown to the folding high-water mark, building performs no
/// allocations: the member `Vec` handed out inside [`BuiltTransaction`] comes
/// back through [`TxnScratch::recycle_members`] when the transaction
/// completes.
#[derive(Debug, Default)]
pub struct TxnScratch {
    /// Per (die, plane): the pending-set index of the first request of the
    /// chosen operation in service order, or [`NO_REQUEST`].
    first: Vec<usize>,
    /// Pending-set indices accepted into the transaction.
    accepted: Vec<usize>,
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
        while self.member_pool.len() < txn_slots + 1 {
            self.member_pool.push(Vec::with_capacity(max_fold));
        }
    }
}

/// Folds `pending`, one chip's pending set, into the best transaction
/// currently possible and removes its members from the set.  Returns `None`
/// when nothing is pending.
///
/// Selection rules:
/// 1. GC traffic is served before host traffic.
/// 2. The operation type of the oldest eligible request wins (reads and
///    programs are never mixed in one transaction).
/// 3. For each (die, plane) pair, the oldest request of that operation
///    joins — die interleaving and plane sharing.
///
/// One pass over the pending set finds the first request of each
/// (die, plane); only the accepted few are sorted, and the distinct dies are
/// counted as they are collected.  A warmed-up `scratch` makes the build
/// allocation-free.
// lint: hot-path
pub fn build_transaction(
    pending: &mut Vec<PendingRequest>,
    geometry: &FlashGeometry,
    timing: &FlashTiming,
    scratch: &mut TxnScratch,
) -> Option<BuiltTransaction> {
    // The seed request, first in service order, picks the operation.
    let op = pending.iter().min_by_key(|r| service_key(r))?.op;

    let planes = geometry.planes_per_die;
    scratch.first.clear();
    scratch
        .first
        .resize(geometry.dies_per_chip * planes, NO_REQUEST);
    for (i, request) in pending.iter().enumerate() {
        if request.op != op {
            continue;
        }
        let cell =
            &mut scratch.first[request.addr.die as usize * planes + request.addr.plane as usize];
        if *cell == NO_REQUEST || service_key(request) < service_key(&pending[*cell]) {
            *cell = i;
        }
    }
    scratch.accepted.clear();
    let mut dies = 0;
    for die in scratch.first.chunks_exact(planes) {
        let before = scratch.accepted.len();
        scratch
            .accepted
            .extend(die.iter().copied().filter(|&i| i != NO_REQUEST));
        dies += usize::from(scratch.accepted.len() > before);
    }
    scratch
        .accepted
        .sort_unstable_by_key(|&i| service_key(&pending[i]));

    // Collect member data in service order before any removal disturbs the
    // indices.
    let mut members = scratch.member_pool.pop().unwrap_or_default();
    members.clear();
    let mut extra_delay = Duration::ZERO;
    let mut cell_time = Duration::ZERO;
    for &i in &scratch.accepted {
        let request = &pending[i];
        members.push(request.handle);
        extra_delay = extra_delay.max(request.extra_delay);
        cell_time = cell_time.max(timing.cell_latency(op, request.addr.page));
    }
    // Extract the chosen requests, largest index first so the remaining
    // indices stay valid.  `swap_remove` reorders the pending set, which
    // is fine: selection above never depends on positional order.
    scratch.accepted.sort_unstable_by(|a, b| b.cmp(a));
    for &i in &scratch.accepted {
        pending.swap_remove(i);
    }
    let requests = members.len();
    Some(BuiltTransaction {
        members,
        level: ParallelismLevel::of(dies, requests),
        issue_bus: timing.issue_bus_time(op, requests, geometry.page_size),
        cell_time,
        completion_bus: timing.completion_bus_time(op, requests, geometry.page_size),
        extra_delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geometry() -> FlashGeometry {
        FlashGeometry::paper_default()
    }

    fn pending(id: u64, die: u32, plane: u32, op: FlashOp, at: u64, gc: bool) -> PendingRequest {
        PendingRequest {
            id: MemReqId(id),
            handle: id as u32,
            addr: PhysicalPageAddr {
                channel: 0,
                way: 0,
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

    /// Folds `set` with fresh scratch and the paper's timing.
    fn build(set: &mut Vec<PendingRequest>) -> Option<BuiltTransaction> {
        let timing = FlashTiming::paper_default();
        build_transaction(set, &geometry(), &timing, &mut TxnScratch::new())
    }

    /// Sort-then-greedy fold: sort every request of the seed's operation
    /// into service order, then take each whose (die, plane) is still free.
    /// The differential reference for [`build_transaction`].
    fn build_transaction_sorted(
        pending: &mut Vec<PendingRequest>,
        geometry: &FlashGeometry,
        timing: &FlashTiming,
    ) -> Option<BuiltTransaction> {
        let seed_index = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (!r.gc, r.delivered_at, r.id))
            .map(|(i, _)| i)?;
        let op = pending[seed_index].op;
        let mut order: Vec<usize> = (0..pending.len())
            .filter(|&i| pending[i].op == op)
            .collect();
        order.sort_by_key(|&i| {
            (
                i != seed_index,
                !pending[i].gc,
                pending[i].delivered_at,
                pending[i].id,
            )
        });
        let mut taken: Vec<(u32, u32)> = Vec::new();
        let mut accepted = Vec::new();
        for &i in &order {
            let at = (pending[i].addr.die, pending[i].addr.plane);
            if !taken.contains(&at) {
                taken.push(at);
                accepted.push(i);
            }
        }
        let mut dies: Vec<u32> = taken.iter().map(|&(die, _)| die).collect();
        dies.sort_unstable();
        dies.dedup();
        let members = accepted.iter().map(|&i| pending[i].handle).collect();
        let extra_delay = accepted
            .iter()
            .map(|&i| pending[i].extra_delay)
            .max()
            .unwrap_or(Duration::ZERO);
        let cell_time = accepted
            .iter()
            .map(|&i| timing.cell_latency(op, pending[i].addr.page))
            .max()
            .unwrap_or(Duration::ZERO);
        let requests = accepted.len();
        accepted.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &accepted {
            pending.swap_remove(i);
        }
        Some(BuiltTransaction {
            members,
            level: ParallelismLevel::of(dies.len(), requests),
            issue_bus: timing.issue_bus_time(op, requests, geometry.page_size),
            cell_time,
            completion_bus: timing.completion_bus_time(op, requests, geometry.page_size),
            extra_delay,
        })
    }

    #[test]
    fn empty_controller_builds_nothing() {
        assert!(build(&mut Vec::new()).is_none());
    }

    #[test]
    fn single_request_builds_non_pal_transaction() {
        let mut set = vec![pending(1, 0, 0, FlashOp::Read, 10, false)];
        let built = build(&mut set).unwrap();
        assert_eq!(built.level, ParallelismLevel::NonPal);
        assert_eq!(built.members, vec![1]);
        assert!(set.is_empty());
    }

    #[test]
    fn coalesces_across_dies_and_planes() {
        let mut set = vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 0, 1, FlashOp::Read, 11, false),
            pending(3, 1, 0, FlashOp::Read, 12, false),
            pending(4, 1, 1, FlashOp::Read, 13, false),
        ];
        let built = build(&mut set).unwrap();
        assert_eq!(built.members.len(), 4);
        assert_eq!(built.level, ParallelismLevel::Pal3);
        // The four cell phases overlap: one read's time, not four.
        assert_eq!(built.cell_time, Duration::from_micros(20));
        assert!(set.is_empty());
    }

    /// One fast (even) and one slow (odd) MLC page on two dies: the
    /// die-interleaved program waits for the slow page.
    #[test]
    fn program_fold_takes_the_slowest_page() {
        let mut slow = pending(2, 1, 0, FlashOp::Program, 11, false);
        slow.addr.page = 3;
        let mut set = vec![pending(1, 0, 0, FlashOp::Program, 10, false), slow];
        let built = build(&mut set).unwrap();
        assert_eq!(built.level, ParallelismLevel::Pal2);
        assert_eq!(built.cell_time, Duration::from_micros(2200));
    }

    #[test]
    fn plane_conflicts_stay_pending() {
        let mut set = vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 0, 0, FlashOp::Read, 11, false),
        ];
        let built = build(&mut set).unwrap();
        assert_eq!(built.members, vec![1]);
        assert_eq!(set.len(), 1);
        let second = build(&mut set).unwrap();
        assert_eq!(second.members, vec![2]);
    }

    #[test]
    fn different_ops_are_not_mixed() {
        let mut set = vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 1, 0, FlashOp::Program, 11, false),
        ];
        let built = build(&mut set).unwrap();
        assert_eq!(built.members, vec![1]);
        assert_eq!(built.cell_time, Duration::from_micros(20));
        let next = build(&mut set).unwrap();
        assert_eq!(next.members, vec![2]);
        assert_eq!(next.cell_time, Duration::from_micros(200));
    }

    #[test]
    fn oldest_request_decides_the_operation() {
        let mut set = vec![
            pending(1, 0, 0, FlashOp::Program, 20, false),
            pending(2, 1, 0, FlashOp::Read, 10, false),
        ];
        let built = build(&mut set).unwrap();
        assert_eq!(built.members, vec![2]);
        assert_eq!(set[0].op, FlashOp::Program);
    }

    #[test]
    fn gc_traffic_is_prioritized() {
        let mut set = vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 0, 1, FlashOp::Program, 50, true),
        ];
        let built = build(&mut set).unwrap();
        assert_eq!(built.members, vec![2]);
        assert_eq!(set[0].op, FlashOp::Read);
    }

    #[test]
    fn extra_delay_propagates_as_maximum() {
        let mut a = pending(1, 0, 0, FlashOp::Read, 10, false);
        a.extra_delay = Duration::from_micros(5);
        let mut b = pending(2, 1, 0, FlashOp::Read, 11, false);
        b.extra_delay = Duration::from_micros(9);
        let built = build(&mut vec![a, b]).unwrap();
        assert_eq!(built.extra_delay, Duration::from_micros(9));
    }

    #[test]
    fn members_match_transaction_request_order() {
        let mut set = vec![
            pending(9, 0, 2, FlashOp::Read, 12, false),
            pending(7, 1, 3, FlashOp::Read, 10, false),
        ];
        let built = build(&mut set).unwrap();
        // Service order: the seed (oldest) request is first, whatever its
        // position in the pending set or its (die, plane).
        assert_eq!(built.members, vec![7, 9]);
        assert_eq!(built.level, ParallelismLevel::Pal2);
    }

    /// A random pending request: (die, plane, op, delivery tick, gc when 0,
    /// extra delay, page offset).  Up to four dies × four planes and six
    /// delivery ticks make (die, plane) collisions and delivery-time ties
    /// common; odd page offsets are slow MLC programs.
    type PendingSpec = (u32, u32, u8, u64, u8, u64, u32);

    fn arb_pending_set() -> impl Strategy<Value = Vec<PendingSpec>> {
        prop::collection::vec(
            (0u32..4, 0u32..4, 0u8..3, 0u64..6, 0u8..4, 0u64..3, 0u32..4),
            1..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On a drawn chip shape, the one-pass fold and the sort-then-greedy
        /// reference agree on every build until the pending set drains:
        /// members and their order, the parallelism level, all three phase
        /// times, `extra_delay`, and the leftover pending set (order
        /// included).
        #[test]
        fn one_pass_build_matches_the_sorted_reference(
            dies in 1u32..5,
            planes in 1u32..5,
            specs in arb_pending_set(),
        ) {
            let mut g = geometry();
            g.dies_per_chip = dies as usize;
            g.planes_per_die = planes as usize;
            let timing = FlashTiming::paper_default();
            let ops = [FlashOp::Read, FlashOp::Program, FlashOp::Erase];
            let mut fast = Vec::new();
            for (i, &(die, plane, op, at, gc, delay, page)) in specs.iter().enumerate() {
                let mut request =
                    pending(i as u64, die % dies, plane % planes, ops[op as usize], at, gc == 0);
                // Slab handles are recycled, so they are unrelated to age.
                request.handle = (i as u32 * 7 + 3) % 41;
                request.extra_delay = Duration::from_micros(delay);
                request.addr.page = page;
                fast.push(request);
            }
            let mut reference = fast.clone();
            let mut scratch = TxnScratch::new();
            loop {
                let built = build_transaction(&mut fast, &g, &timing, &mut scratch);
                prop_assert_eq!(&built, &build_transaction_sorted(&mut reference, &g, &timing));
                prop_assert_eq!(&fast, &reference);
                let Some(built) = built else { break };
                scratch.recycle_members(built.members);
            }
        }
    }
}
