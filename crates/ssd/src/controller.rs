//! The transaction fold: how a chip's pending memory requests become one flash
//! transaction, and how long that transaction takes.
//!
//! Delivered memory requests wait in [`PendingSets`] until their chip is
//! idle.  A chip executes at most one page request per (die, plane) under one
//! command sequence (§2.2), so [`PendingSets::fold`] takes the first request
//! in service order of each (die, plane) for one operation — die
//! interleaving plus plane sharing.  The more requests the scheduler has
//! over-committed for the chip, the higher the flash-level parallelism of the
//! transaction — this is exactly the mechanism FARO exploits.
//!
//! Each (chip, die, plane) keeps two lists in service order, one of GC
//! traffic and one of host traffic, threaded through one node arena, and
//! each chip a bitset of the (die, plane) pairs that hold a request.  A fold
//! visits only the occupied pairs and the requests it takes, never the
//! chip's whole pending set: a GC job that queues a victim block's valid
//! pages on one plane costs each fold one list head, not a scan of them all.
//!
//! Requests are identified twice: by their monotone [`MemReqId`], which orders
//! service (ids are never reused, so ties break by age), and by the SSD's
//! recycled `u32` slab handle, which is what a built transaction hands back.

use sprinkler_flash::{FlashGeometry, FlashOp, FlashTiming, ParallelismLevel, PhysicalPageAddr};
use sprinkler_sim::{Duration, SimTime};

use crate::request::MemReqId;

/// A memory request delivered to its chip, ready to join a flash
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

/// Service order: GC traffic first, then oldest delivery, then the monotone
/// id (a total order, so a fold never depends on delivery order).
type ServiceKey = (bool, SimTime, MemReqId);

/// End of a list, or of the node arena's free list.
const NO_NODE: u32 = u32::MAX;

/// One pending request in the arena: what the fold reads, plus its link.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: MemReqId,
    delivered_at: SimTime,
    extra_delay: Duration,
    handle: u32,
    /// Page offset within its block (MLC programs are slower on odd pages).
    page: u32,
    /// The next node of its list, or of the free list once freed.
    next: u32,
    /// The (die, plane) pair within the chip: `die × planes_per_die + plane`.
    pair: u16,
    op: FlashOp,
    gc: bool,
}

impl Node {
    fn key(&self) -> ServiceKey {
        (!self.gc, self.delivered_at, self.id)
    }
}

/// A singly linked list of arena nodes, in service order.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NO_NODE,
        tail: NO_NODE,
    };

    /// Links node `index` in service order: at the tail, unless the tail is
    /// keyed after it (a write whose data arrived at the instant a younger
    /// read was delivered), then after the last node keyed before it.
    fn link(&mut self, nodes: &mut [Node], index: u32) {
        let key = nodes[index as usize].key();
        if self.tail == NO_NODE {
            self.head = index;
            self.tail = index;
        } else if nodes[self.tail as usize].key() < key {
            nodes[self.tail as usize].next = index;
            self.tail = index;
        } else {
            // Keys are unique and the tail's is later, so the walk stops at
            // or before the tail.
            let mut prev = NO_NODE;
            let mut at = self.head;
            while nodes[at as usize].key() < key {
                prev = at;
                at = nodes[at as usize].next;
            }
            nodes[index as usize].next = at;
            match prev {
                NO_NODE => self.head = index,
                _ => nodes[prev as usize].next = index,
            }
        }
    }

    /// Unlinks and returns the first node of operation `op`, or `NO_NODE`.
    fn take_first(&mut self, nodes: &mut [Node], op: FlashOp) -> u32 {
        let mut prev = NO_NODE;
        let mut at = self.head;
        while at != NO_NODE && nodes[at as usize].op != op {
            prev = at;
            at = nodes[at as usize].next;
        }
        if at == NO_NODE {
            return NO_NODE;
        }
        let next = nodes[at as usize].next;
        match prev {
            NO_NODE => self.head = next,
            _ => nodes[prev as usize].next = next,
        }
        if self.tail == at {
            self.tail = prev;
        }
        at
    }
}

/// The GC and host lists of one (chip, die, plane).
#[derive(Debug, Clone, Copy)]
struct PairLists {
    gc: List,
    host: List,
}

impl PairLists {
    /// The pair's first request in service order: GC traffic comes first.
    fn head(&self) -> u32 {
        if self.gc.head == NO_NODE {
            self.host.head
        } else {
            self.gc.head
        }
    }

    fn is_empty(&self) -> bool {
        self.gc.head == NO_NODE && self.host.head == NO_NODE
    }
}

/// Every chip's pending memory requests, and the fold that turns them into
/// flash transactions.
///
/// Requests live in one node arena with an intrusive free list, pre-sized to
/// the in-flight bound the SSD passes in; GC traffic is not charged to the
/// commitment ledger, so it may grow the arena past that, to its high-water
/// mark.  Each (chip, die, plane) threads two lists through the arena, GC and
/// host traffic, each in service order, and each chip keeps a bitset of its
/// occupied pairs.  Once the arena and the member pool have grown to their
/// high-water marks, pushing and folding perform no allocations: the member
/// `Vec` handed out inside [`BuiltTransaction`] comes back through
/// [`PendingSets::recycle_members`] when the transaction completes.
#[derive(Debug)]
pub struct PendingSets {
    planes_per_die: usize,
    /// (die, plane) pairs per chip.
    pairs: usize,
    /// `u64` words in a chip's occupancy bitset.
    words: usize,
    page_size: usize,
    /// Per (chip, pair), chip-major: the GC and host lists.
    lists: Vec<PairLists>,
    /// Per chip, `words` words: bit `p` is set while pair `p` holds a
    /// request.
    occupied: Vec<u64>,
    /// Per chip: its pending requests.
    counts: Vec<usize>,
    nodes: Vec<Node>,
    /// First free arena node (`NO_NODE` when none).
    free: u32,
    /// Fold scratch: the nodes taken into the transaction.
    picked: Vec<u32>,
    /// Recycled member-handle buffers for [`BuiltTransaction::members`].
    member_pool: Vec<Vec<u32>>,
}

impl PendingSets {
    /// Empty pending sets for every chip of `geometry`, the arena pre-sized
    /// to `in_flight` requests.  The member pool holds a buffer per chip
    /// plus one, since at most one transaction per chip is live while
    /// another is built, each at most one request per (die, plane).
    pub fn new(geometry: &FlashGeometry, in_flight: usize) -> Self {
        let chips = geometry.total_chips();
        let pairs = geometry.dies_per_chip * geometry.planes_per_die;
        let words = pairs.div_ceil(64);
        PendingSets {
            planes_per_die: geometry.planes_per_die,
            pairs,
            words,
            page_size: geometry.page_size,
            lists: vec![
                PairLists {
                    gc: List::EMPTY,
                    host: List::EMPTY,
                };
                chips * pairs
            ],
            occupied: vec![0; chips * words],
            counts: vec![0; chips],
            nodes: Vec::with_capacity(in_flight),
            free: NO_NODE,
            picked: Vec::with_capacity(pairs),
            member_pool: (0..=chips).map(|_| Vec::with_capacity(pairs)).collect(),
        }
    }

    /// Whether nothing is pending on `chip`.
    pub fn is_empty(&self, chip: usize) -> bool {
        self.counts[chip] == 0
    }

    /// Adds `request`, delivered to `chip`, to its (die, plane)'s GC or host
    /// list in service order.
    // lint: hot-path
    pub fn push(&mut self, chip: usize, request: PendingRequest) {
        let (die, plane) = (request.addr.die as usize, request.addr.plane as usize);
        debug_assert!(
            plane < self.planes_per_die && die * self.planes_per_die < self.pairs,
            "{} lies outside the chip's (die, plane) pairs",
            request.addr
        );
        let pair = die * self.planes_per_die + plane;
        let node = Node {
            id: request.id,
            delivered_at: request.delivered_at,
            extra_delay: request.extra_delay,
            handle: request.handle,
            page: request.addr.page,
            next: NO_NODE,
            pair: pair as u16,
            op: request.op,
            gc: request.gc,
        };
        let index = if self.free == NO_NODE {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = self.nodes[index as usize].next;
            self.nodes[index as usize] = node;
            index
        };
        let lists = &mut self.lists[chip * self.pairs + pair];
        let list = if request.gc {
            &mut lists.gc
        } else {
            &mut lists.host
        };
        list.link(&mut self.nodes, index);
        self.occupied[chip * self.words + pair / 64] |= 1 << (pair % 64);
        self.counts[chip] += 1;
        if cfg!(debug_assertions) {
            self.check_chip(chip);
        }
    }

    /// Folds `chip`'s pending requests into the best transaction currently
    /// possible and removes its members.  Returns `None` when nothing is
    /// pending.
    ///
    /// Selection rules:
    /// 1. GC traffic is served before host traffic.
    /// 2. The operation of the first request in service order (the seed)
    ///    wins: reads and programs are never mixed in one transaction.
    /// 3. For each (die, plane) pair, its first request of that operation
    ///    joins — die interleaving and plane sharing.
    ///
    /// The seed is the least head over the occupied pairs; each pair then
    /// gives the first request of the seed's operation, from its GC list
    /// first and then its host list.  Only the members are sorted, and the
    /// distinct dies are counted as pairs are visited in (die, plane)
    /// order.  The work is O(occupied pairs + members) plus the nodes of
    /// the other operation a list holds ahead of the taken one.
    // lint: hot-path
    pub fn fold(&mut self, chip: usize, timing: &FlashTiming) -> Option<BuiltTransaction> {
        if self.counts[chip] == 0 {
            return None;
        }
        let lists = &mut self.lists[chip * self.pairs..(chip + 1) * self.pairs];
        let occupied = &mut self.occupied[chip * self.words..(chip + 1) * self.words];
        let nodes = &mut self.nodes;

        let mut seed: Option<&Node> = None;
        for (w, &word) in occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let pair = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let head = &nodes[lists[pair].head() as usize];
                if seed.is_none_or(|seed| head.key() < seed.key()) {
                    seed = Some(head);
                }
            }
        }
        let op = seed?.op;

        self.picked.clear();
        let mut dies = 0;
        let mut last_die = usize::MAX;
        for (w, word) in occupied.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let pair = w * 64 + bit;
                let pair_lists = &mut lists[pair];
                let mut taken = pair_lists.gc.take_first(nodes, op);
                if taken == NO_NODE {
                    taken = pair_lists.host.take_first(nodes, op);
                }
                if pair_lists.is_empty() {
                    *word &= !(1 << bit);
                }
                if taken == NO_NODE {
                    continue;
                }
                debug_assert!(
                    usize::from(nodes[taken as usize].pair) == pair
                        && nodes[taken as usize].op == op,
                    "a member must sit on the pair whose list held it and share the seed's operation"
                );
                self.picked.push(taken);
                let die = pair / self.planes_per_die;
                dies += usize::from(die != last_die);
                last_die = die;
            }
        }
        self.picked
            .sort_unstable_by_key(|&index| nodes[index as usize].key());

        let mut members = self.member_pool.pop().unwrap_or_default();
        members.clear();
        let mut extra_delay = Duration::ZERO;
        let mut cell_time = Duration::ZERO;
        for &index in &self.picked {
            let node = &mut nodes[index as usize];
            members.push(node.handle);
            extra_delay = extra_delay.max(node.extra_delay);
            cell_time = cell_time.max(timing.cell_latency(op, node.page));
            node.next = self.free;
            self.free = index;
        }
        let requests = members.len();
        self.counts[chip] -= requests;
        if cfg!(debug_assertions) {
            self.check_chip(chip);
        }
        Some(BuiltTransaction {
            members,
            level: ParallelismLevel::of(dies, requests),
            issue_bus: timing.issue_bus_time(op, requests, self.page_size),
            cell_time,
            completion_bus: timing.completion_bus_time(op, requests, self.page_size),
            extra_delay,
        })
    }

    /// Returns a spent member buffer (from [`BuiltTransaction::members`]) to
    /// the pool.
    pub fn recycle_members(&mut self, buffer: Vec<u32>) {
        self.member_pool.push(buffer);
    }

    /// Asserts `chip`'s structure: each list holds only its own pair's
    /// requests of its class, in strict service order, and ends at its
    /// tail; a pair's bit is set exactly when it holds a request; and the
    /// chip's count is the sum of its list lengths.  Debug builds run it
    /// after every push and fold.
    fn check_chip(&self, chip: usize) {
        let mut total = 0;
        for pair in 0..self.pairs {
            let lists = &self.lists[chip * self.pairs + pair];
            let mut len = 0;
            for (list, gc) in [(&lists.gc, true), (&lists.host, false)] {
                let mut last_key: Option<ServiceKey> = None;
                let mut last = NO_NODE;
                let mut at = list.head;
                while at != NO_NODE {
                    let node = &self.nodes[at as usize];
                    assert!(
                        usize::from(node.pair) == pair && node.gc == gc,
                        "request {:?} sits in another pair's or class's list",
                        node.id
                    );
                    assert!(
                        last_key.is_none_or(|key| key < node.key()),
                        "request {:?} is out of service order",
                        node.id
                    );
                    last_key = Some(node.key());
                    last = at;
                    len += 1;
                    at = node.next;
                }
                assert_eq!(list.tail, last, "a list's tail is not its last node");
            }
            let bit = self.occupied[chip * self.words + pair / 64] >> (pair % 64) & 1;
            assert_eq!(bit == 1, len > 0, "pair {pair}'s occupancy bit is stale");
            total += len;
        }
        assert_eq!(
            total, self.counts[chip],
            "chip {chip}'s count is not the sum of its list lengths"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One chip of the paper's (die, plane) shape.
    fn geometry() -> FlashGeometry {
        chip_geometry(2, 4)
    }

    /// A one-chip geometry of `dies` × `planes`, otherwise the paper's.
    fn chip_geometry(dies: usize, planes: usize) -> FlashGeometry {
        FlashGeometry {
            channels: 1,
            chips_per_channel: 1,
            dies_per_chip: dies,
            planes_per_die: planes,
            ..FlashGeometry::paper_default()
        }
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

    /// The paper-shaped chip with `requests` delivered in order.
    fn chip_of(requests: Vec<PendingRequest>) -> PendingSets {
        let mut sets = PendingSets::new(&geometry(), requests.len());
        for request in requests {
            sets.push(0, request);
        }
        sets
    }

    /// Folds the chip with the paper's timing.
    fn fold(sets: &mut PendingSets) -> Option<BuiltTransaction> {
        sets.fold(0, &FlashTiming::paper_default())
    }

    /// Sort-then-greedy fold: sort every request of the seed's operation
    /// into service order, then take each whose (die, plane) is still free.
    /// The differential reference for [`PendingSets::fold`].
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
        let mut sets = chip_of(Vec::new());
        assert!(sets.is_empty(0));
        assert!(fold(&mut sets).is_none());
    }

    #[test]
    fn single_request_builds_non_pal_transaction() {
        let mut sets = chip_of(vec![pending(1, 0, 0, FlashOp::Read, 10, false)]);
        let built = fold(&mut sets).unwrap();
        assert_eq!(built.level, ParallelismLevel::NonPal);
        assert_eq!(built.members, vec![1]);
        assert!(sets.is_empty(0));
    }

    #[test]
    fn coalesces_across_dies_and_planes() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 0, 1, FlashOp::Read, 11, false),
            pending(3, 1, 0, FlashOp::Read, 12, false),
            pending(4, 1, 1, FlashOp::Read, 13, false),
        ]);
        let built = fold(&mut sets).unwrap();
        assert_eq!(built.members.len(), 4);
        assert_eq!(built.level, ParallelismLevel::Pal3);
        // The four cell phases overlap: one read's time, not four.
        assert_eq!(built.cell_time, Duration::from_micros(20));
        assert!(sets.is_empty(0));
    }

    /// One fast (even) and one slow (odd) MLC page on two dies: the
    /// die-interleaved program waits for the slow page.
    #[test]
    fn program_fold_takes_the_slowest_page() {
        let mut slow = pending(2, 1, 0, FlashOp::Program, 11, false);
        slow.addr.page = 3;
        let mut sets = chip_of(vec![pending(1, 0, 0, FlashOp::Program, 10, false), slow]);
        let built = fold(&mut sets).unwrap();
        assert_eq!(built.level, ParallelismLevel::Pal2);
        assert_eq!(built.cell_time, Duration::from_micros(2200));
    }

    #[test]
    fn plane_conflicts_stay_pending() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 0, 0, FlashOp::Read, 11, false),
        ]);
        let built = fold(&mut sets).unwrap();
        assert_eq!(built.members, vec![1]);
        assert_eq!(sets.counts[0], 1);
        let second = fold(&mut sets).unwrap();
        assert_eq!(second.members, vec![2]);
    }

    #[test]
    fn different_ops_are_not_mixed() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 1, 0, FlashOp::Program, 11, false),
        ]);
        let built = fold(&mut sets).unwrap();
        assert_eq!(built.members, vec![1]);
        assert_eq!(built.cell_time, Duration::from_micros(20));
        let next = fold(&mut sets).unwrap();
        assert_eq!(next.members, vec![2]);
        assert_eq!(next.cell_time, Duration::from_micros(200));
    }

    #[test]
    fn oldest_request_decides_the_operation() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Program, 20, false),
            pending(2, 1, 0, FlashOp::Read, 10, false),
        ]);
        let built = fold(&mut sets).unwrap();
        assert_eq!(built.members, vec![2]);
        // The program is left, alone.
        let next = fold(&mut sets).unwrap();
        assert_eq!(next.members, vec![1]);
        assert_eq!(next.cell_time, Duration::from_micros(200));
    }

    #[test]
    fn gc_traffic_is_prioritized() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 0, 1, FlashOp::Program, 50, true),
        ]);
        let built = fold(&mut sets).unwrap();
        assert_eq!(built.members, vec![2]);
        // The read is left, alone.
        let next = fold(&mut sets).unwrap();
        assert_eq!(next.members, vec![1]);
        assert_eq!(next.cell_time, Duration::from_micros(20));
    }

    #[test]
    fn extra_delay_propagates_as_maximum() {
        let mut a = pending(1, 0, 0, FlashOp::Read, 10, false);
        a.extra_delay = Duration::from_micros(5);
        let mut b = pending(2, 1, 0, FlashOp::Read, 11, false);
        b.extra_delay = Duration::from_micros(9);
        let built = fold(&mut chip_of(vec![a, b])).unwrap();
        assert_eq!(built.extra_delay, Duration::from_micros(9));
    }

    #[test]
    fn members_match_transaction_request_order() {
        let mut sets = chip_of(vec![
            pending(9, 0, 2, FlashOp::Read, 12, false),
            pending(7, 1, 3, FlashOp::Read, 10, false),
        ]);
        let built = fold(&mut sets).unwrap();
        // Service order: the seed (oldest) request is first, whatever its
        // delivery order or its (die, plane).
        assert_eq!(built.members, vec![7, 9]);
        assert_eq!(built.level, ParallelismLevel::Pal2);
    }

    /// The shape GC gives a chip: a victim block's 40 valid pages queued as
    /// reads on its one plane at once, beside host reads on the other seven
    /// planes.  Each fold takes exactly one of the GC reads, in order, plus
    /// the oldest host read of every other plane while any is left.
    #[test]
    fn gc_reads_on_one_plane_fold_one_at_a_time_beside_host_reads() {
        let mut requests = Vec::new();
        for age in 0..2 {
            for plane in 1..8 {
                let id = age * 10 + plane;
                requests.push(pending(
                    id,
                    plane as u32 / 4,
                    plane as u32 % 4,
                    FlashOp::Read,
                    age,
                    false,
                ));
            }
        }
        requests.extend((100..140).map(|id| pending(id, 0, 0, FlashOp::Read, 5, true)));
        let mut left = requests.len();
        let mut sets = chip_of(requests);
        for i in 0..40 {
            let built = fold(&mut sets).unwrap();
            let mut expected = vec![100 + i];
            if i < 2 {
                expected.extend((1..8).map(|plane| i * 10 + plane));
            }
            assert_eq!(built.members, expected, "fold {i}");
            let level = if i < 2 {
                ParallelismLevel::Pal3
            } else {
                ParallelismLevel::NonPal
            };
            assert_eq!(built.level, level, "fold {i}");
            left -= expected.len();
            assert_eq!(sets.counts[0], left);
            sets.recycle_members(built.members);
        }
        assert!(fold(&mut sets).is_none());
    }

    /// A write's data can cross the DMA engine at the instant a younger
    /// read is delivered to the same plane: the write arrives second but
    /// holds the older id, so it is linked before the read, not after it.
    #[test]
    fn a_write_delivered_at_the_instant_of_a_younger_read_is_served_first() {
        let mut sets = chip_of(vec![
            pending(3, 0, 0, FlashOp::Read, 10, false),
            pending(7, 0, 0, FlashOp::Read, 20, false),
            pending(5, 0, 0, FlashOp::Program, 20, false),
        ]);
        let order: Vec<Vec<u32>> = (0..3).map(|_| fold(&mut sets).unwrap().members).collect();
        assert_eq!(order, vec![vec![3], vec![5], vec![7]]);
    }

    /// One drawn step of a chip's traffic: (kind, die, plane, op, clock
    /// ticks, extra delay, page offset).  Kinds: 0 advances the clock; 1
    /// delivers a GC request; 2–3 deliver a host read; 4 commits a host
    /// write, whose data then waits in the DMA engine's FIFO; 5 delivers the
    /// oldest such write; 6–7 fold.  GC requests and host reads take a
    /// fresh id at delivery, and a write its commit's id, so a write can
    /// arrive at the same instant as a younger read, after it.
    type Step = (u8, u32, u32, u8, u64, u64, u32);

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec(
            (
                0u8..8,
                0u32..64,
                0u32..64,
                0u8..3,
                0u64..3,
                0u64..3,
                0u32..4,
            ),
            1..120,
        )
    }

    /// Replays `steps` on a one-chip pending set of `dies` × `planes` and
    /// on a `Vec` folded by [`build_transaction_sorted`], asserting equal
    /// transactions at every fold and then until both drain.
    fn assert_fold_matches_the_sorted_reference(steps: &[Step], dies: u32, planes: u32) {
        let g = chip_geometry(dies as usize, planes as usize);
        let timing = FlashTiming::paper_default();
        let ops = [FlashOp::Read, FlashOp::Program, FlashOp::Erase];
        let mut sets = PendingSets::new(&g, 4);
        let mut reference = Vec::new();
        let mut dma = std::collections::VecDeque::new();
        let (mut now, mut next_id) = (0, 0);
        // Folds both sides once; returns whether a transaction was built.
        let fold_both = |sets: &mut PendingSets, reference: &mut Vec<PendingRequest>| {
            let built = sets.fold(0, &timing);
            assert_eq!(built, build_transaction_sorted(reference, &g, &timing));
            assert_eq!(sets.counts[0], reference.len());
            let Some(built) = built else { return false };
            sets.recycle_members(built.members);
            true
        };
        for &(kind, die, plane, op, ticks, delay, page) in steps {
            let mut request = pending(
                next_id,
                die % dies,
                plane % planes,
                ops[op as usize],
                now,
                kind == 1,
            );
            // Slab handles are recycled, so they are unrelated to age.
            request.handle = (next_id as u32 * 7 + 3) % 41;
            request.extra_delay = Duration::from_micros(delay);
            request.addr.page = page;
            let delivered = match kind {
                0 => {
                    now += ticks;
                    None
                }
                1 => Some(request),
                2 | 3 => Some(PendingRequest {
                    op: FlashOp::Read,
                    ..request
                }),
                4 => {
                    dma.push_back(PendingRequest {
                        op: FlashOp::Program,
                        gc: false,
                        ..request
                    });
                    next_id += 1;
                    None
                }
                5 => dma.pop_front().map(|write| PendingRequest {
                    delivered_at: SimTime::from_nanos(now),
                    ..write
                }),
                _ => {
                    fold_both(&mut sets, &mut reference);
                    None
                }
            };
            if let Some(request) = delivered {
                next_id = next_id.max(request.id.0 + 1);
                reference.push(request.clone());
                sets.push(0, request);
            }
        }
        for write in dma.drain(..) {
            let write = PendingRequest {
                delivered_at: SimTime::from_nanos(now),
                ..write
            };
            reference.push(write.clone());
            sets.push(0, write);
        }
        while fold_both(&mut sets, &mut reference) {}
        assert!(sets.is_empty(0) && reference.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fold and the sort-then-greedy reference agree on every
        /// transaction built from the same deliveries — members and their
        /// order, the parallelism level, all three phase times and
        /// `extra_delay` — until the set drains.  Each drawn sequence runs
        /// on a drawn 1–4 dies × 1–4 planes chip and on a 64 × 64 chip,
        /// whose occupancy bitset spans 64 words.
        #[test]
        fn fold_matches_the_sorted_reference_over_deliveries(
            dies in 1u32..5,
            planes in 1u32..5,
            steps in arb_steps(),
        ) {
            assert_fold_matches_the_sorted_reference(&steps, dies, planes);
            assert_fold_matches_the_sorted_reference(&steps, 64, 64);
        }
    }
}
