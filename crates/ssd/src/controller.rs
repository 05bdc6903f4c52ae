//! In-flight memory requests and the transaction fold: how a chip's pending
//! memory requests become one flash transaction, and how long that
//! transaction takes.
//!
//! `MemRequests` is one arena of in-flight memory-request records.  A
//! request's record lives there from commitment (or GC issue) to
//! completion, addressed by a recycled `u32` handle, which is what events
//! carry and what a built transaction hands back, and ordered by its
//! monotone [`MemReqId`] (ids are never reused, so ties break by age).  A
//! record's one link threads, in turn, its (die, plane)'s pending list from
//! delivery, its transaction's member chain, and the free list.
//!
//! A chip executes at most one page request per (die, plane) under one
//! command sequence (§2.2), so `MemRequests::fold` takes the first request
//! in service order of each (die, plane) for one operation — die
//! interleaving plus plane sharing.  The more requests the scheduler has
//! over-committed for the chip, the higher the flash-level parallelism of the
//! transaction — this is exactly the mechanism FARO exploits.
//!
//! Each (chip, die, plane) keeps two pending lists in service order, one of
//! GC traffic and one of host traffic, and each chip a bitset of the
//! (die, plane) pairs that hold a request.  A fold visits only the occupied
//! pairs and the requests it takes, never the chip's whole pending set: a GC
//! job that queues a victim block's valid pages on one plane costs each fold
//! one list head, not a scan of them all.

use sprinkler_flash::{
    FlashGeometry, FlashOp, FlashTiming, Lpn, ParallelismLevel, PhysicalPageAddr,
};
use sprinkler_sim::{Duration, SimTime};

use crate::request::{MemReqId, TagId};

/// What a memory request does, and so what its completion sets off.  Each GC
/// role carries the index of the plane whose job it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Page `page` of host tag `tag`.
    Host {
        tag: TagId,
        page: u32,
    },
    /// Reads a valid page, which is then programmed at `to`.
    GcRead {
        plane: usize,
        to: PhysicalPageAddr,
    },
    GcProgram {
        plane: usize,
    },
    GcErase {
        plane: usize,
    },
}

/// One in-flight memory request: the unit the scheduler commits and the
/// fold coalesces into flash transactions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemRequest {
    /// Monotone identifier (the fold's service-order tie-break).
    pub(crate) id: MemReqId,
    pub(crate) role: Role,
    pub(crate) lpn: Lpn,
    /// The flash operation: a host read is `Read`, a host write `Program`.
    pub(crate) op: FlashOp,
    /// The chip a host commitment charged on the ledger (for GC traffic,
    /// the chip it runs on).
    pub(crate) chip: usize,
    /// The next record of its pending list, member chain or free list.
    pub(crate) next: u32,
    /// When the request reached its chip (set at delivery).
    delivered_at: SimTime,
    /// Extra service delay (the stale readdressing penalty for schedulers
    /// without a readdressing callback).
    extra_delay: Duration,
    /// Page offset within its block (MLC programs are slower on odd pages).
    page: u32,
    /// The (die, plane) pair within the chip: `die × planes_per_die + plane`.
    pair: u16,
}

impl MemRequest {
    /// Whether this is internal garbage-collection traffic (served with
    /// priority).
    fn is_gc(&self) -> bool {
        !matches!(self.role, Role::Host { .. })
    }

    fn key(&self) -> ServiceKey {
        (!self.is_gc(), self.delivered_at, self.id)
    }
}

/// A folded flash transaction: its members and its phase times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BuiltTransaction {
    /// The handle of the first member in service order; each member's
    /// record links the next.
    pub(crate) first: u32,
    /// The number of members, one per (die, plane).
    pub(crate) requests: usize,
    /// The transaction's flash-level parallelism.
    pub(crate) level: ParallelismLevel,
    /// The issue bus phase: commands, addresses, and program data in.
    pub(crate) issue_bus: Duration,
    /// The cell phase: members overlap, so it is the slowest member's.
    pub(crate) cell_time: Duration,
    /// The completion bus phase: read data out and the status poll.
    pub(crate) completion_bus: Duration,
    /// The largest extra delay among the members.
    pub(crate) extra_delay: Duration,
}

/// Service order: GC traffic first, then oldest delivery, then the monotone
/// id (a total order, so a fold never depends on delivery order).
type ServiceKey = (bool, SimTime, MemReqId);

/// End of a list or chain, or of the free list.
const NO_NODE: u32 = u32::MAX;

/// A singly linked list of records, in service order.
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

    /// Links record `index` in service order: at the tail, unless the tail
    /// is keyed after it (a write whose data arrived at the instant a
    /// younger read was delivered), then after the last record keyed before
    /// it.
    fn link(&mut self, records: &mut [MemRequest], index: u32) {
        let key = records[index as usize].key();
        if self.tail == NO_NODE {
            self.head = index;
            self.tail = index;
        } else if records[self.tail as usize].key() < key {
            records[self.tail as usize].next = index;
            self.tail = index;
        } else {
            // Keys are unique and the tail's is later, so the walk stops at
            // or before the tail.
            let mut prev = NO_NODE;
            let mut at = self.head;
            while records[at as usize].key() < key {
                prev = at;
                at = records[at as usize].next;
            }
            records[index as usize].next = at;
            match prev {
                NO_NODE => self.head = index,
                _ => records[prev as usize].next = index,
            }
        }
    }

    /// Unlinks and returns the first record of operation `op`, or `NO_NODE`.
    fn take_first(&mut self, records: &mut [MemRequest], op: FlashOp) -> u32 {
        let mut prev = NO_NODE;
        let mut at = self.head;
        while at != NO_NODE && records[at as usize].op != op {
            prev = at;
            at = records[at as usize].next;
        }
        if at == NO_NODE {
            return NO_NODE;
        }
        let next = records[at as usize].next;
        match prev {
            NO_NODE => self.head = next,
            _ => records[prev as usize].next = next,
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

/// One arena of in-flight memory-request records, and the fold that turns
/// each chip's delivered requests into flash transactions.
///
/// Records live in one `Vec` with an intrusive free list, pre-sized to the
/// in-flight bound the SSD passes in; GC traffic is not charged to the
/// commitment ledger, so it may grow the arena past that, to its high-water
/// mark.  Each (chip, die, plane) threads two pending lists through the
/// arena, GC and host traffic, each in service order, and each chip keeps a
/// bitset of its occupied pairs.  A fold chains its members through the same
/// link, so once the arena has grown to its high-water mark, inserting,
/// pushing, folding and removing perform no allocations.
#[derive(Debug)]
pub(crate) struct MemRequests {
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
    records: Vec<MemRequest>,
    /// First free record (`NO_NODE` when none).
    free: u32,
    /// Records not on the free list.
    live: usize,
    /// Fold scratch: the records taken into the transaction.
    picked: Vec<u32>,
}

impl MemRequests {
    /// An empty arena for every chip of `geometry`, pre-sized to `in_flight`
    /// requests.
    pub(crate) fn new(geometry: &FlashGeometry, in_flight: usize) -> Self {
        let chips = geometry.total_chips();
        let pairs = geometry.dies_per_chip * geometry.planes_per_die;
        let words = pairs.div_ceil(64);
        MemRequests {
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
            records: Vec::with_capacity(in_flight),
            free: NO_NODE,
            live: 0,
            picked: Vec::with_capacity(pairs),
        }
    }

    /// Whether `chip` has delivered requests waiting for a transaction.
    pub(crate) fn has_pending(&self, chip: usize) -> bool {
        self.counts[chip] != 0
    }

    /// Whether no record is in flight, so none is pending either.
    pub(crate) fn is_drained(&self) -> bool {
        self.live == 0 && self.counts.iter().all(|&count| count == 0)
    }

    /// Adds the record of a request committed to `chip` (or issued by GC),
    /// not yet delivered, and returns its handle.
    // lint: hot-path
    pub(crate) fn insert(
        &mut self,
        id: MemReqId,
        role: Role,
        lpn: Lpn,
        op: FlashOp,
        chip: usize,
    ) -> u32 {
        let record = MemRequest {
            id,
            role,
            lpn,
            op,
            chip,
            next: NO_NODE,
            delivered_at: SimTime::ZERO,
            extra_delay: Duration::ZERO,
            page: 0,
            pair: 0,
        };
        self.live += 1;
        if self.free == NO_NODE {
            self.records.push(record);
            (self.records.len() - 1) as u32
        } else {
            let handle = self.free;
            self.free = self.records[handle as usize].next;
            self.records[handle as usize] = record;
            handle
        }
    }

    /// The record of in-flight request `handle`.
    pub(crate) fn get(&self, handle: u32) -> &MemRequest {
        &self.records[handle as usize]
    }

    /// Frees the record of a completed request and returns it.  Its `next`
    /// is still its link at removal: the member chain's next member.
    // lint: hot-path
    pub(crate) fn remove(&mut self, handle: u32) -> MemRequest {
        let record = self.records[handle as usize];
        self.records[handle as usize].next = self.free;
        self.free = handle;
        self.live -= 1;
        record
    }

    /// Delivers request `handle` to `chip` at `addr`: links it into its
    /// (die, plane)'s GC or host list in service order.  The record is
    /// unlinked since its insert, so its `next` is still `NO_NODE`.
    // lint: hot-path
    pub(crate) fn push(
        &mut self,
        chip: usize,
        handle: u32,
        addr: PhysicalPageAddr,
        now: SimTime,
        extra_delay: Duration,
    ) {
        let (die, plane) = (addr.die as usize, addr.plane as usize);
        debug_assert!(
            plane < self.planes_per_die && die * self.planes_per_die < self.pairs,
            "{addr} lies outside the chip's (die, plane) pairs"
        );
        let pair = die * self.planes_per_die + plane;
        let record = &mut self.records[handle as usize];
        record.delivered_at = now;
        record.extra_delay = extra_delay;
        record.page = addr.page;
        record.pair = pair as u16;
        let lists = &mut self.lists[chip * self.pairs + pair];
        let list = if record.is_gc() {
            &mut lists.gc
        } else {
            &mut lists.host
        };
        list.link(&mut self.records, handle);
        self.occupied[chip * self.words + pair / 64] |= 1 << (pair % 64);
        self.counts[chip] += 1;
        if cfg!(debug_assertions) {
            self.check_chip(chip);
        }
    }

    /// Folds `chip`'s pending requests into the best transaction currently
    /// possible, unlinks its members and chains them in service order.
    /// Returns `None` when nothing is pending.
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
    /// order.  The work is O(occupied pairs + members) plus the records of
    /// the other operation a list holds ahead of the taken one.
    // lint: hot-path
    pub(crate) fn fold(&mut self, chip: usize, timing: &FlashTiming) -> Option<BuiltTransaction> {
        if self.counts[chip] == 0 {
            return None;
        }
        let lists = &mut self.lists[chip * self.pairs..(chip + 1) * self.pairs];
        let occupied = &mut self.occupied[chip * self.words..(chip + 1) * self.words];
        let records = &mut self.records;

        let mut seed: Option<&MemRequest> = None;
        for (w, &word) in occupied.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let pair = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let head = &records[lists[pair].head() as usize];
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
                let mut taken = pair_lists.gc.take_first(records, op);
                if taken == NO_NODE {
                    taken = pair_lists.host.take_first(records, op);
                }
                if pair_lists.is_empty() {
                    *word &= !(1 << bit);
                }
                if taken == NO_NODE {
                    continue;
                }
                debug_assert!(
                    usize::from(records[taken as usize].pair) == pair
                        && records[taken as usize].op == op,
                    "a member must sit on the pair whose list held it and share the seed's operation"
                );
                self.picked.push(taken);
                let die = pair / self.planes_per_die;
                dies += usize::from(die != last_die);
                last_die = die;
            }
        }
        self.picked
            .sort_unstable_by_key(|&index| records[index as usize].key());

        // Chains the members from the last, so the chain runs in service
        // order from `first`.
        let mut first = NO_NODE;
        let mut extra_delay = Duration::ZERO;
        let mut cell_time = Duration::ZERO;
        for &index in self.picked.iter().rev() {
            let record = &mut records[index as usize];
            extra_delay = extra_delay.max(record.extra_delay);
            cell_time = cell_time.max(timing.cell_latency(op, record.page));
            record.next = first;
            first = index;
        }
        let requests = self.picked.len();
        self.counts[chip] -= requests;
        if cfg!(debug_assertions) {
            self.check_chip(chip);
        }
        Some(BuiltTransaction {
            first,
            requests,
            level: ParallelismLevel::of(dies, requests),
            issue_bus: timing.issue_bus_time(op, requests, self.page_size),
            cell_time,
            completion_bus: timing.completion_bus_time(op, requests, self.page_size),
            extra_delay,
        })
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
                    let record = &self.records[at as usize];
                    assert!(
                        usize::from(record.pair) == pair && record.is_gc() == gc,
                        "request {:?} sits in another pair's or class's list",
                        record.id
                    );
                    assert!(
                        last_key.is_none_or(|key| key < record.key()),
                        "request {:?} is out of service order",
                        record.id
                    );
                    last_key = Some(record.key());
                    last = at;
                    len += 1;
                    at = record.next;
                }
                assert_eq!(list.tail, last, "a list's tail is not its last record");
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

    /// Roles for test records: the fold reads of a role only whether it is
    /// GC traffic.
    const HOST: Role = Role::Host {
        tag: TagId(0),
        page: 0,
    };
    const GC: Role = Role::GcErase { plane: 0 };

    /// A request as the sorted reference sees it, with its record's handle.
    #[derive(Debug, Clone, Copy)]
    struct Request {
        id: MemReqId,
        handle: u32,
        addr: PhysicalPageAddr,
        op: FlashOp,
        at: SimTime,
        role: Role,
        extra_delay: Duration,
    }

    impl Request {
        /// Inserts the record, as at commitment or GC issue.
        fn insert(&mut self, sets: &mut MemRequests) {
            self.handle = sets.insert(self.id, self.role, Lpn::new(0), self.op, 0);
        }

        /// Delivers the inserted record to chip 0.
        fn push(&self, sets: &mut MemRequests) {
            sets.push(0, self.handle, self.addr, self.at, self.extra_delay);
        }
    }

    fn pending(id: u64, die: u32, plane: u32, op: FlashOp, at: u64, gc: bool) -> Request {
        Request {
            id: MemReqId(id),
            handle: NO_NODE,
            addr: PhysicalPageAddr {
                die,
                plane,
                ..PhysicalPageAddr::default()
            },
            op,
            at: SimTime::from_nanos(at),
            role: if gc { GC } else { HOST },
            extra_delay: Duration::ZERO,
        }
    }

    /// The paper-shaped chip with `requests` committed and delivered in
    /// order.
    fn chip_of(requests: Vec<Request>) -> MemRequests {
        let mut sets = MemRequests::new(&geometry(), requests.len());
        for mut request in requests {
            request.insert(&mut sets);
            request.push(&mut sets);
        }
        sets
    }

    /// The ids of `built`'s members, walking their chain.
    fn members(sets: &MemRequests, built: &BuiltTransaction) -> Vec<u64> {
        std::iter::successors(Some(built.first), |&at| Some(sets.get(at).next))
            .take(built.requests)
            .map(|at| sets.get(at).id.0)
            .collect()
    }

    /// Folds the chip with the paper's timing: the member ids and the
    /// transaction.
    fn fold(sets: &mut MemRequests) -> Option<(Vec<u64>, BuiltTransaction)> {
        let built = sets.fold(0, &FlashTiming::paper_default())?;
        Some((members(sets, &built), built))
    }

    /// Sort-then-greedy fold: sort every request of the seed's operation
    /// into service order, then take each whose (die, plane) is still free.
    /// The differential reference for [`MemRequests::fold`], giving the
    /// member ids beside the transaction.
    fn build_transaction_sorted(
        pending: &mut Vec<Request>,
        geometry: &FlashGeometry,
        timing: &FlashTiming,
    ) -> Option<(Vec<u64>, BuiltTransaction)> {
        let seed_index = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.role == HOST, r.at, r.id))
            .map(|(i, _)| i)?;
        let op = pending[seed_index].op;
        let mut order: Vec<usize> = (0..pending.len())
            .filter(|&i| pending[i].op == op)
            .collect();
        order.sort_by_key(|&i| {
            let r = &pending[i];
            (i != seed_index, r.role == HOST, r.at, r.id)
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
        let members = accepted.iter().map(|&i| pending[i].id.0).collect();
        let first = pending[accepted[0]].handle;
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
        let built = BuiltTransaction {
            first,
            requests,
            level: ParallelismLevel::of(dies.len(), requests),
            issue_bus: timing.issue_bus_time(op, requests, geometry.page_size),
            cell_time,
            completion_bus: timing.completion_bus_time(op, requests, geometry.page_size),
            extra_delay,
        };
        Some((members, built))
    }

    #[test]
    fn empty_controller_builds_nothing() {
        let mut sets = chip_of(Vec::new());
        assert!(!sets.has_pending(0) && sets.is_drained());
        assert!(fold(&mut sets).is_none());
    }

    #[test]
    fn single_request_builds_non_pal_transaction() {
        let mut sets = chip_of(vec![pending(1, 0, 0, FlashOp::Read, 10, false)]);
        let (members, built) = fold(&mut sets).unwrap();
        assert_eq!(built.level, ParallelismLevel::NonPal);
        assert_eq!(members, vec![1]);
        assert!(!sets.has_pending(0));
    }

    #[test]
    fn coalesces_across_dies_and_planes() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 0, 1, FlashOp::Read, 11, false),
            pending(3, 1, 0, FlashOp::Read, 12, false),
            pending(4, 1, 1, FlashOp::Read, 13, false),
        ]);
        let (members, built) = fold(&mut sets).unwrap();
        assert_eq!(members.len(), 4);
        assert_eq!(built.level, ParallelismLevel::Pal3);
        // The four cell phases overlap: one read's time, not four.
        assert_eq!(built.cell_time, Duration::from_micros(20));
        assert!(!sets.has_pending(0));
    }

    /// One fast (even) and one slow (odd) MLC page on two dies: the
    /// die-interleaved program waits for the slow page.
    #[test]
    fn program_fold_takes_the_slowest_page() {
        let mut slow = pending(2, 1, 0, FlashOp::Program, 11, false);
        slow.addr.page = 3;
        let mut sets = chip_of(vec![pending(1, 0, 0, FlashOp::Program, 10, false), slow]);
        let (_, built) = fold(&mut sets).unwrap();
        assert_eq!(built.level, ParallelismLevel::Pal2);
        assert_eq!(built.cell_time, Duration::from_micros(2200));
    }

    #[test]
    fn plane_conflicts_stay_pending() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 0, 0, FlashOp::Read, 11, false),
        ]);
        assert_eq!(fold(&mut sets).unwrap().0, vec![1]);
        assert_eq!(sets.counts[0], 1);
        assert_eq!(fold(&mut sets).unwrap().0, vec![2]);
    }

    #[test]
    fn different_ops_are_not_mixed() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 1, 0, FlashOp::Program, 11, false),
        ]);
        let (members, built) = fold(&mut sets).unwrap();
        assert_eq!(members, vec![1]);
        assert_eq!(built.cell_time, Duration::from_micros(20));
        let (members, next) = fold(&mut sets).unwrap();
        assert_eq!(members, vec![2]);
        assert_eq!(next.cell_time, Duration::from_micros(200));
    }

    #[test]
    fn oldest_request_decides_the_operation() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Program, 20, false),
            pending(2, 1, 0, FlashOp::Read, 10, false),
        ]);
        assert_eq!(fold(&mut sets).unwrap().0, vec![2]);
        // The program is left, alone.
        let (members, next) = fold(&mut sets).unwrap();
        assert_eq!(members, vec![1]);
        assert_eq!(next.cell_time, Duration::from_micros(200));
    }

    #[test]
    fn gc_traffic_is_prioritized() {
        let mut sets = chip_of(vec![
            pending(1, 0, 0, FlashOp::Read, 10, false),
            pending(2, 0, 1, FlashOp::Program, 50, true),
        ]);
        assert_eq!(fold(&mut sets).unwrap().0, vec![2]);
        // The read is left, alone.
        let (members, next) = fold(&mut sets).unwrap();
        assert_eq!(members, vec![1]);
        assert_eq!(next.cell_time, Duration::from_micros(20));
    }

    #[test]
    fn extra_delay_propagates_as_maximum() {
        let mut a = pending(1, 0, 0, FlashOp::Read, 10, false);
        a.extra_delay = Duration::from_micros(5);
        let mut b = pending(2, 1, 0, FlashOp::Read, 11, false);
        b.extra_delay = Duration::from_micros(9);
        let (_, built) = fold(&mut chip_of(vec![a, b])).unwrap();
        assert_eq!(built.extra_delay, Duration::from_micros(9));
    }

    #[test]
    fn members_match_transaction_request_order() {
        let mut sets = chip_of(vec![
            pending(9, 0, 2, FlashOp::Read, 12, false),
            pending(7, 1, 3, FlashOp::Read, 10, false),
        ]);
        let (members, built) = fold(&mut sets).unwrap();
        // Service order: the seed (oldest) request is first, whatever its
        // delivery order or its (die, plane).
        assert_eq!(members, vec![7, 9]);
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
            for plane in 1..8u32 {
                let id = age * 10 + u64::from(plane);
                requests.push(pending(id, plane / 4, plane % 4, FlashOp::Read, age, false));
            }
        }
        requests.extend((100..140).map(|id| pending(id, 0, 0, FlashOp::Read, 5, true)));
        let mut left = requests.len();
        let mut sets = chip_of(requests);
        for i in 0..40 {
            let (members, built) = fold(&mut sets).unwrap();
            let mut expected = vec![100 + i];
            if i < 2 {
                expected.extend((1..8).map(|plane| i * 10 + plane));
            }
            assert_eq!(members, expected, "fold {i}");
            let level = if i < 2 {
                ParallelismLevel::Pal3
            } else {
                ParallelismLevel::NonPal
            };
            assert_eq!(built.level, level, "fold {i}");
            left -= expected.len();
            assert_eq!(sets.counts[0], left);
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
        let order: Vec<Vec<u64>> = (0..3).map(|_| fold(&mut sets).unwrap().0).collect();
        assert_eq!(order, vec![vec![3], vec![5], vec![7]]);
    }

    /// One drawn step of a chip's traffic: (kind, die, plane, op, clock
    /// ticks, extra delay, page offset).  Kinds: 0 advances the clock; 1
    /// delivers a GC request; 2–3 deliver a host read; 4 commits a host
    /// write, whose record then waits unlinked while its data crosses the
    /// DMA engine's FIFO; 5 delivers the oldest such write; 6–7 fold and
    /// complete the members.  GC requests and host reads take a fresh id at
    /// delivery, and a write its commit's id, so a write can arrive at the
    /// same instant as a younger read, after it.
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

    /// Replays `steps` on a one-chip arena of `dies` × `planes` and on a
    /// `Vec` folded by [`build_transaction_sorted`], asserting equal
    /// transactions at every fold and then until both drain.  Each fold's
    /// members are completed at once, so later records reuse their handles
    /// while other records sit in the pending lists or, unlinked, in the
    /// DMA engine.
    fn assert_fold_matches_the_sorted_reference(steps: &[Step], dies: u32, planes: u32) {
        let g = chip_geometry(dies as usize, planes as usize);
        let timing = FlashTiming::paper_default();
        let ops = [FlashOp::Read, FlashOp::Program, FlashOp::Erase];
        let mut sets = MemRequests::new(&g, 4);
        let mut reference = Vec::new();
        let mut dma = std::collections::VecDeque::new();
        let (mut now, mut next_id) = (0, 0);
        // Folds both sides once and completes the members, reading each
        // link before its record is freed; returns whether a transaction
        // was built.
        let fold_both = |sets: &mut MemRequests, reference: &mut Vec<Request>| {
            let folded = sets
                .fold(0, &timing)
                .map(|built| (members(sets, &built), built));
            assert_eq!(folded, build_transaction_sorted(reference, &g, &timing));
            assert_eq!(sets.counts[0], reference.len());
            let Some((_, built)) = folded else {
                return false;
            };
            let mut member = built.first;
            for _ in 0..built.requests {
                member = sets.remove(member).next;
            }
            true
        };
        // After the drawn steps, every write still crossing the DMA engine
        // is delivered.
        let deliveries = std::iter::repeat_n(&(5, 0, 0, 0, 0, 0, 0), steps.len());
        for &(kind, die, plane, op, ticks, delay, page) in steps.iter().chain(deliveries) {
            let op = ops[op as usize];
            let mut request = pending(next_id, die % dies, plane % planes, op, now, kind == 1);
            request.extra_delay = Duration::from_micros(delay);
            request.addr.page = page;
            let delivered = match kind {
                0 => {
                    now += ticks;
                    None
                }
                1 => Some(request),
                2 | 3 => Some(Request {
                    op: FlashOp::Read,
                    ..request
                }),
                4 => {
                    request.op = FlashOp::Program;
                    request.insert(&mut sets);
                    dma.push_back(request);
                    next_id += 1;
                    None
                }
                5 => dma.pop_front().map(|write| Request {
                    at: SimTime::from_nanos(now),
                    ..write
                }),
                _ => {
                    fold_both(&mut sets, &mut reference);
                    None
                }
            };
            if let Some(mut request) = delivered {
                if kind != 5 {
                    request.insert(&mut sets);
                }
                next_id = next_id.max(request.id.0 + 1);
                request.push(&mut sets);
                reference.push(request);
            }
        }
        while fold_both(&mut sets, &mut reference) {}
        assert!(reference.is_empty());
        assert!(sets.is_drained(), "every record must be freed");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fold and the sort-then-greedy reference agree on every
        /// transaction built from the same deliveries — members and their
        /// order, the first member's handle, the parallelism level, all
        /// three phase times and `extra_delay` — until the arena drains.
        /// Each drawn sequence runs on a drawn 1–4 dies × 1–4 planes chip
        /// and on a 64 × 64 chip, whose occupancy bitset spans 64 words.
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
