//! The NVMHC device-level queue (NCQ-style).
//!
//! The queue holds *tags* — admitted host I/O requests — in arrival order.  All the
//! schedulers evaluated in the paper sit on top of the same out-of-order-capable
//! device queue; they differ only in how they compose and commit memory requests
//! from the queued tags.
//!
//! # Storage and indices
//!
//! Internally the queue is a free-list slot map bounded by its capacity: a tag
//! occupies one slot from admission to retirement, retired slots are reused, and
//! arrival order is threaded through the slots as an intrusive doubly-linked list so
//! [`DeviceQueue::retire`] is O(1).  A retired tag's [`TagState`] stays in its
//! slot, marked not live, and the next admission into the slot refills its
//! buffers in place, so steady-state admission allocates nothing.  Total
//! storage is O(queue depth), independent of how many I/Os have ever been
//! served.
//!
//! A tag *is* its slot: [`DeviceQueue::admit`] hands out the index of the slot
//! the request occupies as its [`TagId`], the way an NCQ tag names its queue
//! entry, so every operation on a queued tag is one index with no lookup.  The
//! number is reused once the tag retires; ordering is always by admission
//! sequence number, never by tag value.
//!
//! On top of the slots the queue maintains two incremental indices that turn the
//! scheduler hot path from full-queue scans into point lookups:
//!
//! * the **candidate index** (`cand::CandidateIndex`) — every
//!   uncommitted page as one row, on its chip's list in arrival order and,
//!   for a read page, on its LPN's hazard chain, so resource-driven
//!   schedulers visit only chips that actually have work and the §4.4
//!   write-after-read check walks one short chain.  Each slot keeps its
//!   pages' row handles in a buffer reused across admissions, so commit,
//!   retire and readdressing reach a row with no search;
//! * a **pending-FUA index** — the admission sequence numbers of queued
//!   force-unit-access tags that are not yet fully committed, so the reordering
//!   horizon is an O(1) lookup.  It is a sorted vector, bounded by the queue
//!   depth.
//!
//! Neither is a B-tree or hash map: their storage is retained across churn and
//! grows only at its high-water mark, so index maintenance performs no
//! allocations at steady state (a B-tree frees and re-allocates nodes as sets
//! empty and refill, which defeats the zero-allocation replay gate).
//!
//! To keep the indices coherent, all mutation of queued tag state goes through the
//! queue ([`DeviceQueue::commit_page`], [`DeviceQueue::complete_page`],
//! [`DeviceQueue::refresh_placements`]); queued tags are only handed out immutably.

use crate::cand::{pack_pri, CandidateIndex, CandidateView};
use crate::request::{HostRequest, Placement, TagId};

/// Sentinel for "no slot" in the intrusive arrival-order list.
const NIL: usize = usize::MAX;

/// A fixed-size page bitmap packed into `u64` words.
///
/// Replaces the per-tag `Vec<bool>` commitment/completion bitmaps: pages per
/// tag are bounded by the transfer size, so a handful of words covers even the
/// 4 MB configuration, and [`PageBits::zeros`] turns the "which pages are
/// uncommitted" scan into a bit-scan over one or two cache lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageBits {
    words: Vec<u64>,
    len: usize,
}

static BIT_TRUE: bool = true;
static BIT_FALSE: bool = false;

impl PageBits {
    /// Creates an all-zero bitmap of `pages` bits.
    pub fn new(pages: usize) -> Self {
        PageBits {
            words: vec![0; pages.div_ceil(64)],
            len: pages,
        }
    }

    /// Resets the bitmap to `pages` all-zero bits, retaining word capacity.
    pub fn reset(&mut self, pages: usize) {
        self.words.clear();
        self.words.resize(pages.div_ceil(64), 0);
        self.len = pages;
    }

    /// Number of bits tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap tracks no pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `index` is set.  Out-of-range bits read as unset.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|word| word >> (index % 64) & 1 != 0)
    }

    /// Sets bit `index`; returns `false` if it was already set.
    #[inline]
    pub fn set(&mut self, index: usize) -> bool {
        debug_assert!(index < self.len, "page {index} out of range");
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        true
    }

    /// The complement of word `w`, with bits past `len` masked off.
    #[inline]
    fn zeros_in_word(&self, w: usize) -> u64 {
        match self.words.get(w) {
            Some(&word) => {
                let remaining = self.len - w * 64;
                if remaining >= 64 {
                    !word
                } else {
                    !word & ((1u64 << remaining) - 1)
                }
            }
            None => 0,
        }
    }

    /// Iterates the positions of unset bits, ascending — a `trailing_zeros`
    /// bit-scan, allocation-free.
    pub fn zeros(&self) -> ZeroBits<'_> {
        ZeroBits {
            bits: self,
            word: 0,
            mask: self.zeros_in_word(0),
        }
    }
}

/// `PageBits` indexes like the `Vec<bool>` it replaced, so the reference
/// schedulers (`sprinkler_core::reference`) read `state.committed[page]`
/// unchanged and stay a textually untouched differential oracle.
impl std::ops::Index<usize> for PageBits {
    type Output = bool;

    #[inline]
    fn index(&self, index: usize) -> &bool {
        if self.get(index) {
            &BIT_TRUE
        } else {
            &BIT_FALSE
        }
    }
}

/// Iterator over the unset bit positions of a [`PageBits`].
#[derive(Debug, Clone)]
pub struct ZeroBits<'a> {
    bits: &'a PageBits,
    word: usize,
    mask: u64,
}

impl Iterator for ZeroBits<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.mask == 0 {
            self.word += 1;
            if self.word >= self.bits.words.len() {
                return None;
            }
            self.mask = self.bits.zeros_in_word(self.word);
        }
        let bit = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some(self.word as u32 * 64 + bit)
    }
}

/// Per-tag state while the I/O request sits in the device queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagState {
    /// The tag identifier: the index of the queue slot the tag occupies.
    pub id: TagId,
    /// Admission sequence number: strictly increasing with arrival order, so
    /// `a.seq < b.seq` iff tag `a` was admitted before tag `b`.  Hazard and
    /// horizon comparisons are expressed over this field.
    pub seq: u64,
    /// The originating host request.
    pub host: HostRequest,
    /// Physical placement preview per page (filled by the FTL preprocessor).
    pub placements: Vec<Placement>,
    /// Whether each page has been committed as a memory request.
    pub committed: PageBits,
    /// Whether each page's memory request has fully completed.  This is the
    /// per-queue-entry completion bitmap described in §4.4 ("The Order of Output
    /// Data").
    pub completed: PageBits,
    /// Number of set bits in `committed` (kept so fullness checks are O(1)).
    committed_count: usize,
    /// Number of set bits in `completed` (kept so fullness checks are O(1)).
    completed_count: usize,
}

impl TagState {
    /// Number of pages in the I/O request.
    pub fn pages(&self) -> usize {
        self.host.pages as usize
    }

    /// Page offsets not yet committed, ascending (a bitmap bit-scan).
    pub fn uncommitted_pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.committed.zeros()
    }

    /// True once every page has been committed.
    pub fn fully_committed(&self) -> bool {
        self.committed_count == self.pages()
    }

    /// True once every page's memory request has completed.
    pub fn fully_completed(&self) -> bool {
        self.completed_count == self.pages()
    }

    /// Marks a page committed.  Returns `false` if it was already committed.
    pub fn mark_committed(&mut self, page: u32) -> bool {
        if !self.committed.set(page as usize) {
            return false;
        }
        self.committed_count += 1;
        true
    }

    /// Marks a page's memory request completed (sets its bitmap bit).  Returns
    /// `false` if it was already completed.
    pub fn mark_completed(&mut self, page: u32) -> bool {
        if !self.completed.set(page as usize) {
            return false;
        }
        self.completed_count += 1;
        true
    }
}

/// One storage slot of the queue's slot map.
#[derive(Debug, Clone)]
struct Slot {
    /// The queued tag when `live`; otherwise the slot's last tag, whose
    /// buffers the next admission into the slot refills.
    state: TagState,
    /// Each page's candidate-index row handle; a committed page's handle is
    /// stale.  Refilled in place by each admission, like `placements`.
    rows: Vec<u32>,
    /// Whether `state` is a queued tag.
    live: bool,
    /// Previous slot in arrival order (`NIL` at the head).
    prev: usize,
    /// Next slot in arrival order (`NIL` at the tail).
    next: usize,
}

impl Slot {
    /// The queued tag, if the slot holds one.
    fn queued(&self) -> Option<&TagState> {
        self.live.then_some(&self.state)
    }
}

/// The bounded device-level queue.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::queue::DeviceQueue;
/// use sprinkler_ssd::request::{Direction, HostRequest, Placement, TagId};
/// use sprinkler_flash::Lpn;
/// use sprinkler_sim::SimTime;
///
/// let mut q = DeviceQueue::new(2);
/// assert!(!q.is_full());
/// let host = HostRequest::new(0, SimTime::ZERO, Direction::Read, Lpn::new(0), 1);
/// let placement = Placement { chip: 0, die: 0, plane: 0 };
/// let tag = q.admit(host, |_| placement).unwrap();
/// assert_eq!(tag, TagId(0), "the first tag is slot 0");
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.retire(tag), Some(host));
/// ```
#[derive(Debug, Clone)]
pub struct DeviceQueue {
    capacity: usize,
    /// Slot-map storage; never grows past `capacity` entries.
    slots: Vec<Slot>,
    /// Recycled slot indices.
    free: Vec<usize>,
    /// First slot in arrival order (`NIL` when empty).
    head: usize,
    /// Last slot in arrival order (`NIL` when empty).
    tail: usize,
    len: usize,
    /// Next admission sequence number.
    next_seq: u64,
    /// One row per uncommitted page: per-chip lists and read-LPN hazard chains.
    cand: CandidateIndex,
    /// Sorted admission seqs of queued FUA tags not yet fully committed.
    fua_pending: Vec<u64>,
}

impl DeviceQueue {
    /// Creates an empty queue with the given capacity.
    pub fn new(capacity: usize) -> Self {
        DeviceQueue {
            capacity,
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            len: 0,
            next_seq: 0,
            cand: CandidateIndex::default(),
            fua_pending: Vec::with_capacity(capacity),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of tags currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tags are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when no further tag can be admitted.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Admits a host request and returns its tag, the index of the slot it
    /// now occupies; `None` — without admitting — when the queue is already
    /// at capacity.
    ///
    /// `placement_of` produces each page's placement preview in place (called
    /// once per page, in page order), filling the buffers the slot kept from
    /// its last tag, so steady-state admission performs no allocations.
    #[must_use = "admission fails when the queue is full; the request would be lost"]
    pub fn admit(
        &mut self,
        host: HostRequest,
        mut placement_of: impl FnMut(u32) -> Placement,
    ) -> Option<TagId> {
        if self.is_full() {
            return None;
        }
        // Reserve the storage slot first: its index is the tag, and the index
        // rows carry it so hot-path consumers reach the state directly.
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    state: TagState {
                        id: TagId(0),
                        seq: 0,
                        host,
                        placements: Vec::new(),
                        committed: PageBits::default(),
                        completed: PageBits::default(),
                        committed_count: 0,
                        completed_count: 0,
                    },
                    rows: Vec::new(),
                    live: false,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        let id = TagId(slot as u64);
        let pages = host.pages as usize;
        let seq = self.next_seq;
        self.next_seq += 1;
        let Slot { state, rows, .. } = &mut self.slots[slot];
        state.id = id;
        state.seq = seq;
        state.host = host;
        state.placements.clear();
        state
            .placements
            .extend((0..host.pages).map(&mut placement_of));
        state.committed.reset(pages);
        state.completed.reset(pages);
        state.committed_count = 0;
        state.completed_count = 0;

        rows.clear();
        for (page, p) in (0..).zip(&state.placements) {
            rows.push(self.cand.insert(
                p.chip,
                seq,
                pack_pri(page, p.die, p.plane),
                host.lpn_at(page).value(),
                slot as u32,
                host.direction.is_read(),
            ));
        }
        if host.fua {
            // Admission seqs are monotonic, so this is a push in practice.
            let pos = self.fua_pending.partition_point(|&s| s < seq);
            self.fua_pending.insert(pos, seq);
        }
        // Link at the tail of the arrival-order list.
        let tail = self.tail;
        let entry = &mut self.slots[slot];
        entry.live = true;
        entry.prev = tail;
        entry.next = NIL;
        if tail == NIL {
            self.head = slot;
        } else {
            self.slots[tail].next = slot;
        }
        self.tail = slot;
        self.len += 1;
        Some(id)
    }

    /// Removes a tag, freeing its queue slot (and so its number) for a later
    /// admission.  Returns its host request, or `None` when the tag is not
    /// queued.  O(1) in the queue length (plus index removal for any
    /// still-uncommitted pages).
    pub fn retire(&mut self, id: TagId) -> Option<HostRequest> {
        let slot = id.0 as usize;
        let entry = self.slots.get_mut(slot).filter(|entry| entry.live)?;
        entry.live = false;
        // Unlink from the arrival-order list.
        let (prev, next) = (entry.prev, entry.next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
        self.free.push(slot);
        self.len -= 1;
        // Drop the rows of any still-uncommitted pages.
        let entry = &self.slots[slot];
        for page in entry.state.uncommitted_pages() {
            self.cand.remove(entry.rows[page as usize]);
        }
        if let Ok(pos) = self.fua_pending.binary_search(&entry.state.seq) {
            self.fua_pending.remove(pos);
        }
        Some(entry.state.host)
    }

    /// Marks a page of a queued tag committed, dropping its candidate row.
    /// Returns `false` when the tag is not queued, the page offset is out of
    /// range, or the page was already committed.
    // lint: hot-path
    pub fn commit_page(&mut self, id: TagId, page: u32) -> bool {
        let Some(entry) = self.slots.get_mut(id.0 as usize).filter(|slot| slot.live) else {
            return false;
        };
        let state = &mut entry.state;
        if page as usize >= state.pages() || !state.mark_committed(page) {
            return false;
        }
        self.cand.remove(entry.rows[page as usize]);
        if state.host.fua && state.fully_committed() {
            if let Ok(pos) = self.fua_pending.binary_search(&state.seq) {
                self.fua_pending.remove(pos);
            }
        }
        true
    }

    /// Marks a page's memory request completed.  Returns `None` when the tag
    /// is not queued, the page offset is out of range, or the page was already
    /// completed; otherwise `Some(done)`, where `done` says the tag has now
    /// committed and completed every page and is ready to retire.
    // lint: hot-path
    pub fn complete_page(&mut self, id: TagId, page: u32) -> Option<bool> {
        let state = &mut self
            .slots
            .get_mut(id.0 as usize)
            .filter(|slot| slot.live)?
            .state;
        if page as usize >= state.pages() || !state.mark_completed(page) {
            return None;
        }
        Some(state.fully_committed() && state.fully_completed())
    }

    /// Rewrites the placement preview of every queued, still-uncommitted page
    /// addressing `lpn` (GC readdressing, §4.3), moving its candidate row.
    pub fn refresh_placements(&mut self, lpn: u64, preview: Placement) {
        // The arrival-order list links only live slots.
        let mut cursor = self.head;
        while cursor != NIL {
            let slot = &mut self.slots[cursor];
            let state = &mut slot.state;
            let page = lpn.wrapping_sub(state.host.start_lpn.value());
            if page < u64::from(state.host.pages) && !state.committed.get(page as usize) {
                let old = std::mem::replace(&mut state.placements[page as usize], preview);
                if old != preview {
                    let pri = pack_pri(page as u32, preview.die, preview.plane);
                    self.cand
                        .relocate(slot.rows[page as usize], preview.chip, pri);
                }
            }
            cursor = slot.next;
        }
    }

    /// Queued tag states in arrival order.
    pub fn iter_states(&self) -> impl Iterator<Item = &TagState> + '_ {
        // The arrival-order list links only live slots, and `NIL` indexes
        // past every slot.
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(cursor)?;
            cursor = slot.next;
            Some(&slot.state)
        })
    }

    /// A queued tag's state; `None` when the tag is not queued.
    pub fn tag(&self, id: TagId) -> Option<&TagState> {
        self.slots.get(id.0 as usize)?.queued()
    }

    // ------------------------------------------------------------------
    // Index views consumed by the scheduler hot path
    // ------------------------------------------------------------------

    /// The §4.4 reordering horizon as an admission-sequence bound: tags with
    /// `seq <= horizon_seq()` may be considered this round; tags beyond the first
    /// not-fully-committed FUA request are off limits.  O(1).
    pub fn horizon_seq(&self) -> u64 {
        self.fua_pending.first().copied().unwrap_or(u64::MAX)
    }

    /// Whether a read tag admitted strictly before `seq` still has an uncommitted
    /// read of logical page `lpn` (the §4.4 write-after-read hazard).  Walks
    /// the one hazard chain `lpn` hashes to, whose length is the queued read
    /// pages over 512 buckets; an empty bucket answers at once.
    // lint: hot-path
    #[inline]
    pub fn has_blocking_read(&self, lpn: u64, seq: u64) -> bool {
        self.cand.blocks(lpn, seq)
    }

    /// The pending-FUA horizon entries: admission seqs of queued FUA tags not
    /// yet fully committed, ascending.  Exposed for the debug invariant
    /// validator; hot paths use [`DeviceQueue::horizon_seq`].
    pub fn fua_pending(&self) -> &[u64] {
        &self.fua_pending
    }

    /// The candidate view for one scheduling round: the active chips, each
    /// chip's rows in arrival order, and the row arena.
    pub fn candidate_view(&self) -> CandidateView<'_> {
        self.cand.view()
    }

    /// Debug-build invariant checker: checks that each queued tag's id is its
    /// slot, and rebuilds the candidate rows, the slots' row handles and the
    /// hazard chains from the queued tag states.  Compiled to a no-op in
    /// release builds; the differential property tests call it after every
    /// scheduling round.
    pub fn validate_candidate_index(&self) {
        #[cfg(debug_assertions)]
        {
            let rows = self.cand.view().rows;
            let mut expected: Vec<u32> = Vec::new();
            for (slot, entry) in self.slots.iter().enumerate() {
                let Some(state) = entry.queued() else {
                    continue;
                };
                debug_assert_eq!(state.id, TagId(slot as u64), "a tag's id is its slot");
                debug_assert_eq!(entry.rows.len(), state.pages(), "one row handle per page");
                for page in state.uncommitted_pages() {
                    let p = state.placements[page as usize];
                    let handle = entry.rows[page as usize];
                    let row = &rows[handle as usize];
                    debug_assert_eq!(
                        (row.chip as usize, row.seq, row.pri, row.lpn),
                        (
                            p.chip,
                            state.seq,
                            pack_pri(page, p.die, p.plane),
                            state.host.lpn_at(page).value()
                        ),
                        "row {handle} diverged from page {page} of tag {slot}"
                    );
                    debug_assert_eq!(
                        (row.slot as usize, row.read),
                        (slot, state.host.direction.is_read()),
                        "row {handle} diverged from tag {slot}"
                    );
                    expected.push(handle);
                }
            }
            expected.sort_unstable();
            debug_assert_eq!(
                expected,
                self.cand.audit(),
                "candidate rows diverged from the queued tags' uncommitted pages"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cand::hazard_bucket;
    use crate::request::Direction;
    use proptest::prelude::*;
    use sprinkler_flash::Lpn;
    use sprinkler_sim::SimTime;

    fn host(id: u64, pages: u32) -> HostRequest {
        HostRequest::new(
            id,
            SimTime::ZERO,
            Direction::Write,
            Lpn::new(id * 100),
            pages,
        )
    }

    fn read_host(id: u64, lpn: u64, pages: u32) -> HostRequest {
        HostRequest::new(id, SimTime::ZERO, Direction::Read, Lpn::new(lpn), pages)
    }

    /// Page `page` of a request lands on chip `page`.
    fn placement(page: u32) -> Placement {
        Placement {
            chip: page as usize,
            die: 0,
            plane: 0,
        }
    }

    fn admit(q: &mut DeviceQueue, host: HostRequest) -> TagId {
        q.admit(host, placement).expect("the queue has room")
    }

    /// Queued tags in arrival order.
    fn tags(q: &DeviceQueue) -> Vec<TagId> {
        q.iter_states().map(|state| state.id).collect()
    }

    fn seq_of(q: &DeviceQueue, tag: TagId) -> u64 {
        q.tag(tag).expect("the tag is queued").seq
    }

    /// Chips with candidate rows, ascending.
    fn candidate_chips(q: &DeviceQueue) -> Vec<u32> {
        let mut chips = q.candidate_view().active.to_vec();
        chips.sort_unstable();
        chips
    }

    /// One chip's rows in arrival order, as `(page, tag)`.
    fn chip_rows(q: &DeviceQueue, chip: usize) -> Vec<(u32, TagId)> {
        let view = q.candidate_view();
        view.rows_of(chip)
            .map(|row| (row.page(), row.tag()))
            .collect()
    }

    /// Candidate rows across all chips: one per uncommitted page.
    fn listed_rows(q: &DeviceQueue) -> usize {
        let view = q.candidate_view();
        view.active
            .iter()
            .map(|&chip| view.len(chip as usize))
            .sum()
    }

    #[test]
    fn admit_and_retire_roundtrip() {
        let mut q = DeviceQueue::new(4);
        let first = admit(&mut q, host(0, 2));
        let second = q.admit(host(1, 3), placement).unwrap();
        assert_eq!((first, second), (TagId(0), TagId(1)), "tags are slots");
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert!(!q.is_full());
        assert_eq!(tags(&q), vec![first, second]);
        q.validate_candidate_index();
        let retired = q.retire(first).unwrap();
        assert_eq!(retired.id, 0);
        assert_eq!(q.len(), 1);
        assert!(q.tag(first).is_none());
        assert!(q.retire(first).is_none());
        assert!(q.tag(TagId(u64::MAX)).is_none());
        q.validate_candidate_index();
    }

    #[test]
    fn capacity_is_reported_and_enforced() {
        let mut q = DeviceQueue::new(2);
        let first = admit(&mut q, host(0, 1));
        assert!(!q.is_full());
        let second = admit(&mut q, host(1, 1));
        assert!(q.is_full());
        assert_eq!(q.capacity(), 2);
        // Over-capacity admission is rejected, not silently allowed.
        assert_eq!(q.admit(host(2, 1), placement), None);
        assert_eq!(q.len(), 2);
        assert!(q.tag(TagId(2)).is_none());
        // Retiring frees the slot, and so its number, for a new admission.
        q.retire(first).unwrap();
        let third = admit(&mut q, host(2, 1));
        assert_eq!(third, first);
        assert_eq!(q.tag(third).unwrap().host.id, 2);
        assert_eq!(tags(&q), vec![second, third]);
    }

    #[test]
    fn tag_commit_and_complete_bitmaps() {
        let mut q = DeviceQueue::new(4);
        let tag = q.admit(host(7, 3), placement).unwrap();
        assert_eq!(
            q.tag(tag).unwrap().uncommitted_pages().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(q.commit_page(tag, 1));
        assert!(!q.commit_page(tag, 1));
        assert!(!q.commit_page(tag, 3), "past the end");
        let state = q.tag(tag).unwrap();
        assert_eq!(state.uncommitted_pages().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!state.fully_committed());
        assert!(q.commit_page(tag, 0));
        assert!(q.commit_page(tag, 2));
        assert!(q.tag(tag).unwrap().fully_committed());
        assert!(!q.tag(tag).unwrap().fully_completed());
        assert_eq!(q.complete_page(tag, 0), Some(false));
        assert_eq!(q.complete_page(tag, 1), Some(false));
        assert_eq!(
            q.complete_page(tag, 1),
            None,
            "double completion is rejected"
        );
        assert_eq!(q.complete_page(tag, 2), Some(true), "the tag is done");
        assert!(q.tag(tag).unwrap().fully_completed());
        q.retire(tag).unwrap();
        assert!(!q.commit_page(tag, 0), "retired tags reject");
        assert_eq!(q.complete_page(tag, 0), None);
    }

    #[test]
    fn page_bitmaps_index_like_vectors_and_scan_zeros() {
        let mut bits = PageBits::new(130);
        assert_eq!(bits.len(), 130);
        assert!(bits.set(0));
        assert!(bits.set(64));
        assert!(bits.set(129));
        assert!(!bits.set(64), "double set is rejected");
        assert!(bits[0] && bits[64] && bits[129]);
        assert!(!bits[1] && !bits[128]);
        let zeros: Vec<u32> = bits.zeros().collect();
        assert_eq!(zeros.len(), 127);
        assert_eq!(zeros[0], 1);
        assert_eq!(zeros[62], 63);
        assert_eq!(zeros[63], 65);
        assert_eq!(*zeros.last().unwrap(), 128);
        // The tail bits past `len` are never reported as zeros.
        let empty = PageBits::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.zeros().count(), 0);
        let one = PageBits::new(65);
        assert_eq!(one.zeros().count(), 65);
    }

    #[test]
    fn total_uncommitted_pages_sums_tags() {
        let mut q = DeviceQueue::new(4);
        let first = admit(&mut q, host(0, 2));
        let second = admit(&mut q, host(1, 5));
        assert_eq!(listed_rows(&q), 7);
        assert!(q.commit_page(second, 0));
        assert_eq!(listed_rows(&q), 6);
        q.retire(first).unwrap();
        assert_eq!(listed_rows(&q), 4);
        q.validate_candidate_index();
    }

    #[test]
    fn tag_state_page_count() {
        let mut q = DeviceQueue::new(4);
        let tag = admit(&mut q, host(1, 4));
        let state = q.tag(tag).unwrap();
        assert_eq!(state.pages(), 4);
        assert_eq!(state.seq, 0, "the first admission has seq 0");
        assert_eq!(state.uncommitted_pages().count(), 4);
    }

    #[test]
    fn admission_seqs_increase_with_arrival_order() {
        let mut q = DeviceQueue::new(4);
        let first = admit(&mut q, host(9, 1));
        let second = admit(&mut q, host(3, 1));
        let (a, b) = (seq_of(&q, first), seq_of(&q, second));
        assert!(a < b, "arrival order must be reflected in seqs");
        q.retire(first).unwrap();
        let third = admit(&mut q, host(9, 1));
        assert!(third < second, "the reused slot has the smaller number");
        assert!(seq_of(&q, third) > b, "seqs never repeat");
    }

    #[test]
    fn chip_index_tracks_uncommitted_pages() {
        let mut q = DeviceQueue::new(4);
        let first = admit(&mut q, host(0, 2));
        let second = admit(&mut q, host(1, 2));
        assert_eq!(candidate_chips(&q), vec![0, 1]);
        // Chip 0 holds page 0 of both tags, in arrival order.
        assert_eq!(chip_rows(&q, 0), vec![(0, first), (0, second)]);
        assert!(q.commit_page(first, 0));
        assert_eq!(chip_rows(&q, 0), vec![(0, second)]);
        q.retire(second).unwrap();
        assert_eq!(candidate_chips(&q), vec![1]);
        q.validate_candidate_index();
    }

    #[test]
    fn chip_index_follows_placement_refreshes() {
        let mut q = DeviceQueue::new(4);
        let tag = admit(&mut q, read_host(0, 500, 1));
        let moved = Placement {
            chip: 3,
            die: 0,
            plane: 1,
        };
        q.refresh_placements(500, moved);
        assert_eq!(candidate_chips(&q), vec![3]);
        assert_eq!(q.tag(tag).unwrap().placements[0], moved);
        q.validate_candidate_index();
        // A same-chip die/plane move rewrites the row's priority key too.
        let rotated = Placement {
            chip: 3,
            die: 1,
            plane: 0,
        };
        q.refresh_placements(500, rotated);
        assert_eq!(q.tag(tag).unwrap().placements[0], rotated);
        q.validate_candidate_index();
        // Committed pages are not rewritten.
        assert!(q.commit_page(tag, 0));
        q.refresh_placements(500, placement(0));
        assert_eq!(q.tag(tag).unwrap().placements[0], rotated);
    }

    #[test]
    fn read_lpn_index_answers_hazard_queries() {
        let mut q = DeviceQueue::new(4);
        let reader = admit(&mut q, read_host(0, 100, 4));
        let writer_seq = seq_of(&q, reader) + 1;
        assert!(q.has_blocking_read(102, writer_seq));
        assert!(!q.has_blocking_read(104, writer_seq));
        // Reads at or after the writer's seq do not block it.
        assert!(!q.has_blocking_read(102, seq_of(&q, reader)));
        assert!(q.commit_page(reader, 2));
        assert!(!q.has_blocking_read(102, writer_seq));
        assert!(q.has_blocking_read(101, writer_seq));
        q.retire(reader).unwrap();
        assert!(!q.has_blocking_read(101, writer_seq));
    }

    #[test]
    fn fua_horizon_is_constant_time_and_tracks_commitment() {
        let mut q = DeviceQueue::new(4);
        assert_eq!(q.horizon_seq(), u64::MAX);
        admit(&mut q, read_host(0, 0, 1));
        let fua = admit(&mut q, host(1, 2).with_fua(true));
        admit(&mut q, read_host(2, 50, 1));
        assert_eq!(q.horizon_seq(), seq_of(&q, fua));
        assert!(q.commit_page(fua, 0));
        assert_eq!(q.horizon_seq(), seq_of(&q, fua));
        assert!(q.commit_page(fua, 1));
        assert_eq!(q.horizon_seq(), u64::MAX);
    }

    /// Satellite regression test: storage stays bounded by the queue depth no
    /// matter how many I/Os flow through — retired slots are recycled and index
    /// entries are reclaimed (the seed kept a `Vec` indexed by raw `TagId`, so
    /// memory grew O(total I/Os served)).
    #[test]
    fn storage_is_bounded_by_depth_across_many_ios() {
        const DEPTH: usize = 8;
        const IOS: u64 = 10_000;
        let mut q = DeviceQueue::new(DEPTH);
        let mut next_admit = 0u64;
        let mut retired = 0u64;
        while retired < IOS {
            while next_admit < IOS && !q.is_full() {
                let dir_read = next_admit.is_multiple_of(3);
                let fua = next_admit.is_multiple_of(97);
                let h = HostRequest::new(
                    next_admit,
                    SimTime::ZERO,
                    if dir_read {
                        Direction::Read
                    } else {
                        Direction::Write
                    },
                    Lpn::new(next_admit % 512),
                    3,
                )
                .with_fua(fua);
                let tag = admit(&mut q, h);
                assert!(tag.0 < DEPTH as u64, "tag {tag} is not a slot");
                next_admit += 1;
            }
            // Retire the oldest tag after committing and completing its pages.
            let oldest = tags(&q)[0];
            assert_eq!(q.tag(oldest).unwrap().host.id, retired);
            for page in 0..3 {
                assert!(q.commit_page(oldest, page));
                assert_eq!(q.complete_page(oldest, page), Some(page == 2));
            }
            assert!(q.retire(oldest).is_some());
            retired += 1;

            assert!(
                q.slots.len() <= DEPTH,
                "slot storage grew past the queue depth: {}",
                q.slots.len()
            );
            // The row arena holds live and freed rows: it never grows past
            // the most pages ever queued at once.
            let index = q.candidate_view().rows.len() + q.fua_pending.len();
            assert!(
                index <= DEPTH * 3 + DEPTH,
                "index storage grew past the queued work: {index}"
            );
        }
        assert!(q.is_empty());
        assert_eq!(listed_rows(&q), 0);
        assert!(q.fua_pending.is_empty());
        assert!(q.slots.len() <= DEPTH);
        q.validate_candidate_index();
    }

    #[test]
    fn admit_with_fills_placements_and_recycles_storage() {
        let mut q = DeviceQueue::new(2);
        let first = admit(&mut q, host(0, 3));
        assert!(q.commit_page(first, 1));
        assert_eq!(q.tag(first).unwrap().placements.len(), 3);
        assert_eq!(q.tag(first).unwrap().placements[2].chip, 2);
        assert_eq!(candidate_chips(&q), vec![0, 2]);

        q.retire(first).unwrap();
        // The next admission takes the retired slot and refills the buffers
        // it kept, fully reset.
        let second = q.admit(read_host(1, 10, 2), |_| placement(5)).unwrap();
        assert_eq!(second, first, "the retired slot is reused");
        assert_eq!(q.slots.len(), 1);
        let tag = q.tag(second).unwrap();
        assert_eq!(tag.id, second);
        assert_eq!(tag.host.id, 1);
        assert_eq!(tag.pages(), 2);
        assert_eq!(tag.placements, vec![placement(5); 2]);
        assert!(
            tag.placements.capacity() >= 3,
            "the placement buffer is reused"
        );
        assert!(tag.uncommitted_pages().eq([0, 1]));
        assert!(tag.completed.zeros().eq([0, 1]));
        assert_eq!(candidate_chips(&q), vec![5]);
        assert_eq!(q.slots[0].rows.len(), 2, "one row handle per page");
        q.validate_candidate_index();
    }

    #[test]
    fn iter_states_matches_arrival_order_after_interior_retire() {
        let mut q = DeviceQueue::new(4);
        let admitted: Vec<TagId> = (0..4u64).map(|id| admit(&mut q, host(id, 1))).collect();
        q.retire(admitted[1]).unwrap();
        q.retire(admitted[2]).unwrap();
        let late = admit(&mut q, host(4, 1));
        // The late tag reuses a freed slot number yet still queues last.
        assert!(late < admitted[3]);
        assert_eq!(tags(&q), vec![admitted[0], admitted[3], late]);
        let hosts: Vec<u64> = q.iter_states().map(|s| s.host.id).collect();
        assert_eq!(hosts, vec![0, 3, 4]);
        let seqs: Vec<u64> = q.iter_states().map(|s| s.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        q.validate_candidate_index();
    }

    /// The definition the hazard index answers for: whether a queued read
    /// admitted before `seq` has an uncommitted page at `lpn` — the scan
    /// `reference::write_after_read_blocked` makes.
    fn scan_for_blocking_read(q: &DeviceQueue, lpn: u64, seq: u64) -> bool {
        q.iter_states()
            .take_while(|state| state.seq < seq)
            .any(|state| {
                let start = state.host.start_lpn.value();
                state.host.direction.is_read()
                    && (start..start + u64::from(state.host.pages)).contains(&lpn)
                    && !state.committed[(lpn - start) as usize]
            })
    }

    /// LPNs that hash to LPN 0's bucket, so one chain holds several LPNs.
    fn bucket_sharing_lpns() -> Vec<u64> {
        let bucket = hazard_bucket(0);
        (1..)
            .filter(|&lpn| hazard_bucket(lpn) == bucket)
            .take(4)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random admits (reads and writes over overlapping LPN ranges, some
        /// starting at LPNs that share one bucket), page commits, retires
        /// and readdressing (a queued LPN's preview moves to a drawn chip,
        /// die and plane, often onto a chip holding younger rows): after
        /// every step the hazard index answers each probe LPN at each
        /// queued tag's seq, the seq after it and the end of time as a scan
        /// of the queue does, and the debug validator rebuilds the rows,
        /// row handles and chains from the tag states.
        #[test]
        fn hazard_index_answers_like_a_scan_of_the_queue(
            steps in prop::collection::vec(
                (0u8..10, 0usize..60, 1u32..5, (0usize..6, 0u32..2, 0u32..2)),
                1..60,
            ),
        ) {
            let shared = bucket_sharing_lpns();
            let probes: Vec<u64> = (0..24)
                .chain(shared.iter().flat_map(|&lpn| lpn..lpn + 4))
                .collect();
            let mut q = DeviceQueue::new(6);
            for (id, &(kind, pick, pages, (chip, die, plane))) in steps.iter().enumerate() {
                let queued = tags(&q);
                let target = queued.get(pick % queued.len().max(1)).copied();
                match (kind, target) {
                    (0..=3, _) => {
                        let lpn = if pick % 3 == 0 {
                            shared[pick % shared.len()]
                        } else {
                            (pick % 20) as u64
                        };
                        let direction = if kind < 2 { Direction::Read } else { Direction::Write };
                        let host = HostRequest::new(
                            id as u64,
                            SimTime::ZERO,
                            direction,
                            Lpn::new(lpn),
                            pages,
                        );
                        let full = q.is_full();
                        prop_assert_eq!(q.admit(host, placement).is_none(), full);
                    }
                    (4 | 5, Some(tag)) => {
                        let page = pick as u32 % q.tag(tag).unwrap().pages() as u32;
                        q.commit_page(tag, page);
                    }
                    (8 | 9, Some(tag)) => {
                        let host = q.tag(tag).unwrap().host;
                        let lpn = host.lpn_at(pick as u32 % host.pages).value();
                        q.refresh_placements(lpn, Placement { chip, die, plane });
                    }
                    (_, Some(tag)) => {
                        q.retire(tag).unwrap();
                    }
                    (_, None) => {}
                }
                q.validate_candidate_index();
                let seqs = q
                    .iter_states()
                    .flat_map(|state| [state.seq, state.seq + 1])
                    .chain([u64::MAX]);
                for seq in seqs {
                    for &lpn in &probes {
                        prop_assert_eq!(
                            q.has_blocking_read(lpn, seq),
                            scan_for_blocking_read(&q, lpn, seq),
                            "lpn {}, seq {}, after step {}",
                            lpn,
                            seq,
                            id
                        );
                    }
                }
            }
        }
    }
}
