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
//! page buffer in place, so steady-state admission allocates nothing.  Total
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
//!   write-after-read check walks one short chain.  A queued tag keeps one
//!   entry per page, its placement preview and its state (queued with its
//!   row handle, committed or completed), so commit, retire and readdressing
//!   reach a row with no search.  Its change log lists each chip that gained
//!   a row or completed a committed page since the last round;
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

/// Where one page of a queued tag stands.  Completion follows commitment, so
/// a page passes through the three states in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Not yet committed; the page's candidate row handle.
    Queued(u32),
    /// Committed as a memory request that has not completed.
    Committed,
    /// Its memory request has completed.
    Completed,
}

/// One page of a queued tag: its placement preview and where it stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Page {
    placement: Placement,
    state: PageState,
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
    /// One entry per page, in page order.  The entries' states are the
    /// per-queue-entry completion bitmap described in §4.4 ("The Order of
    /// Output Data").
    pages: Vec<Page>,
    /// Number of `Queued` entries (kept so fullness checks are O(1)).
    uncommitted: usize,
    /// Number of entries not yet `Completed`.
    incomplete: usize,
}

impl TagState {
    /// Number of pages in the I/O request.
    pub fn pages(&self) -> usize {
        self.host.pages as usize
    }

    /// Page `page`'s physical placement preview (filled by the FTL
    /// preprocessor, moved by GC readdressing while the page is queued).
    ///
    /// # Panics
    ///
    /// Panics when `page` is out of range, as do the other page accessors.
    pub fn placement(&self, page: u32) -> Placement {
        self.pages[page as usize].placement
    }

    /// Whether page `page` has been committed as a memory request.
    pub fn is_committed(&self, page: u32) -> bool {
        !matches!(self.pages[page as usize].state, PageState::Queued(_))
    }

    /// Whether page `page`'s memory request has completed.
    pub fn is_completed(&self, page: u32) -> bool {
        self.pages[page as usize].state == PageState::Completed
    }

    /// Page offsets not yet committed, ascending.
    pub fn uncommitted_pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.queued_rows().map(|(page, _)| page)
    }

    /// True once every page has been committed.
    pub fn fully_committed(&self) -> bool {
        self.uncommitted == 0
    }

    /// Each uncommitted page with its candidate row handle, ascending; a
    /// fully committed tag yields nothing without a scan.
    fn queued_rows(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let pages = if self.fully_committed() {
            &[][..]
        } else {
            &self.pages[..]
        };
        (0..)
            .zip(pages)
            .filter_map(|(page, entry)| match entry.state {
                PageState::Queued(row) => Some((page, row)),
                PageState::Committed | PageState::Completed => None,
            })
    }
}

/// One storage slot of the queue's slot map.
#[derive(Debug, Clone)]
struct Slot {
    /// The queued tag when `live`; otherwise the slot's last tag, whose
    /// page buffer the next admission into the slot refills.
    state: TagState,
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
    /// `placement_of` produces each page's placement preview (called once per
    /// page, in page order), filling the page buffer the slot kept from its
    /// last tag, so steady-state admission performs no allocations.
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
                        pages: Vec::new(),
                        uncommitted: 0,
                        incomplete: 0,
                    },
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
        let state = &mut self.slots[slot].state;
        state.id = id;
        state.seq = seq;
        state.host = host;
        state.uncommitted = pages;
        state.incomplete = pages;
        state.pages.clear();
        state.pages.reserve(pages);
        for page in 0..host.pages {
            let placement = placement_of(page);
            let row = self.cand.insert(
                placement.chip,
                seq,
                pack_pri(page, placement.die, placement.plane),
                host.lpn_at(page).value(),
                slot as u32,
                host.direction.is_read(),
            );
            state.pages.push(Page {
                placement,
                state: PageState::Queued(row),
            });
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
        let state = &self.slots[slot].state;
        for (_, row) in state.queued_rows() {
            self.cand.remove(row);
        }
        if let Ok(pos) = self.fua_pending.binary_search(&state.seq) {
            self.fua_pending.remove(pos);
        }
        Some(state.host)
    }

    /// Marks a page of a queued tag committed, dropping its candidate row.
    /// Returns `false` when the tag is not queued, the page offset is out of
    /// range, or the page was already committed.
    // lint: hot-path
    pub fn commit_page(&mut self, id: TagId, page: u32) -> bool {
        let Some(slot) = self.slots.get_mut(id.0 as usize).filter(|slot| slot.live) else {
            return false;
        };
        let state = &mut slot.state;
        let Some(entry) = state.pages.get_mut(page as usize) else {
            return false;
        };
        let PageState::Queued(row) = entry.state else {
            return false;
        };
        entry.state = PageState::Committed;
        self.cand.remove(row);
        state.uncommitted -= 1;
        if state.host.fua && state.fully_committed() {
            if let Ok(pos) = self.fua_pending.binary_search(&state.seq) {
                self.fua_pending.remove(pos);
            }
        }
        true
    }

    /// Marks a committed page's memory request completed and lists the
    /// page's chip in the change log ([`CandidateView::changed`]): the
    /// substrate retires the page's ledger charge with it, so that chip's
    /// headroom rose.  Returns `None` when the tag is not queued, the page
    /// offset is out of range, or the page is not committed or already
    /// completed; otherwise `Some(done)`, where `done` says every page of the
    /// tag has now completed and the tag is ready to retire.
    // lint: hot-path
    pub fn complete_page(&mut self, id: TagId, page: u32) -> Option<bool> {
        let state = &mut self
            .slots
            .get_mut(id.0 as usize)
            .filter(|slot| slot.live)?
            .state;
        let entry = state.pages.get_mut(page as usize)?;
        if entry.state != PageState::Committed {
            return None;
        }
        entry.state = PageState::Completed;
        // Readdressing moves only queued pages, so a committed page's
        // placement is still the chip it was charged to at commit.
        self.cand.note(entry.placement.chip);
        state.incomplete -= 1;
        Some(state.incomplete == 0)
    }

    /// Rewrites the placement preview of every queued, still-uncommitted read
    /// of `lpn` to `preview`, where GC readdressing (§4.3) moved its data,
    /// and moves its candidate row.  A queued write keeps its preview: that is
    /// the write's static placement, where `Ftl::allocate_write` still aims it.
    pub fn refresh_placements(&mut self, lpn: u64, preview: Placement) {
        // The arrival-order list links only live slots.
        let mut cursor = self.head;
        while cursor != NIL {
            let slot = &mut self.slots[cursor];
            let state = &mut slot.state;
            let page = lpn.wrapping_sub(state.host.start_lpn.value());
            if state.host.direction.is_read() && page < u64::from(state.host.pages) {
                let entry = &mut state.pages[page as usize];
                if let PageState::Queued(row) = entry.state {
                    if entry.placement != preview {
                        entry.placement = preview;
                        let pri = pack_pri(page as u32, preview.die, preview.plane);
                        self.cand.relocate(row, preview.chip, pri);
                    }
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

    /// The candidate view for one scheduling round: the change log, each
    /// chip's rows in arrival order, and the row arena.
    pub fn candidate_view(&self) -> CandidateView<'_> {
        self.cand.view()
    }

    /// Empties the change log ([`CandidateView::changed`]).  The SSD
    /// substrate calls it right after each scheduling round.
    pub fn clear_changed(&mut self) {
        self.cand.clear_changed();
    }

    /// Debug-build invariant checker: checks that each queued tag's id is its
    /// slot, that it keeps one entry per page and that its page counts match
    /// its entries, and rebuilds the candidate rows, the entries' row handles
    /// and the hazard chains from the queued tag states.  Compiled to a no-op
    /// in release builds; the differential property tests call it after every
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
                debug_assert_eq!(state.pages.len(), state.pages(), "one entry per page");
                let pages = state.pages.iter();
                let queued = pages
                    .clone()
                    .filter(|p| matches!(p.state, PageState::Queued(_)));
                let incomplete = pages.filter(|p| p.state != PageState::Completed);
                debug_assert_eq!(
                    (state.uncommitted, state.incomplete),
                    (queued.count(), incomplete.count()),
                    "tag {slot}: page counts diverged from its entries"
                );
                for (page, handle) in state.queued_rows() {
                    let p = state.placement(page);
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

    /// More chips than any case places a page on.
    const CHIPS: usize = 16;

    /// Chips with candidate rows, ascending.
    fn candidate_chips(q: &DeviceQueue) -> Vec<usize> {
        let view = q.candidate_view();
        (0..CHIPS).filter(|&chip| view.len(chip) > 0).collect()
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
        (0..CHIPS).map(|chip| view.len(chip)).sum()
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
        assert_eq!(
            q.complete_page(tag, 1),
            None,
            "a page completes only after it is committed"
        );
        assert!(!q.tag(tag).unwrap().is_completed(1));
        assert!(q.commit_page(tag, 1));
        assert!(!q.commit_page(tag, 1));
        assert!(!q.commit_page(tag, 3), "past the end");
        let state = q.tag(tag).unwrap();
        assert_eq!(state.uncommitted_pages().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!state.fully_committed());
        assert!(q.commit_page(tag, 0));
        assert!(q.commit_page(tag, 2));
        assert!(q.tag(tag).unwrap().fully_committed());
        assert!(!q.tag(tag).unwrap().is_completed(0));
        assert_eq!(q.complete_page(tag, 0), Some(false));
        assert_eq!(q.complete_page(tag, 1), Some(false));
        assert_eq!(
            q.complete_page(tag, 1),
            None,
            "double completion is rejected"
        );
        assert_eq!(q.complete_page(tag, 2), Some(true), "the tag is done");
        assert!((0..3).all(|page| q.tag(tag).unwrap().is_completed(page)));
        q.retire(tag).unwrap();
        assert!(!q.commit_page(tag, 0), "retired tags reject");
        assert_eq!(q.complete_page(tag, 0), None);
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
        let write = admit(
            &mut q,
            HostRequest {
                start_lpn: Lpn::new(500),
                ..host(1, 1)
            },
        );
        let moved = Placement {
            chip: 3,
            die: 0,
            plane: 1,
        };
        q.refresh_placements(500, moved);
        assert_eq!(candidate_chips(&q), vec![0, 3]);
        // A queued write keeps its static placement preview.
        assert_eq!(q.tag(write).unwrap().placement(0), placement(0));
        q.retire(write).unwrap();
        assert_eq!(candidate_chips(&q), vec![3]);
        assert_eq!(q.tag(tag).unwrap().placement(0), moved);
        q.validate_candidate_index();
        // A same-chip die/plane move rewrites the row's priority key too.
        let rotated = Placement {
            chip: 3,
            die: 1,
            plane: 0,
        };
        q.refresh_placements(500, rotated);
        assert_eq!(q.tag(tag).unwrap().placement(0), rotated);
        q.validate_candidate_index();
        // Committed pages are not rewritten.
        assert!(q.commit_page(tag, 0));
        q.refresh_placements(500, placement(0));
        assert_eq!(q.tag(tag).unwrap().placement(0), rotated);
    }

    /// Completing a committed page lists the chip its ledger charge sits
    /// on, once per chip until the log is cleared; committing and retiring
    /// list nothing.  Readdressing moves only a queued page, so a committed
    /// page of the moved LPN still lists the chip it was charged to.
    #[test]
    fn completing_a_page_lists_its_charged_chip_once() {
        let mut q = DeviceQueue::new(8);
        let first = admit(&mut q, read_host(0, 500, 2));
        let second = admit(&mut q, read_host(1, 500, 1));
        let pair = q.admit(host(2, 2), |_| placement(2)).unwrap();
        let dropped = admit(&mut q, host(3, 2));
        assert_eq!(q.candidate_view().changed, &[0, 1, 2]);
        q.clear_changed();
        for page in 0..2 {
            assert!(q.commit_page(first, page));
            assert!(q.commit_page(pair, page));
        }
        assert!(q.commit_page(dropped, 0));
        assert!(q.retire(dropped).is_some());
        assert!(q.candidate_view().changed.is_empty());
        assert_eq!(q.complete_page(pair, 0), Some(false));
        assert_eq!(q.complete_page(first, 1), Some(false));
        assert_eq!(q.complete_page(pair, 1), Some(true));
        assert_eq!(q.candidate_view().changed, &[2, 1], "each chip once");
        q.clear_changed();
        assert!(q.candidate_view().changed.is_empty());
        // LPN 500 moves to chip 3: the second read's queued page follows it,
        // and its new chip is listed; the first read's committed page stays.
        q.refresh_placements(500, placement(3));
        assert_eq!(q.tag(second).unwrap().placement(0), placement(3));
        assert_eq!(q.candidate_view().changed, &[3]);
        q.clear_changed();
        assert_eq!(q.complete_page(first, 0), Some(true));
        assert_eq!(q.candidate_view().changed, &[0]);
        q.validate_candidate_index();
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
        assert_eq!(q.tag(first).unwrap().pages.len(), 3);
        assert_eq!(q.tag(first).unwrap().placement(2).chip, 2);
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
        assert!((0..2).all(|page| tag.placement(page) == placement(5)));
        assert_eq!(tag.pages.len(), 2, "one entry per page");
        assert!(tag.pages.capacity() >= 3, "the page buffer is reused");
        assert!(tag.uncommitted_pages().eq([0, 1]));
        assert!(!tag.is_completed(0) && !tag.is_completed(1));
        assert_eq!(candidate_chips(&q), vec![5]);
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
                    && !state.is_committed((lpn - start) as u32)
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
        /// page entries and chains from the tag states.
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
