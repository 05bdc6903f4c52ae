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
//! occupies one slot from admission to retirement, retired slots are recycled, and
//! arrival order is threaded through the slots as an intrusive doubly-linked list so
//! [`DeviceQueue::retire`] is O(1).  Total storage is O(queue depth), independent of
//! how many I/Os have ever been served.
//!
//! The slot index is the queue's *dense handle*: tag-id lookups resolve to a
//! `u32` slot through a direct-mapped ring (`TagMap`, no hashing — tags are
//! issued densely), and per-slot hot fields (admission seq, raw tag id,
//! direction flag) are mirrored into parallel *slot columns* so the scheduler
//! hot path reads small contiguous arrays instead of chasing `Option<TagState>`.
//!
//! On top of the slots the queue maintains three incremental indices that turn the
//! scheduler hot path from full-queue scans into point lookups:
//!
//! * a **columnar per-chip candidate index** ([`crate::cand::CandidateIndex`]) —
//!   for every flash chip, the uncommitted pages targeting it as rows of four
//!   parallel columns (seq/priority/lpn/slot) in a contiguous CSR-style extent,
//!   ordered by arrival, so resource-driven schedulers iterate plain slices and
//!   visit only chips that actually have work;
//! * a **read-LPN hazard index** — for every logical page with an uncommitted read,
//!   the admission sequence numbers of the reading tags, so the §4.4
//!   write-after-read check is an O(log n) lookup instead of a full-queue scan;
//! * a **pending-FUA index** — the admission sequence numbers of queued
//!   force-unit-access tags that are not yet fully committed, so the reordering
//!   horizon is an O(1) lookup.
//!
//! The hazard and FUA indices are sorted vectors, not B-trees: at steady state
//! their capacity is retained across churn, so index maintenance performs no
//! allocations once the high-water mark is reached (a B-tree frees and
//! re-allocates nodes as sets empty and refill, which defeats the
//! zero-allocation replay gate).  Entry counts are bounded by the queued work,
//! so the O(n) memmove per insert/remove is a handful of cache lines.
//!
//! To keep the indices coherent, all mutation of queued tag state goes through the
//! queue ([`DeviceQueue::commit_page`], [`DeviceQueue::complete_page`],
//! [`DeviceQueue::refresh_placements`]); queued tags are only handed out immutably.

use sprinkler_sim::SimTime;

use crate::cand::{pack_pri, pri_page, CandidateIndex, CandidateView};
use crate::request::{HostRequest, Placement, TagId};

/// Sentinel for "no slot" in the intrusive arrival-order list.
const NIL: usize = usize::MAX;

/// Sentinel slot value marking an empty [`TagMap`] ring cell.
const NO_SLOT: u32 = u32::MAX;

/// Bit set in the slot flag column for write tags.
pub const SLOT_WRITE: u8 = 1;

/// Buckets in the read-LPN counting filter (see
/// [`DeviceQueue::read_hazard_filter`]).  Must stay a power of two: the
/// bucket hash takes the top `log2(READ_FILTER_BUCKETS)` bits.
pub const READ_FILTER_BUCKETS: usize = 512;

/// The counting-filter bucket of a logical page number.  Fibonacci hashing
/// spreads the sequential LPN ranges real workloads produce across the whole
/// bucket space before the top bits are taken.
#[inline]
pub fn read_filter_bucket(lpn: u64) -> usize {
    const _: () = assert!(READ_FILTER_BUCKETS == 1 << 9);
    (lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - 9)) as usize
}

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
    /// The tag identifier.
    pub id: TagId,
    /// Admission sequence number: strictly increasing with arrival order, so
    /// `a.seq < b.seq` iff tag `a` was admitted before tag `b`.  Hazard and
    /// horizon comparisons are expressed over this field.
    pub seq: u64,
    /// The originating host request.
    pub host: HostRequest,
    /// When the tag was admitted into the device queue.
    pub admitted_at: SimTime,
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
    /// When the first memory request of this tag was committed.
    pub first_commit_at: Option<SimTime>,
}

impl TagState {
    /// Creates the state for a newly admitted tag.  The admission sequence number
    /// starts at 0; [`DeviceQueue::admit`] assigns the real one.
    pub fn new(
        id: TagId,
        host: HostRequest,
        admitted_at: SimTime,
        placements: Vec<Placement>,
    ) -> Self {
        let pages = host.pages as usize;
        debug_assert_eq!(placements.len(), pages);
        TagState {
            id,
            seq: 0,
            host,
            admitted_at,
            placements,
            committed: PageBits::new(pages),
            completed: PageBits::new(pages),
            committed_count: 0,
            completed_count: 0,
            first_commit_at: None,
        }
    }

    /// Number of pages in the I/O request.
    pub fn pages(&self) -> usize {
        self.host.pages as usize
    }

    /// Page offsets not yet committed, ascending (a bitmap bit-scan).
    pub fn uncommitted_pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.committed.zeros()
    }

    /// Number of pages not yet committed.
    pub fn uncommitted_count(&self) -> usize {
        self.pages() - self.committed_count
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
    pub fn mark_committed(&mut self, page: u32, now: SimTime) -> bool {
        if !self.committed.set(page as usize) {
            return false;
        }
        self.committed_count += 1;
        self.first_commit_at.get_or_insert(now);
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

/// One recycled storage slot of the queue's slot map.
#[derive(Debug, Clone)]
struct Slot {
    state: Option<TagState>,
    /// Previous slot in arrival order (`NIL` at the head).
    prev: usize,
    /// Next slot in arrival order (`NIL` at the tail).
    next: usize,
}

/// Direct-mapped tag-id → slot lookup.
///
/// The SSD issues tag ids densely (a monotonically increasing counter), so a
/// power-of-two ring indexed by `tag & mask` resolves nearly every lookup with
/// one load and one compare — no hashing on admit, commit, or retire.  Two
/// live tags can still collide modulo the ring size (one tag outliving many
/// churn cycles, or tests using arbitrary ids); colliders spill into a small
/// linear-scanned overflow list bounded by the queue depth.
#[derive(Debug, Clone)]
struct TagMap {
    mask: u64,
    /// `(raw tag id, slot)` cells; `slot == NO_SLOT` marks an empty cell.
    ring: Vec<(u64, u32)>,
    /// Colliding entries, linearly scanned (rare: requires two live tags with
    /// equal residues).
    overflow: Vec<(u64, u32)>,
}

impl TagMap {
    fn new(capacity: usize) -> Self {
        let size = capacity.max(1).next_power_of_two();
        TagMap {
            mask: size as u64 - 1,
            ring: vec![(0, NO_SLOT); size],
            overflow: Vec::with_capacity(capacity.min(size)),
        }
    }

    #[inline]
    fn get(&self, tag: u64) -> Option<u32> {
        let cell = self.ring[(tag & self.mask) as usize];
        if cell.1 != NO_SLOT && cell.0 == tag {
            return Some(cell.1);
        }
        self.overflow
            .iter()
            .find(|entry| entry.0 == tag)
            .map(|entry| entry.1)
    }

    fn insert(&mut self, tag: u64, slot: u32) {
        debug_assert!(slot != NO_SLOT);
        debug_assert!(self.get(tag).is_none(), "tag {tag} is already mapped");
        let cell = &mut self.ring[(tag & self.mask) as usize];
        if cell.1 == NO_SLOT {
            *cell = (tag, slot);
        } else {
            self.overflow.push((tag, slot));
        }
    }

    fn remove(&mut self, tag: u64) -> Option<u32> {
        let index = (tag & self.mask) as usize;
        let cell = self.ring[index];
        if cell.1 != NO_SLOT && cell.0 == tag {
            // Promote a colliding overflow entry into the freed cell so dense
            // workloads keep their one-load fast path.
            let promoted = self
                .overflow
                .iter()
                .position(|entry| entry.0 & self.mask == tag & self.mask);
            self.ring[index] = match promoted {
                Some(pos) => self.overflow.swap_remove(pos),
                None => (0, NO_SLOT),
            };
            return Some(cell.1);
        }
        if let Some(pos) = self.overflow.iter().position(|entry| entry.0 == tag) {
            return Some(self.overflow.swap_remove(pos).1);
        }
        None
    }
}

/// The bounded device-level queue.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::queue::DeviceQueue;
/// use sprinkler_ssd::request::{Direction, HostRequest, TagId};
/// use sprinkler_flash::Lpn;
/// use sprinkler_sim::SimTime;
///
/// let mut q = DeviceQueue::new(2);
/// assert!(!q.is_full());
/// let host = HostRequest::new(0, SimTime::ZERO, Direction::Read, Lpn::new(0), 1);
/// assert!(q.admit(TagId(0), host, SimTime::ZERO, vec![]));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceQueue {
    capacity: usize,
    /// Slot-map storage; never grows past `capacity` entries.
    slots: Vec<Slot>,
    /// Recycled slot indices.
    free: Vec<usize>,
    /// Tag id → slot handle (direct-mapped ring, no hashing).
    tag_map: TagMap,
    /// Slot column: admission seq per occupied slot (generation guard for
    /// handle-based access).
    slot_seq: Vec<u64>,
    /// Slot column: raw tag id per occupied slot.
    slot_tag: Vec<u64>,
    /// Slot column: per-slot flags ([`SLOT_WRITE`]).
    slot_flags: Vec<u8>,
    /// First slot in arrival order (`NIL` when empty).
    head: usize,
    /// Last slot in arrival order (`NIL` when empty).
    tail: usize,
    len: usize,
    /// Next admission sequence number.
    next_seq: u64,
    /// Total uncommitted pages across all queued tags.
    uncommitted_total: usize,
    /// Columnar per-chip candidate index of every uncommitted page.
    cand: CandidateIndex,
    /// Sorted `(lpn, seq)` pairs: read tags whose page at that LPN is
    /// uncommitted.
    read_lpn_index: Vec<(u64, u64)>,
    /// Counting filter over `read_lpn_index`: per-bucket entry counts keyed by
    /// [`read_filter_bucket`].  A zero bucket proves no uncommitted read of
    /// any LPN hashing there exists, so the §4.4 write-after-read check skips
    /// its binary search for the (dominant) unblocked case.
    read_lpn_filter: Vec<u32>,
    /// Sorted admission seqs of queued FUA tags not yet fully committed.
    fua_pending: Vec<u64>,
    /// Recycled [`TagState`] storage: retired tags returned via
    /// [`DeviceQueue::recycle`] donate their heap buffers to later admissions.
    spare_states: Vec<TagState>,
}

impl DeviceQueue {
    /// Creates an empty queue with the given capacity.
    pub fn new(capacity: usize) -> Self {
        DeviceQueue {
            capacity,
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            tag_map: TagMap::new(capacity),
            slot_seq: Vec::with_capacity(capacity),
            slot_tag: Vec::with_capacity(capacity),
            slot_flags: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            len: 0,
            next_seq: 0,
            uncommitted_total: 0,
            cand: CandidateIndex::new(),
            read_lpn_index: Vec::new(),
            read_lpn_filter: vec![0; READ_FILTER_BUCKETS],
            fua_pending: Vec::with_capacity(capacity),
            spare_states: Vec::with_capacity(capacity),
        }
    }

    // ------------------------------------------------------------------
    // Sorted-vector index maintenance (allocation-free at steady state)
    // ------------------------------------------------------------------

    fn read_lpn_insert(&mut self, lpn: u64, seq: u64) {
        if let Err(pos) = self.read_lpn_index.binary_search(&(lpn, seq)) {
            self.read_lpn_index.insert(pos, (lpn, seq));
            self.read_lpn_filter[read_filter_bucket(lpn)] += 1;
        }
    }

    fn read_lpn_remove(&mut self, lpn: u64, seq: u64) {
        if let Ok(pos) = self.read_lpn_index.binary_search(&(lpn, seq)) {
            self.read_lpn_index.remove(pos);
            self.read_lpn_filter[read_filter_bucket(lpn)] -= 1;
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

    /// Admits a host request as a tag.  Returns `false` — without admitting —
    /// when the queue is already at capacity.
    ///
    /// Placement previews may be empty if the scheduler never consults them
    /// (virtual address scheduling); in that case page accounting still works but
    /// placement lookups must not be used.
    #[must_use = "admission fails when the queue is full; the request would be lost"]
    pub fn admit(
        &mut self,
        id: TagId,
        host: HostRequest,
        now: SimTime,
        placements: Vec<Placement>,
    ) -> bool {
        if placements.is_empty() {
            self.admit_with(id, host, now, |_| Placement {
                chip: 0,
                channel: 0,
                way: 0,
                die: 0,
                plane: 0,
            })
        } else {
            debug_assert_eq!(placements.len(), host.pages as usize);
            self.admit_with(id, host, now, |page| placements[page as usize])
        }
    }

    /// [`DeviceQueue::admit`] with the placement previews produced in place by
    /// `placement_of` (called once per page, in page order), filling buffers
    /// recycled from retired tags instead of taking a freshly allocated
    /// `Vec<Placement>`.  The replay hot path admits through this entry point
    /// so steady-state admission performs no allocations.
    #[must_use = "admission fails when the queue is full; the request would be lost"]
    pub fn admit_with(
        &mut self,
        id: TagId,
        host: HostRequest,
        now: SimTime,
        mut placement_of: impl FnMut(u32) -> Placement,
    ) -> bool {
        if self.is_full() {
            return false;
        }
        debug_assert!(
            self.tag_map.get(id.0).is_none(),
            "tag {id} is already queued"
        );
        let pages = host.pages as usize;
        let mut state = match self.spare_states.pop() {
            Some(mut spare) => {
                spare.placements.clear();
                spare.id = id;
                spare.host = host;
                spare.admitted_at = now;
                spare
            }
            None => TagState {
                id,
                seq: 0,
                host,
                admitted_at: now,
                placements: Vec::new(),
                committed: PageBits::default(),
                completed: PageBits::default(),
                committed_count: 0,
                completed_count: 0,
                first_commit_at: None,
            },
        };
        state
            .placements
            .extend((0..state.host.pages).map(&mut placement_of));
        state.committed.reset(pages);
        state.completed.reset(pages);
        state.committed_count = 0;
        state.completed_count = 0;
        state.first_commit_at = None;
        state.seq = self.next_seq;
        self.next_seq += 1;
        let seq = state.seq;

        // Reserve the storage slot first: the index entries carry it as a
        // dense handle so hot-path consumers skip the tag-id lookup entirely.
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    state: None,
                    prev: NIL,
                    next: NIL,
                });
                self.slot_seq.push(0);
                self.slot_tag.push(0);
                self.slot_flags.push(0);
                self.slots.len() - 1
            }
        };
        self.slot_seq[slot] = seq;
        self.slot_tag[slot] = id.0;
        self.slot_flags[slot] = if state.host.direction.is_write() {
            SLOT_WRITE
        } else {
            0
        };

        let is_read = state.host.direction.is_read();
        for page in 0..pages {
            let p = state.placements[page];
            let lpn = state.host.lpn_at(page as u32).value();
            self.cand.insert(
                p.chip,
                seq,
                pack_pri(page as u32, p.die, p.plane),
                lpn,
                slot as u32,
            );
            if is_read {
                self.read_lpn_insert(lpn, seq);
            }
        }
        if state.host.fua {
            // Admission seqs are monotonic, so this is a push in practice.
            let pos = self.fua_pending.partition_point(|&s| s < seq);
            self.fua_pending.insert(pos, seq);
        }
        self.uncommitted_total += pages;
        self.slots[slot].state = Some(state);
        // Link at the tail of the arrival-order list.
        self.slots[slot].prev = self.tail;
        self.slots[slot].next = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.slots[self.tail].next = slot;
        }
        self.tail = slot;
        self.tag_map.insert(id.0, slot as u32);
        self.len += 1;
        true
    }

    /// Removes a completed tag, freeing its queue slot.  Returns its final state.
    /// O(1) in the queue length (plus index removal for any still-uncommitted
    /// pages).
    pub fn retire(&mut self, id: TagId) -> Option<TagState> {
        let slot = self.tag_map.remove(id.0)?;
        self.retire_slot(slot as usize)
    }

    /// [`DeviceQueue::retire`] through a dense slot handle, skipping the tag-id
    /// lookup.
    pub fn retire_at(&mut self, slot: u32) -> Option<TagState> {
        let id = self.slots.get(slot as usize)?.state.as_ref()?.id;
        self.tag_map.remove(id.0)?;
        self.retire_slot(slot as usize)
    }

    fn retire_slot(&mut self, slot: usize) -> Option<TagState> {
        let state = self.slots[slot].state.take()?;
        // Unlink from the arrival-order list.
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
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
        // Drop any remaining index entries for uncommitted pages.
        for page in state.uncommitted_pages() {
            let p = state.placements[page as usize];
            self.cand
                .remove(p.chip, state.seq, pack_pri(page, p.die, p.plane));
            if state.host.direction.is_read() {
                self.read_lpn_remove(state.host.lpn_at(page).value(), state.seq);
            }
            self.uncommitted_total -= 1;
        }
        if let Ok(pos) = self.fua_pending.binary_search(&state.seq) {
            self.fua_pending.remove(pos);
        }
        Some(state)
    }

    /// Returns a retired [`TagState`]'s heap buffers to the queue's internal
    /// pool so a later [`DeviceQueue::admit_with`] reuses them instead of
    /// allocating.  The pool is bounded by the queue capacity; surplus states
    /// are simply dropped.
    pub fn recycle(&mut self, state: TagState) {
        if self.spare_states.len() < self.capacity {
            self.spare_states.push(state);
        }
    }

    /// Marks a page of a queued tag committed, keeping the hazard and chip indices
    /// coherent.  Returns `false` when the tag is not queued, the page offset is
    /// out of range, or the page was already committed.
    pub fn commit_page(&mut self, id: TagId, page: u32, now: SimTime) -> bool {
        match self.tag_map.get(id.0) {
            Some(slot) => self.commit_page_at(slot, page, now),
            None => false,
        }
    }

    /// [`DeviceQueue::commit_page`] through a dense slot handle, skipping the
    /// tag-id lookup.
    // lint: hot-path
    pub fn commit_page_at(&mut self, slot: u32, page: u32, now: SimTime) -> bool {
        let Some(entry) = self.slots.get_mut(slot as usize) else {
            return false;
        };
        let Some(state) = entry.state.as_mut() else {
            return false;
        };
        if page as usize >= state.pages() || !state.mark_committed(page, now) {
            return false;
        }
        let seq = state.seq;
        let p = state.placements[page as usize];
        let read_lpn = state
            .host
            .direction
            .is_read()
            .then(|| state.host.lpn_at(page).value());
        let fua_done = state.host.fua && state.fully_committed();
        self.uncommitted_total -= 1;
        self.cand
            .remove(p.chip, seq, pack_pri(page, p.die, p.plane));
        if let Some(lpn) = read_lpn {
            self.read_lpn_remove(lpn, seq);
        }
        if fua_done {
            if let Ok(pos) = self.fua_pending.binary_search(&seq) {
                self.fua_pending.remove(pos);
            }
        }
        true
    }

    /// Marks a page's memory request completed.  Returns `false` when the tag is
    /// not queued or the page was already completed.
    pub fn complete_page(&mut self, id: TagId, page: u32) -> bool {
        match self.tag_map.get(id.0) {
            Some(slot) => self.complete_page_at(slot, page),
            None => false,
        }
    }

    /// [`DeviceQueue::complete_page`] through a dense slot handle.
    // lint: hot-path
    pub fn complete_page_at(&mut self, slot: u32, page: u32) -> bool {
        match self
            .slots
            .get_mut(slot as usize)
            .and_then(|s| s.state.as_mut())
        {
            Some(state) if (page as usize) < state.pages() => state.mark_completed(page),
            _ => false,
        }
    }

    /// Rewrites the placement preview of every queued, still-uncommitted page
    /// addressing `lpn` (GC readdressing, §4.3), keeping the chip index coherent.
    pub fn refresh_placements(&mut self, lpn: u64, preview: Placement) {
        let mut cursor = self.head;
        while cursor != NIL {
            let next;
            // (seq, old placement, page) of a rewritten page whose index row
            // must move to a new (chip, die, plane) key.
            let mut moved: Option<(u64, Placement, u32)> = None;
            {
                let slot = &mut self.slots[cursor];
                next = slot.next;
                if let Some(state) = slot.state.as_mut() {
                    let start = state.host.start_lpn.value();
                    let end = start + state.host.pages as u64;
                    if (start..end).contains(&lpn) {
                        let page = (lpn - start) as usize;
                        if !state.committed.get(page) {
                            let old = state.placements[page];
                            state.placements[page] = preview;
                            if (old.chip, old.die, old.plane)
                                != (preview.chip, preview.die, preview.plane)
                            {
                                moved = Some((state.seq, old, page as u32));
                            }
                        }
                    }
                }
            }
            if let Some((seq, old, page)) = moved {
                self.cand
                    .remove(old.chip, seq, pack_pri(page, old.die, old.plane));
                self.cand.insert(
                    preview.chip,
                    seq,
                    pack_pri(page, preview.die, preview.plane),
                    lpn,
                    cursor as u32,
                );
            }
            cursor = next;
        }
    }

    /// Resolves a tag id to its dense slot handle.
    pub fn slot_of(&self, id: TagId) -> Option<u32> {
        self.tag_map.get(id.0)
    }

    /// Queued tag identifiers in arrival order.
    pub fn tags_in_order(&self) -> impl Iterator<Item = TagId> + '_ {
        self.iter_states().map(|state| state.id)
    }

    /// Queued tag states in arrival order.
    pub fn iter_states(&self) -> impl Iterator<Item = &TagState> + '_ {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            while cursor != NIL {
                let slot = &self.slots[cursor];
                cursor = slot.next;
                if let Some(state) = slot.state.as_ref() {
                    return Some(state);
                }
            }
            None
        })
    }

    /// Looks up a tag's state.
    pub fn tag(&self, id: TagId) -> Option<&TagState> {
        let slot = self.tag_map.get(id.0)?;
        self.slots[slot as usize].state.as_ref()
    }

    /// A queued tag's admission sequence number.
    pub fn seq_of(&self, id: TagId) -> Option<u64> {
        self.tag(id).map(|state| state.seq)
    }

    /// Total uncommitted pages across all queued tags (O(1)).
    pub fn total_uncommitted_pages(&self) -> usize {
        self.uncommitted_total
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
    /// read of logical page `lpn` (the §4.4 write-after-read hazard).  O(log n).
    // lint: hot-path
    pub fn has_blocking_read(&self, lpn: u64, seq: u64) -> bool {
        if self.read_lpn_filter[read_filter_bucket(lpn)] == 0 {
            // No uncommitted read hashes to this bucket: provably unblocked.
            return false;
        }
        // Entries are sorted by (lpn, seq); the first entry for `lpn` holds
        // the earliest reading seq.
        let pos = self.read_lpn_index.partition_point(|&(l, _)| l < lpn);
        self.read_lpn_index
            .get(pos)
            .is_some_and(|&(l, earliest)| l == lpn && earliest < seq)
    }

    /// The pending-FUA horizon entries: admission seqs of queued FUA tags not
    /// yet fully committed, ascending.  Exposed for the debug invariant
    /// validator; hot paths use [`DeviceQueue::horizon_seq`].
    pub fn fua_pending(&self) -> &[u64] {
        &self.fua_pending
    }

    /// The raw read-LPN hazard entries, sorted by `(lpn, seq)` — the dense
    /// slice behind [`DeviceQueue::has_blocking_read`], exposed so hot loops
    /// can hoist the queue dereference out of their per-candidate checks.
    pub fn read_hazards(&self) -> &[(u64, u64)] {
        &self.read_lpn_index
    }

    /// The counting filter over [`DeviceQueue::read_hazards`]: per-bucket
    /// entry counts keyed by [`read_filter_bucket`].  A zero bucket proves no
    /// uncommitted read of any LPN hashing there exists, so hot loops skip
    /// the hazard binary search entirely for such writes.
    pub fn read_hazard_filter(&self) -> &[u32] {
        &self.read_lpn_filter
    }

    /// The columnar candidate view for one scheduling round: active chips,
    /// CSR-style per-chip row ranges, and the seq/pri/lpn/slot columns.
    pub fn candidate_view(&self) -> CandidateView<'_> {
        self.cand.view()
    }

    /// Slot column: admission sequence per slot handle.
    pub fn slot_seqs(&self) -> &[u64] {
        &self.slot_seq
    }

    /// Slot column: raw tag id per slot handle.
    pub fn slot_tags(&self) -> &[u64] {
        &self.slot_tag
    }

    /// Slot column: flag bits ([`SLOT_WRITE`]) per slot handle.
    pub fn slot_flag_bits(&self) -> &[u8] {
        &self.slot_flags
    }

    /// Chips with at least one uncommitted candidate page, in ascending chip
    /// order.  Iterating this instead of every chip keeps resource-driven
    /// scheduling rounds proportional to queued work, not to the chip population.
    pub fn candidate_chips(&self) -> impl Iterator<Item = usize> + '_ {
        self.cand.active_chips().iter().map(|&chip| chip as usize)
    }

    /// The uncommitted candidate pages targeting one chip, in arrival order
    /// (admission seq, then page offset).  The final element is the tag's slot
    /// handle for [`DeviceQueue::state_at`].
    pub fn chip_candidates(
        &self,
        chip: usize,
    ) -> impl Iterator<Item = (u64, u32, TagId, usize)> + '_ {
        let view = self.cand.view();
        self.cand.chip_range(chip).map(move |row| {
            let slot = view.slot[row] as usize;
            (
                view.seq[row],
                pri_page(view.pri[row]),
                TagId(self.slot_tag[slot]),
                slot,
            )
        })
    }

    /// Resolves a slot handle from the candidate index to the tag state it
    /// indexes, without a tag-id lookup.
    pub fn state_at(&self, slot: usize) -> Option<&TagState> {
        self.slots.get(slot)?.state.as_ref()
    }

    // ------------------------------------------------------------------
    // Storage introspection (regression tests for bounded memory)
    // ------------------------------------------------------------------

    /// Number of storage slots ever allocated.  Bounded by the queue capacity, no
    /// matter how many I/Os have been served.
    pub fn allocated_slots(&self) -> usize {
        self.slots.len()
    }

    /// Total live entries across the chip, read-LPN, and FUA indices.  Bounded
    /// by the number of queued uncommitted pages.
    pub fn index_entries(&self) -> usize {
        self.cand.len() + self.read_lpn_index.len() + self.fua_pending.len()
    }

    /// Debug-build invariant checker: cross-validates the incremental columnar
    /// candidate index (and the slot columns) against a from-scratch rebuild
    /// from the queued tag states.  Compiled to a no-op in release builds; the
    /// differential property tests call it after every scheduling round.
    pub fn validate_candidate_index(&self) {
        #[cfg(debug_assertions)]
        {
            let mut expected: Vec<(usize, u64, u32, u64, u32)> = Vec::new();
            let mut expected_uncommitted = 0usize;
            for (slot, entry) in self.slots.iter().enumerate() {
                let Some(state) = entry.state.as_ref() else {
                    continue;
                };
                debug_assert_eq!(self.slot_seq[slot], state.seq, "stale slot seq column");
                debug_assert_eq!(self.slot_tag[slot], state.id.0, "stale slot tag column");
                debug_assert_eq!(
                    self.slot_flags[slot] & SLOT_WRITE != 0,
                    state.host.direction.is_write(),
                    "stale slot flag column"
                );
                debug_assert_eq!(self.tag_map.get(state.id.0), Some(slot as u32));
                for page in state.uncommitted_pages() {
                    let p = state.placements[page as usize];
                    expected.push((
                        p.chip,
                        state.seq,
                        pack_pri(page, p.die, p.plane),
                        state.host.lpn_at(page).value(),
                        slot as u32,
                    ));
                    expected_uncommitted += 1;
                }
            }
            expected.sort_unstable();
            debug_assert_eq!(expected_uncommitted, self.uncommitted_total);
            debug_assert_eq!(expected.len(), self.cand.len());

            let view = self.cand.view();
            let mut actual: Vec<(usize, u64, u32, u64, u32)> = Vec::new();
            let mut previous_chip = None;
            for &chip in view.active {
                debug_assert!(previous_chip < Some(chip), "active chips not sorted");
                previous_chip = Some(chip);
                let range = view.range(chip as usize);
                debug_assert!(!range.is_empty(), "active chip without rows");
                let mut previous_row = None;
                for row in range {
                    let key = (view.seq[row], view.pri[row]);
                    debug_assert!(previous_row < Some(key), "chip rows not sorted");
                    previous_row = Some(key);
                    actual.push((
                        chip as usize,
                        view.seq[row],
                        view.pri[row],
                        view.lpn[row],
                        view.slot[row],
                    ));
                }
            }
            actual.sort_unstable();
            debug_assert_eq!(
                expected, actual,
                "columnar candidate index diverged from a from-scratch rebuild"
            );

            // The read-LPN counting filter must agree with the hazard index it
            // summarizes, bucket for bucket.
            let mut expected_filter = vec![0u32; READ_FILTER_BUCKETS];
            for &(lpn, _) in &self.read_lpn_index {
                expected_filter[read_filter_bucket(lpn)] += 1;
            }
            debug_assert_eq!(
                expected_filter, self.read_lpn_filter,
                "read-LPN counting filter diverged from the hazard index"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Direction;
    use sprinkler_flash::Lpn;

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

    fn placements(n: usize) -> Vec<Placement> {
        (0..n)
            .map(|i| Placement {
                chip: i,
                channel: 0,
                way: i as u32,
                die: 0,
                plane: 0,
            })
            .collect()
    }

    #[test]
    fn admit_and_retire_roundtrip() {
        let mut q = DeviceQueue::new(4);
        assert!(q.admit(TagId(0), host(0, 2), SimTime::ZERO, placements(2)));
        assert!(q.admit(TagId(1), host(1, 3), SimTime::from_nanos(5), placements(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert!(!q.is_full());
        assert_eq!(
            q.tags_in_order().collect::<Vec<_>>(),
            vec![TagId(0), TagId(1)]
        );
        q.validate_candidate_index();
        let retired = q.retire(TagId(0)).unwrap();
        assert_eq!(retired.host.id, 0);
        assert_eq!(q.len(), 1);
        assert!(q.tag(TagId(0)).is_none());
        assert!(q.retire(TagId(0)).is_none());
        q.validate_candidate_index();
    }

    #[test]
    fn capacity_is_reported_and_enforced() {
        let mut q = DeviceQueue::new(2);
        assert!(q.admit(TagId(0), host(0, 1), SimTime::ZERO, placements(1)));
        assert!(!q.is_full());
        assert!(q.admit(TagId(1), host(1, 1), SimTime::ZERO, placements(1)));
        assert!(q.is_full());
        assert_eq!(q.capacity(), 2);
        // Over-capacity admission is rejected, not silently allowed.
        assert!(!q.admit(TagId(2), host(2, 1), SimTime::ZERO, placements(1)));
        assert_eq!(q.len(), 2);
        assert!(q.tag(TagId(2)).is_none());
        // Retiring frees the slot for a new admission.
        q.retire(TagId(0)).unwrap();
        assert!(q.admit(TagId(2), host(2, 1), SimTime::ZERO, placements(1)));
        assert_eq!(
            q.tags_in_order().collect::<Vec<_>>(),
            vec![TagId(1), TagId(2)]
        );
    }

    #[test]
    fn tag_commit_and_complete_bitmaps() {
        let mut q = DeviceQueue::new(4);
        assert!(q.admit(TagId(7), host(7, 3), SimTime::from_nanos(10), placements(3)));
        assert_eq!(q.tag(TagId(7)).unwrap().uncommitted_count(), 3);
        assert_eq!(
            q.tag(TagId(7))
                .unwrap()
                .uncommitted_pages()
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(q.commit_page(TagId(7), 1, SimTime::from_nanos(20)));
        assert!(!q.commit_page(TagId(7), 1, SimTime::from_nanos(30)));
        let tag = q.tag(TagId(7)).unwrap();
        assert_eq!(tag.first_commit_at, Some(SimTime::from_nanos(20)));
        assert_eq!(tag.uncommitted_pages().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!tag.fully_committed());
        assert!(q.commit_page(TagId(7), 0, SimTime::from_nanos(40)));
        assert!(q.commit_page(TagId(7), 2, SimTime::from_nanos(40)));
        assert!(q.tag(TagId(7)).unwrap().fully_committed());
        assert!(!q.tag(TagId(7)).unwrap().fully_completed());
        assert!(q.complete_page(TagId(7), 0));
        assert!(q.complete_page(TagId(7), 1));
        assert!(
            !q.complete_page(TagId(7), 1),
            "double completion is rejected"
        );
        assert!(q.complete_page(TagId(7), 2));
        assert!(q.tag(TagId(7)).unwrap().fully_completed());
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
        assert!(q.admit(TagId(0), host(0, 2), SimTime::ZERO, placements(2)));
        assert!(q.admit(TagId(1), host(1, 5), SimTime::ZERO, placements(5)));
        assert_eq!(q.total_uncommitted_pages(), 7);
        assert!(q.commit_page(TagId(1), 0, SimTime::ZERO));
        assert_eq!(q.total_uncommitted_pages(), 6);
        q.retire(TagId(0)).unwrap();
        assert_eq!(q.total_uncommitted_pages(), 4);
    }

    #[test]
    fn empty_placements_are_padded() {
        let mut q = DeviceQueue::new(2);
        assert!(q.admit(TagId(0), host(0, 3), SimTime::ZERO, Vec::new()));
        assert_eq!(q.tag(TagId(0)).unwrap().placements.len(), 3);
    }

    #[test]
    fn tag_state_page_count() {
        let state = TagState::new(TagId(1), host(1, 4), SimTime::ZERO, placements(4));
        assert_eq!(state.pages(), 4);
        assert_eq!(state.seq, 0);
    }

    #[test]
    fn admission_seqs_increase_with_arrival_order() {
        let mut q = DeviceQueue::new(4);
        assert!(q.admit(TagId(9), host(9, 1), SimTime::ZERO, placements(1)));
        assert!(q.admit(TagId(3), host(3, 1), SimTime::ZERO, placements(1)));
        let (a, b) = (q.seq_of(TagId(9)).unwrap(), q.seq_of(TagId(3)).unwrap());
        assert!(a < b, "arrival order must be reflected in seqs");
        q.retire(TagId(9)).unwrap();
        assert!(q.admit(TagId(9), host(9, 1), SimTime::ZERO, placements(1)));
        assert!(q.seq_of(TagId(9)).unwrap() > b, "seqs never repeat");
    }

    #[test]
    fn tag_map_ring_handles_colliding_ids() {
        let mut q = DeviceQueue::new(4);
        // Ids 1 and 5 collide modulo the ring size (4): both must stay live.
        assert!(q.admit(TagId(1), host(1, 1), SimTime::ZERO, placements(1)));
        assert!(q.admit(TagId(5), host(5, 1), SimTime::ZERO, placements(1)));
        assert!(q.admit(TagId(9), host(9, 1), SimTime::ZERO, placements(1)));
        assert_eq!(q.tag(TagId(1)).unwrap().host.id, 1);
        assert_eq!(q.tag(TagId(5)).unwrap().host.id, 5);
        assert_eq!(q.tag(TagId(9)).unwrap().host.id, 9);
        // Removing the ring occupant promotes a collider; both survive lookup.
        q.retire(TagId(1)).unwrap();
        assert!(q.tag(TagId(1)).is_none());
        assert_eq!(q.tag(TagId(5)).unwrap().host.id, 5);
        assert_eq!(q.tag(TagId(9)).unwrap().host.id, 9);
        q.retire(TagId(9)).unwrap();
        assert_eq!(q.tag(TagId(5)).unwrap().host.id, 5);
        assert_eq!(q.slot_of(TagId(5)), q.slot_of(TagId(5)));
        q.validate_candidate_index();
    }

    #[test]
    fn chip_index_tracks_uncommitted_pages() {
        let mut q = DeviceQueue::new(4);
        assert!(q.admit(TagId(0), host(0, 2), SimTime::ZERO, placements(2)));
        assert!(q.admit(TagId(1), host(1, 2), SimTime::ZERO, placements(2)));
        assert_eq!(q.candidate_chips().collect::<Vec<_>>(), vec![0, 1]);
        // Chip 0 holds page 0 of both tags, in arrival order.
        let chip0: Vec<(u32, TagId)> = q
            .chip_candidates(0)
            .map(|(_, page, tag, _)| (page, tag))
            .collect();
        assert_eq!(chip0, vec![(0, TagId(0)), (0, TagId(1))]);
        assert!(q.commit_page(TagId(0), 0, SimTime::ZERO));
        let chip0: Vec<TagId> = q.chip_candidates(0).map(|(_, _, tag, _)| tag).collect();
        assert_eq!(chip0, vec![TagId(1)]);
        q.retire(TagId(1)).unwrap();
        assert_eq!(q.candidate_chips().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn chip_index_follows_placement_refreshes() {
        let mut q = DeviceQueue::new(4);
        assert!(q.admit(TagId(0), read_host(0, 500, 1), SimTime::ZERO, placements(1)));
        let moved = Placement {
            chip: 3,
            channel: 1,
            way: 1,
            die: 0,
            plane: 1,
        };
        q.refresh_placements(500, moved);
        assert_eq!(q.candidate_chips().collect::<Vec<_>>(), vec![3]);
        assert_eq!(q.tag(TagId(0)).unwrap().placements[0], moved);
        q.validate_candidate_index();
        // A same-chip die/plane move rewrites the row's priority key too.
        let rotated = Placement {
            chip: 3,
            channel: 1,
            way: 1,
            die: 1,
            plane: 0,
        };
        q.refresh_placements(500, rotated);
        assert_eq!(q.tag(TagId(0)).unwrap().placements[0], rotated);
        q.validate_candidate_index();
        // Committed pages are not rewritten.
        assert!(q.commit_page(TagId(0), 0, SimTime::ZERO));
        let back = Placement {
            chip: 0,
            channel: 0,
            way: 0,
            die: 0,
            plane: 0,
        };
        q.refresh_placements(500, back);
        assert_eq!(q.tag(TagId(0)).unwrap().placements[0], rotated);
    }

    #[test]
    fn read_lpn_index_answers_hazard_queries() {
        let mut q = DeviceQueue::new(4);
        assert!(q.admit(TagId(0), read_host(0, 100, 4), SimTime::ZERO, placements(4)));
        let writer_seq = q.seq_of(TagId(0)).unwrap() + 1;
        assert!(q.has_blocking_read(102, writer_seq));
        assert!(!q.has_blocking_read(104, writer_seq));
        // Reads at or after the writer's seq do not block it.
        assert!(!q.has_blocking_read(102, q.seq_of(TagId(0)).unwrap()));
        assert!(q.commit_page(TagId(0), 2, SimTime::ZERO));
        assert!(!q.has_blocking_read(102, writer_seq));
        assert!(q.has_blocking_read(101, writer_seq));
        q.retire(TagId(0)).unwrap();
        assert!(!q.has_blocking_read(101, writer_seq));
    }

    #[test]
    fn fua_horizon_is_constant_time_and_tracks_commitment() {
        let mut q = DeviceQueue::new(4);
        assert_eq!(q.horizon_seq(), u64::MAX);
        assert!(q.admit(TagId(0), read_host(0, 0, 1), SimTime::ZERO, placements(1)));
        let fua = host(1, 2).with_fua(true);
        assert!(q.admit(TagId(1), fua, SimTime::ZERO, placements(2)));
        assert!(q.admit(TagId(2), read_host(2, 50, 1), SimTime::ZERO, placements(1)));
        assert_eq!(q.horizon_seq(), q.seq_of(TagId(1)).unwrap());
        assert!(q.commit_page(TagId(1), 0, SimTime::ZERO));
        assert_eq!(q.horizon_seq(), q.seq_of(TagId(1)).unwrap());
        assert!(q.commit_page(TagId(1), 1, SimTime::ZERO));
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
        let mut next_retire = 0u64;
        while next_retire < IOS {
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
                assert!(q.admit(TagId(next_admit), h, SimTime::ZERO, placements(3)));
                next_admit += 1;
            }
            // Retire the oldest tag after committing and completing its pages.
            let oldest = TagId(next_retire);
            for page in 0..3 {
                assert!(q.commit_page(oldest, page, SimTime::ZERO));
                assert!(q.complete_page(oldest, page));
            }
            assert!(q.retire(oldest).is_some());
            next_retire += 1;

            assert!(
                q.allocated_slots() <= DEPTH,
                "slot storage grew past the queue depth: {}",
                q.allocated_slots()
            );
            assert!(
                q.index_entries() <= DEPTH * 3 + DEPTH,
                "index storage grew past the queued work: {}",
                q.index_entries()
            );
        }
        assert!(q.is_empty());
        assert_eq!(q.total_uncommitted_pages(), 0);
        assert_eq!(q.index_entries(), 0);
        assert!(q.allocated_slots() <= DEPTH);
        q.validate_candidate_index();
    }

    #[test]
    fn admit_with_fills_placements_and_recycles_storage() {
        let mut q = DeviceQueue::new(2);
        assert!(q.admit_with(TagId(0), host(0, 3), SimTime::ZERO, |page| {
            Placement {
                chip: page as usize,
                channel: 0,
                way: page,
                die: 0,
                plane: 0,
            }
        }));
        assert_eq!(q.tag(TagId(0)).unwrap().placements.len(), 3);
        assert_eq!(q.tag(TagId(0)).unwrap().placements[2].chip, 2);
        assert_eq!(q.candidate_chips().collect::<Vec<_>>(), vec![0, 1, 2]);

        let retired = q.retire(TagId(0)).unwrap();
        q.recycle(retired);
        // A recycled state's buffers are reused and fully reset.
        assert!(
            q.admit_with(TagId(1), read_host(1, 10, 2), SimTime::ZERO, |_| {
                Placement {
                    chip: 5,
                    channel: 0,
                    way: 0,
                    die: 0,
                    plane: 0,
                }
            })
        );
        let tag = q.tag(TagId(1)).unwrap();
        assert_eq!(tag.id, TagId(1));
        assert_eq!(tag.pages(), 2);
        assert_eq!(tag.placements.len(), 2);
        assert_eq!(tag.uncommitted_count(), 2);
        assert_eq!(tag.first_commit_at, None);
        assert_eq!(q.candidate_chips().collect::<Vec<_>>(), vec![5]);

        // The pool is bounded by the queue capacity.
        for i in 0..10u64 {
            q.recycle(TagState::new(
                TagId(100 + i),
                host(100 + i, 1),
                SimTime::ZERO,
                placements(1),
            ));
        }
        assert!(q.spare_states.len() <= q.capacity());
    }

    #[test]
    fn iter_states_matches_arrival_order_after_interior_retire() {
        let mut q = DeviceQueue::new(4);
        for id in 0..4u64 {
            assert!(q.admit(TagId(id), host(id, 1), SimTime::ZERO, placements(1)));
        }
        q.retire(TagId(1)).unwrap();
        q.retire(TagId(2)).unwrap();
        assert!(q.admit(TagId(4), host(4, 1), SimTime::ZERO, placements(1)));
        assert_eq!(
            q.tags_in_order().collect::<Vec<_>>(),
            vec![TagId(0), TagId(3), TagId(4)]
        );
        let seqs: Vec<u64> = q.iter_states().map(|s| s.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }
}
