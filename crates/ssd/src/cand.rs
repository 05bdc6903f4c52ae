//! The index of uncommitted pages: one row per page, on per-chip lists.
//!
//! `CandidateIndex` holds every uncommitted page of every queued tag as one
//! [`Row`] of a single arena: admission sequence, logical page number, packed
//! priority key, queue slot (which is the tag), chip, and whether the page
//! belongs to a read.  The schedulers ask two questions of that one set:
//!
//! * RIOS (§4.1) walks a chip's uncommitted pages in arrival order.  Each
//!   chip's rows form a doubly linked list sorted by `(seq, pri)`.  Because
//!   the priority key packs the page offset into its high bits (see
//!   [`pack_pri`]), that is exactly the `(seq, page)` arrival order the
//!   schedulers require, and the die/plane coordinates ride along for free —
//!   a FARO candidate is built without touching the tag's placement vector.
//! * The §4.4 write-after-read check asks whether an older queued read still
//!   has an uncommitted page at an LPN.  Each read row is also chained from
//!   its LPN's bucket of a 512-bucket Fibonacci hash, so the check walks one
//!   short chain instead of scanning the queue.
//!
//! # Maintenance
//!
//! `CandidateIndex::insert` returns the new row's handle, which the queue
//! keeps per page of the tag, so commit, retire and GC readdressing unlink or
//! move a row by its handle, with no search and no shift.  Admission seqs
//! only grow, so admitting a tag appends each row at its chip's tail; only
//! `CandidateIndex::relocate` (GC readdressing, §4.3) walks back from the
//! tail, to put an old seq on another chip.  A removed row joins an intrusive
//! free list that the next insert takes from, so the arena grows only at its
//! high-water mark and index maintenance allocates nothing at steady state.
//!
//! The index also keeps the *change log* ([`CandidateView::changed`]): the
//! chips that can take work they could not take at the last round.  Linking
//! a row onto a chip's list, by admission or by GC relocation, lists the
//! chip, and so does `DeviceQueue::complete_page` for the chip of the page
//! it completes, whose ledger charge the substrate retires with it.  Each
//! chip is listed once: it carries the epoch it was last listed in, so
//! clearing the log is one increment.  A resource-driven scheduling round
//! so revisits only the chips that gained a row or headroom.  The log is
//! sized with the chip lists and so never holds more entries than there are
//! chips.  The SSD substrate clears it (`DeviceQueue::clear_changed`) right
//! after each round has read it, before it applies the round's commitments;
//! committing or retiring a row never lists its chip, since losing a row
//! gains a chip nothing.

use crate::request::TagId;

/// The most dies per chip a priority key can tell apart (its 6-bit die
/// field); `SsdConfig::validate` refuses larger geometries.
pub(crate) const MAX_DIES_PER_CHIP: usize = 1 << 6;

/// The most planes per die a priority key can tell apart (its 6-bit plane
/// field); `SsdConfig::validate` refuses larger geometries.
pub(crate) const MAX_PLANES_PER_DIE: usize = 1 << 6;

/// The most pages one host request may span: a priority key numbers a
/// request's pages in its 20-bit page field.  `Ssd` refuses longer requests
/// at ingestion.
pub(crate) const MAX_REQUEST_PAGES: u32 = 1 << 20;

/// Packs a candidate's page offset and die/plane coordinates into one sortable
/// priority key: `page << 12 | die << 6 | plane`.  Within a tag every page is
/// unique, so ordering rows by `(seq, pri)` equals ordering by `(seq, page)`.
#[inline]
pub fn pack_pri(page: u32, die: u32, plane: u32) -> u32 {
    debug_assert!(
        page < MAX_REQUEST_PAGES,
        "page offset {page} overflows the key"
    );
    debug_assert!(
        (die as usize) < MAX_DIES_PER_CHIP,
        "die {die} overflows the key"
    );
    debug_assert!(
        (plane as usize) < MAX_PLANES_PER_DIE,
        "plane {plane} overflows the key"
    );
    page << 12 | die << 6 | plane
}

/// The page offset packed into a priority key.
#[inline]
pub fn pri_page(pri: u32) -> u32 {
    pri >> 12
}

/// The die coordinate packed into a priority key.
#[inline]
pub fn pri_die(pri: u32) -> u32 {
    (pri >> 6) & 0x3f
}

/// The plane coordinate packed into a priority key.
#[inline]
pub fn pri_plane(pri: u32) -> u32 {
    pri & 0x3f
}

/// End of a chip list, a hazard chain or the free list.
const NIL: u32 = u32::MAX;

/// Buckets of the read-LPN hazard chains.  Must stay a power of two: the
/// bucket hash takes the top `log2(HAZARD_BUCKETS)` bits.
const HAZARD_BUCKETS: usize = 512;

/// The hazard bucket of a logical page number.  Fibonacci hashing spreads the
/// sequential LPN ranges real workloads produce across the whole bucket space
/// before the top bits are taken.
#[inline]
pub(crate) fn hazard_bucket(lpn: u64) -> usize {
    const _: () = assert!(HAZARD_BUCKETS == 1 << 9);
    (lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - 9)) as usize
}

/// One uncommitted page of a queued tag.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Admission sequence number of the page's tag.
    pub seq: u64,
    /// Logical page number (for the write-after-read hazard check).
    pub lpn: u64,
    /// Packed priority key (see [`pack_pri`]).
    pub pri: u32,
    /// The queue slot the page's request occupies, which is its tag.
    pub(crate) slot: u32,
    /// The chip whose list holds the row.
    pub(crate) chip: u32,
    /// Previous row on the chip's list (`NIL` at its head).
    prev: u32,
    /// Next row on the chip's list (`NIL` at its tail), or on the free list
    /// once the row is freed.
    next: u32,
    /// Next row on the LPN bucket's hazard chain (`NIL` at its end).
    hazard_next: u32,
    /// Whether the page belongs to a read.
    pub read: bool,
}

impl Row {
    /// The row's tag: the queue slot its request occupies.
    #[inline]
    pub fn tag(&self) -> TagId {
        TagId(u64::from(self.slot))
    }

    /// The row's page offset within its request.
    #[inline]
    pub fn page(&self) -> u32 {
        pri_page(self.pri)
    }
}

/// One chip's list of rows.
#[derive(Debug, Clone, Copy)]
struct ChipList {
    head: u32,
    tail: u32,
    len: u32,
}

impl ChipList {
    const EMPTY: ChipList = ChipList {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// Borrowed view of the index for one scheduling round.  `Copy`, so hot loops
/// can hold it beside other borrows of the queue.
#[derive(Debug, Clone, Copy)]
pub struct CandidateView<'a> {
    /// Chips that gained a row or completed a committed page since the
    /// change log was last cleared, each once, in first-change order; a
    /// listed chip may have lost its rows or headroom since.
    pub changed: &'a [u32],
    /// The row arena, indexed by row handle; freed rows included.
    pub(crate) rows: &'a [Row],
    chips: &'a [ChipList],
}

impl<'a> CandidateView<'a> {
    /// Rows on `chip` (0 for chips without work).
    #[inline]
    pub fn len(&self, chip: usize) -> usize {
        self.chips.get(chip).map_or(0, |list| list.len as usize)
    }

    /// The oldest row on `chip`, or `None` for chips without work.
    #[inline]
    pub fn head(&self, chip: usize) -> Option<&'a Row> {
        self.rows.get(self.chips.get(chip)?.head as usize)
    }

    /// `chip`'s rows in `(seq, pri)` order.
    #[inline]
    pub fn rows_of(&self, chip: usize) -> ChipRows<'a> {
        ChipRows {
            rows: self.rows,
            cursor: self.chips.get(chip).map_or(NIL, |list| list.head),
        }
    }
}

/// Iterator over one chip's rows in `(seq, pri)` order.
#[derive(Debug, Clone)]
pub struct ChipRows<'a> {
    rows: &'a [Row],
    cursor: u32,
}

impl<'a> Iterator for ChipRows<'a> {
    type Item = &'a Row;

    #[inline]
    fn next(&mut self) -> Option<&'a Row> {
        let row = self.rows.get(self.cursor as usize)?;
        self.cursor = row.next;
        Some(row)
    }
}

/// The row arena with its per-chip lists and read-LPN hazard chains.
#[derive(Debug, Clone)]
pub(crate) struct CandidateIndex {
    /// Live rows and freed ones.
    rows: Vec<Row>,
    /// First freed row (`NIL` when none).
    free: u32,
    /// Per-chip lists; grows to the highest chip seen.
    chips: Vec<ChipList>,
    /// Chips listed since the last `clear_changed`, each once.
    changed: Vec<u32>,
    /// Per chip: the epoch it was last listed in; it is in `changed` while
    /// that is the current `epoch`.
    stamps: Vec<u64>,
    /// The change log's epoch, moved on by every `clear_changed`.
    epoch: u64,
    /// First row of each hazard bucket's chain (`NIL` when empty).
    hazard_heads: Vec<u32>,
}

impl Default for CandidateIndex {
    fn default() -> Self {
        CandidateIndex {
            rows: Vec::new(),
            free: NIL,
            chips: Vec::new(),
            changed: Vec::new(),
            stamps: Vec::new(),
            // Above every chip's initial stamp of 0, so no chip is listed.
            epoch: 1,
            hazard_heads: vec![NIL; HAZARD_BUCKETS],
        }
    }
}

impl CandidateIndex {
    /// Borrowed view for a scheduling round.
    pub(crate) fn view(&self) -> CandidateView<'_> {
        CandidateView {
            changed: &self.changed,
            rows: &self.rows,
            chips: &self.chips,
        }
    }

    /// Adds one uncommitted page as a row on `chip`'s list, in `(seq, pri)`
    /// order, chained from its LPN's hazard bucket when it is a read page.
    /// Returns the row's handle.  `(seq, pri)` must be unique per chip.
    // lint: hot-path
    pub(crate) fn insert(
        &mut self,
        chip: usize,
        seq: u64,
        pri: u32,
        lpn: u64,
        slot: u32,
        read: bool,
    ) -> u32 {
        let row = Row {
            seq,
            lpn,
            pri,
            slot,
            chip: chip as u32,
            prev: NIL,
            next: NIL,
            hazard_next: NIL,
            read,
        };
        let handle = if self.free == NIL {
            self.rows.push(row);
            (self.rows.len() - 1) as u32
        } else {
            let handle = self.free;
            self.free = self.rows[handle as usize].next;
            self.rows[handle as usize] = row;
            handle
        };
        self.link(handle);
        if read {
            let bucket = hazard_bucket(lpn);
            self.rows[handle as usize].hazard_next = self.hazard_heads[bucket];
            self.hazard_heads[bucket] = handle;
        }
        handle
    }

    /// Unlinks row `handle` from its chip's list and hazard chain and frees
    /// it.
    // lint: hot-path
    pub(crate) fn remove(&mut self, handle: u32) {
        self.unlink(handle);
        let row = self.rows[handle as usize];
        if row.read {
            let bucket = hazard_bucket(row.lpn);
            if self.hazard_heads[bucket] == handle {
                self.hazard_heads[bucket] = row.hazard_next;
            } else {
                let mut cursor = self.hazard_heads[bucket];
                while cursor != NIL && self.rows[cursor as usize].hazard_next != handle {
                    cursor = self.rows[cursor as usize].hazard_next;
                }
                debug_assert!(cursor != NIL, "row {handle} is not on its hazard chain");
                if let Some(before) = self.rows.get_mut(cursor as usize) {
                    before.hazard_next = row.hazard_next;
                }
            }
        }
        self.rows[handle as usize].next = self.free;
        self.free = handle;
    }

    /// Moves row `handle` to `chip` with priority key `pri` (GC readdressing,
    /// §4.3).  The key's page offset is unchanged, so a row that stays on its
    /// chip keeps its place on the list.
    pub(crate) fn relocate(&mut self, handle: u32, chip: usize, pri: u32) {
        self.rows[handle as usize].pri = pri;
        if self.rows[handle as usize].chip as usize != chip {
            self.unlink(handle);
            self.rows[handle as usize].chip = chip as u32;
            self.link(handle);
        }
    }

    /// Lists `chip` in the change log, once until the log is cleared.  The
    /// chip must have had a row: `link` sizes the log with the chip lists.
    // lint: hot-path
    pub(crate) fn note(&mut self, chip: usize) {
        if self.stamps[chip] != self.epoch {
            self.stamps[chip] = self.epoch;
            self.changed.push(chip as u32);
        }
    }

    /// Empties the change log: the next epoch unlists every chip at once.
    // lint: hot-path
    pub(crate) fn clear_changed(&mut self) {
        self.epoch += 1;
        self.changed.clear();
    }

    /// Whether a read row of `lpn` has a seq below `seq`.
    // lint: hot-path
    #[inline]
    pub(crate) fn blocks(&self, lpn: u64, seq: u64) -> bool {
        let mut cursor = self.hazard_heads[hazard_bucket(lpn)];
        while let Some(row) = self.rows.get(cursor as usize) {
            if row.lpn == lpn && row.seq < seq {
                return true;
            }
            cursor = row.hazard_next;
        }
        false
    }

    /// Links row `handle` into its chip's list at its `(seq, pri)` place,
    /// walking back from the tail, and lists the chip in the change log.
    fn link(&mut self, handle: u32) {
        let Row { seq, pri, chip, .. } = self.rows[handle as usize];
        let chip = chip as usize;
        if chip >= self.chips.len() {
            self.chips.resize(chip + 1, ChipList::EMPTY);
            self.stamps.resize(chip + 1, 0);
            // The change log never holds more chips than there are lists.
            self.changed.reserve(self.chips.len() - self.changed.len());
        }
        self.note(chip);
        let Self { rows, chips, .. } = self;
        let list = &mut chips[chip];
        let mut after = list.tail;
        while after != NIL && (rows[after as usize].seq, rows[after as usize].pri) > (seq, pri) {
            after = rows[after as usize].prev;
        }
        let before = match rows.get(after as usize) {
            Some(row) => row.next,
            None => list.head,
        };
        rows[handle as usize].prev = after;
        rows[handle as usize].next = before;
        match rows.get_mut(after as usize) {
            Some(row) => row.next = handle,
            None => list.head = handle,
        }
        match rows.get_mut(before as usize) {
            Some(row) => row.prev = handle,
            None => list.tail = handle,
        }
        list.len += 1;
    }

    /// Unlinks row `handle` from its chip's list.
    fn unlink(&mut self, handle: u32) {
        let Self { rows, chips, .. } = self;
        let Row {
            prev, next, chip, ..
        } = rows[handle as usize];
        let list = &mut chips[chip as usize];
        match rows.get_mut(prev as usize) {
            Some(row) => row.next = next,
            None => list.head = next,
        }
        match rows.get_mut(next as usize) {
            Some(row) => row.prev = prev,
            None => list.tail = prev,
        }
        list.len -= 1;
    }

    /// Debug-build audit of the links: every chip list runs head to tail in
    /// strictly increasing `(seq, pri)` with matching back links, length and
    /// tail; the change log lists exactly the chips stamped with the current
    /// epoch; the hazard chains hold exactly the listed read rows, each in
    /// its LPN's bucket; and every row is either listed or free.  Returns the
    /// listed rows' handles, ascending.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn audit(&self) -> Vec<u32> {
        let arena = self.rows.len();
        let mut listed: Vec<u32> = Vec::new();
        for (chip, list) in self.chips.iter().enumerate() {
            let (mut prev, mut cursor, mut len) = (NIL, list.head, 0u32);
            while cursor != NIL && len <= list.len {
                let row = &self.rows[cursor as usize];
                debug_assert_eq!(row.chip as usize, chip, "row on another chip's list");
                debug_assert_eq!(row.prev, prev, "chip list back link diverged");
                if let Some(last) = self.rows.get(prev as usize) {
                    debug_assert!(
                        (last.seq, last.pri) < (row.seq, row.pri),
                        "chip rows not sorted"
                    );
                }
                listed.push(cursor);
                (prev, cursor, len) = (cursor, row.next, len + 1);
            }
            debug_assert_eq!(
                (len, prev),
                (list.len, list.tail),
                "chip list length or tail"
            );
        }
        let stamped = self.stamps.iter().filter(|&&stamp| stamp == self.epoch);
        let logged = |&chip: &u32| self.stamps[chip as usize] == self.epoch;
        debug_assert!(
            stamped.count() == self.changed.len() && self.changed.iter().all(logged),
            "the change log diverged from its stamps"
        );
        listed.sort_unstable();
        debug_assert!(listed.windows(2).all(|w| w[0] < w[1]), "row listed twice");

        let mut chained: Vec<u32> = Vec::new();
        for (bucket, &head) in self.hazard_heads.iter().enumerate() {
            let mut cursor = head;
            while cursor != NIL && chained.len() <= arena {
                let row = &self.rows[cursor as usize];
                debug_assert!(row.read, "a write row on a hazard chain");
                debug_assert_eq!(hazard_bucket(row.lpn), bucket, "row in the wrong bucket");
                chained.push(cursor);
                cursor = row.hazard_next;
            }
        }
        chained.sort_unstable();
        let reads: Vec<u32> = listed
            .iter()
            .copied()
            .filter(|&handle| self.rows[handle as usize].read)
            .collect();
        debug_assert_eq!(chained, reads, "hazard chains diverged from the read rows");

        let (mut free, mut cursor) = (0usize, self.free);
        while cursor != NIL && free <= arena {
            free += 1;
            cursor = self.rows[cursor as usize].next;
        }
        debug_assert_eq!(listed.len() + free, arena, "rows neither listed nor free");
        listed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(index: &CandidateIndex, chip: usize) -> Vec<(u64, u32, u64, u32)> {
        let view = index.view();
        assert_eq!(view.rows_of(chip).count(), view.len(chip));
        view.rows_of(chip)
            .map(|row| (row.seq, row.pri, row.lpn, row.slot))
            .collect()
    }

    #[test]
    fn pri_key_round_trips_and_orders_by_page() {
        let key = pack_pri(513, 1, 3);
        assert_eq!(pri_page(key), 513);
        assert_eq!(pri_die(key), 1);
        assert_eq!(pri_plane(key), 3);
        // Page dominates: die/plane never reorder two pages of the same tag.
        assert!(pack_pri(2, 0, 0) > pack_pri(1, 63, 63));
    }

    #[test]
    fn rows_stay_sorted_within_a_chip() {
        let mut index = CandidateIndex::default();
        index.insert(3, 10, pack_pri(1, 0, 0), 101, 7, false);
        index.insert(3, 5, pack_pri(0, 1, 2), 50, 2, false);
        index.insert(3, 10, pack_pri(0, 0, 1), 100, 7, false);
        assert_eq!(index.view().changed, &[3]);
        let got = rows(&index, 3);
        assert_eq!(got[0], (5, pack_pri(0, 1, 2), 50, 2));
        assert_eq!(got[1], (10, pack_pri(0, 0, 1), 100, 7));
        assert_eq!(got[2], (10, pack_pri(1, 0, 0), 101, 7));
        assert_eq!(index.view().head(3).map(Row::page), Some(0));
        index.audit();
    }

    #[test]
    fn remove_keeps_active_set_and_live_count_coherent() {
        let mut index = CandidateIndex::default();
        let first = index.insert(0, 1, pack_pri(0, 0, 0), 10, 0, true);
        index.insert(2, 2, pack_pri(0, 0, 0), 20, 1, false);
        assert_eq!((index.view().len(0), index.view().len(2)), (1, 1));
        assert!(index.blocks(10, 2));
        index.remove(first);
        assert_eq!((index.view().len(0), index.view().len(2)), (0, 1));
        assert!(!index.blocks(10, 2));
        assert_eq!(index.audit().len(), 1);
        // The freed row is the next one handed out.
        assert_eq!(index.insert(5, 3, pack_pri(0, 0, 0), 30, 2, true), first);
        assert_eq!(index.audit().len(), 2);
    }

    /// Admission and relocation list the chip that gained a row in the
    /// change log, once per chip until the log is cleared, and a cleared log
    /// lists a chip again; removal lists nothing.
    #[test]
    fn the_wake_log_lists_each_chip_that_gained_a_row_once() {
        let mut index = CandidateIndex::default();
        let moved = index.insert(3, 1, pack_pri(0, 0, 0), 10, 0, true);
        index.insert(1, 2, pack_pri(0, 0, 0), 20, 1, false);
        index.insert(3, 2, pack_pri(1, 0, 0), 21, 1, false);
        assert_eq!(index.view().changed, &[3, 1]);
        index.clear_changed();
        assert!(index.view().changed.is_empty());
        index.remove(moved);
        assert!(index.view().changed.is_empty(), "removal lists nothing");
        let row = index.insert(1, 3, pack_pri(0, 0, 0), 30, 2, false);
        index.relocate(row, 2, pack_pri(0, 1, 0));
        index.relocate(row, 2, pack_pri(0, 0, 1));
        assert_eq!(index.view().changed, &[1, 2]);
        index.audit();
    }

    /// A row moved onto a chip holding younger rows walks back from the tail
    /// to its place; one that stays on its chip only takes the new key.
    #[test]
    fn relocation_walks_back_to_the_rows_place() {
        let mut index = CandidateIndex::default();
        let old = index.insert(0, 1, pack_pri(2, 0, 0), 12, 0, true);
        for seq in [0, 2, 3] {
            index.insert(4, seq, pack_pri(0, 0, 0), seq, seq as u32, false);
        }
        index.relocate(old, 4, pack_pri(2, 1, 1));
        let seqs: Vec<u64> = rows(&index, 4).iter().map(|row| row.0).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        assert_eq!((index.view().len(0), index.view().len(4)), (0, 4));
        index.relocate(old, 4, pack_pri(2, 0, 1));
        assert_eq!(rows(&index, 4)[1], (1, pack_pri(2, 0, 1), 12, 0));
        assert!(index.blocks(12, 2), "the hazard chain keeps the moved row");
        assert_eq!(index.audit().len(), 4);
    }
}
