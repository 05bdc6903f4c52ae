//! Columnar (struct-of-arrays) candidate index for the scheduler hot path.
//!
//! [`CandidateIndex`] stores every uncommitted page of every queued tag as one
//! row in four parallel column arrays — admission sequence, packed priority
//! key, logical page number, and queue slot (which is the tag) — grouped per
//! flash chip into contiguous CSR-style extents of a shared arena.  A
//! scheduling round walks plain `&[u64]`/`&[u32]` slices: no per-chip heap
//! vectors, no `Option` unwrapping, no pointer chase per candidate.
//!
//! # Layout
//!
//! Each chip owns one *extent* `[start, start + cap)` of the arena; the first
//! `len` rows are live and sorted ascending by `(seq, pri)`.  Because the
//! priority key packs the page offset into its high bits (see [`pack_pri`]),
//! `(seq, pri)` order is exactly the `(seq, page)` arrival order the
//! schedulers require, and the die/plane coordinates ride along for free — a
//! FARO candidate is built without touching the tag's placement vector.
//!
//! # Maintenance
//!
//! The index is maintained incrementally at mutation time (admit, commit,
//! retire, readdress), like the per-chip sorted vectors it replaces: a
//! per-round rebuild would be O(total uncommitted pages) and the full-scale
//! 1024-chip workload keeps tens of thousands of pages in flight.  Inserts and
//! removes memmove within one extent; a full extent relocates to the end of
//! the arena with doubled capacity (amortized O(1)); and when dead space
//! exceeds 4× the live rows the arena is compacted into a retained spare
//! buffer, keeping the whole index a few cache-resident kilobytes at steady
//! state.  All buffers retain their capacity across churn, so index
//! maintenance performs no allocations once the high-water mark is reached —
//! the same contract the zero-allocation replay gate enforces on the rest of
//! the queue.

use std::ops::Range;

/// Smallest extent capacity handed to a chip on its first insert.
const MIN_EXTENT_CAP: u32 = 4;

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

/// One chip's contiguous range of the column arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Extent {
    start: u32,
    len: u32,
    cap: u32,
}

/// Borrowed view of the candidate columns for one scheduling round.
///
/// All fields are plain slices over the shared arena; [`CandidateView::range`]
/// gives the contiguous row range owned by a chip.  The view is `Copy`, so hot
/// loops can destructure it into locals without borrow gymnastics.
#[derive(Debug, Clone, Copy)]
pub struct CandidateView<'a> {
    /// Chips with at least one live row, ascending.
    pub active: &'a [u32],
    /// Admission sequence column.
    pub seq: &'a [u64],
    /// Packed priority column (see [`pack_pri`]).
    pub pri: &'a [u32],
    /// Logical page number column (for the write-after-read hazard check).
    pub lpn: &'a [u64],
    /// Queue slot column: the slot the row's request occupies, which is its
    /// tag (`TagId(slot)`).
    pub slot: &'a [u32],
    extents: &'a [Extent],
}

impl CandidateView<'_> {
    /// The arena row range holding `chip`'s live candidates, sorted by
    /// `(seq, pri)`.  Empty for chips without work.
    #[inline]
    pub fn range(&self, chip: usize) -> Range<usize> {
        match self.extents.get(chip) {
            Some(ext) => ext.start as usize..(ext.start + ext.len) as usize,
            None => 0..0,
        }
    }
}

/// The struct-of-arrays per-chip candidate index.
#[derive(Debug, Clone, Default)]
pub struct CandidateIndex {
    col_seq: Vec<u64>,
    col_pri: Vec<u32>,
    col_lpn: Vec<u64>,
    col_slot: Vec<u32>,
    /// Per-chip extents; grows to the highest chip index seen.
    extents: Vec<Extent>,
    /// Sorted chip indices with at least one live row.
    active: Vec<u32>,
    /// Chips whose extent holds arena capacity (`cap > 0`), unordered: the
    /// active chips plus those emptied since the last compaction.  Compaction
    /// resets only these, so it never walks every chip's extent.
    held: Vec<u32>,
    /// Live rows across all extents.
    live: u32,
    /// Compaction spares: the arena is rewritten into these and the buffers
    /// are swapped, so both sets retain their high-water capacity.
    spare_seq: Vec<u64>,
    spare_pri: Vec<u32>,
    spare_lpn: Vec<u64>,
    spare_slot: Vec<u32>,
}

impl CandidateIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live rows (uncommitted candidate pages) across all chips.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// True when no chip has candidates.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Sorted chip indices with at least one live row.
    pub fn active_chips(&self) -> &[u32] {
        &self.active
    }

    /// The live row range of one chip (empty for chips without work).
    pub fn chip_range(&self, chip: usize) -> Range<usize> {
        match self.extents.get(chip) {
            Some(ext) => ext.start as usize..(ext.start + ext.len) as usize,
            None => 0..0,
        }
    }

    /// Borrowed columnar view for a scheduling round.
    pub fn view(&self) -> CandidateView<'_> {
        CandidateView {
            active: &self.active,
            seq: &self.col_seq,
            pri: &self.col_pri,
            lpn: &self.col_lpn,
            slot: &self.col_slot,
            extents: &self.extents,
        }
    }

    /// Binary search for `(seq, pri)` within one extent.  Returns the row
    /// offset relative to the extent start.
    fn search(&self, ext: Extent, seq: u64, pri: u32) -> Result<usize, usize> {
        let start = ext.start as usize;
        let len = ext.len as usize;
        let seqs = &self.col_seq[start..start + len];
        let pris = &self.col_pri[start..start + len];
        let (mut lo, mut hi) = (0usize, len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if (seqs[mid], pris[mid]) < (seq, pri) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < len && seqs[lo] == seq && pris[lo] == pri {
            Ok(lo)
        } else {
            Err(lo)
        }
    }

    /// Inserts one candidate row.  `(seq, pri)` must be unique per chip.
    // lint: hot-path
    pub fn insert(&mut self, chip: usize, seq: u64, pri: u32, lpn: u64, slot: u32) {
        if chip >= self.extents.len() {
            self.extents.resize(chip + 1, Extent::default());
        }
        if self.extents[chip].len == self.extents[chip].cap {
            self.grow(chip);
        }
        let ext = self.extents[chip];
        let pos = match self.search(ext, seq, pri) {
            // Admission seqs are unique per page, so duplicates cannot occur.
            Ok(_) => {
                debug_assert!(false, "duplicate candidate row");
                return;
            }
            Err(pos) => pos,
        };
        let start = ext.start as usize;
        let len = ext.len as usize;
        self.col_seq
            .copy_within(start + pos..start + len, start + pos + 1);
        self.col_pri
            .copy_within(start + pos..start + len, start + pos + 1);
        self.col_lpn
            .copy_within(start + pos..start + len, start + pos + 1);
        self.col_slot
            .copy_within(start + pos..start + len, start + pos + 1);
        self.col_seq[start + pos] = seq;
        self.col_pri[start + pos] = pri;
        self.col_lpn[start + pos] = lpn;
        self.col_slot[start + pos] = slot;
        if ext.len == 0 {
            let at = self.active.partition_point(|&c| (c as usize) < chip);
            self.active.insert(at, chip as u32);
        }
        self.extents[chip].len += 1;
        self.live += 1;
    }

    /// Removes one candidate row.  Missing rows are tolerated (mirrors the
    /// sorted-vector index this replaces).
    // lint: hot-path
    pub fn remove(&mut self, chip: usize, seq: u64, pri: u32) {
        let Some(&ext) = self.extents.get(chip) else {
            return;
        };
        let Ok(pos) = self.search(ext, seq, pri) else {
            return;
        };
        let start = ext.start as usize;
        let len = ext.len as usize;
        self.col_seq
            .copy_within(start + pos + 1..start + len, start + pos);
        self.col_pri
            .copy_within(start + pos + 1..start + len, start + pos);
        self.col_lpn
            .copy_within(start + pos + 1..start + len, start + pos);
        self.col_slot
            .copy_within(start + pos + 1..start + len, start + pos);
        self.extents[chip].len -= 1;
        self.live -= 1;
        if self.extents[chip].len == 0 {
            if let Ok(at) = self.active.binary_search(&(chip as u32)) {
                self.active.remove(at);
            }
        }
        self.maybe_compact();
    }

    /// Relocates a full extent to the end of the arena with doubled capacity.
    fn grow(&mut self, chip: usize) {
        let ext = self.extents[chip];
        if ext.cap == 0 {
            self.held.push(chip as u32);
        }
        let new_cap = (ext.cap * 2).max(MIN_EXTENT_CAP);
        let new_start = self.col_seq.len();
        self.col_seq.resize(new_start + new_cap as usize, 0);
        self.col_pri.resize(new_start + new_cap as usize, 0);
        self.col_lpn.resize(new_start + new_cap as usize, 0);
        self.col_slot.resize(new_start + new_cap as usize, 0);
        let (start, len) = (ext.start as usize, ext.len as usize);
        self.col_seq.copy_within(start..start + len, new_start);
        self.col_pri.copy_within(start..start + len, new_start);
        self.col_lpn.copy_within(start..start + len, new_start);
        self.col_slot.copy_within(start..start + len, new_start);
        self.extents[chip] = Extent {
            start: new_start as u32,
            len: ext.len,
            cap: new_cap,
        };
        // Keep the compaction spares' capacity at least as large as the arena:
        // compaction output is strictly smaller than the arena it replaces, so
        // sizing the spares here (at the only point the arena itself grows)
        // guarantees compaction never allocates at steady state.  Compaction
        // itself must NOT run here: the caller is mid-insert and a compaction
        // would reset the just-grown (still empty) extent.
        let need = self.col_seq.len();
        self.reserve_spares(need);
    }

    fn reserve_spares(&mut self, need: usize) {
        if self.spare_seq.capacity() < need {
            self.spare_seq.reserve(need - self.spare_seq.len());
            self.spare_pri.reserve(need - self.spare_pri.len());
            self.spare_lpn.reserve(need - self.spare_lpn.len());
            self.spare_slot.reserve(need - self.spare_slot.len());
        }
    }

    /// Compacts the arena once dead space (relocation garbage plus idle extent
    /// capacity) exceeds 4× the live rows, restoring cache locality.
    fn maybe_compact(&mut self) {
        if self.col_seq.len() > 64 && self.live as usize * 4 < self.col_seq.len() {
            self.compact();
        }
    }

    /// Rewrites every live extent tightly (with 50% slack) into the spare
    /// buffers, in chip order, and swaps them in.  Emptied extents give up
    /// their capacity.  O(live rows + held extents), never O(chips), and
    /// allocation-free once the spares have reached the arena's high-water
    /// capacity.
    fn compact(&mut self) {
        let Self {
            col_seq,
            col_pri,
            col_lpn,
            col_slot,
            extents,
            active,
            held,
            spare_seq,
            spare_pri,
            spare_lpn,
            spare_slot,
            ..
        } = self;
        for &chip in held.iter() {
            let ext = &mut extents[chip as usize];
            if ext.len == 0 {
                *ext = Extent::default();
            }
        }
        held.clear();
        held.extend_from_slice(active);
        let total: usize = active
            .iter()
            .map(|&chip| {
                let len = extents[chip as usize].len as usize;
                len + len / 2 + 2
            })
            .sum();
        spare_seq.clear();
        spare_seq.resize(total, 0);
        spare_pri.clear();
        spare_pri.resize(total, 0);
        spare_lpn.clear();
        spare_lpn.resize(total, 0);
        spare_slot.clear();
        spare_slot.resize(total, 0);
        let mut cursor = 0usize;
        for &chip in active.iter() {
            let ext = &mut extents[chip as usize];
            let (start, len) = (ext.start as usize, ext.len as usize);
            let cap = len + len / 2 + 2;
            spare_seq[cursor..cursor + len].copy_from_slice(&col_seq[start..start + len]);
            spare_pri[cursor..cursor + len].copy_from_slice(&col_pri[start..start + len]);
            spare_lpn[cursor..cursor + len].copy_from_slice(&col_lpn[start..start + len]);
            spare_slot[cursor..cursor + len].copy_from_slice(&col_slot[start..start + len]);
            *ext = Extent {
                start: cursor as u32,
                len: len as u32,
                cap: cap as u32,
            };
            cursor += cap;
        }
        debug_assert_eq!(cursor, total);
        std::mem::swap(col_seq, spare_seq);
        std::mem::swap(col_pri, spare_pri);
        std::mem::swap(col_lpn, spare_lpn);
        std::mem::swap(col_slot, spare_slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(index: &CandidateIndex, chip: usize) -> Vec<(u64, u32, u64, u32)> {
        let view = index.view();
        view.range(chip)
            .map(|i| (view.seq[i], view.pri[i], view.lpn[i], view.slot[i]))
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
        let mut index = CandidateIndex::new();
        index.insert(3, 10, pack_pri(1, 0, 0), 101, 7);
        index.insert(3, 5, pack_pri(0, 1, 2), 50, 2);
        index.insert(3, 10, pack_pri(0, 0, 1), 100, 7);
        assert_eq!(index.len(), 3);
        assert_eq!(index.active_chips(), &[3]);
        let got = rows(&index, 3);
        assert_eq!(got[0], (5, pack_pri(0, 1, 2), 50, 2));
        assert_eq!(got[1], (10, pack_pri(0, 0, 1), 100, 7));
        assert_eq!(got[2], (10, pack_pri(1, 0, 0), 101, 7));
    }

    #[test]
    fn remove_keeps_active_set_and_live_count_coherent() {
        let mut index = CandidateIndex::new();
        index.insert(0, 1, pack_pri(0, 0, 0), 10, 0);
        index.insert(2, 2, pack_pri(0, 0, 0), 20, 1);
        assert_eq!(index.active_chips(), &[0, 2]);
        index.remove(0, 1, pack_pri(0, 0, 0));
        assert_eq!(index.active_chips(), &[2]);
        assert_eq!(index.len(), 1);
        // Removing a missing row is tolerated.
        index.remove(0, 1, pack_pri(0, 0, 0));
        index.remove(9, 1, pack_pri(0, 0, 0));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn growth_and_compaction_preserve_every_row() {
        let mut index = CandidateIndex::new();
        // Enough rows on few chips to force several extent relocations.
        for seq in 0..256u64 {
            index.insert(
                (seq % 3) as usize,
                seq,
                pack_pri(seq as u32, 0, 0),
                seq,
                seq as u32,
            );
        }
        assert_eq!(index.len(), 256);
        // Drain most of them to trigger compaction.
        for seq in 0..250u64 {
            index.remove((seq % 3) as usize, seq, pack_pri(seq as u32, 0, 0));
        }
        assert_eq!(index.len(), 6);
        let mut survivors: Vec<u64> = (0..3)
            .flat_map(|chip| rows(&index, chip).into_iter().map(|(seq, ..)| seq))
            .collect();
        survivors.sort_unstable();
        assert_eq!(survivors, (250..256).collect::<Vec<_>>());
        for chip in 0..3 {
            let chip_rows = rows(&index, chip);
            assert!(chip_rows.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn compaction_releases_only_emptied_extents() {
        let mut index = CandidateIndex::new();
        // One row on each of 40 chips: 40 minimum-size extents.
        for chip in 0..40u64 {
            index.insert(chip as usize, chip, pack_pri(0, 0, 0), chip, 0);
        }
        assert_eq!(index.held.len(), 40);
        // Emptying all but two chips compacts along the way (dead space
        // passes 4x the live rows).
        for chip in (0..40u64).filter(|&c| c != 7 && c != 31) {
            index.remove(chip as usize, chip, pack_pri(0, 0, 0));
        }
        assert_eq!(index.active_chips(), &[7, 31]);
        // Exactly the held chips own arena capacity.
        for (chip, ext) in index.extents.iter().enumerate() {
            assert_eq!(
                ext.cap > 0,
                index.held.contains(&(chip as u32)),
                "chip {chip}"
            );
        }
        assert!(index.held.len() < 40, "compaction must have run");
        index.compact();
        assert_eq!(index.held, vec![7, 31]);
        assert_eq!(index.extents[3], Extent::default());
        // A released chip takes fresh capacity at the end of the arena.
        index.insert(3, 100, pack_pri(1, 0, 0), 100, 1);
        assert_eq!(index.held, vec![7, 31, 3]);
        assert_eq!(rows(&index, 3), vec![(100, pack_pri(1, 0, 0), 100, 1)]);
        assert_eq!(rows(&index, 7), vec![(7, pack_pri(0, 0, 0), 7, 0)]);
        assert_eq!(rows(&index, 31), vec![(31, pack_pri(0, 0, 0), 31, 0)]);
        assert_eq!(index.len(), 3);
    }
}
