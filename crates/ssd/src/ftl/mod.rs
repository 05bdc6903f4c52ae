//! The Flash Translation Layer: page-level mapping, allocation, garbage collection
//! planning, and the physical-layout preview (preprocessor) the schedulers rely
//! on.
//!
//! The FTL's logical space is the device's physical page count: LPNs
//! `0..geometry.total_pages()`.  Its tables are dense and index-addressed
//! (see [`PageMap`] and [`Allocator`]), with `u32` entries, so a geometry may
//! hold at most `u32::MAX` pages; `SsdConfig::validate` enforces it.

mod allocator;
mod gc;
mod mapping;

pub(crate) use allocator::MAX_PAGES_PER_BLOCK;
pub use allocator::{Allocator, PlaneLocation};
pub use gc::{GcPlan, GcStats, PageMigration};
pub use mapping::PageMap;

use sprinkler_flash::{FlashGeometry, Lpn, PhysicalPageAddr};
use sprinkler_sim::DeterministicRng;

use crate::config::AllocationPolicy;
use crate::request::{Direction, Placement};

/// The most pages a device may hold: map entries are `u32`, and a forward
/// entry stores a page number plus one.
pub(crate) const MAX_TOTAL_PAGES: u64 = u32::MAX as u64;

/// The result of allocating a physical page for a host (or GC) write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAllocation {
    /// The freshly allocated physical page.
    pub addr: PhysicalPageAddr,
    /// The stale physical page this write superseded, if the LPN was mapped.
    pub invalidated: Option<PhysicalPageAddr>,
    /// True when the page could not be placed on its statically preferred plane.
    pub spilled: bool,
}

/// The page-level FTL.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::ftl::Ftl;
/// use sprinkler_ssd::config::AllocationPolicy;
/// use sprinkler_ssd::request::Direction;
/// use sprinkler_flash::{FlashGeometry, Lpn};
///
/// let mut ftl = Ftl::new(FlashGeometry::small_test(), AllocationPolicy::ChannelWayDiePlane, 1);
/// let w = ftl.allocate_write(Lpn::new(3)).unwrap();
/// assert!(w.invalidated.is_none());
/// // The preview agrees with where the data actually went.
/// let preview = ftl.preview(Lpn::new(3), Direction::Read);
/// assert_eq!(preview.chip, ftl.geometry().chip_index(w.addr.channel, w.addr.way));
/// assert_eq!(preview.die, w.addr.die);
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    geometry: FlashGeometry,
    map: PageMap,
    alloc: Allocator,
    gc_watermark: usize,
    gc_stats: GcStats,
}

impl Ftl {
    /// Creates an FTL for `geometry` with the given allocation policy and GC
    /// free-block watermark (GC triggers when a plane's free blocks drop to the
    /// watermark or below).
    pub fn new(geometry: FlashGeometry, policy: AllocationPolicy, gc_watermark: usize) -> Self {
        let alloc = Allocator::new(geometry.clone(), policy);
        Ftl {
            map: PageMap::new(geometry.total_pages() as u64),
            geometry,
            alloc,
            gc_watermark,
            gc_stats: GcStats::default(),
        }
    }

    /// The geometry this FTL manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Garbage-collection counters.
    pub fn gc_stats(&self) -> GcStats {
        self.gc_stats
    }

    /// Number of mapped logical pages (live data footprint).
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// The FTL preprocessor of Algorithm 1: the physical layout (chip, die, plane)
    /// an LPN resolves to, *without* performing any allocation.  For mapped pages
    /// this is where the data lives; for unmapped pages (and all writes, thanks to
    /// the static plane-selection policy) it is where the data will be placed.
    pub fn preview(&self, lpn: Lpn, direction: Direction) -> Placement {
        if direction.is_read() {
            if let Some(ppn) = self.map.lookup(lpn) {
                let addr = self.geometry.addr_of(ppn);
                return Placement {
                    chip: self.geometry.chip_index(addr.channel, addr.way),
                    die: addr.die,
                    plane: addr.plane,
                };
            }
        }
        let loc = self.alloc.static_placement(lpn);
        Placement {
            chip: self.geometry.chip_index(loc.channel, loc.way),
            die: loc.die,
            plane: loc.plane,
        }
    }

    /// Resolves a read to a physical page.  Unmapped reads are served from a
    /// deterministic location so they still exercise the flash array.
    pub fn translate_read(&self, lpn: Lpn) -> PhysicalPageAddr {
        match self.map.lookup(lpn) {
            Some(ppn) => self.geometry.addr_of(ppn),
            None => self.alloc.deterministic_addr(lpn),
        }
    }

    /// Allocates a physical page for a write of `lpn`, updating the mapping and
    /// valid-page directory.  Falls back to neighbouring planes when the preferred
    /// plane is out of free space ("spilling"), and returns `None` only when the
    /// entire SSD is full or `lpn` lies past the logical space.
    pub fn allocate_write(&mut self, lpn: Lpn) -> Option<WriteAllocation> {
        if !self.map.covers(lpn) {
            return None;
        }
        let preferred = self.alloc.plane_index_of(self.alloc.static_placement(lpn));
        let (addr, spilled) = self.allocate_near(preferred)?;
        let invalidated = self
            .map
            .map(lpn, self.geometry.ppn_of(addr))
            .map(|old| self.geometry.addr_of(old));
        if let Some(old) = invalidated {
            self.alloc.mark_invalid(old);
        }
        self.alloc.mark_valid(addr, lpn);
        Some(WriteAllocation {
            addr,
            invalidated,
            spilled,
        })
    }

    /// Allocates a page in `plane_index`, or else in the nearest following
    /// plane with room; the flag is true when the page left `plane_index`.
    fn allocate_near(&mut self, plane_index: usize) -> Option<(PhysicalPageAddr, bool)> {
        let plane_count = self.alloc.plane_count();
        let alloc = &mut self.alloc;
        (0..plane_count).find_map(|offset| {
            alloc
                .allocate((plane_index + offset) % plane_count)
                .map(|addr| (addr, offset != 0))
        })
    }

    /// The flat plane index an address belongs to.
    pub fn plane_index_of_addr(&self, addr: PhysicalPageAddr) -> usize {
        self.alloc.plane_index_of_addr(addr)
    }

    /// Whether the plane holding `addr` has dropped to the GC watermark.
    pub fn needs_gc(&self, plane_index: usize) -> bool {
        self.alloc.free_blocks(plane_index) <= self.gc_watermark
    }

    /// Plans (and applies the metadata side of) one garbage-collection invocation
    /// for `plane_index`: picks the greedy victim, migrates its valid pages'
    /// mappings to fresh locations, erases the victim, and returns the plan whose
    /// flash work the SSD must still simulate.  Returns `None` when the plane has
    /// no eligible victim.
    pub fn collect_plane(&mut self, plane_index: usize) -> Option<GcPlan> {
        let victim = self.alloc.victim_block(plane_index)?;
        let loc = self.alloc.plane_location(plane_index);
        let erase_addr = PhysicalPageAddr {
            channel: loc.channel,
            way: loc.way,
            die: loc.die,
            plane: loc.plane,
            block: victim,
            page: 0,
        };
        let mut valid = self.alloc.valid_bits(plane_index, victim);
        let mut migrations = Vec::with_capacity(valid.count_ones() as usize);
        while valid != 0 {
            let page = valid.trailing_zeros();
            valid &= valid - 1;
            let from = PhysicalPageAddr { page, ..erase_addr };
            let lpn = self.alloc.owner(plane_index, victim, page);
            // Prefer a destination in the same plane; spill outwards if needed.
            // The victim is in use and not active, so it is never the destination.
            let (to, crossed_plane) = self.allocate_near(plane_index)?;
            self.map.map(lpn, self.geometry.ppn_of(to));
            self.alloc.mark_invalid(from);
            self.alloc.mark_valid(to, lpn);
            migrations.push(PageMigration {
                lpn,
                from,
                to,
                crossed_plane,
            });
        }
        self.alloc.erase_block(plane_index, victim);
        let plan = GcPlan {
            plane_index,
            victim_block: victim,
            migrations,
            erase_addr,
        };
        self.gc_stats.record_plan(&plan);
        Some(plan)
    }

    /// Pre-conditions the SSD to a fragmented state: issues `target_utilization`
    /// (0.0–1.0) of the physical capacity as random-LPN writes over a logical span
    /// covering half the capacity, so remapping produces invalid pages exactly as
    /// the paper's "filled by 95% with 1 MB random writes" preparation does.
    /// Metadata only — no simulated time passes.
    pub fn precondition(&mut self, target_utilization: f64, seed: u64) {
        let total_pages = self.geometry.total_pages() as u64;
        let logical_span = (total_pages / 2).max(1);
        let writes = (total_pages as f64 * target_utilization.clamp(0.0, 1.0)) as u64;
        let mut rng = DeterministicRng::seeded(seed);
        for _ in 0..writes {
            let lpn = Lpn::new(rng.uniform_u64(logical_span));
            if self.allocate_write(lpn).is_none() {
                break;
            }
        }
    }

    /// Total valid (live) pages across the SSD.
    pub fn live_pages(&self) -> u64 {
        self.alloc.total_valid_pages()
    }

    /// Free blocks in an arbitrary plane (mainly for tests and reporting).
    pub fn free_blocks_in_plane(&self, plane_index: usize) -> usize {
        self.alloc.free_blocks(plane_index)
    }

    /// Number of planes managed.
    pub fn plane_count(&self) -> usize {
        self.alloc.plane_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> Ftl {
        Ftl::new(
            FlashGeometry::small_test(),
            AllocationPolicy::ChannelWayDiePlane,
            1,
        )
    }

    #[test]
    fn preview_matches_allocation_for_writes() {
        let mut f = ftl();
        for lpn in 0..32u64 {
            let preview = f.preview(Lpn::new(lpn), Direction::Write);
            let alloc = f.allocate_write(Lpn::new(lpn)).unwrap();
            let chip = f.geometry().chip_index(alloc.addr.channel, alloc.addr.way);
            assert_eq!(preview.chip, chip, "lpn {lpn}");
            assert_eq!(preview.die, alloc.addr.die);
            assert_eq!(preview.plane, alloc.addr.plane);
            assert!(!alloc.spilled);
        }
    }

    #[test]
    fn preview_of_mapped_read_follows_the_data() {
        let mut f = ftl();
        let lpn = Lpn::new(5);
        let w = f.allocate_write(lpn).unwrap();
        let preview = f.preview(lpn, Direction::Read);
        assert_eq!(
            preview.chip,
            f.geometry().chip_index(w.addr.channel, w.addr.way)
        );
        assert_eq!(preview.plane, w.addr.plane);
    }

    #[test]
    fn translate_read_unmapped_is_deterministic() {
        let f = ftl();
        let a = f.translate_read(Lpn::new(99));
        let b = f.translate_read(Lpn::new(99));
        assert_eq!(a, b);
        assert_eq!(a, f.alloc.deterministic_addr(Lpn::new(99)));
        assert_eq!(f.mapped_pages(), 0, "a read maps nothing");
    }

    #[test]
    fn translate_read_mapped_returns_write_location() {
        let mut f = ftl();
        let lpn = Lpn::new(7);
        let w = f.allocate_write(lpn).unwrap();
        assert_eq!(f.translate_read(lpn), w.addr);
    }

    #[test]
    fn overwrite_invalidates_previous_location() {
        let mut f = ftl();
        let lpn = Lpn::new(3);
        let first = f.allocate_write(lpn).unwrap();
        assert!(first.invalidated.is_none());
        let second = f.allocate_write(lpn).unwrap();
        assert_eq!(second.invalidated, Some(first.addr));
        assert_ne!(second.addr, first.addr);
    }

    #[test]
    fn writes_spill_when_plane_is_full() {
        let mut f = ftl();
        let g = f.geometry().clone();
        let plane_capacity = (g.blocks_per_plane * g.pages_per_block) as u64;
        let planes_total = g.total_planes() as u64;
        let total_pages = g.total_pages() as u64;
        // Hammer a single static plane with more writes than it can hold.
        // LPNs that are `planes_total` apart share the same static plane; past
        // the logical space they wrap to overwrites, which still take pages.
        let mut spilled = false;
        for i in 0..plane_capacity + 4 {
            let lpn = Lpn::new((i * planes_total) % total_pages);
            let alloc = f.allocate_write(lpn).unwrap();
            spilled |= alloc.spilled;
        }
        assert!(spilled, "overflowing a plane must spill to a neighbour");
    }

    #[test]
    fn writes_past_the_logical_space_are_refused() {
        let mut f = ftl();
        let total = f.geometry().total_pages() as u64;
        f.allocate_write(Lpn::new(total - 1)).unwrap();
        for lpn in [total, total + 1, u64::MAX] {
            assert!(f.allocate_write(Lpn::new(lpn)).is_none(), "lpn {lpn}");
        }
        assert_eq!(f.mapped_pages(), 1);
        assert_eq!(f.live_pages(), 1);
        // Reads past the space take the unmapped path.
        assert_eq!(
            f.translate_read(Lpn::new(total)),
            f.alloc.deterministic_addr(Lpn::new(total))
        );
    }

    #[test]
    fn gc_reclaims_invalidated_blocks() {
        let mut f = ftl();
        let g = f.geometry().clone();
        let planes_total = g.total_planes() as u64;
        // Write the same small set of LPNs (all in plane 0) repeatedly so blocks
        // fill with mostly-stale data.
        let lpns: Vec<Lpn> = (0..4).map(|i| Lpn::new(i * planes_total)).collect();
        for round in 0..((g.blocks_per_plane * g.pages_per_block) / 4 - 1) {
            let _ = round;
            for &lpn in &lpns {
                f.allocate_write(lpn).unwrap();
            }
        }
        let plane = 0;
        assert!(f.needs_gc(plane) || f.free_blocks_in_plane(plane) <= 2);
        let before_free = f.free_blocks_in_plane(plane);
        let plan = f.collect_plane(plane).expect("victim should exist");
        assert_eq!(plan.plane_index, plane);
        // The victim was mostly stale, so few migrations are expected.
        assert!(plan.migration_count() <= 4);
        assert!(f.free_blocks_in_plane(plane) >= before_free);
        assert_eq!(f.gc_stats().invocations, 1);
        assert_eq!(f.gc_stats().blocks_erased, 1);
        // Migrated LPNs still resolve somewhere valid.
        for m in &plan.migrations {
            assert_eq!(f.translate_read(m.lpn), m.to);
        }
    }

    #[test]
    fn gc_without_victims_returns_none() {
        let mut f = ftl();
        assert!(f.collect_plane(0).is_none());
    }

    #[test]
    fn precondition_fills_requested_fraction() {
        let mut f = ftl();
        f.precondition(0.5, 42);
        let total = f.geometry().total_pages() as u64;
        // Live pages are bounded by the logical span (half the capacity) and by
        // what was written.
        assert!(f.live_pages() > 0);
        assert!(f.live_pages() <= total / 2 + 1);
        assert!(f.mapped_pages() > 0);
    }

    #[test]
    fn needs_gc_tracks_watermark() {
        let mut f = Ftl::new(
            FlashGeometry::small_test(),
            AllocationPolicy::ChannelWayDiePlane,
            2,
        );
        assert!(!f.needs_gc(0));
        let g = f.geometry().clone();
        let planes_total = g.total_planes() as u64;
        // Consume blocks of plane 0 until only the watermark remains.
        let mut i = 0u64;
        while f.free_blocks_in_plane(0) > 2 {
            f.allocate_write(Lpn::new(i * planes_total)).unwrap();
            i += 1;
        }
        assert!(f.needs_gc(0));
    }
}
