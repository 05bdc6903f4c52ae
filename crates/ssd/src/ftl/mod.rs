//! The Flash Translation Layer: page-level mapping, allocation, garbage collection
//! planning, and the physical-layout preview (preprocessor) the schedulers rely
//! on.
//!
//! The FTL's logical space is the device's physical page count: LPNs
//! `0..geometry.total_pages()`.  Its tables are dense and index-addressed
//! (see [`PageMap`] and [`Allocator`]), with `u32` entries, so a geometry may
//! hold at most `u32::MAX` pages; `SsdConfig::validate` enforces it.
//!
//! Pages and planes are numbered flat end to end.  The map holds physical
//! page numbers; the allocator hands out [`FlatPage`]s (plane index, block,
//! page) and keeps its per-plane state by plane index.  The allocation policy
//! is a stripe order: a table from `lpn % planes` to the static plane's index.
//! A write costs one division for its static plane and, when it supersedes a
//! mapped page, two more to split the stale page number; its address is built
//! once, from the allocator's table of plane locations, and it comes back
//! with its plane index, which the SSD's GC trigger reads.  A mapped read's
//! preview and translation split its page number the same way.
//!
//! A garbage-collection plan is all or nothing: [`Ftl::collect_plane`] first
//! checks that the allocator can place every valid page of the victim, and
//! changes nothing when it cannot.

mod allocator;
mod gc;
mod mapping;
#[cfg(test)]
mod oracle;

pub(crate) use allocator::MAX_PAGES_PER_BLOCK;
pub use allocator::{Allocator, FlatPage, PlaneLocation};
pub use gc::{GcPlan, GcStats, PageMigration};
pub use mapping::PageMap;

use sprinkler_flash::{FlashGeometry, Lpn, PhysicalPageAddr, Ppn};
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
    /// The flat index of the plane holding `addr`.
    pub plane_index: usize,
    /// The flat number of the stale physical page this write superseded, if
    /// the LPN was mapped.
    pub invalidated: Option<Ppn>,
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
/// // An overwrite names the stale page by its flat number.
/// let again = ftl.allocate_write(Lpn::new(3)).unwrap();
/// assert_eq!(again.invalidated, Some(ftl.geometry().ppn_of(w.addr)));
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
        let mapped = if direction.is_read() {
            self.map.lookup(lpn)
        } else {
            None
        };
        let plane = match mapped {
            Some(ppn) => self.alloc.page_of(ppn).plane,
            None => self.alloc.static_plane(lpn),
        };
        let loc = self.alloc.plane_location(plane);
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
            Some(ppn) => self.alloc.addr_of(self.alloc.page_of(ppn)),
            None => self.alloc.deterministic_addr(lpn),
        }
    }

    /// Allocates a physical page for a write of `lpn`, updating the mapping and
    /// valid-page directory.  Falls back to neighbouring planes when the preferred
    /// plane is out of free space ("spilling"), and returns `None` only when the
    /// entire SSD is full or `lpn` lies past the logical space.
    #[inline]
    pub fn allocate_write(&mut self, lpn: Lpn) -> Option<WriteAllocation> {
        if !self.map.covers(lpn) {
            return None;
        }
        let (page, spilled) = self.allocate_near(self.alloc.static_plane(lpn))?;
        let invalidated = self.map.map(lpn, self.alloc.ppn_of(page));
        if let Some(old) = invalidated {
            self.alloc.mark_invalid(self.alloc.page_of(old));
        }
        self.alloc.mark_valid(page, lpn);
        Some(WriteAllocation {
            addr: self.alloc.addr_of(page),
            plane_index: page.plane,
            invalidated,
            spilled,
        })
    }

    /// Allocates a page in `plane_index`, or else in the nearest following
    /// plane with room, wrapping past the last; the flag is true when the page
    /// left `plane_index`.
    #[inline]
    fn allocate_near(&mut self, plane_index: usize) -> Option<(FlatPage, bool)> {
        let planes = self.alloc.plane_count();
        let mut plane = plane_index;
        for _ in 0..planes {
            if let Some(page) = self.alloc.allocate(plane) {
                return Some((page, plane != plane_index));
            }
            plane += 1;
            if plane == planes {
                plane = 0;
            }
        }
        None
    }

    /// The flat plane index an address belongs to.
    pub fn plane_index_of_addr(&self, addr: PhysicalPageAddr) -> usize {
        self.alloc.plane_index_of_addr(addr)
    }

    /// Whether plane `plane_index` has dropped to the GC watermark.
    pub fn needs_gc(&self, plane_index: usize) -> bool {
        self.alloc.free_blocks(plane_index) <= self.gc_watermark
    }

    /// Plans (and applies the metadata side of) one garbage-collection invocation
    /// for `plane_index`: picks the greedy victim, migrates its valid pages'
    /// mappings to fresh locations, erases the victim, and returns the plan whose
    /// flash work the SSD must still simulate.  Returns `None`, having changed
    /// nothing, when the plane has no eligible victim or the device has fewer
    /// free pages than the victim has valid ones.
    pub fn collect_plane(&mut self, plane_index: usize) -> Option<GcPlan> {
        let victim = self.alloc.victim_block(plane_index)?;
        let mut valid = self.alloc.valid_bits(plane_index, victim);
        if u64::from(valid.count_ones()) > self.alloc.free_pages() {
            return None;
        }
        let erase_addr = self.alloc.addr_of(FlatPage {
            plane: plane_index,
            block: victim,
            page: 0,
        });
        let mut migrations = Vec::with_capacity(valid.count_ones() as usize);
        while valid != 0 {
            let from = FlatPage {
                plane: plane_index,
                block: victim,
                page: valid.trailing_zeros(),
            };
            valid &= valid - 1;
            let lpn = self.alloc.owner(from);
            // Prefer a destination in the same plane; spill outwards if needed.
            // The victim is in use and not active, so it is never the
            // destination, and the check above left a page for each migration:
            // a miscounted free page would leave this plan half applied.
            let to = self.allocate_near(plane_index);
            debug_assert!(
                to.is_some(),
                "no page for {lpn:?}, though the free-page check passed"
            );
            let (to, crossed_plane) = to?;
            self.map.map(lpn, self.alloc.ppn_of(to));
            self.alloc.mark_invalid(from);
            self.alloc.mark_valid(to, lpn);
            migrations.push(PageMigration {
                lpn,
                from: PhysicalPageAddr {
                    page: from.page,
                    ..erase_addr
                },
                to: self.alloc.addr_of(to),
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
    use proptest::prelude::*;

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
        assert_eq!(second.invalidated, Some(f.geometry().ppn_of(first.addr)));
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

    /// A victim with more valid pages than the device has free ones is left
    /// whole: nothing is remapped, invalidated or counted.
    #[test]
    fn gc_that_cannot_place_every_valid_page_changes_nothing() {
        let mut f = ftl();
        let total = f.geometry().total_pages() as u64;
        // Distinct LPNs fill every page but three, so every used block holds
        // only valid pages.
        for lpn in 0..total - 3 {
            f.allocate_write(Lpn::new(lpn)).unwrap();
        }
        let where_before: Vec<_> = (0..total).map(|l| f.translate_read(Lpn::new(l))).collect();
        let free_before: Vec<_> = (0..f.plane_count())
            .map(|p| f.free_blocks_in_plane(p))
            .collect();
        assert!(f.collect_plane(0).is_none());
        for (lpn, &addr) in (0..total).map(Lpn::new).zip(&where_before) {
            assert_eq!(f.translate_read(lpn), addr, "{lpn} moved");
        }
        assert_eq!(f.live_pages(), total - 3);
        assert_eq!(f.gc_stats(), GcStats::default());
        for (plane, &free) in free_before.iter().enumerate() {
            assert_eq!(f.free_blocks_in_plane(plane), free, "plane {plane}");
        }
        // The three free pages still take three writes.
        for lpn in 0..3 {
            assert!(f.allocate_write(Lpn::new(lpn)).is_some());
        }
        assert!(f.allocate_write(Lpn::new(3)).is_none());
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

    /// The plane location of an address.
    fn location_of(addr: PhysicalPageAddr) -> PlaneLocation {
        PlaneLocation {
            channel: addr.channel,
            way: addr.way,
            die: addr.die,
            plane: addr.plane,
        }
    }

    /// The placement a structured location names.
    fn placement_of(g: &FlashGeometry, loc: PlaneLocation) -> Placement {
        Placement {
            chip: g.chip_index(loc.channel, loc.way),
            die: loc.die,
            plane: loc.plane,
        }
    }

    /// Checks the allocator's tables, its flat page numbers, and the FTL's
    /// static placement, unmapped-read address, preview and read translation
    /// against the div/mod formulas they replaced, on a fresh FTL and after
    /// writing (and overwriting) `drawn` LPNs folded into the logical space,
    /// and each of those writes' plane index.
    /// Checked LPNs cover every residue, the end of the logical space, past
    /// it, up to `u64::MAX`, and `drawn` as drawn.
    fn check_against_the_formulas(g: &FlashGeometry, policy: AllocationPolicy, drawn: &[u64]) {
        let mut ftl = Ftl::new(g.clone(), policy, 1);
        let planes = g.total_planes() as u64;
        let per_plane = g.pages_per_plane() as u64;
        let total = g.total_pages() as u64;
        let alloc = &ftl.alloc;
        for plane_index in 0..planes as usize {
            let loc = oracle::plane_location(g, plane_index);
            assert_eq!(
                alloc.plane_location(plane_index),
                loc,
                "plane {plane_index}"
            );
            assert_eq!(alloc.plane_index_of(loc), plane_index);
            let residue = Lpn::new(plane_index as u64);
            assert_eq!(
                alloc.static_plane(residue),
                oracle::plane_index_of(g, oracle::static_placement(g, policy, residue)),
                "stripe entry {plane_index}"
            );
        }
        let first_pages = (0..planes).map(|plane| plane * per_plane);
        let last_pages = (1..=planes).map(|plane| plane * per_plane - 1);
        let drawn_pages = drawn.iter().map(|&raw| raw % total);
        for ppn in first_pages
            .chain(last_pages)
            .chain(drawn_pages)
            .map(Ppn::new)
        {
            let page = alloc.page_of(ppn);
            assert_eq!(alloc.addr_of(page), g.addr_of(ppn), "{ppn}");
            assert_eq!(alloc.ppn_of(page), ppn);
        }

        let lpns: Vec<Lpn> = (0..2 * planes)
            .chain(total - planes..total + 2 * planes)
            .chain(u64::MAX - 2 * planes..=u64::MAX)
            .chain(drawn.iter().copied())
            .map(Lpn::new)
            .collect();
        let check_lpns = |ftl: &Ftl| {
            for &lpn in &lpns {
                let home = oracle::static_placement(g, policy, lpn);
                assert_eq!(ftl.alloc.static_placement(lpn), home, "{lpn}");
                assert_eq!(
                    ftl.alloc.deterministic_addr(lpn),
                    oracle::deterministic_addr(g, policy, lpn),
                    "{lpn}"
                );
                assert_eq!(ftl.preview(lpn, Direction::Write), placement_of(g, home));
                let (read_addr, read_placement) = match ftl.map.lookup(lpn) {
                    Some(ppn) => {
                        let addr = g.addr_of(ppn);
                        (addr, placement_of(g, location_of(addr)))
                    }
                    None => (
                        oracle::deterministic_addr(g, policy, lpn),
                        placement_of(g, home),
                    ),
                };
                assert_eq!(ftl.translate_read(lpn), read_addr, "{lpn}");
                assert_eq!(ftl.preview(lpn, Direction::Read), read_placement, "{lpn}");
            }
        };
        check_lpns(&ftl);
        for &raw in drawn.iter().chain(drawn) {
            let lpn = Lpn::new(raw % total);
            let stale = ftl.map.lookup(lpn);
            let Some(write) = ftl.allocate_write(lpn) else {
                assert_eq!(ftl.alloc.free_pages(), 0, "only a full device refuses");
                continue;
            };
            assert_eq!(write.invalidated, stale, "{lpn}");
            assert_eq!(ftl.map.lookup(lpn), Some(g.ppn_of(write.addr)), "{lpn}");
            let plane_index = oracle::plane_index_of(g, location_of(write.addr));
            assert_eq!(write.plane_index, plane_index, "{lpn}");
        }
        check_lpns(&ftl);
    }

    /// A geometry axis: small counts, non-powers of two among them, up to
    /// the 64-die and 64-plane limits.
    fn axis() -> impl Strategy<Value = usize> {
        prop_oneof![1usize..9, Just(64usize), 9usize..65]
    }

    fn arb_geometry() -> impl Strategy<Value = FlashGeometry> {
        (
            1usize..13,
            1usize..13,
            axis(),
            axis(),
            1usize..5,
            1usize..129,
        )
            .prop_filter("at most 8,192 planes", |&(c, w, d, p, _, _)| {
                c * w * d * p <= 8192
            })
            .prop_map(
                |(channels, ways, dies, planes, blocks, pages)| FlashGeometry {
                    channels,
                    chips_per_channel: ways,
                    dies_per_chip: dies,
                    planes_per_die: planes,
                    blocks_per_plane: blocks,
                    pages_per_block: pages,
                    page_size: 2048,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The stripe-order and location tables, static placement, the
        /// unmapped-read address, preview, read translation and flat page
        /// numbers equal the div/mod formulas they replaced, under every
        /// allocation policy.
        #[test]
        fn tables_and_flat_numbers_match_the_div_mod_formulas(
            geometry in arb_geometry(),
            drawn in prop::collection::vec(0u64..=u64::MAX, 0..48),
        ) {
            for policy in [
                AllocationPolicy::ChannelWayDiePlane,
                AllocationPolicy::WayChannelDiePlane,
                AllocationPolicy::DiePlaneChannelWay,
            ] {
                check_against_the_formulas(&geometry, policy, &drawn);
            }
        }
    }
}
