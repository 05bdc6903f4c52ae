//! The Flash Translation Layer: page-level mapping, allocation, garbage collection
//! planning, wear accounting, and the physical-layout preview (preprocessor) the
//! schedulers rely on.

mod allocator;
mod gc;
mod mapping;
mod wear;

pub use allocator::{Allocator, PlaneLocation};
pub use gc::{GcPlan, GcStats, PageMigration};
pub use mapping::PageMap;
pub use wear::WearTracker;

use sprinkler_flash::{FlashGeometry, Lpn, PhysicalPageAddr};
use sprinkler_sim::DeterministicRng;

use crate::config::AllocationPolicy;
use crate::request::{Direction, Placement};

/// Counters describing FTL activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host page reads translated.
    pub host_reads: u64,
    /// Host page writes allocated.
    pub host_writes: u64,
    /// Reads of never-written logical pages (served from a deterministic location).
    pub unmapped_reads: u64,
    /// Writes whose target plane was full and had to spill to another plane.
    pub spilled_writes: u64,
}

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
/// assert_eq!(preview.channel, w.addr.channel);
/// assert_eq!(preview.die, w.addr.die);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ftl {
    geometry: FlashGeometry,
    map: PageMap,
    alloc: Allocator,
    wear: WearTracker,
    gc_watermark: usize,
    stats: FtlStats,
    gc_stats: GcStats,
}

impl Ftl {
    /// Creates an FTL for `geometry` with the given allocation policy and GC
    /// free-block watermark (GC triggers when a plane's free blocks drop to the
    /// watermark or below).
    pub fn new(geometry: FlashGeometry, policy: AllocationPolicy, gc_watermark: usize) -> Self {
        let alloc = Allocator::new(geometry.clone(), policy);
        let wear = WearTracker::new(alloc.total_blocks());
        Ftl {
            geometry,
            map: PageMap::new(),
            alloc,
            wear,
            gc_watermark,
            stats: FtlStats::default(),
            gc_stats: GcStats::default(),
        }
    }

    /// The geometry this FTL manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Activity counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Garbage-collection counters.
    pub fn gc_stats(&self) -> GcStats {
        self.gc_stats
    }

    /// Wear (erase-count) tracker.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
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
                return Placement::from_addr(addr, self.geometry.chips_per_channel);
            }
        }
        let loc = self.alloc.static_placement(lpn);
        Placement {
            chip: self.geometry.chip_index(loc.channel, loc.way),
            channel: loc.channel,
            way: loc.way,
            die: loc.die,
            plane: loc.plane,
        }
    }

    /// Resolves a read to a physical page.  Unmapped reads are served from a
    /// deterministic location so they still exercise the flash array.
    pub fn translate_read(&mut self, lpn: Lpn) -> PhysicalPageAddr {
        self.stats.host_reads += 1;
        match self.map.lookup(lpn) {
            Some(ppn) => self.geometry.addr_of(ppn),
            None => {
                self.stats.unmapped_reads += 1;
                self.alloc.deterministic_addr(lpn)
            }
        }
    }

    /// Allocates a physical page for a write of `lpn`, updating the mapping and
    /// valid-page directory.  Falls back to neighbouring planes when the preferred
    /// plane is out of free space ("spilling"), and returns `None` only when the
    /// entire SSD is full.
    pub fn allocate_write(&mut self, lpn: Lpn) -> Option<WriteAllocation> {
        self.stats.host_writes += 1;
        let preferred = self.alloc.plane_index_of(self.alloc.static_placement(lpn));
        let plane_count = self.alloc.plane_count();
        let mut chosen = None;
        for offset in 0..plane_count {
            let plane = (preferred + offset) % plane_count;
            if let Some(addr) = self.alloc.allocate(plane) {
                chosen = Some((addr, offset != 0));
                break;
            }
        }
        let (addr, spilled) = chosen?;
        if spilled {
            self.stats.spilled_writes += 1;
        }
        let invalidated = self
            .map
            .map(lpn, self.geometry.ppn_of(addr))
            .map(|old| self.geometry.addr_of(old));
        if let Some(old) = invalidated {
            self.alloc.mark_invalid(old);
        }
        self.alloc.mark_valid(addr);
        Some(WriteAllocation {
            addr,
            invalidated,
            spilled,
        })
    }

    /// Free blocks remaining in the plane that `lpn` statically maps to.
    pub fn free_blocks_for(&self, lpn: Lpn) -> usize {
        let plane = self.alloc.plane_index_of(self.alloc.static_placement(lpn));
        self.alloc.free_blocks(plane)
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
        let valid_offsets = self.alloc.valid_page_offsets(plane_index, victim);
        let mut migrations = Vec::with_capacity(valid_offsets.len());
        for page in valid_offsets {
            let from = PhysicalPageAddr {
                channel: loc.channel,
                way: loc.way,
                die: loc.die,
                plane: loc.plane,
                block: victim,
                page,
            };
            let Some(lpn) = self.map.lpn_of(self.geometry.ppn_of(from)) else {
                // Directory and map disagree; treat the page as stale.
                self.alloc.mark_invalid(from);
                continue;
            };
            // Prefer a destination in the same plane; spill outwards if needed.
            let plane_count = self.alloc.plane_count();
            let mut dest = None;
            for offset in 0..plane_count {
                let candidate = (plane_index + offset) % plane_count;
                // Never migrate into the victim block itself.
                if let Some(addr) = self.alloc.allocate(candidate) {
                    if candidate == plane_index && addr.block == victim {
                        continue;
                    }
                    dest = Some((addr, candidate != plane_index));
                    break;
                }
            }
            let (to, crossed_plane) = dest?;
            self.map.map(lpn, self.geometry.ppn_of(to));
            self.alloc.mark_invalid(from);
            self.alloc.mark_valid(to);
            migrations.push(PageMigration {
                lpn,
                from,
                to,
                crossed_plane,
            });
        }
        let erase_addr = PhysicalPageAddr {
            channel: loc.channel,
            way: loc.way,
            die: loc.die,
            plane: loc.plane,
            block: victim,
            page: 0,
        };
        self.alloc.erase_block(plane_index, victim);
        self.wear
            .record_erase(self.alloc.global_block_index(erase_addr));
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
        // Pre-conditioning is not host traffic; keep the host counters clean.
        self.stats.host_writes = 0;
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
            assert_eq!(preview.channel, alloc.addr.channel, "lpn {lpn}");
            assert_eq!(preview.way, alloc.addr.way);
            assert_eq!(preview.die, alloc.addr.die);
            assert_eq!(preview.plane, alloc.addr.plane);
            assert!(!alloc.spilled);
        }
        assert_eq!(f.stats().host_writes, 32);
    }

    #[test]
    fn preview_of_mapped_read_follows_the_data() {
        let mut f = ftl();
        let lpn = Lpn::new(5);
        let w = f.allocate_write(lpn).unwrap();
        let preview = f.preview(lpn, Direction::Read);
        assert_eq!(preview.channel, w.addr.channel);
        assert_eq!(preview.plane, w.addr.plane);
    }

    #[test]
    fn translate_read_unmapped_is_deterministic() {
        let mut f = ftl();
        let a = f.translate_read(Lpn::new(99));
        let b = f.translate_read(Lpn::new(99));
        assert_eq!(a, b);
        assert_eq!(f.stats().unmapped_reads, 2);
        assert_eq!(f.stats().host_reads, 2);
    }

    #[test]
    fn translate_read_mapped_returns_write_location() {
        let mut f = ftl();
        let lpn = Lpn::new(7);
        let w = f.allocate_write(lpn).unwrap();
        assert_eq!(f.translate_read(lpn), w.addr);
        assert_eq!(f.stats().unmapped_reads, 0);
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
        // Hammer a single static plane with more distinct LPNs than it can hold.
        // LPNs that are `planes_total` apart share the same static plane.
        let mut spilled = false;
        for i in 0..plane_capacity + 4 {
            let lpn = Lpn::new(i * planes_total);
            let alloc = f.allocate_write(lpn).unwrap();
            spilled |= alloc.spilled;
        }
        assert!(spilled, "overflowing a plane must spill to a neighbour");
        assert!(f.stats().spilled_writes > 0);
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
        assert_eq!(f.wear().total(), 1);
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
        assert_eq!(
            f.stats().host_writes,
            0,
            "preconditioning is not host traffic"
        );
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
