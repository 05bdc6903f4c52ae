//! Physical page allocation: striping policy, per-plane active blocks, free-block
//! lists, and per-block valid-page accounting.
//!
//! The allocator implements a *static* plane-selection policy (the placement of a
//! logical page's chip/die/plane is a pure function of its LPN and the configured
//! [`AllocationPolicy`]), combined with *dynamic* block/page selection inside the
//! plane (append to the plane's active block).  Static plane selection is what lets
//! the FTL preprocessor expose a stable physical layout preview to the schedulers
//! before the data is actually written — the capability PAS and Sprinkler rely on.

use sprinkler_flash::{FlashGeometry, Lpn, PhysicalPageAddr};

use crate::config::AllocationPolicy;

/// Per-plane allocation state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlaneState {
    /// Blocks with no valid data and fully erased, available for allocation.
    free_blocks: Vec<u32>,
    /// The block currently being appended to, if any.
    active_block: Option<u32>,
    /// Next page offset to program in the active block.
    next_page: u32,
    /// Valid page count per block in this plane.
    valid_count: Vec<u16>,
    /// Valid page bitmap per block (pages_per_block ≤ 128).
    valid_bits: Vec<u128>,
    /// Whether each block has been handed out (active or fully written) since its
    /// last erase.
    in_use: Vec<bool>,
}

impl PlaneState {
    fn new(blocks_per_plane: usize) -> Self {
        PlaneState {
            // Keep block order so allocation is deterministic: lowest block first.
            free_blocks: (0..blocks_per_plane as u32).rev().collect(),
            active_block: None,
            next_page: 0,
            valid_count: vec![0; blocks_per_plane],
            valid_bits: vec![0; blocks_per_plane],
            in_use: vec![false; blocks_per_plane],
        }
    }
}

/// The physical location of one plane in the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlaneLocation {
    /// Channel index.
    pub channel: u32,
    /// Chip position within the channel.
    pub way: u32,
    /// Die within the chip.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
}

/// Page allocator and valid-page directory for the whole SSD.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::ftl::Allocator;
/// use sprinkler_ssd::config::AllocationPolicy;
/// use sprinkler_flash::{FlashGeometry, Lpn};
///
/// let g = FlashGeometry::small_test();
/// let mut alloc = Allocator::new(g.clone(), AllocationPolicy::ChannelWayDiePlane);
/// let place = alloc.static_placement(Lpn::new(0));
/// let addr = alloc.allocate(alloc.plane_index_of(place)).unwrap();
/// assert_eq!(addr.channel, place.channel);
/// assert_eq!(addr.page, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocator {
    geometry: FlashGeometry,
    policy: AllocationPolicy,
    planes: Vec<PlaneState>,
}

impl Allocator {
    /// Creates an allocator with every block free.
    pub fn new(geometry: FlashGeometry, policy: AllocationPolicy) -> Self {
        let planes = (0..geometry.total_planes())
            .map(|_| PlaneState::new(geometry.blocks_per_plane))
            .collect();
        Allocator {
            geometry,
            policy,
            planes,
        }
    }

    /// The geometry this allocator manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Total number of planes.
    pub fn plane_count(&self) -> usize {
        self.planes.len()
    }

    /// The static plane-selection function: which channel/way/die/plane a logical
    /// page is placed on, independent of when it is written.
    pub fn static_placement(&self, lpn: Lpn) -> PlaneLocation {
        let g = &self.geometry;
        let mut idx = lpn.value();
        let (channel, way, die, plane) = match self.policy {
            AllocationPolicy::ChannelWayDiePlane => {
                let channel = idx % g.channels as u64;
                idx /= g.channels as u64;
                let way = idx % g.chips_per_channel as u64;
                idx /= g.chips_per_channel as u64;
                let die = idx % g.dies_per_chip as u64;
                idx /= g.dies_per_chip as u64;
                let plane = idx % g.planes_per_die as u64;
                (channel, way, die, plane)
            }
            AllocationPolicy::WayChannelDiePlane => {
                let way = idx % g.chips_per_channel as u64;
                idx /= g.chips_per_channel as u64;
                let channel = idx % g.channels as u64;
                idx /= g.channels as u64;
                let die = idx % g.dies_per_chip as u64;
                idx /= g.dies_per_chip as u64;
                let plane = idx % g.planes_per_die as u64;
                (channel, way, die, plane)
            }
            AllocationPolicy::DiePlaneChannelWay => {
                let die = idx % g.dies_per_chip as u64;
                idx /= g.dies_per_chip as u64;
                let plane = idx % g.planes_per_die as u64;
                idx /= g.planes_per_die as u64;
                let channel = idx % g.channels as u64;
                idx /= g.channels as u64;
                let way = idx % g.chips_per_channel as u64;
                (channel, way, die, plane)
            }
        };
        PlaneLocation {
            channel: channel as u32,
            way: way as u32,
            die: die as u32,
            plane: plane as u32,
        }
    }

    /// Flat plane index of a plane location.
    pub fn plane_index_of(&self, loc: PlaneLocation) -> usize {
        let g = &self.geometry;
        let chip = g.chip_index(loc.channel, loc.way);
        (chip * g.dies_per_chip + loc.die as usize) * g.planes_per_die + loc.plane as usize
    }

    /// Flat plane index of a physical page address.
    pub fn plane_index_of_addr(&self, addr: PhysicalPageAddr) -> usize {
        self.plane_index_of(PlaneLocation {
            channel: addr.channel,
            way: addr.way,
            die: addr.die,
            plane: addr.plane,
        })
    }

    /// The plane location of a flat plane index.
    pub fn plane_location(&self, plane_index: usize) -> PlaneLocation {
        let g = &self.geometry;
        let plane = (plane_index % g.planes_per_die) as u32;
        let rest = plane_index / g.planes_per_die;
        let die = (rest % g.dies_per_chip) as u32;
        let chip = rest / g.dies_per_chip;
        let loc = g.chip_location(chip);
        PlaneLocation {
            channel: loc.channel,
            way: loc.way,
            die,
            plane,
        }
    }

    /// A deterministic physical address for reads of never-written logical pages.
    /// Keeps unmapped reads exercising the same parallelism as mapped ones.
    pub fn deterministic_addr(&self, lpn: Lpn) -> PhysicalPageAddr {
        let g = &self.geometry;
        let loc = self.static_placement(lpn);
        let planes_total =
            (g.channels * g.chips_per_channel * g.dies_per_chip * g.planes_per_die) as u64;
        let seq = lpn.value() / planes_total;
        PhysicalPageAddr {
            channel: loc.channel,
            way: loc.way,
            die: loc.die,
            plane: loc.plane,
            block: (seq / g.pages_per_block as u64 % g.blocks_per_plane as u64) as u32,
            page: (seq % g.pages_per_block as u64) as u32,
        }
    }

    /// Number of free (erased, unallocated) blocks in a plane.
    pub fn free_blocks(&self, plane_index: usize) -> usize {
        self.planes[plane_index].free_blocks.len()
    }

    /// Allocates the next physical page in `plane_index`, opening a new active
    /// block from the free list when necessary.  Returns `None` when the plane has
    /// neither an active block with room nor a free block (GC must reclaim space
    /// first).
    pub fn allocate(&mut self, plane_index: usize) -> Option<PhysicalPageAddr> {
        let pages_per_block = self.geometry.pages_per_block as u32;
        let loc = self.plane_location(plane_index);
        let state = &mut self.planes[plane_index];

        if state.active_block.is_none() || state.next_page >= pages_per_block {
            let block = state.free_blocks.pop()?;
            state.in_use[block as usize] = true;
            state.active_block = Some(block);
            state.next_page = 0;
        }
        let block = state.active_block.expect("active block was just ensured");
        let page = state.next_page;
        state.next_page += 1;
        Some(PhysicalPageAddr {
            channel: loc.channel,
            way: loc.way,
            die: loc.die,
            plane: loc.plane,
            block,
            page,
        })
    }

    /// Marks the page at `addr` valid (it now holds live data).
    pub fn mark_valid(&mut self, addr: PhysicalPageAddr) {
        let plane = self.plane_index_of_addr(addr);
        let state = &mut self.planes[plane];
        let bit = 1u128 << addr.page;
        if state.valid_bits[addr.block as usize] & bit == 0 {
            state.valid_bits[addr.block as usize] |= bit;
            state.valid_count[addr.block as usize] += 1;
        }
    }

    /// Marks the page at `addr` invalid (its data was overwritten or migrated).
    pub fn mark_invalid(&mut self, addr: PhysicalPageAddr) {
        let plane = self.plane_index_of_addr(addr);
        let state = &mut self.planes[plane];
        let bit = 1u128 << addr.page;
        if state.valid_bits[addr.block as usize] & bit != 0 {
            state.valid_bits[addr.block as usize] &= !bit;
            state.valid_count[addr.block as usize] -= 1;
        }
    }

    /// Number of valid pages in `block` of `plane_index`.
    pub fn valid_pages_in_block(&self, plane_index: usize, block: u32) -> usize {
        self.planes[plane_index].valid_count[block as usize] as usize
    }

    /// The page offsets holding valid data in `block` of `plane_index`.
    pub fn valid_page_offsets(&self, plane_index: usize, block: u32) -> Vec<u32> {
        let bits = self.planes[plane_index].valid_bits[block as usize];
        (0..self.geometry.pages_per_block as u32)
            .filter(|&p| bits & (1u128 << p) != 0)
            .collect()
    }

    /// Chooses a garbage-collection victim in `plane_index`: the in-use,
    /// non-active block with the fewest valid pages (greedy policy).  Returns
    /// `None` if no block is eligible.
    pub fn victim_block(&self, plane_index: usize) -> Option<u32> {
        let state = &self.planes[plane_index];
        let mut best: Option<(u32, u16)> = None;
        for block in 0..self.geometry.blocks_per_plane as u32 {
            if !state.in_use[block as usize] {
                continue;
            }
            if state.active_block == Some(block) {
                continue;
            }
            let valid = state.valid_count[block as usize];
            match best {
                None => best = Some((block, valid)),
                Some((_, best_valid)) if valid < best_valid => best = Some((block, valid)),
                _ => {}
            }
        }
        best.map(|(block, _)| block)
    }

    /// Erases `block` in `plane_index`: clears its valid directory and returns it
    /// to the free list.
    pub fn erase_block(&mut self, plane_index: usize, block: u32) {
        let state = &mut self.planes[plane_index];
        state.valid_bits[block as usize] = 0;
        state.valid_count[block as usize] = 0;
        state.in_use[block as usize] = false;
        if state.active_block == Some(block) {
            state.active_block = None;
            state.next_page = 0;
        }
        state.free_blocks.insert(0, block);
    }

    /// Global block index of an address (used by the wear tracker).
    pub fn global_block_index(&self, addr: PhysicalPageAddr) -> usize {
        self.plane_index_of_addr(addr) * self.geometry.blocks_per_plane + addr.block as usize
    }

    /// Total number of blocks in the SSD.
    pub fn total_blocks(&self) -> usize {
        self.geometry.total_planes() * self.geometry.blocks_per_plane
    }

    /// Total valid pages across the SSD (live data footprint, in pages).
    pub fn total_valid_pages(&self) -> u64 {
        self.planes
            .iter()
            .map(|p| p.valid_count.iter().map(|&c| c as u64).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> Allocator {
        Allocator::new(
            FlashGeometry::small_test(),
            AllocationPolicy::ChannelWayDiePlane,
        )
    }

    #[test]
    fn static_placement_stripes_channels_first() {
        let a = alloc();
        let g = a.geometry().clone();
        let p0 = a.static_placement(Lpn::new(0));
        let p1 = a.static_placement(Lpn::new(1));
        let p2 = a.static_placement(Lpn::new(g.channels as u64));
        assert_eq!(p0.channel, 0);
        assert_eq!(p1.channel, 1);
        assert_eq!(p2.channel, 0);
        assert_eq!(p2.way, 1);
    }

    #[test]
    fn static_placement_policies_differ() {
        let g = FlashGeometry::small_test();
        let cwdp = Allocator::new(g.clone(), AllocationPolicy::ChannelWayDiePlane);
        let wcdp = Allocator::new(g.clone(), AllocationPolicy::WayChannelDiePlane);
        let dpcw = Allocator::new(g, AllocationPolicy::DiePlaneChannelWay);
        // LPN 1 hits channel 1 under CWDP, way 1 under WCDP, die 1 under DPCW.
        assert_eq!(cwdp.static_placement(Lpn::new(1)).channel, 1);
        assert_eq!(wcdp.static_placement(Lpn::new(1)).way, 1);
        assert_eq!(dpcw.static_placement(Lpn::new(1)).die, 1);
    }

    #[test]
    fn plane_index_roundtrip() {
        let a = alloc();
        for plane_index in 0..a.plane_count() {
            let loc = a.plane_location(plane_index);
            assert_eq!(a.plane_index_of(loc), plane_index);
        }
    }

    #[test]
    fn consecutive_lpns_spread_over_all_planes() {
        let a = alloc();
        let total = a.plane_count();
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..total as u64 {
            seen.insert(a.plane_index_of(a.static_placement(Lpn::new(lpn))));
        }
        assert_eq!(seen.len(), total, "every plane should be hit exactly once");
    }

    #[test]
    fn allocation_fills_blocks_sequentially() {
        let mut a = alloc();
        let pages_per_block = a.geometry().pages_per_block as u32;
        let first = a.allocate(0).unwrap();
        assert_eq!(first.block, 0);
        assert_eq!(first.page, 0);
        for expected_page in 1..pages_per_block {
            let addr = a.allocate(0).unwrap();
            assert_eq!(addr.block, 0);
            assert_eq!(addr.page, expected_page);
        }
        // Block 0 is now full; the next allocation opens block 1.
        let next = a.allocate(0).unwrap();
        assert_eq!(next.block, 1);
        assert_eq!(next.page, 0);
    }

    #[test]
    fn allocation_exhausts_and_returns_none() {
        let mut a = alloc();
        let g = a.geometry().clone();
        let capacity = g.blocks_per_plane * g.pages_per_block;
        for _ in 0..capacity {
            assert!(a.allocate(3).is_some());
        }
        assert!(a.allocate(3).is_none());
        assert_eq!(a.free_blocks(3), 0);
    }

    #[test]
    fn valid_accounting_and_victim_selection() {
        let mut a = alloc();
        // Fill block 0 and block 1 of plane 0 with valid pages.
        let mut addrs = Vec::new();
        for _ in 0..2 * a.geometry().pages_per_block {
            let addr = a.allocate(0).unwrap();
            a.mark_valid(addr);
            addrs.push(addr);
        }
        assert_eq!(a.valid_pages_in_block(0, 0), a.geometry().pages_per_block);
        // Invalidate most of block 0.
        for addr in addrs.iter().filter(|ad| ad.block == 0).take(6) {
            a.mark_invalid(*addr);
        }
        assert_eq!(a.valid_pages_in_block(0, 0), 2);
        // Open a third block so block 1 is not active; victim should be block 0.
        let addr = a.allocate(0).unwrap();
        assert_eq!(addr.block, 2);
        let victim = a.victim_block(0).unwrap();
        assert_eq!(victim, 0);
        let survivors = a.valid_page_offsets(0, 0);
        assert_eq!(survivors.len(), 2);
    }

    #[test]
    fn erase_returns_block_to_free_list() {
        let mut a = alloc();
        let blocks = a.geometry().blocks_per_plane;
        let addr = a.allocate(0).unwrap();
        a.mark_valid(addr);
        assert_eq!(a.free_blocks(0), blocks - 1);
        a.erase_block(0, addr.block);
        assert_eq!(a.free_blocks(0), blocks);
        assert_eq!(a.valid_pages_in_block(0, addr.block), 0);
        // After erase the block can be reused from the start.
        let fresh = a.allocate(0).unwrap();
        assert_eq!(fresh.page, 0);
    }

    #[test]
    fn double_mark_valid_is_idempotent() {
        let mut a = alloc();
        let addr = a.allocate(0).unwrap();
        a.mark_valid(addr);
        a.mark_valid(addr);
        assert_eq!(a.valid_pages_in_block(0, addr.block), 1);
        a.mark_invalid(addr);
        a.mark_invalid(addr);
        assert_eq!(a.valid_pages_in_block(0, addr.block), 0);
    }

    #[test]
    fn victim_requires_in_use_blocks() {
        let a = alloc();
        assert!(a.victim_block(0).is_none());
    }

    #[test]
    fn global_block_index_is_unique() {
        let a = alloc();
        let g = a.geometry().clone();
        let mut seen = std::collections::HashSet::new();
        for plane in 0..a.plane_count() {
            let loc = a.plane_location(plane);
            for block in 0..g.blocks_per_plane as u32 {
                let addr = PhysicalPageAddr {
                    channel: loc.channel,
                    way: loc.way,
                    die: loc.die,
                    plane: loc.plane,
                    block,
                    page: 0,
                };
                assert!(seen.insert(a.global_block_index(addr)));
            }
        }
        assert_eq!(seen.len(), a.total_blocks());
    }

    #[test]
    fn deterministic_addr_is_stable_and_in_range() {
        let a = alloc();
        let g = a.geometry().clone();
        for lpn in 0..500u64 {
            let addr = a.deterministic_addr(Lpn::new(lpn));
            assert!(g.check_addr(addr).is_ok(), "lpn {lpn} gave {addr}");
            assert_eq!(addr, a.deterministic_addr(Lpn::new(lpn)));
        }
    }

    #[test]
    fn total_valid_pages_counts_live_data() {
        let mut a = alloc();
        assert_eq!(a.total_valid_pages(), 0);
        let addr = a.allocate(0).unwrap();
        a.mark_valid(addr);
        let addr2 = a.allocate(5).unwrap();
        a.mark_valid(addr2);
        assert_eq!(a.total_valid_pages(), 2);
    }
}
