//! Physical page allocation: striping policy, per-plane active blocks, free-block
//! order, and per-block valid-page accounting.
//!
//! The allocator implements a *static* plane-selection policy (the placement of a
//! logical page's chip/die/plane is a pure function of its LPN and the configured
//! [`AllocationPolicy`]), combined with *dynamic* block/page selection inside the
//! plane (append to the plane's active block).  Static plane selection is what lets
//! the FTL preprocessor expose a stable physical layout preview to the schedulers
//! before the data is actually written — the capability PAS and Sprinkler rely on.
//!
//! Everything is numbered flat.  A plane is its index in chip, die, plane
//! order (`(chip × dies + die) × planes_per_die + plane`), and a page is a
//! [`FlatPage`] (plane index, block, page), whose physical page number is
//! `plane × pages_per_plane + block × pages_per_block + page`, the
//! [`FlashGeometry::ppn_of`] numbering.  Two tables, built once by nested loops
//! without a division, turn flat numbers into places:
//!
//! - the location table holds each plane index's (channel, way, die, plane);
//! - the stripe table is the policy as a stripe order: entry `lpn % planes` is
//!   the plane index of the LPN's static plane.  Each policy is an order in
//!   which the four axes count up, fastest first.
//!
//! So a static placement costs one division and two table loads, and a page
//! number splits into (plane, block, page) with two divisions.
//!
//! State is flat and index-addressed.  Each plane has one [`Cursor`] (active
//! block, next page, free-block order).  Per-block state — the valid-page bitmap
//! and the in-use flag — is stored block-major (`block × planes + plane`), so a
//! fresh device, whose planes all start on block 0, touches one contiguous row.
//! The LPN each valid page holds sits beside the valid bits, like a NAND page's
//! spare area: one table per block index, allocated when a page of that block
//! index is first marked valid on any plane.  A running count of the pages
//! [`Allocator::allocate`] can still hand out lets garbage collection check,
//! before it moves anything, that every valid page of a victim has a place.

use std::fmt;

use sprinkler_flash::{FlashGeometry, Lpn, PhysicalPageAddr, Ppn};

use crate::config::AllocationPolicy;

/// The most pages a block may hold: the width of its valid-page bitmap.
pub(crate) const MAX_PAGES_PER_BLOCK: usize = u128::BITS as usize;

/// [`Cursor::active`] of a plane with no active block.
const NO_BLOCK: u32 = u32::MAX;

/// Where a plane appends, and which free block it opens next.
///
/// Free blocks go out never-used blocks lowest first, then erased blocks in
/// the order they were erased.
#[derive(Clone, Copy)]
struct Cursor {
    /// The block being appended to, or [`NO_BLOCK`].
    active: u32,
    /// Next page offset to program in the active block.
    next_page: u32,
    /// Lowest never-used block: it and every block above it are free.
    fresh: u32,
    /// Ring slot of the oldest erased block.
    erased_head: u32,
    /// Erased blocks in the ring.
    erased_len: u32,
}

/// The physical location of one plane in the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// A physical page by flat numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatPage {
    /// Flat plane index.
    pub plane: usize,
    /// Block within the plane.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
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
/// let page = alloc.allocate(alloc.plane_index_of(place)).unwrap();
/// assert_eq!((page.block, page.page), (0, 0));
/// let addr = alloc.addr_of(page);
/// assert_eq!(addr.channel, place.channel);
/// // Flat page numbers are the geometry's.
/// assert_eq!(alloc.ppn_of(page), g.ppn_of(addr));
/// assert_eq!(alloc.page_of(g.ppn_of(addr)), page);
/// alloc.mark_valid(page, Lpn::new(0));
/// assert_eq!(alloc.total_valid_pages(), 1);
/// ```
#[derive(Clone)]
pub struct Allocator {
    geometry: FlashGeometry,
    policy: AllocationPolicy,
    /// Planes in the SSD.
    planes: usize,
    /// Pages per plane and per block, for flat page numbers.
    pages_per_plane: u64,
    pages_per_block: u32,
    /// Each flat plane index's location.
    locations: Box<[PlaneLocation]>,
    /// The policy's stripe order: the flat plane index of each residue
    /// `lpn % planes`.
    stripe: Box<[u32]>,
    /// One cursor per plane.
    cursors: Vec<Cursor>,
    /// Per plane, a ring of `blocks_per_plane` slots holding its erased
    /// blocks in erase order (plane-major).
    erased: Vec<u32>,
    /// Valid-page bitmap per block, block-major.
    valid: Vec<u128>,
    /// Whether each block was handed out since its last erase, block-major.
    in_use: Vec<bool>,
    /// Per block index, the LPN held by each page (`page × planes + plane`);
    /// meaningful only where the valid bit is set.  Empty until a page of the
    /// block index is first marked valid.
    owners: Vec<Box<[u32]>>,
    /// Valid pages across the SSD.
    live: u64,
    /// Pages [`Allocator::allocate`] can still hand out: every free block's,
    /// plus the rest of each active block.
    free_pages: u64,
}

impl fmt::Debug for Allocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Allocator")
            .field("geometry", &self.geometry)
            .field("policy", &self.policy)
            .field("live_pages", &self.live)
            .field("free_pages", &self.free_pages)
            .finish_non_exhaustive()
    }
}

/// Each flat plane index's location, in flat order: one chip's (die, plane)
/// pairs, repeated with each chip's (channel, way).
fn plane_locations(g: &FlashGeometry) -> Box<[PlaneLocation]> {
    let mut chip = Vec::with_capacity(g.dies_per_chip * g.planes_per_die);
    for die in 0..g.dies_per_chip as u32 {
        chip.extend((0..g.planes_per_die as u32).map(|plane| PlaneLocation {
            channel: 0,
            way: 0,
            die,
            plane,
        }));
    }
    let mut locations = Vec::with_capacity(g.total_planes());
    for channel in 0..g.channels as u32 {
        for way in 0..g.chips_per_channel as u32 {
            locations.extend(chip.iter().map(|&loc| PlaneLocation {
                channel,
                way,
                ..loc
            }));
        }
    }
    locations.into_boxed_slice()
}

/// The policy's stripe order: the flat plane index of each residue `lpn %
/// planes`.  The residue counts up the (channel, way, die, plane) axes in
/// the policy's order, fastest first, so each policy is one order of four
/// nested loops.
fn stripe_order(g: &FlashGeometry, policy: AllocationPolicy) -> Box<[u32]> {
    // Each axis as (count, step of the flat plane index).
    let planes_per_chip = g.dies_per_chip * g.planes_per_die;
    let channel = (g.channels, g.chips_per_channel * planes_per_chip);
    let way = (g.chips_per_channel, planes_per_chip);
    let die = (g.dies_per_chip, g.planes_per_die);
    let plane = (g.planes_per_die, 1);
    let [first, second, third, fourth] = match policy {
        AllocationPolicy::ChannelWayDiePlane => [channel, way, die, plane],
        AllocationPolicy::WayChannelDiePlane => [way, channel, die, plane],
        AllocationPolicy::DiePlaneChannelWay => [die, plane, channel, way],
    };
    let mut order = Vec::with_capacity(g.total_planes());
    for i4 in 0..fourth.0 {
        for i3 in 0..third.0 {
            for i2 in 0..second.0 {
                let base = i4 * fourth.1 + i3 * third.1 + i2 * second.1;
                order.extend((0..first.0).map(|i1| (base + i1 * first.1) as u32));
            }
        }
    }
    order.into_boxed_slice()
}

impl Allocator {
    /// Creates an allocator with every block free.
    pub fn new(geometry: FlashGeometry, policy: AllocationPolicy) -> Self {
        let planes = geometry.total_planes();
        let blocks = planes * geometry.blocks_per_plane;
        let cursor = Cursor {
            active: NO_BLOCK,
            next_page: 0,
            fresh: 0,
            erased_head: 0,
            erased_len: 0,
        };
        Allocator {
            planes,
            pages_per_plane: geometry.pages_per_plane() as u64,
            pages_per_block: geometry.pages_per_block as u32,
            locations: plane_locations(&geometry),
            stripe: stripe_order(&geometry, policy),
            cursors: vec![cursor; planes],
            erased: vec![0; blocks],
            valid: vec![0; blocks],
            in_use: vec![false; blocks],
            owners: (0..geometry.blocks_per_plane)
                .map(|_| Box::default())
                .collect(),
            live: 0,
            free_pages: geometry.total_pages() as u64,
            geometry,
            policy,
        }
    }

    /// The geometry this allocator manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Total number of planes.
    pub fn plane_count(&self) -> usize {
        self.planes
    }

    /// The flat index of the plane a logical page is statically placed on:
    /// one division and a load from the stripe table.
    #[inline]
    pub fn static_plane(&self, lpn: Lpn) -> usize {
        self.stripe[(lpn.value() % self.planes as u64) as usize] as usize
    }

    /// The static plane-selection function: which channel/way/die/plane a logical
    /// page is placed on, independent of when it is written.
    pub fn static_placement(&self, lpn: Lpn) -> PlaneLocation {
        self.plane_location(self.static_plane(lpn))
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
    #[inline]
    pub fn plane_location(&self, plane_index: usize) -> PlaneLocation {
        self.locations[plane_index]
    }

    /// The flat physical page number of `page`.
    #[inline]
    pub fn ppn_of(&self, page: FlatPage) -> Ppn {
        Ppn::new(
            page.plane as u64 * self.pages_per_plane
                + u64::from(page.block) * u64::from(self.pages_per_block)
                + u64::from(page.page),
        )
    }

    /// Splits a flat physical page number into plane, block and page: two
    /// divisions.
    #[inline]
    pub fn page_of(&self, ppn: Ppn) -> FlatPage {
        let plane = ppn.value() / self.pages_per_plane;
        let within = ppn.value() - plane * self.pages_per_plane;
        let block = within / u64::from(self.pages_per_block);
        FlatPage {
            plane: plane as usize,
            block: block as u32,
            page: (within - block * u64::from(self.pages_per_block)) as u32,
        }
    }

    /// The structured address of `page`, its plane's from the location table.
    #[inline]
    pub fn addr_of(&self, page: FlatPage) -> PhysicalPageAddr {
        let loc = self.plane_location(page.plane);
        PhysicalPageAddr {
            channel: loc.channel,
            way: loc.way,
            die: loc.die,
            plane: loc.plane,
            block: page.block,
            page: page.page,
        }
    }

    /// A deterministic physical address for reads of never-written logical pages.
    /// Keeps unmapped reads exercising the same parallelism as mapped ones: the
    /// `n`-th LPN of a static plane reads its `n`-th page, wrapping at the
    /// plane's end.
    pub fn deterministic_addr(&self, lpn: Lpn) -> PhysicalPageAddr {
        let planes = self.planes as u64;
        let seq = lpn.value() / planes;
        let residue = lpn.value() - seq * planes;
        let within = seq % self.pages_per_plane;
        let block = within / u64::from(self.pages_per_block);
        self.addr_of(FlatPage {
            plane: self.stripe[residue as usize] as usize,
            block: block as u32,
            page: (within - block * u64::from(self.pages_per_block)) as u32,
        })
    }

    /// Number of free (erased, unallocated) blocks in a plane.
    pub fn free_blocks(&self, plane_index: usize) -> usize {
        let cursor = &self.cursors[plane_index];
        (self.geometry.blocks_per_plane - cursor.fresh as usize) + cursor.erased_len as usize
    }

    /// Pages [`Allocator::allocate`] can still hand out across the SSD.
    #[inline]
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Allocates the next physical page in `plane_index`, opening the next free
    /// block when the plane has no active block with room.  Returns `None` when
    /// the plane has neither (GC must reclaim space first).
    #[inline]
    pub fn allocate(&mut self, plane_index: usize) -> Option<FlatPage> {
        let blocks = self.geometry.blocks_per_plane as u32;
        let cursor = &mut self.cursors[plane_index];
        if cursor.active == NO_BLOCK || cursor.next_page >= self.pages_per_block {
            let block = if cursor.fresh < blocks {
                cursor.fresh += 1;
                cursor.fresh - 1
            } else if cursor.erased_len > 0 {
                let slot = plane_index * blocks as usize + cursor.erased_head as usize;
                cursor.erased_head += 1;
                if cursor.erased_head == blocks {
                    cursor.erased_head = 0;
                }
                cursor.erased_len -= 1;
                self.erased[slot]
            } else {
                return None;
            };
            self.in_use[block as usize * self.planes + plane_index] = true;
            cursor.active = block;
            cursor.next_page = 0;
        }
        let page = cursor.next_page;
        cursor.next_page += 1;
        self.free_pages -= 1;
        Some(FlatPage {
            plane: plane_index,
            block: cursor.active,
            page,
        })
    }

    /// Index of a block in the block-major columns.
    fn block_slot(&self, plane_index: usize, block: u32) -> usize {
        block as usize * self.planes + plane_index
    }

    /// Marks `page` valid: it now holds the live data of `lpn`.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` does not fit the `u32` spare-area entry.
    #[inline]
    pub fn mark_valid(&mut self, page: FlatPage, lpn: Lpn) {
        assert!(
            lpn.value() <= u64::from(u32::MAX),
            "{lpn:?} does not fit a u32 spare-area entry"
        );
        let slot = self.block_slot(page.plane, page.block);
        let bit = 1u128 << page.page;
        if self.valid[slot] & bit == 0 {
            self.valid[slot] |= bit;
            self.live += 1;
        }
        let owners = &mut self.owners[page.block as usize];
        if owners.is_empty() {
            *owners = vec![0; self.geometry.pages_per_block * self.planes].into_boxed_slice();
        }
        owners[page.page as usize * self.planes + page.plane] = lpn.value() as u32;
    }

    /// Marks `page` invalid (its data was overwritten or migrated).
    #[inline]
    pub fn mark_invalid(&mut self, page: FlatPage) {
        let slot = self.block_slot(page.plane, page.block);
        let bit = 1u128 << page.page;
        if self.valid[slot] & bit != 0 {
            self.valid[slot] &= !bit;
            self.live -= 1;
        }
    }

    /// The valid-page bitmap of `block` in `plane_index` (bit `p` set when
    /// page `p` holds live data).
    pub(crate) fn valid_bits(&self, plane_index: usize, block: u32) -> u128 {
        self.valid[self.block_slot(plane_index, block)]
    }

    /// Number of valid pages in `block` of `plane_index`.
    pub fn valid_pages_in_block(&self, plane_index: usize, block: u32) -> usize {
        self.valid_bits(plane_index, block).count_ones() as usize
    }

    /// The LPN whose data `page` holds; meaningful only while it is valid.
    pub(crate) fn owner(&self, page: FlatPage) -> Lpn {
        let owners = &self.owners[page.block as usize];
        Lpn::new(owners[page.page as usize * self.planes + page.plane].into())
    }

    /// Chooses a garbage-collection victim in `plane_index`: the in-use,
    /// non-active block with the fewest valid pages, lowest block first on a
    /// tie (greedy policy).  Returns `None` if no block is eligible.
    pub fn victim_block(&self, plane_index: usize) -> Option<u32> {
        let cursor = &self.cursors[plane_index];
        let mut best: Option<(u32, u32)> = None;
        // Blocks from `fresh` up have never been used.
        for block in 0..cursor.fresh {
            let slot = self.block_slot(plane_index, block);
            if !self.in_use[slot] || block == cursor.active {
                continue;
            }
            let valid = self.valid[slot].count_ones();
            if best.is_none_or(|(_, fewest)| valid < fewest) {
                best = Some((block, valid));
            }
        }
        best.map(|(block, _)| block)
    }

    /// Erases `block` in `plane_index`: clears its valid directory and queues it
    /// behind the plane's other free blocks.  A block that is already free is
    /// left as it is.
    pub fn erase_block(&mut self, plane_index: usize, block: u32) {
        let slot = self.block_slot(plane_index, block);
        if !self.in_use[slot] {
            return;
        }
        self.live -= u64::from(self.valid[slot].count_ones());
        self.valid[slot] = 0;
        self.in_use[slot] = false;
        let blocks = self.geometry.blocks_per_plane as u32;
        let cursor = &mut self.cursors[plane_index];
        // The whole block is free again; if it was the active block, the
        // pages left in it were already counted.
        self.free_pages += u64::from(self.pages_per_block);
        if cursor.active == block {
            self.free_pages -= u64::from(self.pages_per_block - cursor.next_page);
            cursor.active = NO_BLOCK;
            cursor.next_page = 0;
        }
        let mut ring = cursor.erased_head + cursor.erased_len;
        if ring >= blocks {
            ring -= blocks;
        }
        cursor.erased_len += 1;
        self.erased[plane_index * blocks as usize + ring as usize] = block;
    }

    /// Global block index of an address: its plane's index times the blocks
    /// per plane, plus its block.
    pub fn global_block_index(&self, addr: PhysicalPageAddr) -> usize {
        self.plane_index_of_addr(addr) * self.geometry.blocks_per_plane + addr.block as usize
    }

    /// Total number of blocks in the SSD.
    pub fn total_blocks(&self) -> usize {
        self.valid.len()
    }

    /// Total valid pages across the SSD (live data footprint, in pages).
    pub fn total_valid_pages(&self) -> u64 {
        self.live
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
        for lpn in 0..2 * a.geometry().pages_per_block as u64 {
            let addr = a.allocate(0).unwrap();
            a.mark_valid(addr, Lpn::new(lpn));
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
        // Pages 6 and 7 survive, and the spare area names their LPNs.
        assert_eq!(a.valid_bits(0, 0), 0b1100_0000);
        for page in [6, 7] {
            let at = FlatPage {
                plane: 0,
                block: 0,
                page,
            };
            assert_eq!(a.owner(at), Lpn::new(page.into()));
        }
        assert_eq!(
            a.total_valid_pages(),
            2 + a.geometry().pages_per_block as u64
        );
    }

    #[test]
    fn erase_returns_block_to_free_list() {
        let mut a = alloc();
        let blocks = a.geometry().blocks_per_plane;
        let addr = a.allocate(0).unwrap();
        a.mark_valid(addr, Lpn::new(0));
        assert_eq!(a.free_blocks(0), blocks - 1);
        a.erase_block(0, addr.block);
        assert_eq!(a.free_blocks(0), blocks);
        assert_eq!(a.valid_pages_in_block(0, addr.block), 0);
        assert_eq!(a.total_valid_pages(), 0);
        assert!(a.victim_block(0).is_none(), "a free block is no victim");
        // Erasing a block that is already free changes nothing.
        a.erase_block(0, addr.block);
        assert_eq!(a.free_blocks(0), blocks);
        // After erase the block can be reused from the start.
        let fresh = a.allocate(0).unwrap();
        assert_eq!(fresh.page, 0);
    }

    #[test]
    fn double_mark_valid_is_idempotent() {
        let mut a = alloc();
        let addr = a.allocate(0).unwrap();
        a.mark_valid(addr, Lpn::new(4));
        a.mark_valid(addr, Lpn::new(4));
        assert_eq!(a.valid_pages_in_block(0, addr.block), 1);
        assert_eq!(a.total_valid_pages(), 1);
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
        a.mark_valid(addr, Lpn::new(0));
        let addr2 = a.allocate(5).unwrap();
        a.mark_valid(addr2, Lpn::new(1));
        assert_eq!(a.total_valid_pages(), 2);
    }

    /// The free-page count is what `allocate` can still hand out: it falls by
    /// one a page, and an erase gives back the whole block, less what an
    /// erased active block had left.
    #[test]
    fn free_pages_count_what_allocate_can_hand_out() {
        let mut a = alloc();
        let g = a.geometry().clone();
        let total = g.total_pages() as u64;
        let pages = g.pages_per_block as u64;
        assert_eq!(a.free_pages(), total);
        for _ in 0..pages + 3 {
            a.allocate(0).unwrap();
        }
        assert_eq!(a.free_pages(), total - pages - 3);
        // Block 0 is full, block 1 is active with 3 pages programmed.
        a.erase_block(0, 0);
        assert_eq!(a.free_pages(), total - 3);
        a.erase_block(0, 1);
        assert_eq!(a.free_pages(), total);
        a.erase_block(0, 1);
        assert_eq!(a.free_pages(), total, "a free block is not counted twice");
        // Handing out every page leaves the count at zero.
        let mut handed_out = 0;
        for plane in 0..a.plane_count() {
            while a.allocate(plane).is_some() {
                handed_out += 1;
            }
        }
        assert_eq!(handed_out, total);
        assert_eq!(a.free_pages(), 0);
    }

    /// Allocates every page of plane 0, so the plane holds no free block.
    fn fill_plane(a: &mut Allocator) {
        let g = a.geometry().clone();
        for _ in 0..g.blocks_per_plane * g.pages_per_block {
            a.allocate(0).unwrap();
        }
        assert_eq!(a.free_blocks(0), 0);
    }

    /// Every byte-identical figure depends on this order: never-used blocks go
    /// out lowest first, then erased blocks in the order they were erased.
    #[test]
    fn free_blocks_are_reused_fresh_ascending_then_in_erase_order() {
        let mut a = alloc();
        let g = a.geometry().clone();
        let pages = g.pages_per_block;
        // Open blocks 0..3 in ascending order.
        for expected in 0..3u32 {
            for page in 0..pages {
                let addr = a.allocate(0).unwrap();
                assert_eq!((addr.block, addr.page), (expected, page as u32));
            }
        }
        // Erasing a used block queues it behind every never-used block.
        a.erase_block(0, 1);
        for expected in 3..g.blocks_per_plane as u32 {
            assert_eq!(a.allocate(0).unwrap().block, expected);
            for _ in 1..pages {
                a.allocate(0).unwrap();
            }
        }
        assert_eq!(a.allocate(0).unwrap().block, 1);
        for _ in 1..pages {
            a.allocate(0).unwrap();
        }
        assert!(a.allocate(0).is_none());

        // On a full plane, erased blocks come back in erase order, not block
        // order, and the ring wraps.
        let mut a = alloc();
        fill_plane(&mut a);
        let order = [5u32, 2, 7, 0, 3];
        for &block in &order {
            a.erase_block(0, block);
        }
        for round in 0..3 {
            for &block in &order {
                let addr = a.allocate(0).unwrap();
                assert_eq!((addr.block, addr.page), (block, 0), "round {round}");
                for _ in 1..pages {
                    a.allocate(0).unwrap();
                }
                a.erase_block(0, block);
            }
        }
    }
}
