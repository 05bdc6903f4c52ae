//! SSD / NAND flash geometry description.

use crate::address::{ChipLocation, PhysicalPageAddr, Ppn};
use crate::error::FlashError;

/// Describes the physical layout of an SSD's flash array: channels, chips per
/// channel (ways), dies per chip, planes per die, blocks per plane, pages per block,
/// and the page size in bytes.
///
/// The paper's evaluation platform (§5.1) uses ONFI 2.x channels, chips with two
/// dies and four planes, 8,192 blocks per die (2,048 per plane), 128 pages per
/// block, and 2 KB pages; the chip count varies from 64 (8 channels) to 1,024
/// (32 channels).  [`FlashGeometry::paper_default`] reproduces the 64-chip baseline.
///
/// # Example
///
/// ```
/// use sprinkler_flash::FlashGeometry;
///
/// let g = FlashGeometry::paper_default();
/// assert_eq!(g.total_chips(), 64);
/// assert_eq!(g.dies_per_chip, 2);
/// assert_eq!(g.planes_per_die, 4);
/// assert_eq!(g.page_size, 2048);
///
/// let big = g.with_chip_count(1024);
/// assert_eq!(big.total_chips(), 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Number of independent channels (shared data paths).
    pub channels: usize,
    /// Chips attached to each channel ("ways").
    pub chips_per_channel: usize,
    /// Dies within a chip (independent memory islands behind one interface).
    pub dies_per_chip: usize,
    /// Planes within a die (share the wordline / voltage drivers).
    pub planes_per_die: usize,
    /// Blocks within a plane (the erase unit).
    pub blocks_per_plane: usize,
    /// Pages within a block (the program unit).
    pub pages_per_block: usize,
    /// Page size in bytes (the atomic flash I/O unit of the paper).
    pub page_size: usize,
}

impl Default for FlashGeometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl FlashGeometry {
    /// The 64-chip configuration used as the paper's baseline platform: 8 channels
    /// × 8 chips, 2 dies × 4 planes per chip, 2,048 blocks per plane (8,192 per
    /// die), 128 pages per block, 2 KB pages.
    pub fn paper_default() -> Self {
        FlashGeometry {
            channels: 8,
            chips_per_channel: 8,
            dies_per_chip: 2,
            planes_per_die: 4,
            blocks_per_plane: 2048,
            pages_per_block: 128,
            page_size: 2048,
        }
    }

    /// A deliberately tiny geometry for unit tests: 2 channels × 2 chips, 2 dies ×
    /// 2 planes, 8 blocks per plane, 8 pages per block, 2 KB pages.
    pub fn small_test() -> Self {
        FlashGeometry {
            channels: 2,
            chips_per_channel: 2,
            dies_per_chip: 2,
            planes_per_die: 2,
            blocks_per_plane: 8,
            pages_per_block: 8,
            page_size: 2048,
        }
    }

    /// Returns a copy with a different channel count.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Returns a copy with a different number of chips per channel.
    pub fn with_chips_per_channel(mut self, ways: usize) -> Self {
        self.chips_per_channel = ways;
        self
    }

    /// Returns a copy with a different number of blocks per plane.  Experiments use
    /// this to keep simulated capacity (and GC working-set size) tractable.
    pub fn with_blocks_per_plane(mut self, blocks: usize) -> Self {
        self.blocks_per_plane = blocks;
        self
    }

    /// Returns a copy reconfigured to hold `chips` total flash chips, spreading
    /// them over channels of at most 32 chips each, mirroring the paper's scaling
    /// from 64 chips (8 channels) to 1,024 chips (32 channels).
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    pub fn with_chip_count(mut self, chips: usize) -> Self {
        assert!(chips > 0, "chip count must be non-zero");
        // Mirror the paper: channel count grows with the chip population, with
        // 8..=32 chips attached per channel.
        let mut channels = 8usize;
        while chips / channels > 32 {
            channels *= 2;
        }
        while channels > 1 && chips < channels {
            channels /= 2;
        }
        self.channels = channels;
        self.chips_per_channel = chips.div_ceil(channels);
        self
    }

    /// Validates the geometry, returning an error naming the first zero field.
    pub fn validate(&self) -> Result<(), FlashError> {
        let fields = [
            ("channels", self.channels),
            ("chips_per_channel", self.chips_per_channel),
            ("dies_per_chip", self.dies_per_chip),
            ("planes_per_die", self.planes_per_die),
            ("blocks_per_plane", self.blocks_per_plane),
            ("pages_per_block", self.pages_per_block),
            ("page_size", self.page_size),
        ];
        for (name, value) in fields {
            if value == 0 {
                return Err(FlashError::InvalidGeometry { field: name });
            }
        }
        Ok(())
    }

    /// Total number of flash chips in the SSD.
    pub fn total_chips(&self) -> usize {
        self.channels * self.chips_per_channel
    }

    /// Total number of dies in the SSD.
    pub fn total_dies(&self) -> usize {
        self.total_chips() * self.dies_per_chip
    }

    /// Total number of planes in the SSD.
    pub fn total_planes(&self) -> usize {
        self.total_dies() * self.planes_per_die
    }

    /// Pages per plane.
    pub fn pages_per_plane(&self) -> usize {
        self.blocks_per_plane * self.pages_per_block
    }

    /// Pages per die.
    pub fn pages_per_die(&self) -> usize {
        self.pages_per_plane() * self.planes_per_die
    }

    /// Pages per chip.
    pub fn pages_per_chip(&self) -> usize {
        self.pages_per_die() * self.dies_per_chip
    }

    /// Total number of physical pages in the SSD.
    pub fn total_pages(&self) -> usize {
        self.pages_per_chip() * self.total_chips()
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() as u64 * self.page_size as u64
    }

    /// Flat chip index for a `(channel, way)` pair.
    pub fn chip_index(&self, channel: u32, way: u32) -> usize {
        channel as usize * self.chips_per_channel + way as usize
    }

    /// The `(channel, way)` location of a flat chip index.
    pub fn chip_location(&self, chip_index: usize) -> ChipLocation {
        ChipLocation {
            channel: (chip_index / self.chips_per_channel) as u32,
            way: (chip_index % self.chips_per_channel) as u32,
        }
    }

    /// Convenience constructor for a [`PhysicalPageAddr`] in this geometry.
    pub fn page_addr(
        &self,
        channel: u32,
        way: u32,
        die: u32,
        plane: u32,
        block: u32,
        page: u32,
    ) -> PhysicalPageAddr {
        PhysicalPageAddr {
            channel,
            way,
            die,
            plane,
            block,
            page,
        }
    }

    /// Checks that an address lies within this geometry.
    pub fn check_addr(&self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        let checks = [
            ("channel", addr.channel as usize, self.channels),
            ("way", addr.way as usize, self.chips_per_channel),
            ("die", addr.die as usize, self.dies_per_chip),
            ("plane", addr.plane as usize, self.planes_per_die),
            ("block", addr.block as usize, self.blocks_per_plane),
            ("page", addr.page as usize, self.pages_per_block),
        ];
        for (field, value, bound) in checks {
            if value >= bound {
                return Err(FlashError::AddressOutOfRange { addr, field });
            }
        }
        Ok(())
    }

    /// Converts a physical page address to a flat physical page number.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the address is out of range; use
    /// [`FlashGeometry::check_addr`] to validate first.
    pub fn ppn_of(&self, addr: PhysicalPageAddr) -> Ppn {
        debug_assert!(
            self.check_addr(addr).is_ok(),
            "address out of range: {addr}"
        );
        let chip = self.chip_index(addr.channel, addr.way) as u64;
        let within_chip = ((addr.die as u64 * self.planes_per_die as u64 + addr.plane as u64)
            * self.blocks_per_plane as u64
            + addr.block as u64)
            * self.pages_per_block as u64
            + addr.page as u64;
        Ppn::new(chip * self.pages_per_chip() as u64 + within_chip)
    }

    /// Converts a flat physical page number back to a structured address.
    pub fn addr_of(&self, ppn: Ppn) -> PhysicalPageAddr {
        let pages_per_chip = self.pages_per_chip() as u64;
        let chip = ppn.value() / pages_per_chip;
        let mut rest = ppn.value() % pages_per_chip;
        let page = (rest % self.pages_per_block as u64) as u32;
        rest /= self.pages_per_block as u64;
        let block = (rest % self.blocks_per_plane as u64) as u32;
        rest /= self.blocks_per_plane as u64;
        let plane = (rest % self.planes_per_die as u64) as u32;
        let die = (rest / self.planes_per_die as u64) as u32;
        let location = self.chip_location(chip as usize);
        PhysicalPageAddr {
            channel: location.channel,
            way: location.way,
            die,
            plane,
            block,
            page,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_published_configuration() {
        let g = FlashGeometry::paper_default();
        assert_eq!(g.channels, 8);
        assert_eq!(g.total_chips(), 64);
        assert_eq!(g.dies_per_chip, 2);
        assert_eq!(g.planes_per_die, 4);
        // 8,192 blocks per die = 2,048 per plane × 4 planes.
        assert_eq!(g.blocks_per_plane * g.planes_per_die, 8192);
        assert_eq!(g.pages_per_block, 128);
        assert_eq!(g.page_size, 2048);
        g.validate().unwrap();
    }

    #[test]
    fn derived_counts_are_consistent() {
        let g = FlashGeometry::small_test();
        assert_eq!(g.total_chips(), 4);
        assert_eq!(g.total_dies(), 8);
        assert_eq!(g.total_planes(), 16);
        assert_eq!(g.pages_per_plane(), 64);
        assert_eq!(g.pages_per_die(), 128);
        assert_eq!(g.pages_per_chip(), 256);
        assert_eq!(g.total_pages(), 1024);
        assert_eq!(g.capacity_bytes(), 1024 * 2048);
    }

    #[test]
    fn with_chip_count_spreads_over_channels() {
        let g = FlashGeometry::paper_default();
        for chips in [64usize, 128, 256, 512, 1024] {
            let scaled = g.clone().with_chip_count(chips);
            assert_eq!(scaled.total_chips(), chips, "chips={chips}");
            assert!(scaled.chips_per_channel <= 32);
            assert!(scaled.channels >= 8);
        }
        let tiny = g.with_chip_count(4);
        assert_eq!(tiny.total_chips(), 4);
    }

    #[test]
    fn builder_style_modifiers() {
        let g = FlashGeometry::paper_default()
            .with_channels(16)
            .with_chips_per_channel(4)
            .with_blocks_per_plane(64);
        assert_eq!(g.channels, 16);
        assert_eq!(g.chips_per_channel, 4);
        assert_eq!(g.blocks_per_plane, 64);
        assert_eq!(g.total_chips(), 64);
    }

    #[test]
    fn validate_rejects_zero_fields() {
        let mut g = FlashGeometry::small_test();
        g.planes_per_die = 0;
        assert_eq!(
            g.validate(),
            Err(FlashError::InvalidGeometry {
                field: "planes_per_die"
            })
        );
    }

    #[test]
    fn chip_index_roundtrip() {
        let g = FlashGeometry::paper_default();
        for chip in 0..g.total_chips() {
            let loc = g.chip_location(chip);
            assert_eq!(g.chip_index(loc.channel, loc.way), chip);
        }
    }

    #[test]
    fn check_addr_bounds() {
        let g = FlashGeometry::small_test();
        assert!(g.check_addr(g.page_addr(0, 0, 0, 0, 0, 0)).is_ok());
        assert!(g.check_addr(g.page_addr(1, 1, 1, 1, 7, 7)).is_ok());
        let bad = g.page_addr(0, 0, 2, 0, 0, 0);
        assert!(matches!(
            g.check_addr(bad),
            Err(FlashError::AddressOutOfRange { field: "die", .. })
        ));
        let bad = g.page_addr(2, 0, 0, 0, 0, 0);
        assert!(matches!(
            g.check_addr(bad),
            Err(FlashError::AddressOutOfRange {
                field: "channel",
                ..
            })
        ));
    }

    #[test]
    fn ppn_roundtrip_covers_all_pages() {
        let g = FlashGeometry::small_test();
        let mut seen = std::collections::HashSet::new();
        for channel in 0..g.channels as u32 {
            for way in 0..g.chips_per_channel as u32 {
                for die in 0..g.dies_per_chip as u32 {
                    for plane in 0..g.planes_per_die as u32 {
                        for block in 0..g.blocks_per_plane as u32 {
                            for page in 0..g.pages_per_block as u32 {
                                let addr = g.page_addr(channel, way, die, plane, block, page);
                                let ppn = g.ppn_of(addr);
                                assert!(seen.insert(ppn), "duplicate ppn for {addr}");
                                assert_eq!(g.addr_of(ppn), addr);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), g.total_pages());
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(FlashGeometry::default(), FlashGeometry::paper_default());
    }
}
