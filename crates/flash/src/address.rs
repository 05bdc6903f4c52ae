//! Logical and physical flash addressing.

use std::fmt;

/// A logical page number: the host-visible (virtual) address space, in units of one
/// flash page.
///
/// # Example
///
/// ```
/// use sprinkler_flash::Lpn;
///
/// let lpn = Lpn::new(42);
/// assert_eq!(lpn.value(), 42);
/// assert_eq!(lpn.offset(3).value(), 45);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lpn(u64);

impl Lpn {
    /// Wraps a raw logical page number.
    pub const fn new(value: u64) -> Self {
        Lpn(value)
    }

    /// The raw value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns this LPN shifted forward by `pages`.
    pub const fn offset(self, pages: u64) -> Self {
        Lpn(self.0 + pages)
    }
}

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A flat physical page number, unique across the whole SSD.
///
/// Use [`crate::FlashGeometry::ppn_of`] / [`crate::FlashGeometry::addr_of`] to
/// convert between [`Ppn`] and [`PhysicalPageAddr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(u64);

impl Ppn {
    /// Wraps a raw physical page number.
    pub const fn new(value: u64) -> Self {
        Ppn(value)
    }

    /// The raw value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies a flash chip by its channel and its position ("way") on that channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipLocation {
    /// Channel index.
    pub channel: u32,
    /// Position of the chip within the channel.
    pub way: u32,
}

impl fmt::Display for ChipLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}w{}", self.channel, self.way)
    }
}

/// A fully qualified physical page address: channel, way (chip within the channel),
/// die, plane, block, and page.
///
/// # Example
///
/// ```
/// use sprinkler_flash::{FlashGeometry, PhysicalPageAddr};
///
/// let g = FlashGeometry::small_test();
/// let addr = g.page_addr(1, 0, 1, 1, 3, 5);
/// assert_eq!(addr.chip(), g.chip_location(g.chip_index(1, 0)));
/// assert_eq!(g.addr_of(g.ppn_of(addr)), addr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysicalPageAddr {
    /// Channel index.
    pub channel: u32,
    /// Chip position within the channel.
    pub way: u32,
    /// Die index within the chip.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl PhysicalPageAddr {
    /// The chip this page lives on.
    pub fn chip(&self) -> ChipLocation {
        ChipLocation {
            channel: self.channel,
            way: self.way,
        }
    }
}

impl fmt::Display for PhysicalPageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}w{}d{}p{}b{}pg{}",
            self.channel, self.way, self.die, self.plane, self.block, self.page
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;

    #[test]
    fn lpn_basics() {
        let lpn = Lpn::new(10);
        assert_eq!(lpn.value(), 10);
        assert_eq!(lpn.offset(5), Lpn::new(15));
        assert_eq!(lpn.to_string(), "L10");
        assert!(Lpn::new(1) < Lpn::new(2));
    }

    #[test]
    fn ppn_basics() {
        let ppn = Ppn::new(77);
        assert_eq!(ppn.value(), 77);
        assert_eq!(ppn.to_string(), "P77");
    }

    #[test]
    fn chip_location_display() {
        let loc = ChipLocation { channel: 3, way: 1 };
        assert_eq!(loc.to_string(), "ch3w1");
    }

    #[test]
    fn addr_display_is_compact() {
        let g = FlashGeometry::small_test();
        let a = g.page_addr(1, 0, 1, 1, 7, 2);
        assert_eq!(a.to_string(), "ch1w0d1p1b7pg2");
    }
}
