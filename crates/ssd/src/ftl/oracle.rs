//! The FTL's address arithmetic as div/mod chains over the geometry, kept as
//! the oracle for the tables and flat page numbers that replaced it.  Page
//! numbers and addresses convert through [`FlashGeometry::ppn_of`] and
//! [`FlashGeometry::addr_of`], which are that arithmetic already.

use sprinkler_flash::{FlashGeometry, Lpn, PhysicalPageAddr};

use super::PlaneLocation;
use crate::config::AllocationPolicy;

/// The static placement of `lpn` under `policy`.
pub(super) fn static_placement(
    g: &FlashGeometry,
    policy: AllocationPolicy,
    lpn: Lpn,
) -> PlaneLocation {
    let mut idx = lpn.value();
    let (channel, way, die, plane) = match policy {
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

/// The location of a flat plane index.
pub(super) fn plane_location(g: &FlashGeometry, plane_index: usize) -> PlaneLocation {
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

/// The flat index of a plane location.
pub(super) fn plane_index_of(g: &FlashGeometry, loc: PlaneLocation) -> usize {
    let chip = g.chip_index(loc.channel, loc.way);
    (chip * g.dies_per_chip + loc.die as usize) * g.planes_per_die + loc.plane as usize
}

/// Where an unmapped read of `lpn` is served.
pub(super) fn deterministic_addr(
    g: &FlashGeometry,
    policy: AllocationPolicy,
    lpn: Lpn,
) -> PhysicalPageAddr {
    let loc = static_placement(g, policy, lpn);
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
