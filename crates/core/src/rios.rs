//! RIOS — Resource-driven I/O Scheduling (§4.1).
//!
//! RIOS composes and commits memory requests per *flash chip* rather than per host
//! I/O request.  To avoid serializing on any single channel bus, it visits the
//! chips that share the same offset (way) in each channel across all channels
//! first, then increases the offset — so consecutive commitments stripe across
//! channels (channel stripping) and successive offsets pipeline within each channel
//! (channel pipelining).

use sprinkler_flash::FlashGeometry;

/// The chip visit order used by RIOS.
///
/// # Example
///
/// ```
/// use sprinkler_core::RiosTraversal;
/// use sprinkler_flash::FlashGeometry;
///
/// // 2 channels × 2 chips: visit way 0 of both channels, then way 1 of both.
/// let t = RiosTraversal::new(&FlashGeometry::small_test());
/// assert_eq!(t.order(), &[0, 2, 1, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiosTraversal {
    order: Vec<usize>,
    /// Inverse permutation: `position[chip]` is the visit rank of `chip`.
    position: Vec<usize>,
}

impl RiosTraversal {
    /// Builds the traversal order for a geometry.
    pub fn new(geometry: &FlashGeometry) -> Self {
        let mut order = Vec::with_capacity(geometry.total_chips());
        for way in 0..geometry.chips_per_channel {
            for channel in 0..geometry.channels {
                order.push(geometry.chip_index(channel as u32, way as u32));
            }
        }
        let mut position = vec![0; order.len()];
        for (rank, &chip) in order.iter().enumerate() {
            position[chip] = rank;
        }
        RiosTraversal { order, position }
    }

    /// The flat chip indices in visit order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The visit rank of a chip: `order()[position(chip)] == chip`.  Lets sparse
    /// chip sets be visited in traversal order without walking all chips.
    /// Returns `None` for chips outside the geometry.
    pub fn position(&self, chip: usize) -> Option<usize> {
        self.position.get(chip).copied()
    }

    /// The whole inverse permutation as a slice (`positions()[chip]` is the
    /// visit rank of `chip`), for hot loops that look up many chips per round
    /// without the per-call `Option`.
    pub fn positions(&self) -> &[usize] {
        &self.position
    }

    /// Number of chips covered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the traversal covers no chips.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates the chips in visit order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_chip_exactly_once() {
        let g = FlashGeometry::paper_default();
        let t = RiosTraversal::new(&g);
        assert_eq!(t.len(), g.total_chips());
        assert!(!t.is_empty());
        let mut sorted: Vec<usize> = t.iter().collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..g.total_chips()).collect::<Vec<_>>());
    }

    #[test]
    fn position_is_the_inverse_of_order() {
        let g = FlashGeometry::paper_default();
        let t = RiosTraversal::new(&g);
        for (rank, &chip) in t.order().iter().enumerate() {
            assert_eq!(t.position(chip), Some(rank));
        }
        assert_eq!(t.position(g.total_chips()), None);
    }

    #[test]
    fn same_offset_chips_come_before_the_next_offset() {
        let g = FlashGeometry::paper_default();
        let t = RiosTraversal::new(&g);
        let channels = g.channels;
        // The first `channels` visited chips must all be way 0, one per channel.
        let first: Vec<usize> = t.iter().take(channels).collect();
        for (i, &chip) in first.iter().enumerate() {
            let loc = g.chip_location(chip);
            assert_eq!(loc.way, 0);
            assert_eq!(loc.channel as usize, i);
        }
        // The next block is way 1.
        let second: Vec<usize> = t.iter().skip(channels).take(channels).collect();
        for &chip in &second {
            assert_eq!(g.chip_location(chip).way, 1);
        }
    }

    #[test]
    fn consecutive_visits_use_different_channels() {
        let g = FlashGeometry::paper_default();
        let t = RiosTraversal::new(&g);
        for pair in t.order().windows(2) {
            let a = g.chip_location(pair[0]);
            let b = g.chip_location(pair[1]);
            assert_ne!(
                (a.channel, a.way),
                (b.channel, b.way),
                "traversal must never repeat a chip back-to-back"
            );
        }
    }
}
