//! Page-level logical→physical address mapping.
//!
//! The paper's firmware uses a pure page-level mapping FTL (§5.1).  The forward
//! map is a dense table of `u32` entries indexed by LPN, cut into 64 Ki-LPN
//! chunks that are allocated on the first write into them: a lookup is two
//! indexed loads, and a workload pays memory only for the chunks its writes
//! touch.  The reverse direction (PPN → LPN, read only by garbage collection)
//! lives beside the allocator's per-block valid bits, like a NAND page's spare
//! area.

use std::fmt;

use sprinkler_flash::{Lpn, Ppn};

/// log2 of the LPNs one chunk covers.
const CHUNK_BITS: u32 = 16;
/// LPNs per chunk: 64 Ki entries, 256 KiB.
const CHUNK_LPNS: u64 = 1 << CHUNK_BITS;

/// Forward page map (LPN → PPN) over a fixed logical space of `0..lpns`.
///
/// An entry holds `ppn + 1`, so a fresh (zeroed) chunk maps nothing.  PPNs
/// must be below `u32::MAX`; `SsdConfig::validate` rejects geometries whose
/// page count does not fit.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::ftl::PageMap;
/// use sprinkler_flash::{Lpn, Ppn};
///
/// let mut map = PageMap::new(1024);
/// assert!(map.lookup(Lpn::new(7)).is_none());
/// assert_eq!(map.map(Lpn::new(7), Ppn::new(100)), None);
/// assert_eq!(map.lookup(Lpn::new(7)), Some(Ppn::new(100)));
/// // A remap returns the stale location.
/// assert_eq!(map.map(Lpn::new(7), Ppn::new(5)), Some(Ppn::new(100)));
/// // LPNs past the logical space are never mapped.
/// assert!(!map.covers(Lpn::new(1024)));
/// assert!(map.lookup(Lpn::new(1024)).is_none());
/// ```
#[derive(Clone)]
pub struct PageMap {
    /// Chunk directory; an empty chunk has never been written.
    chunks: Vec<Box<[u32]>>,
    /// Size of the logical space, in pages.
    lpns: u64,
    /// Mapped LPNs.
    len: usize,
}

impl fmt::Debug for PageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageMap")
            .field("lpns", &self.lpns)
            .field("mapped", &self.len)
            .field(
                "chunks_allocated",
                &self.chunks.iter().filter(|c| !c.is_empty()).count(),
            )
            .finish()
    }
}

impl PageMap {
    /// Creates an empty map over the logical space `0..lpns`.
    pub fn new(lpns: u64) -> Self {
        PageMap {
            chunks: (0..lpns.div_ceil(CHUNK_LPNS))
                .map(|_| Box::default())
                .collect(),
            lpns,
            len: 0,
        }
    }

    /// Number of mapped logical pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `lpn` lies inside the logical space.
    #[inline]
    pub fn covers(&self, lpn: Lpn) -> bool {
        lpn.value() < self.lpns
    }

    /// Looks up the physical location of a logical page.
    #[inline]
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        let chunk = self.chunks.get((lpn.value() >> CHUNK_BITS) as usize)?;
        let entry = *chunk.get((lpn.value() % CHUNK_LPNS) as usize)?;
        entry.checked_sub(1).map(|ppn| Ppn::new(ppn.into()))
    }

    /// Maps `lpn` to `ppn`, returning the previous physical location if the page
    /// was already mapped (that location now holds stale data and should be
    /// invalidated by the caller).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` lies outside the logical space (see [`PageMap::covers`])
    /// or `ppn` is not below `u32::MAX`.
    #[inline]
    pub fn map(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        assert!(
            ppn.value() < u64::from(u32::MAX),
            "{ppn:?} does not fit a u32 map entry"
        );
        let index = (lpn.value() >> CHUNK_BITS) as usize;
        let chunk = &mut self.chunks[index];
        if chunk.is_empty() {
            let start = index as u64 * CHUNK_LPNS;
            *chunk = vec![0; (self.lpns - start).min(CHUNK_LPNS) as usize].into_boxed_slice();
        }
        let entry = &mut chunk[(lpn.value() % CHUNK_LPNS) as usize];
        let old = std::mem::replace(entry, ppn.value() as u32 + 1);
        if old == 0 {
            self.len += 1;
        }
        old.checked_sub(1).map(|old| Ppn::new(old.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_has_no_entries() {
        let map = PageMap::new(1 << 20);
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert!(map.lookup(Lpn::new(1)).is_none());
        assert!(
            map.chunks.iter().all(|c| c.is_empty()),
            "reads allocate nothing"
        );
    }

    #[test]
    fn map_and_lookup_roundtrip() {
        let mut map = PageMap::new(1 << 20);
        assert!(map.map(Lpn::new(5), Ppn::new(50)).is_none());
        assert_eq!(map.lookup(Lpn::new(5)), Some(Ppn::new(50)));
        // PPN 0 is a real location, distinct from "unmapped".
        assert!(map.map(Lpn::new(700_000), Ppn::new(0)).is_none());
        assert_eq!(map.lookup(Lpn::new(700_000)), Some(Ppn::new(0)));
        assert_eq!(map.len(), 2);
        assert!(!map.is_empty());
        // Only the two touched chunks exist.
        assert_eq!(map.chunks.iter().filter(|c| !c.is_empty()).count(), 2);
    }

    #[test]
    fn remap_returns_stale_location() {
        let mut map = PageMap::new(64);
        map.map(Lpn::new(5), Ppn::new(50));
        let old = map.map(Lpn::new(5), Ppn::new(99));
        assert_eq!(old, Some(Ppn::new(50)));
        assert_eq!(map.lookup(Lpn::new(5)), Some(Ppn::new(99)));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn logical_space_bounds_lookups_and_the_last_chunk() {
        let lpns = CHUNK_LPNS + 10;
        let mut map = PageMap::new(lpns);
        assert!(map.covers(Lpn::new(lpns - 1)));
        assert!(!map.covers(Lpn::new(lpns)));
        map.map(Lpn::new(lpns - 1), Ppn::new(3));
        assert_eq!(
            map.chunks[1].len(),
            10,
            "the last chunk is cut to the space"
        );
        assert!(map.lookup(Lpn::new(lpns)).is_none());
        assert!(map.lookup(Lpn::new(u64::MAX)).is_none());
    }
}
