//! Page-level logical→physical address mapping.
//!
//! The paper's firmware uses a pure page-level mapping FTL (§5.1).  The map is
//! sparse (hash-based) so simulated SSDs with very large geometries only pay for
//! the logical footprint a workload actually touches.

use std::collections::HashMap;

use sprinkler_flash::{Lpn, Ppn};

/// Bidirectional page-level map: LPN → PPN and PPN → LPN.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::ftl::PageMap;
/// use sprinkler_flash::{Lpn, Ppn};
///
/// let mut map = PageMap::new();
/// assert!(map.lookup(Lpn::new(7)).is_none());
/// map.map(Lpn::new(7), Ppn::new(100));
/// assert_eq!(map.lookup(Lpn::new(7)), Some(Ppn::new(100)));
/// assert_eq!(map.lpn_of(Ppn::new(100)), Some(Lpn::new(7)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageMap {
    l2p: HashMap<u64, u64>,
    p2l: HashMap<u64, u64>,
}

impl PageMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped logical pages.
    pub fn len(&self) -> usize {
        self.l2p.len()
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.l2p.is_empty()
    }

    /// Looks up the physical location of a logical page.
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        self.l2p.get(&lpn.value()).copied().map(Ppn::new)
    }

    /// Reverse lookup: which logical page lives at `ppn`.
    pub fn lpn_of(&self, ppn: Ppn) -> Option<Lpn> {
        self.p2l.get(&ppn.value()).copied().map(Lpn::new)
    }

    /// Maps `lpn` to `ppn`, returning the previous physical location if the page
    /// was already mapped (that location now holds stale data and should be
    /// invalidated by the caller).
    pub fn map(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        let old = self.l2p.insert(lpn.value(), ppn.value());
        if let Some(old_ppn) = old {
            self.p2l.remove(&old_ppn);
        }
        self.p2l.insert(ppn.value(), lpn.value());
        old.map(Ppn::new)
    }

    /// Removes the mapping for `lpn`, returning its physical location.
    pub fn unmap(&mut self, lpn: Lpn) -> Option<Ppn> {
        let old = self.l2p.remove(&lpn.value());
        if let Some(old_ppn) = old {
            self.p2l.remove(&old_ppn);
        }
        old.map(Ppn::new)
    }

    /// Iterates over all (lpn, ppn) pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Lpn, Ppn)> + '_ {
        self.l2p.iter().map(|(&l, &p)| (Lpn::new(l), Ppn::new(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_has_no_entries() {
        let map = PageMap::new();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert!(map.lookup(Lpn::new(1)).is_none());
        assert!(map.lpn_of(Ppn::new(1)).is_none());
    }

    #[test]
    fn map_and_lookup_roundtrip() {
        let mut map = PageMap::new();
        assert!(map.map(Lpn::new(5), Ppn::new(50)).is_none());
        assert_eq!(map.lookup(Lpn::new(5)), Some(Ppn::new(50)));
        assert_eq!(map.lpn_of(Ppn::new(50)), Some(Lpn::new(5)));
        assert_eq!(map.len(), 1);
        assert!(!map.is_empty());
    }

    #[test]
    fn remap_returns_stale_location() {
        let mut map = PageMap::new();
        map.map(Lpn::new(5), Ppn::new(50));
        let old = map.map(Lpn::new(5), Ppn::new(99));
        assert_eq!(old, Some(Ppn::new(50)));
        assert_eq!(map.lookup(Lpn::new(5)), Some(Ppn::new(99)));
        // The stale physical page no longer reverse-maps.
        assert!(map.lpn_of(Ppn::new(50)).is_none());
        assert_eq!(map.lpn_of(Ppn::new(99)), Some(Lpn::new(5)));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn unmap_removes_both_directions() {
        let mut map = PageMap::new();
        map.map(Lpn::new(1), Ppn::new(10));
        assert_eq!(map.unmap(Lpn::new(1)), Some(Ppn::new(10)));
        assert!(map.lookup(Lpn::new(1)).is_none());
        assert!(map.lpn_of(Ppn::new(10)).is_none());
        assert!(map.unmap(Lpn::new(1)).is_none());
    }

    #[test]
    fn iter_visits_all_mappings() {
        let mut map = PageMap::new();
        for i in 0..10 {
            map.map(Lpn::new(i), Ppn::new(1000 + i));
        }
        let mut pairs: Vec<(u64, u64)> = map.iter().map(|(l, p)| (l.value(), p.value())).collect();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), 10);
        assert_eq!(pairs[0], (0, 1000));
        assert_eq!(pairs[9], (9, 1009));
    }
}
