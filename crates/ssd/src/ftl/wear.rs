//! Block erase (wear) accounting.

/// Tracks per-block erase counts and summarizes wear across the SSD.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::ftl::WearTracker;
///
/// let mut wear = WearTracker::new(4);
/// wear.record_erase(1);
/// wear.record_erase(1);
/// wear.record_erase(2);
/// assert_eq!(wear.count(1), 2);
/// assert_eq!(wear.max(), 2);
/// assert_eq!(wear.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearTracker {
    counts: Vec<u32>,
    total: u64,
}

impl WearTracker {
    /// Creates a tracker for `blocks` blocks, all with zero erases.
    pub fn new(blocks: usize) -> Self {
        WearTracker {
            counts: vec![0; blocks],
            total: 0,
        }
    }

    /// Number of tracked blocks.
    pub fn blocks(&self) -> usize {
        self.counts.len()
    }

    /// Records an erase of the block at `block_index`.
    pub fn record_erase(&mut self, block_index: usize) {
        self.counts[block_index] += 1;
        self.total += 1;
    }

    /// Erase count of one block.
    pub fn count(&self, block_index: usize) -> u32 {
        self.counts[block_index]
    }

    /// Total erases across all blocks.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Highest per-block erase count.
    pub fn max(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Lowest per-block erase count.
    pub fn min(&self) -> u32 {
        self.counts.iter().copied().min().unwrap_or(0)
    }

    /// Mean per-block erase count.
    pub fn mean(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.total as f64 / self.counts.len() as f64
    }

    /// The wear imbalance: max − min erase count.  A perfectly wear-levelled SSD
    /// keeps this small.
    pub fn imbalance(&self) -> u32 {
        self.max().saturating_sub(self.min())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tracker_is_zeroed() {
        let wear = WearTracker::new(8);
        assert_eq!(wear.blocks(), 8);
        assert_eq!(wear.total(), 0);
        assert_eq!(wear.max(), 0);
        assert_eq!(wear.min(), 0);
        assert_eq!(wear.mean(), 0.0);
        assert_eq!(wear.imbalance(), 0);
    }

    #[test]
    fn erases_accumulate_per_block() {
        let mut wear = WearTracker::new(4);
        wear.record_erase(0);
        wear.record_erase(0);
        wear.record_erase(3);
        assert_eq!(wear.count(0), 2);
        assert_eq!(wear.count(1), 0);
        assert_eq!(wear.count(3), 1);
        assert_eq!(wear.total(), 3);
        assert_eq!(wear.max(), 2);
        assert_eq!(wear.min(), 0);
        assert_eq!(wear.imbalance(), 2);
        assert!((wear.mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_is_safe() {
        let wear = WearTracker::new(0);
        assert_eq!(wear.max(), 0);
        assert_eq!(wear.mean(), 0.0);
    }
}
