//! Per-chip commitment accounting.
//!
//! [`CommitmentLedger`] is the single bookkeeper for how many committed-but-
//! incomplete memory requests each flash chip holds.  The SSD substrate charges
//! it on every commitment, credits it on every retirement, and hands schedulers
//! a read-only view of it through
//! [`SchedulerContext`](crate::scheduler::SchedulerContext); nothing else in the
//! simulator touches the counters.
//!
//! The counters are one dense `u32` column indexed by flat chip index
//! ([`CommitmentLedger::outstanding_slice`]), so scheduler round loops read
//! chip headroom straight out of a contiguous array.
//!
//! # Invariant
//!
//! The ledger keeps one counter per chip, **`outstanding`**: committed-but-
//! incomplete memory requests, across rounds.  It is incremented by
//! [`CommitmentLedger::commit`] and decremented by
//! [`CommitmentLedger::retire`].  It never exceeds the per-chip cap and never
//! underflows: a retirement without a matching commitment is a bug and trips a
//! debug assertion rather than saturating silently.
//!
//! Headroom per chip per round is therefore the full
//! `max_committed_per_chip - outstanding`.  (The seed substrate charged a
//! per-round scratch count *on top of* `outstanding` even though `outstanding`
//! was already incremented on the same code path, double-counting same-round
//! commits and silently halving the effective over-commitment headroom FARO
//! depends on — the bug this module exists to make structurally impossible.)
//!
//! Whether a chip is running a transaction is not the ledger's fact: the SSD
//! owns each chip's live transaction.

/// The per-chip commitment ledger.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::ledger::CommitmentLedger;
///
/// let mut ledger = CommitmentLedger::new(2, 4);
/// // The full cap is available within a single round.
/// for _ in 0..4 {
///     ledger.commit(0);
/// }
/// assert_eq!(ledger.outstanding(0), 4);
/// assert_eq!(ledger.headroom(0), 0);
/// assert_eq!(ledger.headroom(1), 4);
/// ledger.retire(0);
/// assert_eq!(ledger.headroom(0), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitmentLedger {
    max_committed_per_chip: usize,
    /// Outstanding committed-but-incomplete requests per chip (dense column).
    outstanding: Vec<u32>,
}

impl CommitmentLedger {
    /// Creates a ledger for `total_chips` idle chips under the given per-chip
    /// commitment cap.
    pub fn new(total_chips: usize, max_committed_per_chip: usize) -> Self {
        debug_assert!(max_committed_per_chip > 0, "the cap must be non-zero");
        CommitmentLedger {
            max_committed_per_chip,
            outstanding: vec![0; total_chips],
        }
    }

    /// Creates a ledger with the given pre-existing outstanding counts (one per
    /// chip) — fixture support for scheduler tests and tools that need a ledger
    /// mid-flight without replaying every commitment.
    ///
    /// # Panics
    ///
    /// Panics if any count exceeds `max_committed_per_chip`: such a state is
    /// unreachable through the audited API.
    pub fn from_outstanding(max_committed_per_chip: usize, outstanding: &[usize]) -> Self {
        let mut ledger = Self::new(outstanding.len(), max_committed_per_chip);
        for (chip, &count) in outstanding.iter().enumerate() {
            assert!(
                count <= max_committed_per_chip,
                "chip {chip}: outstanding {count} exceeds the cap {max_committed_per_chip}"
            );
            ledger.outstanding[chip] = count as u32;
        }
        ledger
    }

    /// The hard cap on committed-but-incomplete memory requests per chip.
    pub fn max_committed_per_chip(&self) -> usize {
        self.max_committed_per_chip
    }

    /// Number of chips tracked.
    pub fn chip_count(&self) -> usize {
        self.outstanding.len()
    }

    /// The dense per-chip outstanding column, indexed by flat chip index — the
    /// slice scheduler round loops iterate directly.
    pub fn outstanding_slice(&self) -> &[u32] {
        &self.outstanding
    }

    /// Outstanding committed requests for a chip (0 for out-of-range indices).
    pub fn outstanding(&self, chip: usize) -> usize {
        self.outstanding.get(chip).map_or(0, |&c| c as usize)
    }

    /// Remaining commit capacity for a chip: the full cap minus `outstanding`.
    /// `outstanding` already reflects same-round commits, so this is the whole
    /// double-count fix — nothing else is charged.
    // lint: hot-path
    pub fn headroom(&self, chip: usize) -> usize {
        self.max_committed_per_chip
            .saturating_sub(self.outstanding(chip))
    }

    /// Charges one commitment to a chip.  Must only be called with headroom
    /// available; a call at zero headroom is a scheduler-enforcement bug.
    // lint: hot-path
    pub fn commit(&mut self, chip: usize) {
        debug_assert!(
            self.headroom(chip) > 0,
            "chip {chip}: commit beyond the cap of {}",
            self.max_committed_per_chip
        );
        self.outstanding[chip] += 1;
        self.audit(chip);
    }

    /// Credits one retirement (memory-request completion) to a chip.
    ///
    /// An unmatched retirement never silently saturates: it trips a debug
    /// assertion, and in release builds the counter is left at zero.
    // lint: hot-path
    pub fn retire(&mut self, chip: usize) {
        debug_assert!(
            self.outstanding(chip) > 0,
            "chip {chip}: retire without a matching commitment (outstanding underflow)"
        );
        if let Some(entry) = self.outstanding.get_mut(chip) {
            *entry = entry.saturating_sub(1);
        }
        self.audit(chip);
    }

    /// Debug-build audit: `outstanding` stays within the cap.  Compiled out
    /// of release builds.
    #[inline]
    fn audit(&self, chip: usize) {
        debug_assert!(
            self.outstanding(chip) <= self.max_committed_per_chip,
            "chip {chip}: outstanding {} exceeds the cap {}",
            self.outstanding(chip),
            self.max_committed_per_chip
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cap_is_available_within_one_round() {
        let mut ledger = CommitmentLedger::new(1, 8);
        for expected in 1..=8 {
            assert!(ledger.headroom(0) > 0);
            ledger.commit(0);
            assert_eq!(ledger.outstanding(0), expected);
        }
        // The cap binds at exactly max_committed_per_chip, not ceil(max / 2).
        assert_eq!(ledger.headroom(0), 0);
    }

    #[test]
    fn retire_credits_headroom_back() {
        let mut ledger = CommitmentLedger::new(1, 2);
        ledger.commit(0);
        ledger.commit(0);
        assert_eq!(ledger.headroom(0), 0);
        ledger.retire(0);
        assert_eq!(ledger.headroom(0), 1);
        assert_eq!(ledger.outstanding(0), 1);
        ledger.retire(0);
        assert_eq!(ledger.outstanding(0), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "underflow"))]
    fn unmatched_retire_is_an_audited_bug_not_a_saturation() {
        let mut ledger = CommitmentLedger::new(1, 2);
        ledger.retire(0);
        // Release builds keep the counter at zero instead of wrapping.
        assert_eq!(ledger.outstanding(0), 0);
        // Make the debug expectation unmistakable if the assertion is removed.
        #[cfg(debug_assertions)]
        panic!("retire must panic before reaching this point (underflow)");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "beyond the cap"))]
    fn commit_beyond_the_cap_is_an_audited_bug() {
        let mut ledger = CommitmentLedger::new(1, 1);
        ledger.commit(0);
        ledger.commit(0);
        #[cfg(debug_assertions)]
        panic!("commit must panic before reaching this point (beyond the cap)");
    }

    #[test]
    fn out_of_range_chips_are_inert() {
        let ledger = CommitmentLedger::new(3, 4);
        assert_eq!(ledger.outstanding(99), 0);
        assert_eq!(ledger.headroom(99), 4);
    }

    #[test]
    fn from_outstanding_seeds_mid_flight_state() {
        let ledger = CommitmentLedger::from_outstanding(4, &[0, 2, 4]);
        assert_eq!(ledger.chip_count(), 3);
        assert_eq!(ledger.outstanding(1), 2);
        assert_eq!(ledger.headroom(1), 2);
        assert_eq!(ledger.headroom(2), 0);
        assert_eq!(ledger.outstanding_slice(), &[0, 2, 4]);
        assert_eq!(ledger.max_committed_per_chip(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds the cap")]
    fn from_outstanding_rejects_over_cap_state() {
        let _ = CommitmentLedger::from_outstanding(2, &[3]);
    }
}
