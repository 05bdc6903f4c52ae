//! Per-chip commitment and occupancy accounting.
//!
//! [`CommitmentLedger`] is the single bookkeeper for how many committed-but-
//! incomplete memory requests each flash chip holds.  The SSD substrate charges
//! it on every commitment, credits it on every retirement, and hands schedulers
//! a read-only view of it through
//! [`SchedulerContext`](crate::scheduler::SchedulerContext); nothing else in the
//! simulator touches the counters.
//!
//! The counters are stored struct-of-arrays — one dense `u32` slice of
//! outstanding counts indexed by flat chip index ([`CommitmentLedger::
//! outstanding_slice`]) plus a parallel busy-flag vector — so scheduler round
//! loops read chip headroom straight out of a contiguous array instead of
//! striding over per-chip record structs.
//!
//! # Invariants
//!
//! The ledger keeps two counters per chip and they are *never* conflated:
//!
//! * **`outstanding`** — committed-but-incomplete memory requests, across
//!   rounds.  Incremented by [`CommitmentLedger::commit`], decremented by
//!   [`CommitmentLedger::retire`].  It never exceeds the per-chip cap and never
//!   underflows: a retirement without a matching commitment is a bug and trips a
//!   debug assertion rather than saturating silently.
//! * **`committed_in_round`** — commitments made since the last
//!   [`CommitmentLedger::begin_round`].  Purely observational: it audits round
//!   behavior, it is *not* charged against the cap.
//!
//! Headroom per chip per round is therefore the full
//! `max_committed_per_chip - outstanding`.  (The seed substrate charged the
//! per-round scratch *on top of* `outstanding` even though `outstanding` was
//! already incremented on the same code path, double-counting same-round
//! commits and silently halving the effective over-commitment headroom FARO
//! depends on — the bug this module exists to make structurally impossible.)

/// Occupancy of one flash chip, as visible to the scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChipOccupancy {
    /// Flat chip index.
    pub chip: usize,
    /// True while the chip is executing a flash transaction.
    pub busy: bool,
    /// Committed host memory requests that have not completed yet (in DMA,
    /// pending at the controller, executing, or returning data).
    pub outstanding: usize,
}

/// The per-chip commitment ledger.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::ledger::CommitmentLedger;
///
/// let mut ledger = CommitmentLedger::new(2, 4);
/// ledger.begin_round();
/// // The full cap is available within a single round.
/// for _ in 0..4 {
///     ledger.commit(0);
/// }
/// assert_eq!(ledger.outstanding(0), 4);
/// assert_eq!(ledger.committed_in_round(0), 4);
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
    /// Busy flag per chip (parallel column).
    busy: Vec<bool>,
    /// Per-round commit counts; only the chips listed in `round_dirty` hold
    /// non-zero entries between rounds.
    round_committed: Vec<usize>,
    round_dirty: Vec<usize>,
}

impl CommitmentLedger {
    /// Creates a ledger for `total_chips` idle chips under the given per-chip
    /// commitment cap.
    pub fn new(total_chips: usize, max_committed_per_chip: usize) -> Self {
        debug_assert!(max_committed_per_chip > 0, "the cap must be non-zero");
        CommitmentLedger {
            max_committed_per_chip,
            outstanding: vec![0; total_chips],
            busy: vec![false; total_chips],
            round_committed: vec![0; total_chips],
            round_dirty: Vec::new(),
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

    /// One chip's occupancy as a record (0/idle for out-of-range indices).
    pub fn chip_occupancy(&self, chip: usize) -> ChipOccupancy {
        ChipOccupancy {
            chip,
            busy: self.is_busy(chip),
            outstanding: self.outstanding(chip),
        }
    }

    /// Outstanding committed requests for a chip (0 for out-of-range indices).
    pub fn outstanding(&self, chip: usize) -> usize {
        self.outstanding.get(chip).map_or(0, |&c| c as usize)
    }

    /// Whether a chip is currently executing a transaction.
    pub fn is_busy(&self, chip: usize) -> bool {
        self.busy.get(chip).copied().unwrap_or(false)
    }

    /// Remaining commit capacity for a chip: the full cap minus `outstanding`.
    /// `outstanding` already reflects same-round commits, so this is the whole
    /// double-count fix — nothing else is charged.
    // lint: hot-path
    pub fn headroom(&self, chip: usize) -> usize {
        self.max_committed_per_chip
            .saturating_sub(self.outstanding(chip))
    }

    /// Opens a new scheduling round: resets the per-round commit counters.
    // lint: hot-path
    pub fn begin_round(&mut self) {
        for &chip in &self.round_dirty {
            self.round_committed[chip] = 0;
        }
        self.round_dirty.clear();
    }

    /// Commitments charged to a chip since the last
    /// [`CommitmentLedger::begin_round`].
    pub fn committed_in_round(&self, chip: usize) -> usize {
        self.round_committed.get(chip).copied().unwrap_or(0)
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
        if self.round_committed[chip] == 0 {
            self.round_dirty.push(chip);
        }
        self.round_committed[chip] += 1;
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

    /// Records whether a chip is executing a transaction.
    pub fn set_busy(&mut self, chip: usize, busy: bool) {
        if let Some(entry) = self.busy.get_mut(chip) {
            *entry = busy;
        }
    }

    /// Debug-build audit of the per-chip invariants: `outstanding` stays within
    /// the cap, and the per-round count never exceeds what could have been
    /// committed.  Compiled out of release builds.
    #[inline]
    fn audit(&self, chip: usize) {
        #[cfg(debug_assertions)]
        {
            assert!(
                (self.outstanding[chip] as usize) <= self.max_committed_per_chip,
                "chip {chip}: outstanding {} exceeds the cap {}",
                self.outstanding[chip],
                self.max_committed_per_chip
            );
            assert!(
                self.round_committed[chip] <= self.max_committed_per_chip,
                "chip {chip}: {} same-round commits exceed the cap {}",
                self.round_committed[chip],
                self.max_committed_per_chip
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = chip;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cap_is_available_within_one_round() {
        let mut ledger = CommitmentLedger::new(1, 8);
        ledger.begin_round();
        for expected in 1..=8 {
            assert!(ledger.headroom(0) > 0);
            ledger.commit(0);
            assert_eq!(ledger.outstanding(0), expected);
            assert_eq!(ledger.committed_in_round(0), expected);
        }
        // The cap binds at exactly max_committed_per_chip, not ceil(max / 2).
        assert_eq!(ledger.headroom(0), 0);
    }

    #[test]
    fn rounds_reset_the_scratch_but_not_outstanding() {
        let mut ledger = CommitmentLedger::new(2, 4);
        ledger.begin_round();
        ledger.commit(0);
        ledger.commit(0);
        ledger.commit(1);
        ledger.begin_round();
        assert_eq!(ledger.committed_in_round(0), 0);
        assert_eq!(ledger.committed_in_round(1), 0);
        assert_eq!(ledger.outstanding(0), 2);
        assert_eq!(ledger.outstanding(1), 1);
        ledger.commit(0);
        assert_eq!(ledger.committed_in_round(0), 1);
        assert_eq!(ledger.outstanding(0), 3);
    }

    #[test]
    fn retire_credits_headroom_back() {
        let mut ledger = CommitmentLedger::new(1, 2);
        ledger.begin_round();
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
        ledger.begin_round();
        ledger.commit(0);
        ledger.commit(0);
        #[cfg(debug_assertions)]
        panic!("commit must panic before reaching this point (beyond the cap)");
    }

    #[test]
    fn busy_flags_are_tracked_per_chip() {
        let mut ledger = CommitmentLedger::new(3, 4);
        ledger.set_busy(1, true);
        assert!(!ledger.is_busy(0));
        assert!(ledger.is_busy(1));
        ledger.set_busy(1, false);
        assert!(!ledger.is_busy(1));
        // Out-of-range chips are inert.
        ledger.set_busy(99, true);
        assert!(!ledger.is_busy(99));
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
        assert_eq!(ledger.chip_occupancy(2).chip, 2);
        assert_eq!(ledger.outstanding_slice(), &[0, 2, 4]);
        assert_eq!(ledger.max_committed_per_chip(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds the cap")]
    fn from_outstanding_rejects_over_cap_state() {
        let _ = CommitmentLedger::from_outstanding(2, &[3]);
    }
}
