//! Chip-level state machine.
//!
//! A flash chip exposes its dies and planes through a single multiplexed interface
//! and a chip-enable pin, so only one flash transaction can occupy the chip at a
//! time (§2.2).  [`Chip`] tracks when the chip is busy, plans the phase timing of a
//! transaction ([`ChipPhase`]), and accounts per-die / per-plane busy time used by
//! the intra-chip idleness and FLP metrics.

use sprinkler_sim::{Duration, SimTime};

use crate::address::ChipLocation;
use crate::die::Die;
use crate::error::FlashError;
use crate::geometry::FlashGeometry;
use crate::timing::FlashTiming;
use crate::transaction::{FlashTransaction, ParallelismLevel};

/// The phase plan of one transaction on a chip, as absolute simulation times.
///
/// * `start .. issue_end` — the issue bus phase (commands, addresses, program data
///   in) occupies the channel and the chip interface.
/// * `issue_end .. cell_end` — the cell phase occupies the involved dies/planes;
///   the channel is free (this is what channel pipelining exploits).
/// * The completion bus phase (read data out, status) is arbitrated separately by
///   the controller once the cell phase finishes, because the channel may be busy
///   at that moment; its *duration* is `completion_bus`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipPhase {
    /// When the issue bus phase starts.
    pub start: SimTime,
    /// When the issue bus phase ends and the cell phase begins.
    pub issue_end: SimTime,
    /// When the cell phase ends.
    pub cell_end: SimTime,
    /// Duration of the completion bus phase still to be arbitrated.
    pub completion_bus: Duration,
}

impl ChipPhase {
    /// Duration of the issue bus phase.
    pub fn issue_bus(&self) -> Duration {
        self.issue_end - self.start
    }

    /// Duration of the cell phase.
    pub fn cell(&self) -> Duration {
        self.cell_end - self.issue_end
    }

    /// Lower bound on the completion time (if the channel is immediately free for
    /// the completion phase).
    pub fn earliest_completion(&self) -> SimTime {
        self.cell_end + self.completion_bus
    }
}

/// Per-chip execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChipStats {
    /// Number of flash transactions executed.
    pub transactions: u64,
    /// Number of page-level requests served.
    pub requests: u64,
    /// Transactions by parallelism class: `[NON-PAL, PAL1, PAL2, PAL3]`.
    pub by_level: [u64; 4],
    /// Total time the chip interface was occupied by transactions.
    pub busy: Duration,
    /// Total die busy time (sum over dies).
    pub die_busy: Duration,
    /// Total plane busy time (sum over planes).
    pub plane_busy: Duration,
}

/// A flash chip: dies, planes, the shared interface, and its busy bookkeeping.
///
/// # Example
///
/// ```
/// use sprinkler_flash::{Chip, FlashGeometry, FlashTiming, FlashOp, TransactionBuilder};
/// use sprinkler_sim::SimTime;
///
/// let g = FlashGeometry::paper_default();
/// let t = FlashTiming::paper_default();
/// let mut chip = Chip::new(g.chip_location(0), &g);
///
/// let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
/// b.try_add(g.page_addr(0, 0, 0, 0, 3, 0)).unwrap();
/// let txn = b.build().unwrap();
///
/// let phase = chip.begin_transaction(&txn, SimTime::ZERO, &t).unwrap();
/// assert!(phase.cell_end > phase.issue_end);
/// chip.complete_transaction(phase.earliest_completion());
/// assert!(!chip.is_busy());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Chip {
    location: ChipLocation,
    dies: Vec<Die>,
    busy: bool,
    busy_since: SimTime,
    ready_at: SimTime,
    stats: ChipStats,
}

impl Chip {
    /// Creates an idle chip at `location` with the die/plane population described
    /// by `geometry`.
    pub fn new(location: ChipLocation, geometry: &FlashGeometry) -> Self {
        Chip {
            location,
            dies: (0..geometry.dies_per_chip)
                .map(|_| Die::new(geometry.planes_per_die))
                .collect(),
            busy: false,
            busy_since: SimTime::ZERO,
            ready_at: SimTime::ZERO,
            stats: ChipStats::default(),
        }
    }

    /// The chip's location.
    pub fn location(&self) -> ChipLocation {
        self.location
    }

    /// True while a transaction occupies the chip.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// The earliest time a new transaction may start (now, if idle).
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// Read-only access to a die.
    pub fn die(&self, index: usize) -> &Die {
        &self.dies[index]
    }

    /// Number of dies on the chip.
    pub fn die_count(&self) -> usize {
        self.dies.len()
    }

    /// Execution statistics collected so far.
    pub fn stats(&self) -> ChipStats {
        self.stats
    }

    /// Plans and starts a transaction at `start`, marking the chip busy and
    /// recording die/plane activity for the cell window.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::ChipBusy`] if a transaction is already executing, and
    /// [`FlashError::CoalesceConflict`] if the transaction belongs to another chip.
    pub fn begin_transaction(
        &mut self,
        txn: &FlashTransaction,
        start: SimTime,
        timing: &FlashTiming,
    ) -> Result<ChipPhase, FlashError> {
        if self.busy {
            return Err(FlashError::ChipBusy {
                channel: self.location.channel,
                way: self.location.way,
            });
        }
        if txn.chip() != self.location {
            return Err(FlashError::CoalesceConflict {
                reason: "transaction targets a different chip",
            });
        }
        let start = start.max(self.ready_at);
        let issue_end = start + timing.issue_bus_time(txn);
        let cell_end = issue_end + timing.cell_time(txn);
        let phase = ChipPhase {
            start,
            issue_end,
            cell_end,
            completion_bus: timing.completion_bus_time(txn),
        };

        // Record die / plane activity for the cell window.  One die-level
        // window per distinct die (first occurrence wins), one plane record
        // per request — all without collecting scratch vectors, since this
        // runs once per transaction on the zero-allocation replay path.
        let requests = txn.requests();
        for (i, request) in requests.iter().enumerate() {
            if requests[..i].iter().all(|prev| prev.die != request.die) {
                self.dies[request.die as usize].record_window(issue_end, cell_end);
            }
            self.dies[request.die as usize].record_plane(request.plane, issue_end, cell_end);
        }

        self.busy = true;
        self.busy_since = start;
        self.ready_at = SimTime::MAX;
        self.stats.transactions += 1;
        self.stats.requests += txn.requests().len() as u64;
        let level_index = match txn.parallelism() {
            ParallelismLevel::NonPal => 0,
            ParallelismLevel::Pal1 => 1,
            ParallelismLevel::Pal2 => 2,
            ParallelismLevel::Pal3 => 3,
        };
        self.stats.by_level[level_index] += 1;
        Ok(phase)
    }

    /// Marks the in-flight transaction complete at `at`, freeing the chip.
    ///
    /// The caller supplies the actual completion time because the completion bus
    /// phase is arbitrated against other traffic on the channel.
    pub fn complete_transaction(&mut self, at: SimTime) {
        if !self.busy {
            return;
        }
        self.busy = false;
        self.ready_at = at;
        self.stats.busy += at.saturating_since(self.busy_since);
        self.stats.die_busy = self.dies.iter().map(Die::busy_time).sum();
        self.stats.plane_busy = self.dies.iter().map(Die::plane_busy_time).sum();
    }

    /// Total chip busy time, including the currently running transaction evaluated
    /// at `now`.
    pub fn busy_time_at(&self, now: SimTime) -> Duration {
        if self.busy {
            self.stats.busy + now.saturating_since(self.busy_since)
        } else {
            self.stats.busy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{FlashOp, TransactionBuilder};

    fn setup() -> (FlashGeometry, FlashTiming, Chip) {
        let g = FlashGeometry::paper_default();
        let t = FlashTiming::paper_default();
        let chip = Chip::new(g.chip_location(0), &g);
        (g, t, chip)
    }

    fn read_txn(g: &FlashGeometry, planes: &[(u32, u32)]) -> FlashTransaction {
        let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
        for &(die, plane) in planes {
            b.try_add(g.page_addr(0, 0, die, plane, 1, 0)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn new_chip_is_idle() {
        let (_, _, chip) = setup();
        assert!(!chip.is_busy());
        assert_eq!(chip.ready_at(), SimTime::ZERO);
        assert_eq!(chip.die_count(), 2);
        assert_eq!(chip.stats().transactions, 0);
    }

    #[test]
    fn begin_and_complete_transaction() {
        let (g, t, mut chip) = setup();
        let txn = read_txn(&g, &[(0, 0)]);
        let phase = chip
            .begin_transaction(&txn, SimTime::from_micros(5), &t)
            .unwrap();
        assert!(chip.is_busy());
        assert_eq!(phase.start, SimTime::from_micros(5));
        assert_eq!(phase.cell(), t.read_latency());
        assert!(phase.issue_bus() > Duration::ZERO);
        assert!(phase.completion_bus > Duration::ZERO);

        let done = phase.earliest_completion();
        chip.complete_transaction(done);
        assert!(!chip.is_busy());
        assert_eq!(chip.ready_at(), done);
        let stats = chip.stats();
        assert_eq!(stats.transactions, 1);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.by_level, [1, 0, 0, 0]);
        assert_eq!(stats.busy, done - phase.start);
    }

    #[test]
    fn busy_chip_rejects_new_transactions() {
        let (g, t, mut chip) = setup();
        let txn = read_txn(&g, &[(0, 0)]);
        chip.begin_transaction(&txn, SimTime::ZERO, &t).unwrap();
        let err = chip
            .begin_transaction(&txn, SimTime::from_micros(1), &t)
            .unwrap_err();
        assert!(matches!(err, FlashError::ChipBusy { .. }));
    }

    #[test]
    fn wrong_chip_transaction_is_rejected() {
        let (g, t, _) = setup();
        let mut other = Chip::new(g.chip_location(3), &g);
        let txn = read_txn(&g, &[(0, 0)]);
        let err = other
            .begin_transaction(&txn, SimTime::ZERO, &t)
            .unwrap_err();
        assert!(matches!(err, FlashError::CoalesceConflict { .. }));
    }

    #[test]
    fn start_is_clamped_to_ready_time() {
        let (g, t, mut chip) = setup();
        let txn = read_txn(&g, &[(0, 0)]);
        let phase = chip.begin_transaction(&txn, SimTime::ZERO, &t).unwrap();
        let done = phase.earliest_completion();
        chip.complete_transaction(done);
        // Asking to start before the chip became ready clamps forward.
        let phase2 = chip.begin_transaction(&txn, SimTime::ZERO, &t).unwrap();
        assert_eq!(phase2.start, done);
    }

    #[test]
    fn die_and_plane_activity_recorded_for_pal3() {
        let (g, t, mut chip) = setup();
        let txn = read_txn(&g, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(txn.parallelism(), ParallelismLevel::Pal3);
        let phase = chip.begin_transaction(&txn, SimTime::ZERO, &t).unwrap();
        chip.complete_transaction(phase.earliest_completion());
        let stats = chip.stats();
        assert_eq!(stats.by_level, [0, 0, 0, 1]);
        // Two dies were busy for the cell window each.
        assert_eq!(stats.die_busy, phase.cell() * 2);
        // Four planes were busy for the cell window each.
        assert_eq!(stats.plane_busy, phase.cell() * 4);
        assert_eq!(chip.die(0).operations(), 1);
        assert_eq!(chip.die(1).operations(), 1);
    }

    #[test]
    fn busy_time_at_includes_open_transaction() {
        let (g, t, mut chip) = setup();
        let txn = read_txn(&g, &[(0, 0)]);
        let phase = chip.begin_transaction(&txn, SimTime::ZERO, &t).unwrap();
        let mid = phase.issue_end;
        assert_eq!(chip.busy_time_at(mid), mid - phase.start);
        chip.complete_transaction(phase.earliest_completion());
        assert_eq!(
            chip.busy_time_at(SimTime::from_millis(50)),
            phase.earliest_completion() - phase.start
        );
    }

    #[test]
    fn complete_when_idle_is_a_noop() {
        let (_, _, mut chip) = setup();
        chip.complete_transaction(SimTime::from_micros(10));
        assert!(!chip.is_busy());
        assert_eq!(chip.stats().busy, Duration::ZERO);
    }
}
