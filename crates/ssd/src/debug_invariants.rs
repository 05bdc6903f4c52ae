//! Deep debug-mode invariant validation across the scheduler's shared state.
//!
//! [`DeviceQueue::validate_candidate_index`] checks the queue's *internal*
//! consistency (each tag's id is its slot, one entry per page with page
//! counts that match, and the candidate rows, the entries' row handles and
//! the read-hazard chains against a rebuild from the queued tag states).
//! This module goes one
//! layer up and cross-checks the structures that must agree *with each
//! other* for Sprinkler's chip-level accounting to mean anything:
//!
//! - ledger outstanding counts vs the per-page states of the queued tags
//!   (the ledger is charged exactly once per committed host page and
//!   credited exactly once per completed one, atomically with the state
//!   changes in `Ssd::commit_memory_request` / `Ssd::complete_mem_request`;
//!   GC requests never touch the ledger);
//! - the FUA reordering-horizon entries vs the queued FUA tags;
//! - per-page placements within geometry bounds;
//! - the hard commitment cap.
//!
//! Everything here compiles to a no-op in release builds: callers are the
//! differential property tests and `tests/invariants.rs`, which wrap a
//! scheduler and validate after every round.

use crate::ledger::CommitmentLedger;
use crate::queue::DeviceQueue;
use crate::scheduler::SchedulerContext;

/// Validates every cross-structure invariant visible from a scheduling
/// context.  Call after a scheduling round (or a completion) in tests; the
/// body is compiled out in release builds.
///
/// # Panics
///
/// Panics (via `debug_assert!`) when any invariant is violated — each
/// message names the structure pair that diverged.
pub fn validate_context(ctx: &SchedulerContext<'_>) {
    validate_round(ctx.queue, ctx.ledger);
}

/// [`validate_context`] for callers holding the queue and ledger directly.
pub fn validate_round(queue: &DeviceQueue, ledger: &CommitmentLedger) {
    #[cfg(debug_assertions)]
    {
        queue.validate_candidate_index();

        let chips = ledger.chip_count();
        let mut expected_outstanding = vec![0u32; chips];
        let mut expected_fua: Vec<u64> = Vec::new();

        for state in queue.iter_states() {
            for page in 0..state.pages() as u32 {
                let placement = state.placement(page);
                debug_assert!(
                    placement.chip < chips,
                    "tag {:?} page {page}: placement chip {} outside geometry ({chips} chips)",
                    state.id,
                    placement.chip
                );
                if state.is_committed(page) && !state.is_completed(page) {
                    expected_outstanding[placement.chip] += 1;
                }
            }
            if state.host.fua && !state.fully_committed() {
                expected_fua.push(state.seq);
            }
        }

        // Ledger vs page states: outstanding commitments per chip must equal
        // the committed-but-incomplete host pages placed there, exactly.
        debug_assert_eq!(
            expected_outstanding,
            ledger.outstanding_slice(),
            "ledger outstanding counts diverged from the queued tags' page states"
        );
        for chip in 0..chips {
            debug_assert!(
                ledger.outstanding(chip) <= ledger.max_committed_per_chip(),
                "chip {chip}: outstanding {} exceeds the hard cap {}",
                ledger.outstanding(chip),
                ledger.max_committed_per_chip()
            );
        }

        // FUA horizon vs a rebuild: admission seqs of not-fully-committed FUA
        // tags, ascending; horizon_seq() is its head (or MAX when clear).
        expected_fua.sort_unstable();
        debug_assert_eq!(
            expected_fua,
            queue.fua_pending(),
            "FUA horizon entries diverged from the queued tag states"
        );
        debug_assert_eq!(
            queue.horizon_seq(),
            expected_fua.first().copied().unwrap_or(u64::MAX),
            "horizon_seq diverged from the first pending FUA entry"
        );
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (queue, ledger);
    }
}
