//! Executable reference specification of the five schedulers.
//!
//! These are the straightforward full-scan implementations the optimized hot
//! paths ([`crate::Scheduler`] over the device queue's incremental indices)
//! must be observationally equivalent to: per round they re-derive the FUA
//! horizon by walking the queue, answer every write-after-read question by
//! scanning all earlier tags, and bucket candidate pages by chip from scratch —
//! O(queue² × pages) per round, exactly what the optimized paths replace.
//!
//! They exist so that the performance work stays honest: the differential
//! property tests in `tests/properties.rs` run every optimized scheduler and its
//! reference twin over random traces and assert the *commitment streams are
//! identical*, commitment by commitment.  Any divergence introduced by an index
//! or scratch-buffer bug fails the suite immediately.
//!
//! The reference implements the same §4.4 hazard policy as the optimized
//! schedulers: a write-after-read conflict defers only the blocked page, on
//! every composition path.
//!
//! Both twins schedule against the corrected commitment accounting of
//! [`sprinkler_ssd::ledger::CommitmentLedger`]: per-chip headroom within a
//! round is the full `max_committed_per_chip` — `outstanding` counts every
//! same-round commit exactly once, so neither side compensates for the seed's
//! double-charge.

use sprinkler_flash::FlashGeometry;
use sprinkler_ssd::request::TagId;
use sprinkler_ssd::scheduler::{Commitment, IoScheduler, SchedulerContext};

use crate::faro::{FaroCandidate, FaroSelector, OVERCOMMIT_DEPTH};
use crate::rios::RiosTraversal;
use crate::SchedulerKind;

/// Full-scan FUA horizon: how many leading tags may be considered this round.
pub fn horizon(ctx: &SchedulerContext<'_>) -> usize {
    let mut horizon = 0;
    for tag in ctx.tags() {
        horizon += 1;
        if tag.host.fua && !tag.fully_committed() {
            break;
        }
    }
    horizon
}

/// Full-scan write-after-read check: whether committing a write of `lpn` from
/// `writer` must wait because an earlier-arrived tag still has an uncommitted
/// read of the same logical page.
pub fn write_after_read_blocked(ctx: &SchedulerContext<'_>, writer: TagId, lpn: u64) -> bool {
    for tag in ctx.tags() {
        if tag.id == writer {
            // Only tags that arrived earlier than the writer matter.
            return false;
        }
        if !tag.host.direction.is_read() {
            continue;
        }
        let start = tag.host.start_lpn.value();
        let end = start + tag.host.pages as u64;
        if (start..end).contains(&lpn) && !tag.is_committed((lpn - start) as u32) {
            return true;
        }
    }
    false
}

/// The reference twin of one [`SchedulerKind`]: same decisions, naive algorithm.
#[derive(Debug, Clone)]
pub struct ReferenceScheduler {
    kind: SchedulerKind,
    faro: FaroSelector,
    traversal: Option<RiosTraversal>,
}

impl ReferenceScheduler {
    /// Creates the reference twin of `kind` with default parameters.
    pub fn new(kind: SchedulerKind) -> Self {
        ReferenceScheduler {
            kind,
            faro: FaroSelector,
            traversal: None,
        }
    }

    fn uses_rios(&self) -> bool {
        matches!(self.kind, SchedulerKind::Spk2 | SchedulerKind::Spk3)
    }

    fn uses_faro(&self) -> bool {
        matches!(self.kind, SchedulerKind::Spk1 | SchedulerKind::Spk3)
    }

    /// Per-chip commit capacity of this variant: 1 without FARO, the
    /// over-commitment depth with it.
    fn per_chip_capacity(&self, ctx: &SchedulerContext<'_>) -> usize {
        let depth = match self.kind {
            SchedulerKind::Vas | SchedulerKind::Pas | SchedulerKind::Spk2 => 1,
            SchedulerKind::Spk1 | SchedulerKind::Spk3 => OVERCOMMIT_DEPTH,
        };
        depth.min(ctx.max_committed_per_chip())
    }

    /// In-order composition (VAS, PAS, SPK1): walk tags in arrival order; a chip
    /// conflict either stalls the round (VAS, SPK1) or skips the page (PAS).
    fn schedule_in_order(
        &self,
        ctx: &SchedulerContext<'_>,
        skip_conflicts: bool,
    ) -> Vec<Commitment> {
        let capacity = self.per_chip_capacity(ctx);
        let check_war = !matches!(self.kind, SchedulerKind::Vas);
        let mut newly = vec![0usize; ctx.chip_count()];
        let mut out = Vec::new();
        let horizon = horizon(ctx);
        for tag in ctx.tags().take(horizon) {
            let is_write = tag.host.direction.is_write();
            for page in tag.uncommitted_pages() {
                let chip = tag.placement(page).chip;
                if ctx.outstanding(chip) + newly[chip] >= capacity {
                    if skip_conflicts {
                        continue;
                    }
                    return out;
                }
                if check_war
                    && is_write
                    && write_after_read_blocked(ctx, tag.id, tag.host.lpn_at(page).value())
                {
                    // §4.4 policy: defer only the hazard-blocked page.
                    continue;
                }
                newly[chip] += 1;
                out.push(Commitment { tag: tag.id, page });
            }
        }
        out
    }

    /// Resource-driven composition (SPK2, SPK3): bucket candidate pages by chip
    /// with a full scan, then visit every chip in traversal order.
    fn schedule_resource_driven(&self, ctx: &SchedulerContext<'_>) -> Vec<Commitment> {
        let capacity = self.per_chip_capacity(ctx);
        let horizon = horizon(ctx);
        let chip_count = ctx.chip_count();
        let mut per_chip: Vec<Vec<FaroCandidate>> = vec![Vec::new(); chip_count];

        for (rank, tag) in ctx.tags().take(horizon).enumerate() {
            let is_write = tag.host.direction.is_write();
            for page in tag.uncommitted_pages() {
                if is_write && write_after_read_blocked(ctx, tag.id, tag.host.lpn_at(page).value())
                {
                    continue;
                }
                let placement = tag.placement(page);
                if placement.chip < chip_count {
                    per_chip[placement.chip].push(FaroCandidate {
                        tag: tag.id,
                        page,
                        die: placement.die,
                        plane: placement.plane,
                        arrival_rank: rank,
                    });
                }
            }
        }

        let mut out = Vec::new();
        let order: Vec<usize> = match &self.traversal {
            Some(t) => t.order().to_vec(),
            None => (0..chip_count).collect(),
        };
        for chip in order {
            let candidates = &per_chip[chip];
            if candidates.is_empty() {
                continue;
            }
            let room = capacity.saturating_sub(ctx.outstanding(chip));
            if room == 0 {
                continue;
            }
            if self.uses_faro() {
                for (tag, page) in self.faro.select(candidates, room) {
                    out.push(Commitment { tag, page });
                }
            } else if let Some(best) = candidates.iter().min_by_key(|c| (c.arrival_rank, c.page)) {
                out.push(Commitment {
                    tag: best.tag,
                    page: best.page,
                });
            }
        }
        out
    }
}

impl IoScheduler for ReferenceScheduler {
    fn name(&self) -> &'static str {
        match self.kind {
            SchedulerKind::Vas => "VAS-ref",
            SchedulerKind::Pas => "PAS-ref",
            SchedulerKind::Spk1 => "SPK1-ref",
            SchedulerKind::Spk2 => "SPK2-ref",
            SchedulerKind::Spk3 => "SPK3-ref",
        }
    }

    fn initialize(&mut self, geometry: &FlashGeometry) {
        if self.uses_rios() {
            self.traversal = Some(RiosTraversal::new(geometry));
        }
    }

    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        // The reference twin deliberately stays naive (and allocating): its
        // value is obvious correctness, not speed.
        let commitments = if self.uses_rios() {
            self.schedule_resource_driven(ctx)
        } else {
            self.schedule_in_order(ctx, matches!(self.kind, SchedulerKind::Pas))
        };
        out.extend(commitments);
    }

    fn supports_readdressing(&self) -> bool {
        // Mirror the optimized schedulers so the substrate applies the same GC
        // readdressing treatment to both twins.
        matches!(
            self.kind,
            SchedulerKind::Spk1 | SchedulerKind::Spk2 | SchedulerKind::Spk3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprinkler_flash::Lpn;
    use sprinkler_sim::SimTime;
    use sprinkler_ssd::queue::DeviceQueue;
    use sprinkler_ssd::request::{Direction, HostRequest, Placement};
    use sprinkler_ssd::CommitmentLedger;

    /// Admits request `id` with page `i` on `chips[i]`; ids count from 0 on
    /// a fresh queue, so each is also its tag.
    fn admit(queue: &mut DeviceQueue, id: u64, dir: Direction, lpn: u64, chips: &[usize]) {
        let host = HostRequest::new(id, SimTime::ZERO, dir, Lpn::new(lpn), chips.len() as u32);
        let placement = |page: u32| {
            let chip = chips[page as usize];
            Placement {
                chip,
                die: 0,
                plane: (chip % 4) as u32,
            }
        };
        assert_eq!(queue.admit(host, placement), Some(TagId(id)));
    }

    fn schedule(kind: SchedulerKind, queue: &DeviceQueue) -> Vec<Commitment> {
        let geometry = FlashGeometry::small_test();
        let ledger = CommitmentLedger::new(geometry.total_chips(), 8);
        let ctx = SchedulerContext {
            queue,
            ledger: &ledger,
        };
        let mut reference = ReferenceScheduler::new(kind);
        reference.initialize(&geometry);
        let mut out = Vec::new();
        reference.schedule_into(&ctx, &mut out);
        out
    }

    /// The reference twins agree with the optimized schedulers on a small mixed
    /// queue (the exhaustive randomized comparison lives in tests/properties.rs).
    #[test]
    fn reference_matches_optimized_on_a_mixed_queue() {
        let mut queue = DeviceQueue::new(8);
        admit(&mut queue, 0, Direction::Read, 0, &[0, 1]);
        admit(&mut queue, 1, Direction::Write, 1, &[2, 3]); // page 0 WAR-blocked
        admit(&mut queue, 2, Direction::Read, 20, &[0, 2]);

        let geometry = FlashGeometry::small_test();
        let ledger = CommitmentLedger::new(geometry.total_chips(), 8);
        let ctx = SchedulerContext {
            queue: &queue,
            ledger: &ledger,
        };

        for kind in SchedulerKind::ALL {
            let mut fast = crate::Scheduler::new(kind);
            fast.initialize(&geometry);
            let mut fast_out = Vec::new();
            fast.schedule_into(&ctx, &mut fast_out);
            let ref_out = schedule(kind, &queue);
            assert_eq!(fast_out, ref_out, "{kind} diverges from its reference");
        }
    }

    #[test]
    fn names_and_capabilities_mirror_the_twins() {
        for kind in SchedulerKind::ALL {
            let reference = ReferenceScheduler::new(kind);
            assert!(reference.name().ends_with("-ref"));
            assert!(reference.name().starts_with(kind.label()));
            assert_eq!(
                reference.supports_readdressing(),
                kind.build().supports_readdressing()
            );
        }
    }

    #[test]
    fn naive_hazard_checks_match_their_definitions() {
        let mut queue = DeviceQueue::new(8);
        admit(&mut queue, 0, Direction::Read, 100, &[0, 1]);
        admit(&mut queue, 1, Direction::Write, 101, &[2]);
        let geometry = FlashGeometry::small_test();
        let ledger = CommitmentLedger::new(geometry.total_chips(), 8);
        let ctx = SchedulerContext {
            queue: &queue,
            ledger: &ledger,
        };
        assert_eq!(horizon(&ctx), 2);
        assert!(write_after_read_blocked(&ctx, TagId(1), 101));
        assert!(!write_after_read_blocked(&ctx, TagId(1), 102));
        assert!(!write_after_read_blocked(&ctx, TagId(0), 100));
    }
}
