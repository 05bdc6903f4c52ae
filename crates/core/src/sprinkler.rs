//! The paper's five device-level schedulers as one type (§3, §4, §5.1).
//!
//! VAS, PAS and the Sprinkler variants SPK1–3 differ on two axes only:
//!
//! * **composition** — VAS, PAS and SPK1 compose memory requests in
//!   device-queue (I/O arrival) order; SPK2 and SPK3 compose per *chip* by
//!   RIOS (§4.1), ignoring I/O boundaries and visiting chips in the
//!   channel-offset-first order of [`RiosTraversal`], so commits stripe
//!   across channels and pipeline within them;
//! * **commitment depth** — VAS, PAS and SPK2 commit at most one memory
//!   request per chip; SPK1 and SPK3 over-commit up to [`OVERCOMMIT_DEPTH`]
//!   by FARO (§4.2), prioritized by overlap depth, then connectivity, so the
//!   flash controller can coalesce one die-interleaved, multi-plane
//!   transaction.
//!
//! The queue-order walk takes its last two rules from the kind too.  A full
//! chip stalls the walk — the head-of-line blocking of Fig 4 — except under
//! PAS, which skips the page and keeps committing to idle chips
//! (coarse-grain out-of-order execution, Fig 5).  And every kind but VAS
//! defers a write page while an earlier queued read of the same logical page
//! is uncommitted (§4.4).  VAS never reads physical addresses: the per-chip
//! occupancy it stalls on models the backpressure its in-order pipeline
//! meets, not placement knowledge.
//!
//! The Sprinkler variants support readdressing (§4.3): when garbage
//! collection migrates live data across planes, the substrate refreshes the
//! placement previews of queued tags, which keeps their resource-driven
//! decisions accurate.
//!
//! The resource-driven round re-derives no decision that cannot have
//! changed.  The substrate logs each chip that gained a candidate row or
//! completed a committed page, and so gained ledger headroom, in one change
//! log that it clears after every round; the round remembers the chips it
//! held a row back on.  The round marks only those chips, so it costs what
//! changed since the last one: on a 64-chip device serving 256 KB reads,
//! about 1.3 chips marked instead of a walk of the ~46 with work.  A chip
//! with several rows streams its survivors into FARO as the walk filters
//! them ([`FaroSelector::select_streamed`]), so one walk of its rows filters
//! and ranks.

use std::cell::Cell;
use std::sync::Arc;

use sprinkler_flash::FlashGeometry;
use sprinkler_sim::TelemetryCounters;
use sprinkler_ssd::request::TagId;
use sprinkler_ssd::scheduler::{Commitment, IoScheduler, SchedulerContext};
use sprinkler_ssd::{pri_die, pri_plane, Row};

use crate::faro::{FaroCandidate, FaroScratch, FaroSelector, OVERCOMMIT_DEPTH};
use crate::rios::RiosTraversal;
use crate::SchedulerKind;

/// Builds one FARO candidate from a candidate-index row: tag from the slot,
/// page/die/plane unpacked from the priority key, arrival rank from the
/// admission sequence.
#[inline]
fn candidate_of(row: &Row) -> FaroCandidate {
    FaroCandidate {
        tag: row.tag(),
        page: row.page(),
        die: pri_die(row.pri),
        plane: pri_plane(row.pri),
        arrival_rank: row.seq as usize,
    }
}

/// A commitment of a candidate-index row's page.
#[inline]
fn commit_of(row: &Row) -> Commitment {
    Commitment {
        tag: row.tag(),
        page: row.page(),
    }
}

/// One of the paper's five schedulers, chosen by its [`SchedulerKind`].
///
/// Scheduling rounds are allocation-free after warm-up: the rank bitmap,
/// the held-chip list, FARO's candidate and pick buffers, and the
/// queue-order commit counters are reusable scratch buffers owned by the
/// scheduler.  The resource-driven round pulls candidates from the device
/// queue's incremental per-chip index instead of re-scanning every queued
/// tag, and visits only the chips whose rows or headroom changed since its
/// last round plus the chips it held back then, so its cost is proportional
/// to what changed, not to queue depth × pages or to the chip population.
#[derive(Debug, Clone)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// RIOS's chip visit order, built by `initialize`; until then the
    /// resource-driven round visits chips by index.
    traversal: Option<RiosTraversal>,
    /// Scratch: rank-indexed occupancy bitmap — bit `r` is set when the chip
    /// with traversal rank `r` has schedulable work this round.  Scanning the
    /// words with `trailing_zeros` visits the round's chips in traversal order
    /// without sorting anything.
    round_bits: Vec<u64>,
    /// The chips the last resource-driven round held a row back on (§4.4
    /// write-after-read hazard or FUA horizon), each once; pre-sized to the
    /// chip count.
    held: Vec<u32>,
    /// Scratch: per-chip commits made this round by the queue-order walk.
    /// Only the chips listed in `newly_dirty` are non-zero between rounds.
    newly: Vec<usize>,
    newly_dirty: Vec<usize>,
    /// Scratch: FARO's streaming front end and working buffers.
    faro_scratch: FaroScratch,
    /// Scratch: FARO's per-chip picks before they become commitments.
    faro_picks: Vec<(TagId, u32)>,
    /// Hot-path counters shared with the SSD substrate, when attached.
    telemetry: Option<Arc<TelemetryCounters>>,
}

impl Scheduler {
    /// Creates the scheduler of `kind`.
    pub fn new(kind: SchedulerKind) -> Self {
        Scheduler {
            kind,
            traversal: None,
            round_bits: Vec::new(),
            held: Vec::new(),
            newly: Vec::new(),
            newly_dirty: Vec::new(),
            faro_scratch: FaroScratch::default(),
            faro_picks: Vec::new(),
            telemetry: None,
        }
    }

    #[inline]
    fn count(&self, pick: impl Fn(&TelemetryCounters) -> &std::sync::atomic::AtomicU64) {
        if let Some(telemetry) = &self.telemetry {
            TelemetryCounters::incr(pick(telemetry));
        }
    }

    /// Whether this kind over-commits by FARO (SPK1, SPK3).
    fn overcommits(&self) -> bool {
        matches!(self.kind, SchedulerKind::Spk1 | SchedulerKind::Spk3)
    }

    /// Per-chip commit capacity: the over-commitment depth under FARO, 1
    /// without it, never past the ledger's cap.
    fn per_chip_capacity(&self, ctx: &SchedulerContext<'_>) -> usize {
        let depth = if self.overcommits() {
            OVERCOMMIT_DEPTH
        } else {
            1
        };
        depth.min(ctx.max_committed_per_chip())
    }

    /// Queue-order composition (VAS, PAS, SPK1): walk the tags in arrival
    /// order up to the FUA horizon, committing every uncommitted page whose
    /// chip has room.  A full chip stalls the walk, except under PAS, which
    /// skips the page; every kind but VAS defers only the write page an
    /// earlier uncommitted read of its logical page blocks (§4.4) and keeps
    /// composing.
    // lint: hot-path
    fn schedule_in_order(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        let capacity = self.per_chip_capacity(ctx);
        let skip_full = self.kind == SchedulerKind::Pas;
        let check_hazards = self.kind != SchedulerKind::Vas;
        if self.newly.len() < ctx.chip_count() {
            self.newly.resize(ctx.chip_count(), 0);
            // A round dirties each chip at most once.
            self.newly_dirty.reserve(ctx.chip_count());
        }
        for &chip in &self.newly_dirty {
            self.newly[chip] = 0;
        }
        self.newly_dirty.clear();
        let bound = ctx.queue.horizon_seq();
        for tag in ctx.tags() {
            if tag.seq > bound {
                self.count(|t| &t.hazard_horizon_clips);
                break;
            }
            let is_checked_write = check_hazards && tag.host.direction.is_write();
            for page in tag.uncommitted_pages() {
                let chip = tag.placement(page).chip;
                if ctx.outstanding(chip) + self.newly[chip] >= capacity {
                    if skip_full {
                        continue;
                    }
                    return;
                }
                if is_checked_write
                    && ctx
                        .queue
                        .has_blocking_read(tag.host.lpn_at(page).value(), tag.seq)
                {
                    self.count(|t| &t.hazard_war_deferrals);
                    continue;
                }
                if self.newly[chip] == 0 {
                    self.newly_dirty.push(chip);
                }
                self.newly[chip] += 1;
                out.push(Commitment { tag: tag.id, page });
            }
        }
    }

    /// Resource-driven composition (SPK2, SPK3): visit the chips that have
    /// uncommitted candidate pages and commit headroom — straight from the
    /// device queue's per-chip row lists — in traversal order, committing up
    /// to the per-chip capacity; FARO decides which candidates win when there
    /// are more than fit.
    ///
    /// No per-candidate `TagState` chase: a row carries its seq, LPN, tag
    /// and direction, and page, die and plane are unpacked from its priority
    /// key.
    ///
    /// Pass 1 marks each chip with work and headroom in a rank-indexed
    /// bitmap, from the candidate index's change log (a row arrived, or a
    /// committed page completed and released a ledger slot) plus `held`, the
    /// chips the last round held a row back on.  Together they hold every
    /// chip that can commit.  After a round, each chip it visited has no
    /// rows, is at the kind's capacity, or held a row back: FARO commits
    /// `min(room, survivors)`, and SPK2 commits one row into a capacity of
    /// one.  Only a logged arrival or completion takes a chip out of the
    /// first two states, and the first round's log lists every chip with
    /// rows, since the substrate initializes the scheduler before it admits
    /// anything.
    ///
    /// Pass 2 scans the bitmap words with `trailing_zeros` — visiting chips
    /// in traversal order without a sort — and filters each chip's rows (FUA
    /// horizon, §4.4 write-after-read) on the spot.  The dominant many-chip
    /// shape, one candidate row on the chip, commits straight from the row;
    /// a chip with more goes to [`Scheduler::compose_chip`].
    ///
    /// A round so costs the log, the rows of the chips it visits and one
    /// pass over the bitmap's words, not a walk of every chip with work.
    // lint: hot-path
    fn schedule_resource_driven(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        let capacity = self.per_chip_capacity(ctx);
        let overcommit = self.overcommits();
        let bound = ctx.queue.horizon_seq();
        let chip_count = ctx.chip_count();
        let cands = ctx.queue.candidate_view();
        let outstanding = ctx.ledger.outstanding_slice();

        // Pass 1 — mark every chip that has work and commit headroom this
        // round in the rank-indexed bitmap.  Ranks are a permutation of the
        // chips, so each bit maps back to exactly one chip, and marking a
        // chip twice sets the same bit.
        let positions = self.traversal.as_ref().map(RiosTraversal::positions);
        let rank_space = positions.map_or(chip_count, <[usize]>::len);
        let words = rank_space.div_ceil(64);
        if self.round_bits.len() < words {
            self.round_bits.resize(words, 0);
        }
        self.round_bits[..words].fill(0);
        let rank_of = |chip: usize| match positions {
            Some(pos) => pos.get(chip).copied(),
            None => Some(chip),
        };
        let round_bits = &mut self.round_bits;
        for &chip in cands.changed.iter().chain(&self.held) {
            let chip = chip as usize;
            if chip >= chip_count || outstanding[chip] as usize >= capacity || cands.len(chip) == 0
            {
                continue;
            }
            if let Some(rank) = rank_of(chip) {
                round_bits[rank >> 6] |= 1u64 << (rank & 63);
            }
        }
        self.held.clear();
        #[cfg(debug_assertions)]
        for (chip, &charged) in outstanding.iter().enumerate() {
            if cands.len(chip) > 0 && (charged as usize) < capacity {
                if let Some(rank) = rank_of(chip) {
                    debug_assert!(
                        self.round_bits[rank >> 6] & 1u64 << (rank & 63) != 0,
                        "chip {chip} has rows and headroom, but neither the change \
                         log nor the held chips named it"
                    );
                }
            }
        }

        // Pass 2 — visit the marked ranks ascending and commit.
        for word_index in 0..words {
            let mut word = self.round_bits[word_index];
            while word != 0 {
                let rank = (word_index << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let chip = self
                    .traversal
                    .as_ref()
                    .map_or(rank, |rios| rios.order()[rank]);

                // Straight-line path for the dominant many-chip shape: one
                // candidate row on the chip — filter it and commit straight
                // from the row, no loop state, no FARO materialization.
                if let (1, Some(row)) = (cands.len(chip), cands.head(chip)) {
                    if row.seq > bound {
                        self.count(|t| &t.hazard_horizon_clips);
                        self.held.push(chip as u32);
                        continue;
                    }
                    if !row.read && ctx.queue.has_blocking_read(row.lpn, row.seq) {
                        self.count(|t| &t.hazard_war_deferrals);
                        self.held.push(chip as u32);
                        continue;
                    }
                    if overcommit {
                        self.count(|t| &t.faro_fast_path_rounds);
                    }
                    out.push(commit_of(row));
                    continue;
                }
                let room = capacity - outstanding[chip] as usize;
                self.compose_chip(ctx, chip, room, bound, out);
            }
        }
    }

    /// One multi-row chip of a resource-driven round: filters the chip's
    /// rows (FUA horizon, §4.4 write-after-read) and commits up to `room` of
    /// the survivors, listing the chip in `held` when it holds a row back.
    /// Under FARO the survivors stream into [`FaroSelector::select_streamed`]
    /// as the walk filters them, so one walk of the rows both filters and
    /// ranks; without it the first survivor, the oldest, wins.  Kept out of
    /// line so the round loop stays small for the single-row chips that
    /// dominate many-chip devices.
    // lint: hot-path
    #[inline(never)]
    fn compose_chip(
        &mut self,
        ctx: &SchedulerContext<'_>,
        chip: usize,
        room: usize,
        bound: u64,
        out: &mut Vec<Commitment>,
    ) {
        let telemetry = self.telemetry.as_deref();
        let count = |pick: fn(&TelemetryCounters) -> &std::sync::atomic::AtomicU64| {
            if let Some(telemetry) = telemetry {
                TelemetryCounters::incr(pick(telemetry));
            }
        };
        let held = Cell::new(false);
        let mut survivors = ctx
            .queue
            .candidate_view()
            .rows_of(chip)
            // Rows are ordered by admission seq: everything past the FUA
            // horizon is off limits.
            .take_while(|row| {
                let clipped = row.seq > bound;
                if clipped {
                    count(|t| &t.hazard_horizon_clips);
                    held.set(true);
                }
                !clipped
            })
            // §4.4: defer only the hazard-blocked page.
            .filter(|row| {
                let blocked = !row.read && ctx.queue.has_blocking_read(row.lpn, row.seq);
                if blocked {
                    count(|t| &t.hazard_war_deferrals);
                    held.set(true);
                }
                !blocked
            });
        if self.overcommits() {
            self.faro_picks.clear();
            let fast = FaroSelector.select_streamed(
                survivors.map(candidate_of),
                room,
                &mut self.faro_picks,
                &mut self.faro_scratch,
            );
            if fast {
                count(|t| &t.faro_fast_path_rounds);
            }
            out.extend(
                self.faro_picks
                    .iter()
                    .map(|&(tag, page)| Commitment { tag, page }),
            );
        } else if let Some(row) = survivors.next() {
            // No over-commitment: the rows arrive in (admission seq, page)
            // order, so the first non-blocked one is the oldest — nothing
            // further can win on this chip.
            out.push(commit_of(row));
        }
        if held.get() {
            self.held.push(chip as u32);
        }
    }
}

impl IoScheduler for Scheduler {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    /// Builds the RIOS traversal and empties the held-chip list, sized here
    /// since a round holds each chip back at most once.
    fn initialize(&mut self, geometry: &FlashGeometry) {
        self.traversal = Some(RiosTraversal::new(geometry));
        self.held.clear();
        self.held.reserve(geometry.total_chips());
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<TelemetryCounters>) {
        self.telemetry = Some(Arc::clone(telemetry));
    }

    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        match self.kind {
            SchedulerKind::Vas | SchedulerKind::Pas | SchedulerKind::Spk1 => {
                self.schedule_in_order(ctx, out);
            }
            SchedulerKind::Spk2 | SchedulerKind::Spk3 => self.schedule_resource_driven(ctx, out),
        }
    }

    /// The substrate refreshes the stale placement previews of queued tags
    /// when GC migrates a page; the Sprinkler variants need nothing more,
    /// because their per-round, per-chip grouping is rebuilt from those
    /// previews anyway.  VAS and PAS pay the stale-readdressing penalty.
    fn supports_readdressing(&self) -> bool {
        !matches!(self.kind, SchedulerKind::Vas | SchedulerKind::Pas)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sprinkler_flash::Lpn;
    use sprinkler_sim::SimTime;
    use sprinkler_ssd::queue::DeviceQueue;
    use sprinkler_ssd::request::{Direction, HostRequest, Placement, TagId};
    use sprinkler_ssd::CommitmentLedger;

    use crate::ReferenceScheduler;
    use SchedulerKind::{Spk1, Spk2, Spk3, Vas};

    /// The ledger cap of most cases: above [`OVERCOMMIT_DEPTH`], so the
    /// kind's own depth binds.
    pub(crate) const CAP: usize = 32;

    /// Admits `host` with page `i` at `(chip, die, plane) = pages[i]` and
    /// returns its tag.
    pub(crate) fn admit_at(
        queue: &mut DeviceQueue,
        host: HostRequest,
        pages: &[(usize, u32, u32)],
    ) -> TagId {
        let placement = |page: u32| {
            let (chip, die, plane) = pages[page as usize];
            Placement { chip, die, plane }
        };
        queue.admit(host, placement).expect("the queue has room")
    }

    /// Admits request `id` at `pages`; ids count from 0 on a fresh queue, so
    /// each is also its tag.
    fn admit(queue: &mut DeviceQueue, id: u64, dir: Direction, pages: &[(usize, u32, u32)]) {
        let host = HostRequest::new(
            id,
            SimTime::ZERO,
            dir,
            Lpn::new(id * 1000),
            pages.len() as u32,
        );
        assert_eq!(admit_at(queue, host, pages), TagId(id));
    }

    /// Admits read `id` with page `i` on die 0, plane 0 of `chips[i]`.
    pub(crate) fn admit_on(queue: &mut DeviceQueue, id: u64, chips: &[usize]) {
        let pages: Vec<_> = chips.iter().map(|&chip| (chip, 0, 0)).collect();
        admit(queue, id, Direction::Read, &pages);
    }

    /// One round of `kind` over `queue`, with `outstanding[chip]` requests
    /// already committed under a ledger cap of `cap`.
    pub(crate) fn schedule(
        kind: SchedulerKind,
        queue: &DeviceQueue,
        cap: usize,
        outstanding: &[usize],
    ) -> Vec<Commitment> {
        let geometry = FlashGeometry::small_test();
        let mut scheduler = Scheduler::new(kind);
        scheduler.initialize(&geometry);
        let ledger = CommitmentLedger::from_outstanding(cap, outstanding);
        let ctx = SchedulerContext {
            queue,
            ledger: &ledger,
        };
        let mut out = Vec::new();
        scheduler.schedule_into(&ctx, &mut out);
        out
    }

    fn chip_of(queue: &DeviceQueue, commitment: &Commitment) -> usize {
        queue
            .tag(commitment.tag)
            .unwrap()
            .placement(commitment.page)
            .chip
    }

    /// The commitments as `(tag, page)` pairs.
    fn pairs(out: &[Commitment]) -> Vec<(u64, u32)> {
        out.iter().map(|c| (c.tag.0, c.page)).collect()
    }

    /// The two axes: every kind is named by its label, and only FARO's kinds
    /// commit more than one request to a chip in a round.
    #[test]
    fn variant_names_and_components() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[0, 0, 0]);
        for kind in SchedulerKind::ALL {
            assert_eq!(Scheduler::new(kind).name(), kind.label());
            let out = schedule(kind, &queue, CAP, &[0; 4]);
            let expected = if matches!(kind, Spk1 | Spk3) { 3 } else { 1 };
            assert_eq!(out.len(), expected, "{kind}");
        }
    }

    #[test]
    fn already_committed_pages_are_skipped() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[0, 1]);
        assert!(queue.commit_page(TagId(0), 0));
        for kind in SchedulerKind::ALL {
            let out = schedule(kind, &queue, CAP, &[0; 4]);
            assert_eq!(pairs(&out), [(0, 1)], "{kind}");
        }
    }

    #[test]
    fn fua_acts_as_a_reordering_barrier() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[0]);
        let fua =
            HostRequest::new(1, SimTime::ZERO, Direction::Write, Lpn::new(50), 1).with_fua(true);
        admit_at(&mut queue, fua, &[(0, 0, 0)]);
        admit_on(&mut queue, 2, &[3]);
        // Tag 2's chip is idle, but it arrived after the uncommitted FUA write.
        for kind in SchedulerKind::ALL {
            let out = schedule(kind, &queue, CAP, &[0; 4]);
            assert_eq!(pairs(&out)[0], (0, 0), "{kind}");
            assert!(out.iter().all(|c| c.tag != TagId(2)), "{kind}");
        }
    }

    #[test]
    fn spk3_commits_beyond_io_boundaries() {
        let mut queue = DeviceQueue::new(8);
        // Tag 0 collides with tag 1 on chip 0; tag 2 targets chips 2 and 3.
        admit(&mut queue, 0, Direction::Read, &[(0, 0, 0), (1, 0, 0)]);
        admit(&mut queue, 1, Direction::Read, &[(0, 0, 1), (3, 0, 0)]);
        admit(&mut queue, 2, Direction::Read, &[(2, 0, 0), (3, 0, 1)]);
        let out = schedule(Spk3, &queue, CAP, &[0; 4]);
        // Every chip receives work; the chip-0 collision does not stop chips 2/3,
        // and over-commitment allows both chip-0 requests to be committed.
        let chips: std::collections::HashSet<usize> =
            out.iter().map(|c| chip_of(&queue, c)).collect();
        assert_eq!(chips.len(), 4);
        assert_eq!(out.len(), 6, "all six pages are committed in one round");
    }

    #[test]
    fn spk2_commits_at_most_one_request_per_chip() {
        let mut queue = DeviceQueue::new(8);
        admit(&mut queue, 0, Direction::Read, &[(0, 0, 0), (0, 0, 1)]);
        admit(&mut queue, 1, Direction::Read, &[(0, 1, 0), (2, 0, 0)]);
        let out = schedule(Spk2, &queue, CAP, &[0; 4]);
        assert_eq!(out.iter().filter(|c| chip_of(&queue, c) == 0).count(), 1);
        // Chip 2 still gets its request (resource-driven, not I/O ordered).
        assert!(out.iter().any(|c| chip_of(&queue, c) == 2));
    }

    #[test]
    fn spk2_skips_chips_with_outstanding_work() {
        let mut queue = DeviceQueue::new(8);
        admit_on(&mut queue, 0, &[0, 1]);
        let out = schedule(Spk2, &queue, CAP, &[1, 0, 0, 0]);
        assert_eq!(out.len(), 1);
        assert_eq!(chip_of(&queue, &out[0]), 1);
    }

    #[test]
    fn spk1_overcommits_but_blocks_in_order() {
        let mut queue = DeviceQueue::new(8);
        // Tag 0: two requests to chip 0 (different planes) — both can over-commit.
        admit(&mut queue, 0, Direction::Read, &[(0, 0, 0), (0, 0, 1)]);
        // Tag 1 targets chip 1.
        admit_on(&mut queue, 1, &[1]);
        let out = schedule(Spk1, &queue, CAP, &[0; 4]);
        assert_eq!(
            out.len(),
            3,
            "FARO depth allows both chip-0 requests plus tag 1"
        );

        // With chip 0 saturated to the FARO depth, SPK1 stalls at the head:
        let out = schedule(Spk1, &queue, CAP, &[OVERCOMMIT_DEPTH, 0, 0, 0]);
        assert!(out.is_empty(), "in-order composition blocks behind chip 0");
    }

    #[test]
    fn spk3_prefers_high_overlap_tags_under_pressure() {
        let mut queue = DeviceQueue::new(8);
        // Tag 0 concentrates on one plane of chip 0, tag 1 spans two dies.
        admit(&mut queue, 0, Direction::Read, &[(0, 0, 0), (0, 0, 0)]);
        admit(&mut queue, 1, Direction::Read, &[(0, 0, 1), (0, 1, 1)]);
        // A ledger cap of 2 leaves room for one tag's two pages.
        let out = schedule(Spk3, &queue, 2, &[0; 4]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|c| c.tag == TagId(1)));
    }

    #[test]
    fn write_after_read_blocks_resource_driven_writes() {
        let mut queue = DeviceQueue::new(8);
        // Tag 0 reads LPN 0..2, tag 1 writes LPN 1: the write must wait.
        let read = HostRequest::new(0, SimTime::ZERO, Direction::Read, Lpn::new(0), 2);
        admit_at(&mut queue, read, &[(0, 0, 0), (1, 0, 0)]);
        let write = HostRequest::new(1, SimTime::ZERO, Direction::Write, Lpn::new(1), 1);
        let writer = admit_at(&mut queue, write, &[(2, 0, 0)]);
        let out = schedule(Spk3, &queue, CAP, &[0; 4]);
        assert!(out.iter().all(|c| c.tag != writer));
        assert_eq!(out.len(), 2);
    }

    /// Locks in the §4.4 hazard policy on both composition paths: a two-page
    /// write with exactly one WAR-blocked page commits the unblocked page and
    /// defers only the blocked one, under every kind that checks hazards.
    /// VAS checks none and commits both.
    #[test]
    fn war_hazard_defers_only_the_blocked_page_on_both_paths() {
        let mut queue = DeviceQueue::new(8);
        // Tag 0 reads LPN 0 (uncommitted) on chip 3.
        let read = HostRequest::new(0, SimTime::ZERO, Direction::Read, Lpn::new(0), 1);
        admit_at(&mut queue, read, &[(3, 0, 0)]);
        // Tag 1 writes LPN 0..2: page 0 is WAR-blocked, page 1 is free.
        let write = HostRequest::new(1, SimTime::ZERO, Direction::Write, Lpn::new(0), 2);
        admit_at(&mut queue, write, &[(0, 0, 0), (1, 0, 0)]);
        for kind in SchedulerKind::ALL {
            let out = schedule(kind, &queue, CAP, &[0; 4]);
            let tag1_pages: Vec<u32> = out
                .iter()
                .filter(|c| c.tag == TagId(1))
                .map(|c| c.page)
                .collect();
            let expected = if kind == Vas { vec![0, 1] } else { vec![1] };
            assert_eq!(tag1_pages, expected, "{kind}");
            assert!(
                pairs(&out).contains(&(0, 0)),
                "{kind}: the read must still be composed"
            );
        }
    }

    /// One scheduler kept across rounds on one queue and ledger, driven the
    /// way `Ssd::run_scheduler` drives it: each round's commitments are
    /// checked against the reference twin's, the change log is cleared, and
    /// only then are the commitments applied.
    struct Rounds {
        kind: SchedulerKind,
        geometry: FlashGeometry,
        queue: DeviceQueue,
        ledger: CommitmentLedger,
        scheduler: Scheduler,
    }

    impl Rounds {
        /// A fresh queue and an idle ledger with a cap of 2, so SPK3's
        /// capacity is 2 and SPK2's is 1.
        fn new(kind: SchedulerKind) -> Self {
            let geometry = FlashGeometry::small_test();
            let mut scheduler = Scheduler::new(kind);
            scheduler.initialize(&geometry);
            Rounds {
                kind,
                ledger: CommitmentLedger::new(geometry.total_chips(), 2),
                geometry,
                queue: DeviceQueue::new(8),
                scheduler,
            }
        }

        /// The kind's per-chip capacity under the cap of 2.
        fn capacity(&self) -> usize {
            if self.kind == Spk3 {
                2
            } else {
                1
            }
        }

        /// Admits request `id` (its LPN range starts at `lpn`) with page `i`
        /// on die 0, plane 0 of `chips[i]`.
        fn admit(&mut self, id: u64, dir: Direction, lpn: u64, fua: bool, chips: &[usize]) {
            let host = HostRequest::new(id, SimTime::ZERO, dir, Lpn::new(lpn), chips.len() as u32)
                .with_fua(fua);
            let pages: Vec<_> = chips.iter().map(|&chip| (chip, 0, 0)).collect();
            assert_eq!(admit_at(&mut self.queue, host, &pages), TagId(id));
        }

        /// Admits read tag 0 with the kind's capacity of pages on each of
        /// chips 1–3 and commits them all in one round, so those chips are
        /// full and each charge is a committed page that can complete.
        fn fill_chips_1_to_3(&mut self) {
            let capacity = self.capacity();
            let chips: Vec<usize> = (1..4)
                .flat_map(|chip| std::iter::repeat_n(chip, capacity))
                .collect();
            self.admit(0, Direction::Read, 10_000, false, &chips);
            assert_eq!(self.round().len(), chips.len(), "{}", self.kind);
        }

        /// Runs one round and returns its commitments as `(tag, page)` pairs.
        fn round(&mut self) -> Vec<(u64, u32)> {
            let ctx = SchedulerContext {
                queue: &self.queue,
                ledger: &self.ledger,
            };
            let mut out = Vec::new();
            self.scheduler.schedule_into(&ctx, &mut out);
            let mut reference = ReferenceScheduler::new(self.kind);
            reference.initialize(&self.geometry);
            let mut expected = Vec::new();
            reference.schedule_into(&ctx, &mut expected);
            assert_eq!(out, expected, "{}: the round diverged", self.kind);
            self.queue.clear_changed();
            for commitment in &out {
                let chip = chip_of(&self.queue, commitment);
                assert!(self.queue.commit_page(commitment.tag, commitment.page));
                self.ledger.commit(chip);
            }
            pairs(&out)
        }

        /// Completes page `page` of tag `tag`, retiring its ledger charge.
        fn complete(&mut self, tag: u64, page: u32) {
            let chip = self.queue.tag(TagId(tag)).unwrap().placement(page).chip;
            self.ledger.retire(chip);
            assert_eq!(self.queue.complete_page(TagId(tag), page), Some(false));
        }
    }

    /// A chip at its capacity is skipped until a completion frees a slot,
    /// and commits in the round right after it, which the change log names.
    /// Chips 1–3 stay at capacity with rows throughout.
    #[test]
    fn a_full_chip_commits_in_the_round_after_a_retirement() {
        for kind in [Spk2, Spk3] {
            let mut rounds = Rounds::new(kind);
            let chips: Vec<usize> = (0..12).map(|page| page % 4).collect();
            rounds.admit(0, Direction::Read, 0, false, &chips);
            let first = rounds.round();
            assert_eq!(first.len(), 4 * rounds.capacity(), "{kind}");
            assert!(rounds.round().is_empty(), "{kind}: every chip is full");
            rounds.complete(0, 0);
            assert_eq!(rounds.queue.candidate_view().changed, &[0]);
            let next = if kind == Spk3 { 8 } else { 4 };
            assert_eq!(rounds.round(), [(0, next)], "{kind}");
            assert!(rounds.round().is_empty(), "{kind}");
        }
    }

    /// A write deferred behind an older uncommitted read of its LPN (§4.4)
    /// is held, and commits in the round after the read commits, although
    /// its own chip logged neither a row nor a completion.
    #[test]
    fn a_deferred_write_commits_in_the_round_after_its_read() {
        for kind in [Spk2, Spk3] {
            let mut rounds = Rounds::new(kind);
            rounds.fill_chips_1_to_3();
            rounds.admit(1, Direction::Read, 0, false, &[1]);
            rounds.admit(2, Direction::Read, 100, false, &[2, 3]);
            rounds.admit(3, Direction::Write, 0, false, &[0]);
            assert!(rounds.round().is_empty(), "{kind}: the write waits");
            // Tag 0's page 0 sits on chip 1.
            rounds.complete(0, 0);
            // The read commits; the write still sees it uncommitted.
            assert_eq!(rounds.round(), [(1, 0)], "{kind}");
            assert!(rounds.queue.candidate_view().changed.is_empty());
            assert_eq!(rounds.round(), [(3, 0)], "{kind}");
        }
    }

    /// A chip whose only rows lie past an uncommitted FUA tag is held, and
    /// commits once that tag is fully committed.
    #[test]
    fn a_chip_clipped_by_a_fua_tag_commits_once_the_tag_is_committed() {
        for kind in [Spk2, Spk3] {
            let mut rounds = Rounds::new(kind);
            rounds.fill_chips_1_to_3();
            rounds.admit(1, Direction::Read, 100, false, &[2, 3]);
            rounds.admit(2, Direction::Write, 200, true, &[1]);
            rounds.admit(3, Direction::Read, 300, false, &[0]);
            assert!(
                rounds.round().is_empty(),
                "{kind}: tag 3 is past the horizon"
            );
            // Tag 0's page 0 sits on chip 1.
            rounds.complete(0, 0);
            assert_eq!(rounds.round(), [(2, 0)], "{kind}");
            assert_eq!(rounds.queue.horizon_seq(), u64::MAX);
            assert_eq!(rounds.round(), [(3, 0)], "{kind}");
        }
    }
}
