//! Release-mode proof that the steady-state replay hot loop allocates nothing.
//!
//! This binary installs [`CountingAllocator`] as its global allocator and
//! replays a steady-state workload through `Ssd::run_stream`: a warm-up
//! prefix sizes every pool (device-queue tag states, FARO scratch, the
//! event queue's DMA lane, the FTL map; the commitment buffer, the one
//! arena of in-flight memory-request records, the queue's other lanes and
//! its heap are pre-sized to their bounds, and so are the round's change
//! log and held-chip list: the candidate index's change log with its chip
//! lists, the scheduler's held chips to the chip count at `initialize`),
//! then an [`AllocScope`] opens at the warm-up boundary and must observe
//! **zero allocation events** until the trace is exhausted.  Any
//! per-I/O allocation that sneaks back into the
//! queue/scheduler/controller/chip path turns this from 0 into thousands, so
//! the gate is unambiguous.
//!
//! The four heavyweight proofs are `#[ignore]`d: they are meaningful as a
//! performance gate only in release mode, and CI runs them explicitly with
//! `cargo test --release --test zero_alloc -- --ignored` (see
//! .github/workflows/ci.yml).
//!
//! Workload shape: requests span 8 pages; reads roam a 4096-LPN range
//! (unmapped reads are served without mutating the map).  GC stays disabled
//! (the default), so free blocks only deplete — the write volume is sized far
//! below the device capacity.  Two write patterns:
//!
//! * writes cycle a fixed 512-LPN footprint that warm-up maps completely;
//! * warm-up writes the even 8-page bases of the 4096-LPN span and the steady
//!   state the odd ones, which land on chips (ways 1/3/5/7) that warm-up only
//!   read, and on LPNs it never mapped.  This proves the pools are sized to
//!   their structural bounds rather than warmed by luck: the arena of
//!   in-flight memory-request records is pre-sized to the in-flight bound (`total_chips ×
//!   max_committed_per_chip`; GC, off here, may grow it past that, since
//!   GC traffic is not charged to the ledger), and the FTL's dense tables
//!   allocate a chunk only for a new 64 Ki-LPN range or a new block index,
//!   neither of which the steady state reaches.
//!
//! A third cell takes `seqread256k-64`'s shape: 128-page (256 KB) reads
//! with an 8-page write of the fixed footprint between each two.  Each read
//! puts two pages on every chip of the 64, so FARO's ranking runs its
//! general path over several tags per chip, and the writes' write-after-read
//! queries walk a hazard index holding hundreds of uncommitted read pages.
//!
//! Every cell replays under every [`SchedulerKind`] but one: the 64-chip
//! fixed-footprint cell leaves SPK1 out, because SPK1 queues more
//! uncommitted pages there after the warm-up than during it, and so grows
//! the candidate index's row arena (see the SPK1 `FOUND:` line of
//! CHANGES.md).

use std::cell::RefCell;
use std::rc::Rc;

use sprinkler::core::SchedulerKind;
use sprinkler::flash::Lpn;
use sprinkler::sim::{AllocScope, CountingAllocator, SimTime};
use sprinkler::ssd::request::{Direction, HostRequest};
use sprinkler::ssd::{RunMetrics, Ssd, SsdConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Pages per request: fixed so warm-up establishes every per-tag capacity.
const PAGES: u64 = 8;
/// Write-footprint LPN bases: 64 bases × 8 pages = 512 logical pages, all
/// mapped during warm-up.
const WRITE_BASES: u64 = 64;
/// LPNs the reads roam, and the span the split writes cover.
const SPAN: u64 = 4096;

/// Pages per read in the long-read cell: one 256 KB transfer.
const LONG_READ_PAGES: u64 = 128;

/// Where write `i` goes when `warm` is true during warm-up.
type WritePattern = fn(i: u64, warm: bool) -> u64;

/// Writes cycle 64 bases that warm-up maps completely.
fn fixed_footprint(i: u64, _warm: bool) -> u64 {
    (i % WRITE_BASES) * PAGES
}

/// Warm-up writes the even 8-page bases of the span, the steady state the
/// odd ones.
fn split_footprint(i: u64, warm: bool) -> u64 {
    let bases = SPAN / PAGES;
    ((i / 2 * 2) % bases + u64::from(!warm)) * PAGES
}

/// Even requests read `read_pages` pages roaming the span; odd ones write
/// 8 pages where `writes` puts them.
fn steady_requests(
    total: u64,
    warmup: u64,
    read_pages: u64,
    writes: WritePattern,
) -> Vec<HostRequest> {
    (0..total)
        .map(|i| {
            let (direction, lpn, pages) = if i % 2 == 0 {
                // Reads roam a wider range; unmapped reads are legal and
                // alloc-free (served from the static placement).
                (Direction::Read, Lpn::new((i * 13) % SPAN), read_pages)
            } else {
                (Direction::Write, Lpn::new(writes(i, i < warmup)), PAGES)
            };
            HostRequest::new(
                i,
                SimTime::from_nanos(i * 1_000),
                direction,
                lpn,
                pages as u32,
            )
        })
        .collect()
}

/// What the metered replay observed: the allocation delta over the
/// steady-state window and how many requests that window spanned.
#[derive(Debug, Default)]
struct Meter {
    scope: Option<AllocScope>,
    steady_allocs: Option<u64>,
    steady_bytes: Option<u64>,
}

/// Wraps the arrival iterator and opens an [`AllocScope`] once `warmup`
/// requests have been pulled, closing it when the trace is exhausted — the
/// measurement window is therefore exactly the steady-state portion of the
/// replay loop, on the replay thread.
struct Metered<I> {
    inner: I,
    yielded: u64,
    warmup: u64,
    /// `ZERO_ALLOC_PANIC` is set: panic at the first measured allocation.
    /// Read before the window opens, since the lookup itself allocates.
    panic_on_alloc: bool,
    meter: Rc<RefCell<Meter>>,
}

impl<I: Iterator<Item = HostRequest>> Iterator for Metered<I> {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        match self.inner.next() {
            Some(request) => {
                self.yielded += 1;
                if self.yielded == self.warmup {
                    self.meter.borrow_mut().scope = Some(AllocScope::begin());
                    if self.panic_on_alloc {
                        sprinkler::sim::panic_on_alloc(true);
                    }
                }
                Some(request)
            }
            None => {
                // Everything past this point (metrics finalization, teardown)
                // is one-time end-of-run work, not per-I/O cost: close the
                // measurement window here.
                sprinkler::sim::panic_on_alloc(false);
                let mut meter = self.meter.borrow_mut();
                if meter.steady_allocs.is_none() {
                    let scope = meter.scope.expect("warm-up boundary was reached");
                    meter.steady_allocs = Some(scope.allocations());
                    meter.steady_bytes = Some(scope.bytes());
                }
                None
            }
        }
    }
}

/// Replays `requests` through `run_stream` under `kind`, measuring
/// allocations after the first `warmup` pulls.  Returns the run metrics and
/// the steady-state allocation delta.
fn metered_replay(
    config: SsdConfig,
    kind: SchedulerKind,
    requests: Vec<HostRequest>,
    warmup: u64,
) -> (RunMetrics, u64, u64) {
    let meter = Rc::new(RefCell::new(Meter::default()));
    let source = Metered {
        inner: requests.into_iter(),
        yielded: 0,
        warmup,
        panic_on_alloc: std::env::var_os("ZERO_ALLOC_PANIC").is_some(),
        meter: Rc::clone(&meter),
    };
    let ssd = Ssd::new(config, kind.build()).unwrap();
    let metrics = ssd.run_stream(source);
    let meter = meter.borrow();
    (
        metrics,
        meter.steady_allocs.expect("the replay drained the source"),
        meter.steady_bytes.expect("the replay drained the source"),
    )
}

fn assert_zero_alloc_steady_state(
    config: SsdConfig,
    kind: SchedulerKind,
    requests: Vec<HostRequest>,
    warmup: u64,
) -> RunMetrics {
    let total = requests.len() as u64;
    let (metrics, steady_allocs, steady_bytes) = metered_replay(config, kind, requests, warmup);
    assert_eq!(
        metrics.io_count, total,
        "{kind}: every request must complete"
    );
    // The always-on telemetry substrate rode along for free.
    assert_eq!(metrics.telemetry.stream_admissions, total);
    assert!(metrics.telemetry.sched_rounds > 0);
    assert_eq!(
        steady_allocs,
        0,
        "{kind}: steady-state replay performed {steady_allocs} allocations \
         ({steady_bytes} bytes) over {} measured requests — the hot loop \
         regressed from zero allocations per I/O",
        total - warmup,
    );
    metrics
}

/// Steady-state replay on the 64-chip paper geometry allocates nothing
/// under every kind but SPK1, which grows the candidate index's row arena
/// here after warm-up (its `FOUND:` line in CHANGES.md).
#[test]
#[ignore = "release-mode perf gate; run via cargo test --release --test zero_alloc -- --ignored"]
fn steady_state_replay_is_allocation_free_small() {
    use SchedulerKind::{Pas, Spk2, Spk3, Vas};
    for kind in [Vas, Pas, Spk2, Spk3] {
        let config = SsdConfig::paper_default().with_blocks_per_plane(64);
        let requests = steady_requests(6_000, 3_000, PAGES, fixed_footprint);
        assert_zero_alloc_steady_state(config, kind, requests, 3_000);
    }
}

/// The steady state writes chips and LPNs that warm-up never wrote: the
/// pending sets and FTL tables must already hold them, under every kind.
#[test]
#[ignore = "release-mode perf gate; run via cargo test --release --test zero_alloc -- --ignored"]
fn steady_state_writes_to_unwritten_chips_are_allocation_free() {
    for kind in SchedulerKind::ALL {
        let config = SsdConfig::paper_default().with_blocks_per_plane(64);
        let requests = steady_requests(6_000, 3_000, PAGES, split_footprint);
        assert_zero_alloc_steady_state(config, kind, requests, 3_000);
    }
}

/// The same proof at 1024 chips under every scheduler: pool sizing, not
/// luck, keeps the loop clean.
#[test]
#[ignore = "release-mode perf gate; run via cargo test --release --test zero_alloc -- --ignored"]
fn steady_state_replay_is_allocation_free_1024_chips() {
    for kind in SchedulerKind::ALL {
        let config = SsdConfig::paper_default()
            .with_chip_count(1024)
            .with_blocks_per_plane(64);
        let requests = steady_requests(6_000, 3_000, PAGES, fixed_footprint);
        assert_zero_alloc_steady_state(config, kind, requests, 3_000);
    }
}

/// `seqread256k-64`'s shape at 64 chips under every scheduler: 128-page
/// reads, 8-page writes between them.  The measured window runs FARO's
/// general ranking and write-after-read queries against hundreds of hazard
/// entries.
#[test]
#[ignore = "release-mode perf gate; run via cargo test --release --test zero_alloc -- --ignored"]
fn long_read_replay_is_allocation_free() {
    for kind in SchedulerKind::ALL {
        let config = SsdConfig::paper_default().with_blocks_per_plane(64);
        let requests = steady_requests(3_000, 1_500, LONG_READ_PAGES, fixed_footprint);
        let metrics = assert_zero_alloc_steady_state(config, kind, requests, 1_500);
        // VAS checks no hazard, and PAS and SPK2 give a chip's one slot to
        // an older read page before a write comes up: in this cell only the
        // over-committing kinds defer writes.
        let overcommits = matches!(kind, SchedulerKind::Spk1 | SchedulerKind::Spk3);
        assert!(
            !overcommits || metrics.telemetry.hazard_war_deferrals > 0,
            "{kind}: no write waited on a queued read: the hazard index answered nothing"
        );
    }
}

/// The counting allocator itself works in this binary: a deliberate heap
/// allocation inside a scope is observed.  (Not ignored — this sanity check
/// is cheap and guards against the gate silently measuring nothing.)
#[test]
fn counting_allocator_observes_allocations() {
    let scope = AllocScope::begin();
    let v: Vec<u64> = Vec::with_capacity(1024);
    assert!(scope.allocations() >= 1, "allocation was not counted");
    assert!(scope.bytes() >= 8 * 1024, "bytes were not counted");
    drop(v);
}
