//! The event-driven many-chip SSD simulator.
//!
//! [`Ssd`] binds every substrate component together and simulates the full I/O
//! service routine of Fig 3: host arrivals → device-queue admission (tags) →
//! scheduler-driven memory-request composition and commitment → host DMA → FTL
//! translation/allocation → per-chip transaction folding (one request per
//! (die, plane)) → channel-arbitrated bus phases and overlapped cell phases →
//! completion upcalls, per-page completion marking, and I/O retirement.  Garbage collection
//! injects internal flash traffic and fires readdressing callbacks for schedulers
//! that support them.
//!
//! Per-request state is slot-indexed, with no hashing on the replay path:
//! every in-flight memory request is one record in `MemRequests`, one arena
//! of in-flight memory-request records addressed by `u32` handles, from
//! commitment (or GC issue) to completion; delivered requests wait on its
//! per-(die, plane) lists, a chip's live transaction is stored at the chip's
//! index as its first member's handle and its member count, and GC jobs sit
//! at their plane's index.  Events carry only those handles, so an event
//! entry stays small.
//!
//! Four of the six event kinds come from sources that schedule in
//! nondecreasing time, so each source gets a FIFO lane of the
//! [`EventQueue`]: scheduling rounds (at "now", at most one pending), chip
//! kicks (at "now" plus the constant decision window, at most one per chip),
//! and the DMA engine's completions (write data ready and read data
//! returned, in the engine's strictly increasing FIFO order).  Only the two
//! transaction phases, at most one per chip since a chip runs one
//! transaction, go to the queue's heap side.  A program's completion phase
//! is a status read of a few tens of nanoseconds, so its `TxnComplete`
//! usually fires ahead of every other heap-side event and waits in the
//! queue's front slot instead of sifting through the heap.
//!
//! A chip runs one transaction at a time (§2.2): it is busy while its slot in
//! `live` holds one.  The [`CommitmentLedger`], which the schedulers read,
//! counts a chip's committed-but-incomplete memory requests; the
//! [`controller`](crate::controller) fold (`MemRequests::fold`) gives a
//! transaction's members and phase times, and its chip and plane busy time
//! are summed when it completes, for the chip utilization and intra-chip
//! idleness metrics.

use std::collections::VecDeque;
use std::sync::Arc;

use sprinkler_flash::{FlashOp, Lpn, ParallelismLevel, PhysicalPageAddr};
use sprinkler_sim::{Duration, EventQueue, SimTime, TelemetryCounters};

use crate::cand::MAX_REQUEST_PAGES;
use crate::channel::Channel;
use crate::config::SsdConfig;
use crate::controller::{MemRequest, MemRequests, Role};
use crate::dma::DmaEngine;
use crate::error::SsdError;
use crate::ftl::Ftl;
use crate::ledger::CommitmentLedger;
use crate::metrics::{MetricsCollector, RunMetrics, WorkCounts};
use crate::queue::DeviceQueue;
use crate::request::{Direction, HostRequest, MemReqId, TagId};
use crate::scheduler::{Commitment, IoScheduler, SchedulerContext};

/// The event queue's lane for [`SsdEvent::Schedule`].
const SCHEDULE_LANE: usize = 0;
/// The event queue's lane for [`SsdEvent::ChipKick`].
const CHIP_KICK_LANE: usize = 1;
/// The event queue's lane for the DMA engine's completions,
/// [`SsdEvent::WriteDataReady`] and [`SsdEvent::ReadReturned`].
const DMA_LANE: usize = 2;

/// Simulation events.  Every payload is a `u32` handle: a memory request's
/// record handle or a chip index.
#[derive(Debug, Clone, Copy)]
enum SsdEvent {
    /// Run the scheduler.
    Schedule,
    /// Host write data for a memory request finished crossing the DMA engine.
    WriteDataReady(u32),
    /// A chip's transaction decision window expired; try to build a transaction.
    ChipKick(u32),
    /// The cell phase of a chip's live transaction finished; arbitrate its
    /// completion phase.
    CellDone(u32),
    /// A chip's live transaction (including its completion bus phase) finished.
    TxnComplete(u32),
    /// Read data for a memory request finished returning to the host.
    ReadReturned(u32),
}

/// A transaction currently executing on a chip (at most one per chip).
#[derive(Debug)]
struct LiveTransaction {
    channel: usize,
    /// The handle of the first member; each member's record links the next.
    first: u32,
    /// Members, one per (die, plane).
    requests: usize,
    level: ParallelismLevel,
    /// When the issue bus phase started: the chip is busy from here until
    /// the transaction completes.
    start: SimTime,
    bus_time: Duration,
    cell_time: Duration,
    contention: Duration,
    completion_bus: Duration,
}

/// The garbage-collection job running on one plane.
#[derive(Debug, Clone)]
struct GcJob {
    /// Valid pages whose program at their new home has not completed.
    pages_left: usize,
    /// The victim block, erased once `pages_left` reaches 0.
    erase_addr: PhysicalPageAddr,
}

/// The simulated many-chip SSD.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::{Ssd, SsdConfig};
/// use sprinkler_ssd::scheduler::CommitAllScheduler;
/// use sprinkler_ssd::request::{Direction, HostRequest};
/// use sprinkler_flash::Lpn;
/// use sprinkler_sim::SimTime;
///
/// let config = SsdConfig::small_test();
/// let mut ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
/// let trace = vec![
///     HostRequest::new(0, SimTime::ZERO, Direction::Write, Lpn::new(0), 8),
///     HostRequest::new(1, SimTime::from_micros(5), Direction::Read, Lpn::new(0), 8),
/// ];
/// let metrics = ssd.run(trace);
/// assert_eq!(metrics.io_count, 2);
/// assert!(metrics.avg_latency_ns > 0.0);
/// ```
#[derive(Debug)]
pub struct Ssd {
    config: SsdConfig,
    scheduler: Box<dyn IoScheduler>,
    ftl: Ftl,
    channels: Vec<Channel>,
    dma: DmaEngine,
    queue: DeviceQueue,
    events: EventQueue<SsdEvent>,

    waiting_host: VecDeque<HostRequest>,
    /// Every in-flight memory request's record, from commitment (or GC
    /// issue) to completion, with each chip's pending lists and the fold.
    mem_requests: MemRequests,
    /// Commitment accounting, maintained incrementally (commit, completion)
    /// so scheduling rounds never rebuild an O(chip count) view.  All cap
    /// enforcement lives in the ledger; see [`CommitmentLedger`] for the
    /// invariant.
    ledger: CommitmentLedger,
    /// The live transaction of each chip; a chip is busy while it has one.
    live: Vec<Option<LiveTransaction>>,
    /// Per chip: total time the chip was busy with transactions.
    chip_busy: Vec<Duration>,
    /// Per chip: total cell time summed over its planes.
    plane_busy: Vec<Duration>,
    chip_kick_pending: Vec<bool>,
    schedule_pending: bool,
    /// Reusable commitment buffer for scheduling rounds (`schedule_into`).
    commit_buf: Vec<Commitment>,
    /// Always-on hot-path counters, shared with the scheduler and frozen into
    /// the run metrics at finalize.
    telemetry: Arc<TelemetryCounters>,

    /// The GC job of each plane; empty when GC is disabled.
    gc_jobs: Vec<Option<GcJob>>,
    /// Sorted LPNs moved across planes by GC whose next access pays the stale
    /// readdressing penalty (schedulers without `on_readdress` only).
    readdressed_lpns: Vec<u64>,

    next_mreq: u64,
    /// Host write pages the FTL could not place.
    failed_writes: u64,
    /// Host requests refused at ingestion (zero pages, or longer than
    /// `MAX_REQUEST_PAGES`).
    refused_ios: u64,
    /// Events handled by kind, and rounds that committed nothing.
    work: WorkCounts,

    metrics: MetricsCollector,
}

impl Ssd {
    /// Builds an SSD from a configuration and a scheduler.
    ///
    /// # Errors
    ///
    /// Returns the [`SsdConfig::validate`] error if `config` is invalid.
    pub fn new(config: SsdConfig, scheduler: Box<dyn IoScheduler>) -> Result<Self, SsdError> {
        Self::with_series(config, scheduler, false)
    }

    /// Like [`Ssd::new`] but also records the per-I/O latency time series needed by
    /// Fig 12.
    ///
    /// # Errors
    ///
    /// Returns the [`SsdConfig::validate`] error if `config` is invalid.
    pub fn with_series(
        config: SsdConfig,
        mut scheduler: Box<dyn IoScheduler>,
        record_series: bool,
    ) -> Result<Self, SsdError> {
        config.validate()?;
        let geometry = config.geometry.clone();
        scheduler.initialize(&geometry);
        let channels = vec![Channel::default(); geometry.channels];
        let ftl = Ftl::new(
            geometry.clone(),
            config.allocation,
            config.gc.free_block_watermark,
        );
        let metrics = MetricsCollector::new(scheduler.name(), record_series);
        let telemetry = Arc::clone(metrics.telemetry());
        scheduler.attach_telemetry(&telemetry);
        let total_chips = geometry.total_chips();
        // In-flight host memory requests are bounded by the commitment ledger
        // (every committed page is at most one in-flight memory request), so
        // the arena of in-flight records is pre-sized to that bound.  GC
        // traffic is not charged to the ledger: it may grow the arena past
        // the bound, to its high-water mark.
        let in_flight_bound = total_chips.saturating_mul(config.max_committed_per_chip);
        let gc_planes = if config.gc.enabled {
            geometry.total_planes()
        } else {
            0
        };
        Ok(Ssd {
            dma: DmaEngine::new(config.dma_bytes_per_sec),
            queue: DeviceQueue::new(config.queue_depth),
            // A lane per monotone source: one pending round, a kick per
            // chip, and the DMA completions, bounded only by the in-flight
            // requests, so that lane grows to its high-water mark instead.
            // The heap holds at most one transaction phase per chip.
            events: EventQueue::with_lanes(&[1, total_chips, 0], total_chips),
            waiting_host: VecDeque::new(),
            mem_requests: MemRequests::new(&geometry, in_flight_bound),
            ledger: CommitmentLedger::new(total_chips, config.max_committed_per_chip),
            live: (0..total_chips).map(|_| None).collect(),
            chip_busy: vec![Duration::ZERO; total_chips],
            plane_busy: vec![Duration::ZERO; total_chips],
            chip_kick_pending: vec![false; total_chips],
            schedule_pending: false,
            // The paper's schedulers propose at most each chip's headroom
            // in a round, so a round fits in the in-flight bound.
            commit_buf: Vec::with_capacity(in_flight_bound),
            telemetry,
            gc_jobs: vec![None; gc_planes],
            readdressed_lpns: Vec::new(),
            next_mreq: 0,
            failed_writes: 0,
            refused_ios: 0,
            work: WorkCounts::default(),
            metrics,
            config,
            scheduler,
            ftl,
            channels,
        })
    }

    /// The configuration this SSD was built with.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The scheduler's name.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Registers per-tenant metric lanes for this run.  Completed I/Os whose
    /// [`HostRequest::tenant`] indexes a registered lane are attributed to it
    /// (latency measured from [`HostRequest::submitted`]); the lanes surface
    /// as [`RunMetrics::tenants`].  Call before replay starts.
    pub fn configure_tenants(&mut self, specs: &[crate::metrics::TenantLaneSpec]) {
        self.metrics.configure_tenants(specs);
    }

    /// Pre-conditions the SSD into a fragmented state (live data occupying
    /// `utilization` of the physical capacity) so garbage collection triggers
    /// quickly, as in the Fig 17 experiments.  Must be called before
    /// [`Ssd::run`] or [`Ssd::run_stream`], since both consume the device.
    pub fn precondition(&mut self, utilization: f64, seed: u64) {
        self.ftl.precondition(utilization, seed);
    }

    /// Starts this device from a copy of `ftl`, the FTL of a device built
    /// from `config` and pre-conditioned once, so that many runs on one
    /// configuration share a single fill instead of each repeating
    /// [`Ssd::precondition`].  Must be called before [`Ssd::run`] or
    /// [`Ssd::run_stream`].
    ///
    /// # Errors
    ///
    /// [`SsdError::InvalidConfig`], leaving the device unchanged, when
    /// `config` is not this device's configuration: the FTL would not match
    /// its geometry, allocation policy or GC watermark.
    pub fn copy_ftl(&mut self, config: &SsdConfig, ftl: &Ftl) -> Result<(), SsdError> {
        if *config != self.config {
            return Err(SsdError::InvalidConfig(
                "the FTL to copy belongs to a device of another configuration".to_string(),
            ));
        }
        self.ftl.clone_from(ftl);
        Ok(())
    }

    /// Runs the simulation over a trace of host requests and returns the collected
    /// metrics.  Requests may arrive in any order; they are sorted by arrival time
    /// and then replayed through the bounded-admission streaming loop of
    /// [`Ssd::run_stream`].
    pub fn run(self, trace: impl IntoIterator<Item = HostRequest>) -> RunMetrics {
        let mut arrivals: Vec<HostRequest> = trace.into_iter().collect();
        arrivals.sort_by_key(|r| (r.arrival, r.id));
        self.run_stream(arrivals)
    }

    /// Runs the simulation over a *time-ordered* stream of host requests with
    /// bounded admission: at most one pulled-but-unscheduled request plus a
    /// host-side backlog capped at the device queue depth are ever buffered, so
    /// the replay's memory footprint is O(queue depth + in-flight work) — not
    /// O(trace length) as with a fully materialized arrival list.  This is the
    /// path every experiment replay runs through; multi-million-I/O traces
    /// stream straight from a generator or parser.
    ///
    /// A request is *ingested* when its arrival time is due before the next
    /// simulation event and the backlog has room; requests arriving faster
    /// than the device retires work wait inside the source instead of piling
    /// up in memory.  Arrivals never enter the event queue.  Deferral never
    /// changes recorded arrival times, admission order, or admission times, so
    /// the metrics are identical to an eager replay.
    ///
    /// # Panics
    ///
    /// Panics if the stream yields a request whose arrival time precedes the
    /// previous request's (use [`Ssd::run`] for unsorted traces).
    pub fn run_stream(mut self, arrivals: impl IntoIterator<Item = HostRequest>) -> RunMetrics {
        let backlog_cap = self.config.queue_depth.max(1);
        self.replay(arrivals, backlog_cap);
        self.finalize()
    }

    /// The loop of [`Ssd::run_stream`], buffering at most `backlog_cap`
    /// ingested-but-unadmitted host requests.
    fn replay(&mut self, arrivals: impl IntoIterator<Item = HostRequest>, backlog_cap: usize) {
        let mut source = arrivals.into_iter();
        let mut next = source.next();
        let mut last_arrival = SimTime::ZERO;
        loop {
            let next_event = self.events.peek_time();
            let due = match (&next, next_event) {
                (Some(request), Some(next_event)) => request.arrival <= next_event,
                (Some(_), None) => true,
                (None, _) => false,
            };
            // With an empty event queue the arrival must be ingested regardless
            // of the backlog bound, or the replay could not make progress (in
            // practice a full backlog implies queued tags and therefore pending
            // events).
            let backlog_has_room = self.waiting_host.len() < backlog_cap || next_event.is_none();
            if let Some(request) = next.take_if(|_| due && backlog_has_room) {
                TelemetryCounters::incr(&self.telemetry.stream_admissions);
                assert!(
                    request.arrival >= last_arrival,
                    "run_stream requires nondecreasing arrival times (request {} at {} ns \
                     after {} ns)",
                    request.id,
                    request.arrival.as_nanos(),
                    last_arrival.as_nanos(),
                );
                last_arrival = request.arrival;
                next = source.next();
                // An arrival deferred past its nominal time (backlog was full)
                // is ingested at the current simulation time; `request.arrival`
                // itself is what every metric records.
                let at = request.arrival.max(self.events.now());
                self.ingest(at, request);
            } else if let Some((now, event)) = self.events.pop() {
                if due {
                    // A request was due but the bounded backlog had no room:
                    // the loop drains device events instead of ingesting.
                    TelemetryCounters::incr(&self.telemetry.stream_stalls);
                }
                self.handle_event(now, event);
            } else {
                debug_assert!(next.is_none(), "replay stalled with requests left");
                break;
            }
        }
    }

    fn finalize(self) -> RunMetrics {
        let end = self.events.now();
        let planes_per_chip =
            self.config.geometry.dies_per_chip * self.config.geometry.planes_per_die;
        let metrics = self.metrics.finalize(
            end,
            &self.chip_busy,
            &self.plane_busy,
            planes_per_chip,
            self.ftl.gc_stats(),
        );
        // A chip runs one transaction at a time, and each of its planes
        // serves at most one member per transaction, so neither sum can
        // exceed its bound (`finalize` clamps the ratios, which would hide
        // a violation).
        debug_assert!(
            self.chip_busy
                .iter()
                .all(|busy| busy.as_nanos() <= metrics.elapsed_ns),
            "a chip was busy longer than the run"
        );
        debug_assert!(
            self.chip_busy
                .iter()
                .zip(&self.plane_busy)
                .all(|(&chip, &planes)| planes <= chip * planes_per_chip as u64),
            "a chip's planes were busy longer than the chip"
        );
        // Every admitted page completes exactly once: a replay leaves no
        // tag, record, transaction, GC job or ledger charge behind.
        debug_assert!(
            self.queue.is_empty()
                && self.waiting_host.is_empty()
                && self.mem_requests.is_drained()
                && self.live.iter().all(Option::is_none)
                && self.gc_jobs.iter().all(Option::is_none)
                && self.ledger.outstanding_slice().iter().all(|&n| n == 0),
            "the replay did not drain: work is still in flight at the end of the run"
        );
        RunMetrics {
            peak_pending_events: self.events.peak_len() as u64,
            failed_writes: self.failed_writes,
            refused_ios: self.refused_ios,
            work: self.work,
            ..metrics
        }
    }

    /// Takes a host request in at `now`: it waits for a queue tag, and a
    /// scheduling round is requested.  A request of zero pages, longer than
    /// `MAX_REQUEST_PAGES`, or whose LPN range runs past `u64::MAX` is
    /// refused instead: the first has no page whose completion could retire
    /// its tag, the second's page offsets would collide in the candidate
    /// keys, and the third's last pages have no LPN.
    fn ingest(&mut self, now: SimTime, request: HostRequest) {
        if request.pages == 0
            || request.pages > MAX_REQUEST_PAGES
            || request
                .start_lpn
                .value()
                .checked_add(u64::from(request.pages) - 1)
                .is_none()
        {
            self.refused_ios += 1;
            return;
        }
        self.metrics.record_arrival(request.arrival);
        self.waiting_host.push_back(request);
        self.try_admit(now);
        self.metrics.record_host_backlog(self.waiting_host.len());
        self.request_schedule(now);
    }

    fn handle_event(&mut self, now: SimTime, event: SsdEvent) {
        match event {
            SsdEvent::Schedule => {
                self.work.schedule_events += 1;
                self.schedule_pending = false;
                self.run_scheduler(now);
            }
            SsdEvent::WriteDataReady(handle) => {
                self.work.write_data_ready_events += 1;
                self.deliver_to_controller(handle, now);
            }
            SsdEvent::ChipKick(chip) => {
                self.work.chip_kick_events += 1;
                self.chip_kick_pending[chip as usize] = false;
                self.try_start_transaction(chip as usize, now);
            }
            SsdEvent::CellDone(chip) => {
                self.work.cell_done_events += 1;
                self.handle_cell_done(chip as usize, now);
            }
            SsdEvent::TxnComplete(chip) => {
                self.work.txn_complete_events += 1;
                self.handle_txn_complete(chip as usize, now);
            }
            SsdEvent::ReadReturned(handle) => {
                self.work.read_returned_events += 1;
                self.complete_mem_request(handle, now);
            }
        }
    }

    fn next_mreq_id(&mut self) -> MemReqId {
        let id = MemReqId(self.next_mreq);
        self.next_mreq += 1;
        id
    }

    // ------------------------------------------------------------------
    // Admission and scheduling
    // ------------------------------------------------------------------

    fn try_admit(&mut self, now: SimTime) {
        while !self.queue.is_full() {
            let Some(request) = self.waiting_host.pop_front() else {
                break;
            };
            self.metrics.record_admission(request.arrival, now);
            // Placements go straight from the FTL preview into the placement
            // buffer the slot kept from its last tag — no intermediate Vec
            // per admission.
            let ftl = &self.ftl;
            let admitted = self.queue.admit(request, |page| {
                ftl.preview(request.lpn_at(page), request.direction)
            });
            debug_assert!(
                admitted.is_some(),
                "admission into a non-full queue must succeed"
            );
        }
    }

    fn request_schedule(&mut self, now: SimTime) {
        if !self.schedule_pending {
            self.schedule_pending = true;
            self.events
                .schedule_in(SCHEDULE_LANE, now, SsdEvent::Schedule);
        }
    }

    fn run_scheduler(&mut self, now: SimTime) {
        if self.queue.is_empty() {
            return;
        }
        TelemetryCounters::incr(&self.telemetry.sched_rounds);
        // The commitment buffer is taken out of `self` for the borrow and
        // reused every round (pre-sized to the in-flight bound).
        let mut commitments = std::mem::take(&mut self.commit_buf);
        commitments.clear();
        {
            let ctx = SchedulerContext {
                queue: &self.queue,
                ledger: &self.ledger,
            };
            self.scheduler.schedule_into(&ctx, &mut commitments);
        }
        // The round has read the change log; whatever changes from here on
        // goes into the next round's.
        self.queue.clear_changed();
        let mut committed_any = false;
        for &Commitment { tag, page } in &commitments {
            committed_any |= self.commit_memory_request(tag, page, now);
        }
        if !committed_any {
            self.work.empty_rounds += 1;
        }
        self.commit_buf = commitments;
    }

    /// Applies one commitment; returns whether it charged the ledger (an
    /// unknown tag, a page out of range or already committed, or a chip
    /// without headroom charges nothing).
    fn commit_memory_request(&mut self, tag_id: TagId, page: u32, now: SimTime) -> bool {
        let page_size = self.config.page_size() as u64;
        let Some(tag) = self.queue.tag(tag_id) else {
            return false;
        };
        if page as usize >= tag.pages() {
            return false;
        }
        let chip = tag.placement(page).chip;
        // Commitments beyond the chip's headroom are deferred to a later round.
        // `outstanding` already reflects this round's commits exactly once, so
        // the headroom available within a single round is the full
        // `max_committed_per_chip`.
        if self.ledger.headroom(chip) == 0 {
            TelemetryCounters::incr(&self.telemetry.ledger_headroom_exhausted);
            return false;
        }
        let host = tag.host;
        if !self.queue.commit_page(tag_id, page) {
            return false;
        }
        self.ledger.commit(chip);
        let id = self.next_mreq_id();
        let op = if host.direction.is_write() {
            FlashOp::Program
        } else {
            FlashOp::Read
        };
        let role = Role::Host { tag: tag_id, page };
        let handle = self
            .mem_requests
            .insert(id, role, host.lpn_at(page), op, chip);
        if op == FlashOp::Program {
            // Write payload must cross the host interface before the flash program
            // can be composed (memory request composition + data movement, Fig 3).
            let ready = self.dma.transfer(now, page_size);
            self.events
                .schedule_in(DMA_LANE, ready, SsdEvent::WriteDataReady(handle));
        } else {
            self.deliver_to_controller(handle, now);
        }
        true
    }

    // ------------------------------------------------------------------
    // Delivery to chips and transaction execution
    // ------------------------------------------------------------------

    /// Delivers host request `handle`: a read goes to its page's current
    /// address, a write to the page the FTL allocates for it.
    fn deliver_to_controller(&mut self, handle: u32, now: SimTime) {
        let &MemRequest { role, lpn, op, .. } = self.mem_requests.get(handle);
        // GC traffic is delivered directly by the GC path, never here.
        debug_assert!(matches!(role, Role::Host { .. }), "{role:?} is GC traffic");
        let addr = if op == FlashOp::Read {
            self.ftl.translate_read(lpn)
        } else {
            match self.ftl.allocate_write(lpn) {
                Some(alloc) => {
                    if self.config.gc.enabled && self.ftl.needs_gc(alloc.plane_index) {
                        self.start_gc(alloc.plane_index, now);
                    }
                    alloc.addr
                }
                None => {
                    // The SSD is completely full, or the page lies past the
                    // logical space; fail the write but keep the simulation
                    // making progress.
                    self.failed_writes += 1;
                    self.complete_mem_request(handle, now);
                    return;
                }
            }
        };

        // A read of an LPN that GC moved across planes re-translates its
        // stale address.  A write has nothing stale: the FTL picked its page
        // just now, and its new mapping spares a later read the penalty too.
        let stale = !self.scheduler.supports_readdressing() && self.take_readdressed(lpn.value());
        let extra_delay = if stale && op == FlashOp::Read {
            self.config.gc.stale_readdress_penalty
        } else {
            Duration::ZERO
        };
        self.deliver_pending(handle, addr, extra_delay, now);
    }

    /// Links request `handle` into its chip's pending lists and kicks the
    /// chip if idle.
    fn deliver_pending(
        &mut self,
        handle: u32,
        addr: PhysicalPageAddr,
        extra_delay: Duration,
        now: SimTime,
    ) {
        let geometry = &self.config.geometry;
        debug_assert!(
            geometry.check_addr(addr).is_ok(),
            "{addr} lies outside the device geometry"
        );
        let chip = geometry.chip_index(addr.channel, addr.way);
        self.mem_requests.push(chip, handle, addr, now, extra_delay);
        if self.live[chip].is_none() {
            self.schedule_chip_kick(chip, now);
        }
    }

    fn schedule_chip_kick(&mut self, chip: usize, now: SimTime) {
        if self.chip_kick_pending[chip] {
            return;
        }
        self.chip_kick_pending[chip] = true;
        self.events.schedule_in(
            CHIP_KICK_LANE,
            now + self.config.decision_window,
            SsdEvent::ChipKick(chip as u32),
        );
    }

    fn try_start_transaction(&mut self, chip_index: usize, now: SimTime) {
        if self.live[chip_index].is_some() {
            return;
        }
        let Some(built) = self.mem_requests.fold(chip_index, &self.config.timing) else {
            return;
        };
        // The issue bus phase (commands, addresses, program data in) holds
        // the channel; the cell phase that follows leaves it free.  An idle
        // chip has finished its last transaction by `now`, so the issue phase
        // waits only for the stale-readdress penalty and the channel.
        let channel = self.config.geometry.chip_location(chip_index).channel as usize;
        let grant = self.channels[channel].acquire(now + built.extra_delay, built.issue_bus);
        self.live[chip_index] = Some(LiveTransaction {
            channel,
            first: built.first,
            requests: built.requests,
            level: built.level,
            start: grant.start,
            bus_time: built.issue_bus + built.completion_bus,
            cell_time: built.cell_time,
            contention: grant.waited,
            completion_bus: built.completion_bus,
        });
        self.events.schedule(
            grant.end + built.cell_time,
            SsdEvent::CellDone(chip_index as u32),
        );
    }

    fn handle_cell_done(&mut self, chip: usize, now: SimTime) {
        let Some(live) = self.live[chip].as_mut() else {
            return;
        };
        let grant = self.channels[live.channel].acquire(now, live.completion_bus);
        live.contention += grant.waited;
        self.events
            .schedule(grant.end, SsdEvent::TxnComplete(chip as u32));
    }

    fn handle_txn_complete(&mut self, chip: usize, now: SimTime) {
        let Some(live) = self.live[chip].take() else {
            return;
        };
        // Every member sits on its own (die, plane), each busy for the
        // whole cell phase.
        self.chip_busy[chip] += now.saturating_since(live.start);
        self.plane_busy[chip] += live.cell_time * live.requests as u64;
        self.metrics.record_transaction(
            live.level,
            live.requests,
            live.bus_time,
            live.contention,
            live.cell_time,
        );
        let page_size = self.config.page_size() as u64;
        let mut member = live.first;
        for _ in 0..live.requests {
            // Completion frees a member's record, so its link is read first.
            let &MemRequest { role, op, next, .. } = self.mem_requests.get(member);
            if matches!(role, Role::Host { .. }) && op == FlashOp::Read {
                // Read payload returns to the host through the DMA engine.
                let done = self.dma.transfer(now, page_size);
                self.events
                    .schedule_in(DMA_LANE, done, SsdEvent::ReadReturned(member));
            } else {
                self.complete_mem_request(member, now);
            }
            member = next;
        }
        if self.mem_requests.has_pending(chip) {
            self.schedule_chip_kick(chip, now);
        }
        self.request_schedule(now);
    }

    /// Frees a finished request's record and acts on its role: a host page
    /// retires its ledger charge, and its tag once every page is done; a GC
    /// step moves its plane's job on.
    fn complete_mem_request(&mut self, handle: u32, now: SimTime) {
        let MemRequest {
            role, lpn, chip, ..
        } = self.mem_requests.remove(handle);
        match role {
            Role::Host { tag, page } => {
                // Every host commitment was charged to the ledger at commit
                // time; the ledger audits that this retirement has a
                // matching charge instead of silently saturating.  The
                // change log names the page's placed chip as the one whose
                // headroom rose.
                debug_assert_eq!(
                    self.queue.tag(tag).map(|state| state.placement(page).chip),
                    Some(chip),
                    "{tag} page {page}: charged to chip {chip}, placed elsewhere"
                );
                self.ledger.retire(chip);
                let finished = self.queue.complete_page(tag, page) == Some(true);
                self.scheduler.on_complete(tag, page);
                // A tag retires only after its last memory request's record
                // is freed, so nothing holds its number once an admission
                // reuses it.
                let retired = if finished {
                    self.queue.retire(tag)
                } else {
                    None
                };
                if let Some(host) = retired {
                    let bytes = host.bytes(self.config.page_size());
                    self.metrics.record_io(
                        host.id,
                        host.direction.is_read(),
                        bytes,
                        host.arrival,
                        now,
                    );
                    // Tenant attribution measures from the pre-admission
                    // submission time; a no-op unless lanes were configured.
                    self.metrics.record_tenant_io(
                        host.tenant,
                        host.direction.is_read(),
                        bytes,
                        host.submitted,
                        now,
                    );
                    self.try_admit(now);
                }
                self.request_schedule(now);
            }
            Role::GcRead { plane, to } => {
                // The read content is now re-programmed at its new home.
                let role = Role::GcProgram { plane };
                self.issue_gc(role, lpn, to, FlashOp::Program, now);
            }
            Role::GcProgram { plane } => {
                let erase_due = self.gc_jobs[plane].as_mut().is_some_and(|job| {
                    job.pages_left -= 1;
                    job.pages_left == 0
                });
                if erase_due {
                    self.issue_gc_erase(plane, now);
                }
            }
            Role::GcErase { plane } => {
                self.gc_jobs[plane] = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    fn start_gc(&mut self, plane: usize, now: SimTime) {
        // A plane runs at most one job (and the table is empty with GC off).
        let Some(None) = self.gc_jobs.get(plane) else {
            return;
        };
        let Some(plan) = self.ftl.collect_plane(plane) else {
            return;
        };
        // Readdressing: tell Sprinkler-class schedulers, update stale previews, or
        // queue up penalties for schedulers without the callback.
        for migration in &plan.migrations {
            if migration.crossed_plane {
                if self.scheduler.supports_readdressing() {
                    self.scheduler.on_readdress(migration);
                    self.refresh_placements(migration.lpn);
                } else if let Err(at) = self.readdressed_lpns.binary_search(&migration.lpn.value())
                {
                    self.readdressed_lpns.insert(at, migration.lpn.value());
                }
            }
        }
        self.gc_jobs[plane] = Some(GcJob {
            pages_left: plan.migrations.len(),
            erase_addr: plan.erase_addr,
        });
        // Valid pages are read first; their programs are issued as the reads finish.
        for migration in &plan.migrations {
            let role = Role::GcRead {
                plane,
                to: migration.to,
            };
            self.issue_gc(role, migration.lpn, migration.from, FlashOp::Read, now);
        }
        if plan.migrations.is_empty() {
            // Nothing valid to migrate: erase immediately.
            self.issue_gc_erase(plane, now);
        }
    }

    /// Removes `lpn` from the readdressed set, reporting whether it was there.
    fn take_readdressed(&mut self, lpn: u64) -> bool {
        match self.readdressed_lpns.binary_search(&lpn) {
            Ok(at) => {
                self.readdressed_lpns.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    fn refresh_placements(&mut self, lpn: Lpn) {
        let preview = self.ftl.preview(lpn, Direction::Read);
        self.queue.refresh_placements(lpn.value(), preview);
    }

    /// Creates a GC memory request and delivers it straight to the controller.
    fn issue_gc(
        &mut self,
        role: Role,
        lpn: Lpn,
        addr: PhysicalPageAddr,
        op: FlashOp,
        now: SimTime,
    ) {
        let id = self.next_mreq_id();
        let chip = self.config.geometry.chip_index(addr.channel, addr.way);
        let handle = self.mem_requests.insert(id, role, lpn, op, chip);
        self.deliver_pending(handle, addr, Duration::ZERO, now);
    }

    fn issue_gc_erase(&mut self, plane: usize, now: SimTime) {
        let Some(GcJob { erase_addr, .. }) = self.gc_jobs[plane] else {
            return;
        };
        self.issue_gc(
            Role::GcErase { plane },
            Lpn::new(0),
            erase_addr,
            FlashOp::Erase,
            now,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::scheduler::CommitAllScheduler;
    use sprinkler_flash::FlashError;

    fn write_req(id: u64, at_us: u64, lpn: u64, pages: u32) -> HostRequest {
        HostRequest::new(
            id,
            SimTime::from_micros(at_us),
            Direction::Write,
            Lpn::new(lpn),
            pages,
        )
    }

    fn read_req(id: u64, at_us: u64, lpn: u64, pages: u32) -> HostRequest {
        HostRequest::new(
            id,
            SimTime::from_micros(at_us),
            Direction::Read,
            Lpn::new(lpn),
            pages,
        )
    }

    fn run_small(trace: Vec<HostRequest>) -> RunMetrics {
        let ssd = Ssd::new(SsdConfig::small_test(), Box::new(CommitAllScheduler::new())).unwrap();
        ssd.run(trace)
    }

    #[test]
    fn empty_trace_produces_empty_metrics() {
        let metrics = run_small(vec![]);
        assert_eq!(metrics.io_count, 0);
        assert_eq!(metrics.transactions, 0);
    }

    /// Checks a lone one-page I/O on the idle `small_test` device against
    /// the closed forms of its one-request transaction: latency is the
    /// decision window, the three phases, and one page of host DMA; the chip
    /// is busy for the three phases and one plane for the cell phase.
    /// Returns the latency in nanoseconds.
    fn assert_lone_page_figures(metrics: &RunMetrics, op: FlashOp) -> u64 {
        let config = SsdConfig::small_test();
        let g = &config.geometry;
        let timing = &config.timing;
        // The first page a fresh device reads or programs: page 0 of a block.
        let cell = timing.cell_latency(op, 0);
        let busy = timing.issue_bus_time(op, 1, g.page_size)
            + cell
            + timing.completion_bus_time(op, 1, g.page_size);
        let dma = DmaEngine::new(config.dma_bytes_per_sec).transfer_time(g.page_size as u64);
        let latency = (config.decision_window + busy + dma).as_nanos();
        let chips = g.total_chips() as f64;
        let planes = (g.dies_per_chip * g.planes_per_die) as f64;
        assert_eq!(metrics.io_count, 1);
        assert_eq!(metrics.transactions, 1);
        assert_eq!(metrics.memory_requests, 1);
        assert_eq!(metrics.elapsed_ns, latency);
        assert_eq!(metrics.avg_latency_ns, latency as f64);
        assert_eq!(
            metrics.chip_utilization,
            busy.as_nanos() as f64 / latency as f64 / chips
        );
        assert_eq!(
            metrics.intra_chip_idleness,
            1.0 - cell.as_nanos() as f64 / (busy.as_nanos() as f64 * planes)
        );
        latency
    }

    #[test]
    fn single_read_completes_with_plausible_latency() {
        let metrics = run_small(vec![read_req(0, 0, 0, 1)]);
        assert_eq!(metrics.read_ios, 1);
        assert_eq!(metrics.bytes_read, 2048);
        // 1 us window + 20 us cell + 12.912 us of bus phases + 1.28 us DMA.
        assert_eq!(assert_lone_page_figures(&metrics, FlashOp::Read), 35_192);
    }

    #[test]
    fn single_write_completes() {
        let metrics = run_small(vec![write_req(0, 0, 0, 1)]);
        assert_eq!(metrics.write_ios, 1);
        assert_eq!(metrics.bytes_written, 2048);
        // 1.28 us DMA + 1 us window + 200 us fast-page program + 12.737 us
        // of bus phases.
        assert_eq!(
            assert_lone_page_figures(&metrics, FlashOp::Program),
            215_017
        );
    }

    #[test]
    fn multi_page_request_spreads_over_chips() {
        // 8 sequential pages spread across the 4 chips of the small geometry.
        let metrics = run_small(vec![read_req(0, 0, 0, 8)]);
        assert_eq!(metrics.io_count, 1);
        assert!(metrics.memory_requests == 8);
        assert!(metrics.chip_utilization > 0.0);
        // Striping over 4 chips means at most ~2 pages per chip; the transaction
        // count must be well below 8 if coalescing works at all, and at least 4.
        assert!(metrics.transactions >= 4);
    }

    #[test]
    fn reads_after_writes_hit_written_locations() {
        let mut trace = vec![write_req(0, 0, 0, 8)];
        trace.push(read_req(1, 3000, 0, 8));
        let metrics = run_small(trace);
        assert_eq!(metrics.io_count, 2);
        assert_eq!(metrics.read_ios, 1);
        assert_eq!(metrics.write_ios, 1);
    }

    #[test]
    fn many_requests_all_complete() {
        let mut trace = Vec::new();
        for i in 0..50u64 {
            if i % 3 == 0 {
                trace.push(write_req(i, i * 10, i * 4, 4));
            } else {
                trace.push(read_req(i, i * 10, (i % 7) * 16, 4));
            }
        }
        let metrics = run_small(trace);
        assert_eq!(metrics.io_count, 50);
        assert!(metrics.bandwidth_kb_per_sec > 0.0);
        assert!(metrics.iops > 0.0);
        assert!(metrics.chip_utilization > 0.0 && metrics.chip_utilization <= 1.0);
        assert!(metrics.inter_chip_idleness >= 0.0 && metrics.inter_chip_idleness <= 1.0);
        assert!(metrics.intra_chip_idleness >= 0.0 && metrics.intra_chip_idleness <= 1.0);
        let flp_sum: f64 = metrics.flp.as_array().iter().sum();
        assert!((flp_sum - 1.0).abs() < 1e-9);
        let exec_sum = metrics.execution.bus_operation
            + metrics.execution.bus_contention
            + metrics.execution.memory_operation
            + metrics.execution.idle;
        assert!((exec_sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn queue_pressure_creates_stall_time() {
        // Small queue (8) + 64 simultaneous arrivals => some must wait.
        let trace: Vec<HostRequest> = (0..64).map(|i| read_req(i, 0, i * 4, 2)).collect();
        let metrics = run_small(trace);
        assert_eq!(metrics.io_count, 64);
        assert!(metrics.queue_stall_ns > 0);
    }

    #[test]
    fn latency_series_is_recorded_when_enabled() {
        let config = SsdConfig::small_test();
        let ssd = Ssd::with_series(config, Box::new(CommitAllScheduler::new()), true).unwrap();
        let metrics = ssd.run((0..5).map(|i| read_req(i, i * 100, i * 4, 1)));
        assert_eq!(metrics.latency_series.len(), 5);
        assert!(metrics.latency_series.iter().all(|&(_, l)| l > 0));
    }

    #[test]
    fn overwrites_with_gc_enabled_trigger_collection() {
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig {
                enabled: true,
                free_block_watermark: 1,
                stale_readdress_penalty: Duration::from_micros(40),
            });
        let ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
        // Hammer a small logical range with rewrites so blocks fill with stale data.
        let mut trace = Vec::new();
        for i in 0..400u64 {
            trace.push(write_req(i, i * 50, i % 16, 1));
        }
        let metrics = ssd.run(trace);
        assert_eq!(metrics.io_count, 400);
        assert!(metrics.gc.invocations > 0, "GC should have run");
        assert!(metrics.gc.blocks_erased > 0);
    }

    #[test]
    fn a_copied_fill_runs_like_an_in_place_fill_of_the_same_config() {
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig::enabled());
        let mut filled = Ftl::new(
            config.geometry.clone(),
            config.allocation,
            config.gc.free_block_watermark,
        );
        filled.precondition(0.90, 7);
        let build = || Ssd::new(config.clone(), Box::new(CommitAllScheduler::new())).unwrap();
        let mut in_place = build();
        in_place.precondition(0.90, 7);
        let mut copied = build();
        let other = config.clone().with_blocks_per_plane(8);
        assert!(matches!(
            copied.copy_ftl(&other, &filled),
            Err(SsdError::InvalidConfig(_))
        ));
        copied.copy_ftl(&config, &filled).unwrap();
        let trace = || (0..60).map(|i| write_req(i, i * 100, i % 32, 1));
        assert_eq!(copied.run(trace()), in_place.run(trace()));
    }

    #[test]
    fn preconditioned_ssd_gcs_sooner() {
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig::enabled());
        let mut ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
        ssd.precondition(0.90, 7);
        let trace: Vec<HostRequest> = (0..60).map(|i| write_req(i, i * 100, i % 32, 1)).collect();
        let metrics = ssd.run(trace);
        assert_eq!(metrics.io_count, 60);
        assert!(metrics.gc.invocations > 0);
    }

    #[test]
    fn overfilling_a_device_without_gc_reports_failed_writes() {
        let config = SsdConfig::small_test();
        let capacity = config.geometry.total_pages() as u64;
        // 160 eight-page writes: 1280 page programs on a 1024-page device.
        let trace: Vec<HostRequest> = (0..160)
            .map(|i| write_req(i, i * 100, (i * 8) % capacity, 8))
            .collect();
        let metrics = run_small(trace);
        assert_eq!(metrics.io_count, 160, "failed writes still complete");
        assert_eq!(metrics.failed_writes, 1280 - capacity);
    }

    #[test]
    fn writes_past_the_logical_space_fail_without_mapping() {
        let capacity = SsdConfig::small_test().geometry.total_pages() as u64;
        // Pages capacity-4 .. capacity+3: the last four lie past the space.
        let metrics = run_small(vec![
            write_req(0, 0, capacity - 4, 8),
            read_req(1, 500, capacity, 4),
        ]);
        assert_eq!(metrics.io_count, 2);
        assert_eq!(metrics.failed_writes, 4);
        assert_eq!(metrics.bytes_written, 8 * 2048);
    }

    #[test]
    fn scheduler_name_is_propagated() {
        let ssd = Ssd::new(SsdConfig::small_test(), Box::new(CommitAllScheduler::new())).unwrap();
        assert_eq!(ssd.scheduler_name(), "commit-all");
        assert_eq!(ssd.config().queue_depth, 8);
        let metrics = ssd.run(vec![read_req(0, 0, 0, 1)]);
        assert_eq!(metrics.scheduler, "commit-all");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = SsdConfig::small_test();
        config.queue_depth = 0;
        assert!(matches!(
            Ssd::new(config, Box::new(CommitAllScheduler::new())),
            Err(SsdError::InvalidConfig(_))
        ));
        let mut config = SsdConfig::small_test();
        config.geometry.channels = 0;
        assert!(matches!(
            Ssd::new(config, Box::new(CommitAllScheduler::new())),
            Err(SsdError::Flash(FlashError::InvalidGeometry {
                field: "channels"
            }))
        ));
    }

    /// A probe that proposes every uncommitted page each round and records the
    /// per-chip outstanding counts it observes at the start of every round.
    #[derive(Debug)]
    struct HeadroomProbe {
        observed: std::sync::Arc<std::sync::Mutex<Vec<Vec<usize>>>>,
    }

    impl crate::scheduler::IoScheduler for HeadroomProbe {
        fn name(&self) -> &'static str {
            "headroom-probe"
        }

        fn schedule_into(
            &mut self,
            ctx: &crate::scheduler::SchedulerContext<'_>,
            out: &mut Vec<crate::scheduler::Commitment>,
        ) {
            let outstanding: Vec<usize> =
                (0..ctx.chip_count()).map(|c| ctx.outstanding(c)).collect();
            self.observed.lock().unwrap().push(outstanding);
            for tag in ctx.tags() {
                for page in tag.uncommitted_pages() {
                    out.push(crate::scheduler::Commitment { tag: tag.id, page });
                }
            }
        }
    }

    /// The eager replay, kept as a test-only reference: the same loop with an
    /// unbounded backlog, so every arrival is ingested at its nominal time,
    /// ahead of any device event due at the same instant.  `run_stream`'s
    /// bounded-admission deferral must be observationally identical to this.
    fn run_eager_reference(mut ssd: Ssd, trace: Vec<HostRequest>) -> RunMetrics {
        let mut arrivals = trace;
        arrivals.sort_by_key(|r| (r.arrival, r.id));
        ssd.replay(arrivals, usize::MAX);
        ssd.finalize()
    }

    /// Locks the claim in `run_stream`'s docs: deferring arrivals under the
    /// backlog bound changes neither metrics nor scheduling outcomes relative
    /// to the seed's eager, pre-scheduled replay — exercised on a saturating
    /// burst (64 simultaneous arrivals through the 8-deep queue, so most
    /// arrivals are deferred far past their nominal times), a paced trace,
    /// and a GC-enabled overwrite storm.
    #[test]
    fn bounded_streaming_matches_the_eager_reference_loop() {
        let saturating: Vec<HostRequest> = (0..64)
            .map(|i| {
                if i % 3 == 0 {
                    write_req(i, 0, (i % 16) * 4, 4)
                } else {
                    read_req(i, 0, (i % 7) * 16, 2)
                }
            })
            .collect();
        let paced: Vec<HostRequest> = (0..50)
            .map(|i| read_req(i, i * 40, (i % 9) * 8, 3))
            .collect();
        for trace in [saturating, paced] {
            let config = SsdConfig::small_test();
            let eager = run_eager_reference(
                Ssd::new(config.clone(), Box::new(CommitAllScheduler::new())).unwrap(),
                trace.clone(),
            );
            let streamed = Ssd::new(config, Box::new(CommitAllScheduler::new()))
                .unwrap()
                .run(trace);
            // Everything except the new backpressure gauges must agree; the
            // gauges themselves are what the bounded loop improves.
            assert_eq!(eager.io_count, streamed.io_count);
            assert_eq!(eager.avg_latency_ns, streamed.avg_latency_ns);
            assert_eq!(eager.queue_stall_ns, streamed.queue_stall_ns);
            assert_eq!(eager.transactions, streamed.transactions);
            assert_eq!(eager.memory_requests, streamed.memory_requests);
            assert_eq!(eager.elapsed_ns, streamed.elapsed_ns);
            assert_eq!(eager.latency_series, streamed.latency_series);
            assert!(streamed.peak_host_backlog <= 8);
        }

        // GC readdressing mutates queue state outside scheduling rounds; the
        // deferral must not change GC outcomes either.
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig::enabled());
        let storm: Vec<HostRequest> = (0..300).map(|i| write_req(i, i * 20, i % 16, 1)).collect();
        let eager = run_eager_reference(
            Ssd::new(config.clone(), Box::new(CommitAllScheduler::new())).unwrap(),
            storm.clone(),
        );
        let streamed = Ssd::new(config, Box::new(CommitAllScheduler::new()))
            .unwrap()
            .run(storm);
        assert_eq!(eager.io_count, streamed.io_count);
        assert_eq!(eager.gc.invocations, streamed.gc.invocations);
        assert_eq!(eager.gc.blocks_erased, streamed.gc.blocks_erased);
        assert_eq!(eager.avg_latency_ns, streamed.avg_latency_ns);
    }

    /// Regression test for the seed's same-round over-commitment double-count:
    /// with `max_committed_per_chip = N`, a single scheduling round must be able
    /// to commit N pages to one chip.  The seed charged same-round commits
    /// against the cap twice (per-round scratch *and* `outstanding`), so a round
    /// saturated at ceil(N / 2) — here, 4 of the 8 pages per chip.
    #[test]
    fn a_single_round_commits_the_full_per_chip_cap() {
        let config = SsdConfig::small_test();
        let max = config.max_committed_per_chip;
        assert_eq!(max, 8, "the fixture relies on the small_test cap");
        let chips = config.geometry.total_chips();
        let observed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let probe = HeadroomProbe {
            observed: std::sync::Arc::clone(&observed),
        };
        let ssd = Ssd::new(config, Box::new(probe)).unwrap();
        // One 32-page read stripes 8 pages onto each of the 4 chips.  A second
        // tiny arrival 500 ns later triggers a new scheduling round long before
        // any flash transaction can complete (decision window 1 us + ≥20 us
        // read cell time), so round 2 observes exactly what round 1 committed.
        let trace = vec![
            read_req(0, 0, 0, 32),
            HostRequest::new(
                1,
                SimTime::from_nanos(500),
                Direction::Read,
                Lpn::new(256),
                1,
            ),
        ];
        let metrics = ssd.run(trace);
        assert_eq!(metrics.io_count, 2);
        let rounds = observed.lock().unwrap();
        assert!(rounds.len() >= 2, "two scheduling rounds must have run");
        assert_eq!(rounds[0], vec![0; chips], "round 1 starts from idle chips");
        // Every chip accepted its full cap of 8 same-round commitments; under
        // the seed's double-count this read [4, 4, 4, 4].
        assert_eq!(
            rounds[1],
            vec![max; chips],
            "round 1 must have committed the full per-chip cap"
        );
    }

    /// Regression: a request longer than a candidate key's 20-bit page
    /// field collided in the keys; it panicked in `pack_pri` in debug builds
    /// and never completed in release.  It is now refused at ingestion, and
    /// the replay serves the requests after it.
    #[test]
    fn requests_past_the_key_page_field_are_refused() {
        let config = SsdConfig::paper_default().with_blocks_per_plane(64);
        let ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
        let metrics = ssd.run(vec![
            read_req(0, 0, 0, MAX_REQUEST_PAGES + 8),
            read_req(1, 10, 0, 1),
        ]);
        assert_eq!(metrics.io_count, 1);
        assert_eq!(metrics.refused_ios, 1);
        assert_eq!(metrics.run_start_ns, 10_000);
    }

    /// Regression: a zero-page request (its fields are public, so
    /// `HostRequest::new`'s clamp can be bypassed) was admitted as a tag
    /// with no page to commit or complete, so it never retired.  It lost
    /// its I/O without a count, and eight of them filled `small_test`'s
    /// 8-deep queue for good, so a later read never got a tag.  It is now
    /// refused at ingestion, and the replay serves the requests after it.
    #[test]
    fn zero_page_requests_are_refused() {
        let empty = |request: HostRequest| HostRequest {
            pages: 0,
            ..request
        };
        let metrics = run_small(vec![empty(read_req(0, 0, 0, 1)), read_req(1, 10, 8, 1)]);
        assert_eq!((metrics.io_count, metrics.refused_ios), (1, 1));

        let mut trace: Vec<HostRequest> = (0..8).map(|i| empty(write_req(i, 0, i, 1))).collect();
        trace.push(read_req(8, 10, 64, 1));
        let metrics = run_small(trace);
        assert_eq!((metrics.io_count, metrics.refused_ios), (1, 8));
        assert_eq!(metrics.run_start_ns, 10_000);
    }

    /// Regression: a request whose LPN range ran past `u64::MAX` overflowed
    /// `Lpn::offset`: it panicked in debug builds, and in release its last
    /// pages wrapped onto LPNs 0 and up.  It is now refused at ingestion; a
    /// range ending exactly at `u64::MAX` is served.
    #[test]
    fn requests_past_the_last_lpn_are_refused() {
        let last = u64::MAX - 1;
        let metrics = run_small(vec![
            write_req(0, 0, last, 4),
            read_req(1, 1, last, 3),
            write_req(2, 2, last, 2),
            read_req(3, 3, last, 2),
            read_req(4, 4, 0, 1),
        ]);
        assert_eq!((metrics.io_count, metrics.refused_ios), (3, 2));
        assert_eq!(metrics.failed_writes, 2, "LPNs past the space fail to map");
        assert_eq!(metrics.run_start_ns, 2_000);
    }

    /// Every event handled is counted once under its kind.  A lone write
    /// crosses the DMA engine, waits out one decision window and runs one
    /// transaction, which completes the I/O; the round its completion asks
    /// for finds the queue empty and is no round at all.  A lone read is
    /// still in the queue when its transaction ends, so that round runs and
    /// commits nothing; its data then returns through the DMA engine.
    #[test]
    fn work_counts_follow_the_event_kinds() {
        let lone = |request| run_small(vec![request]).work;
        let transaction = WorkCounts {
            chip_kick_events: 1,
            cell_done_events: 1,
            txn_complete_events: 1,
            ..WorkCounts::default()
        };
        assert_eq!(
            lone(write_req(0, 0, 0, 1)),
            WorkCounts {
                schedule_events: 2,
                write_data_ready_events: 1,
                ..transaction
            }
        );
        assert_eq!(
            lone(read_req(0, 0, 0, 1)),
            WorkCounts {
                schedule_events: 3,
                read_returned_events: 1,
                empty_rounds: 1,
                ..transaction
            }
        );
    }

    #[test]
    fn events_are_handle_sized() {
        assert_eq!(std::mem::size_of::<SsdEvent>(), 8);
    }

    /// GC jobs are keyed by plane: a storm that invokes GC many more times
    /// than there are planes leaves the job table at the plane count, and
    /// every job and GC memory request is gone once the replay drains.
    #[test]
    fn gc_job_table_is_bounded_by_the_plane_count() {
        let config = SsdConfig::small_test()
            .with_blocks_per_plane(4)
            .with_gc(GcConfig {
                enabled: true,
                free_block_watermark: 1,
                stale_readdress_penalty: Duration::from_micros(40),
            });
        let planes = config.geometry.total_planes();
        let mut ssd = Ssd::new(config, Box::new(CommitAllScheduler::new())).unwrap();
        let storm: Vec<HostRequest> = (0..3000).map(|i| write_req(i, i * 20, i % 64, 1)).collect();
        ssd.replay(storm, 8);
        let invocations = ssd.ftl.gc_stats().invocations;
        assert!(
            invocations > 2 * planes as u64,
            "the storm must outnumber the planes ({invocations} GC runs, {planes} planes)"
        );
        assert!(ssd.gc_jobs.len() <= planes);
        assert!(ssd.gc_jobs.iter().all(Option::is_none));
        assert!(ssd.mem_requests.is_drained());
        assert!(ssd.live.iter().all(Option::is_none));
    }

    /// Every page the FTL hands out is one the device programs: at the end
    /// of a replay, the pages still free are the capacity less the host
    /// pages placed and the pages GC moved, plus the pages of the blocks GC
    /// erased.  Driving a GC-enabled device full makes some collections meet
    /// a victim with more valid pages than the device has free ones; such a
    /// collection must move nothing, since the device issues no flash work
    /// for a plan it never gets.
    #[test]
    fn gc_that_cannot_place_its_victim_hands_out_no_page() {
        let config = SsdConfig::small_test().with_gc(GcConfig::enabled());
        let total = config.geometry.total_pages() as u64;
        let block_pages = config.geometry.pages_per_block as u64;
        let writes = 1424;
        for seed in 0..16 {
            let mut rng = sprinkler_sim::DeterministicRng::seeded(seed);
            let distinct = total * 9 / 10;
            let lpns: Vec<u64> = (0..writes)
                .map(|i| {
                    if i < distinct {
                        i
                    } else {
                        rng.uniform_u64(total)
                    }
                })
                .collect();
            let trace = lpns
                .iter()
                .zip(0..)
                .map(|(&lpn, i)| write_req(i, 3 * i, lpn, 1));
            let mut ssd = Ssd::new(config.clone(), Box::new(CommitAllScheduler::new())).unwrap();
            ssd.replay(trace, 8);
            let gc = ssd.ftl.gc_stats();
            let placed = writes - ssd.failed_writes;
            let free = std::iter::from_fn(|| ssd.ftl.allocate_write(Lpn::new(0))).count() as u64;
            assert_eq!(
                free,
                total + gc.blocks_erased * block_pages - placed - gc.pages_migrated,
                "seed {seed}: {placed} host pages placed, {gc:?}"
            );
        }
    }

    #[test]
    fn gc_state_is_not_built_when_gc_is_off() {
        let ssd = Ssd::new(SsdConfig::small_test(), Box::new(CommitAllScheduler::new())).unwrap();
        assert!(ssd.gc_jobs.is_empty());
    }

    /// Without `on_readdress`, only a read of an LPN that GC moved across
    /// planes pays the stale-readdress penalty.  A write pays nothing, and
    /// its new mapping clears the LPN, so a later read pays nothing either.
    #[test]
    fn only_reads_pay_the_stale_readdress_penalty() {
        let penalty = SsdConfig::small_test().gc.stale_readdress_penalty;
        let readdressed = || {
            let mut ssd =
                Ssd::new(SsdConfig::small_test(), Box::new(CommitAllScheduler::new())).unwrap();
            ssd.readdressed_lpns.push(0);
            ssd
        };
        let mut writer = readdressed();
        writer.replay([write_req(0, 0, 0, 1)], 8);
        assert!(writer.readdressed_lpns.is_empty());
        let metrics = writer.finalize();
        assert_eq!(
            assert_lone_page_figures(&metrics, FlashOp::Program),
            215_017
        );
        let metrics = readdressed().run([read_req(0, 0, 0, 1)]);
        assert_eq!(metrics.elapsed_ns, 35_192 + penalty.as_nanos());
    }

    /// Readdressing moves a queued read of a migrated LPN to where its data
    /// now lives, but a queued write keeps its static placement preview:
    /// `Ftl::allocate_write` still aims the write there.
    #[test]
    fn readdressing_leaves_queued_write_previews() {
        let mut ssd =
            Ssd::new(SsdConfig::small_test(), Box::new(CommitAllScheduler::new())).unwrap();
        let lpn = Lpn::new(0);
        let home = ssd.ftl.preview(lpn, Direction::Write);
        let ftl = &ssd.ftl;
        let [write, read] = [write_req(0, 0, 0, 1), read_req(1, 0, 0, 1)].map(|host| {
            let preview = ftl.preview(lpn, host.direction);
            ssd.queue.admit(host, |_| preview).unwrap()
        });
        // Fill LPN 0's static plane by overwriting an LPN that shares it, so
        // LPN 0's data spills to a neighbouring plane.
        let other = (1..)
            .map(Lpn::new)
            .find(|&other| ssd.ftl.preview(other, Direction::Write) == home)
            .unwrap();
        while !ssd.ftl.allocate_write(other).unwrap().spilled {}
        assert!(ssd.ftl.allocate_write(lpn).unwrap().spilled);
        let moved = ssd.ftl.preview(lpn, Direction::Read);
        assert_ne!(moved, home);

        ssd.refresh_placements(lpn);
        assert_eq!(ssd.queue.tag(read).unwrap().placement(0), moved);
        assert_eq!(ssd.queue.tag(write).unwrap().placement(0), home);
        ssd.queue.validate_candidate_index();
    }
}
