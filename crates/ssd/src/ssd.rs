//! The event-driven many-chip SSD simulator.
//!
//! [`Ssd`] binds every substrate component together and simulates the full I/O
//! service routine of Fig 3: host arrivals → device-queue admission (tags) →
//! scheduler-driven memory-request composition and commitment → host DMA → FTL
//! translation/allocation → per-chip transaction coalescing at the flash
//! controllers → channel-arbitrated bus phases and overlapped cell phases →
//! completion upcalls, bitmap clearing, and I/O retirement.  Garbage collection
//! injects internal flash traffic and fires readdressing callbacks for schedulers
//! that support them.
//!
//! Per-request state is slot-indexed, with no hashing on the replay path:
//! in-flight memory requests live in a slab addressed by `u32` handles, the
//! live transaction of a chip is stored at the chip's index, and GC jobs at
//! their plane's index.  Events carry only those handles, so an event-heap
//! entry stays small.
//!
//! A chip runs one transaction at a time (§2.2).  Whether it is busy lives in
//! the [`CommitmentLedger`], which the schedulers read; a transaction's phase
//! times come from [`FlashTiming`](sprinkler_flash::FlashTiming), and its
//! chip and plane busy time are summed when it completes, for the chip
//! utilization and intra-chip idleness metrics.

use std::collections::VecDeque;
use std::sync::Arc;

use sprinkler_flash::{FlashOp, Lpn, ParallelismLevel, PhysicalPageAddr};
use sprinkler_sim::{Duration, EventQueue, SimTime, TelemetryCounters};

use crate::channel::Channel;
use crate::config::SsdConfig;
use crate::controller::{FlashController, PendingRequest, TxnScratch};
use crate::dma::DmaEngine;
use crate::error::SsdError;
use crate::ftl::Ftl;
use crate::ledger::CommitmentLedger;
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::queue::DeviceQueue;
use crate::request::{Direction, HostRequest, MemReqId, TagId};
use crate::scheduler::{Commitment, IoScheduler, SchedulerContext};

/// Simulation events.  Every payload is a `u32` handle: a memory request's
/// slab handle or a chip index.
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
    /// Slab handles of the member memory requests, one per (die, plane).
    members: Vec<u32>,
    level: ParallelismLevel,
    /// When the issue bus phase started: the chip is busy from here until
    /// the transaction completes.
    start: SimTime,
    bus_time: Duration,
    cell_time: Duration,
    contention: Duration,
    completion_bus: Duration,
}

/// The role a memory request plays in its plane's garbage-collection job.
#[derive(Debug, Clone, Copy)]
enum GcRole {
    /// Reads a valid page, which is then programmed at `to`.
    Read {
        plane: usize,
        to: PhysicalPageAddr,
    },
    Program {
        plane: usize,
    },
    Erase {
        plane: usize,
    },
}

/// The garbage-collection job running on one plane.
#[derive(Debug, Clone)]
struct GcJob {
    outstanding_reads: usize,
    outstanding_programs: usize,
    erase_addr: PhysicalPageAddr,
    erase_issued: bool,
}

/// An in-flight page-level memory request: the unit the scheduler commits
/// and the flash controller coalesces into transactions.
#[derive(Debug)]
struct InFlight {
    /// Monotone identifier (the controller's service-order tie-break).
    id: MemReqId,
    /// The tag and page offset of a host request; `None` for GC traffic.
    host: Option<(TagId, u32)>,
    lpn: Lpn,
    direction: Direction,
    /// The chip the request runs on, whose ledger a host commitment charges.
    chip: usize,
    /// `Some` for GC traffic.
    gc: Option<GcRole>,
}

/// In-flight memory requests, addressed by dense `u32` handles.
///
/// A `Vec` of slots plus a free list: a finished request's slot goes to the
/// next one, so the slab stays at the high-water mark of in-flight requests
/// and a lookup is one index.  Handles are recycled and carry no age;
/// ordering uses the monotone [`MemReqId`] stored in the entry.
#[derive(Debug, Default)]
struct MemSlab {
    slots: Vec<Option<InFlight>>,
    free: Vec<u32>,
}

impl MemSlab {
    fn with_capacity(capacity: usize) -> Self {
        MemSlab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
        }
    }

    // lint: hot-path
    fn insert(&mut self, entry: InFlight) -> u32 {
        match self.free.pop() {
            Some(handle) => {
                self.slots[handle as usize] = Some(entry);
                handle
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn get(&self, handle: u32) -> Option<&InFlight> {
        self.slots.get(handle as usize)?.as_ref()
    }

    // lint: hot-path
    fn remove(&mut self, handle: u32) -> Option<InFlight> {
        let entry = self.slots.get_mut(handle as usize)?.take()?;
        self.free.push(handle);
        Some(entry)
    }
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
    controllers: Vec<FlashController>,
    dma: DmaEngine,
    queue: DeviceQueue,
    events: EventQueue<SsdEvent>,

    waiting_host: VecDeque<HostRequest>,
    mem_requests: MemSlab,
    /// Commitment/occupancy accounting, maintained incrementally (commit,
    /// completion, transaction start/end) so scheduling rounds never rebuild an
    /// O(chip count) view.  All cap enforcement and per-round counting lives in
    /// the ledger; see [`CommitmentLedger`] for the invariants.
    ledger: CommitmentLedger,
    /// The live transaction of each chip.
    live: Vec<Option<LiveTransaction>>,
    /// Per chip: total time the chip was busy with transactions.
    chip_busy: Vec<Duration>,
    /// Per chip: total cell time summed over its planes.
    plane_busy: Vec<Duration>,
    chip_kick_pending: Vec<bool>,
    schedule_pending: bool,
    /// Reusable commitment buffer for scheduling rounds (`schedule_into`).
    commit_buf: Vec<Commitment>,
    /// Reusable scratch + buffer pools for transaction building.
    txn_scratch: TxnScratch,
    /// Always-on hot-path counters, shared with the scheduler and frozen into
    /// the run metrics at finalize.
    telemetry: Arc<TelemetryCounters>,

    /// The GC job of each plane; empty when GC is disabled.
    gc_jobs: Vec<Option<GcJob>>,
    /// Sorted LPNs moved across planes by GC whose next access pays the stale
    /// readdressing penalty (schedulers without `on_readdress` only).
    readdressed_lpns: Vec<u64>,

    next_tag: u64,
    next_mreq: u64,
    /// Host write pages the FTL could not place.
    failed_writes: u64,

    metrics: MetricsCollector,
    record_series: bool,
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
        // A chip's host pending set is capped by the per-chip commitment
        // budget; pre-size it so a chip's first writes never grow it.
        let controllers = (0..geometry.channels)
            .map(|c| {
                FlashController::new(c, geometry.chips_per_channel, config.max_committed_per_chip)
            })
            .collect();
        let ftl = Ftl::new(
            geometry.clone(),
            config.allocation,
            config.gc.free_block_watermark,
        );
        let metrics = MetricsCollector::new(scheduler.name(), record_series);
        let telemetry = Arc::clone(metrics.telemetry());
        scheduler.attach_telemetry(&telemetry);
        let total_chips = geometry.total_chips();
        // Pre-size the transaction scratch to its structural bounds so the
        // steady-state hot loop never grows it: a chip's pending set is capped
        // by the per-chip commitment budget, a transaction folds at most one
        // request per (die, plane), and at most one transaction per chip is
        // live at a time.
        let mut txn_scratch = TxnScratch::new();
        txn_scratch.preallocate(
            config.max_committed_per_chip,
            geometry.dies_per_chip * geometry.planes_per_die,
            total_chips,
        );
        // In-flight host memory requests are bounded by the commitment ledger
        // (every committed page is at most one in-flight memory request).
        let in_flight_bound = total_chips.saturating_mul(config.max_committed_per_chip);
        let gc_planes = if config.gc.enabled {
            geometry.total_planes()
        } else {
            0
        };
        Ok(Ssd {
            dma: DmaEngine::new(config.dma_bytes_per_sec),
            queue: DeviceQueue::new(config.queue_depth),
            events: EventQueue::new(),
            waiting_host: VecDeque::new(),
            mem_requests: MemSlab::with_capacity(in_flight_bound),
            ledger: CommitmentLedger::new(total_chips, config.max_committed_per_chip),
            live: (0..total_chips).map(|_| None).collect(),
            chip_busy: vec![Duration::ZERO; total_chips],
            plane_busy: vec![Duration::ZERO; total_chips],
            chip_kick_pending: vec![false; total_chips],
            schedule_pending: false,
            commit_buf: Vec::new(),
            txn_scratch,
            telemetry,
            gc_jobs: vec![None; gc_planes],
            readdressed_lpns: Vec::new(),
            next_tag: 0,
            next_mreq: 0,
            failed_writes: 0,
            metrics,
            record_series,
            config,
            scheduler,
            ftl,
            channels,
            controllers,
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

    /// Whether the latency series is being recorded.
    pub fn records_series(&self) -> bool {
        self.record_series
    }

    /// Registers per-tenant metric lanes for this run.  Completed I/Os whose
    /// [`HostRequest::tenant`] indexes a registered lane are attributed to it
    /// (latency measured from [`HostRequest::submitted`]); the lanes surface
    /// as [`RunMetrics::tenants`].  Call before replay starts.
    pub fn configure_tenants(&mut self, specs: &[crate::metrics::TenantLaneSpec]) {
        self.metrics.configure_tenants(specs);
    }

    /// The run's shared telemetry counter bundle (also incremented by the
    /// multi-tenant admission front, so tenant admission/deferral/throttle
    /// counts land in the same per-run snapshot).
    pub fn telemetry(&self) -> &Arc<TelemetryCounters> {
        self.metrics.telemetry()
    }

    /// Pre-conditions the SSD into a fragmented state (live data occupying
    /// `utilization` of the physical capacity) so garbage collection triggers
    /// quickly, as in the Fig 17 experiments.  Must be called before
    /// [`Ssd::run`] or [`Ssd::run_stream`], since both consume the device.
    pub fn precondition(&mut self, utilization: f64, seed: u64) {
        self.ftl.precondition(utilization, seed);
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
            let due = match (&next, self.events.peek_time()) {
                (Some(request), Some(next_event)) => request.arrival <= next_event,
                (Some(_), None) => true,
                (None, _) => false,
            };
            // With an empty event queue the arrival must be ingested regardless
            // of the backlog bound, or the replay could not make progress (in
            // practice a full backlog implies queued tags and therefore pending
            // events).
            let backlog_has_room = self.waiting_host.len() < backlog_cap || self.events.is_empty();
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
            self.metrics
                .record_queue_pressure(self.waiting_host.len(), self.events.len());
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
        RunMetrics {
            failed_writes: self.failed_writes,
            ..metrics
        }
    }

    /// Takes a host request in at `now`: it waits for a queue tag, and a
    /// scheduling round is requested.
    fn ingest(&mut self, now: SimTime, request: HostRequest) {
        self.metrics.record_arrival(request.arrival);
        self.waiting_host.push_back(request);
        self.try_admit(now);
        self.request_schedule(now);
    }

    fn handle_event(&mut self, now: SimTime, event: SsdEvent) {
        match event {
            SsdEvent::Schedule => {
                self.schedule_pending = false;
                self.run_scheduler(now);
            }
            SsdEvent::WriteDataReady(handle) => {
                self.deliver_to_controller(handle, now);
            }
            SsdEvent::ChipKick(chip) => {
                self.chip_kick_pending[chip as usize] = false;
                self.try_start_transaction(chip as usize, now);
            }
            SsdEvent::CellDone(chip) => {
                self.handle_cell_done(chip as usize, now);
            }
            SsdEvent::TxnComplete(chip) => {
                self.handle_txn_complete(chip as usize, now);
            }
            SsdEvent::ReadReturned(handle) => {
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
            let tag = TagId(self.next_tag);
            self.next_tag += 1;
            self.metrics.record_admission(request.arrival, now);
            // `admit_with` fills placements straight from the FTL preview into
            // the tag's (possibly recycled) placement buffer — no intermediate
            // Vec per admission.
            let ftl = &self.ftl;
            let admitted = self.queue.admit_with(tag, request, now, |page| {
                ftl.preview(request.lpn_at(page), request.direction)
            });
            debug_assert!(admitted, "admission into a non-full queue must succeed");
        }
    }

    fn request_schedule(&mut self, now: SimTime) {
        if !self.schedule_pending {
            self.schedule_pending = true;
            self.events.schedule(now, SsdEvent::Schedule);
        }
    }

    fn run_scheduler(&mut self, now: SimTime) {
        if self.queue.is_empty() {
            return;
        }
        TelemetryCounters::incr(&self.telemetry.sched_rounds);
        self.ledger.begin_round();
        // The commitment buffer is taken out of `self` for the borrow, reused
        // every round (capacity sticks at the high-water mark).
        let mut commitments = std::mem::take(&mut self.commit_buf);
        commitments.clear();
        {
            let ctx = SchedulerContext {
                now,
                geometry: &self.config.geometry,
                queue: &self.queue,
                ledger: &self.ledger,
            };
            self.scheduler.schedule_into(&ctx, &mut commitments);
        }
        for &Commitment { tag, page } in &commitments {
            self.commit_memory_request(tag, page, now);
        }
        self.commit_buf = commitments;
    }

    fn commit_memory_request(&mut self, tag_id: TagId, page: u32, now: SimTime) {
        let page_size = self.config.page_size() as u64;
        // One tag-id lookup resolves the dense slot handle; everything below
        // (state access, commitment, retirement) goes through the handle.
        let Some(slot) = self.queue.slot_of(tag_id) else {
            return;
        };
        let Some(tag) = self.queue.state_at(slot as usize) else {
            return;
        };
        if page as usize >= tag.pages() {
            return;
        }
        let chip = tag.placements[page as usize].chip;
        // Commitments beyond the chip's headroom are deferred to a later round.
        // `outstanding` already reflects this round's commits exactly once, so
        // the headroom available within a single round is the full
        // `max_committed_per_chip`.
        if self.ledger.headroom(chip) == 0 {
            TelemetryCounters::incr(&self.telemetry.ledger_headroom_exhausted);
            return;
        }
        let host = tag.host;
        if !self.queue.commit_page_at(slot, page, now) {
            return;
        }
        self.ledger.commit(chip);
        let id = self.next_mreq_id();
        let handle = self.mem_requests.insert(InFlight {
            id,
            host: Some((tag_id, page)),
            lpn: host.lpn_at(page),
            direction: host.direction,
            chip,
            gc: None,
        });
        if host.direction.is_write() {
            // Write payload must cross the host interface before the flash program
            // can be composed (memory request composition + data movement, Fig 3).
            let ready = self.dma.transfer(now, page_size);
            self.events
                .schedule(ready, SsdEvent::WriteDataReady(handle));
        } else {
            self.deliver_to_controller(handle, now);
        }
    }

    // ------------------------------------------------------------------
    // Delivery to flash controllers and transaction execution
    // ------------------------------------------------------------------

    fn deliver_to_controller(&mut self, handle: u32, now: SimTime) {
        let Some(entry) = self.mem_requests.get(handle) else {
            return;
        };
        let (id, lpn, direction) = (entry.id, entry.lpn, entry.direction);
        if entry.gc.is_some() {
            // GC traffic is delivered directly by the GC path, never here.
            debug_assert!(false, "GC requests must not reach deliver_to_controller");
            return;
        }

        let (addr, op) = if direction.is_read() {
            (self.ftl.translate_read(lpn), FlashOp::Read)
        } else {
            match self.ftl.allocate_write(lpn) {
                Some(alloc) => {
                    let plane = self.ftl.plane_index_of_addr(alloc.addr);
                    if self.config.gc.enabled && self.ftl.needs_gc(plane) {
                        self.start_gc(plane, now);
                    }
                    (alloc.addr, FlashOp::Program)
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

        let extra_delay =
            if !self.scheduler.supports_readdressing() && self.take_readdressed(lpn.value()) {
                self.config.gc.stale_readdress_penalty
            } else {
                Duration::ZERO
            };

        self.deliver_pending(
            PendingRequest {
                id,
                handle,
                addr,
                op,
                delivered_at: now,
                gc: false,
                extra_delay,
            },
            now,
        );
    }

    /// Hands a request to its channel's controller and kicks the chip if idle.
    fn deliver_pending(&mut self, pending: PendingRequest, now: SimTime) {
        let addr = pending.addr;
        let chip = self.config.geometry.chip_index(addr.channel, addr.way);
        self.controllers[addr.channel as usize].deliver(pending);
        if !self.ledger.is_busy(chip) {
            self.schedule_chip_kick(chip, now);
        }
    }

    fn schedule_chip_kick(&mut self, chip: usize, now: SimTime) {
        if self.chip_kick_pending[chip] {
            return;
        }
        self.chip_kick_pending[chip] = true;
        self.events.schedule(
            now + self.config.decision_window,
            SsdEvent::ChipKick(chip as u32),
        );
    }

    fn try_start_transaction(&mut self, chip_index: usize, now: SimTime) {
        if self.ledger.is_busy(chip_index) {
            return;
        }
        let location = self.config.geometry.chip_location(chip_index);
        let channel_index = location.channel as usize;
        let way = location.way as usize;
        let Some(built) = self.controllers[channel_index].build_transaction_with(
            way,
            &self.config.geometry,
            &mut self.txn_scratch,
        ) else {
            return;
        };
        // The issue bus phase (commands, addresses, program data in) holds
        // the channel; the cell phase that follows leaves it free.  An idle
        // chip has finished its last transaction by `now`, so the issue phase
        // waits only for the stale-readdress penalty and the channel.
        let timing = &self.config.timing;
        let issue_bus = timing.issue_bus_time(&built.txn);
        let cell_time = timing.cell_time(&built.txn);
        let completion_bus = timing.completion_bus_time(&built.txn);
        let grant = self.channels[channel_index].acquire(now + built.extra_delay, issue_bus);
        self.ledger.set_busy(chip_index, true);
        debug_assert!(
            self.live[chip_index].is_none(),
            "chip {chip_index} started a transaction while one was live"
        );
        self.live[chip_index] = Some(LiveTransaction {
            channel: channel_index,
            members: built.members,
            level: built.txn.parallelism(),
            start: grant.start,
            bus_time: issue_bus + completion_bus,
            cell_time,
            contention: grant.waited,
            completion_bus,
        });
        // The transaction's request buffer goes back into the pool for the
        // next build on this SSD.
        self.txn_scratch.recycle_requests(built.txn.into_requests());
        self.events
            .schedule(grant.end + cell_time, SsdEvent::CellDone(chip_index as u32));
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
        self.ledger.set_busy(chip, false);
        // Every member sits on its own (die, plane), each busy for the
        // whole cell phase.
        let requests = live.members.len();
        self.chip_busy[chip] += now.saturating_since(live.start);
        self.plane_busy[chip] += live.cell_time * requests as u64;
        self.metrics.record_transaction(
            live.level,
            requests,
            live.bus_time,
            live.contention,
            live.cell_time,
        );
        let page_size = self.config.page_size() as u64;
        let members = live.members;
        for &member in &members {
            let Some(entry) = self.mem_requests.get(member) else {
                continue;
            };
            if let Some(role) = entry.gc {
                self.gc_request_done(member, role, now);
            } else if entry.direction.is_read() {
                // Read payload returns to the host through the DMA engine.
                let done = self.dma.transfer(now, page_size);
                self.events.schedule(done, SsdEvent::ReadReturned(member));
            } else {
                self.complete_mem_request(member, now);
            }
        }
        self.txn_scratch.recycle_members(members);
        let location = self.config.geometry.chip_location(chip);
        if self.controllers[location.channel as usize].has_pending(location.way as usize) {
            self.schedule_chip_kick(chip, now);
        }
        self.request_schedule(now);
    }

    fn complete_mem_request(&mut self, handle: u32, now: SimTime) {
        let Some(InFlight { host, chip, .. }) = self.mem_requests.remove(handle) else {
            return;
        };
        if let Some((tag_id, page)) = host {
            // Every host commitment was charged to the ledger at commit time;
            // the ledger audits that this retirement has a matching charge
            // instead of silently saturating.
            self.ledger.retire(chip);
            let finished = self
                .queue
                .slot_of(tag_id)
                .filter(|&slot| self.queue.complete_page_at(slot, page) == Some(true));
            self.scheduler.on_complete(tag_id, page);
            if let Some(state) = finished.and_then(|slot| self.queue.retire_at(slot)) {
                let host = state.host;
                let bytes = host.bytes(self.config.page_size());
                self.metrics
                    .record_io(host.id, host.direction.is_read(), bytes, host.arrival, now);
                // Tenant attribution measures from the pre-admission
                // submission time; a no-op unless lanes were configured.
                self.metrics.record_tenant_io(
                    host.tenant,
                    host.direction.is_read(),
                    bytes,
                    host.submitted,
                    now,
                );
                // Recycle the tag's buffers so later admissions reuse them.
                self.queue.recycle(state);
                self.try_admit(now);
            }
        }
        self.request_schedule(now);
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
            outstanding_reads: plan.migrations.len(),
            outstanding_programs: 0,
            erase_addr: plan.erase_addr,
            erase_issued: false,
        });
        // Valid pages are read first; their programs are issued as the reads finish.
        for migration in &plan.migrations {
            let role = GcRole::Read {
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
        role: GcRole,
        lpn: Lpn,
        addr: PhysicalPageAddr,
        op: FlashOp,
        now: SimTime,
    ) {
        let id = self.next_mreq_id();
        let direction = if op == FlashOp::Read {
            Direction::Read
        } else {
            Direction::Write
        };
        let handle = self.mem_requests.insert(InFlight {
            id,
            host: None,
            lpn,
            direction,
            chip: self.config.geometry.chip_index(addr.channel, addr.way),
            gc: Some(role),
        });
        self.deliver_pending(
            PendingRequest {
                id,
                handle,
                addr,
                op,
                delivered_at: now,
                gc: true,
                extra_delay: Duration::ZERO,
            },
            now,
        );
    }

    fn gc_request_done(&mut self, handle: u32, role: GcRole, now: SimTime) {
        let Some(InFlight { lpn, .. }) = self.mem_requests.remove(handle) else {
            return;
        };
        match role {
            GcRole::Read { plane, to } => {
                // The read content is now re-programmed at its new home.
                if let Some(job) = self.gc_jobs[plane].as_mut() {
                    job.outstanding_reads -= 1;
                    job.outstanding_programs += 1;
                }
                self.issue_gc(GcRole::Program { plane }, lpn, to, FlashOp::Program, now);
            }
            GcRole::Program { plane } => {
                let erase_due = self.gc_jobs[plane].as_mut().is_some_and(|job| {
                    job.outstanding_programs -= 1;
                    job.outstanding_reads == 0 && job.outstanding_programs == 0 && !job.erase_issued
                });
                if erase_due {
                    self.issue_gc_erase(plane, now);
                }
            }
            GcRole::Erase { plane } => {
                self.gc_jobs[plane] = None;
            }
        }
    }

    fn issue_gc_erase(&mut self, plane: usize, now: SimTime) {
        let Some(job) = self.gc_jobs[plane].as_mut() else {
            return;
        };
        job.erase_issued = true;
        let erase_addr = job.erase_addr;
        self.issue_gc(
            GcRole::Erase { plane },
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
    use sprinkler_flash::{FlashError, TransactionBuilder};

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
        // The first page a fresh device reads or programs: page 0 of a block.
        let mut builder = TransactionBuilder::new(op, g.clone());
        builder.try_add(g.page_addr(0, 0, 0, 0, 0, 0)).unwrap();
        let txn = builder.build().unwrap();
        let timing = &config.timing;
        let cell = timing.cell_time(&txn);
        let busy = timing.issue_bus_time(&txn) + cell + timing.completion_bus_time(&txn);
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
                blocks_per_invocation: 1,
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
        assert!(!ssd.records_series());
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
                blocks_per_invocation: 1,
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
        assert!(ssd.mem_requests.slots.iter().all(Option::is_none));
        assert_eq!(ssd.mem_requests.free.len(), ssd.mem_requests.slots.len());
        assert!(ssd.live.iter().all(Option::is_none));
    }

    #[test]
    fn gc_state_is_not_built_when_gc_is_off() {
        let ssd = Ssd::new(SsdConfig::small_test(), Box::new(CommitAllScheduler::new())).unwrap();
        assert!(ssd.gc_jobs.is_empty());
    }
}
