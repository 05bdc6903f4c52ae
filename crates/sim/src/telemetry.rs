//! Always-on hot-path telemetry and the test-time counting allocator.
//!
//! Two independent facilities keep the simulator's performance work honest:
//!
//! * [`TelemetryCounters`] — a bundle of relaxed-ordering atomic counters the
//!   hot path increments unconditionally.  One instance is created per run
//!   (never a global: experiment harnesses run many devices concurrently and
//!   per-run figures must stay deterministic), shared via `Arc` between the
//!   SSD substrate and its scheduler, and frozen into a [`TelemetrySnapshot`]
//!   when the run's metrics are finalized.  The counters are always on —
//!   every experiment, scenario, and BENCH baseline carries them — and the
//!   replay loop bumps them dozens of times per I/O.  A run's counters have
//!   one writer, the thread that runs its simulation, so an increment is a
//!   relaxed load and store rather than a `fetch_add`, which on x86-64 is a
//!   `lock`-prefixed read-modify-write that also orders the loads and stores
//!   around it.
//! * [`CountingAllocator`] — a test-only global allocator that counts
//!   allocations and allocated bytes per thread.  Test binaries install it
//!   with `#[global_allocator]` and use [`AllocScope`] to assert that a
//!   region of code (the steady-state replay loop) performs no allocations.
//!
//! Neither facility is compiled out: the counters are part of the measurement
//! substrate, and the allocator is only active in binaries that opt in.

use std::sync::atomic::{AtomicU64, Ordering};

/// Relaxed-ordering atomic counters for the scheduling/replay hot path.
///
/// All increments use [`Ordering::Relaxed`]: the counters are statistics, not
/// synchronization, each has one writer (see [`TelemetryCounters::incr`]),
/// and per-run totals are read only after the run completed.
#[derive(Debug, Default)]
pub struct TelemetryCounters {
    /// Scheduling rounds executed (one per non-trivial `run_scheduler` call).
    pub sched_rounds: AtomicU64,
    /// Rounds whose tag walk was clipped early by the FUA reordering horizon.
    pub hazard_horizon_clips: AtomicU64,
    /// Pages deferred by the §4.4 write-after-read hazard check.
    pub hazard_war_deferrals: AtomicU64,
    /// FARO selections resolved by the single-tag fast path.
    pub faro_fast_path_rounds: AtomicU64,
    /// Commitments dropped because the target chip had no ledger headroom.
    pub ledger_headroom_exhausted: AtomicU64,
    /// Host requests admitted by the streaming replay loop.
    pub stream_admissions: AtomicU64,
    /// Streaming-ingestion stalls: a request was due but the bounded backlog
    /// was full, so the replay loop drained events instead.
    pub stream_stalls: AtomicU64,
}

impl TelemetryCounters {
    /// Creates a zeroed counter bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to a counter.  Relaxed ordering: statistics only.
    ///
    /// Single-writer contract: only the thread that runs the simulation the
    /// counters belong to increments them, so a relaxed load and store
    /// counts exactly; two threads incrementing one counter concurrently
    /// could lose counts.  Other threads may read the counters at any time.
    #[inline]
    pub fn incr(counter: &AtomicU64) {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Freezes the current counter values into a plain snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            sched_rounds: self.sched_rounds.load(Ordering::Relaxed),
            hazard_horizon_clips: self.hazard_horizon_clips.load(Ordering::Relaxed),
            hazard_war_deferrals: self.hazard_war_deferrals.load(Ordering::Relaxed),
            faro_fast_path_rounds: self.faro_fast_path_rounds.load(Ordering::Relaxed),
            ledger_headroom_exhausted: self.ledger_headroom_exhausted.load(Ordering::Relaxed),
            stream_admissions: self.stream_admissions.load(Ordering::Relaxed),
            stream_stalls: self.stream_stalls.load(Ordering::Relaxed),
        }
    }
}

/// A frozen, plain-`u64` view of [`TelemetryCounters`], carried by run metrics
/// and summable across devices of an array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Scheduling rounds executed.
    pub sched_rounds: u64,
    /// Rounds clipped early by the FUA reordering horizon.
    pub hazard_horizon_clips: u64,
    /// Pages deferred by the write-after-read hazard check.
    pub hazard_war_deferrals: u64,
    /// FARO selections resolved by the single-tag fast path.
    pub faro_fast_path_rounds: u64,
    /// Commitments dropped for lack of ledger headroom.
    pub ledger_headroom_exhausted: u64,
    /// Host requests admitted by the streaming replay loop.
    pub stream_admissions: u64,
    /// Streaming-ingestion stalls against the bounded backlog.
    pub stream_stalls: u64,
}

impl TelemetrySnapshot {
    /// Elementwise sum, for aggregating per-device snapshots into an array
    /// summary.
    pub fn merged(&self, other: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            sched_rounds: self.sched_rounds + other.sched_rounds,
            hazard_horizon_clips: self.hazard_horizon_clips + other.hazard_horizon_clips,
            hazard_war_deferrals: self.hazard_war_deferrals + other.hazard_war_deferrals,
            faro_fast_path_rounds: self.faro_fast_path_rounds + other.faro_fast_path_rounds,
            ledger_headroom_exhausted: self.ledger_headroom_exhausted
                + other.ledger_headroom_exhausted,
            stream_admissions: self.stream_admissions + other.stream_admissions,
            stream_stalls: self.stream_stalls + other.stream_stalls,
        }
    }
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialized Cells: no lazy TLS initialization, so the counters
    // never allocate (or recurse) from inside the allocator itself.
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static PANIC_ON_ALLOC: Cell<bool> = const { Cell::new(false) };
}

/// Arms (or disarms) panic-on-allocation for this thread: under
/// [`CountingAllocator`], the next allocation event panics with the offending
/// layout size, so the call stack of a hot-path allocation is visible in the
/// test backtrace.  The flag self-disarms before panicking (the panic
/// machinery itself allocates).  Debugging aid for zero-allocation gates.
pub fn panic_on_alloc(enabled: bool) {
    PANIC_ON_ALLOC.with(|flag| flag.set(enabled));
}

#[inline]
fn note_alloc(bytes: usize) {
    ALLOC_COUNT.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|b| b.set(b.get() + bytes as u64));
    if PANIC_ON_ALLOC.with(Cell::get) {
        PANIC_ON_ALLOC.with(|flag| flag.set(false));
        panic!("unexpected allocation of {bytes} bytes while panic_on_alloc was armed");
    }
}

/// A counting [`GlobalAlloc`] that delegates to the system allocator and
/// tracks per-thread allocation counts and byte totals.
///
/// Install it in a test binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sprinkler_sim::CountingAllocator = sprinkler_sim::CountingAllocator;
/// ```
///
/// and measure a region with [`AllocScope`].  Deallocations are not tracked:
/// the zero-allocation gate cares about allocation *events* on the hot path,
/// not about net memory growth.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAllocator;

// SAFETY: every method delegates directly to `System`; the only extra work is
// updating const-initialized thread-local Cells, which cannot allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events observed on this thread since it started.
///
/// Monotonic; only meaningful in binaries whose global allocator is
/// [`CountingAllocator`] (it reads 0 otherwise).
pub fn alloc_count() -> u64 {
    ALLOC_COUNT.with(Cell::get)
}

/// Bytes requested from the allocator on this thread since it started.
///
/// Monotonic (deallocations are not subtracted); only meaningful under
/// [`CountingAllocator`].
pub fn bytes_allocated() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

/// A scoped guard over the thread's allocation counters: captures them at
/// construction and reports the delta on demand.
///
/// ```ignore
/// let scope = AllocScope::begin();
/// hot_loop();
/// assert_eq!(scope.allocations(), 0, "hot loop must not allocate");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    start_count: u64,
    start_bytes: u64,
}

impl AllocScope {
    /// Starts measuring from the current counter values.
    pub fn begin() -> Self {
        AllocScope {
            start_count: alloc_count(),
            start_bytes: bytes_allocated(),
        }
    }

    /// Allocation events since the scope began.
    pub fn allocations(&self) -> u64 {
        alloc_count() - self.start_count
    }

    /// Bytes requested since the scope began.
    pub fn bytes(&self) -> u64 {
        bytes_allocated() - self.start_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_and_merge() {
        let counters = TelemetryCounters::new();
        TelemetryCounters::incr(&counters.sched_rounds);
        TelemetryCounters::incr(&counters.sched_rounds);
        TelemetryCounters::incr(&counters.stream_stalls);
        let snap = counters.snapshot();
        assert_eq!(snap.sched_rounds, 2);
        assert_eq!(snap.stream_stalls, 1);
        assert_eq!(snap.hazard_war_deferrals, 0);

        let other = TelemetrySnapshot {
            sched_rounds: 3,
            faro_fast_path_rounds: 7,
            ..TelemetrySnapshot::default()
        };
        let merged = snap.merged(&other);
        assert_eq!(merged.sched_rounds, 5);
        assert_eq!(merged.faro_fast_path_rounds, 7);
        assert_eq!(merged.stream_stalls, 1);
    }

    #[test]
    fn default_snapshot_is_zero() {
        assert_eq!(
            TelemetryCounters::new().snapshot(),
            TelemetrySnapshot::default()
        );
    }

    #[test]
    fn alloc_scope_reports_deltas() {
        // Without CountingAllocator installed the counters stay at zero, but
        // the arithmetic must still hold.
        let scope = AllocScope::begin();
        assert_eq!(scope.allocations(), alloc_count() - scope.start_count);
        assert_eq!(scope.bytes(), bytes_allocated() - scope.start_bytes);
    }
}
