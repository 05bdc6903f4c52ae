//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary: the
//! set-up calls, `Ssd::run_stream`, every call into the scheduler (through
//! [`TimedScheduler`]) and every pull from the record stream (through
//! [`TimedPull`]).  Each span carries its kind (and so its layer), start,
//! end, and parent.  Per-kind totals, call counts and allocation counts are
//! accumulated for every span; the spans themselves are kept up to a
//! capacity reserved before the run, so recording never allocates, and are
//! written out as Chrome trace-event JSON when the run ends.
//!
//! The recorder lives in a thread-local: the scheduler wrapper sits inside
//! the simulator, which requires its scheduler to be `Send`.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sprinkler_flash::FlashGeometry;
use sprinkler_sim::{alloc_count, TelemetryCounters};
use sprinkler_ssd::ftl::PageMigration;
use sprinkler_ssd::{Commitment, IoScheduler, SchedulerContext, TagId};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Ssd::new` plus `precondition`.
    Setup,
    /// `Ssd::new`.
    SsdNew,
    /// `Ssd::precondition`.
    Precondition,
    /// `Ssd::run_stream`, end to end.
    RunStream,
    /// `IoScheduler::schedule_into`: one scheduling round.
    Schedule,
    /// `IoScheduler::on_complete`.
    OnComplete,
    /// `IoScheduler::on_readdress`.
    OnReaddress,
    /// One pull from the host-request stream.
    Pull,
}

const KINDS: usize = 8;

impl Kind {
    /// The span name in the exported trace.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::SsdNew => "ssd.new",
            Kind::Precondition => "ssd.precondition",
            Kind::RunStream => "ssd.run_stream",
            Kind::Schedule => "core.schedule_into",
            Kind::OnComplete => "core.on_complete",
            Kind::OnReaddress => "core.on_readdress",
            Kind::Pull => "workloads.pull",
        }
    }

    /// The module the span's time belongs to.
    pub fn layer(self) -> &'static str {
        match self {
            Kind::Setup | Kind::SsdNew | Kind::Precondition | Kind::RunStream => "ssd",
            Kind::Schedule | Kind::OnComplete | Kind::OnReaddress => "core",
            Kind::Pull => "workloads",
        }
    }
}

/// One recorded span; times are nanoseconds since the recorder was reset.
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    id: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Marks a span without a parent.
const NO_PARENT: u32 = u32::MAX;
/// Deepest span nesting the recorder tracks (the benchmark nests two deep).
const MAX_DEPTH: usize = 8;
/// Stored-span slots held back for root spans.
const ROOT_RESERVE: usize = 8;

/// Log-linear histogram of round durations: exact below 32 ns, then 16
/// linear sub-buckets per power of two (at most ~6% relative error).
const ROUND_BUCKETS: usize = 32 + 59 * 16;

fn round_bucket(ns: u64) -> usize {
    if ns < 32 {
        ns as usize
    } else {
        let exp = 63 - ns.leading_zeros() as usize;
        32 + (exp - 5) * 16 + ((ns >> (exp - 4)) & 15) as usize
    }
}

/// The `[low, high)` range of a round-duration bucket, ns.
fn round_bucket_range(index: usize) -> (f64, f64) {
    if index < 32 {
        (index as f64, index as f64 + 1.0)
    } else {
        let exp = (index - 32) / 16 + 5;
        let width = (1u64 << (exp - 4)) as f64;
        let low = (16 + (index - 32) % 16) as f64 * width;
        (low, low + width)
    }
}

/// Per-kind accumulators.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Spans closed while the steady-state window was open.
    pub window_count: u64,
    /// Allocation events inside those spans.
    pub window_allocs: u64,
}

/// Everything one traced pass recorded.
#[derive(Debug)]
struct Recorder {
    epoch: Option<Instant>,
    next_id: u32,
    depth: usize,
    stack: [u32; MAX_DEPTH],
    spans: Vec<Span>,
    dropped: u64,
    totals: [KindTotals; KINDS],
    round_hist: [u64; ROUND_BUCKETS],
    proposed: u64,
    window_open: bool,
    window_start_allocs: u64,
    window_allocs: Option<u64>,
}

impl Recorder {
    const EMPTY: Recorder = Recorder {
        epoch: None,
        next_id: 0,
        depth: 0,
        stack: [NO_PARENT; MAX_DEPTH],
        spans: Vec::new(),
        dropped: 0,
        totals: [KindTotals {
            count: 0,
            total_ns: 0,
            window_count: 0,
            window_allocs: 0,
        }; KINDS],
        round_hist: [0; ROUND_BUCKETS],
        proposed: 0,
        window_open: false,
        window_start_allocs: 0,
        window_allocs: None,
    };

    fn nanos(&self, at: Instant) -> u64 {
        self.epoch.map_or(0, |epoch| {
            at.saturating_duration_since(epoch).as_nanos() as u64
        })
    }

    fn open(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        assert!(
            self.depth < MAX_DEPTH,
            "span nesting deeper than {MAX_DEPTH}"
        );
        self.stack[self.depth] = id;
        self.depth += 1;
        id
    }

    fn close(&mut self, kind: Kind, id: u32, start: Instant, end: Instant, allocs: u64) {
        self.depth -= 1;
        debug_assert_eq!(self.stack[self.depth], id, "spans close in nesting order");
        let parent = if self.depth == 0 {
            NO_PARENT
        } else {
            self.stack[self.depth - 1]
        };
        let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
        let duration = end_ns - start_ns;
        let totals = &mut self.totals[kind as usize];
        totals.count += 1;
        totals.total_ns += duration;
        if self.window_open {
            totals.window_count += 1;
            totals.window_allocs += allocs;
        }
        if kind == Kind::Schedule {
            self.round_hist[round_bucket(duration)] += 1;
        }
        // Root spans (set-up, `run_stream`) close last; keep room for them.
        let room = if parent == NO_PARENT { 0 } else { ROOT_RESERVE };
        if self.spans.len() + room < self.spans.capacity() {
            self.spans.push(Span {
                kind,
                id,
                parent,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const { RefCell::new(Recorder::EMPTY) };
}

/// Clears the recorder, starts a new epoch, and reserves room for
/// `span_capacity` stored spans.
pub fn reset(span_capacity: usize) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let mut spans = std::mem::take(&mut r.spans);
        spans.clear();
        spans.reserve(span_capacity);
        *r = Recorder {
            epoch: Some(Instant::now()),
            spans,
            ..Recorder::EMPTY
        };
    });
}

/// Runs `f` inside a span of `kind`.
#[inline]
pub fn timed<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let id = RECORDER.with(|r| r.borrow_mut().open());
    let allocs = alloc_count();
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let allocs = alloc_count() - allocs;
    RECORDER.with(|r| r.borrow_mut().close(kind, id, start, end, allocs));
    out
}

/// Opens the steady-state allocation window (after warm-up).
fn open_window() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.window_open = true;
        r.window_start_allocs = alloc_count();
    });
}

/// Closes the steady-state window, once, when the record stream runs dry.
fn close_window() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.window_open {
            r.window_open = false;
            r.window_allocs = Some(alloc_count() - r.window_start_allocs);
        }
    });
}

/// The per-kind totals and counters of the current pass.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Totals per [`Kind`], indexed by `kind as usize`.
    pub totals: [KindTotals; KINDS],
    /// Commitments the scheduler proposed, summed over rounds.
    pub proposed: u64,
    /// Allocation events in the steady-state window, all layers together.
    pub window_allocs: u64,
    /// Spans recorded, stored or not.
    pub spans: u64,
    round_hist: Vec<u64>,
}

impl Summary {
    /// The totals of one kind.
    pub fn of(&self, kind: Kind) -> KindTotals {
        self.totals[kind as usize]
    }

    /// Quantile `q` of the scheduling-round durations, ns, interpolated by
    /// rank inside its bucket.
    pub fn round_ns_quantile(&self, q: f64) -> f64 {
        let total: u64 = self.round_hist.iter().sum();
        let target = q * total as f64;
        let mut seen = 0;
        for (index, &count) in self.round_hist.iter().enumerate() {
            if count > 0 && (seen + count) as f64 >= target {
                let (low, high) = round_bucket_range(index);
                let within = ((target - seen as f64) / count as f64).clamp(0.0, 1.0);
                return low + within * (high - low);
            }
            seen += count;
        }
        0.0
    }
}

/// Snapshot of the current pass.
pub fn summary() -> Summary {
    RECORDER.with(|r| {
        let r = r.borrow();
        Summary {
            totals: r.totals,
            proposed: r.proposed,
            window_allocs: r.window_allocs.unwrap_or(0),
            spans: r.totals.iter().map(|t| t.count).sum(),
            round_hist: r.round_hist.to_vec(),
        }
    })
}

/// Writes the stored spans of the current pass as Chrome trace-event JSON
/// (loadable by Perfetto and `chrome://tracing`).
pub fn write_chrome_trace(path: &Path, label: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    RECORDER.with(|r| -> std::io::Result<()> {
        let r = r.borrow();
        writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"run\":\"{label}\",\"spans_dropped\":{}}},\"traceEvents\":[", r.dropped)?;
        writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{{\"name\":\"replay\"}}}}"
        )?;
        for span in &r.spans {
            let parent = if span.parent == NO_PARENT {
                String::from("null")
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                ",{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                span.kind.name(),
                span.kind.layer(),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.id,
                parent,
            )?;
        }
        writeln!(out, "]}}")
    })?;
    out.flush()
}

/// Wraps a scheduler built by `SchedulerKind::build` and times every call
/// into it.  Decisions pass through untouched.
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Box<dyn IoScheduler>,
}

impl TimedScheduler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn IoScheduler>) -> Self {
        TimedScheduler { inner }
    }
}

impl IoScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initialize(&mut self, geometry: &FlashGeometry) {
        self.inner.initialize(geometry);
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<TelemetryCounters>) {
        self.inner.attach_telemetry(telemetry);
    }

    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        timed(Kind::Schedule, || self.inner.schedule_into(ctx, out));
        let proposed = out.len() as u64;
        RECORDER.with(|r| r.borrow_mut().proposed += proposed);
    }

    fn on_complete(&mut self, tag: TagId, page: u32) {
        timed(Kind::OnComplete, || self.inner.on_complete(tag, page));
    }

    fn supports_readdressing(&self) -> bool {
        self.inner.supports_readdressing()
    }

    fn on_readdress(&mut self, migration: &PageMigration) {
        timed(Kind::OnReaddress, || self.inner.on_readdress(migration));
    }
}

/// Times every pull from a host-request stream and opens the steady-state
/// allocation window once `warmup` requests have been pulled.
pub struct TimedPull<'a, I> {
    inner: &'a mut I,
    pulled: u64,
    warmup: u64,
}

impl<'a, I> TimedPull<'a, I> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut I, warmup: u64) -> Self {
        TimedPull {
            inner,
            pulled: 0,
            warmup,
        }
    }
}

impl<I: Iterator> Iterator for TimedPull<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = timed(Kind::Pull, || self.inner.next());
        match item {
            Some(_) => {
                self.pulled += 1;
                if self.pulled == self.warmup {
                    open_window();
                }
            }
            None => close_window(),
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_buckets_bracket_their_samples() {
        for ns in [0u64, 1, 31, 32, 33, 100, 1_000, 123_456, 10_000_000_000] {
            let index = round_bucket(ns);
            assert!(index < ROUND_BUCKETS);
            let (low, high) = round_bucket_range(index);
            assert!(
                low <= ns as f64 && (ns as f64) < high,
                "{ns} outside [{low}, {high})"
            );
        }
        assert!(round_bucket(u64::MAX) < ROUND_BUCKETS);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        reset(2 * ROOT_RESERVE);
        timed(Kind::RunStream, || timed(Kind::Pull, || ()));
        let s = summary();
        assert_eq!(s.of(Kind::RunStream).count, 1);
        assert_eq!(s.of(Kind::Pull).count, 1);
        assert!(s.of(Kind::RunStream).total_ns >= s.of(Kind::Pull).total_ns);
        RECORDER.with(|r| {
            let r = r.borrow();
            let pull = r.spans[0];
            let run = r.spans[1];
            assert_eq!(pull.kind, Kind::Pull);
            assert_eq!(pull.parent, run.id);
            assert_eq!(run.parent, NO_PARENT);
        });
    }
}
