//! Pull-based trace sources.
//!
//! The paper's evaluation replays multi-million-I/O enterprise traces
//! (Table 1); materializing such a trace as a `Vec` before replay costs memory
//! proportional to the trace length.  [`TraceSource`] is the streaming
//! alternative: a pull-based producer of [`TraceRecord`]s that the replay path
//! consumes one record at a time, so the simulator's memory footprint is
//! bounded by the *outstanding* I/Os, not the trace length.
//!
//! Every source declares a **footprint bound**: an exclusive upper limit on
//! `offset + bytes` across all records it will ever yield.  The replay boundary
//! checks that bound (and every individual record) against the device's logical
//! capacity, so a trace can no longer silently address pages past the capacity
//! of the simulated SSD.
//!
//! Implementations in this crate:
//!
//! * [`TraceCursor`] — streams an in-memory [`Trace`] (the original replay
//!   representation, kept for tests and small workloads);
//! * [`crate::synthetic::SyntheticStream`] — the Table 1 synthetic generator,
//!   emitting lazily;
//! * [`crate::sweep::SweepStream`] — the fixed-transfer-size microbenchmark
//!   generator, emitting lazily;
//! * [`crate::parse::TextTraceSource`] — the text-trace parser for
//!   MSR-Cambridge-style CSV and blkparse-style lines.

use crate::trace::{Trace, TraceRecord};

/// A pull-based, time-ordered producer of trace records.
///
/// # Contract
///
/// * Records are yielded in nondecreasing arrival order.
/// * Every yielded record satisfies `offset + bytes <= footprint_bytes()`.
/// * `next_record` returns `None` once the source is exhausted and keeps
///   returning `None` afterwards.
///
/// # Example
///
/// ```
/// use sprinkler_workloads::{SyntheticSpec, TraceSource};
///
/// let spec = SyntheticSpec::new("stream").with_footprint_mb(64);
/// let mut source = spec.stream(100, 7);
/// assert_eq!(source.footprint_bytes(), 64 * 1024 * 1024);
/// let mut count = 0;
/// while let Some(record) = source.next_record() {
///     assert!(record.offset + record.bytes <= source.footprint_bytes());
///     count += 1;
/// }
/// assert_eq!(count, 100);
/// ```
pub trait TraceSource {
    /// The workload's name (e.g. `"msnfs1"` or `"sample_msr"`).
    fn name(&self) -> &str;

    /// Exclusive upper bound on `offset + bytes` over every record this source
    /// yields.
    fn footprint_bytes(&self) -> u64;

    /// Pulls the next record, or `None` when the trace is exhausted.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// Drains the source into an in-memory [`Trace`] (records re-sorted by
    /// arrival, as [`Trace::new`] guarantees).  Useful for tests and for small
    /// traces that are replayed repeatedly.
    fn collect_trace(&mut self) -> Trace
    where
        Self: Sized,
    {
        let mut records = Vec::new();
        while let Some(record) = self.next_record() {
            records.push(record);
        }
        Trace::new(self.name().to_string(), records)
    }
}

/// Streams the records of an in-memory [`Trace`], fulfilling the
/// [`TraceSource`] contract (the trace's records are already sorted by
/// arrival; the footprint bound is the max `offset + bytes` of the records).
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a Trace,
    footprint: u64,
    next: usize,
}

impl<'a> TraceCursor<'a> {
    /// Creates a cursor over `trace`.  O(trace length) once, to compute the
    /// footprint bound.
    pub fn new(trace: &'a Trace) -> Self {
        TraceCursor {
            trace,
            footprint: trace.footprint_bytes(),
            next: 0,
        }
    }
}

impl TraceSource for TraceCursor<'_> {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        let record = self.trace.records().get(self.next).copied()?;
        self.next += 1;
        Some(record)
    }
}

impl Trace {
    /// A streaming [`TraceSource`] view of this trace.
    pub fn source(&self) -> TraceCursor<'_> {
        TraceCursor::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOp;
    use sprinkler_sim::SimTime;

    fn rec(id: u64, at_us: u64, offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord {
            id,
            arrival: SimTime::from_micros(at_us),
            op: TraceOp::Read,
            offset,
            bytes,
        }
    }

    #[test]
    fn cursor_streams_records_in_order_and_reports_footprint() {
        let trace = Trace::new("t", vec![rec(0, 0, 4096, 2048), rec(1, 5, 0, 1024)]);
        let mut source = trace.source();
        assert_eq!(source.name(), "t");
        assert_eq!(source.footprint_bytes(), 4096 + 2048);
        let first = source.next_record().unwrap();
        assert_eq!(first.id, 0);
        assert_eq!(source.next_record().unwrap().id, 1);
        assert!(source.next_record().is_none());
        assert!(source.next_record().is_none(), "exhaustion is sticky");
    }

    #[test]
    fn cursor_of_empty_trace_is_immediately_exhausted() {
        let trace = Trace::new("empty", vec![]);
        let mut source = trace.source();
        assert_eq!(source.footprint_bytes(), 0);
        assert!(source.next_record().is_none());
    }

    #[test]
    fn collect_trace_round_trips() {
        let trace = Trace::new("t", vec![rec(0, 0, 0, 512), rec(1, 3, 8192, 512)]);
        let collected = trace.source().collect_trace();
        assert_eq!(collected, trace);
    }
}
