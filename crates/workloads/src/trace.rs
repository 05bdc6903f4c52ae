//! The block-level trace model.

use sprinkler_sim::SimTime;

/// Whether a trace record reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// Read request.
    Read,
    /// Write request.
    Write,
}

impl TraceOp {
    /// True for reads.
    pub fn is_read(self) -> bool {
        matches!(self, TraceOp::Read)
    }
}

/// One block-level I/O request of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic record identifier.
    pub id: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Operation.
    pub op: TraceOp,
    /// Byte offset of the access.
    pub offset: u64,
    /// Length in bytes (always ≥ 1).
    pub bytes: u64,
}

impl TraceRecord {
    /// The record expressed in flash pages: `(first logical page, page
    /// count)`.  A count past `u32::MAX` saturates there rather than wrapping
    /// to a short request.
    pub fn pages(&self, page_size: usize) -> (u64, u32) {
        let page_size = page_size as u64;
        let first = self.offset / page_size;
        let last = self.offset.saturating_add(self.bytes.max(1) - 1) / page_size;
        (first, u32::try_from(last - first + 1).unwrap_or(u32::MAX))
    }
}

/// A complete trace: a named, time-ordered sequence of records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    name: String,
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates a trace from records, sorting them by arrival time.
    pub fn new(name: impl Into<String>, mut records: Vec<TraceRecord>) -> Self {
        records.sort_by_key(|r| (r.arrival, r.id));
        Trace {
            name: name.into(),
            records,
        }
    }

    /// The trace's name (e.g. `"cfs0"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in arrival order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterates over the records.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Returns a copy truncated to the first `n` records (used for time-series and
    /// quick runs).
    pub fn truncated(&self, n: usize) -> Trace {
        Trace {
            name: self.name.clone(),
            records: self.records.iter().take(n).copied().collect(),
        }
    }

    /// Total bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.op.is_read())
            .map(|r| r.bytes)
            .sum()
    }

    /// Total bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| !r.op.is_read())
            .map(|r| r.bytes)
            .sum()
    }

    /// The trace's byte footprint: the maximum `offset + bytes` over all
    /// records (0 for an empty trace).  Every record stays strictly within the
    /// half-open range `[0, footprint_bytes())`.
    pub fn footprint_bytes(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.offset + r.bytes)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, at_us: u64, op: TraceOp, offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord {
            id,
            arrival: SimTime::from_micros(at_us),
            op,
            offset,
            bytes,
        }
    }

    #[test]
    fn records_are_sorted_by_arrival() {
        let trace = Trace::new(
            "t",
            vec![
                rec(1, 50, TraceOp::Read, 0, 4096),
                rec(0, 10, TraceOp::Write, 8192, 2048),
            ],
        );
        assert_eq!(trace.name(), "t");
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert_eq!(trace.records()[0].id, 0);
        assert_eq!(trace.records()[1].id, 1);
    }

    #[test]
    fn page_conversion_rounds_to_page_boundaries() {
        let r = rec(0, 0, TraceOp::Read, 1024, 2048);
        // Bytes 1024..3072 touch pages 0 and 1 (2 KB pages).
        assert_eq!(r.pages(2048), (0, 2));
        let r = rec(0, 0, TraceOp::Read, 2048, 2048);
        assert_eq!(r.pages(2048), (1, 1));
        let r = rec(0, 0, TraceOp::Read, 0, 1);
        assert_eq!(r.pages(2048), (0, 1));
        let r = rec(0, 0, TraceOp::Read, 0, 4096 * 4);
        assert_eq!(r.pages(2048), (0, 8));
    }

    /// Regression: the page count was cast with `as u32`, so a record of
    /// exactly 2^32 pages came out as a 0-page request, and 2^32 + 8 pages
    /// as an 8-page one.
    #[test]
    fn page_counts_past_u32_saturate() {
        let pages = |count: u64| rec(0, 0, TraceOp::Read, 2048, count * 2048).pages(2048);
        assert_eq!(pages(1 << 32), (1, u32::MAX));
        assert_eq!(pages((1 << 32) + 8), (1, u32::MAX));
        assert_eq!(pages(u32::MAX as u64), (1, u32::MAX));
        assert_eq!(
            rec(0, 0, TraceOp::Write, u64::MAX - 1, 16).pages(2048),
            (u64::MAX / 2048, 1)
        );
    }

    #[test]
    fn byte_totals_split_by_direction() {
        let trace = Trace::new(
            "t",
            vec![
                rec(0, 0, TraceOp::Read, 0, 4096),
                rec(1, 1, TraceOp::Write, 0, 1024),
                rec(2, 2, TraceOp::Read, 0, 1000),
            ],
        );
        assert_eq!(trace.read_bytes(), 5096);
        assert_eq!(trace.write_bytes(), 1024);
    }

    #[test]
    fn footprint_is_the_max_extent() {
        assert_eq!(Trace::new("e", vec![]).footprint_bytes(), 0);
        let trace = Trace::new(
            "t",
            vec![
                rec(0, 0, TraceOp::Read, 4096, 1024),
                rec(1, 1, TraceOp::Write, 0, 2048),
            ],
        );
        assert_eq!(trace.footprint_bytes(), 5120);
    }

    #[test]
    fn truncated_keeps_the_prefix() {
        let trace = Trace::new(
            "t",
            (0..10)
                .map(|i| rec(i, i * 10, TraceOp::Read, i * 4096, 4096))
                .collect(),
        );
        let head = trace.truncated(3);
        assert_eq!(head.len(), 3);
        assert_eq!(head.records()[2].id, 2);
        assert_eq!(head.name(), "t");
        assert_eq!(trace.truncated(100).len(), 10);
    }
}
