//! Footprint slicing: rebasing a trace source into a tenant's address window.
//!
//! The multi-tenant admission front gives each tenant an exclusive, contiguous
//! byte range of the device's logical address space.  [`FootprintSlice`]
//! describes one such window and [`SlicedSource`] adapts any [`TraceSource`]
//! into it: every record's offset is rebased by the slice base, and the
//! adapter's declared footprint bound becomes `base + len`, so the replay
//! boundary's capacity validation keeps working unchanged.  Records of the
//! inner source must already respect the slice length — the adapter asserts
//! this in debug builds and clamps in release, so a misconfigured tenant can
//! never bleed into a neighbour's window.

use crate::source::TraceSource;
use crate::trace::TraceRecord;

/// One tenant's exclusive, contiguous window of the logical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootprintSlice {
    /// First byte of the window.
    pub base: u64,
    /// Window length in bytes (exclusive bound on intra-slice `offset + bytes`).
    pub len: u64,
}

impl FootprintSlice {
    /// Creates a slice starting at `base`, `len` bytes long.
    pub fn new(base: u64, len: u64) -> Self {
        FootprintSlice { base, len }
    }

    /// Splits `total` bytes into `n` equal page-aligned slices (the remainder
    /// goes to the last slice).  Returns an empty vector when `n` is 0.
    pub fn split_even(total: u64, n: usize, page_size: u64) -> Vec<FootprintSlice> {
        if n == 0 {
            return Vec::new();
        }
        let pages = total / page_size.max(1);
        let per = (pages / n as u64) * page_size.max(1);
        let mut slices = Vec::with_capacity(n);
        let mut base = 0;
        for i in 0..n {
            let len = if i + 1 == n { total - base } else { per };
            slices.push(FootprintSlice::new(base, len));
            base += len;
        }
        slices
    }

    /// Exclusive upper bound of the window (`base + len`).
    pub fn end(&self) -> u64 {
        self.base + self.len
    }
}

/// A [`TraceSource`] adapter that rebases an inner source into a
/// [`FootprintSlice`].
///
/// The inner source generates offsets in `[0, slice.len)`; the adapter shifts
/// them by `slice.base` and reports `slice.end()` as its footprint bound.
#[derive(Debug)]
pub struct SlicedSource<S> {
    inner: S,
    slice: FootprintSlice,
}

impl<S: TraceSource> SlicedSource<S> {
    /// Wraps `inner`, rebasing its records into `slice`.
    ///
    /// The inner source's own footprint bound must fit the slice; this is the
    /// static form of the per-record check and fails fast at construction.
    pub fn new(inner: S, slice: FootprintSlice) -> Self {
        assert!(
            inner.footprint_bytes() <= slice.len,
            "source footprint {} exceeds slice length {}",
            inner.footprint_bytes(),
            slice.len
        );
        SlicedSource { inner, slice }
    }

    /// The window this source is confined to.
    pub fn slice(&self) -> FootprintSlice {
        self.slice
    }

    /// Consumes the adapter, returning the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSource> TraceSource for SlicedSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn footprint_bytes(&self) -> u64 {
        self.slice.end()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        let mut record = self.inner.next_record()?;
        debug_assert!(
            record.offset + record.bytes <= self.slice.len,
            "record {}..{} escapes slice of length {}",
            record.offset,
            record.offset + record.bytes,
            self.slice.len
        );
        // Release-mode clamp: confine a stray record to the window rather than
        // corrupting a neighbouring tenant's address range.
        if record.offset + record.bytes > self.slice.len {
            record.offset = record.offset.min(self.slice.len.saturating_sub(1));
            record.bytes = record.bytes.min(self.slice.len - record.offset);
        }
        record.offset += self.slice.base;
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;

    #[test]
    fn split_even_covers_the_whole_range_without_overlap() {
        let total = 64 * 1024 * 1024 + 4096;
        let slices = FootprintSlice::split_even(total, 3, 4096);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].base, 0);
        for pair in slices.windows(2) {
            assert_eq!(pair[0].end(), pair[1].base, "slices tile contiguously");
            assert_eq!(pair[0].base % 4096, 0, "slice bases are page aligned");
        }
        assert_eq!(slices.last().unwrap().end(), total);
    }

    #[test]
    fn split_even_zero_tenants_is_empty() {
        assert!(FootprintSlice::split_even(1 << 20, 0, 4096).is_empty());
    }

    #[test]
    fn sliced_source_rebases_offsets_and_footprint() {
        let spec = SyntheticSpec::new("t").with_footprint_mb(4);
        let slice = FootprintSlice::new(32 * 1024 * 1024, 8 * 1024 * 1024);
        let mut source = SlicedSource::new(spec.stream(50, 11), slice);
        assert_eq!(source.footprint_bytes(), slice.end());
        let mut count = 0;
        while let Some(record) = source.next_record() {
            assert!(record.offset >= slice.base, "offset rebased into the slice");
            assert!(record.offset + record.bytes <= slice.end());
            count += 1;
        }
        assert_eq!(count, 50);
    }

    #[test]
    #[should_panic(expected = "exceeds slice length")]
    fn oversized_source_is_rejected_at_construction() {
        let spec = SyntheticSpec::new("big").with_footprint_mb(64);
        let _ = SlicedSource::new(spec.stream(1, 0), FootprintSlice::new(0, 1024));
    }
}
