//! Flash transactions and flash-level parallelism (FLP) classification.
//!
//! A *flash transaction* is the unit of work a flash controller executes on a chip:
//! one or more page-level requests that share the chip's interface and are executed
//! with a single command/timing sequence (§2.2 of the paper).  The degree of
//! parallelism a transaction enjoys is classified as:
//!
//! * `NonPal` — a single page request, no flash-level parallelism,
//! * `Pal1` — plane sharing (multiple planes of one die),
//! * `Pal2` — die interleaving (multiple dies, one plane each),
//! * `Pal3` — die interleaving combined with plane sharing.

use std::fmt;

use crate::address::{ChipLocation, PhysicalPageAddr};
use crate::error::FlashError;
use crate::geometry::FlashGeometry;

/// The operation a flash transaction performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashOp {
    /// Page read (cell array → data register → bus).
    Read,
    /// Page program (bus → data register → cell array).
    Program,
    /// Block erase.
    Erase,
}

impl FlashOp {
    /// True for operations that move page payload over the bus.
    pub fn transfers_data(self) -> bool {
        matches!(self, FlashOp::Read | FlashOp::Program)
    }
}

impl fmt::Display for FlashOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlashOp::Read => "read",
            FlashOp::Program => "program",
            FlashOp::Erase => "erase",
        };
        f.write_str(s)
    }
}

/// Flash-level parallelism classification of a transaction (Fig 14 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParallelismLevel {
    /// Single request: served only by system-level parallelism.
    NonPal,
    /// Plane sharing within one die.
    Pal1,
    /// Die interleaving, one plane per die.
    Pal2,
    /// Die interleaving combined with plane sharing.
    Pal3,
}

impl ParallelismLevel {
    /// All levels in ascending order of parallelism.
    pub const ALL: [ParallelismLevel; 4] = [
        ParallelismLevel::NonPal,
        ParallelismLevel::Pal1,
        ParallelismLevel::Pal2,
        ParallelismLevel::Pal3,
    ];

    /// Short label used by the experiment harness ("NON-PAL", "PAL1", ...).
    pub fn label(self) -> &'static str {
        match self {
            ParallelismLevel::NonPal => "NON-PAL",
            ParallelismLevel::Pal1 => "PAL1",
            ParallelismLevel::Pal2 => "PAL2",
            ParallelismLevel::Pal3 => "PAL3",
        }
    }
}

impl fmt::Display for ParallelismLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A coalesced group of page-level requests executed as a single chip operation.
///
/// All requests share one chip and one [`FlashOp`]; the coalescing rules (which
/// combinations of dies/planes are legal) are enforced by [`TransactionBuilder`].
///
/// # Example
///
/// ```
/// use sprinkler_flash::{FlashGeometry, FlashOp, ParallelismLevel, TransactionBuilder};
///
/// let g = FlashGeometry::paper_default();
/// let mut b = TransactionBuilder::new(FlashOp::Program, g.clone());
/// b.try_add(g.page_addr(0, 0, 0, 0, 5, 0)).unwrap();
/// b.try_add(g.page_addr(0, 0, 0, 1, 9, 0)).unwrap();
/// b.try_add(g.page_addr(0, 0, 1, 0, 2, 0)).unwrap();
/// b.try_add(g.page_addr(0, 0, 1, 2, 4, 0)).unwrap();
/// let txn = b.build().unwrap();
/// assert_eq!(txn.parallelism(), ParallelismLevel::Pal3);
/// assert_eq!(txn.active_dies(), 2);
/// assert_eq!(txn.active_planes(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashTransaction {
    op: FlashOp,
    chip: ChipLocation,
    requests: Vec<PhysicalPageAddr>,
    page_size: usize,
}

impl FlashTransaction {
    /// The operation type.
    pub fn op(&self) -> FlashOp {
        self.op
    }

    /// The chip the transaction executes on.
    pub fn chip(&self) -> ChipLocation {
        self.chip
    }

    /// The coalesced page requests.
    pub fn requests(&self) -> &[PhysicalPageAddr] {
        &self.requests
    }

    /// Page payload size in bytes (zero for erases).
    pub fn page_size(&self) -> usize {
        if self.op.transfers_data() {
            self.page_size
        } else {
            0
        }
    }

    /// Total payload bytes moved over the bus by this transaction.
    pub fn payload_bytes(&self) -> usize {
        self.page_size() * self.requests.len()
    }

    /// Number of distinct dies the transaction touches.
    ///
    /// Allocation-free distinct count: a request's die is counted only the
    /// first time it appears.  Transactions hold at most dies × planes
    /// requests (8 in the paper's geometry), so the quadratic scan is cheaper
    /// than building a sorted scratch vector — and it keeps the per-round hot
    /// path of the zero-allocation replay gate clean.
    pub fn active_dies(&self) -> usize {
        self.requests
            .iter()
            .enumerate()
            .filter(|(i, r)| self.requests[..*i].iter().all(|prev| prev.die != r.die))
            .count()
    }

    /// Number of distinct (die, plane) pairs the transaction touches.
    ///
    /// Allocation-free for the same reason as [`FlashTransaction::active_dies`].
    pub fn active_planes(&self) -> usize {
        self.requests
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                self.requests[..*i]
                    .iter()
                    .all(|prev| (prev.die, prev.plane) != (r.die, r.plane))
            })
            .count()
    }

    /// Classifies the flash-level parallelism of the transaction.
    pub fn parallelism(&self) -> ParallelismLevel {
        let dies = self.active_dies();
        let planes = self.active_planes();
        match (dies, planes) {
            (0 | 1, 0 | 1) => ParallelismLevel::NonPal,
            (1, _) => ParallelismLevel::Pal1,
            (d, p) if p > d => ParallelismLevel::Pal3,
            _ => ParallelismLevel::Pal2,
        }
    }

    /// The die indices touched, deduplicated and sorted.
    pub fn dies(&self) -> Vec<u32> {
        let mut dies: Vec<u32> = self.requests.iter().map(|r| r.die).collect();
        dies.sort_unstable();
        dies.dedup();
        dies
    }

    /// The (die, plane) pairs touched, deduplicated and sorted.
    pub fn planes(&self) -> Vec<(u32, u32)> {
        let mut planes: Vec<(u32, u32)> = self.requests.iter().map(|r| (r.die, r.plane)).collect();
        planes.sort_unstable();
        planes.dedup();
        planes
    }

    /// Consumes the transaction and returns its request buffer so callers can
    /// recycle the allocation into the next [`TransactionBuilder`] (see
    /// [`TransactionBuilder::new_with_buffer`]).
    pub fn into_requests(self) -> Vec<PhysicalPageAddr> {
        self.requests
    }
}

/// Incrementally coalesces page requests into a [`FlashTransaction`], enforcing the
/// flash-level constraints described in §2.2:
///
/// * every request targets the same chip and uses the same operation,
/// * at most one request per (die, plane) pair (planes hold one page in their data
///   register at a time),
/// * optionally, plane sharing may be restricted to requests with identical page
///   offsets (the strictest reading of the ONFI multi-plane constraint).
#[derive(Debug, Clone)]
pub struct TransactionBuilder {
    op: FlashOp,
    geometry: FlashGeometry,
    requests: Vec<PhysicalPageAddr>,
    strict_plane_pairing: bool,
}

impl TransactionBuilder {
    /// Creates a builder for the given operation in the given geometry.
    pub fn new(op: FlashOp, geometry: FlashGeometry) -> Self {
        Self::new_with_buffer(op, geometry, Vec::new())
    }

    /// Like [`TransactionBuilder::new`] but adopts `buffer` (cleared) as the
    /// request storage, so a buffer recycled from
    /// [`FlashTransaction::into_requests`] makes the build allocation-free once
    /// its capacity covers the coalescing limit.
    pub fn new_with_buffer(
        op: FlashOp,
        geometry: FlashGeometry,
        mut buffer: Vec<PhysicalPageAddr>,
    ) -> Self {
        buffer.clear();
        TransactionBuilder {
            op,
            geometry,
            requests: buffer,
            strict_plane_pairing: false,
        }
    }

    /// Enables the strict ONFI multi-plane pairing rule: requests that share a die
    /// must also share their page offset (and differ in plane/block only).
    pub fn with_strict_plane_pairing(mut self, strict: bool) -> Self {
        self.strict_plane_pairing = strict;
        self
    }

    /// Number of requests accepted so far.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if no requests have been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Returns `Ok(())` if `addr` could be added right now without violating any
    /// coalescing rule, without actually adding it.
    pub fn can_add(&self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        self.geometry.check_addr(addr)?;
        let Some(first) = self.requests.first() else {
            return Ok(());
        };
        if !first.same_chip(&addr) {
            return Err(FlashError::CoalesceConflict {
                reason: "request targets a different chip",
            });
        }
        for existing in &self.requests {
            if existing.die == addr.die && existing.plane == addr.plane {
                return Err(FlashError::CoalesceConflict {
                    reason: "plane already occupied by this transaction",
                });
            }
            if self.strict_plane_pairing && existing.die == addr.die && existing.page != addr.page {
                return Err(FlashError::CoalesceConflict {
                    reason: "strict plane pairing requires matching page offsets",
                });
            }
        }
        Ok(())
    }

    /// Adds a request, or explains why it cannot be coalesced.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::AddressOutOfRange`] or [`FlashError::CoalesceConflict`].
    pub fn try_add(&mut self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        self.can_add(addr)?;
        self.requests.push(addr);
        Ok(())
    }

    /// Finalizes the transaction.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::EmptyTransaction`] if no request was added.
    pub fn build(self) -> Result<FlashTransaction, FlashError> {
        let Some(first) = self.requests.first() else {
            return Err(FlashError::EmptyTransaction);
        };
        let chip = first.chip();
        Ok(FlashTransaction {
            op: self.op,
            chip,
            requests: self.requests,
            page_size: self.geometry.page_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> FlashGeometry {
        FlashGeometry::paper_default()
    }

    #[test]
    fn single_request_is_non_pal() {
        let g = g();
        let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
        b.try_add(g.page_addr(0, 0, 0, 0, 1, 2)).unwrap();
        let txn = b.build().unwrap();
        assert_eq!(txn.parallelism(), ParallelismLevel::NonPal);
        assert_eq!(txn.requests().len(), 1);
        assert_eq!(txn.active_dies(), 1);
        assert_eq!(txn.active_planes(), 1);
        assert_eq!(txn.chip(), ChipLocation { channel: 0, way: 0 });
        assert_eq!(txn.op(), FlashOp::Read);
    }

    #[test]
    fn plane_sharing_is_pal1() {
        let g = g();
        let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
        b.try_add(g.page_addr(0, 0, 0, 0, 1, 2)).unwrap();
        b.try_add(g.page_addr(0, 0, 0, 1, 3, 2)).unwrap();
        b.try_add(g.page_addr(0, 0, 0, 2, 5, 2)).unwrap();
        let txn = b.build().unwrap();
        assert_eq!(txn.parallelism(), ParallelismLevel::Pal1);
        assert_eq!(txn.active_dies(), 1);
        assert_eq!(txn.active_planes(), 3);
    }

    #[test]
    fn die_interleaving_is_pal2() {
        let g = g();
        let mut b = TransactionBuilder::new(FlashOp::Program, g.clone());
        b.try_add(g.page_addr(0, 0, 0, 0, 1, 0)).unwrap();
        b.try_add(g.page_addr(0, 0, 1, 0, 1, 0)).unwrap();
        let txn = b.build().unwrap();
        assert_eq!(txn.parallelism(), ParallelismLevel::Pal2);
    }

    #[test]
    fn combined_is_pal3() {
        let g = g();
        let mut b = TransactionBuilder::new(FlashOp::Program, g.clone());
        for (die, plane) in [(0, 0), (0, 1), (1, 0), (1, 3)] {
            b.try_add(g.page_addr(0, 0, die, plane, 1, 0)).unwrap();
        }
        let txn = b.build().unwrap();
        assert_eq!(txn.parallelism(), ParallelismLevel::Pal3);
        assert_eq!(txn.dies(), vec![0, 1]);
        assert_eq!(txn.planes().len(), 4);
    }

    #[test]
    fn rejects_cross_chip_coalescing() {
        let g = g();
        let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
        b.try_add(g.page_addr(0, 0, 0, 0, 1, 2)).unwrap();
        let err = b.try_add(g.page_addr(0, 1, 0, 1, 1, 2)).unwrap_err();
        assert!(matches!(err, FlashError::CoalesceConflict { .. }));
        let err = b.try_add(g.page_addr(1, 0, 0, 1, 1, 2)).unwrap_err();
        assert!(matches!(err, FlashError::CoalesceConflict { .. }));
    }

    #[test]
    fn rejects_plane_conflicts() {
        let g = g();
        let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
        b.try_add(g.page_addr(0, 0, 0, 0, 1, 2)).unwrap();
        let err = b.try_add(g.page_addr(0, 0, 0, 0, 9, 5)).unwrap_err();
        assert!(matches!(err, FlashError::CoalesceConflict { .. }));
        // can_add does not mutate: adding a valid one still works.
        b.try_add(g.page_addr(0, 0, 0, 1, 9, 5)).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn strict_plane_pairing_requires_same_page_offset() {
        let g = g();
        let mut b =
            TransactionBuilder::new(FlashOp::Program, g.clone()).with_strict_plane_pairing(true);
        b.try_add(g.page_addr(0, 0, 0, 0, 1, 7)).unwrap();
        let err = b.try_add(g.page_addr(0, 0, 0, 1, 2, 8)).unwrap_err();
        assert!(matches!(err, FlashError::CoalesceConflict { .. }));
        b.try_add(g.page_addr(0, 0, 0, 1, 2, 7)).unwrap();
        // A different die is not constrained by the first die's page offset.
        b.try_add(g.page_addr(0, 0, 1, 0, 2, 3)).unwrap();
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn rejects_out_of_range_addresses() {
        let g = g();
        let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
        let bad = g.page_addr(0, 0, 9, 0, 1, 2);
        assert!(matches!(
            b.try_add(bad),
            Err(FlashError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_build_fails() {
        let g = g();
        let b = TransactionBuilder::new(FlashOp::Read, g);
        assert!(matches!(b.build(), Err(FlashError::EmptyTransaction)));
    }

    #[test]
    fn payload_accounting() {
        let g = g();
        let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
        b.try_add(g.page_addr(0, 0, 0, 0, 1, 2)).unwrap();
        b.try_add(g.page_addr(0, 0, 1, 0, 1, 2)).unwrap();
        let txn = b.build().unwrap();
        assert_eq!(txn.page_size(), 2048);
        assert_eq!(txn.payload_bytes(), 4096);

        let mut b = TransactionBuilder::new(FlashOp::Erase, g.clone());
        b.try_add(g.page_addr(0, 0, 0, 0, 1, 0)).unwrap();
        let txn = b.build().unwrap();
        assert_eq!(txn.page_size(), 0);
        assert_eq!(txn.payload_bytes(), 0);
    }

    #[test]
    fn flash_op_properties() {
        assert!(FlashOp::Read.transfers_data());
        assert!(FlashOp::Program.transfers_data());
        assert!(!FlashOp::Erase.transfers_data());
        assert_eq!(FlashOp::Read.to_string(), "read");
        assert_eq!(FlashOp::Program.to_string(), "program");
        assert_eq!(FlashOp::Erase.to_string(), "erase");
    }

    #[test]
    fn parallelism_labels_and_order() {
        assert_eq!(ParallelismLevel::NonPal.label(), "NON-PAL");
        assert_eq!(ParallelismLevel::Pal3.to_string(), "PAL3");
        assert!(ParallelismLevel::NonPal < ParallelismLevel::Pal1);
        assert!(ParallelismLevel::Pal2 < ParallelismLevel::Pal3);
        assert_eq!(ParallelismLevel::ALL.len(), 4);
    }

    #[test]
    fn request_buffers_round_trip_through_builds() {
        let g = g();
        let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
        b.try_add(g.page_addr(0, 0, 0, 0, 1, 2)).unwrap();
        b.try_add(g.page_addr(0, 0, 1, 0, 1, 2)).unwrap();
        let buffer = b.build().unwrap().into_requests();
        assert_eq!(buffer.len(), 2);
        let capacity = buffer.capacity();

        // The recycled buffer is cleared on adoption and reused without growth.
        let mut b = TransactionBuilder::new_with_buffer(FlashOp::Program, g.clone(), buffer);
        assert!(b.is_empty());
        b.try_add(g.page_addr(0, 1, 0, 1, 4, 0)).unwrap();
        let txn = b.build().unwrap();
        assert_eq!(txn.requests().len(), 1);
        assert_eq!(txn.chip(), ChipLocation { channel: 0, way: 1 });
        assert_eq!(txn.into_requests().capacity(), capacity);
    }

    #[test]
    fn builder_reports_emptiness() {
        let g = g();
        let b = TransactionBuilder::new(FlashOp::Read, g);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
