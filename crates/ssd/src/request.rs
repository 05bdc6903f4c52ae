//! Host I/O requests, device-queue tags, and memory-request identifiers.
//!
//! Following Fig 3 of the paper, a host I/O request is admitted into the
//! device-level queue as a *tag*; the NVMHC later composes it into page-sized
//! *memory requests* (the atomic flash I/O unit) which are committed to the flash
//! controllers and eventually coalesced into flash transactions.  An in-flight
//! memory request is one record in the SSD's one arena of in-flight
//! memory-request records, named by its [`MemReqId`].

use std::fmt;

use sprinkler_flash::Lpn;
use sprinkler_sim::SimTime;

/// Direction of a host request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host reads data from the SSD.
    Read,
    /// Host writes data to the SSD.
    Write,
}

impl Direction {
    /// True for reads.
    pub fn is_read(self) -> bool {
        matches!(self, Direction::Read)
    }

    /// True for writes.
    pub fn is_write(self) -> bool {
        matches!(self, Direction::Write)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Read => f.write_str("read"),
            Direction::Write => f.write_str("write"),
        }
    }
}

/// Identifier of a device-queue tag (one admitted host I/O request): the
/// index of the queue slot the request occupies, as an NCQ tag names its
/// queue entry.
///
/// A tag is valid from [`DeviceQueue::admit`] until [`DeviceQueue::retire`];
/// after that its number names the next request admitted into the same slot.
/// `Ssd` holds no tag past retirement, since a tag retires only after its
/// last memory request's record is freed.  Arrival order is the admission
/// sequence ([`TagState::seq`]), never the tag value.
///
/// [`DeviceQueue::admit`]: crate::queue::DeviceQueue::admit
/// [`DeviceQueue::retire`]: crate::queue::DeviceQueue::retire
/// [`TagState::seq`]: crate::queue::TagState::seq
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TagId(pub u64);

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// Identifier of a page-level memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemReqId(pub u64);

impl fmt::Display for MemReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mr{}", self.0)
    }
}

/// A host-issued I/O request, before admission into the device queue.
///
/// Sizes and offsets are expressed in pages (the atomic flash unit); the workload
/// layer converts byte-level traces into page units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRequest {
    /// Monotonic request identifier assigned by the workload.
    pub id: u64,
    /// Arrival time at the SSD.
    pub arrival: SimTime,
    /// Read or write.
    pub direction: Direction,
    /// First logical page addressed.
    pub start_lpn: Lpn,
    /// Number of pages touched: at least 1.  [`HostRequest::new`] clamps
    /// to 1, and `Ssd` refuses a request built with 0 at ingestion.
    pub pages: u32,
    /// Force-unit-access: when set, the request must not be reordered (hazard
    /// control, §4.4).
    pub fua: bool,
    /// Tenant lane index assigned by the multi-tenant admission front
    /// (0 when the run has a single anonymous tenant).
    pub tenant: u32,
    /// Time the request was submitted by its tenant, before fair-share
    /// admission delay.  Equal to `arrival` unless an admission layer deferred
    /// the request; per-tenant latency is measured from this point so queueing
    /// imposed by the fair scheduler counts against the tenant's SLO.
    pub submitted: SimTime,
}

impl HostRequest {
    /// Creates a host request.
    pub fn new(
        id: u64,
        arrival: SimTime,
        direction: Direction,
        start_lpn: Lpn,
        pages: u32,
    ) -> Self {
        HostRequest {
            id,
            arrival,
            direction,
            start_lpn,
            pages: pages.max(1),
            fua: false,
            tenant: 0,
            submitted: arrival,
        }
    }

    /// Marks the request force-unit-access.
    pub fn with_fua(mut self, fua: bool) -> Self {
        self.fua = fua;
        self
    }

    /// Attributes the request to a tenant lane and records its original
    /// submission time (pre-admission-delay arrival).
    pub fn with_tenant(mut self, tenant: u32, submitted: SimTime) -> Self {
        self.tenant = tenant;
        self.submitted = submitted;
        self
    }

    /// The logical page addressed by page offset `index` within the request.
    pub fn lpn_at(&self, index: u32) -> Lpn {
        self.start_lpn.offset(index as u64)
    }

    /// Total bytes transferred, given the page size.
    pub fn bytes(&self, page_size: usize) -> u64 {
        self.pages as u64 * page_size as u64
    }
}

/// The physical placement (preview) of one page of an I/O request, computed by the
/// FTL preprocessor at admission time (Algorithm 1's `core.preprocess(tag)`).
///
/// The flat chip index encodes the chip's channel and way
/// ([`FlashGeometry::chip_location`](sprinkler_flash::FlashGeometry::chip_location)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Flat chip index.
    pub chip: usize,
    /// Die within the chip.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_predicates() {
        assert!(Direction::Read.is_read());
        assert!(!Direction::Read.is_write());
        assert!(Direction::Write.is_write());
        assert_eq!(Direction::Read.to_string(), "read");
        assert_eq!(Direction::Write.to_string(), "write");
    }

    #[test]
    fn ids_display() {
        assert_eq!(TagId(3).to_string(), "tag3");
        assert_eq!(MemReqId(9).to_string(), "mr9");
        assert!(TagId(1) < TagId(2));
    }

    #[test]
    fn host_request_page_math() {
        let r = HostRequest::new(1, SimTime::ZERO, Direction::Read, Lpn::new(100), 4);
        assert_eq!(r.lpn_at(0), Lpn::new(100));
        assert_eq!(r.lpn_at(3), Lpn::new(103));
        assert_eq!(r.bytes(2048), 8192);
        assert!(!r.fua);
        assert!(r.with_fua(true).fua);
    }

    #[test]
    fn host_request_clamps_zero_pages() {
        let r = HostRequest::new(1, SimTime::ZERO, Direction::Write, Lpn::new(0), 0);
        assert_eq!(r.pages, 1);
    }
}
