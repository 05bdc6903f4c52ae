//! Host I/O requests, device-queue tags, and page-level memory requests.
//!
//! Following Fig 3 of the paper, a host I/O request is admitted into the
//! device-level queue as a *tag*; the NVMHC later composes it into page-sized
//! *memory requests* (the atomic flash I/O unit) which are committed to the flash
//! controllers and eventually coalesced into flash transactions.

use std::fmt;

use sprinkler_flash::{Lpn, PhysicalPageAddr};
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

/// Identifier of a device-queue tag (one admitted host I/O request).
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
    /// Number of pages touched (always ≥ 1).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Flat chip index.
    pub chip: usize,
    /// Channel of the chip.
    pub channel: u32,
    /// Way (position within the channel).
    pub way: u32,
    /// Die within the chip.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
}

impl Placement {
    /// Builds a placement from a fully resolved physical page address.
    pub fn from_addr(addr: PhysicalPageAddr, chips_per_channel: usize) -> Self {
        Placement {
            chip: addr.channel as usize * chips_per_channel + addr.way as usize,
            channel: addr.channel,
            way: addr.way,
            die: addr.die,
            plane: addr.plane,
        }
    }
}

/// The lifecycle of a page-level memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemReqPhase {
    /// Committed by the scheduler; waiting for host data movement (writes only).
    AwaitingData,
    /// Delivered to the flash controller; waiting to join a transaction.
    Pending,
    /// Part of an executing flash transaction.
    Executing,
    /// Flash work done; waiting for the read data to be returned to the host.
    Returning,
    /// Fully complete.
    Complete,
}

/// A page-level memory request: the unit the scheduler commits and the flash
/// controller coalesces into transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryRequest {
    /// Identifier.
    pub id: MemReqId,
    /// The tag (host I/O) this request belongs to, `None` for internal GC traffic.
    pub tag: Option<TagId>,
    /// Page offset within the host I/O request (0 for GC traffic).
    pub page_index: u32,
    /// Logical page addressed.
    pub lpn: Lpn,
    /// Direction of the flash operation (GC reads/writes use the same enum).
    pub direction: Direction,
    /// Physical placement preview.
    pub placement: Placement,
    /// Current lifecycle phase.
    pub phase: MemReqPhase,
    /// When the scheduler committed the request.
    pub committed_at: SimTime,
    /// When the request reached the flash controller.
    pub delivered_at: SimTime,
    /// When the request fully completed.
    pub completed_at: SimTime,
    /// True for internal garbage-collection traffic.
    pub gc: bool,
}

impl MemoryRequest {
    /// Creates a freshly committed host memory request.
    pub fn new_host(
        id: MemReqId,
        tag: TagId,
        page_index: u32,
        lpn: Lpn,
        direction: Direction,
        placement: Placement,
        committed_at: SimTime,
    ) -> Self {
        MemoryRequest {
            id,
            tag: Some(tag),
            page_index,
            lpn,
            direction,
            placement,
            phase: if direction.is_write() {
                MemReqPhase::AwaitingData
            } else {
                MemReqPhase::Pending
            },
            committed_at,
            delivered_at: committed_at,
            completed_at: SimTime::MAX,
            gc: false,
        }
    }

    /// Creates an internal GC memory request (never belongs to a tag and is
    /// delivered to the controller immediately).
    pub fn new_gc(
        id: MemReqId,
        lpn: Lpn,
        direction: Direction,
        placement: Placement,
        at: SimTime,
    ) -> Self {
        MemoryRequest {
            id,
            tag: None,
            page_index: 0,
            lpn,
            direction,
            placement,
            phase: MemReqPhase::Pending,
            committed_at: at,
            delivered_at: at,
            completed_at: SimTime::MAX,
            gc: true,
        }
    }

    /// True once the request has reached its terminal phase.
    pub fn is_complete(&self) -> bool {
        self.phase == MemReqPhase::Complete
    }
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

    #[test]
    fn placement_from_addr() {
        let addr = PhysicalPageAddr {
            channel: 2,
            way: 3,
            die: 1,
            plane: 0,
            block: 9,
            page: 4,
        };
        let p = Placement::from_addr(addr, 8);
        assert_eq!(p.chip, 19);
        assert_eq!(p.channel, 2);
        assert_eq!(p.way, 3);
        assert_eq!(p.die, 1);
        assert_eq!(p.plane, 0);
    }

    #[test]
    fn write_requests_start_awaiting_data() {
        let placement = Placement {
            chip: 0,
            channel: 0,
            way: 0,
            die: 0,
            plane: 0,
        };
        let w = MemoryRequest::new_host(
            MemReqId(1),
            TagId(1),
            0,
            Lpn::new(5),
            Direction::Write,
            placement,
            SimTime::ZERO,
        );
        assert_eq!(w.phase, MemReqPhase::AwaitingData);
        let r = MemoryRequest::new_host(
            MemReqId(2),
            TagId(1),
            1,
            Lpn::new(6),
            Direction::Read,
            placement,
            SimTime::ZERO,
        );
        assert_eq!(r.phase, MemReqPhase::Pending);
        assert!(!r.is_complete());
        assert!(!r.gc);
    }

    #[test]
    fn gc_requests_have_no_tag() {
        let placement = Placement {
            chip: 1,
            channel: 0,
            way: 1,
            die: 0,
            plane: 0,
        };
        let g = MemoryRequest::new_gc(
            MemReqId(7),
            Lpn::new(0),
            Direction::Read,
            placement,
            SimTime::from_micros(3),
        );
        assert!(g.gc);
        assert_eq!(g.tag, None);
        assert_eq!(g.phase, MemReqPhase::Pending);
        assert_eq!(g.committed_at, SimTime::from_micros(3));
    }
}
