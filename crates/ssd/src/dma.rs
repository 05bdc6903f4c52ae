//! Host interface DMA engine model.
//!
//! The NVMHC's DMA engine moves page payloads between the host buffer and the SSD's
//! internal buffer (Fig 2).  It is a single shared resource with a fixed bandwidth;
//! transfers are serialized in FIFO order.  Write data must cross it before the
//! corresponding memory requests can be delivered to the flash controllers; read
//! data crosses it after the flash transaction completes.

use sprinkler_sim::{Duration, SimTime};

/// The shared host DMA engine.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::dma::DmaEngine;
/// use sprinkler_sim::SimTime;
///
/// let mut dma = DmaEngine::new(1_000_000_000); // 1 GB/s
/// let first = dma.transfer(SimTime::ZERO, 2048);
/// let second = dma.transfer(SimTime::ZERO, 2048);
/// assert!(second > first); // transfers serialize on the engine
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaEngine {
    bytes_per_sec: u64,
    free_at: SimTime,
    total_bytes: u64,
    total_transfers: u64,
    busy: Duration,
}

impl DmaEngine {
    /// Creates a DMA engine with the given bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "DMA bandwidth must be non-zero");
        DmaEngine {
            bytes_per_sec,
            free_at: SimTime::ZERO,
            total_bytes: 0,
            total_transfers: 0,
            busy: Duration::ZERO,
        }
    }

    /// Time needed to move `bytes` across the host interface.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        let ns = bytes.saturating_mul(1_000_000_000) / self.bytes_per_sec;
        Duration::from_nanos(ns.max(1))
    }

    /// Enqueues a transfer of `bytes` requested at `now` and returns its completion
    /// time.  Transfers are serviced in request order.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.free_at);
        let duration = self.transfer_time(bytes);
        let done = start + duration;
        self.free_at = done;
        self.total_bytes += bytes;
        self.total_transfers += 1;
        self.busy += duration;
        done
    }

    /// When the engine next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total number of transfers served.
    pub fn total_transfers(&self) -> u64 {
        self.total_transfers
    }

    /// Accumulated transfer (busy) time.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let dma = DmaEngine::new(1_000_000_000);
        assert_eq!(dma.transfer_time(0), Duration::ZERO);
        assert_eq!(dma.transfer_time(1_000), Duration::from_micros(1));
        assert_eq!(dma.transfer_time(2_000), Duration::from_micros(2));
    }

    #[test]
    fn transfers_serialize_in_fifo_order() {
        let mut dma = DmaEngine::new(1_000_000_000);
        let a = dma.transfer(SimTime::ZERO, 1_000);
        let b = dma.transfer(SimTime::ZERO, 1_000);
        assert_eq!(a, SimTime::from_micros(1));
        assert_eq!(b, SimTime::from_micros(2));
        assert_eq!(dma.free_at(), b);
        assert_eq!(dma.total_bytes(), 2_000);
        assert_eq!(dma.total_transfers(), 2);
        assert_eq!(dma.busy_time(), Duration::from_micros(2));
    }

    #[test]
    fn idle_gaps_are_not_counted_busy() {
        let mut dma = DmaEngine::new(1_000_000_000);
        dma.transfer(SimTime::ZERO, 1_000);
        let later = dma.transfer(SimTime::from_micros(10), 1_000);
        assert_eq!(later, SimTime::from_micros(11));
        assert_eq!(dma.busy_time(), Duration::from_micros(2));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_is_rejected() {
        let _ = DmaEngine::new(0);
    }
}
