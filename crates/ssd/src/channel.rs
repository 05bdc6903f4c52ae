//! Channel bus model.
//!
//! A channel is the shared data path between a flash controller and the chips
//! attached to it.  Only one chip can drive the bus at a time: the issue phase of a
//! transaction (commands, addresses, program payload) and the completion phase
//! (read payload, status) both occupy the channel, while the cell phase leaves it
//! free — that gap is what channel pipelining exploits.  The channel also accounts
//! *contention*: time a transaction had to wait for the bus, which feeds the
//! execution-time breakdown of Fig 13.

use sprinkler_sim::{Duration, SimTime};

/// A single channel bus and its occupancy accounting.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::channel::Channel;
/// use sprinkler_sim::{Duration, SimTime};
///
/// let mut ch = Channel::new(0);
/// let grant = ch.acquire(SimTime::ZERO, Duration::from_micros(10));
/// assert_eq!(grant.start, SimTime::ZERO);
/// let grant2 = ch.acquire(SimTime::from_micros(4), Duration::from_micros(2));
/// assert_eq!(grant2.start, SimTime::from_micros(10)); // waited for the bus
/// assert_eq!(grant2.waited, Duration::from_micros(6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    index: usize,
    free_at: SimTime,
    busy: Duration,
    contention: Duration,
    acquisitions: u64,
}

/// The result of acquiring the channel for a bus phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// When the bus phase actually starts.
    pub start: SimTime,
    /// When the bus phase ends and the channel becomes free again.
    pub end: SimTime,
    /// How long the requester waited for the bus (contention).
    pub waited: Duration,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(index: usize) -> Self {
        Channel {
            index,
            free_at: SimTime::ZERO,
            busy: Duration::ZERO,
            contention: Duration::ZERO,
            acquisitions: 0,
        }
    }

    /// The channel's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// When the channel next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Acquires the channel at or after `now` for `duration`, returning the grant.
    /// The wait (if any) is accounted as bus contention.
    pub fn acquire(&mut self, now: SimTime, duration: Duration) -> BusGrant {
        let start = now.max(self.free_at);
        let waited = start.saturating_since(now);
        let end = start + duration;
        self.free_at = end;
        self.busy += duration;
        self.contention += waited;
        self.acquisitions += 1;
        BusGrant { start, end, waited }
    }

    /// Total time the bus spent transferring commands/addresses/data.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Total time requesters spent waiting for the bus.
    pub fn contention_time(&self) -> Duration {
        self.contention
    }

    /// Number of bus phases granted.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_channel_is_free() {
        let ch = Channel::new(3);
        assert_eq!(ch.index(), 3);
        assert_eq!(ch.free_at(), SimTime::ZERO);
        assert_eq!(ch.busy_time(), Duration::ZERO);
        assert_eq!(ch.contention_time(), Duration::ZERO);
        assert_eq!(ch.acquisitions(), 0);
    }

    #[test]
    fn back_to_back_acquisitions_serialize() {
        let mut ch = Channel::new(0);
        let a = ch.acquire(SimTime::ZERO, Duration::from_micros(5));
        let b = ch.acquire(SimTime::ZERO, Duration::from_micros(5));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, SimTime::from_micros(5));
        assert_eq!(a.waited, Duration::ZERO);
        assert_eq!(b.start, SimTime::from_micros(5));
        assert_eq!(b.end, SimTime::from_micros(10));
        assert_eq!(b.waited, Duration::from_micros(5));
        assert_eq!(ch.busy_time(), Duration::from_micros(10));
        assert_eq!(ch.contention_time(), Duration::from_micros(5));
        assert_eq!(ch.acquisitions(), 2);
    }

    #[test]
    fn idle_gap_has_no_contention() {
        let mut ch = Channel::new(0);
        ch.acquire(SimTime::ZERO, Duration::from_micros(1));
        let g = ch.acquire(SimTime::from_micros(10), Duration::from_micros(1));
        assert_eq!(g.waited, Duration::ZERO);
        assert_eq!(g.start, SimTime::from_micros(10));
        assert_eq!(ch.contention_time(), Duration::ZERO);
    }

    #[test]
    fn zero_duration_acquisition_is_allowed() {
        let mut ch = Channel::new(0);
        let g = ch.acquire(SimTime::from_micros(2), Duration::ZERO);
        assert_eq!(g.start, g.end);
        assert_eq!(ch.busy_time(), Duration::ZERO);
    }
}
