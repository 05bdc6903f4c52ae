//! Plane-level state: the memory array sharing wordline and voltage drivers.

use sprinkler_sim::{Duration, SimTime};

/// A single flash plane.
///
/// A plane can hold one page in its data register at a time; the chip-level state
/// machine ([`crate::Chip`]) enforces that only one transaction occupies the chip,
/// so the plane only needs to account its own busy time (used for the intra-chip
/// idleness metric) and how many operations it has served.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plane {
    busy_total: Duration,
    operations: u64,
    last_active_end: SimTime,
}

impl Plane {
    /// Creates an idle plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that this plane was active for the cell window `[start, end]`.
    pub fn record_activity(&mut self, start: SimTime, end: SimTime) {
        self.busy_total += end.saturating_since(start);
        self.operations += 1;
        self.last_active_end = self.last_active_end.max(end);
    }

    /// Total time this plane spent executing cell operations.
    pub fn busy_time(&self) -> Duration {
        self.busy_total
    }

    /// Number of page/block operations served.
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// The end of the most recent activity window.
    pub fn last_active_end(&self) -> SimTime {
        self.last_active_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_plane_is_idle() {
        let p = Plane::new();
        assert_eq!(p.busy_time(), Duration::ZERO);
        assert_eq!(p.operations(), 0);
        assert_eq!(p.last_active_end(), SimTime::ZERO);
    }

    #[test]
    fn activity_accumulates() {
        let mut p = Plane::new();
        p.record_activity(SimTime::from_nanos(100), SimTime::from_nanos(300));
        p.record_activity(SimTime::from_nanos(500), SimTime::from_nanos(600));
        assert_eq!(p.busy_time(), Duration::from_nanos(300));
        assert_eq!(p.operations(), 2);
        assert_eq!(p.last_active_end(), SimTime::from_nanos(600));
    }

    #[test]
    fn reversed_window_contributes_nothing() {
        let mut p = Plane::new();
        p.record_activity(SimTime::from_nanos(300), SimTime::from_nanos(100));
        assert_eq!(p.busy_time(), Duration::ZERO);
        assert_eq!(p.operations(), 1);
    }
}
