//! Die-level state: an independent memory island behind the shared chip interface.

use sprinkler_sim::{Duration, SimTime};

use crate::plane::Plane;

/// A flash die: holds its planes and accounts its own busy (R/B asserted) time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Die {
    planes: Vec<Plane>,
    busy_total: Duration,
    operations: u64,
    ready_at: SimTime,
}

impl Die {
    /// Creates an idle die with `planes` planes.
    pub fn new(planes: usize) -> Self {
        Die {
            planes: (0..planes).map(|_| Plane::new()).collect(),
            busy_total: Duration::ZERO,
            operations: 0,
            ready_at: SimTime::ZERO,
        }
    }

    /// Number of planes in this die.
    pub fn plane_count(&self) -> usize {
        self.planes.len()
    }

    /// Read-only view of a plane.
    pub fn plane(&self, index: usize) -> &Plane {
        &self.planes[index]
    }

    /// Records activity of `plane_indices` planes of this die over the cell window
    /// `[start, end]`.  The die's R/B signal covers the whole window regardless of
    /// how many of its planes participate.
    pub fn record_activity(&mut self, plane_indices: &[u32], start: SimTime, end: SimTime) {
        self.record_window(start, end);
        for &p in plane_indices {
            self.record_plane(p, start, end);
        }
    }

    /// Records one die-level operation window (R/B asserted over `[start, end]`)
    /// without touching plane accounting.  Together with
    /// [`Die::record_plane`] this lets callers that already iterate their
    /// requests record activity without collecting a plane-index slice first.
    pub fn record_window(&mut self, start: SimTime, end: SimTime) {
        self.busy_total += end.saturating_since(start);
        self.operations += 1;
        self.ready_at = self.ready_at.max(end);
    }

    /// Records activity of a single plane over `[start, end]`.
    pub fn record_plane(&mut self, plane: u32, start: SimTime, end: SimTime) {
        self.planes[plane as usize].record_activity(start, end);
    }

    /// Total time the die's R/B signal was asserted.
    pub fn busy_time(&self) -> Duration {
        self.busy_total
    }

    /// Number of transactions that touched this die.
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// When this die most recently became ready.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// Sum of plane busy time across this die's planes.
    pub fn plane_busy_time(&self) -> Duration {
        self.planes.iter().map(Plane::busy_time).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_die_has_planes() {
        let d = Die::new(4);
        assert_eq!(d.plane_count(), 4);
        assert_eq!(d.busy_time(), Duration::ZERO);
        assert_eq!(d.operations(), 0);
        assert_eq!(d.ready_at(), SimTime::ZERO);
    }

    #[test]
    fn activity_marks_only_selected_planes() {
        let mut d = Die::new(4);
        d.record_activity(&[0, 2], SimTime::from_nanos(0), SimTime::from_nanos(100));
        assert_eq!(d.busy_time(), Duration::from_nanos(100));
        assert_eq!(d.plane(0).busy_time(), Duration::from_nanos(100));
        assert_eq!(d.plane(1).busy_time(), Duration::ZERO);
        assert_eq!(d.plane(2).busy_time(), Duration::from_nanos(100));
        assert_eq!(d.plane_busy_time(), Duration::from_nanos(200));
        assert_eq!(d.ready_at(), SimTime::from_nanos(100));
        assert_eq!(d.operations(), 1);
    }

    #[test]
    fn ready_at_never_goes_backwards() {
        let mut d = Die::new(2);
        d.record_activity(&[0], SimTime::from_nanos(0), SimTime::from_nanos(500));
        d.record_activity(&[1], SimTime::from_nanos(100), SimTime::from_nanos(200));
        assert_eq!(d.ready_at(), SimTime::from_nanos(500));
    }
}
