//! The discrete-event queue.
//!
//! [`EventQueue`] orders arbitrary payloads by firing time.  Events scheduled for the
//! same instant pop in the order they were scheduled (FIFO), which keeps simulations
//! deterministic without requiring payloads to be `Ord`.
//!
//! Most event sources of a simulation push in nondecreasing time: a handler
//! that reschedules itself at "now", a fixed-delay timer, a FIFO server's
//! completions.  Such a source gets a *lane*, a plain FIFO that costs O(1) per
//! push and pop.  Every other event goes to one binary heap beside the lanes.
//! A pop takes the least `(time, scheduling order)` among the lane heads and
//! the heap top, so the pop order is the one a single heap over all events
//! would give, ties included.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::time::SimTime;

/// A time-ordered queue of simulation events: FIFO lanes for sources that
/// schedule in nondecreasing time, and a heap for the rest.
///
/// The payload type `E` is completely opaque to the queue; only the firing time and
/// an internal sequence number determine ordering.
///
/// # Example
///
/// ```
/// use sprinkler_sim::{EventQueue, SimTime};
///
/// // One lane, for a source whose events are scheduled in time order.
/// let mut q = EventQueue::with_lanes(&[0], 0);
/// q.schedule(SimTime::from_nanos(10), "late");
/// q.schedule_in(0, SimTime::from_nanos(5), "early");
/// q.schedule(SimTime::from_nanos(5), "early-second");
///
/// assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert_eq!(q.peak_len(), 3);
/// ```
pub struct EventQueue<E> {
    /// FIFO lanes, each nondecreasing in time (and so in `(time, seq)`).
    lanes: Vec<VecDeque<Entry<E>>>,
    heap: BinaryHeap<Entry<E>>,
    /// The firing time and source of the least pending event, kept current
    /// by every schedule and pop so that neither scans the sources twice.
    next: Option<(SimTime, Source)>,
    seq: u64,
    now: SimTime,
    len: usize,
    peak_len: usize,
}

/// Where a pending event is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Heap,
    Lane(usize),
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest time (then lowest
        // sequence number) pops first.
        other.key().cmp(&self.key())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue with no lanes, positioned at
    /// [`SimTime::ZERO`]: every event goes to the heap.
    pub fn new() -> Self {
        Self::with_lanes(&[], 0)
    }

    /// Creates an empty event queue with one FIFO lane per entry of
    /// `lane_capacities` (lane `i` pre-sized to `lane_capacities[i]` events)
    /// and a heap pre-sized to `heap_capacity` events.
    pub fn with_lanes(lane_capacities: &[usize], heap_capacity: usize) -> Self {
        EventQueue {
            lanes: lane_capacities
                .iter()
                .map(|&capacity| VecDeque::with_capacity(capacity))
                .collect(),
            heap: BinaryHeap::with_capacity(heap_capacity),
            next: None,
            seq: 0,
            now: SimTime::ZERO,
            len: 0,
            peak_len: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`, on the heap.
    ///
    /// Scheduling an event in the past (before the last popped event) is allowed but
    /// the event will fire "now"; the queue clamps it to the current time so
    /// simulated time never runs backwards.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let entry = self.entry(at, payload);
        self.note_push(entry.at, Source::Heap);
        self.heap.push(entry);
    }

    /// Schedules `payload` to fire at absolute time `at`, at the back of FIFO
    /// lane `lane`.  Times are clamped to "now" as in [`EventQueue::schedule`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a lane of this queue.  In debug builds, also
    /// panics if `at` (after clamping) precedes the time of the event at the
    /// back of the lane: a lane holds only a source that schedules in
    /// nondecreasing time.
    pub fn schedule_in(&mut self, lane: usize, at: SimTime, payload: E) {
        let entry = self.entry(at, payload);
        let at = entry.at;
        let fifo = &mut self.lanes[lane];
        debug_assert!(
            fifo.back().is_none_or(|last| last.at <= at),
            "lane {lane} went back in time: an event at {} ns after one at {} ns",
            at.as_nanos(),
            fifo.back().map_or(0, |last| last.at.as_nanos()),
        );
        fifo.push_back(entry);
        self.note_push(at, Source::Lane(lane));
    }

    fn entry(&mut self, at: SimTime, payload: E) -> Entry<E> {
        let entry = Entry {
            at: at.max(self.now),
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        entry
    }

    /// Accounts for an event just scheduled at `at` in `source`.  Its sequence
    /// number is the largest pending, so it is the next event only if it
    /// fires strictly before the current one.
    fn note_push(&mut self, at: SimTime, source: Source) {
        if self.next.is_none_or(|(next_at, _)| at < next_at) {
            self.next = Some((at, source));
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Removes and returns the next event together with its firing time, advancing
    /// the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, source) = self.next?;
        let entry = match source {
            Source::Heap => self.heap.pop(),
            Source::Lane(lane) => self.lanes[lane].pop_front(),
        }?;
        self.now = at;
        self.len -= 1;
        self.next = self.least();
        Some((at, entry.payload))
    }

    /// The least pending `(time, seq)` among the heap top and the lane heads.
    fn least(&self) -> Option<(SimTime, Source)> {
        let mut best = self.heap.peek().map(|top| (top.key(), Source::Heap));
        for (lane, fifo) in self.lanes.iter().enumerate() {
            if let Some(head) = fifo.front() {
                if best.is_none_or(|(key, _)| head.key() < key) {
                    best = Some((head.key(), Source::Lane(lane)));
                }
            }
        }
        best.map(|((at, _), source)| (at, source))
    }

    /// Returns the firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next.map(|(at, _)| at)
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The most events that were ever pending at once.  Only scheduling adds
    /// an event, so this is the maximum over the lengths right after each
    /// schedule.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("lanes", &self.lanes.len())
            .field("now", &self.now)
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::with_lanes(&[0, 0], 0);
        for i in 0..100usize {
            match i % 3 {
                0 => q.schedule(SimTime::from_nanos(5), i),
                lane => q.schedule_in(lane - 1, SimTime::from_nanos(5), i),
            }
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::with_lanes(&[0], 0);
        q.schedule(SimTime::from_nanos(100), "a");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(100));
        assert_eq!(q.now(), SimTime::from_nanos(100));
        // Scheduling in the past clamps to now, on the heap and in a lane.
        q.schedule(SimTime::from_nanos(10), "b");
        q.schedule_in(0, SimTime::from_nanos(20), "c");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), "c")));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::with_lanes(&[0], 0);
        q.schedule(SimTime::from_nanos(10), "first");
        let (t, _) = q.pop().unwrap();
        q.schedule_in(0, t + Duration::from_nanos(5), "second");
        q.schedule(t + Duration::from_nanos(1), "third");
        assert_eq!(q.pop().unwrap().1, "third");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn debug_output_mentions_len() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 1u8);
        let s = format!("{q:?}");
        assert!(s.contains("len"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lane 0 went back in time")]
    fn a_lane_refuses_to_go_back_in_time() {
        let mut q = EventQueue::with_lanes(&[0], 0);
        q.schedule_in(0, SimTime::from_nanos(20), ());
        q.schedule_in(0, SimTime::from_nanos(10), ());
    }

    /// The single-heap queue the lanes replace, kept as the reference their
    /// pop order must reproduce.
    struct HeapReference {
        heap: BinaryHeap<Entry<u32>>,
        seq: u64,
        now: SimTime,
        peak_len: usize,
    }

    impl HeapReference {
        fn schedule(&mut self, at: SimTime, payload: u32) {
            self.heap.push(Entry {
                at: at.max(self.now),
                seq: self.seq,
                payload,
            });
            self.seq += 1;
            self.peak_len = self.peak_len.max(self.heap.len());
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            Some((entry.at, entry.payload))
        }
    }

    /// One step of a random interleaving: `op` picks a push to one of three
    /// lanes (0–2) or the heap (3–4), or a pop (5–7); `delta` moves the
    /// pushed time.
    fn replay(steps: &[(u8, u64)]) -> [(Vec<(SimTime, u32)>, usize); 2] {
        const LANES: usize = 3;
        let mut lanes = EventQueue::with_lanes(&[0; LANES], 0);
        let mut reference = HeapReference {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            peak_len: 0,
        };
        // Each lane pushes at a nondecreasing offset from its last push; a
        // lane's time never trails the clock, so clamping keeps it monotone.
        let mut lane_at = [SimTime::ZERO; LANES];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (payload, &(op, delta)) in (0u32..).zip(steps) {
            let now = lanes.now();
            match op {
                lane @ 0..=2 => {
                    let lane = lane as usize;
                    let at = lane_at[lane].max(now) + Duration::from_nanos(delta % 4);
                    lane_at[lane] = at;
                    lanes.schedule_in(lane, at, payload);
                    reference.schedule(at, payload);
                }
                3 | 4 => {
                    // Arbitrary heap times, past ones included (they clamp).
                    let at = SimTime::from_nanos((now.as_nanos() + delta).saturating_sub(6));
                    lanes.schedule(at, payload);
                    reference.schedule(at, payload);
                }
                _ => {
                    got.extend(lanes.pop());
                    want.extend(reference.pop());
                    assert_eq!(lanes.peek_time(), reference.heap.peek().map(|e| e.at));
                }
            }
        }
        got.extend(std::iter::from_fn(|| lanes.pop()));
        want.extend(std::iter::from_fn(|| reference.pop()));
        [(got, lanes.peak_len()), (want, reference.peak_len)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The laned queue pops exactly what a single heap over the same
        /// pushes pops, in the same order and at the same times, and peaks
        /// at the same length.
        #[test]
        fn lanes_pop_like_a_single_heap(
            steps in prop::collection::vec((0u8..8, 0u64..16), 0..400)
        ) {
            let [(got, got_peak), (want, want_peak)] = replay(&steps);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_peak, want_peak);
        }
    }
}
