//! The deficit-round-robin fair-share multiplexer.
//!
//! [`TenantMux`] merges N tenant [`TraceSource`]s into one admission-ordered
//! stream.  Each tenant holds at most its head-of-line record in memory, so
//! the mux adds O(tenants) state to a replay regardless of trace length, and
//! every decision uses integer time/byte math — the admission schedule is a
//! pure function of the tenant specs and their traces.
//!
//! # Scheduling model
//!
//! The mux maintains an **admission clock** that only moves forward, to the
//! earliest instant any backlogged tenant becomes *eligible* (its head has
//! arrived and its token bucket has credit).  Tenants take turns in
//! round-robin order; a turn grants the tenant one byte quantum scaled by its
//! weight, and the tenant emits head records while its accumulated deficit
//! covers them.  A tenant that drains (or whose head is not yet eligible)
//! forfeits its deficit, so credit cannot be hoarded across idle periods —
//! that, plus the per-tenant token bucket, is the burst-isolation story.
//!
//! Emitted records carry the admission clock as their arrival (keeping the
//! downstream [`TraceSource`] nondecreasing-arrival contract) while
//! [`TenantMux::next_tagged`] also reports the original submission time, so
//! per-tenant latency can be measured from submission through completion.

use sprinkler_sim::SimTime;
use sprinkler_workloads::{TraceRecord, TraceSource};

use crate::bucket::TokenBucket;
use crate::spec::{TenantSpec, TokenBucketConfig};

/// Default per-weight-unit byte quantum granted on each round-robin turn.
pub const DEFAULT_QUANTUM_BYTES: u64 = 16 * 1024;

/// Admission-side statistics for one tenant, accumulated by the mux.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantAdmissionStats {
    /// Tenant name.
    pub name: String,
    /// Effective fair-share weight used by the scheduler.
    pub weight: u32,
    /// Records admitted into the merged stream.
    pub admitted: u64,
    /// Records admitted later than their submission time (the fair scheduler
    /// or the token bucket held them behind other work).
    pub deferrals: u64,
    /// Records whose admission was delayed by the token bucket specifically.
    pub throttles: u64,
    /// Payload bytes admitted.
    pub bytes: u64,
}

/// One record of the merged stream with its tenant attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedRecord {
    /// Index of the tenant lane the record belongs to.
    pub tenant: u32,
    /// The record, with its arrival rewritten to the admission instant.
    pub record: TraceRecord,
    /// The tenant's original submission time (pre-admission arrival).
    pub submitted: SimTime,
}

struct Lane<'a> {
    spec: TenantSpec,
    weight: u64,
    source: Box<dyn TraceSource + 'a>,
    head: Option<TraceRecord>,
    exhausted: bool,
    bucket: TokenBucket,
    deficit: u64,
    /// True when the pending head's eligibility was pushed past both the
    /// clock and its arrival by the token bucket.
    head_throttled: bool,
    stats: TenantAdmissionStats,
}

impl std::fmt::Debug for Lane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("spec", &self.spec)
            .field("head", &self.head)
            .field("deficit", &self.deficit)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Lane<'_> {
    fn peek(&mut self) {
        if self.head.is_none() && !self.exhausted {
            self.head = self.source.next_record();
            if self.head.is_none() {
                self.exhausted = true;
            }
        }
    }

    /// Earliest instant ≥ max(clock, arrival) at which the head could be
    /// admitted, and whether the token bucket is the binding constraint.
    fn eligible_at(&mut self, clock: SimTime) -> Option<SimTime> {
        let head = self.head.as_ref()?;
        let base = clock.max(head.arrival);
        let ready = self.bucket.ready_at(base, head.bytes);
        // Sticky until the head is emitted: later re-evaluations at an
        // advanced clock see the bucket as ready and must not erase the fact
        // that it was the binding constraint earlier.
        if ready > base {
            self.head_throttled = true;
        }
        Some(ready)
    }
}

/// Deficit-round-robin fair-queueing multiplexer over N tenant trace sources.
///
/// Implements [`TraceSource`], so a mux can feed anything a single trace can —
/// including the striped array frontend.  Per-tenant attribution (the lane
/// index and original submission time) is only available through
/// [`TenantMux::next_tagged`]; the plain [`TraceSource::next_record`] view
/// drops it.
pub struct TenantMux<'a> {
    label: String,
    lanes: Vec<Lane<'a>>,
    quantum_bytes: u64,
    clock: SimTime,
    cursor: usize,
    granted: bool,
    next_id: u64,
    footprint: u64,
}

impl std::fmt::Debug for TenantMux<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantMux")
            .field("label", &self.label)
            .field("lanes", &self.lanes.len())
            .field("clock", &self.clock)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

impl<'a> TenantMux<'a> {
    /// Builds a mux over `(spec, source)` pairs with the default quantum.
    ///
    /// Sources must honour the [`TraceSource`] contract individually; their
    /// footprints should already be disjoint slices (see
    /// `sprinkler_workloads::SlicedSource`) when tenants share one device.
    pub fn new(tenants: Vec<(TenantSpec, Box<dyn TraceSource + 'a>)>) -> Self {
        Self::with_quantum(tenants, DEFAULT_QUANTUM_BYTES)
    }

    /// Like [`TenantMux::new`] with an explicit per-weight-unit byte quantum
    /// (clamped to ≥ 1; smaller quanta interleave more finely at the cost of
    /// more turns).
    pub fn with_quantum(
        tenants: Vec<(TenantSpec, Box<dyn TraceSource + 'a>)>,
        quantum_bytes: u64,
    ) -> Self {
        let footprint = tenants
            .iter()
            .map(|(_, source)| source.footprint_bytes())
            .max()
            .unwrap_or(0);
        let lanes = tenants
            .into_iter()
            .map(|(spec, source)| {
                let weight = spec.effective_weight();
                let bucket =
                    TokenBucket::new(spec.bucket.unwrap_or_else(TokenBucketConfig::unlimited));
                Lane {
                    stats: TenantAdmissionStats {
                        name: spec.name.clone(),
                        weight,
                        ..TenantAdmissionStats::default()
                    },
                    weight: weight as u64,
                    source,
                    head: None,
                    exhausted: false,
                    bucket,
                    deficit: 0,
                    head_throttled: false,
                    spec,
                }
            })
            .collect();
        TenantMux {
            label: "tenant-mux".to_string(),
            lanes,
            quantum_bytes: quantum_bytes.max(1),
            clock: SimTime::ZERO,
            cursor: 0,
            granted: false,
            next_id: 0,
            footprint,
        }
    }

    /// Number of tenant lanes.
    pub fn tenant_count(&self) -> usize {
        self.lanes.len()
    }

    /// The tenant specs, in lane order.
    pub fn specs(&self) -> Vec<TenantSpec> {
        self.lanes.iter().map(|lane| lane.spec.clone()).collect()
    }

    /// Per-tenant admission statistics accumulated so far, in lane order.
    pub fn admission_stats(&self) -> Vec<TenantAdmissionStats> {
        self.lanes.iter().map(|lane| lane.stats.clone()).collect()
    }

    fn advance_turn(&mut self) {
        self.cursor = (self.cursor + 1) % self.lanes.len().max(1);
        self.granted = false;
    }

    /// Pulls the next admitted record with tenant attribution, or `None` when
    /// every tenant is exhausted.
    pub fn next_tagged(&mut self) -> Option<TaggedRecord> {
        if self.lanes.is_empty() {
            return None;
        }
        for lane in &mut self.lanes {
            lane.peek();
        }
        // Advance the admission clock to the earliest eligible head, so the
        // round-robin scan below always finds at least one eligible lane.
        let clock = self.clock;
        let min_eligible = self
            .lanes
            .iter_mut()
            .filter_map(|lane| lane.eligible_at(clock))
            .min()?;
        self.clock = self.clock.max(min_eligible);

        // Deficit round-robin: each turn grants `quantum × weight` once, the
        // lane emits while deficit covers its eligible head, and ineligible
        // or drained lanes forfeit their deficit at turn end.  Terminates:
        // at least one lane is eligible at the clock and gains quantum every
        // full cycle, so its deficit eventually covers its head.
        loop {
            let clock = self.clock;
            let i = self.cursor;
            let quantum = self.quantum_bytes;
            let lane = &mut self.lanes[i];
            let ready = lane.eligible_at(clock);
            if let (Some(head), Some(ready)) = (lane.head, ready) {
                if ready > clock {
                    // Pending but not yet eligible: forfeit deficit, next turn.
                    lane.deficit = 0;
                    self.advance_turn();
                    continue;
                }
                if !self.granted {
                    lane.deficit = lane.deficit.saturating_add(quantum * lane.weight);
                    self.granted = true;
                }
                if lane.deficit >= head.bytes {
                    lane.deficit -= head.bytes;
                    lane.head = None;
                    lane.bucket.charge(clock, head.bytes);
                    let submitted = head.arrival;
                    lane.stats.admitted += 1;
                    lane.stats.bytes += head.bytes;
                    if clock > submitted {
                        lane.stats.deferrals += 1;
                    }
                    if lane.head_throttled {
                        lane.stats.throttles += 1;
                    }
                    lane.head_throttled = false;
                    let mut record = head;
                    record.id = self.next_id;
                    record.arrival = clock;
                    self.next_id += 1;
                    return Some(TaggedRecord {
                        tenant: i as u32,
                        record,
                        submitted,
                    });
                }
                // Insufficient deficit for the head: the turn ends but the
                // deficit persists, so large records still make progress.
                self.advance_turn();
            } else {
                // Drained lanes forfeit their deficit.
                lane.deficit = 0;
                self.advance_turn();
            }
        }
    }
}

impl TraceSource for TenantMux<'_> {
    fn name(&self) -> &str {
        &self.label
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        self.next_tagged().map(|tagged| tagged.record)
    }
}

/// Jain's fairness index over non-negative shares: 1.0 means perfectly even,
/// `1/n` means one share holds everything.  Empty or all-zero inputs read as
/// perfectly fair.
pub fn jain_fairness_index(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|s| s * s).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PriorityClass;
    use sprinkler_workloads::SyntheticSpec;

    fn tenant(name: &str, class: PriorityClass) -> TenantSpec {
        TenantSpec::new(name, class)
    }

    fn stream(seed: u64, count: u64) -> Box<dyn TraceSource + 'static> {
        Box::new(
            SyntheticSpec::new("s")
                .with_footprint_mb(8)
                .with_mean_sizes_kb(8.0, 8.0)
                .with_bursts(4, 50.0)
                .stream(count, seed),
        )
    }

    #[test]
    fn merged_stream_is_nondecreasing_and_complete() {
        let mut mux = TenantMux::new(vec![
            (tenant("a", PriorityClass::Interactive), stream(1, 200)),
            (tenant("b", PriorityClass::Streaming), stream(2, 200)),
            (tenant("c", PriorityClass::Batch), stream(3, 200)),
        ]);
        let mut last = SimTime::ZERO;
        let mut count = 0;
        let mut per_tenant = [0u64; 3];
        while let Some(tagged) = mux.next_tagged() {
            assert!(tagged.record.arrival >= last, "admission order regressed");
            assert!(tagged.record.arrival >= tagged.submitted);
            last = tagged.record.arrival;
            per_tenant[tagged.tenant as usize] += 1;
            count += 1;
        }
        assert_eq!(count, 600, "no record lost or duplicated");
        assert_eq!(per_tenant, [200, 200, 200]);
        let stats = mux.admission_stats();
        assert_eq!(stats.iter().map(|s| s.admitted).sum::<u64>(), 600);
    }

    #[test]
    fn record_ids_are_globally_unique_and_dense() {
        let mut mux = TenantMux::new(vec![
            (tenant("a", PriorityClass::Interactive), stream(7, 50)),
            (tenant("b", PriorityClass::Batch), stream(8, 50)),
        ]);
        let mut next_expected = 0;
        while let Some(record) = mux.next_record() {
            assert_eq!(record.id, next_expected);
            next_expected += 1;
        }
        assert_eq!(next_expected, 100);
    }

    #[test]
    fn token_bucket_throttles_a_storming_tenant() {
        // The storm tenant submits everything at t=0; a tight bucket must
        // spread its admissions over time and count throttles.
        let spec = tenant("storm", PriorityClass::Batch).with_bucket(TokenBucketConfig::new(
            8 * 1024 * 1024, // 8 MB/s
            64 * 1024,       // 64 KB burst
        ));
        let storm = SyntheticSpec::new("storm")
            .with_footprint_mb(8)
            .with_mean_sizes_kb(64.0, 64.0)
            .with_bursts(1000, 1.0)
            .stream(300, 5);
        let mut mux = TenantMux::new(vec![(spec, Box::new(storm) as Box<dyn TraceSource>)]);
        let mut last = SimTime::ZERO;
        while let Some(tagged) = mux.next_tagged() {
            last = tagged.record.arrival;
        }
        let stats = mux.admission_stats().remove(0);
        assert_eq!(stats.admitted, 300);
        assert!(stats.throttles > 0, "bucket never engaged");
        assert!(
            last > SimTime::from_millis(1),
            "admissions were not spread out: last at {last:?}"
        );
    }

    /// Regression: a bucket with a rate but zero capacity never admitted a
    /// record, so `next_tagged` never returned.
    #[test]
    fn a_zero_capacity_bucket_admits_every_record() {
        let spec =
            tenant("tight", PriorityClass::Batch).with_bucket(TokenBucketConfig::new(1 << 20, 0));
        let mut mux = TenantMux::new(vec![(spec, stream(9, 20))]);
        let mut last = SimTime::ZERO;
        while let Some(tagged) = mux.next_tagged() {
            assert!(tagged.record.arrival >= last);
            last = tagged.record.arrival;
        }
        let stats = mux.admission_stats().remove(0);
        assert_eq!(stats.admitted, 20);
        assert!(stats.throttles > 0, "a one-byte bucket throttles");
    }

    #[test]
    fn deterministic_replay_yields_identical_admission_schedules() {
        let build = || {
            TenantMux::new(vec![
                (tenant("a", PriorityClass::Interactive), stream(11, 120)),
                (
                    tenant("b", PriorityClass::Batch)
                        .with_bucket(TokenBucketConfig::new(16 * 1024 * 1024, 128 * 1024)),
                    stream(12, 120),
                ),
            ])
        };
        let mut first = build();
        let mut second = build();
        loop {
            let a = first.next_tagged();
            let b = second.next_tagged();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(first.admission_stats(), second.admission_stats());
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain_fairness_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness_index(&[1.0, 0.0, 0.0]);
        assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
        assert!((jain_fairness_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }
}
