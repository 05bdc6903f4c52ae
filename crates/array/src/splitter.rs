//! Routing one trace into per-device shares.
//!
//! [`StripeRouter`] takes the records of one time-ordered trace, in trace
//! order, and splits each at stripe boundaries through the array's
//! [`PlacementMap`] into per-device fragments.  Each device's fragments are
//! renumbered 0, 1, 2, … and carry their record's arrival time, so when the
//! trace's arrivals are nondecreasing every device's share is itself a valid
//! request stream: nondecreasing arrivals, dense ids, fragments within the
//! device's local address space.
//!
//! On a rebalancing array the router also feeds every routed stripe's bytes
//! into a [`Rebalancer`]'s heat EWMA and, at window boundaries, applies the
//! migrations it selects: the placement table is remapped and the copy cost is
//! charged as injected traffic — a stripe-sized read on the source device and
//! a stripe-sized write on the target, stamped with the routed record's
//! arrival so per-device arrivals stay nondecreasing.  Routing is a plain
//! function of the trace, so routing and migration decisions — and with them
//! the replay metrics — are exactly reproducible.

use sprinkler_workloads::{TraceOp, TraceRecord};

use crate::placement::{Fragment, Migration, PlacementMap, PlacementStats, Rebalancer};

/// Splits a trace's records, in trace order, into per-device fragments (see
/// the module docs).
#[derive(Debug)]
pub struct StripeRouter {
    /// Where each stripe lives; it tracks no stripe on a static array.
    placement: PlacementMap,
    /// The heat tracker that remaps `placement`, on rebalancing arrays only.
    rebalancer: Option<Rebalancer>,
    /// Reusable scratch for each window's selected migrations.
    migrations: Vec<Migration>,
    /// Next per-device fragment id; each device's share is numbered 0, 1, 2,
    /// … so device replays see dense, monotonic request ids.
    next_ids: Vec<u64>,
    /// Reusable fragment scratch: one split per record, no per-record
    /// allocation.
    scratch: Vec<Fragment>,
}

impl StripeRouter {
    /// Routes over `placement.devices()` devices through `placement`, which
    /// must track the trace's footprint when a `rebalancer` remaps it; the
    /// rebalancer's selected migrations remap the table and inject their copy
    /// traffic.
    pub fn new(placement: PlacementMap, rebalancer: Option<Rebalancer>) -> Self {
        StripeRouter {
            next_ids: vec![0; placement.devices()],
            placement,
            rebalancer,
            migrations: Vec::new(),
            scratch: Vec::with_capacity(4),
        }
    }

    /// Routes one record: clears `out` and fills it with `(device, fragment)`
    /// pairs, the record's fragments in global address order followed, on
    /// rebalancing arrays at a window boundary, by the copy traffic of the
    /// migrations applied there.
    pub fn route(&mut self, record: &TraceRecord, out: &mut Vec<(usize, TraceRecord)>) {
        out.clear();
        let StripeRouter {
            placement,
            rebalancer,
            migrations,
            next_ids,
            scratch,
        } = self;
        let stripe_bytes = placement.stripe_bytes();
        if let Some(rebalancer) = rebalancer.as_mut() {
            // Heat first: walk the record's stripes and charge each with its
            // share of the bytes, against the *current* placement.
            let mut offset = record.offset;
            let mut remaining = record.bytes.max(1);
            while remaining > 0 {
                let take = (stripe_bytes - offset % stripe_bytes).min(remaining);
                rebalancer.note(offset / stripe_bytes, take, placement);
                offset += take;
                remaining -= take;
            }
        }
        let mut emit = |device: usize, op, offset, bytes| {
            let id = next_ids[device];
            next_ids[device] += 1;
            out.push((
                device,
                TraceRecord {
                    id,
                    arrival: record.arrival,
                    op,
                    offset,
                    bytes,
                },
            ));
        };
        placement.split_into(record, scratch);
        for fragment in scratch.iter() {
            emit(fragment.device, record.op, fragment.offset, fragment.bytes);
        }
        let Some(rebalancer) = rebalancer else {
            return;
        };
        rebalancer.record_routed(placement, migrations);
        for migration in migrations.iter() {
            // Charge the copy: a stripe-sized read where the stripe was, a
            // stripe-sized write where it now lives.
            emit(
                migration.from_device,
                TraceOp::Read,
                migration.from_slot * stripe_bytes,
                stripe_bytes,
            );
            emit(
                migration.to_device,
                TraceOp::Write,
                migration.to_slot * stripe_bytes,
                stripe_bytes,
            );
        }
    }

    /// The placement layer's counters so far: zero on static arrays.
    pub fn placement_stats(&self) -> PlacementStats {
        self.rebalancer
            .as_ref()
            .map(|rebalancer| rebalancer.stats)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::RebalanceConfig;

    /// A static array's router: `devices` devices of `stripe_bytes` stripes,
    /// no tracked stripe, no rebalancer.
    fn fixed(devices: usize, stripe_bytes: u64) -> StripeRouter {
        let placement =
            PlacementMap::round_robin(devices, stripe_bytes, 0, vec![u64::MAX; devices]);
        StripeRouter::new(placement, None)
    }
    use sprinkler_sim::SimTime;
    use sprinkler_workloads::{SyntheticSpec, Trace, TraceOp, TraceSource};

    fn rec(id: u64, at_us: u64, offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord {
            id,
            arrival: SimTime::from_micros(at_us),
            op: TraceOp::Write,
            offset,
            bytes,
        }
    }

    /// Routes the whole of `source` and returns each device's share in order.
    fn shares(router: &mut StripeRouter, source: &mut dyn TraceSource) -> Vec<Vec<TraceRecord>> {
        let mut shares = vec![Vec::new(); router.next_ids.len()];
        let mut routed = Vec::new();
        while let Some(record) = source.next_record() {
            router.route(&record, &mut routed);
            for (device, fragment) in routed.drain(..) {
                shares[device].push(fragment);
            }
        }
        shares
    }

    #[test]
    fn fanout_routes_and_renumbers_fragments() {
        // 2 devices, 1000-byte stripes: offsets [0,1000) → dev 0,
        // [1000,2000) → dev 1, [2000,3000) → dev 0, ...
        let trace = Trace::new(
            "t",
            vec![
                rec(0, 0, 0, 500),     // dev 0
                rec(1, 5, 1500, 400),  // dev 1
                rec(2, 9, 2500, 1000), // straddle: dev 0 [500) + dev 1 [500)
            ],
        );
        let shares = shares(&mut fixed(2, 1000), &mut trace.source());
        let pieces = |device: usize| -> Vec<(u64, u64, u64)> {
            shares[device]
                .iter()
                .map(|r| (r.id, r.offset, r.bytes))
                .collect()
        };
        // dev0's second fragment comes from record 2's head.
        assert_eq!(pieces(0), [(0, 0, 500), (1, 1500, 500)]);
        // dev1 sees record 1 (global 1500 → local stripe 0, offset 500) and
        // record 2's tail (global 3000 → local stripe 1), renumbered 0 and 1.
        assert_eq!(pieces(1), [(0, 500, 400), (1, 1000, 500)]);
    }

    #[test]
    fn sub_streams_keep_nondecreasing_arrivals_and_footprints() {
        let spec = SyntheticSpec::new("fan").with_footprint_mb(8);
        let mut source = spec.stream(400, 0xFA);
        let stripe = 64 * 1024;
        // The whole-stripe image of the footprint on each device: the slot
        // bound of a map that tracks the footprint's stripes.
        let image = PlacementMap::round_robin(
            3,
            stripe,
            source.footprint_bytes().div_ceil(stripe),
            vec![u64::MAX; 3],
        );
        let shares = shares(&mut fixed(3, stripe), &mut source);
        for (device, share) in shares.iter().enumerate() {
            let bound = image.local_slot_bound(device);
            let mut last = SimTime::ZERO;
            for (next_id, record) in (0..).zip(share) {
                assert!(record.arrival >= last, "arrivals must be nondecreasing");
                assert!(record.offset + record.bytes <= bound, "fragment spills");
                assert_eq!(record.id, next_id, "ids must be dense");
                last = record.arrival;
            }
        }
    }

    #[test]
    fn byte_totals_are_preserved_across_the_fanout() {
        let spec = SyntheticSpec::new("sum").with_footprint_mb(16);
        let trace = spec.generate(300, 7);
        let total: u64 = trace.iter().map(|r| r.bytes).sum();
        let split_total: u64 = shares(&mut fixed(4, 128 * 1024), &mut trace.source())
            .iter()
            .flatten()
            .map(|r| r.bytes)
            .sum();
        assert_eq!(split_total, total);
    }

    #[test]
    fn adaptive_fanout_with_no_migrations_matches_the_static_routing() {
        let spec = SyntheticSpec::new("same").with_footprint_mb(8);
        let stripe = 64 * 1024u64;
        let total_stripes = (8u64 << 20).div_ceil(stripe);
        // A map tracking the footprint's stripes, with a trigger the
        // workload never reaches so placement stays put, against one that
        // tracks none.
        let config = RebalanceConfig {
            trigger_ratio: 1e18,
            ..RebalanceConfig::default()
        };
        let mut tracked = StripeRouter::new(
            PlacementMap::round_robin(3, stripe, total_stripes, vec![u64::MAX; 3]),
            Some(Rebalancer::new(config, vec![1.0; 3], total_stripes)),
        );
        assert_eq!(
            shares(&mut tracked, &mut spec.stream(300, 0x11)),
            shares(&mut fixed(3, stripe), &mut spec.stream(300, 0x11))
        );
    }

    #[test]
    fn adaptive_fanout_injects_migration_traffic_and_stays_sorted() {
        // Hammer stripes 0 and 2 — both on device 0 of a 2-wide array — so
        // the rebalancer must move one and charge the copy.
        let stripe = 1000u64;
        let records: Vec<TraceRecord> = (0..40)
            .map(|i| rec(i, i, if i % 2 == 0 { 0 } else { 2000 }, 1000))
            .collect();
        let trace = Trace::new("hot", records);
        let config = RebalanceConfig {
            window_records: 8,
            trigger_ratio: 1.1,
            ..RebalanceConfig::default()
        };
        let mut router = StripeRouter::new(
            PlacementMap::round_robin(2, stripe, 4, vec![u64::MAX; 2]),
            Some(Rebalancer::new(config, vec![1.0; 2], 4)),
        );
        let shares = shares(&mut router, &mut trace.source());
        let placement = &router.placement;
        let mut totals = [0u64; 2];
        let mut reads = 0u64;
        for (device, share) in shares.iter().enumerate() {
            // Slots are only ever taken below the frontier, which never
            // shrinks: every fragment lies below the final one.
            let bound = placement.local_slot_bound(device);
            let mut last = SimTime::ZERO;
            for (next_id, record) in (0..).zip(share) {
                assert!(record.arrival >= last, "arrivals must stay nondecreasing");
                assert!(record.offset + record.bytes <= bound, "fragment spills");
                assert_eq!(record.id, next_id, "ids must stay dense");
                totals[device] += record.bytes;
                reads += u64::from(record.op == TraceOp::Read);
                last = record.arrival;
            }
        }
        let stats = router.placement_stats();
        assert!(stats.stripes_migrated >= 1, "the hot stripe must move");
        assert_eq!(stats.migration_bytes, stats.stripes_migrated * stripe);
        assert!(stats.heat_decays >= 1);
        assert!(
            reads >= stats.stripes_migrated,
            "each migration reads source"
        );
        // Routed payload (40 KB) plus 2 stripe copies per migration.
        assert_eq!(
            totals[0] + totals[1],
            40_000 + 2 * stats.migration_bytes,
            "copy traffic must be charged on both ends"
        );
        // And the placement genuinely changed: stripes 0 and 2 now differ.
        assert_ne!(placement.stripe_device(0), placement.stripe_device(2));
    }
}
