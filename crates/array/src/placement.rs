//! Adaptive stripe placement: the remappable indirection layer between the
//! global striped address space and the devices, plus the heat tracker and
//! rebalancer that drive it.
//!
//! [`StripeMap`](crate::StripeMap) is a closed-form bijection: global stripe
//! `s` lives on device `s % n` at local slot `s / n`, forever.  That is
//! exactly what a static RAID-0 layer computes, and exactly what a host-level
//! placement layer cannot live with: a hot stripe is pinned to whatever
//! device the modulus dealt it to.  [`PlacementMap`] starts from the same
//! round-robin layout but holds it as *state* — a forward table
//! `stripe → (device, slot)` and per-device slot occupancy — so stripes can
//! be [migrated](PlacementMap::migrate) between devices while the
//! LPN ↔ (device, local LPN) bijection is preserved by construction: a
//! migration moves a stripe into a *free* slot, frees its old slot, and
//! updates both directions of the table atomically.
//!
//! The adaptive pieces layer on top:
//!
//! * per-stripe **heat** — an EWMA of routed bytes, fed by the splitter on
//!   every record and decayed once per rebalance window;
//! * a **[`Rebalancer`]** — between replay windows it compares per-device
//!   heat loads (normalized by a per-device service weight, so heterogeneous
//!   arrays balance against capability, not just count), and migrates the
//!   hottest stripes off overloaded devices onto the coolest devices that can
//!   take them;
//! * **migration cost** — each migration is surfaced as a [`Migration`] the
//!   fanout turns into injected traffic: a stripe-sized read on the source
//!   device and a stripe-sized write on the target, so rebalancing pays for
//!   itself in simulated time like it would in a real JBOF.
//!
//! With no migrations applied, every lookup agrees with the closed-form
//! [`StripeMap`](crate::StripeMap) — pinned by differential tests — so the
//! indirection is
//! behavior-preserving until a rebalancer actually acts.

use sprinkler_workloads::TraceRecord;

use crate::stripe::Fragment;

/// Sentinel for an unoccupied slot in the per-device occupancy tables.
const FREE: u64 = u64::MAX;

/// One applied stripe relocation: where the stripe was, and where it is now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The global stripe index that moved.
    pub stripe: u64,
    /// Device the stripe was read from.
    pub from_device: usize,
    /// The local stripe slot it occupied there.
    pub from_slot: u64,
    /// Device the stripe was written to.
    pub to_device: usize,
    /// The local stripe slot it now occupies.
    pub to_slot: u64,
}

/// The remappable stripe → (device, local slot) indirection table.
///
/// # Example
///
/// ```
/// use sprinkler_array::PlacementMap;
///
/// // 4 devices, 1 MiB stripes, 8 tracked stripes, unbounded slots.
/// let mut map = PlacementMap::round_robin(4, 1 << 20, 8, vec![u64::MAX; 4]);
/// assert_eq!(map.locate(5 << 20), (1, 1 << 20)); // identical to StripeMap
/// let m = map.migrate(5, 2).expect("device 2 has free slots");
/// assert_eq!((m.from_device, m.to_device), (1, 2));
/// assert_eq!(map.locate(5 << 20), (2, m.to_slot * (1 << 20)));
/// // The bijection survives: the new location maps back to the same offset.
/// assert_eq!(map.to_global(2, m.to_slot * (1 << 20)), 5 << 20);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    devices: usize,
    stripe_bytes: u64,
    /// `forward[s] = (device, slot)` for every tracked global stripe.
    forward: Vec<(u32, u32)>,
    /// `occupant[d][slot]` = the global stripe living there, or [`FREE`].
    /// Grown lazily past the initial round-robin image.
    occupant: Vec<Vec<u64>>,
    /// Slots freed by migrations, kept sorted ascending so allocation reuses
    /// the lowest hole before extending the frontier.
    freed: Vec<Vec<u64>>,
    /// First never-occupied slot per device.
    frontier: Vec<u64>,
    /// Whole-stripe slot capacity per device; migrations never place a
    /// stripe at or past this bound.
    slot_caps: Vec<u64>,
}

impl PlacementMap {
    /// Builds the identity placement: the same chunked round-robin layout as
    /// `StripeMap::new(devices, stripe_bytes)`, covering global stripes
    /// `0..total_stripes`, with `slot_caps[d]` whole-stripe slots available
    /// on device `d`.
    ///
    /// # Panics
    ///
    /// Panics when `devices` or `stripe_bytes` is zero, when `slot_caps` is
    /// not `devices` long, or when the round-robin image of `total_stripes`
    /// does not fit some device's slot capacity.
    pub fn round_robin(
        devices: usize,
        stripe_bytes: u64,
        total_stripes: u64,
        slot_caps: Vec<u64>,
    ) -> Self {
        assert!(devices >= 1, "an array needs at least one device");
        assert!(stripe_bytes >= 1, "stripes must be at least one byte");
        assert_eq!(slot_caps.len(), devices, "one slot capacity per device");
        let n = devices as u64;
        let mut forward = Vec::with_capacity(total_stripes as usize);
        let mut occupant: Vec<Vec<u64>> = (0..devices)
            .map(|d| {
                let d = d as u64;
                let owned = if total_stripes > d {
                    (total_stripes - d - 1) / n + 1
                } else {
                    0
                };
                Vec::with_capacity(owned as usize)
            })
            .collect();
        for stripe in 0..total_stripes {
            let device = (stripe % n) as usize;
            let slot = stripe / n;
            assert!(
                slot < slot_caps[device],
                "round-robin image of stripe {stripe} exceeds device {device}'s \
                 {}-slot capacity",
                slot_caps[device]
            );
            forward.push((device as u32, slot as u32));
            occupant[device].push(stripe);
        }
        let frontier = occupant.iter().map(|slots| slots.len() as u64).collect();
        PlacementMap {
            devices,
            stripe_bytes,
            forward,
            occupant,
            freed: vec![Vec::new(); devices],
            frontier,
            slot_caps,
        }
    }

    /// Number of devices stripes are placed across.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// The stripe size in bytes.
    pub fn stripe_bytes(&self) -> u64 {
        self.stripe_bytes
    }

    /// Global stripes the table tracks (offsets past this fall back to the
    /// closed-form round-robin layout, which migrations never touch).
    pub fn total_stripes(&self) -> u64 {
        self.forward.len() as u64
    }

    /// The device currently holding global stripe `stripe`.
    pub fn stripe_device(&self, stripe: u64) -> usize {
        match self.forward.get(stripe as usize) {
            Some(&(device, _)) => device as usize,
            None => (stripe % self.devices as u64) as usize,
        }
    }

    /// The `(device, local slot)` placement of global stripe `stripe`.
    pub fn stripe_slot(&self, stripe: u64) -> (usize, u64) {
        match self.forward.get(stripe as usize) {
            Some(&(device, slot)) => (device as usize, slot as u64),
            None => (
                (stripe % self.devices as u64) as usize,
                stripe / self.devices as u64,
            ),
        }
    }

    /// Maps a global byte offset to `(device, local byte offset)`.
    pub fn locate(&self, global_offset: u64) -> (usize, u64) {
        let (device, slot) = self.stripe_slot(global_offset / self.stripe_bytes);
        (
            device,
            slot * self.stripe_bytes + global_offset % self.stripe_bytes,
        )
    }

    /// Inverse of [`PlacementMap::locate`].
    pub fn to_global(&self, device: usize, local_offset: u64) -> u64 {
        debug_assert!(device < self.devices);
        let slot = local_offset / self.stripe_bytes;
        let stripe = match self.occupant[device].get(slot as usize) {
            Some(&stripe) if stripe != FREE => stripe,
            // Past (or in a hole of) the tracked image the closed-form layout
            // still applies: migrations only ever move tracked stripes.
            _ => slot * self.devices as u64 + device as u64,
        };
        stripe * self.stripe_bytes + local_offset % self.stripe_bytes
    }

    /// Maps a global logical page number to `(device, local LPN)`.  Exact —
    /// pages never straddle devices — when the stripe size is a multiple of
    /// `page_size` (enforced by `ArrayConfig::validate`).
    pub fn locate_lpn(&self, lpn: u64, page_size: u64) -> (usize, u64) {
        debug_assert!(self.stripe_bytes.is_multiple_of(page_size));
        let (device, local) = self.locate(lpn * page_size);
        (device, local / page_size)
    }

    /// Inverse of [`PlacementMap::locate_lpn`].
    pub fn lpn_to_global(&self, device: usize, local_lpn: u64, page_size: u64) -> u64 {
        self.to_global(device, local_lpn * page_size) / page_size
    }

    /// Whether `device` has a free whole-stripe slot to receive a migration.
    pub fn can_accept(&self, device: usize) -> bool {
        !self.freed[device].is_empty() || self.frontier[device] < self.slot_caps[device]
    }

    /// The exclusive local-byte upper bound device `device` can currently be
    /// addressed at: one past its highest ever-occupied slot.
    pub fn local_slot_bound(&self, device: usize) -> u64 {
        self.frontier[device] * self.stripe_bytes
    }

    /// First never-occupied slot on `device` (grows by at most one per
    /// migration landing there).
    pub fn frontier_slots(&self, device: usize) -> u64 {
        self.frontier[device]
    }

    /// Whole-stripe slot capacity of `device`.
    pub fn slot_cap(&self, device: usize) -> u64 {
        self.slot_caps[device]
    }

    /// Moves global stripe `stripe` onto `to_device`, into its lowest free
    /// slot.  Returns `None` — and changes nothing — when the stripe already
    /// lives there, the stripe is untracked, or the target has no free slot.
    pub fn migrate(&mut self, stripe: u64, to_device: usize) -> Option<Migration> {
        debug_assert!(to_device < self.devices);
        let &(from_device, from_slot) = self.forward.get(stripe as usize)?;
        let (from_device, from_slot) = (from_device as usize, from_slot as u64);
        if from_device == to_device {
            return None;
        }
        // Lowest free slot: reuse the smallest freed hole, else extend.
        let to_slot = if self.freed[to_device].is_empty() {
            if self.frontier[to_device] >= self.slot_caps[to_device] {
                return None;
            }
            let slot = self.frontier[to_device];
            self.frontier[to_device] += 1;
            slot
        } else {
            self.freed[to_device].remove(0)
        };
        // Occupy the new slot (growing the lazily-sized table as needed).
        let table = &mut self.occupant[to_device];
        if (to_slot as usize) >= table.len() {
            table.resize(to_slot as usize + 1, FREE);
        }
        debug_assert_eq!(table[to_slot as usize], FREE, "target slot must be free");
        table[to_slot as usize] = stripe;
        // Free the old slot, keeping the freed list sorted for lowest-first
        // reuse.
        self.occupant[from_device][from_slot as usize] = FREE;
        let freed = &mut self.freed[from_device];
        let at = freed.partition_point(|&s| s < from_slot);
        freed.insert(at, from_slot);
        self.forward[stripe as usize] = (to_device as u32, to_slot as u32);
        Some(Migration {
            stripe,
            from_device,
            from_slot,
            to_device,
            to_slot,
        })
    }

    /// Splits one trace record at stripe boundaries into per-device
    /// fragments under the *current* placement, in global address order,
    /// coalescing locally contiguous pieces into `out` (cleared first).  The
    /// fragment byte lengths always sum to the record's length.
    pub fn split_into(&self, record: &TraceRecord, out: &mut Vec<Fragment>) {
        out.clear();
        let mut offset = record.offset;
        let mut remaining = record.bytes.max(1);
        while remaining > 0 {
            let within = offset % self.stripe_bytes;
            let take = (self.stripe_bytes - within).min(remaining);
            let (device, local) = self.locate(offset);
            match out.iter().rposition(|f| f.device == device) {
                Some(i) if out[i].offset + out[i].bytes == local => {
                    out[i].bytes += take;
                }
                _ => out.push(Fragment {
                    device,
                    offset: local,
                    bytes: take,
                }),
            }
            offset += take;
            remaining -= take;
        }
    }

    /// Asserts the table invariants: forward and occupancy agree in both
    /// directions and every placement respects the slot caps.  Two stripes
    /// sharing a slot is caught by the forward→occupant check (one slot can
    /// hold only one occupant), so no side table is needed — keeping this
    /// validator itself allocation-free.  Intended for tests and property
    /// checks.
    ///
    /// # Panics
    ///
    /// Panics when any invariant is violated.
    pub fn validate_tables(&self) {
        for (stripe, &(device, slot)) in self.forward.iter().enumerate() {
            let (device, slot) = (device as usize, slot as u64);
            assert!(slot < self.slot_caps[device]);
            assert_eq!(
                self.occupant[device][slot as usize], stripe as u64,
                "slot collision or stale occupancy"
            );
        }
        for (device, table) in self.occupant.iter().enumerate() {
            for (slot, &stripe) in table.iter().enumerate() {
                if stripe != FREE {
                    assert_eq!(self.forward[stripe as usize], (device as u32, slot as u32));
                }
            }
        }
    }
}

/// Counters the placement layer accumulates while rebalancing; merged into
/// the array telemetry (`TelemetrySnapshot`) when a replay finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Stripes relocated between devices.
    pub stripes_migrated: u64,
    /// Bytes of stripe payload relocated (one stripe's worth per migration;
    /// the injected device traffic is twice this).
    pub migration_bytes: u64,
    /// EWMA decay passes applied to the heat table (one per window).
    pub heat_decays: u64,
}

/// Tuning of the between-windows rebalancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Trace records per rebalance window: heat is examined (and decayed)
    /// every time this many records have been routed.
    pub window_records: u64,
    /// Multiplier applied to every stripe's heat at each window boundary
    /// (EWMA decay; `0.5` halves the past's weight every window).
    pub decay: f64,
    /// Overload trigger: migrate only while the hottest device's normalized
    /// load exceeds the mean normalized load by this factor.
    pub trigger_ratio: f64,
    /// Most stripes migrated at one window boundary.
    pub max_migrations_per_window: usize,
    /// Hard budget on migrations across the whole replay — stripe copies
    /// cost real injected traffic, so the rebalancer must not thrash.
    pub max_total_migrations: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            window_records: 32,
            decay: 0.5,
            trigger_ratio: 1.15,
            max_migrations_per_window: 2,
            max_total_migrations: 64,
        }
    }
}

impl RebalanceConfig {
    /// Validates the tuning.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_records == 0 {
            return Err("window_records must be at least 1 record".to_string());
        }
        if self.decay.is_nan() || self.decay <= 0.0 || self.decay > 1.0 {
            return Err(format!(
                "decay of {} is outside (0, 1]; 1.0 means no decay, smaller values \
                 forget faster",
                self.decay
            ));
        }
        if self.trigger_ratio.is_nan() || self.trigger_ratio < 1.0 {
            return Err(format!(
                "trigger_ratio of {} is below 1.0, which would migrate even off \
                 perfectly balanced devices",
                self.trigger_ratio
            ));
        }
        Ok(())
    }
}

/// Per-stripe heat tracking plus the between-windows migration policy.
///
/// Heat is an EWMA of routed bytes per stripe; device load is the sum of the
/// heat of the stripes currently placed on it, maintained incrementally and
/// normalized by a per-device service weight (chip count, for heterogeneous
/// arrays) when devices are compared.
#[derive(Debug)]
pub struct Rebalancer {
    config: RebalanceConfig,
    /// Per-device service weight; loads are compared as `load / weight`.
    weights: Vec<f64>,
    /// EWMA heat per tracked global stripe, in bytes.
    heat: Vec<f64>,
    /// Per-device sum of the heat of its resident stripes.
    load: Vec<f64>,
    records_in_window: u64,
    /// Counters surfaced into the array telemetry.
    pub stats: PlacementStats,
}

impl Rebalancer {
    /// Creates a tracker for `total_stripes` stripes over the weighted
    /// devices.
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty or any weight is not positive.
    pub fn new(config: RebalanceConfig, weights: Vec<f64>, total_stripes: u64) -> Self {
        assert!(!weights.is_empty(), "an array needs at least one device");
        assert!(
            weights.iter().all(|&w| w > 0.0),
            "device weights must be positive"
        );
        let devices = weights.len();
        Rebalancer {
            config,
            weights,
            heat: vec![0.0; total_stripes as usize],
            load: vec![0.0; devices],
            records_in_window: 0,
            stats: PlacementStats::default(),
        }
    }

    /// The tuning in effect.
    pub fn config(&self) -> &RebalanceConfig {
        &self.config
    }

    /// Feeds `bytes` of I/O landing on global stripe `stripe` into the heat
    /// EWMA.  Called by the splitter for every stripe a routed record
    /// touches.
    pub fn note(&mut self, stripe: u64, bytes: u64, placement: &PlacementMap) {
        let Some(heat) = self.heat.get_mut(stripe as usize) else {
            return;
        };
        *heat += bytes as f64;
        self.load[placement.stripe_device(stripe)] += bytes as f64;
    }

    /// Marks one routed record; at window boundaries, selects and applies
    /// migrations (pushed onto `out`, which is cleared first) and then decays
    /// the heat table.
    pub fn record_routed(&mut self, placement: &mut PlacementMap, out: &mut Vec<Migration>) {
        out.clear();
        self.records_in_window += 1;
        if self.records_in_window < self.config.window_records {
            return;
        }
        self.records_in_window = 0;
        self.select_migrations(placement, out);
        // Decay after deciding: decisions see the freshest window fully
        // weighted.  Scaling every stripe's heat scales the per-device sums
        // identically, so the loads stay exact.
        for heat in &mut self.heat {
            *heat *= self.config.decay;
        }
        for load in &mut self.load {
            *load *= self.config.decay;
        }
        self.stats.heat_decays += 1;
    }

    /// Greedy migration selection: repeatedly move the hottest stripe of the
    /// most (normalized-)overloaded device to the coolest device that can
    /// accept it, while that strictly reduces the peak normalized load.
    fn select_migrations(&mut self, placement: &mut PlacementMap, out: &mut Vec<Migration>) {
        let n = self.weights.len();
        if n < 2 {
            return;
        }
        for _ in 0..self.config.max_migrations_per_window {
            if self.stats.stripes_migrated >= self.config.max_total_migrations {
                return;
            }
            let norm = |load: f64, d: usize| load / self.weights[d];
            let mean: f64 = (0..n).map(|d| norm(self.load[d], d)).sum::<f64>() / n as f64;
            let Some(hot) =
                (0..n).max_by(|&a, &b| norm(self.load[a], a).total_cmp(&norm(self.load[b], b)))
            else {
                return;
            };
            let hot_norm = norm(self.load[hot], hot);
            if hot_norm <= self.config.trigger_ratio * mean || self.load[hot] <= 0.0 {
                return;
            }
            // Hottest resident stripe of the hot device.
            let mut best: Option<(u64, f64)> = None;
            for (stripe, &heat) in self.heat.iter().enumerate() {
                if heat > 0.0
                    && placement.stripe_device(stripe as u64) == hot
                    && best.is_none_or(|(_, h)| heat > h)
                {
                    best = Some((stripe as u64, heat));
                }
            }
            let Some((stripe, heat)) = best else { return };
            // Coolest device with a free slot.
            let target = (0..n)
                .filter(|&d| d != hot && placement.can_accept(d))
                .min_by(|&a, &b| norm(self.load[a], a).total_cmp(&norm(self.load[b], b)));
            let Some(target) = target else { return };
            // Only move when the move strictly lowers the peak: dumping the
            // stripe somewhere it would dominate just relocates the hotspot
            // and pays the copy for nothing.
            if norm(self.load[target] + heat, target) >= hot_norm {
                return;
            }
            let Some(migration) = placement.migrate(stripe, target) else {
                return;
            };
            self.load[hot] -= heat;
            self.load[target] += heat;
            self.stats.stripes_migrated += 1;
            self.stats.migration_bytes += placement.stripe_bytes();
            out.push(migration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stripe::StripeMap;
    use sprinkler_sim::SimTime;
    use sprinkler_workloads::TraceOp;

    fn rec(offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord {
            id: 0,
            arrival: SimTime::ZERO,
            op: TraceOp::Read,
            offset,
            bytes,
        }
    }

    #[test]
    fn identity_placement_matches_the_closed_form_map() {
        let stripe_bytes = 4096;
        let map = StripeMap::new(3, stripe_bytes);
        let placement = PlacementMap::round_robin(3, stripe_bytes, 64, vec![u64::MAX; 3]);
        for offset in [0, 1, 4095, 4096, 12287, 12288, 64 * 4096 - 1, 999_999] {
            assert_eq!(placement.locate(offset), map.locate(offset));
        }
        for device in 0..3 {
            for local in [0, 1, 4096, 40960] {
                assert_eq!(
                    placement.to_global(device, local),
                    map.to_global(device, local)
                );
            }
        }
        // Splits agree too.
        let record = rec(1000, 30_000);
        let mut fragments = Vec::new();
        placement.split_into(&record, &mut fragments);
        assert_eq!(fragments, map.split(&record));
    }

    #[test]
    fn migrate_moves_a_stripe_and_preserves_the_bijection() {
        let mut placement = PlacementMap::round_robin(4, 1000, 12, vec![u64::MAX; 4]);
        // Stripe 5 starts on device 1, slot 1.
        assert_eq!(placement.stripe_slot(5), (1, 1));
        let m = placement.migrate(5, 3).unwrap();
        assert_eq!(
            m,
            Migration {
                stripe: 5,
                from_device: 1,
                from_slot: 1,
                to_device: 3,
                // Device 3 owns stripes 3, 7, 11 in slots 0..3; the first
                // free slot is the frontier.
                to_slot: 3,
            }
        );
        assert_eq!(placement.locate(5500), (3, 3500));
        assert_eq!(placement.to_global(3, 3500), 5500);
        placement.validate_tables();
        // The freed slot is reused lowest-first by the next inbound stripe.
        let back = placement.migrate(7, 1).unwrap();
        assert_eq!((back.to_device, back.to_slot), (1, 1));
        placement.validate_tables();
    }

    #[test]
    fn migrate_refuses_no_ops_and_full_devices() {
        let mut placement = PlacementMap::round_robin(2, 1000, 4, vec![2, 2]);
        // Same device: no-op.
        assert!(placement.migrate(0, 0).is_none());
        // Both devices are at their 2-slot cap: no free slot anywhere.
        assert!(!placement.can_accept(1));
        assert!(placement.migrate(0, 1).is_none());
        // Untracked stripe: refused.
        assert!(placement.migrate(99, 1).is_none());
        placement.validate_tables();
    }

    #[test]
    fn rebalancer_moves_the_hot_stripe_to_the_coolest_device() {
        let config = RebalanceConfig {
            window_records: 2,
            ..RebalanceConfig::default()
        };
        let mut placement = PlacementMap::round_robin(4, 1000, 8, vec![u64::MAX; 4]);
        let mut rb = Rebalancer::new(config, vec![1.0; 4], 8);
        let mut out = Vec::new();
        // Stripes 0 and 4 both live on device 0; make both hot.
        for _ in 0..2 {
            rb.note(0, 10_000, &placement);
            rb.note(4, 8_000, &placement);
            rb.record_routed(&mut placement, &mut out);
        }
        // After the first full window the hottest stripe left device 0.
        assert_eq!(rb.stats.stripes_migrated, 1);
        assert_eq!(rb.stats.migration_bytes, 1000);
        assert!(rb.stats.heat_decays >= 1);
        assert_ne!(placement.stripe_device(0), placement.stripe_device(4));
        placement.validate_tables();
    }

    #[test]
    fn rebalancer_respects_the_total_migration_budget() {
        let config = RebalanceConfig {
            window_records: 1,
            max_migrations_per_window: 8,
            max_total_migrations: 2,
            trigger_ratio: 1.0,
            ..RebalanceConfig::default()
        };
        let mut placement = PlacementMap::round_robin(2, 1000, 16, vec![u64::MAX; 2]);
        let mut rb = Rebalancer::new(config, vec![1.0; 2], 16);
        let mut out = Vec::new();
        for round in 0..20u64 {
            // Keep device 0 permanently hot across many stripes.
            rb.note((round % 8) * 2, 50_000, &placement);
            rb.record_routed(&mut placement, &mut out);
        }
        assert!(rb.stats.stripes_migrated <= 2, "budget must cap migrations");
    }

    #[test]
    fn heterogeneous_weights_shift_load_toward_big_devices() {
        let config = RebalanceConfig {
            window_records: 1,
            trigger_ratio: 1.05,
            ..RebalanceConfig::default()
        };
        let mut placement = PlacementMap::round_robin(2, 1000, 4, vec![u64::MAX; 2]);
        // Device 0 is 4x the service capability of device 1.
        let mut rb = Rebalancer::new(config, vec![4.0, 1.0], 4);
        let mut out = Vec::new();
        // Equal heat everywhere: device 1 is normalized-overloaded (same
        // load over a quarter of the weight), so its stripes drift to 0.
        for _ in 0..4 {
            for stripe in 0..4 {
                rb.note(stripe, 1_000, &placement);
            }
            rb.record_routed(&mut placement, &mut out);
        }
        assert!(rb.stats.stripes_migrated >= 1);
        assert!(
            (0..4).filter(|&s| placement.stripe_device(s) == 0).count() >= 3,
            "the weighted rebalancer must stack load on the big device"
        );
    }
}
