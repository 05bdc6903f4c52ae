//! Array configuration.

use sprinkler_ssd::SsdConfig;

use crate::placement::{PlacementMap, RebalanceConfig, Rebalancer};
use crate::splitter::StripeRouter;

/// Upper bound on array width: each device replays on its own scoped thread,
/// so the width is also the replay's thread fan-out.
pub const MAX_DEVICES: usize = 64;

/// The most stripes a rebalancing array tracks: its placement and heat tables
/// hold one entry per stripe of the footprint, 24 bytes in all, so this caps
/// them at 24 MiB.
pub const MAX_TRACKED_STRIPES: u64 = 1 << 20;

/// Configuration of a striped array of Sprinkler SSDs.
///
/// Devices carry their own [`SsdConfig`] each, so arrays may be heterogeneous
/// — mixed chip counts, queue depths, or flash timing profiles.  Placement
/// is chunked round-robin (see [`PlacementMap`]); setting a
/// [`RebalanceConfig`] turns on the adaptive placement layer that migrates
/// hot stripes between devices during replay.
///
/// # Example
///
/// ```
/// use sprinkler_array::ArrayConfig;
/// use sprinkler_ssd::SsdConfig;
///
/// let config = ArrayConfig::new(SsdConfig::paper_default())
///     .with_devices(4)
///     .with_stripe_kb(256);
/// config.validate().unwrap();
/// assert_eq!(config.width(), 4);
///
/// // Heterogeneous: a big device fronting two small ones.
/// let hetero = ArrayConfig::heterogeneous(vec![
///     SsdConfig::paper_default().with_chip_count(32),
///     SsdConfig::paper_default().with_chip_count(16),
///     SsdConfig::paper_default().with_chip_count(16),
/// ])
/// .with_stripe_kb(256);
/// hetero.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayConfig {
    /// Per-device configurations; the array's width is this list's length.
    pub devices: Vec<SsdConfig>,
    /// Stripe size in bytes; must be a multiple of every device's page size.
    pub stripe_bytes: u64,
    /// When set, replay runs the adaptive placement layer with this tuning;
    /// when `None`, placement stays static round-robin for the whole run.
    pub rebalance: Option<RebalanceConfig>,
}

impl ArrayConfig {
    /// Creates a single-device array with a 1 MiB stripe over `device`.
    pub fn new(device: SsdConfig) -> Self {
        ArrayConfig {
            devices: vec![device],
            stripe_bytes: 1024 * 1024,
            rebalance: None,
        }
    }

    /// Creates an array over explicitly listed (possibly heterogeneous)
    /// device configurations, with a 1 MiB stripe.
    pub fn heterogeneous(devices: Vec<SsdConfig>) -> Self {
        ArrayConfig {
            devices,
            stripe_bytes: 1024 * 1024,
            rebalance: None,
        }
    }

    /// Sets the array width by replicating the first device's configuration.
    ///
    /// # Panics
    ///
    /// Panics when the device list is empty (no template to replicate).
    pub fn with_devices(mut self, devices: usize) -> Self {
        assert!(
            !self.devices.is_empty(),
            "with_devices needs a first device to replicate"
        );
        let template = self.devices[0].clone();
        self.devices = vec![template; devices];
        self
    }

    /// Sets the stripe size in KiB.
    pub fn with_stripe_kb(mut self, kb: u64) -> Self {
        self.stripe_bytes = kb * 1024;
        self
    }

    /// Turns on adaptive placement with the given rebalancer tuning.
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = Some(rebalance);
        self
    }

    /// The array width (number of devices).
    pub fn width(&self) -> usize {
        self.devices.len()
    }

    /// The configuration of device `index`.
    pub fn device(&self, index: usize) -> &SsdConfig {
        &self.devices[index]
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices.is_empty() {
            return Err("an array needs at least one device".to_string());
        }
        if self.width() > MAX_DEVICES {
            return Err(format!(
                "array width {} exceeds the {MAX_DEVICES}-device replay fan-out limit",
                self.width()
            ));
        }
        for (index, device) in self.devices.iter().enumerate() {
            device
                .validate()
                .map_err(|e| format!("invalid config for device {index}: {e}"))?;
            let page = device.page_size() as u64;
            if self.stripe_bytes < page {
                return Err(format!(
                    "stripe of {} bytes is smaller than device {index}'s {page}-byte flash \
                     page; raise the stripe size to at least one page on every device",
                    self.stripe_bytes
                ));
            }
            if !self.stripe_bytes.is_multiple_of(page) {
                return Err(format!(
                    "stripe of {} bytes is not a multiple of device {index}'s {page}-byte \
                     flash page, so the LPN map would not be a bijection; use a stripe size \
                     divisible by every device's page size",
                    self.stripe_bytes
                ));
            }
            if self.stripes_per_device(index) == 0 {
                return Err(format!(
                    "device {index} cannot hold a single {}-byte stripe within its logical \
                     capacity of {} bytes; shrink the stripe or drop the device from the \
                     array",
                    self.stripe_bytes,
                    device.geometry.capacity_bytes()
                ));
            }
        }
        if let Some(rebalance) = &self.rebalance {
            rebalance
                .validate()
                .map_err(|e| format!("rebalance: {e}"))?;
        }
        Ok(())
    }

    /// Whole stripes device `device` can hold within its logical capacity —
    /// the device's slot capacity for placement.
    pub fn stripes_per_device(&self, device: usize) -> u64 {
        self.devices[device].geometry.capacity_bytes() / self.stripe_bytes
    }

    /// Per-device service weights for load normalization: total flash chips,
    /// so a 32-chip device is expected to absorb twice a 16-chip device's
    /// traffic before either counts as overloaded.
    pub fn device_weights(&self) -> Vec<f64> {
        self.devices
            .iter()
            .map(|d| d.geometry.total_chips() as f64)
            .collect()
    }

    /// The array's usable logical capacity in bytes: the largest footprint
    /// whose round-robin image keeps every device within its own
    /// whole-stripe slot capacity.  For `T` total stripes, device `d` owns
    /// `ceil((T - d) / n)` of them, so the bound is
    /// `min over d of (slots(d) * n + d)` stripes — which reduces to
    /// `n * slots * stripe_bytes` for homogeneous arrays, today's formula.
    /// Migrations only ever move stripes into free slots below the same
    /// caps, so the bound holds for adaptive placement too, which further
    /// tracks at most [`MAX_TRACKED_STRIPES`] stripes.
    pub fn logical_capacity_bytes(&self) -> u64 {
        let n = self.width() as u64;
        let stripes = (0..self.width())
            .map(|d| (self.stripes_per_device(d).saturating_mul(n)).saturating_add(d as u64))
            .min()
            .unwrap_or(0);
        let stripes = match self.rebalance {
            Some(_) => stripes.min(MAX_TRACKED_STRIPES),
            None => stripes,
        };
        stripes.saturating_mul(self.stripe_bytes)
    }

    /// The router that splits a source whose footprint bound is
    /// `footprint_bytes` (at most [`ArrayConfig::logical_capacity_bytes`])
    /// across this array.  Its [`PlacementMap`] starts round-robin: with no
    /// rebalance tuning it tracks no stripe, and with one it tracks the
    /// footprint's stripes for a [`Rebalancer`] to move.
    pub fn router(&self, footprint_bytes: u64) -> StripeRouter {
        let tracked = match self.rebalance {
            Some(_) => footprint_bytes.div_ceil(self.stripe_bytes),
            None => 0,
        };
        let slot_caps = (0..self.width())
            .map(|d| self.stripes_per_device(d))
            .collect();
        let placement =
            PlacementMap::round_robin(self.width(), self.stripe_bytes, tracked, slot_caps);
        let rebalancer = self
            .rebalance
            .map(|tuning| Rebalancer::new(tuning, self.device_weights(), tracked));
        StripeRouter::new(placement, rebalancer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_a_valid_single_device_array() {
        let config = ArrayConfig::new(SsdConfig::paper_default());
        config.validate().unwrap();
        assert_eq!(config.width(), 1);
        assert!(config.logical_capacity_bytes() <= config.device(0).geometry.capacity_bytes());
        assert!(config.logical_capacity_bytes() > 0);
    }

    #[test]
    fn capacity_scales_with_width_and_floors_to_whole_stripes() {
        let device = SsdConfig::paper_default();
        let one = ArrayConfig::new(device.clone()).with_stripe_kb(1024);
        let four = one.clone().with_devices(4);
        assert_eq!(
            four.logical_capacity_bytes(),
            4 * one.logical_capacity_bytes()
        );
        // Whole-stripe flooring keeps every device's share within its own
        // capacity by construction.
        assert!(one.stripes_per_device(0) * one.stripe_bytes <= device.geometry.capacity_bytes());
    }

    #[test]
    fn heterogeneous_capacity_is_limited_by_the_smallest_device() {
        let big = SsdConfig::paper_default().with_chip_count(32);
        let small = SsdConfig::paper_default().with_chip_count(8);
        let config =
            ArrayConfig::heterogeneous(vec![big.clone(), small.clone()]).with_stripe_kb(1024);
        config.validate().unwrap();
        // Device 1 (small) owns stripes 1, 3, 5, ...: the capacity bound is
        // its slot count, not the big device's.
        let small_slots = config.stripes_per_device(1);
        assert_eq!(
            config.logical_capacity_bytes(),
            (small_slots * 2 + 1) * config.stripe_bytes
        );
        // And a uniform array of small devices holds strictly less.
        let uniform_small = ArrayConfig::new(small).with_devices(2).with_stripe_kb(1024);
        assert!(config.logical_capacity_bytes() > uniform_small.logical_capacity_bytes());
        assert!(
            config.logical_capacity_bytes()
                < ArrayConfig::new(big)
                    .with_devices(2)
                    .with_stripe_kb(1024)
                    .logical_capacity_bytes()
        );
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let device = SsdConfig::small_test();
        assert!(ArrayConfig::new(device.clone())
            .with_devices(0)
            .validate()
            .is_err());
        assert!(ArrayConfig::new(device.clone())
            .with_devices(MAX_DEVICES + 1)
            .validate()
            .is_err());
        // Not a page multiple.
        let mut config = ArrayConfig::new(device.clone());
        config.stripe_bytes = 3000;
        assert!(config.validate().is_err());
        // Smaller than a page.
        let mut config = ArrayConfig::new(device.clone());
        config.stripe_bytes = 512;
        assert!(config.validate().is_err());
        // Bigger than the device.
        let capacity = device.geometry.capacity_bytes();
        let mut config = ArrayConfig::new(device);
        config.stripe_bytes = capacity * 2;
        assert!(config.validate().is_err());
    }

    #[test]
    fn validation_names_the_offending_heterogeneous_device() {
        // Device 1's pages are larger than device 0's: a stripe sized to
        // device 0's pages alone must be rejected *naming device 1*.
        let small_page = SsdConfig::small_test();
        let mut big_page = SsdConfig::small_test();
        big_page.geometry.page_size = small_page.geometry.page_size * 4;
        let page = small_page.page_size() as u64;
        let mut config = ArrayConfig::heterogeneous(vec![small_page.clone(), big_page]);
        config.stripe_bytes = page * 2; // multiple of device 0's page only
        let err = config.validate().unwrap_err();
        assert!(
            err.contains("device 1"),
            "error must name the offending device: {err}"
        );

        // A zero-capacity (stripe larger than the whole device) member is
        // rejected with the device named, even when its peers are fine.
        let tiny = SsdConfig::small_test();
        let capacity = tiny.geometry.capacity_bytes();
        let big = SsdConfig::paper_default();
        assert!(big.geometry.capacity_bytes() >= capacity * 2);
        let mut config = ArrayConfig::heterogeneous(vec![big, tiny]);
        config.stripe_bytes = capacity * 2;
        let err = config.validate().unwrap_err();
        assert!(
            err.contains("device 1") && err.contains("cannot hold"),
            "error must flag the zero-capacity device: {err}"
        );
    }

    #[test]
    fn validation_covers_the_rebalance_tuning() {
        let mut config = ArrayConfig::new(SsdConfig::small_test())
            .with_devices(2)
            .with_rebalance(RebalanceConfig::default());
        config.validate().unwrap();
        config.rebalance.as_mut().unwrap().decay = 1.5;
        let err = config.validate().unwrap_err();
        assert!(err.contains("decay"), "{err}");
    }

    #[test]
    fn placement_map_matches_the_static_capacity_contract() {
        use sprinkler_sim::SimTime;
        use sprinkler_workloads::{TraceOp, TraceRecord};
        let fixed = ArrayConfig::new(SsdConfig::small_test())
            .with_devices(3)
            .with_stripe_kb(64);
        let inert = fixed.clone().with_rebalance(RebalanceConfig {
            max_total_migrations: 0,
            ..RebalanceConfig::default()
        });
        inert.validate().unwrap();
        // The full-capacity image fits the slot caps (round_robin would have
        // panicked otherwise), and the map tracking it routes like the
        // static array's, which tracks no stripe.
        let capacity = inert.logical_capacity_bytes();
        assert_eq!(capacity, fixed.logical_capacity_bytes());
        let mut tracked = inert.router(capacity);
        let mut untracked = fixed.router(capacity);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for offset in [0, 1, 65_535, 65_536, 400_000] {
            let record = TraceRecord {
                id: 0,
                arrival: SimTime::ZERO,
                op: TraceOp::Read,
                offset,
                bytes: 70_000,
            };
            tracked.route(&record, &mut a);
            untracked.route(&record, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rebalancing_capacity_stops_at_the_tracked_stripe_cap() {
        // Four 256 GiB devices: a terabyte of 2 KiB stripes, 2^29 of them,
        // far past what a rebalancer may track.
        let fixed = ArrayConfig::new(SsdConfig::paper_default())
            .with_devices(4)
            .with_stripe_kb(2);
        let adaptive = fixed.clone().with_rebalance(RebalanceConfig::default());
        adaptive.validate().unwrap();
        assert_eq!(fixed.logical_capacity_bytes(), 1 << 40);
        assert_eq!(
            adaptive.logical_capacity_bytes(),
            MAX_TRACKED_STRIPES * fixed.stripe_bytes
        );
    }
}
