//! SSD configuration.

use sprinkler_flash::{FlashGeometry, FlashTiming};
use sprinkler_sim::Duration;

use crate::cand::{MAX_DIES_PER_CHIP, MAX_PLANES_PER_DIE};
use crate::error::SsdError;
use crate::ftl::{MAX_PAGES_PER_BLOCK, MAX_TOTAL_PAGES};

/// The largest `queue_depth` and `max_committed_per_chip`: NVMe's per-queue
/// entry limit.  `Ssd::new` pre-sizes tables by both.
const MAX_QUEUE_ENTRIES: u64 = 1 << 16;

/// The most in-flight memory-request slots (`total_chips *
/// max_committed_per_chip`) `Ssd::new` pre-sizes: 32 times the largest
/// device built anywhere (1024 chips at the default cap of 32), about a
/// quarter of a gigabyte of tables.  The commit cap is at least 1, so this
/// also bounds the total chip count.
const MAX_IN_FLIGHT: u64 = 1 << 20;

/// How the FTL chooses the physical placement (channel, way, die, plane) of a
/// logical page.
///
/// The paper's platform stripes memory requests across channels first (channel
/// stripping), then across the chips of a channel (channel pipelining), then across
/// dies and planes — the classic C-W-D-P order that maximizes system-level
/// parallelism for sequential logical addresses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AllocationPolicy {
    /// Channel → way → die → plane striping (the default, highest SLP for
    /// sequential streams).
    #[default]
    ChannelWayDiePlane,
    /// Way → channel → die → plane striping (pipelining-first).
    WayChannelDiePlane,
    /// Die → plane → channel → way striping (flash-level-first; exposes poor SLP
    /// and is useful as an ablation).
    DiePlaneChannelWay,
}

/// Garbage collection configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcConfig {
    /// Whether garbage collection runs at all.  Experiments on pristine SSDs
    /// disable it to isolate scheduling effects (Figs 10–16); Fig 17 enables it.
    pub enabled: bool,
    /// GC triggers when a plane's free-block count drops to this watermark.
    pub free_block_watermark: usize,
    /// Penalty applied to pending memory requests whose target pages were migrated
    /// while they waited, for schedulers *without* a readdressing callback
    /// (VAS/PAS).  Sprinkler avoids this via its readdressing callback (§4.3).
    pub stale_readdress_penalty: Duration,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            enabled: false,
            free_block_watermark: 2,
            stale_readdress_penalty: Duration::from_micros(40),
        }
    }
}

impl GcConfig {
    /// A GC configuration suitable for the fragmented-SSD experiments (Fig 17).
    pub fn enabled() -> Self {
        GcConfig {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Complete configuration of the simulated many-chip SSD.
///
/// # Example
///
/// ```
/// use sprinkler_ssd::SsdConfig;
///
/// let cfg = SsdConfig::paper_default();
/// assert_eq!(cfg.geometry.total_chips(), 64);
/// assert_eq!(cfg.queue_depth, 32);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Flash array geometry.
    pub geometry: FlashGeometry,
    /// Flash timing parameters.
    pub timing: FlashTiming,
    /// Device-level (NCQ-style) queue depth.
    pub queue_depth: usize,
    /// Host interface (DMA engine) bandwidth in bytes per second.
    pub dma_bytes_per_sec: u64,
    /// Hard upper bound on committed-but-incomplete memory requests per chip.
    /// Schedulers may use less (VAS/PAS effectively use 1); FARO over-commits up
    /// to this bound.
    pub max_committed_per_chip: usize,
    /// The flash controller's transaction type decision window: requests for an
    /// idle chip that arrive within this window can be coalesced into one
    /// transaction (temporal transactional-locality).
    pub decision_window: Duration,
    /// Page allocation / striping policy.
    pub allocation: AllocationPolicy,
    /// Garbage collection settings.
    pub gc: GcConfig,
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl SsdConfig {
    /// The 64-chip baseline configuration of the paper's evaluation platform.
    pub fn paper_default() -> Self {
        SsdConfig {
            geometry: FlashGeometry::paper_default(),
            timing: FlashTiming::paper_default(),
            queue_depth: 32,
            // PCIe-attached host interface; well above a single ONFI channel.
            dma_bytes_per_sec: 1_600_000_000,
            max_committed_per_chip: 32,
            decision_window: Duration::from_micros(1),
            allocation: AllocationPolicy::ChannelWayDiePlane,
            gc: GcConfig::default(),
        }
    }

    /// A small configuration for unit tests: 4 chips, small blocks, shallow queue.
    pub fn small_test() -> Self {
        SsdConfig {
            geometry: FlashGeometry::small_test(),
            timing: FlashTiming::paper_default(),
            queue_depth: 8,
            dma_bytes_per_sec: 1_600_000_000,
            max_committed_per_chip: 8,
            decision_window: Duration::from_micros(1),
            allocation: AllocationPolicy::ChannelWayDiePlane,
            gc: GcConfig::default(),
        }
    }

    /// Returns a copy with a different total chip count (keeps all other settings).
    pub fn with_chip_count(mut self, chips: usize) -> Self {
        self.geometry = self.geometry.with_chip_count(chips);
        self
    }

    /// Returns a copy with a different device queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Returns a copy with fewer blocks per plane (keeps simulated capacity and GC
    /// working sets tractable for experiments).
    pub fn with_blocks_per_plane(mut self, blocks: usize) -> Self {
        self.geometry = self.geometry.with_blocks_per_plane(blocks);
        self
    }

    /// Returns a copy with garbage collection enabled.
    pub fn with_gc(mut self, gc: GcConfig) -> Self {
        self.gc = gc;
        self
    }

    /// Checks that the simulator can run this configuration.
    ///
    /// # Errors
    ///
    /// [`SsdError::Flash`] wrapping [`FlashError::InvalidGeometry`] for a zero
    /// geometry field, [`SsdError::InvalidConfig`] for any other zero or
    /// invalid field, and [`SsdError::TooLarge`] for a quantity past the
    /// simulator's table limits: more than 64 dies per chip or 64 planes per
    /// die (the width of the scheduler's candidate key), more than
    /// `u32::MAX` pages in all, more than 128 pages per block, a
    /// `queue_depth` or `max_committed_per_chip` above 65,536, or more than
    /// 2^20 in-flight memory requests (`total_chips *
    /// max_committed_per_chip`, the slots its tables are pre-sized for).
    ///
    /// [`FlashError::InvalidGeometry`]: sprinkler_flash::FlashError::InvalidGeometry
    pub fn validate(&self) -> Result<(), SsdError> {
        let invalid = |reason: &str| Err(SsdError::InvalidConfig(reason.to_string()));
        let g = &self.geometry;
        g.validate()?;
        let total_pages = [
            g.channels,
            g.chips_per_channel,
            g.dies_per_chip,
            g.planes_per_die,
            g.blocks_per_plane,
            g.pages_per_block,
        ]
        .into_iter()
        .try_fold(1u64, |pages, n| pages.checked_mul(n as u64))
        .unwrap_or(u64::MAX);
        // Each chip's in-flight memory requests are capped by its commitment
        // budget, and `Ssd::new` pre-sizes a slot for each of them.
        let in_flight = (g.channels as u64)
            .saturating_mul(g.chips_per_channel as u64)
            .saturating_mul(self.max_committed_per_chip as u64);
        for (field, value, max) in [
            (
                "dies_per_chip",
                g.dies_per_chip as u64,
                MAX_DIES_PER_CHIP as u64,
            ),
            (
                "planes_per_die",
                g.planes_per_die as u64,
                MAX_PLANES_PER_DIE as u64,
            ),
            (
                "pages_per_block",
                g.pages_per_block as u64,
                MAX_PAGES_PER_BLOCK as u64,
            ),
            ("total_pages", total_pages, MAX_TOTAL_PAGES),
            ("queue_depth", self.queue_depth as u64, MAX_QUEUE_ENTRIES),
            (
                "max_committed_per_chip",
                self.max_committed_per_chip as u64,
                MAX_QUEUE_ENTRIES,
            ),
            (
                "total_chips * max_committed_per_chip",
                in_flight,
                MAX_IN_FLIGHT,
            ),
        ] {
            if value > max {
                return Err(SsdError::TooLarge { field, value, max });
            }
        }
        if self.queue_depth == 0 {
            return invalid("queue_depth must be non-zero");
        }
        if self.dma_bytes_per_sec == 0 {
            return invalid("dma_bytes_per_sec must be non-zero");
        }
        if self.max_committed_per_chip == 0 {
            return invalid("max_committed_per_chip must be non-zero");
        }
        if self.gc.enabled && self.gc.free_block_watermark == 0 {
            return invalid("gc.free_block_watermark must be non-zero when GC is enabled");
        }
        Ok(())
    }

    /// The atomic flash I/O unit (page size) in bytes.
    pub fn page_size(&self) -> usize {
        self.geometry.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let cfg = SsdConfig::paper_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.geometry.total_chips(), 64);
        assert_eq!(cfg.queue_depth, 32);
        assert_eq!(cfg.page_size(), 2048);
        assert!(!cfg.gc.enabled);
    }

    #[test]
    fn small_test_is_valid() {
        SsdConfig::small_test().validate().unwrap();
    }

    #[test]
    fn builder_modifiers() {
        let cfg = SsdConfig::paper_default()
            .with_chip_count(256)
            .with_queue_depth(64)
            .with_blocks_per_plane(32)
            .with_gc(GcConfig::enabled());
        assert_eq!(cfg.geometry.total_chips(), 256);
        assert_eq!(cfg.queue_depth, 64);
        assert_eq!(cfg.geometry.blocks_per_plane, 32);
        assert!(cfg.gc.enabled);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_zero_fields() {
        let mut cfg = SsdConfig::small_test();
        cfg.queue_depth = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::small_test();
        cfg.dma_bytes_per_sec = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::small_test();
        cfg.max_committed_per_chip = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::small_test();
        cfg.gc.enabled = true;
        cfg.gc.free_block_watermark = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SsdConfig::small_test();
        cfg.geometry.channels = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_geometries_past_the_ftl_limits() {
        // 1024 chips of 2048 blocks: 2^31 pages, inside the u32 tables.
        let mut cfg = SsdConfig::paper_default().with_chip_count(1024);
        cfg.geometry.blocks_per_plane = 2048;
        cfg.validate().unwrap();

        cfg.geometry.blocks_per_plane = 4096;
        assert_eq!(
            cfg.validate(),
            Err(SsdError::TooLarge {
                field: "total_pages",
                value: 1 << 32,
                max: MAX_TOTAL_PAGES,
            })
        );

        // A page count past u64 is refused, not overflowed.
        let mut cfg = SsdConfig::small_test();
        cfg.geometry.channels = usize::MAX;
        assert!(matches!(
            cfg.validate(),
            Err(SsdError::TooLarge {
                field: "total_pages",
                ..
            })
        ));

        let mut cfg = SsdConfig::small_test();
        cfg.geometry.pages_per_block = MAX_PAGES_PER_BLOCK + 1;
        assert!(matches!(
            cfg.validate(),
            Err(SsdError::TooLarge {
                field: "pages_per_block",
                ..
            })
        ));
    }

    /// Regression: 65 dies per chip (or planes per die) passed `validate()`,
    /// but the scheduler's candidate key holds 6 bits of each.  A 66-page
    /// write and read on a one-chip device under SPK3 then panicked in
    /// `pack_pri` in debug builds; with 65 dies, two pages collided on one
    /// key and release builds completed neither I/O.
    #[test]
    fn validation_rejects_dies_and_planes_past_the_candidate_key() {
        let too_large = |field, value| {
            Err(SsdError::TooLarge {
                field,
                value,
                max: 64,
            })
        };
        let mut cfg = SsdConfig::small_test();
        cfg.geometry.dies_per_chip = 64;
        cfg.geometry.planes_per_die = 64;
        cfg.validate().unwrap();
        cfg.geometry.dies_per_chip = 65;
        assert_eq!(cfg.validate(), too_large("dies_per_chip", 65));
        cfg.geometry.dies_per_chip = 64;
        cfg.geometry.planes_per_die = 65;
        assert_eq!(cfg.validate(), too_large("planes_per_die", 65));
    }

    /// Regression: both values passed `validate()`, then `Ssd::new` panicked
    /// on "capacity overflow" (`usize::MAX`) or aborted on a 228 TB
    /// allocation (`1 << 40`) while pre-sizing its tables.
    #[test]
    fn validation_rejects_queues_past_the_preallocation_limits() {
        let too_large = |field, value, max| Err(SsdError::TooLarge { field, value, max });
        let mut cfg = SsdConfig::small_test();
        cfg.max_committed_per_chip = usize::MAX;
        let field = "max_committed_per_chip";
        assert_eq!(cfg.validate(), too_large(field, u64::MAX, 1 << 16));
        cfg.max_committed_per_chip = 1 << 16;
        cfg.queue_depth = 1 << 40;
        assert_eq!(cfg.validate(), too_large("queue_depth", 1 << 40, 1 << 16));
        cfg.queue_depth = 1 << 16;
        cfg.validate().unwrap();

        // 2^16 chips: 2^20 in-flight slots at a budget of 16, one chip's
        // worth past them at 17.
        let mut cfg = cfg.with_chip_count(1 << 16);
        cfg.max_committed_per_chip = 17;
        let field = "total_chips * max_committed_per_chip";
        assert_eq!(cfg.validate(), too_large(field, 17 << 16, MAX_IN_FLIGHT));
        cfg.max_committed_per_chip = 16;
        cfg.validate().unwrap();
    }

    /// Regression: both configs passed `validate()` (their in-flight slot
    /// counts are just under `u32::MAX`), then `Ssd::new` aborted the
    /// process on a 412 GB allocation while pre-sizing its tables.
    #[test]
    fn validation_rejects_in_flight_tables_that_cannot_be_allocated() {
        let field = "total_chips * max_committed_per_chip";
        for (channels, chips_per_channel) in [(2048, 32), (1024, 64)] {
            let mut cfg = SsdConfig::small_test();
            cfg.geometry.channels = channels;
            cfg.geometry.chips_per_channel = chips_per_channel;
            cfg.max_committed_per_chip = (1 << 16) - 1;
            assert_eq!(
                cfg.validate(),
                Err(SsdError::TooLarge {
                    field,
                    value: ((1 << 16) - 1) << 16,
                    max: MAX_IN_FLIGHT,
                })
            );
        }
    }

    #[test]
    fn allocation_policy_default() {
        assert_eq!(
            AllocationPolicy::default(),
            AllocationPolicy::ChannelWayDiePlane
        );
    }

    #[test]
    fn gc_config_presets() {
        assert!(!GcConfig::default().enabled);
        assert!(GcConfig::enabled().enabled);
        assert!(GcConfig::enabled().free_block_watermark > 0);
    }
}
