//! SSD configuration.

use sprinkler_flash::{FlashGeometry, FlashTiming};
use sprinkler_sim::Duration;

use crate::error::SsdError;
use crate::ftl::{MAX_PAGES_PER_BLOCK, MAX_TOTAL_PAGES};

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
    /// How many blocks a single GC invocation reclaims at most.
    pub blocks_per_invocation: usize,
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
            blocks_per_invocation: 1,
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
    /// invalid field, and [`SsdError::GeometryTooLarge`] for a geometry past
    /// the FTL's table limits: more than `u32::MAX` pages in all, or more than
    /// 128 pages per block.
    ///
    /// [`FlashError::InvalidGeometry`]: sprinkler_flash::FlashError::InvalidGeometry
    pub fn validate(&self) -> Result<(), SsdError> {
        let invalid = |reason: &str| Err(SsdError::InvalidConfig(reason.to_string()));
        let g = &self.geometry;
        g.validate()?;
        if g.pages_per_block > MAX_PAGES_PER_BLOCK {
            return Err(SsdError::GeometryTooLarge {
                field: "pages_per_block",
                value: g.pages_per_block as u64,
                max: MAX_PAGES_PER_BLOCK as u64,
            });
        }
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
        if total_pages > MAX_TOTAL_PAGES {
            return Err(SsdError::GeometryTooLarge {
                field: "total_pages",
                value: total_pages,
                max: MAX_TOTAL_PAGES,
            });
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
            Err(SsdError::GeometryTooLarge {
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
            Err(SsdError::GeometryTooLarge {
                field: "total_pages",
                ..
            })
        ));

        let mut cfg = SsdConfig::small_test();
        cfg.geometry.pages_per_block = MAX_PAGES_PER_BLOCK + 1;
        assert!(matches!(
            cfg.validate(),
            Err(SsdError::GeometryTooLarge {
                field: "pages_per_block",
                ..
            })
        ));
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
