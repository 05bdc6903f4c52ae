//! SSD configuration.

use sprinkler_flash::{FlashGeometry, FlashTiming};
use sprinkler_sim::Duration;

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

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry
            .validate()
            .map_err(|e| format!("invalid geometry: {e}"))?;
        if self.queue_depth == 0 {
            return Err("queue_depth must be non-zero".to_string());
        }
        if self.dma_bytes_per_sec == 0 {
            return Err("dma_bytes_per_sec must be non-zero".to_string());
        }
        if self.max_committed_per_chip == 0 {
            return Err("max_committed_per_chip must be non-zero".to_string());
        }
        if self.gc.enabled && self.gc.free_block_watermark == 0 {
            return Err("gc.free_block_watermark must be non-zero when GC is enabled".to_string());
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
