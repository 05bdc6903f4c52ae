//! Tenant identity: priority classes, weights, SLOs, and burst-isolation
//! bucket configuration.

use sprinkler_ssd::TenantLaneSpec;

/// The service class of a tenant, determining its default fair-share weight.
///
/// The classes mirror the serving-system taxonomy the ROADMAP targets:
/// latency-sensitive request/response traffic, deadline-driven sequential
/// streaming, and throughput-oriented background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityClass {
    /// Small, latency-critical I/O (request/response serving).
    Interactive,
    /// Deadline-driven sequential transfers (video-style streaming reads).
    Streaming,
    /// Throughput-oriented background work (scans, compactions, backfills).
    Batch,
}

impl PriorityClass {
    /// The class's default deficit-round-robin weight.  Interactive tenants
    /// receive 8× the per-round byte quantum of batch tenants.
    pub fn default_weight(self) -> u32 {
        match self {
            PriorityClass::Interactive => 8,
            PriorityClass::Streaming => 4,
            PriorityClass::Batch => 1,
        }
    }

    /// Short lowercase label (`"interactive"` / `"streaming"` / `"batch"`).
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Streaming => "streaming",
            PriorityClass::Batch => "batch",
        }
    }
}

/// Burst-isolation token bucket parameters for one tenant.
///
/// Rates are in bytes per simulated second; the bucket starts full.  A tenant
/// whose head-of-line record exceeds its accumulated tokens is held back until
/// the bucket refills, so one tenant's burst cannot monopolize admission no
/// matter how much backlog it presents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBucketConfig {
    /// Sustained refill rate in bytes per second.  `0` disables throttling.
    pub rate_bytes_per_sec: u64,
    /// Maximum token accumulation in bytes (the burst allowance).
    pub capacity_bytes: u64,
}

impl TokenBucketConfig {
    /// An unthrottled bucket (rate 0 disables the mechanism).
    pub fn unlimited() -> Self {
        TokenBucketConfig {
            rate_bytes_per_sec: 0,
            capacity_bytes: 0,
        }
    }

    /// A bucket sustaining `rate_bytes_per_sec` with a burst allowance of
    /// `capacity_bytes`.
    pub fn new(rate_bytes_per_sec: u64, capacity_bytes: u64) -> Self {
        TokenBucketConfig {
            rate_bytes_per_sec,
            capacity_bytes,
        }
    }
}

/// Everything the admission front needs to know about one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name, carried into the per-tenant metrics lane.
    pub name: String,
    /// Service class (sets the default fair-share weight).
    pub class: PriorityClass,
    /// Explicit weight override; `None` uses the class default.
    pub weight: Option<u32>,
    /// Burst-isolation bucket; `None` means unthrottled.
    pub bucket: Option<TokenBucketConfig>,
    /// Latency SLO threshold in ns (submission to completion); 0 = no SLO.
    pub slo_latency_ns: u64,
}

impl TenantSpec {
    /// Creates a spec with the class's default weight, no bucket, and no SLO.
    pub fn new(name: impl Into<String>, class: PriorityClass) -> Self {
        TenantSpec {
            name: name.into(),
            class,
            weight: None,
            bucket: None,
            slo_latency_ns: 0,
        }
    }

    /// Overrides the fair-share weight (clamped to ≥ 1).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = Some(weight.max(1));
        self
    }

    /// Attaches a burst-isolation token bucket.
    pub fn with_bucket(mut self, bucket: TokenBucketConfig) -> Self {
        self.bucket = Some(bucket);
        self
    }

    /// Sets the latency SLO threshold in nanoseconds.
    pub fn with_slo_latency_ns(mut self, slo_ns: u64) -> Self {
        self.slo_latency_ns = slo_ns;
        self
    }

    /// The effective deficit-round-robin weight (override or class default).
    pub fn effective_weight(&self) -> u32 {
        self.weight
            .unwrap_or_else(|| self.class.default_weight())
            .max(1)
    }

    /// The metrics-lane registration for this tenant.
    pub fn lane_spec(&self) -> TenantLaneSpec {
        TenantLaneSpec {
            name: self.name.clone(),
            slo_latency_ns: self.slo_latency_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_weights_are_ordered() {
        assert!(
            PriorityClass::Interactive.default_weight() > PriorityClass::Streaming.default_weight()
        );
        assert!(PriorityClass::Streaming.default_weight() > PriorityClass::Batch.default_weight());
    }

    #[test]
    fn weight_override_beats_class_default_and_clamps() {
        let spec = TenantSpec::new("t", PriorityClass::Batch).with_weight(0);
        assert_eq!(spec.effective_weight(), 1);
        let spec = TenantSpec::new("t", PriorityClass::Batch).with_weight(12);
        assert_eq!(spec.effective_weight(), 12);
        assert_eq!(
            TenantSpec::new("t", PriorityClass::Interactive).effective_weight(),
            8
        );
    }

    #[test]
    fn lane_spec_carries_name_and_slo() {
        let spec =
            TenantSpec::new("web", PriorityClass::Interactive).with_slo_latency_ns(5_000_000);
        let lane = spec.lane_spec();
        assert_eq!(lane.name, "web");
        assert_eq!(lane.slo_latency_ns, 5_000_000);
    }
}
