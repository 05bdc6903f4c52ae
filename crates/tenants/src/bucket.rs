//! Deterministic integer-math token bucket for burst isolation.
//!
//! Tokens are tracked in a fixed-point unit of **byte·nanoseconds-per-second**
//! (one byte of credit = `NS_PER_SEC` scaled tokens), so refill is the exact
//! integer product `rate_bytes_per_sec × elapsed_ns` with no floating point
//! anywhere — replaying the same trace always produces the same admission
//! schedule, bit for bit.

use sprinkler_sim::{Duration, SimTime};

use crate::spec::TokenBucketConfig;

const NS_PER_SEC: u128 = 1_000_000_000;

/// The credit a full bucket holds, scaled.  A zero capacity holds one byte:
/// the initial fill, the refill cap and the cost clamp all use this one
/// figure, so a zero-capacity bucket still admits a record per refilled byte.
fn capacity_scaled(config: TokenBucketConfig) -> u128 {
    config.capacity_bytes.max(1) as u128 * NS_PER_SEC
}

/// Deterministic token bucket: starts full, refills linearly with simulated
/// time, and answers "when could a transfer of `n` bytes proceed?" exactly.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    config: TokenBucketConfig,
    /// Current credit, scaled by [`NS_PER_SEC`] (1 byte = 1e9 tokens).
    tokens_scaled: u128,
    /// Instant the bucket was last refilled to.
    refilled_at: SimTime,
}

impl TokenBucket {
    /// Creates a full bucket.  A zero-rate config disables throttling: the
    /// bucket is always ready and charges are no-ops.
    pub fn new(config: TokenBucketConfig) -> Self {
        TokenBucket {
            config,
            tokens_scaled: capacity_scaled(config),
            refilled_at: SimTime::ZERO,
        }
    }

    /// Whether throttling is active (a zero rate disables the bucket).
    pub fn is_limited(&self) -> bool {
        self.config.rate_bytes_per_sec > 0
    }

    /// Advances the bucket to `now`, accruing credit.  Monotone: calling with
    /// an earlier time than a previous refill is a no-op.
    fn refill(&mut self, now: SimTime) {
        if now <= self.refilled_at {
            return;
        }
        let elapsed_ns = now.saturating_since(self.refilled_at).as_nanos() as u128;
        let gained = self.config.rate_bytes_per_sec as u128 * elapsed_ns;
        self.tokens_scaled = (self.tokens_scaled + gained).min(capacity_scaled(self.config));
        self.refilled_at = now;
    }

    /// The cost of a transfer, clamped to the bucket capacity so a single
    /// record larger than the whole burst allowance drains a full bucket
    /// instead of waiting forever.
    fn cost_scaled(&self, bytes: u64) -> u128 {
        (bytes as u128 * NS_PER_SEC).min(capacity_scaled(self.config))
    }

    /// The earliest instant ≥ `now` at which `bytes` could be charged.
    /// Refills the bucket to `now` as a side effect (monotone, so safe to call
    /// speculatively while scanning tenants).
    pub fn ready_at(&mut self, now: SimTime, bytes: u64) -> SimTime {
        if !self.is_limited() {
            return now;
        }
        self.refill(now);
        let cost = self.cost_scaled(bytes);
        if self.tokens_scaled >= cost {
            return now;
        }
        let missing = cost - self.tokens_scaled;
        let rate = self.config.rate_bytes_per_sec as u128;
        let wait_ns = missing.div_ceil(rate);
        now + Duration::from_nanos(wait_ns.min(u64::MAX as u128) as u64)
    }

    /// Charges `bytes` at `now`.  Call only when [`TokenBucket::ready_at`]
    /// returned a time ≤ `now`; charging early saturates at zero credit.
    pub fn charge(&mut self, now: SimTime, bytes: u64) {
        if !self.is_limited() {
            return;
        }
        self.refill(now);
        let cost = self.cost_scaled(bytes);
        self.tokens_scaled = self.tokens_scaled.saturating_sub(cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_us(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn unlimited_bucket_is_always_ready() {
        let mut bucket = TokenBucket::new(TokenBucketConfig::unlimited());
        assert!(!bucket.is_limited());
        assert_eq!(bucket.ready_at(at_us(5), u64::MAX), at_us(5));
        bucket.charge(at_us(5), u64::MAX);
        assert_eq!(bucket.ready_at(at_us(5), 1), at_us(5));
    }

    #[test]
    fn full_bucket_admits_up_to_capacity_then_throttles() {
        // 1 MB/s, 64 KB burst.
        let mut bucket = TokenBucket::new(TokenBucketConfig::new(1_000_000, 65_536));
        assert_eq!(bucket.ready_at(SimTime::ZERO, 65_536), SimTime::ZERO);
        bucket.charge(SimTime::ZERO, 65_536);
        // Empty now: 4096 bytes at 1 MB/s takes exactly 4_096_000 ns.
        let ready = bucket.ready_at(SimTime::ZERO, 4096);
        assert_eq!(ready.as_nanos(), 4_096_000);
        // After that wait the charge succeeds and re-empties the bucket.
        assert_eq!(bucket.ready_at(ready, 4096), ready);
    }

    #[test]
    fn refill_is_linear_and_capped() {
        let mut bucket = TokenBucket::new(TokenBucketConfig::new(1_000_000, 8192));
        bucket.charge(SimTime::ZERO, 8192);
        // 1 ms at 1 MB/s accrues 1000 bytes.
        assert_eq!(
            bucket.ready_at(SimTime::from_millis(1), 1000),
            SimTime::from_millis(1)
        );
        // Far in the future the bucket is full again, never over-full: a
        // 2×capacity charge still drains and the next byte must wait.
        let later = SimTime::from_millis(1_000);
        assert_eq!(bucket.ready_at(later, 16_384), later);
        bucket.charge(later, 16_384);
        assert!(bucket.ready_at(later, 1).as_nanos() > later.as_nanos());
    }

    #[test]
    fn oversized_record_cost_is_clamped_to_capacity() {
        let mut bucket = TokenBucket::new(TokenBucketConfig::new(1_000_000, 4096));
        // A 1 MB record can never fit a 4 KB bucket; it proceeds once the
        // bucket is full rather than waiting forever.
        assert_eq!(bucket.ready_at(SimTime::ZERO, 1 << 20), SimTime::ZERO);
        bucket.charge(SimTime::ZERO, 1 << 20);
        let next = bucket.ready_at(SimTime::ZERO, 4096);
        assert_eq!(next.as_nanos(), 4_096_000);
    }

    /// Regression: a bucket with a rate but zero capacity filled and
    /// refilled to 0 bytes yet clamped a record's cost to 1 byte, so
    /// `ready_at` promised a time at which the bucket was still short, and
    /// the tenant front, which waits for that time, never admitted a record.
    /// A drained bucket must be ready at the time `ready_at` promises, for
    /// every capacity.
    #[test]
    fn a_drained_bucket_is_ready_when_promised() {
        for capacity in [0, 1, 4096, 65_536] {
            let mut bucket = TokenBucket::new(TokenBucketConfig::new(1 << 20, capacity));
            bucket.charge(SimTime::ZERO, u64::MAX);
            let ready = bucket.ready_at(SimTime::ZERO, 4096);
            assert!(ready > SimTime::ZERO, "capacity {capacity}: drained");
            assert_eq!(
                bucket.ready_at(ready, 4096),
                ready,
                "capacity {capacity}: short at the promised time"
            );
        }
    }

    #[test]
    fn ready_at_is_monotone_in_now() {
        let mut bucket = TokenBucket::new(TokenBucketConfig::new(500_000, 16_384));
        bucket.charge(SimTime::ZERO, 16_384);
        let early = bucket.ready_at(at_us(10), 8192);
        let later = bucket.ready_at(at_us(20), 8192);
        assert!(later <= early.max(at_us(20)));
    }
}
