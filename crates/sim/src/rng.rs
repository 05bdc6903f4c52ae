//! Deterministic random number generation.
//!
//! Every stochastic decision in the reproduction (synthetic trace generation, MLC
//! page-latency assignment, tie breaking) flows through [`DeterministicRng`], a
//! xoshiro256**-style generator seeded explicitly, so repeated runs of the same
//! experiment produce byte-identical results.

/// SplitMix64 generator, used to expand a single `u64` seed into the state of the
/// main generator.  Also usable on its own for cheap hashing-style randomness.
///
/// # Example
///
/// ```
/// use sprinkler_sim::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produces the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workhorse deterministic generator (xoshiro256**).
///
/// Provides the handful of distributions the simulator needs: uniform integers,
/// uniform floats, Bernoulli draws, exponential inter-arrival times, and a bounded
/// Pareto-ish heavy tail for request sizes.
///
/// # Example
///
/// ```
/// use sprinkler_sim::DeterministicRng;
///
/// let mut rng = DeterministicRng::seeded(7);
/// let x = rng.uniform_u64(10);
/// assert!(x < 10);
/// let p = rng.uniform_f64();
/// assert!((0.0..1.0).contains(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicRng {
    s: [u64; 4],
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        DeterministicRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Produces the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.  Returns 0 when `bound == 0`.
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire-style rejection-free reduction is fine for simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.uniform_f64();
        -mean * u.ln()
    }

    /// A bounded heavy-tailed draw in `[lo, hi]`, used for request sizes.
    /// `shape` controls tail heaviness: larger values concentrate near `lo`.
    pub fn bounded_pareto(&mut self, lo: f64, hi: f64, shape: f64) -> f64 {
        let lo = lo.max(1e-9);
        let hi = hi.max(lo);
        let u = self.uniform_f64();
        let ha = hi.powf(shape);
        let la = lo.powf(shape);
        let x = -(u * ha - u * la - ha) / (ha * la);
        x.powf(-1.0 / shape).clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_is_deterministic_for_same_seed() {
        let mut a = DeterministicRng::seeded(99);
        let mut b = DeterministicRng::seeded(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_differs_across_seeds() {
        let mut a = DeterministicRng::seeded(1);
        let mut b = DeterministicRng::seeded(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "different seeds should diverge");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DeterministicRng::seeded(5);
        for _ in 0..10_000 {
            assert!(rng.uniform_u64(17) < 17);
            let f = rng.uniform_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(rng.uniform_u64(0), 0);
    }

    #[test]
    fn uniform_covers_range() {
        let mut rng = DeterministicRng::seeded(11);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[rng.uniform_u64(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = DeterministicRng::seeded(3);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }

    #[test]
    fn bernoulli_rate_is_roughly_right() {
        let mut rng = DeterministicRng::seeded(17);
        let hits = (0..20_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = DeterministicRng::seeded(23);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(100.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut rng = DeterministicRng::seeded(31);
        for _ in 0..10_000 {
            let v = rng.bounded_pareto(4.0, 1024.0, 1.2);
            assert!((4.0..=1024.0).contains(&v), "v={v}");
        }
    }
}
