//! A fixed host-speed probe: tens of milliseconds of standard-library work
//! shaped like the simulator's hot loop but sharing none of its code, so no
//! change to the repository can change it.  Half of it is memory-bound (a
//! hash table larger than L2 plus a binary heap), half cache-resident (a
//! small table and heap hit many times): contention for memory and for a
//! shared core slow the two halves differently, as they slow different
//! workloads differently.
//!
//! On a shared machine, host speed drifts between runs by more than any
//! within-run median can hide.  Timing the probe around every pass measures
//! that drift; the host-time metrics are reported in *reference seconds*,
//! wall seconds scaled by [`REFERENCE_S`] ÷ the probe time around the pass.

use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// A fixed scale, about the probe's duration on an idle 2-core Xeon at
/// 2.0 GHz: a run whose probe takes this long reports wall-clock figures.
pub const REFERENCE_S: f64 = 0.040;

/// Runs the probe once and returns its wall time in seconds.
pub fn probe_s() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

fn kernel() -> u64 {
    // SplitMix64: a fixed key sequence, independent of the simulator's RNG.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // A fixed-key hasher, so every run probes the same table layout.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..(1u64 << 18) {
        let key = next() & 0x3_FFFF;
        *map.entry(key).or_insert(0) += i;
        heap.push(std::cmp::Reverse(next() & 0xFFFF));
        if heap.len() > 512 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        if let Some(value) = map.get(&(key ^ 1)) {
            acc ^= value;
        }
    }
    // The cache-resident half: a small table and heap, hit many times.
    let mut small: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut small_heap = BinaryHeap::new();
    for i in 0..(1u64 << 18) {
        let key = next() & 0x3FF;
        *small.entry(key).or_insert(0) += i;
        small_heap.push(std::cmp::Reverse(next() & 0xFFFF));
        if small_heap.len() > 64 {
            acc = acc.wrapping_add(small_heap.pop().map_or(0, |r| r.0));
        }
    }
    acc.wrapping_add(map.len() as u64)
        .wrapping_add(small.len() as u64)
}
