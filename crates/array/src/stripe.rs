//! The deterministic striping map: chunked round-robin over a configurable
//! stripe size.
//!
//! The array presents one logical byte address space; [`StripeMap`] carves it
//! into fixed-size stripes and deals them round-robin across the devices, like
//! RAID-0.  Global stripe `s` lives on device `s % n` at local stripe `s / n`,
//! which makes the byte map — and, when the stripe size is a multiple of the
//! flash page size, the LPN map — a bijection between the global address space
//! and the disjoint union of the devices' local address spaces.

use sprinkler_workloads::TraceRecord;

/// One piece of a split trace record: a contiguous local byte range on one
/// device.  Fragments of a record that land locally contiguous on the same
/// device (every *middle* stripe a device owns within a straddling record is
/// locally adjacent to its previous one) are coalesced into a single fragment,
/// so a 1-device array reproduces the original record exactly and a large
/// request becomes at most a handful of per-device requests, not one per
/// stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment {
    /// The device the fragment lands on.
    pub device: usize,
    /// Byte offset in the device's *local* address space.
    pub offset: u64,
    /// Fragment length in bytes (≥ 1).
    pub bytes: u64,
}

/// Chunked round-robin striping of a global byte address space over `devices`
/// devices.
///
/// # Example
///
/// ```
/// use sprinkler_array::StripeMap;
///
/// let map = StripeMap::new(4, 1024 * 1024);
/// let (device, local) = map.locate(5 * 1024 * 1024 + 17);
/// assert_eq!(device, 1); // stripe 5 → device 5 % 4
/// assert_eq!(local, 1024 * 1024 + 17); // local stripe 5 / 4 = 1
/// assert_eq!(map.to_global(device, local), 5 * 1024 * 1024 + 17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeMap {
    devices: usize,
    stripe_bytes: u64,
}

impl StripeMap {
    /// Creates a map dealing `stripe_bytes`-sized stripes over `devices`
    /// devices.
    ///
    /// # Panics
    ///
    /// Panics when `devices` or `stripe_bytes` is zero.
    pub fn new(devices: usize, stripe_bytes: u64) -> Self {
        assert!(devices >= 1, "an array needs at least one device");
        assert!(stripe_bytes >= 1, "stripes must be at least one byte");
        StripeMap {
            devices,
            stripe_bytes,
        }
    }

    /// Number of devices stripes are dealt across.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// The stripe size in bytes.
    pub fn stripe_bytes(&self) -> u64 {
        self.stripe_bytes
    }

    /// Maps a global byte offset to `(device, local byte offset)`.
    pub fn locate(&self, global_offset: u64) -> (usize, u64) {
        let stripe = global_offset / self.stripe_bytes;
        let device = (stripe % self.devices as u64) as usize;
        let local =
            (stripe / self.devices as u64) * self.stripe_bytes + global_offset % self.stripe_bytes;
        (device, local)
    }

    /// Inverse of [`StripeMap::locate`]: maps a device-local byte offset back
    /// to the global byte offset.
    pub fn to_global(&self, device: usize, local_offset: u64) -> u64 {
        debug_assert!(device < self.devices);
        let local_stripe = local_offset / self.stripe_bytes;
        let global_stripe = local_stripe * self.devices as u64 + device as u64;
        global_stripe * self.stripe_bytes + local_offset % self.stripe_bytes
    }

    /// Maps a global logical page number to `(device, local LPN)`.  Exact —
    /// pages never straddle devices — when the stripe size is a multiple of
    /// `page_size` (enforced by `ArrayConfig::validate`).
    pub fn locate_lpn(&self, lpn: u64, page_size: u64) -> (usize, u64) {
        debug_assert!(self.stripe_bytes.is_multiple_of(page_size));
        let (device, local) = self.locate(lpn * page_size);
        (device, local / page_size)
    }

    /// Inverse of [`StripeMap::locate_lpn`].
    pub fn lpn_to_global(&self, device: usize, local_lpn: u64, page_size: u64) -> u64 {
        self.to_global(device, local_lpn * page_size) / page_size
    }

    /// The exclusive upper bound on *local* byte extents device `device` can
    /// see from a source whose global footprint bound is `global_footprint`:
    /// the image of `[0, global_footprint)` on that device.
    pub fn local_footprint(&self, global_footprint: u64, device: usize) -> u64 {
        debug_assert!(device < self.devices);
        if global_footprint == 0 {
            return 0;
        }
        let n = self.devices as u64;
        let d = device as u64;
        let full = global_footprint / self.stripe_bytes;
        let tail = global_footprint % self.stripe_bytes;
        let total_stripes = full + u64::from(tail > 0);
        // Stripes owned by `device`: indices d, d+n, d+2n, ... below total.
        if total_stripes <= d {
            return 0;
        }
        let owned = (total_stripes - d - 1) / n + 1;
        let last_owned = d + (owned - 1) * n;
        let last_len = if last_owned == total_stripes - 1 && tail > 0 {
            tail
        } else {
            self.stripe_bytes
        };
        (owned - 1) * self.stripe_bytes + last_len
    }

    /// Splits one trace record at stripe boundaries into per-device fragments,
    /// in global address order, coalescing locally contiguous pieces.  The
    /// fragment byte lengths always sum to the record's length.
    ///
    /// Thin allocating wrapper over [`StripeMap::split_into`]; the streaming
    /// fanout reuses a scratch vector instead.
    pub fn split(&self, record: &TraceRecord) -> Vec<Fragment> {
        let mut fragments: Vec<Fragment> = Vec::with_capacity(2);
        self.split_into(record, &mut fragments);
        fragments
    }

    /// Allocation-free form of [`StripeMap::split`]: clears `out` and fills it
    /// with the record's fragments, reusing the vector's capacity.  This is
    /// the hot-path entry point — one split per streamed trace record.
    pub fn split_into(&self, record: &TraceRecord, out: &mut Vec<Fragment>) {
        out.clear();
        let mut offset = record.offset;
        let mut remaining = record.bytes.max(1);
        while remaining > 0 {
            let within = offset % self.stripe_bytes;
            let take = (self.stripe_bytes - within).min(remaining);
            let (device, local) = self.locate(offset);
            // Coalesce with the device's most recent fragment when locally
            // contiguous.  After coalescing the vec holds at most one entry
            // per device, so the backward scan is short.
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn locate_and_to_global_are_inverse() {
        let map = StripeMap::new(3, 4096);
        for offset in [0, 1, 4095, 4096, 12287, 12288, 999_999] {
            let (device, local) = map.locate(offset);
            assert!(device < 3);
            assert_eq!(map.to_global(device, local), offset);
        }
    }

    #[test]
    fn lpn_map_round_trips_and_respects_stripe_ownership() {
        let map = StripeMap::new(4, 8192); // 4 pages per stripe at 2 KB pages
        for lpn in 0..64 {
            let (device, local) = map.locate_lpn(lpn, 2048);
            assert_eq!(map.lpn_to_global(device, local, 2048), lpn);
            // Page's stripe decides the device.
            assert_eq!(device, ((lpn * 2048) / 8192 % 4) as usize);
        }
    }

    #[test]
    fn single_device_split_is_the_identity() {
        let map = StripeMap::new(1, 4096);
        let record = rec(1000, 20_000); // straddles several stripes
        let fragments = map.split(&record);
        assert_eq!(
            fragments,
            vec![Fragment {
                device: 0,
                offset: 1000,
                bytes: 20_000
            }]
        );
    }

    #[test]
    fn straddling_records_split_loss_free_in_order() {
        let map = StripeMap::new(2, 1000);
        // Bytes [500, 3700): stripe 0 tail (500), stripe 1 (1000), stripe 2
        // (1000), stripe 3 head (700).  Stripes 0 and 2 are device 0 and
        // locally contiguous ([500,1000) then [1000,2000)) → coalesce; stripes
        // 1 and 3 are device 1's local stripes 0 and 1 ([0,1000) then
        // [1000,1700)) → coalesce.
        let fragments = map.split(&rec(500, 3200));
        assert_eq!(fragments.len(), 2);
        assert_eq!(
            fragments[0],
            Fragment {
                device: 0,
                offset: 500,
                bytes: 1500
            }
        );
        assert_eq!(
            fragments[1],
            Fragment {
                device: 1,
                offset: 0,
                bytes: 1700
            }
        );
        let total: u64 = fragments.iter().map(|f| f.bytes).sum();
        assert_eq!(total, 3200);
    }

    #[test]
    fn fragments_map_back_to_the_original_range() {
        let map = StripeMap::new(5, 777);
        let record = rec(123, 10_000);
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for f in map.split(&record) {
            // Walk the fragment stripe by stripe back into global space.
            let mut local = f.offset;
            let mut left = f.bytes;
            while left > 0 {
                let within = local % 777;
                let take = (777 - within).min(left);
                covered.push((map.to_global(f.device, local), take));
                local += take;
                left -= take;
            }
        }
        covered.sort_unstable();
        let mut expect = record.offset;
        for (start, len) in covered {
            assert_eq!(start, expect, "global coverage has a gap or overlap");
            expect = start + len;
        }
        assert_eq!(expect, record.offset + record.bytes);
    }

    #[test]
    fn local_footprint_matches_a_brute_force_image() {
        for devices in [1, 2, 3, 4, 7] {
            let stripe = 64;
            let map = StripeMap::new(devices, stripe);
            for footprint in [0u64, 1, 63, 64, 65, 200, 448, 449, 1000] {
                // Brute force: the max local extent any byte below the
                // footprint reaches, per device.
                let mut expect = vec![0u64; devices];
                for b in 0..footprint {
                    let (d, local) = map.locate(b);
                    expect[d] = expect[d].max(local + 1);
                }
                for (d, &want) in expect.iter().enumerate() {
                    assert_eq!(
                        map.local_footprint(footprint, d),
                        want,
                        "devices={devices} footprint={footprint} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_is_rejected() {
        let _ = StripeMap::new(0, 4096);
    }
}
