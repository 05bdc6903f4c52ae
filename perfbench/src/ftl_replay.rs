//! The `ssd.ftl` microbench: replays a run's host page stream through the
//! public [`Ftl`] functions the simulator calls on its behalf, on an FTL
//! built and pre-conditioned exactly as `Ssd::new` and `Ssd::precondition`
//! build it.
//!
//! Per page, the simulator previews the placement at admission, then
//! translates the read or allocates the write at delivery; with GC on, a
//! write whose plane fell to the watermark collects that plane.  The replay
//! makes the same calls in host-request order (the simulator interleaves
//! them by event time), so it estimates the FTL's host cost, not its exact
//! sequence.

use std::hint::black_box;
use std::time::Instant;

use sprinkler_ssd::ftl::Ftl;
use sprinkler_ssd::{HostRequest, SsdConfig};

/// What the replay measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtlReplay {
    /// Calls into the FTL.
    pub ops: u64,
    /// Wall time of those calls, ns.
    pub ns: u64,
    /// Host I/Os replayed.
    pub ios: u64,
    /// Plane collections the replay ran.
    pub gc_runs: u64,
    /// Writes the FTL could not place (device full).
    pub failed_allocs: u64,
}

/// Replays `requests` on a fresh FTL for `config`, pre-conditioned to
/// `fill` with `seed`.
pub fn replay(config: &SsdConfig, fill: f64, seed: u64, requests: &[HostRequest]) -> FtlReplay {
    let mut ftl = Ftl::new(
        config.geometry.clone(),
        config.allocation,
        config.gc.free_block_watermark,
    );
    ftl.precondition(fill, seed);
    let gc = config.gc.enabled;
    let mut out = FtlReplay {
        ios: requests.len() as u64,
        ..FtlReplay::default()
    };
    let start = Instant::now();
    for request in requests {
        for page in 0..request.pages {
            black_box(ftl.preview(request.lpn_at(page), request.direction));
        }
        out.ops += request.pages as u64;
        for page in 0..request.pages {
            let lpn = request.lpn_at(page);
            if request.direction.is_read() {
                black_box(ftl.translate_read(lpn));
                out.ops += 1;
                continue;
            }
            out.ops += 1;
            let Some(allocation) = ftl.allocate_write(lpn) else {
                out.failed_allocs += 1;
                continue;
            };
            if gc {
                let plane = ftl.plane_index_of_addr(allocation.addr);
                out.ops += 1;
                if ftl.needs_gc(plane) {
                    out.ops += 1;
                    if let Some(plan) = ftl.collect_plane(plane) {
                        black_box(&plan);
                        out.gc_runs += 1;
                    }
                }
            }
        }
    }
    out.ns = start.elapsed().as_nanos() as u64;
    out
}
