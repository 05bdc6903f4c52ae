//! Property-based tests over the public API: invariants that must hold for any
//! workload the generators can produce.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use sprinkler::array::{
    run_array, ArrayConfig, ArrayError, PlacementMap, RebalanceConfig, StripeRouter, MAX_DEVICES,
};
use sprinkler::core::faro::{FaroCandidate, FaroScratch, FaroSelector};
use sprinkler::core::reference::ReferenceScheduler;
use sprinkler::core::SchedulerKind;
use sprinkler::experiments::replay::record_to_request;
use sprinkler::experiments::to_host_requests;
use sprinkler::flash::{FlashGeometry, Lpn, PhysicalPageAddr};
use sprinkler::sim::SimTime;
use sprinkler::ssd::config::AllocationPolicy;
use sprinkler::ssd::ftl::{Allocator, Ftl};
use sprinkler::ssd::request::{Direction, HostRequest, TagId};
use sprinkler::ssd::scheduler::{Commitment, IoScheduler, SchedulerContext};
use sprinkler::ssd::{RunMetrics, Ssd, SsdConfig};
use sprinkler::workloads::{
    Locality, MalformedPolicy, SyntheticSpec, TextTraceSource, Trace, TraceOp, TraceRecord,
    TraceSource,
};

fn arb_direction() -> impl Strategy<Value = Direction> {
    prop_oneof![Just(Direction::Read), Just(Direction::Write)]
}

fn arb_requests(max: usize) -> impl Strategy<Value = Vec<HostRequest>> {
    prop::collection::vec(
        (0u64..2000, arb_direction(), 0u64..512, 1u32..24, 0u8..16),
        1..max,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (at, dir, lpn, pages, fua))| {
                HostRequest::new(
                    i as u64,
                    SimTime::from_micros(at),
                    dir,
                    Lpn::new(lpn),
                    pages,
                )
                .with_fua(fua == 0)
            })
            .collect()
    })
}

/// A small random device for the configuration fuzz: 1–3 channels of 1–3
/// chips, 1–3 blocks of 1–8 pages, a queue depth and commit cap of 1–16, any
/// allocation policy, and die and plane counts that are half the time at
/// most 8 and otherwise up to 128 — twice what the scheduler's candidate key
/// can tell apart.
fn arb_small_config() -> impl Strategy<Value = SsdConfig> {
    let fan_out = || prop_oneof![1usize..9, 1usize..129];
    (
        (1usize..4, 1usize..4, fan_out(), fan_out()),
        (1usize..4, 1usize..9),
        (1usize..17, 1usize..17, 0usize..3),
    )
        .prop_map(
            |((channels, chips, dies, planes), (blocks, pages), (depth, cap, policy))| {
                let mut config = SsdConfig::small_test();
                let g = &mut config.geometry;
                g.channels = channels;
                g.chips_per_channel = chips;
                g.dies_per_chip = dies;
                g.planes_per_die = planes;
                g.blocks_per_plane = blocks;
                g.pages_per_block = pages;
                config.queue_depth = depth;
                config.max_committed_per_chip = cap;
                config.allocation = [
                    AllocationPolicy::ChannelWayDiePlane,
                    AllocationPolicy::WayChannelDiePlane,
                    AllocationPolicy::DiePlaneChannelWay,
                ][policy];
                config
            },
        )
}

/// A chip's FARO candidates grouped by tag, as a scheduling round hands
/// them over: 1–40 tags of 1–40 rows, often of 1–4 so that tags cover
/// different (die, plane) pairs.  Dies and planes span up to 64 each
/// (4,096 pairs), up to 8, or only 1–3 so that a tag repeats its pairs;
/// pages are distinct within a tag but not in page order; and arrival ranks
/// are distinct or, half the time, drawn from 0–3 so that tags tie on them.
fn arb_faro_candidates() -> impl Strategy<Value = Vec<FaroCandidate>> {
    let span = || prop_oneof![1u32..4, 1u32..9, 1u32..65];
    let rows = (
        prop_oneof![1usize..5, 1usize..41],
        prop::collection::vec((0u32..64, 0u32..64), 40..41),
    );
    (
        (span(), span(), 0u8..2),
        prop::collection::vec((rows, 0usize..1000, 1u32..41), 1..41),
    )
        .prop_map(|((dies, planes, tied), tags)| {
            let mut candidates = Vec::new();
            for (index, ((len, rows), rank, stride)) in tags.into_iter().enumerate() {
                let arrival_rank = if tied == 0 {
                    rank % 4
                } else {
                    index * 1000 + rank
                };
                for (row, (die, plane)) in rows.into_iter().take(len).enumerate() {
                    candidates.push(FaroCandidate {
                        tag: TagId(index as u64),
                        // `stride` is a unit mod 41 and `row` is below 41.
                        page: (row as u32 * stride) % 41,
                        die: die % dies,
                        plane: plane % planes,
                        arrival_rank,
                    });
                }
            }
            candidates
        })
}

/// Runs `steps` — `(kind, raw LPN, plane)`: kinds 0–5 write, 6–8 read, 9
/// collects the plane, or writes past the logical space when the raw LPN is
/// odd — on a `small_test` FTL, checking it against a `HashMap` model after
/// every step.  LPNs are `(raw × stride) % span`.  Fewer than 400 writes
/// never fill the 1024-page device, since a collection frees at least as
/// many pages as it programs.
fn check_ftl_against_model(steps: &[(u8, u64, usize)], span: u64, stride: u64) {
    let geometry = FlashGeometry::small_test();
    let total = geometry.total_pages() as u64;
    let mut ftl = Ftl::new(geometry.clone(), AllocationPolicy::ChannelWayDiePlane, 1);
    // A fresh allocator gives the deterministic address of an unmapped read.
    let unmapped = Allocator::new(geometry.clone(), AllocationPolicy::ChannelWayDiePlane);
    let mut model: HashMap<Lpn, PhysicalPageAddr> = HashMap::new();
    for &(kind, raw, plane) in steps {
        let lpn = Lpn::new((raw * stride) % span);
        match kind {
            0..=5 => {
                let write = ftl.allocate_write(lpn).expect("the device never fills");
                assert_eq!(
                    write.invalidated,
                    model.get(&lpn).map(|&addr| geometry.ppn_of(addr)),
                    "{lpn:?}"
                );
                assert!(
                    model.values().all(|&addr| addr != write.addr),
                    "{lpn:?} was written over live data at {}",
                    write.addr
                );
                model.insert(lpn, write.addr);
            }
            6..=8 => {
                let expected = model
                    .get(&lpn)
                    .copied()
                    .unwrap_or_else(|| unmapped.deterministic_addr(lpn));
                assert_eq!(ftl.translate_read(lpn), expected, "{lpn:?}");
            }
            _ if raw % 2 == 1 => {
                let past = Lpn::new(total + raw);
                assert!(ftl.allocate_write(past).is_none(), "{past:?} was mapped");
            }
            _ => {
                let Some(plan) = ftl.collect_plane(plane) else {
                    continue;
                };
                assert_eq!(plan.plane_index, plane);
                let in_victim = |addr: &PhysicalPageAddr| {
                    ftl.plane_index_of_addr(*addr) == plane && addr.block == plan.victim_block
                };
                let mut expected: Vec<Lpn> = model
                    .iter()
                    .filter(|(_, addr)| in_victim(addr))
                    .map(|(&lpn, _)| lpn)
                    .collect();
                expected.sort_unstable();
                let mut migrated: Vec<Lpn> = plan.migrations.iter().map(|m| m.lpn).collect();
                migrated.sort_unstable();
                assert_eq!(
                    migrated, expected,
                    "plane {plane} block {}",
                    plan.victim_block
                );
                for m in &plan.migrations {
                    assert_eq!(model.insert(m.lpn, m.to), Some(m.from));
                    assert!(!in_victim(&m.to), "{:?} migrated into its victim", m.lpn);
                    assert_eq!(
                        m.crossed_plane,
                        ftl.plane_index_of_addr(m.to) != plane,
                        "{:?}",
                        m.lpn
                    );
                }
            }
        }
        assert_eq!(ftl.mapped_pages(), model.len());
        assert_eq!(ftl.live_pages(), model.len() as u64);
    }
}

/// A shared log of (tag, page) commitments, filled as the simulation runs.
type CommitmentLog = Arc<Mutex<Vec<(TagId, u32)>>>;

/// Wraps a scheduler and records every commitment it emits, so two runs can be
/// compared decision by decision.
#[derive(Debug)]
struct RecordingScheduler {
    inner: Box<dyn IoScheduler>,
    log: CommitmentLog,
}

impl RecordingScheduler {
    fn new(inner: Box<dyn IoScheduler>) -> (Self, CommitmentLog) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (
            RecordingScheduler {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl IoScheduler for RecordingScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initialize(&mut self, geometry: &FlashGeometry) {
        self.inner.initialize(geometry);
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<sprinkler::sim::TelemetryCounters>) {
        self.inner.attach_telemetry(telemetry);
    }

    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        // Debug-build invariant check, exercised on *every* scheduling round of
        // every property-test replay: the queue's internal indexes must match a
        // from-scratch rebuild, and the ledger/hazard/FUA-horizon structures
        // must agree with the per-tag commit/complete masks.  Compiles to a
        // no-op in release builds.
        sprinkler::ssd::validate_context(ctx);
        let start = out.len();
        self.inner.schedule_into(ctx, out);
        let mut log = self.log.lock().unwrap();
        log.extend(out[start..].iter().map(|c| (c.tag, c.page)));
    }

    fn on_complete(&mut self, tag: TagId, page: u32) {
        self.inner.on_complete(tag, page);
    }

    fn supports_readdressing(&self) -> bool {
        self.inner.supports_readdressing()
    }

    fn on_readdress(&mut self, migration: &sprinkler::ssd::ftl::PageMigration) {
        self.inner.on_readdress(migration);
    }
}

/// Wraps a scheduler and tracks the highest per-chip outstanding count the
/// scheduler context ever exposes, so the ledger's cap invariant can be checked
/// over whole simulations.
#[derive(Debug)]
struct CapProbe {
    inner: Box<dyn IoScheduler>,
    peak_outstanding: Arc<Mutex<usize>>,
}

impl CapProbe {
    fn new(inner: Box<dyn IoScheduler>) -> (Self, Arc<Mutex<usize>>) {
        let peak = Arc::new(Mutex::new(0));
        (
            CapProbe {
                inner,
                peak_outstanding: Arc::clone(&peak),
            },
            peak,
        )
    }
}

impl IoScheduler for CapProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initialize(&mut self, geometry: &FlashGeometry) {
        self.inner.initialize(geometry);
    }

    fn attach_telemetry(&mut self, telemetry: &Arc<sprinkler::sim::TelemetryCounters>) {
        self.inner.attach_telemetry(telemetry);
    }

    fn schedule_into(&mut self, ctx: &SchedulerContext<'_>, out: &mut Vec<Commitment>) {
        let round_peak = (0..ctx.chip_count())
            .map(|chip| ctx.outstanding(chip))
            .max()
            .unwrap_or(0);
        let mut peak = self.peak_outstanding.lock().unwrap();
        *peak = (*peak).max(round_peak);
        drop(peak);
        self.inner.schedule_into(ctx, out);
    }

    fn on_complete(&mut self, tag: TagId, page: u32) {
        self.inner.on_complete(tag, page);
    }

    fn supports_readdressing(&self) -> bool {
        self.inner.supports_readdressing()
    }

    fn on_readdress(&mut self, migration: &sprinkler::ssd::ftl::PageMigration) {
        self.inner.on_readdress(migration);
    }
}

/// Runs a trace under a scheduler and returns the metrics plus the exact
/// commitment stream the scheduler produced.
fn run_recorded(
    config: &SsdConfig,
    scheduler: Box<dyn IoScheduler>,
    requests: &[HostRequest],
) -> (RunMetrics, Vec<(TagId, u32)>) {
    let (recording, log) = RecordingScheduler::new(scheduler);
    let ssd = Ssd::new(config.clone(), Box::new(recording)).unwrap();
    let metrics = ssd.run(requests.to_vec());
    let stream = log.lock().unwrap().clone();
    (metrics, stream)
}

/// Replays `requests` under `kind` and under its reference twin on
/// `config`, and asserts byte-identical commitment streams and equal I/O,
/// byte, transaction and latency accounting.
fn check_against_reference_twin(config: &SsdConfig, kind: SchedulerKind, requests: &[HostRequest]) {
    let (fast_metrics, fast_stream) = run_recorded(config, kind.build(), requests);
    let (ref_metrics, ref_stream) =
        run_recorded(config, Box::new(ReferenceScheduler::new(kind)), requests);
    assert_eq!(
        &fast_stream, &ref_stream,
        "{kind} commitment stream diverges from its reference"
    );
    assert_eq!(fast_metrics.io_count, ref_metrics.io_count);
    assert_eq!(fast_metrics.memory_requests, ref_metrics.memory_requests);
    assert_eq!(fast_metrics.bytes_read, ref_metrics.bytes_read);
    assert_eq!(fast_metrics.bytes_written, ref_metrics.bytes_written);
    assert_eq!(fast_metrics.transactions, ref_metrics.transactions);
    assert_eq!(fast_metrics.avg_latency_ns, ref_metrics.avg_latency_ns);
    assert_eq!(fast_metrics.p99_latency_ns, ref_metrics.p99_latency_ns);
    assert_eq!(fast_metrics.elapsed_ns, ref_metrics.elapsed_ns);
}

/// The exclusive upper bound on the local bytes `device` sees of a global
/// footprint of `footprint` bytes striped round-robin in `stripe_bytes`
/// stripes over `devices` devices: its owned stripes below the footprint,
/// the last one cut short when the footprint ends inside it.
fn footprint_image(footprint: u64, devices: usize, stripe_bytes: u64, device: usize) -> u64 {
    let (n, d) = (devices as u64, device as u64);
    let stripes = footprint.div_ceil(stripe_bytes);
    if stripes <= d {
        return 0;
    }
    // Device `d` owns stripes d, d + n, d + 2n, … below `stripes`.
    let owned = (stripes - d - 1) / n + 1;
    let last = d + (owned - 1) * n;
    let last_len = if last == stripes - 1 {
        footprint - last * stripe_bytes
    } else {
        stripe_bytes
    };
    (owned - 1) * stripe_bytes + last_len
}

#[test]
fn local_footprint_matches_a_brute_force_image() {
    for devices in [1, 2, 3, 4, 7] {
        let stripe = 64;
        let map = PlacementMap::round_robin(devices, stripe, 0, vec![u64::MAX; devices]);
        for footprint in [0u64, 1, 63, 64, 65, 200, 448, 449, 1000] {
            // Brute force: the max local extent any byte below the footprint
            // reaches, per device.
            let mut expect = vec![0u64; devices];
            for b in 0..footprint {
                let (d, local) = map.locate(b);
                expect[d] = expect[d].max(local + 1);
            }
            for (d, &want) in expect.iter().enumerate() {
                assert_eq!(
                    footprint_image(footprint, devices, stripe, d),
                    want,
                    "devices={devices} footprint={footprint} d={d}"
                );
            }
        }
    }
}

proptest! {
    // The ceiling is deliberately high: the vendored proptest honors
    // `PROPTEST_CASES` as a *cap*, so everyday runs (CI exports
    // `PROPTEST_CASES=16`) stay fast while the dedicated stress step runs the
    // full 256 cases against the reference twins (`PROPTEST_CASES=256`, see
    // .github/workflows/ci.yml).
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every admitted I/O completes, whatever the arrival pattern, under every
    /// scheduler.
    #[test]
    fn no_io_is_ever_lost(requests in arb_requests(40), scheduler_index in 0usize..5) {
        let kind = SchedulerKind::ALL[scheduler_index];
        let expected = requests.len() as u64;
        let config = SsdConfig::small_test();
        let ssd = Ssd::new(config, kind.build()).unwrap();
        let metrics = ssd.run(requests);
        prop_assert_eq!(metrics.io_count, expected);
        prop_assert!(metrics.avg_latency_ns > 0.0);
    }

    /// `SsdConfig::validate` is the only check a config passes before a
    /// device is built: for any small device it either refuses the config
    /// with a typed error, which `Ssd::new` returns too, or the device it
    /// accepts completes a short multi-page mixed replay, FUA included,
    /// under VAS and SPK3.  Sometimes the replay also carries up to two
    /// requests each longer than a candidate key's 20-bit page field, of zero
    /// pages, or whose LPN range runs past `u64::MAX`: the device refuses
    /// exactly those and completes every other I/O.
    #[test]
    fn validated_configs_complete_every_io(
        config in arb_small_config(),
        specs in prop::collection::vec(
            (0u64..100, arb_direction(), 0u64..1 << 32, 1u32..40, 0u8..6),
            1..8,
        ),
        oversized in prop::collection::vec(
            (0u64..100, arb_direction(), 1u32..1 << 12),
            0..3,
        ),
        empty in prop::collection::vec((0u64..100, arb_direction(), 0u64..1 << 32), 0..3),
        past_end in prop::collection::vec((0u64..100, arb_direction(), 0u64..4, 0u32..4), 0..3),
    ) {
        if let Err(error) = config.validate() {
            let built = Ssd::new(config, SchedulerKind::Vas.build());
            prop_assert_eq!(built.err(), Some(error));
            return;
        }
        let space = config.geometry.total_pages() as u64;
        let requests: Vec<HostRequest> = specs
            .iter()
            .enumerate()
            .map(|(i, &(at, dir, lpn, pages, fua))| {
                let start = lpn % space;
                let pages = pages.min((space - start) as u32);
                HostRequest::new(i as u64, SimTime::from_micros(at), dir, Lpn::new(start), pages)
                    .with_fua(fua == 0)
            })
            .collect();
        let too_long = oversized.iter().enumerate().map(|(i, &(at, dir, extra))| {
            let id = (specs.len() + i) as u64;
            HostRequest::new(id, SimTime::from_micros(at), dir, Lpn::new(0), (1 << 20) + extra)
        });
        // `HostRequest::new` clamps to one page; the public field does not.
        let zero_pages = empty.iter().enumerate().map(|(i, &(at, dir, lpn))| {
            let id = (specs.len() + oversized.len() + i) as u64;
            let start = Lpn::new(lpn % space);
            HostRequest { pages: 0, ..HostRequest::new(id, SimTime::from_micros(at), dir, start, 1) }
        });
        // The last page would sit `extra + 1` LPNs past `u64::MAX`.
        let wrapping = past_end.iter().enumerate().map(|(i, &(at, dir, back, extra))| {
            let id = (specs.len() + oversized.len() + empty.len() + i) as u64;
            let start = Lpn::new(u64::MAX - back);
            HostRequest::new(id, SimTime::from_micros(at), dir, start, back as u32 + 2 + extra)
        });
        let replay: Vec<HostRequest> = requests
            .iter()
            .cloned()
            .chain(too_long)
            .chain(zero_pages)
            .chain(wrapping)
            .collect();
        let refused = (oversized.len() + empty.len() + past_end.len()) as u64;
        for kind in [SchedulerKind::Vas, SchedulerKind::Spk3] {
            let metrics = Ssd::new(config.clone(), kind.build()).unwrap().run(replay.clone());
            prop_assert_eq!(metrics.io_count, requests.len() as u64, "{} lost I/Os", kind);
            prop_assert_eq!(metrics.refused_ios, refused, "{}", kind);
        }
    }

    /// Byte accounting matches the requested transfer sizes exactly.
    #[test]
    fn byte_accounting_is_exact(requests in arb_requests(30)) {
        let config = SsdConfig::small_test();
        let page = config.page_size() as u64;
        let expected_read: u64 = requests.iter()
            .filter(|r| r.direction.is_read())
            .map(|r| r.pages as u64 * page)
            .sum();
        let expected_written: u64 = requests.iter()
            .filter(|r| r.direction.is_write())
            .map(|r| r.pages as u64 * page)
            .sum();
        let ssd = Ssd::new(config, SchedulerKind::Spk3.build()).unwrap();
        let metrics = ssd.run(requests);
        prop_assert_eq!(metrics.bytes_read, expected_read);
        prop_assert_eq!(metrics.bytes_written, expected_written);
    }

    /// The run window and latency histogram are exact for any workload and
    /// scheduler: the window endpoints reproduce the elapsed time, and the
    /// shared-bound buckets hold exactly one count per completed I/O (the
    /// invariant the array summary's dropped-histogram bug violated).
    #[test]
    fn window_and_histogram_invariants_hold(
        requests in arb_requests(30),
        scheduler_index in 0usize..5,
    ) {
        let kind = SchedulerKind::ALL[scheduler_index];
        let ssd = Ssd::new(SsdConfig::small_test(), kind.build()).unwrap();
        let m = ssd.run(requests);
        prop_assert_eq!(m.run_end_ns - m.run_start_ns, m.elapsed_ns);
        prop_assert_eq!(m.latency_buckets.iter().sum::<u64>(), m.io_count);
    }

    /// The same invariants survive the array summary flattening: the summary's
    /// window spans the union elapsed, and its histogram is the elementwise
    /// sum of every device's buckets — one count per device-level I/O.
    #[test]
    fn array_summary_window_and_histogram_invariants_hold(
        requests in arb_requests(24),
        scheduler_index in 0usize..5,
        width in 1usize..5,
    ) {
        let kind = SchedulerKind::ALL[scheduler_index];
        let device = SsdConfig::small_test();
        let page = device.page_size() as u64;
        let records: Vec<TraceRecord> = requests
            .iter()
            .map(|r| TraceRecord {
                id: r.id,
                arrival: r.arrival,
                op: if r.direction.is_read() { TraceOp::Read } else { TraceOp::Write },
                offset: r.start_lpn.value() * page,
                bytes: r.pages as u64 * page,
            })
            .collect();
        let trace = Trace::new("prop-array", records);
        let config = ArrayConfig::new(device)
            .with_devices(width)
            .with_stripe_kb(64);
        // Workloads past the striped footprint are rejected, not summarized.
        if let Ok(array) = run_array(&config, kind, &mut trace.source()) {
            let summary = &array.summary;
            prop_assert_eq!(summary.run_end_ns - summary.run_start_ns, summary.elapsed_ns);
            prop_assert_eq!(
                summary.latency_buckets.iter().sum::<u64>(),
                summary.io_count
            );
            prop_assert_eq!(
                sprinkler::ssd::merged_latency_quantile([summary], 0.99),
                summary.p99_latency_ns
            );
        }
    }

    /// Metric fractions stay within their mathematical bounds.
    #[test]
    fn metric_fractions_are_bounded(requests in arb_requests(30), scheduler_index in 0usize..5) {
        let kind = SchedulerKind::ALL[scheduler_index];
        let ssd = Ssd::new(SsdConfig::small_test(), kind.build()).unwrap();
        let m = ssd.run(requests);
        prop_assert!((0.0..=1.0).contains(&m.chip_utilization));
        prop_assert!((0.0..=1.0).contains(&m.inter_chip_idleness));
        prop_assert!((0.0..=1.0).contains(&m.intra_chip_idleness));
        let flp_sum: f64 = m.flp.as_array().iter().sum();
        prop_assert!(flp_sum == 0.0 || (flp_sum - 1.0).abs() < 1e-9);
        let exec = m.execution;
        let exec_sum = exec.bus_operation + exec.bus_contention + exec.memory_operation + exec.idle;
        prop_assert!(exec_sum <= 1.0 + 1e-6);
        prop_assert!(m.memory_requests >= m.transactions);
    }

    /// Physical page addressing round-trips through the flat PPN encoding for any
    /// geometry shape.
    #[test]
    fn ppn_round_trip_holds_for_any_geometry(
        channels in 1usize..6,
        ways in 1usize..6,
        dies in 1usize..4,
        planes in 1usize..4,
        blocks in 1usize..12,
        pages in 1usize..16,
        sample in 0u64..10_000,
    ) {
        let geometry = FlashGeometry {
            channels,
            chips_per_channel: ways,
            dies_per_chip: dies,
            planes_per_die: planes,
            blocks_per_plane: blocks,
            pages_per_block: pages,
            page_size: 2048,
        };
        let total = geometry.total_pages() as u64;
        let ppn = sprinkler::flash::Ppn::new(sample % total);
        let addr = geometry.addr_of(ppn);
        prop_assert!(geometry.check_addr(addr).is_ok());
        prop_assert_eq!(geometry.ppn_of(addr), ppn);
    }

    /// The dense FTL agrees with a `HashMap` model of the page map through
    /// random writes, overwrites, reads, plane collections and writes past
    /// the logical space: reads resolve where the model says, a write
    /// invalidates exactly the LPN's previous location, a GC plan migrates
    /// exactly the model's LPNs in its victim block, and the mapped and live
    /// page counts equal the model's size.  A stride of 16 sends every LPN
    /// to plane 0, so planes overflow and writes spill.
    #[test]
    fn ftl_matches_a_hash_map_model(
        steps in prop::collection::vec((0u8..10, 0u64..4096, 0usize..16), 1..400),
        span in prop_oneof![Just(48u64), Just(300), Just(1024)],
        stride in prop_oneof![Just(1u64), Just(16)],
    ) {
        check_ftl_against_model(&steps, span, stride);
    }

    /// Differential test for the scheduler hot-path refactor: every optimized
    /// scheduler (index-driven hazard checks, incremental per-chip candidates,
    /// reusable scratch buffers) must produce *commitment streams byte-identical*
    /// to its naive full-scan reference twin, and agree exactly on I/O and byte
    /// accounting, across random traces with mixed directions, sizes, and FUA
    /// barriers.
    ///
    /// Re-derived for the corrected commitment accounting: both twins now run
    /// against the `CommitmentLedger`, whose per-round headroom is the full
    /// `max_committed_per_chip` (the seed double-counted same-round commits),
    /// so the expected streams differ from the seed's — but fast and reference
    /// must still agree commitment by commitment.
    ///
    /// "Optimized" means the indexed round path: per-chip row lists with
    /// packed (page, die, plane) priority keys, hazard chains, the tags'
    /// page entries, and the slice-based ledger reads.  The reference twin
    /// still walks the queue naively (`sprinkler_core::reference`), and the
    /// `RecordingScheduler` wrapper additionally cross-validates the candidate
    /// index against a from-scratch rebuild on every round of both replays.
    #[test]
    fn refactored_schedulers_match_their_reference_twins(
        requests in arb_requests(40),
        scheduler_index in 0usize..5,
    ) {
        let kind = SchedulerKind::ALL[scheduler_index];
        check_against_reference_twin(&SsdConfig::small_test(), kind, &requests);
    }

    /// The same differential check on devices wider than one word of the
    /// resource-driven round's rank bitmap: 128 chips fill two words, and
    /// 130 round up to 136 chips (8 channels of 17), three words with the
    /// last one partial, so a round marks and sweeps chips in several words.
    #[test]
    fn reference_twins_match_past_one_bitmap_word(
        requests in arb_requests(40),
        scheduler_index in 0usize..5,
        chips in prop_oneof![Just(128usize), Just(130)],
    ) {
        let kind = SchedulerKind::ALL[scheduler_index];
        let config = SsdConfig::small_test().with_chip_count(chips);
        check_against_reference_twin(&config, kind, &requests);
    }

    /// FARO's one-pass ranking picks what Algorithm 1 as written picks
    /// (`FaroSelector::select`, the oracle the reference scheduler calls),
    /// in the same order, and takes the fast path exactly when one tag holds
    /// every candidate.  Each case selects from the whole set and then from
    /// the set without its first tag, on one scratch, so stamps left by one
    /// selection must not leak into the next.
    #[test]
    fn one_pass_faro_matches_algorithm_one(
        candidates in arb_faro_candidates(),
        capacity in 0usize..21,
    ) {
        let selector = FaroSelector;
        let mut scratch = FaroScratch::default();
        let first_tag = candidates[0].tag;
        let later = candidates.iter().position(|c| c.tag != first_tag);
        let sets = [&candidates[..], later.map_or(&[][..], |at| &candidates[at..])];
        for set in sets {
            let mut out = vec![(TagId(u64::MAX), 0)];
            let fast = selector.select_into(set, capacity, &mut out, &mut scratch);
            prop_assert_eq!(out[0], (TagId(u64::MAX), 0), "earlier output was overwritten");
            prop_assert_eq!(&out[1..], &selector.select(set, capacity)[..]);
            let one_tag = !set.is_empty() && set.iter().all(|c| c.tag == set[0].tag);
            prop_assert_eq!(fast, one_tag && capacity > 0);
        }
    }

    /// The ledger's hard cap holds under every scheduler and any workload the
    /// generators produce: at the start of every scheduling round, no chip holds
    /// more than `max_committed_per_chip` committed-but-incomplete memory
    /// requests.  Together with the deterministic full-headroom regression test
    /// in `crates/ssd/src/ssd.rs`, this brackets the corrected semantics from
    /// both sides: the cap is never exceeded and never halved.
    #[test]
    fn commitment_cap_is_enforced_with_full_headroom(
        requests in arb_requests(40),
        scheduler_index in 0usize..5,
    ) {
        let kind = SchedulerKind::ALL[scheduler_index];
        let config = SsdConfig::small_test();
        let cap = config.max_committed_per_chip;
        let (probe, peak) = CapProbe::new(kind.build());
        let ssd = Ssd::new(config, Box::new(probe)).unwrap();
        let metrics = ssd.run(requests);
        prop_assert!(metrics.io_count > 0);
        let peak = *peak.lock().unwrap();
        prop_assert!(
            peak <= cap,
            "{} let a chip reach {} outstanding commitments (cap {})",
            kind,
            peak,
            cap
        );
    }

    /// Synthetic traces always respect their configured footprint and sizes:
    /// the *whole access* (`offset + bytes`) stays inside the footprint — the
    /// seed only bounded the offset, spilling up to 4 MB past it.
    #[test]
    fn synthetic_traces_respect_their_spec(
        read_fraction in 0.0f64..1.0,
        footprint_mb in 16u64..256,
        seed in 0u64..1000,
    ) {
        let spec = SyntheticSpec::new("prop")
            .with_read_fraction(read_fraction)
            .with_footprint_mb(footprint_mb)
            .with_locality(Locality::Medium);
        let trace = spec.generate(200, seed);
        prop_assert_eq!(trace.len(), 200);
        for record in trace.iter() {
            prop_assert!(record.offset + record.bytes <= footprint_mb * 1024 * 1024);
            prop_assert!(record.bytes >= 512);
        }
    }

    /// Lazily streamed generation is record-for-record identical to eager
    /// generation, and the stream honours its declared footprint bound.
    #[test]
    fn synthetic_stream_is_the_lazy_twin_of_generate(
        footprint_mb in 8u64..128,
        seed in 0u64..1000,
        locality_index in 0usize..3,
    ) {
        let locality = [Locality::Low, Locality::Medium, Locality::High][locality_index];
        let spec = SyntheticSpec::new("lazy")
            .with_footprint_mb(footprint_mb)
            .with_locality(locality);
        let trace = spec.generate(150, seed);
        let mut stream = spec.stream(150, seed);
        let bound = stream.footprint_bytes();
        for expected in trace.iter() {
            let got = stream.next_record();
            prop_assert_eq!(got.as_ref(), Some(expected));
            prop_assert!(expected.offset + expected.bytes <= bound);
        }
        prop_assert!(stream.next_record().is_none());
    }

    /// Text round trip: any synthetic trace written as MSR-style CSV and
    /// parsed back through the streaming `TraceSource` boundary preserves the
    /// converted host requests' LPN ranges, directions, and arrival order.
    #[test]
    fn parsed_traces_preserve_lpn_ranges_and_arrival_order(
        footprint_mb in 8u64..128,
        seed in 0u64..1000,
        read_fraction in 0.0f64..1.0,
    ) {
        let spec = SyntheticSpec::new("roundtrip")
            .with_read_fraction(read_fraction)
            .with_footprint_mb(footprint_mb);
        let trace = spec.generate(120, seed);
        let csv = sprinkler::workloads::parse::write_msr_csv("prop", trace.iter());
        let mut source = TextTraceSource::from_text("roundtrip", csv)
            .with_policy(MalformedPolicy::Error);

        let page_size = 2048;
        let original = to_host_requests(&trace, page_size);
        let mut index = 0usize;
        let mut last_arrival = SimTime::ZERO;
        while let Some(record) = source.next_record() {
            let request = &original[index];
            // Same pages, same direction, same order.
            let (lpn, pages) = record.pages(page_size);
            prop_assert_eq!(lpn, request.start_lpn.value());
            prop_assert_eq!(pages, request.pages);
            prop_assert_eq!(record.op.is_read(), request.direction.is_read());
            // Arrival order is preserved and nondecreasing.
            prop_assert!(record.arrival >= last_arrival);
            last_arrival = record.arrival;
            index += 1;
        }
        prop_assert!(source.error().is_none(), "round trip must parse cleanly");
        prop_assert_eq!(index, original.len());
    }

    /// A static array's map (one that tracks no stripe) is an LPN bijection
    /// within the array footprint: `locate_lpn` round-trips through
    /// `lpn_to_global` for every page, distinct global LPNs never collide on
    /// the same (device, local) pair, and each device's highest local page
    /// ends exactly at its image of the footprint.
    #[test]
    fn stripe_lpn_map_is_a_bijection_within_the_footprint(
        devices in 1usize..8,
        stripe_pages in 1u64..32,
        footprint_pages in 1u64..512,
    ) {
        let page = 2048u64;
        let stripe_bytes = stripe_pages * page;
        let map = PlacementMap::round_robin(devices, stripe_bytes, 0, vec![u64::MAX; devices]);
        let mut seen = std::collections::HashSet::new();
        let mut extent = vec![0u64; devices];
        for lpn in 0..footprint_pages {
            let (device, local) = map.locate_lpn(lpn, page);
            prop_assert!(device < devices);
            prop_assert_eq!(
                map.lpn_to_global(device, local, page),
                lpn,
                "LPN map must round-trip"
            );
            prop_assert!(
                seen.insert((device, local)),
                "distinct LPNs must map to distinct (device, local) pairs"
            );
            extent[device] = extent[device].max((local + 1) * page);
        }
        for (device, &extent) in extent.iter().enumerate() {
            prop_assert_eq!(
                extent,
                footprint_image(footprint_pages * page, devices, stripe_bytes, device)
            );
        }
    }

    /// Splitting a straddling record is loss-free: fragment bytes sum to the
    /// record's bytes, every fragment maps back inside the record's global
    /// range, and no two fragments land on the same device (coalescing merges
    /// a device's locally contiguous pieces).
    #[test]
    fn stripe_splits_are_loss_free(
        devices in 1usize..8,
        stripe_pages in 1u64..16,
        offset in 0u64..(1 << 22),
        bytes in 1u64..(1 << 20),
    ) {
        let map = PlacementMap::round_robin(devices, stripe_pages * 2048, 0, vec![u64::MAX; devices]);
        let record = sprinkler::workloads::TraceRecord {
            id: 0,
            arrival: SimTime::ZERO,
            op: sprinkler::workloads::TraceOp::Write,
            offset,
            bytes,
        };
        let mut fragments = Vec::new();
        map.split_into(&record, &mut fragments);
        let total: u64 = fragments.iter().map(|f| f.bytes).sum();
        prop_assert_eq!(total, bytes, "split must preserve byte totals");
        let mut devices_seen = std::collections::HashSet::new();
        for fragment in &fragments {
            prop_assert!(fragment.bytes >= 1);
            prop_assert!(
                devices_seen.insert(fragment.device),
                "coalescing must leave one fragment per device"
            );
            // The fragment's first byte maps back into the record's range.
            let global = map.to_global(fragment.device, fragment.offset);
            prop_assert!(global >= offset && global < offset + bytes);
        }
    }

    /// Every device's share of a routed trace is a valid request stream:
    /// arrivals nondecreasing, ids dense, fragments within the device's
    /// image of the source's footprint — and the shares together preserve
    /// the source's byte totals.
    #[test]
    fn striped_substreams_are_valid_trace_sources(
        devices in 1usize..6,
        stripe_kb in 1u64..256,
        seed in 0u64..500,
    ) {
        let spec = SyntheticSpec::new("fanout").with_footprint_mb(16);
        let expected: u64 = spec.generate(120, seed).iter().map(|r| r.bytes).sum();
        let mut source = spec.stream(120, seed);
        let footprint = source.footprint_bytes();
        let stripe_bytes = stripe_kb * 1024;
        let map = PlacementMap::round_robin(devices, stripe_bytes, 0, vec![u64::MAX; devices]);
        let mut router = StripeRouter::new(map, None);
        let mut routed = Vec::new();
        let mut last_arrival = vec![SimTime::ZERO; devices];
        let mut next_id = vec![0u64; devices];
        let mut total = 0u64;
        while let Some(record) = source.next_record() {
            router.route(&record, &mut routed);
            for (device, fragment) in routed.drain(..) {
                prop_assert!(
                    fragment.arrival >= last_arrival[device],
                    "arrivals must be nondecreasing"
                );
                prop_assert_eq!(fragment.id, next_id[device], "fragment ids must be dense");
                prop_assert!(
                    fragment.offset + fragment.bytes
                        <= footprint_image(footprint, devices, stripe_bytes, device),
                    "fragments must respect the local footprint bound"
                );
                last_arrival[device] = fragment.arrival;
                next_id[device] += 1;
                total += fragment.bytes;
            }
        }
        prop_assert_eq!(total, expected, "routing must preserve byte totals");
    }

    /// The array replay's channels neither drop, repeat nor reorder a
    /// fragment: for any width 1–4, stripe of 1–16 pages, rebalancing off or
    /// on (a window of 1–8 records) and up to 24 records within capacity,
    /// each device's metrics from `run_array` equal a bare
    /// `Ssd::run_stream` over that device's share as a serial
    /// `StripeRouter` routes it, and the placement counters match the
    /// serial router's.
    #[test]
    fn array_replay_matches_serial_routing(
        width in 1usize..5,
        stripe_pages in 1u64..17,
        window in prop_oneof![Just(None), (1u64..9).prop_map(Some)],
        specs in prop::collection::vec(
            (0u64..2000, arb_direction(), 0u64..1 << 32, 1u64..40),
            1..25,
        ),
        scheduler_index in 0usize..5,
    ) {
        let kind = SchedulerKind::ALL[scheduler_index];
        let device = SsdConfig::small_test();
        let page = device.page_size() as u64;
        let mut config = ArrayConfig::new(device).with_devices(width);
        config.stripe_bytes = stripe_pages * page;
        if let Some(window_records) = window {
            // The lowest trigger the validator accepts: any imbalance moves
            // a stripe, so short traces migrate too.
            config = config.with_rebalance(RebalanceConfig {
                window_records,
                trigger_ratio: 1.0,
                ..RebalanceConfig::default()
            });
        }
        let capacity_pages = config.logical_capacity_bytes() / page;
        let records = specs
            .iter()
            .enumerate()
            .map(|(i, &(at, dir, lpn, pages))| {
                let start = lpn % capacity_pages;
                TraceRecord {
                    id: i as u64,
                    arrival: SimTime::from_micros(at),
                    op: if dir.is_read() { TraceOp::Read } else { TraceOp::Write },
                    offset: start * page,
                    bytes: pages.min(capacity_pages - start) * page,
                }
            })
            .collect();
        let trace = Trace::new("serial", records);
        let array = run_array(&config, kind, &mut trace.source()).unwrap();

        let mut router = config.router(trace.source().footprint_bytes());
        let mut shares = vec![Vec::new(); width];
        let mut routed = Vec::new();
        for record in trace.iter() {
            router.route(record, &mut routed);
            for (device, fragment) in routed.drain(..) {
                shares[device].push(record_to_request(&fragment, page as usize));
            }
        }
        prop_assert_eq!(array.devices.len(), width);
        for (device, share) in shares.into_iter().enumerate() {
            let ssd = Ssd::new(config.device(device).clone(), kind.build()).unwrap();
            prop_assert_eq!(&array.devices[device], &ssd.run_stream(share), "device {}", device);
        }
        prop_assert_eq!(array.placement, router.placement_stats());
    }

    /// `ArrayConfig::validate`, fuzzed: widths 0, 1–4 or one past
    /// `MAX_DEVICES` of `small_test` devices with pages of 512, 2048 or
    /// 4096 bytes and 1–8 blocks per plane each; stripes from 0 bytes to
    /// `u64::MAX`; and an optional rebalance tuning whose floats include 0,
    /// −1, NaN, ±∞ and 1e-300 and whose counts include 0 and their maximum.
    /// `validate` never panics; `run_array` refuses a rejected config with
    /// the same message; and every accepted array of width ≤ 4 replays up to
    /// 16 in-capacity records to `Ok`.
    #[test]
    fn validated_array_configs_replay(
        width_pick in prop_oneof![0usize..6, 1usize..5],
        devices in prop::collection::vec((0usize..3, 1usize..9), 4..5),
        stripe_pick in prop_oneof![0usize..8, 3usize..6],
        tuning in prop_oneof![
            Just(None),
            (
                prop_oneof![0usize..3, 1usize..3],
                prop_oneof![0usize..9, 4usize..7],
                prop_oneof![0usize..9, 6usize..9],
                (0usize..3, 0usize..3),
            )
                .prop_map(Some),
        ],
        specs in prop::collection::vec(
            (0u64..2000, arb_direction(), 0u64..1 << 48, 1u64..1 << 17),
            0..17,
        ),
        scheduler_index in 0usize..5,
    ) {
        let kind = SchedulerKind::ALL[scheduler_index];
        let width = [0, 1, 2, 3, 4, MAX_DEVICES + 1][width_pick];
        let configs = (0..width)
            .map(|i| {
                let (page_pick, blocks) = devices[i % devices.len()];
                let mut device = SsdConfig::small_test();
                device.geometry.page_size = [512, 2048, 4096][page_pick];
                device.geometry.blocks_per_plane = blocks;
                device
            })
            .collect();
        let mut config = ArrayConfig::heterogeneous(configs);
        // The largest page: every other page size divides it.
        let page = config.devices.iter().map(|d| d.page_size() as u64).max().unwrap_or(2048);
        config.stripe_bytes =
            [0, 1, page - 1, page, 3 * page, 1 << 20, 1 << 40, u64::MAX][stripe_pick];
        // Ordered so that the values `validate` accepts for the decay
        // (indices 4–6) and the trigger ratio (6–8) are contiguous: the
        // second arm of each draw above picks among those alone, so that
        // about a third of all draws replay.
        let floats = [0.0, -1.0, f64::NAN, f64::NEG_INFINITY, 1e-300, 0.5, 1.0, 2.0, f64::INFINITY];
        if let Some((window, decay, trigger, (per_window, total))) = tuning {
            config.rebalance = Some(RebalanceConfig {
                window_records: [0, 1, u64::MAX][window],
                decay: floats[decay],
                trigger_ratio: floats[trigger],
                max_migrations_per_window: [0, 1, usize::MAX][per_window],
                max_total_migrations: [0, 1, u64::MAX][total],
            });
        }
        let capacity = match config.validate() {
            Err(error) => {
                let empty = Trace::new("refused", Vec::new());
                prop_assert_eq!(
                    run_array(&config, kind, &mut empty.source()).err(),
                    Some(ArrayError::InvalidConfig(error))
                );
                return;
            }
            Ok(()) if width > 4 => return,
            Ok(()) => config.logical_capacity_bytes(),
        };
        let records = specs
            .iter()
            .enumerate()
            .map(|(i, &(at, dir, offset, bytes))| {
                let offset = offset % capacity;
                TraceRecord {
                    id: i as u64,
                    arrival: SimTime::from_micros(at),
                    op: if dir.is_read() { TraceOp::Read } else { TraceOp::Write },
                    offset,
                    bytes: bytes.min(capacity - offset),
                }
            })
            .collect();
        let trace = Trace::new("fuzz", records);
        let array = run_array(&config, kind, &mut trace.source());
        prop_assert!(array.is_ok(), "accepted config failed to replay: {:?}", array.err());
    }

    /// Arbitrary migration sequences preserve the placement layer's
    /// bijection: after any sequence of (stripe, target-device) migration
    /// attempts, `locate_lpn` still round-trips through `lpn_to_global` for
    /// every page of the footprint, distinct LPNs never collide on the same
    /// (device, local LPN) pair, every placed stripe stays within its
    /// device's slot cap, and the internal forward/occupancy tables agree.
    #[test]
    fn migration_sequences_preserve_the_placement_bijection(
        devices in 2usize..6,
        stripe_pages in 1u64..16,
        total_stripes in 1u64..48,
        moves in proptest::collection::vec((0u64..48, 0usize..6), 0..64),
        slot_slack in 0u64..8,
    ) {
        let page = 2048u64;
        let stripe_bytes = stripe_pages * page;
        // Tight slot caps: just enough for the round-robin image plus a
        // little slack, so migrations regularly hit full devices and the
        // refusal path gets exercised alongside the happy path.
        let base_slots = total_stripes.div_ceil(devices as u64);
        let caps = vec![base_slots + slot_slack; devices];
        let mut placement = PlacementMap::round_robin(
            devices, stripe_bytes, total_stripes, caps.clone());
        let mut applied = 0u64;
        for (stripe, target) in moves {
            let stripe = stripe % total_stripes.max(1);
            let target = target % devices;
            if let Some(m) = placement.migrate(stripe, target) {
                prop_assert_eq!(m.stripe, stripe);
                prop_assert_eq!(m.to_device, target);
                prop_assert!(m.from_device != target, "no-op moves must be refused");
                prop_assert!(m.to_slot < caps[target], "slot cap must contain the move");
                applied += 1;
            }
            placement.validate_tables();
        }
        // Full bijection sweep over the footprint's pages.
        let footprint_pages = total_stripes * stripe_pages;
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..footprint_pages {
            let (device, local) = placement.locate_lpn(lpn, page);
            prop_assert!(device < devices);
            prop_assert_eq!(
                placement.lpn_to_global(device, local, page),
                lpn,
                "LPN map must round-trip after {} migrations", applied
            );
            prop_assert!(
                seen.insert((device, local)),
                "distinct LPNs must never collide after migrations"
            );
            // Containment: the local page stays below the device's
            // ever-occupied frontier.
            prop_assert!((local + 1) * page <= placement.local_slot_bound(device));
        }
        // And splits stay loss-free under the migrated placement.
        let record = sprinkler::workloads::TraceRecord {
            id: 0,
            arrival: SimTime::ZERO,
            op: sprinkler::workloads::TraceOp::Write,
            offset: 0,
            bytes: footprint_pages * page,
        };
        let mut fragments = Vec::new();
        placement.split_into(&record, &mut fragments);
        let total: u64 = fragments.iter().map(|f| f.bytes).sum();
        prop_assert_eq!(total, record.bytes, "split must preserve byte totals");
    }
}

/// A fully backlogged tenant source: `count` records of exactly `bytes` bytes
/// each, all submitted at t=0, so deficit round-robin alone decides the
/// emission order.
#[derive(Debug)]
struct BackloggedSource {
    remaining: u64,
    bytes: u64,
}

impl TraceSource for BackloggedSource {
    fn name(&self) -> &str {
        "backlogged"
    }

    fn footprint_bytes(&self) -> u64 {
        self.bytes
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(TraceRecord {
            id: self.remaining,
            arrival: SimTime::ZERO,
            op: TraceOp::Read,
            offset: 0,
            bytes: self.bytes,
        })
    }
}

proptest! {
    /// Weighted fair admission, stated exactly: with every lane backlogged
    /// from t=0 and every record exactly one quantum, a full DRR cycle emits
    /// precisely `weight` records per tenant — so over any whole number of
    /// cycles the byte share per unit weight is *equal* across tenants, and
    /// no backlogged tenant is ever starved (each appears once per cycle).
    #[test]
    fn weighted_drr_shares_match_weights_exactly(
        weights in proptest::collection::vec(1u32..=8, 2..6),
    ) {
        use sprinkler::tenants::{
            PriorityClass, TenantMux, TenantSpec, DEFAULT_QUANTUM_BYTES,
        };

        let total_weight: u64 = weights.iter().map(|&w| w as u64).sum();
        let cycles = 3u64;
        let lanes = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let spec = TenantSpec::new(format!("t{i}"), PriorityClass::Batch)
                    .with_weight(w);
                // Enough backlog to stay busy through the measured prefix.
                let source: Box<dyn TraceSource> = Box::new(BackloggedSource {
                    remaining: cycles * w as u64 + w as u64,
                    bytes: DEFAULT_QUANTUM_BYTES,
                });
                (spec, source)
            })
            .collect();
        let mut mux = TenantMux::new(lanes);

        let prefix = cycles * total_weight;
        let mut emitted_per_lane = vec![0u64; weights.len()];
        let mut first_seen = vec![None; weights.len()];
        for position in 0..prefix {
            let tagged = mux.next_tagged().expect("lanes are backlogged");
            let lane = tagged.tenant as usize;
            emitted_per_lane[lane] += 1;
            first_seen[lane].get_or_insert(position);
        }

        for (i, &w) in weights.iter().enumerate() {
            // Exact weight-proportional service over whole cycles.
            prop_assert_eq!(
                emitted_per_lane[i],
                cycles * w as u64,
                "lane {} (weight {}) got an unfair share", i, w
            );
            // No starvation: every backlogged lane is served within the
            // first cycle.
            let seen = first_seen[i].expect("every lane was served");
            prop_assert!(
                seen < total_weight,
                "lane {} first served at {} (cycle is {})", i, seen, total_weight
            );
        }
    }
}

/// One fuzzed tenant: class, weight override, optional `(rate, capacity)`
/// bucket, and the `(count, seed, mean KB, burst size)` of its stream.
type FuzzedTenant = (u8, Option<u32>, Option<(u64, u64)>, (u64, u64, u64, u32));

fn arb_fuzzed_tenant() -> impl Strategy<Value = FuzzedTenant> {
    let weight = prop_oneof![Just(None), (0u32..=16).prop_map(Some)];
    // Zero arms make a zero rate (no throttling) and a zero capacity common.
    let rate = prop_oneof![Just(0u64), 1u64..4096, 4096u64..=1 << 30];
    let capacity = prop_oneof![Just(0u64), 1u64..4096, 4096u64..=1 << 24];
    let bucket = prop_oneof![Just(None), (rate, capacity).prop_map(Some)];
    let stream = (0u64..10, 0u64..1 << 32, 1u64..=8, 1u32..=4);
    (0u8..3, weight, bucket, stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tenant front, fuzzed: 1–4 tenants of any class, weight override
    /// (0–16, or none), bucket (rate and capacity each including 0) and
    /// quantum (0–64 KiB) over short synthetic streams.  `next_tagged`
    /// admits every record exactly once, each lane in its stream's order;
    /// admissions never go back in time or precede their submission; and each
    /// lane's admission count is its stream's length.
    #[test]
    fn the_tenant_front_admits_every_record_once_in_order(
        tenants in prop::collection::vec(arb_fuzzed_tenant(), 1..5),
        quantum in prop_oneof![Just(0u64), 0u64..=64 * 1024],
    ) {
        use sprinkler::tenants::{PriorityClass, TenantMux, TenantSpec, TokenBucketConfig};

        let classes = [PriorityClass::Interactive, PriorityClass::Streaming, PriorityClass::Batch];
        let workload = |&(count, seed, mean_kb, burst): &(u64, u64, u64, u32)| {
            SyntheticSpec::new("fuzz")
                .with_footprint_mb(8)
                .with_mean_sizes_kb(mean_kb as f64, mean_kb as f64)
                .with_bursts(burst, 20.0)
                .stream(count, seed)
        };
        let lanes = tenants
            .iter()
            .enumerate()
            .map(|(i, (class, weight, bucket, stream))| {
                let mut spec = TenantSpec::new(format!("t{i}"), classes[*class as usize]);
                // Set directly, so an override of 0 reaches the mux unclamped.
                spec.weight = *weight;
                spec.bucket = bucket.map(|(rate, capacity)| TokenBucketConfig::new(rate, capacity));
                let source: Box<dyn TraceSource> = Box::new(workload(stream));
                (spec, source)
            })
            .collect();
        let mut mux = TenantMux::with_quantum(lanes, quantum);

        let mut admitted: Vec<Vec<TraceRecord>> = vec![Vec::new(); tenants.len()];
        let mut last = SimTime::ZERO;
        while let Some(tagged) = mux.next_tagged() {
            let record = tagged.record;
            prop_assert!(record.arrival >= last, "admission went back in time");
            prop_assert!(record.arrival >= tagged.submitted, "admitted before submission");
            last = record.arrival;
            admitted[tagged.tenant as usize].push(TraceRecord {
                arrival: tagged.submitted,
                ..record
            });
        }

        let stats = mux.admission_stats();
        for (lane, (_, _, _, stream)) in tenants.iter().enumerate() {
            let mut source = workload(stream);
            let expected: Vec<TraceRecord> = std::iter::from_fn(|| source.next_record()).collect();
            let strip_id = |r: &TraceRecord| (r.arrival, r.op, r.offset, r.bytes);
            prop_assert_eq!(
                admitted[lane].iter().map(strip_id).collect::<Vec<_>>(),
                expected.iter().map(strip_id).collect::<Vec<_>>(),
                "lane {} did not admit its stream exactly once, in order", lane
            );
            prop_assert_eq!(stats[lane].admitted, stream.0, "lane {}", lane);
        }
    }
}

/// The bytes a parser-fuzz mutation draws from: digits, the two formats'
/// separators and number punctuation, the comment marker, and letters.
const FUZZ_BYTES: &[u8] = b"0123456789, \t.+-#abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Applies one parser-fuzz mutation to `line`: replace, insert or delete a
/// byte; truncate; or swap two fields (comma-separated in `csv`, else
/// whitespace-separated).  Lines are ASCII, so every byte index is a char
/// boundary.
fn mutate_line(
    line: &str,
    csv: bool,
    (kind, at, other, byte): (usize, usize, usize, usize),
) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let byte = FUZZ_BYTES[byte % FUZZ_BYTES.len()];
    match kind {
        0 if !bytes.is_empty() => {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        1 => bytes.insert(at % (bytes.len() + 1), byte),
        2 if !bytes.is_empty() => {
            bytes.remove(at % bytes.len());
        }
        3 => bytes.truncate(at % (bytes.len() + 1)),
        4 => {
            let mut fields: Vec<&str> = if csv {
                line.split(',').collect()
            } else {
                line.split_whitespace().collect()
            };
            let n = fields.len();
            if n > 0 {
                fields.swap(at % n, other % n);
            }
            return fields.join(if csv { "," } else { " " });
        }
        _ => {}
    }
    String::from_utf8(bytes).expect("the corpus and the mutation bytes are ASCII")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The text-trace parser, fuzzed: lines of either sample corpus with
    /// bytes replaced, inserted or deleted, lines truncated and fields
    /// swapped.  Parsing never panics, under either `MalformedPolicy`.
    /// Skipping yields records with dense ids, nondecreasing arrivals, at
    /// least one byte and an extent that does not overflow, and counts every
    /// line exactly once.  Stopping on errors stops at the first malformed
    /// line, names it, and yields exactly the records skipping yielded
    /// before it.  And the skipping parse replays, wrapped into a small
    /// device, completing one I/O per record.
    #[test]
    fn mutated_trace_text_parses_without_panics_or_lost_lines(
        blkparse in prop_oneof![Just(false), Just(true)],
        mutations in prop::collection::vec(
            (0usize..64, (0usize..5, 0usize..512, 0usize..16, 0usize..128)),
            1..12,
        ),
        scheduler_index in 0usize..5,
    ) {
        use sprinkler::experiments::{run_source, CapacityPolicy};
        use sprinkler::workloads::parse::{SAMPLE_BLKPARSE, SAMPLE_MSR_CSV};
        let corpus = if blkparse { SAMPLE_BLKPARSE } else { SAMPLE_MSR_CSV };
        let mut lines: Vec<String> = corpus.lines().map(str::to_string).collect();
        for (line, mutation) in mutations {
            let line = line % lines.len();
            lines[line] = mutate_line(&lines[line], !blkparse, mutation);
        }
        let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
        let parse = |policy| TextTraceSource::from_text("fuzz", text.clone()).with_policy(policy);

        // Skip: every record well formed, every line counted once.  `clean`
        // is how many records came before the first malformed line.
        let mut skip = parse(MalformedPolicy::Skip);
        let mut records = Vec::new();
        let mut clean = None;
        while let Some(record) = skip.next_record() {
            if clean.is_none() && skip.stats().skipped_malformed > 0 {
                clean = Some(records.len());
            }
            prop_assert_eq!(record.id, records.len() as u64, "ids must be dense");
            prop_assert!(records.last().is_none_or(|r: &TraceRecord| r.arrival <= record.arrival));
            prop_assert!(record.bytes >= 1);
            prop_assert!(record.offset.checked_add(record.bytes).is_some());
            records.push(record);
        }
        let clean = clean.unwrap_or(records.len());
        prop_assert!(skip.error().is_none());
        let stats = skip.stats();
        prop_assert_eq!(stats.parsed, records.len() as u64);
        prop_assert_eq!(
            stats.parsed + stats.skipped_malformed + stats.skipped_zero_sized + stats.ignored,
            lines.len() as u64,
            "every line is a record, malformed, zero-sized or ignored: {:?}", stats
        );

        // Error: the same records up to the first malformed line, which a
        // parse of that line alone, in the detected format, also refuses.
        let mut strict = parse(MalformedPolicy::Error);
        let strict_records: Vec<TraceRecord> = std::iter::from_fn(|| strict.next_record()).collect();
        prop_assert_eq!(&strict_records[..], &records[..clean]);
        let malformed = |line: &str| {
            let format = skip.format().expect("a malformed line is a record line");
            let mut alone = TextTraceSource::from_text("line", line.to_string())
                .with_format(format)
                .with_policy(MalformedPolicy::Error);
            while alone.next_record().is_some() {}
            alone.error().is_some()
        };
        match strict.error() {
            None => {
                prop_assert_eq!(stats.skipped_malformed, 0);
                prop_assert_eq!(strict_records.len(), records.len());
            }
            Some(error) => {
                prop_assert!(stats.skipped_malformed > 0);
                let at = error.line_number as usize - 1;
                prop_assert_eq!(&error.line, lines[at].trim_end());
                prop_assert!(malformed(&lines[at]), "{:?} is not malformed", error);
                prop_assert!(
                    lines[..at].iter().all(|line| !malformed(line)),
                    "a malformed line precedes {:?}", error
                );
            }
        }

        // The skipping parse replays: one completed I/O per record.
        let kind = SchedulerKind::ALL[scheduler_index];
        let metrics = run_source(
            &SsdConfig::small_test(),
            kind,
            &mut parse(MalformedPolicy::Skip),
            CapacityPolicy::Wrap,
        )
        .expect("the wrap policy rejects no record");
        prop_assert_eq!(metrics.io_count, records.len() as u64);
    }
}
