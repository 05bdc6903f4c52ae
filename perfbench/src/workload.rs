//! The benchmark workloads: device configuration, pre-conditioning, and the
//! record stream, all derived from the workload seed.  The simulator only
//! ever sees the generated records, converted to host requests here.

use sprinkler_core::SchedulerKind;
use sprinkler_flash::Lpn;
use sprinkler_ssd::{Direction, GcConfig, HostRequest, RunMetrics, SsdConfig};
use sprinkler_workloads::{workload, SweepSpec, SyntheticSpec, TraceSource};

/// Every workload runs the paper's full Sprinkler (RIOS + FARO).
pub const SCHEDULER: SchedulerKind = SchedulerKind::Spk3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 `msnfs1` at 1024 chips, GC off.
    Msnfs1,
    /// 256 KB reads from the transfer-size sweep on the 64-chip platform.
    SeqRead,
    /// Random 16 KB overwrites on a small, 90%-full 64-chip device, GC on.
    GcSteady,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Msnfs1, Workload::SeqRead, Workload::GcSteady];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Msnfs1 => "msnfs1-1024",
            Workload::SeqRead => "seqread256k-64",
            Workload::GcSteady => "gc-steady-64",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host I/Os per pass: sized so one pass takes roughly a second of host
    /// time and a run of ten seconds holds several passes.
    pub fn ios(self) -> u64 {
        match self {
            Workload::Msnfs1 => 70_000,
            Workload::SeqRead => 8_000,
            Workload::GcSteady => 30_000,
        }
    }

    /// Pulls after which a traced pass counts allocations as steady state.
    pub fn warmup(self) -> u64 {
        self.ios() / 5
    }

    /// The simulated device.
    pub fn config(self) -> SsdConfig {
        match self {
            Workload::Msnfs1 => SsdConfig::paper_default()
                .with_chip_count(1024)
                .with_blocks_per_plane(64),
            Workload::SeqRead => SsdConfig::paper_default().with_blocks_per_plane(64),
            Workload::GcSteady => SsdConfig::paper_default()
                .with_blocks_per_plane(16)
                .with_gc(GcConfig::enabled()),
        }
    }

    /// Physical fill `Ssd::precondition` applies before the run; 0 leaves
    /// the device fresh (the call is still made, and timed).
    pub fn fill(self) -> f64 {
        match self {
            Workload::GcSteady => 0.90,
            _ => 0.0,
        }
    }

    /// The seed handed to `Ssd::precondition`, derived from the workload seed.
    pub fn precondition_seed(seed: u64) -> u64 {
        seed ^ 0x0F17
    }

    /// The record stream for `seed`.
    fn source(self, config: &SsdConfig, seed: u64) -> Box<dyn TraceSource> {
        let ios = self.ios();
        match self {
            Workload::Msnfs1 => Box::new(
                workload("msnfs1")
                    .expect("msnfs1 is a Table 1 workload")
                    .stream(ios, seed),
            ),
            Workload::SeqRead => Box::new(SweepSpec::new(256).stream(ios, seed)),
            Workload::GcSteady => {
                // Overwrites span half the logical capacity, so they stay hot.
                let footprint_mb = (config.geometry.capacity_bytes() / (2 * 1024 * 1024)).max(1);
                Box::new(
                    SyntheticSpec::new("gc-steady")
                        .with_read_fraction(0.3)
                        .with_mean_sizes_kb(16.0, 16.0)
                        .with_footprint_mb(footprint_mb)
                        .with_randomness(0.95, 0.95)
                        .stream(ios, seed),
                )
            }
        }
    }

    /// The host-request stream for `seed`, tallying what it submits.
    pub fn requests(self, config: &SsdConfig, seed: u64) -> Requests {
        Requests {
            source: self.source(config, seed),
            page_size: config.page_size(),
            capacity_pages: config.geometry.total_pages() as u64,
            tally: Tally::default(),
        }
    }
}

/// The generator's own count of what it submitted, compared with the
/// simulator's [`RunMetrics`] after the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Host I/Os submitted.
    pub ios: u64,
    /// Reads submitted.
    pub reads: u64,
    /// Writes submitted.
    pub writes: u64,
    /// Logical pages submitted.
    pub pages: u64,
    /// Bytes the reads ask for.
    pub read_bytes: u64,
    /// Bytes the writes carry.
    pub write_bytes: u64,
    /// Records whose page range ran past the device's logical capacity.
    pub out_of_capacity: u64,
}

impl Tally {
    /// Every disagreement between this tally and a run's metrics.
    pub fn mismatches(&self, metrics: &RunMetrics, gc_enabled: bool) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |what: &str, submitted: u64, reported: u64| {
            if submitted != reported {
                out.push(format!(
                    "{what}: submitted {submitted}, simulator reports {reported}"
                ));
            }
        };
        check("host I/Os", self.ios, metrics.io_count);
        check("reads", self.reads, metrics.read_ios);
        check("writes", self.writes, metrics.write_ios);
        check("read bytes", self.read_bytes, metrics.bytes_read);
        check("write bytes", self.write_bytes, metrics.bytes_written);
        // Every host page is one memory request; GC adds one read and one
        // program per migrated page and one erase per collected block.
        let gc_requests = 2 * metrics.gc.pages_migrated + metrics.gc.blocks_erased;
        check(
            "memory requests",
            self.pages + gc_requests,
            metrics.memory_requests,
        );
        check("records past capacity", 0, self.out_of_capacity);
        if !gc_enabled {
            check("GC invocations with GC off", 0, metrics.gc.invocations);
        }
        out
    }
}

/// Converts the workload's records to host requests and tallies them.
pub struct Requests {
    source: Box<dyn TraceSource>,
    page_size: usize,
    capacity_pages: u64,
    tally: Tally,
}

impl Requests {
    /// What has been submitted so far.
    pub fn tally(&self) -> Tally {
        self.tally
    }
}

impl Iterator for Requests {
    type Item = HostRequest;

    fn next(&mut self) -> Option<HostRequest> {
        let record = self.source.next_record()?;
        let (lpn, pages) = record.pages(self.page_size);
        let direction = if record.op.is_read() {
            Direction::Read
        } else {
            Direction::Write
        };
        let request = HostRequest::new(record.id, record.arrival, direction, Lpn::new(lpn), pages);
        let bytes = request.bytes(self.page_size);
        let tally = &mut self.tally;
        tally.ios += 1;
        tally.pages += request.pages as u64;
        if direction.is_read() {
            tally.reads += 1;
            tally.read_bytes += bytes;
        } else {
            tally.writes += 1;
            tally.write_bytes += bytes;
        }
        if lpn + request.pages as u64 > self.capacity_pages {
            tally.out_of_capacity += 1;
        }
        Some(request)
    }
}
