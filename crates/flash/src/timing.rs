//! Flash timing model: ONFI bus modes, command/address cycle costs, and cell
//! (array) latencies including the MLC program-latency variation the paper models.
//!
//! The paper's configuration (§5.1): ONFI 2.x channels, 20 µs reads, programs
//! varying from 200 µs (fast page) to 2,200 µs (slow page) depending on the page
//! address within the block, and a conventional block erase in the millisecond
//! range.

use sprinkler_sim::Duration;

use crate::command::BusPhaseCounts;
use crate::transaction::FlashOp;

/// ONFI interface speed grades.  The paper notes vendors ship ONFI 2.x rather than
/// the 400 MHz interface even for PCIe SSDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OnfiMode {
    /// Legacy asynchronous SDR interface (~33 MB/s).
    Sdr33,
    /// ONFI 2.x NV-DDR at 133 MT/s.
    Ddr133,
    /// ONFI 2.x NV-DDR at 166 MT/s (the default used in the evaluation).
    Ddr166,
    /// ONFI 2.x NV-DDR at 200 MT/s.
    Ddr200,
}

impl OnfiMode {
    /// Interface throughput in bytes per second (8-bit bus).
    pub fn bytes_per_sec(self) -> u64 {
        match self {
            OnfiMode::Sdr33 => 33_000_000,
            OnfiMode::Ddr133 => 133_000_000,
            OnfiMode::Ddr166 => 166_000_000,
            OnfiMode::Ddr200 => 200_000_000,
        }
    }

    /// Duration of a single command or address latch cycle on this interface.
    pub fn latch_cycle(self) -> Duration {
        match self {
            OnfiMode::Sdr33 => Duration::from_nanos(100),
            OnfiMode::Ddr133 | OnfiMode::Ddr166 | OnfiMode::Ddr200 => Duration::from_nanos(25),
        }
    }

    /// Time to stream `bytes` of payload over the interface.
    pub fn transfer_time(self, bytes: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        let ns = bytes.saturating_mul(1_000_000_000) / self.bytes_per_sec();
        Duration::from_nanos(ns.max(1))
    }
}

/// How page program latency is assigned within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramLatencyModel {
    /// Every page programs in the same time (SLC-like behaviour).
    Uniform,
    /// MLC fast/slow page pairing: even page offsets are fast (LSB) pages, odd page
    /// offsets are slow (MSB) pages, reproducing the 200–2,200 µs spread.
    MlcPaired,
}

/// The complete timing description of the simulated flash package.
///
/// # Example
///
/// ```
/// use sprinkler_flash::{FlashTiming, OnfiMode};
/// use sprinkler_sim::Duration;
///
/// let t = FlashTiming::paper_default();
/// assert_eq!(t.read_latency(), Duration::from_micros(20));
/// assert_eq!(t.program_latency(0), Duration::from_micros(200));   // fast page
/// assert_eq!(t.program_latency(1), Duration::from_micros(2200));  // slow page
/// assert!(t.bus_mode() == OnfiMode::Ddr166);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashTiming {
    bus_mode: OnfiMode,
    read_latency: Duration,
    program_fast: Duration,
    program_slow: Duration,
    program_model: ProgramLatencyModel,
    erase_latency: Duration,
    /// Fixed controller-side overhead to decide a transaction type before the
    /// execution sequence starts (the "transaction type decision time" of §2.2).
    decision_overhead: Duration,
}

impl Default for FlashTiming {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl FlashTiming {
    /// Timing used throughout the paper's evaluation: ONFI 2.x at 166 MT/s, 20 µs
    /// reads, 200–2,200 µs MLC programs, 1.5 ms erases.
    pub fn paper_default() -> Self {
        FlashTiming {
            bus_mode: OnfiMode::Ddr166,
            read_latency: Duration::from_micros(20),
            program_fast: Duration::from_micros(200),
            program_slow: Duration::from_micros(2200),
            program_model: ProgramLatencyModel::MlcPaired,
            erase_latency: Duration::from_micros(1500),
            decision_overhead: Duration::from_nanos(200),
        }
    }

    /// A uniform-latency variant useful for analytical tests (program latency fixed
    /// at the fast-page value).
    pub fn uniform() -> Self {
        FlashTiming {
            program_model: ProgramLatencyModel::Uniform,
            ..Self::paper_default()
        }
    }

    /// Returns a copy using a different ONFI interface speed.
    pub fn with_bus_mode(mut self, mode: OnfiMode) -> Self {
        self.bus_mode = mode;
        self
    }

    /// Returns a copy with different program latencies.
    pub fn with_program_latencies(mut self, fast: Duration, slow: Duration) -> Self {
        self.program_fast = fast;
        self.program_slow = slow;
        self
    }

    /// Returns a copy with a different read latency.
    pub fn with_read_latency(mut self, read: Duration) -> Self {
        self.read_latency = read;
        self
    }

    /// Returns a copy with a different erase latency.
    pub fn with_erase_latency(mut self, erase: Duration) -> Self {
        self.erase_latency = erase;
        self
    }

    /// Returns a copy with a different program latency model.
    pub fn with_program_model(mut self, model: ProgramLatencyModel) -> Self {
        self.program_model = model;
        self
    }

    /// The configured ONFI interface mode.
    pub fn bus_mode(&self) -> OnfiMode {
        self.bus_mode
    }

    /// Cell read latency (array → data register).
    pub fn read_latency(&self) -> Duration {
        self.read_latency
    }

    /// Block erase latency.
    pub fn erase_latency(&self) -> Duration {
        self.erase_latency
    }

    /// Controller-side transaction type decision overhead.
    pub fn decision_overhead(&self) -> Duration {
        self.decision_overhead
    }

    /// Program latency for a page at `page_offset` within its block.
    pub fn program_latency(&self, page_offset: u32) -> Duration {
        match self.program_model {
            ProgramLatencyModel::Uniform => self.program_fast,
            ProgramLatencyModel::MlcPaired => {
                if page_offset.is_multiple_of(2) {
                    self.program_fast
                } else {
                    self.program_slow
                }
            }
        }
    }

    /// Cell-array time of one page request of `op` at `page_offset` within
    /// its block.  A transaction's members on different dies/planes overlap,
    /// so its cell time is the *maximum* over its members (this is exactly
    /// why die interleaving and plane sharing pay off).
    pub fn cell_latency(&self, op: FlashOp, page_offset: u32) -> Duration {
        match op {
            FlashOp::Read => self.read_latency,
            FlashOp::Program => self.program_latency(page_offset),
            FlashOp::Erase => self.erase_latency,
        }
    }

    /// Time for the bus (issue) phase of an `op` transaction of `requests`
    /// pages of `page_size` bytes: command and address latch cycles plus
    /// program payload transfer into the chip.  Uses the closed-form
    /// [`BusPhaseCounts`] — this runs once per transaction on the
    /// simulator's hot path and must not allocate.
    pub fn issue_bus_time(&self, op: FlashOp, requests: usize, page_size: usize) -> Duration {
        let counts = BusPhaseCounts::issue_of(op, requests, page_size);
        self.cycles_time(counts.latch_cycles, counts.payload_bytes) + self.decision_overhead
    }

    /// Time for the completion phase on the bus: read payload transfer out of the
    /// chip plus status polling.  Closed-form, alloc-free (see
    /// [`Self::issue_bus_time`]).
    pub fn completion_bus_time(&self, op: FlashOp, requests: usize, page_size: usize) -> Duration {
        let counts = BusPhaseCounts::completion_of(op, requests, page_size);
        self.cycles_time(counts.latch_cycles, counts.payload_bytes)
    }

    /// Raw payload transfer time for `bytes` on this bus.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        self.bus_mode.transfer_time(bytes)
    }

    fn cycles_time(&self, latch_cycles: u32, payload_bytes: u64) -> Duration {
        self.bus_mode.latch_cycle() * latch_cycles as u64
            + self.bus_mode.transfer_time(payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper geometry's page size.
    const PAGE: usize = 2048;

    #[test]
    fn onfi_modes_have_sane_rates() {
        assert!(OnfiMode::Sdr33.bytes_per_sec() < OnfiMode::Ddr133.bytes_per_sec());
        assert!(OnfiMode::Ddr133.bytes_per_sec() < OnfiMode::Ddr166.bytes_per_sec());
        assert!(OnfiMode::Ddr166.bytes_per_sec() < OnfiMode::Ddr200.bytes_per_sec());
        assert_eq!(OnfiMode::Ddr166.transfer_time(0), Duration::ZERO);
        // 2 KB page at 166 MB/s is roughly 12.3 us.
        let t = OnfiMode::Ddr166.transfer_time(2048);
        assert!(
            t > Duration::from_micros(11) && t < Duration::from_micros(14),
            "{t}"
        );
    }

    #[test]
    fn paper_default_matches_published_latencies() {
        let t = FlashTiming::paper_default();
        assert_eq!(t.read_latency(), Duration::from_micros(20));
        assert_eq!(t.program_latency(0), Duration::from_micros(200));
        assert_eq!(t.program_latency(3), Duration::from_micros(2200));
        assert_eq!(t.erase_latency(), Duration::from_micros(1500));
        assert_eq!(t.bus_mode(), OnfiMode::Ddr166);
        assert_eq!(t.cell_latency(FlashOp::Read, 1), t.read_latency());
        assert_eq!(t.cell_latency(FlashOp::Program, 3), t.program_latency(3));
        assert_eq!(t.cell_latency(FlashOp::Erase, 0), t.erase_latency());
    }

    #[test]
    fn uniform_model_ignores_page_offset() {
        let t = FlashTiming::uniform();
        assert_eq!(t.program_latency(0), t.program_latency(1));
    }

    #[test]
    fn builder_style_modifiers() {
        let t = FlashTiming::paper_default()
            .with_bus_mode(OnfiMode::Ddr200)
            .with_read_latency(Duration::from_micros(25))
            .with_erase_latency(Duration::from_micros(2000))
            .with_program_latencies(Duration::from_micros(300), Duration::from_micros(900))
            .with_program_model(ProgramLatencyModel::Uniform);
        assert_eq!(t.bus_mode(), OnfiMode::Ddr200);
        assert_eq!(t.read_latency(), Duration::from_micros(25));
        assert_eq!(t.erase_latency(), Duration::from_micros(2000));
        assert_eq!(t.program_latency(7), Duration::from_micros(300));
    }

    #[test]
    fn issue_bus_time_scales_with_requests_and_payload() {
        let t = FlashTiming::paper_default();
        let read = |n| t.issue_bus_time(FlashOp::Read, n, PAGE);
        assert!(read(2) > read(1));

        // Program issue phase carries page payload: roughly doubles.
        let t1 = t.issue_bus_time(FlashOp::Program, 1, PAGE);
        let t2 = t.issue_bus_time(FlashOp::Program, 2, PAGE);
        assert!(t2 > t1 + t.transfer_time(2048) - Duration::from_micros(1));
    }

    #[test]
    fn read_completion_carries_data_out() {
        let t = FlashTiming::paper_default();
        let completion = t.completion_bus_time(FlashOp::Read, 1, PAGE);
        assert!(completion >= t.transfer_time(2048));
        // Programs only poll status on completion.
        assert!(t.completion_bus_time(FlashOp::Program, 1, PAGE) < Duration::from_micros(1));
    }

    #[test]
    fn transfer_time_is_monotonic_in_bytes() {
        let t = FlashTiming::paper_default();
        assert!(t.transfer_time(4096) > t.transfer_time(2048));
        assert_eq!(t.transfer_time(0), Duration::ZERO);
    }
}
