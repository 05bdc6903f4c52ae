//! ONFI-style flash command sequences.
//!
//! NAND flash chips are driven through a narrow multiplexed interface: every
//! operation is a sequence of *command cycles*, *address cycles*, and *data cycles*
//! on the shared bus.  This module enumerates the command set the simulated flash
//! controller issues ([`FlashCommand`]) and computes, for a whole
//! [`FlashTransaction`], the bus cycle sequence ([`CommandSequence`]) that the
//! timing model converts into bus occupancy.

use std::fmt;

use crate::transaction::{FlashOp, FlashTransaction};

/// The ONFI command opcodes the simulated controller issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashCommand {
    /// `00h` — read setup (column/row address follows).
    ReadSetup,
    /// `30h` — read confirm (starts the cell array access).
    ReadConfirm,
    /// `32h` — multi-plane read confirm (queue another plane).
    MultiPlaneReadConfirm,
    /// `80h` — program setup (address and data follow).
    ProgramSetup,
    /// `10h` — program confirm.
    ProgramConfirm,
    /// `11h` — multi-plane / interleaved program queue ("dummy" confirm).
    ProgramQueue,
    /// `60h` — erase setup (row address follows).
    EraseSetup,
    /// `D0h` — erase confirm.
    EraseConfirm,
    /// `D1h` — multi-plane erase queue.
    EraseQueue,
    /// `70h` — read status.
    ReadStatus,
    /// `05h` — random data output setup (column change within the register).
    RandomDataOut,
    /// `E0h` — random data output confirm.
    RandomDataOutConfirm,
    /// `FFh` — reset.
    Reset,
}

impl FlashCommand {
    /// The opcode byte placed on the bus.
    pub fn opcode(self) -> u8 {
        match self {
            FlashCommand::ReadSetup => 0x00,
            FlashCommand::ReadConfirm => 0x30,
            FlashCommand::MultiPlaneReadConfirm => 0x32,
            FlashCommand::ProgramSetup => 0x80,
            FlashCommand::ProgramConfirm => 0x10,
            FlashCommand::ProgramQueue => 0x11,
            FlashCommand::EraseSetup => 0x60,
            FlashCommand::EraseConfirm => 0xD0,
            FlashCommand::EraseQueue => 0xD1,
            FlashCommand::ReadStatus => 0x70,
            FlashCommand::RandomDataOut => 0x05,
            FlashCommand::RandomDataOutConfirm => 0xE0,
            FlashCommand::Reset => 0xFF,
        }
    }
}

impl fmt::Display for FlashCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02X}h", self.opcode())
    }
}

/// One logical phase of bus activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusCycleKind {
    /// A command latch cycle.
    Command(FlashCommand),
    /// One or more address latch cycles.
    Address {
        /// Number of address bytes latched.
        cycles: u32,
    },
    /// Payload transfer into the chip (program data-in).
    DataIn {
        /// Bytes transferred.
        bytes: u32,
    },
    /// Payload transfer out of the chip (read data-out).
    DataOut {
        /// Bytes transferred.
        bytes: u32,
    },
}

/// The full bus cycle sequence for one transaction, split into the phase executed
/// *before* the cell operation (`issue`) and the phase executed *after* it
/// (`completion`, e.g. streaming read data out of the data registers).
///
/// # Example
///
/// ```
/// use sprinkler_flash::{CommandSequence, FlashGeometry, FlashOp, TransactionBuilder};
///
/// let g = FlashGeometry::paper_default();
/// let mut b = TransactionBuilder::new(FlashOp::Read, g.clone());
/// b.try_add(g.page_addr(0, 0, 0, 0, 3, 1)).unwrap();
/// let txn = b.build().unwrap();
/// let seq = CommandSequence::for_transaction(&txn);
/// assert!(seq.issue_command_cycles() >= 2);       // 00h .. 30h
/// assert_eq!(seq.data_out_bytes(), 2048);
/// assert_eq!(seq.data_in_bytes(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandSequence {
    issue: Vec<BusCycleKind>,
    completion: Vec<BusCycleKind>,
}

/// Number of address bytes latched per page-addressed command (2 column + 3 row).
pub const ADDRESS_CYCLES_PAGE: u32 = 5;
/// Number of address bytes latched per block-addressed command (3 row bytes).
pub const ADDRESS_CYCLES_BLOCK: u32 = 3;

impl CommandSequence {
    /// Builds the command sequence a controller issues for `txn`.
    ///
    /// Multi-request transactions use the multi-plane / interleaved queueing
    /// commands: every request but the last is queued with a `11h`/`32h`/`D1h`
    /// style command, and the last request carries the final confirm.
    pub fn for_transaction(txn: &FlashTransaction) -> Self {
        let n = txn.requests().len() as u32;
        let page_bytes = txn.page_size() as u32;
        let mut issue = Vec::new();
        let mut completion = Vec::new();
        match txn.op() {
            FlashOp::Read => {
                for i in 0..n {
                    issue.push(BusCycleKind::Command(FlashCommand::ReadSetup));
                    issue.push(BusCycleKind::Address {
                        cycles: ADDRESS_CYCLES_PAGE,
                    });
                    let confirm = if i + 1 == n {
                        FlashCommand::ReadConfirm
                    } else {
                        FlashCommand::MultiPlaneReadConfirm
                    };
                    issue.push(BusCycleKind::Command(confirm));
                }
                for _ in 0..n {
                    // After the cell access each plane's register is streamed out,
                    // preceded by a random-data-out pointer change.
                    completion.push(BusCycleKind::Command(FlashCommand::RandomDataOut));
                    completion.push(BusCycleKind::Address {
                        cycles: ADDRESS_CYCLES_PAGE,
                    });
                    completion.push(BusCycleKind::Command(FlashCommand::RandomDataOutConfirm));
                    completion.push(BusCycleKind::DataOut { bytes: page_bytes });
                }
                completion.push(BusCycleKind::Command(FlashCommand::ReadStatus));
            }
            FlashOp::Program => {
                for i in 0..n {
                    issue.push(BusCycleKind::Command(FlashCommand::ProgramSetup));
                    issue.push(BusCycleKind::Address {
                        cycles: ADDRESS_CYCLES_PAGE,
                    });
                    issue.push(BusCycleKind::DataIn { bytes: page_bytes });
                    let confirm = if i + 1 == n {
                        FlashCommand::ProgramConfirm
                    } else {
                        FlashCommand::ProgramQueue
                    };
                    issue.push(BusCycleKind::Command(confirm));
                }
                completion.push(BusCycleKind::Command(FlashCommand::ReadStatus));
            }
            FlashOp::Erase => {
                for i in 0..n {
                    issue.push(BusCycleKind::Command(FlashCommand::EraseSetup));
                    issue.push(BusCycleKind::Address {
                        cycles: ADDRESS_CYCLES_BLOCK,
                    });
                    let confirm = if i + 1 == n {
                        FlashCommand::EraseConfirm
                    } else {
                        FlashCommand::EraseQueue
                    };
                    issue.push(BusCycleKind::Command(confirm));
                }
                completion.push(BusCycleKind::Command(FlashCommand::ReadStatus));
            }
        }
        CommandSequence { issue, completion }
    }

    /// Bus cycles executed before the cell operation starts.
    pub fn issue_cycles(&self) -> &[BusCycleKind] {
        &self.issue
    }

    /// Bus cycles executed after the cell operation finishes.
    pub fn completion_cycles(&self) -> &[BusCycleKind] {
        &self.completion
    }

    fn count_commands(cycles: &[BusCycleKind]) -> u32 {
        cycles
            .iter()
            .filter(|c| matches!(c, BusCycleKind::Command(_)))
            .count() as u32
    }

    fn count_addresses(cycles: &[BusCycleKind]) -> u32 {
        cycles
            .iter()
            .map(|c| match c {
                BusCycleKind::Address { cycles } => *cycles,
                _ => 0,
            })
            .sum()
    }

    /// Number of command latch cycles in the issue phase.
    pub fn issue_command_cycles(&self) -> u32 {
        Self::count_commands(&self.issue)
    }

    /// Number of address latch cycles in the issue phase.
    pub fn issue_address_cycles(&self) -> u32 {
        Self::count_addresses(&self.issue)
    }

    /// Number of command latch cycles in the completion phase.
    pub fn completion_command_cycles(&self) -> u32 {
        Self::count_commands(&self.completion)
    }

    /// Number of address latch cycles in the completion phase.
    pub fn completion_address_cycles(&self) -> u32 {
        Self::count_addresses(&self.completion)
    }

    /// Total payload bytes transferred into the chip (program data).
    pub fn data_in_bytes(&self) -> u64 {
        self.issue
            .iter()
            .chain(self.completion.iter())
            .map(|c| match c {
                BusCycleKind::DataIn { bytes } => *bytes as u64,
                _ => 0,
            })
            .sum()
    }

    /// Total payload bytes transferred out of the chip (read data).
    pub fn data_out_bytes(&self) -> u64 {
        self.issue
            .iter()
            .chain(self.completion.iter())
            .map(|c| match c {
                BusCycleKind::DataOut { bytes } => *bytes as u64,
                _ => 0,
            })
            .sum()
    }
}

/// The latch-cycle and payload totals of one bus phase, computed in closed
/// form.  The timing model runs on every transaction the simulator executes,
/// so it must not materialize the [`CommandSequence`] vectors on the hot path;
/// these counts are derived arithmetically from the op and request count and
/// pinned against the materialized sequence by a unit test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusPhaseCounts {
    /// Command plus address latch cycles in the phase.
    pub latch_cycles: u32,
    /// Payload bytes moved over the bus during the phase.
    pub payload_bytes: u64,
}

impl BusPhaseCounts {
    /// Closed-form issue-phase counts for `txn` (commands, addresses, and
    /// program data-in), equal to the materialized sequence's totals.
    pub fn issue_of(txn: &FlashTransaction) -> Self {
        let n = txn.requests().len() as u32;
        let page_bytes = txn.page_size() as u64;
        match txn.op() {
            // Per request: setup + confirm commands and a page address.
            FlashOp::Read => BusPhaseCounts {
                latch_cycles: n * (2 + ADDRESS_CYCLES_PAGE),
                payload_bytes: 0,
            },
            // Per request: setup + confirm commands, a page address, and the
            // page payload latched into the data register.
            FlashOp::Program => BusPhaseCounts {
                latch_cycles: n * (2 + ADDRESS_CYCLES_PAGE),
                payload_bytes: n as u64 * page_bytes,
            },
            // Per request: setup + confirm commands and a block address.
            FlashOp::Erase => BusPhaseCounts {
                latch_cycles: n * (2 + ADDRESS_CYCLES_BLOCK),
                payload_bytes: 0,
            },
        }
    }

    /// Closed-form completion-phase counts for `txn` (random-data-out
    /// streaming for reads, status polling for all ops), equal to the
    /// materialized sequence's totals.
    pub fn completion_of(txn: &FlashTransaction) -> Self {
        let n = txn.requests().len() as u32;
        let page_bytes = txn.page_size() as u64;
        match txn.op() {
            // Per request: random-data-out setup + confirm commands and a page
            // address, then the page streamed out; one final status read.
            FlashOp::Read => BusPhaseCounts {
                latch_cycles: n * (2 + ADDRESS_CYCLES_PAGE) + 1,
                payload_bytes: n as u64 * page_bytes,
            },
            // Status poll only.
            FlashOp::Program | FlashOp::Erase => BusPhaseCounts {
                latch_cycles: 1,
                payload_bytes: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;
    use crate::transaction::TransactionBuilder;

    fn txn(op: FlashOp, planes: &[(u32, u32)]) -> FlashTransaction {
        let g = FlashGeometry::paper_default();
        let mut b = TransactionBuilder::new(op, g.clone());
        for &(die, plane) in planes {
            b.try_add(g.page_addr(0, 0, die, plane, 1, 0)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn opcodes_match_onfi_values() {
        assert_eq!(FlashCommand::ReadSetup.opcode(), 0x00);
        assert_eq!(FlashCommand::ReadConfirm.opcode(), 0x30);
        assert_eq!(FlashCommand::ProgramSetup.opcode(), 0x80);
        assert_eq!(FlashCommand::ProgramConfirm.opcode(), 0x10);
        assert_eq!(FlashCommand::EraseSetup.opcode(), 0x60);
        assert_eq!(FlashCommand::EraseConfirm.opcode(), 0xD0);
        assert_eq!(FlashCommand::Reset.opcode(), 0xFF);
        assert_eq!(FlashCommand::ReadStatus.to_string(), "70h");
    }

    #[test]
    fn single_read_sequence() {
        let seq = CommandSequence::for_transaction(&txn(FlashOp::Read, &[(0, 0)]));
        assert_eq!(seq.issue_command_cycles(), 2); // 00h + 30h
        assert_eq!(seq.issue_address_cycles(), ADDRESS_CYCLES_PAGE);
        assert_eq!(seq.data_in_bytes(), 0);
        assert_eq!(seq.data_out_bytes(), 2048);
        assert!(seq.completion_command_cycles() >= 3);
    }

    #[test]
    fn multiplane_read_uses_queue_confirms() {
        let seq = CommandSequence::for_transaction(&txn(FlashOp::Read, &[(0, 0), (0, 1), (1, 0)]));
        // 3 setups + 2 queue confirms + 1 final confirm
        assert_eq!(seq.issue_command_cycles(), 6);
        assert_eq!(seq.issue_address_cycles(), 3 * ADDRESS_CYCLES_PAGE);
        assert_eq!(seq.data_out_bytes(), 3 * 2048);
        let has_queue_confirm = seq.issue_cycles().iter().any(|c| {
            matches!(
                c,
                BusCycleKind::Command(FlashCommand::MultiPlaneReadConfirm)
            )
        });
        assert!(has_queue_confirm);
    }

    #[test]
    fn program_sequence_moves_data_in() {
        let seq = CommandSequence::for_transaction(&txn(FlashOp::Program, &[(0, 0), (1, 1)]));
        assert_eq!(seq.data_in_bytes(), 2 * 2048);
        assert_eq!(seq.data_out_bytes(), 0);
        // 2 setups + 1 queue + 1 confirm
        assert_eq!(seq.issue_command_cycles(), 4);
        let has_queue = seq
            .issue_cycles()
            .iter()
            .any(|c| matches!(c, BusCycleKind::Command(FlashCommand::ProgramQueue)));
        assert!(has_queue);
    }

    #[test]
    fn erase_sequence_has_no_payload() {
        let seq = CommandSequence::for_transaction(&txn(FlashOp::Erase, &[(0, 0), (1, 0)]));
        assert_eq!(seq.data_in_bytes(), 0);
        assert_eq!(seq.data_out_bytes(), 0);
        assert_eq!(seq.issue_address_cycles(), 2 * ADDRESS_CYCLES_BLOCK);
        assert_eq!(seq.issue_command_cycles(), 4);
    }

    #[test]
    fn completion_phase_of_program_is_status_only() {
        let seq = CommandSequence::for_transaction(&txn(FlashOp::Program, &[(0, 0)]));
        assert_eq!(seq.completion_command_cycles(), 1);
        assert_eq!(seq.completion_address_cycles(), 0);
    }

    /// The closed-form counts the timing hot path uses must equal the
    /// materialized command sequence, for every op and folding degree.
    #[test]
    fn closed_form_counts_match_the_materialized_sequence() {
        let shapes: &[&[(u32, u32)]] = &[
            &[(0, 0)],
            &[(0, 0), (0, 1)],
            &[(0, 0), (0, 1), (1, 0)],
            &[(0, 0), (0, 1), (1, 0), (1, 1)],
        ];
        for op in [FlashOp::Read, FlashOp::Program, FlashOp::Erase] {
            for planes in shapes {
                let txn = txn(op, planes);
                let seq = CommandSequence::for_transaction(&txn);
                let issue = BusPhaseCounts::issue_of(&txn);
                assert_eq!(
                    issue.latch_cycles,
                    seq.issue_command_cycles() + seq.issue_address_cycles(),
                    "{op:?} x{}: issue latch cycles",
                    planes.len(),
                );
                assert_eq!(issue.payload_bytes, seq.data_in_bytes());
                let completion = BusPhaseCounts::completion_of(&txn);
                assert_eq!(
                    completion.latch_cycles,
                    seq.completion_command_cycles() + seq.completion_address_cycles(),
                    "{op:?} x{}: completion latch cycles",
                    planes.len(),
                );
                assert_eq!(completion.payload_bytes, seq.data_out_bytes());
            }
        }
    }
}
