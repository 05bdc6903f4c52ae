//! Flash operations and flash-level parallelism (FLP) classification.
//!
//! A *flash transaction* is the unit of work a flash controller executes on a chip:
//! one or more page-level requests that share the chip's interface and are executed
//! with a single command/timing sequence (§2.2 of the paper).  The SSD layer's
//! controller folds them; this module names their operation and classifies the
//! degree of parallelism a transaction enjoys:
//!
//! * `NonPal` — a single page request, no flash-level parallelism,
//! * `Pal1` — plane sharing (multiple planes of one die),
//! * `Pal2` — die interleaving (multiple dies, one plane each),
//! * `Pal3` — die interleaving combined with plane sharing.

use std::fmt;

/// The operation a flash transaction performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashOp {
    /// Page read (cell array → data register → bus).
    Read,
    /// Page program (bus → data register → cell array).
    Program,
    /// Block erase.
    Erase,
}

impl fmt::Display for FlashOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlashOp::Read => "read",
            FlashOp::Program => "program",
            FlashOp::Erase => "erase",
        };
        f.write_str(s)
    }
}

/// Flash-level parallelism classification of a transaction (Fig 14 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParallelismLevel {
    /// Single request: served only by system-level parallelism.
    NonPal,
    /// Plane sharing within one die.
    Pal1,
    /// Die interleaving, one plane per die.
    Pal2,
    /// Die interleaving combined with plane sharing.
    Pal3,
}

impl ParallelismLevel {
    /// All levels in ascending order of parallelism.
    pub const ALL: [ParallelismLevel; 4] = [
        ParallelismLevel::NonPal,
        ParallelismLevel::Pal1,
        ParallelismLevel::Pal2,
        ParallelismLevel::Pal3,
    ];

    /// Classifies a transaction of `requests` page requests, one per
    /// (die, plane), spread over `dies` distinct dies.
    pub fn of(dies: usize, requests: usize) -> Self {
        match (dies, requests) {
            (0 | 1, 0 | 1) => ParallelismLevel::NonPal,
            (1, _) => ParallelismLevel::Pal1,
            (d, r) if r > d => ParallelismLevel::Pal3,
            _ => ParallelismLevel::Pal2,
        }
    }

    /// Short label used by the experiment harness ("NON-PAL", "PAL1", ...).
    pub fn label(self) -> &'static str {
        match self {
            ParallelismLevel::NonPal => "NON-PAL",
            ParallelismLevel::Pal1 => "PAL1",
            ParallelismLevel::Pal2 => "PAL2",
            ParallelismLevel::Pal3 => "PAL3",
        }
    }
}

impl fmt::Display for ParallelismLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_request_is_non_pal() {
        assert_eq!(ParallelismLevel::of(1, 1), ParallelismLevel::NonPal);
    }

    #[test]
    fn plane_sharing_is_pal1() {
        assert_eq!(ParallelismLevel::of(1, 3), ParallelismLevel::Pal1);
    }

    #[test]
    fn die_interleaving_is_pal2() {
        assert_eq!(ParallelismLevel::of(2, 2), ParallelismLevel::Pal2);
    }

    #[test]
    fn combined_is_pal3() {
        assert_eq!(ParallelismLevel::of(2, 4), ParallelismLevel::Pal3);
        assert_eq!(ParallelismLevel::of(2, 3), ParallelismLevel::Pal3);
    }

    #[test]
    fn flash_op_properties() {
        assert_eq!(FlashOp::Read.to_string(), "read");
        assert_eq!(FlashOp::Program.to_string(), "program");
        assert_eq!(FlashOp::Erase.to_string(), "erase");
    }

    #[test]
    fn parallelism_labels_and_order() {
        assert_eq!(ParallelismLevel::NonPal.label(), "NON-PAL");
        assert_eq!(ParallelismLevel::Pal3.to_string(), "PAL3");
        assert!(ParallelismLevel::NonPal < ParallelismLevel::Pal1);
        assert!(ParallelismLevel::Pal2 < ParallelismLevel::Pal3);
        assert_eq!(ParallelismLevel::ALL.len(), 4);
    }
}
