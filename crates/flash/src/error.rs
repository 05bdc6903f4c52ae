//! Error types for the flash model.

use std::error::Error;
use std::fmt;

use crate::address::PhysicalPageAddr;

/// Errors reported by the NAND flash model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlashError {
    /// A physical address referenced a resource outside the configured geometry.
    AddressOutOfRange {
        /// The offending address.
        addr: PhysicalPageAddr,
        /// Which coordinate was out of range.
        field: &'static str,
    },
    /// A request could not be coalesced into a transaction (wrong chip, wrong
    /// operation, or a plane/die conflict).
    CoalesceConflict {
        /// Human readable reason for the rejection.
        reason: &'static str,
    },
    /// Attempted to build an empty transaction.
    EmptyTransaction,
    /// A transaction was admitted to a chip that is still busy.
    ChipBusy {
        /// Channel index of the busy chip.
        channel: u32,
        /// Way (position within the channel) of the busy chip.
        way: u32,
    },
    /// A geometry parameter was zero or otherwise invalid.
    InvalidGeometry {
        /// Which parameter is invalid.
        field: &'static str,
    },
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::AddressOutOfRange { addr, field } => {
                write!(f, "address {addr} out of range in field {field}")
            }
            FlashError::CoalesceConflict { reason } => {
                write!(f, "cannot coalesce request into transaction: {reason}")
            }
            FlashError::EmptyTransaction => write!(f, "transaction contains no requests"),
            FlashError::ChipBusy { channel, way } => {
                write!(f, "chip (channel {channel}, way {way}) is busy")
            }
            FlashError::InvalidGeometry { field } => {
                write!(f, "invalid flash geometry: {field} must be non-zero")
            }
        }
    }
}

impl Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;

    #[test]
    fn errors_display_human_readable_text() {
        let geometry = FlashGeometry::small_test();
        let addr = geometry.page_addr(0, 0, 0, 0, 0, 0);
        let cases: Vec<FlashError> = vec![
            FlashError::AddressOutOfRange {
                addr,
                field: "plane",
            },
            FlashError::CoalesceConflict {
                reason: "different chip",
            },
            FlashError::EmptyTransaction,
            FlashError::ChipBusy { channel: 1, way: 2 },
            FlashError::InvalidGeometry { field: "channels" },
        ];
        for err in cases {
            let text = err.to_string();
            assert!(!text.is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<FlashError>();
    }
}
