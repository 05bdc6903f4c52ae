//! Error types for the SSD substrate.

use std::error::Error;
use std::fmt;

use sprinkler_flash::FlashError;

/// Errors reported by the SSD substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SsdError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// An error bubbled up from the flash model.
    Flash(FlashError),
    /// A configuration quantity exceeds what the simulator's tables can
    /// address or pre-size.
    TooLarge {
        /// The offending quantity (e.g. `total_pages`, `queue_depth`).
        field: &'static str,
        /// Its value in the configuration.
        value: u64,
        /// The largest value the simulator supports.
        max: u64,
    },
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::InvalidConfig(reason) => write!(f, "invalid SSD configuration: {reason}"),
            SsdError::Flash(e) => write!(f, "flash error: {e}"),
            SsdError::TooLarge { field, value, max } => {
                write!(
                    f,
                    "{field} = {value} exceeds the simulator's limit of {max}"
                )
            }
        }
    }
}

impl Error for SsdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SsdError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for SsdError {
    fn from(e: FlashError) -> Self {
        SsdError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_meaningful() {
        let e = SsdError::InvalidConfig("queue_depth must be non-zero".into());
        assert!(e.to_string().contains("queue_depth"));
        let f = SsdError::from(FlashError::EmptyTransaction);
        assert!(f.to_string().contains("flash"));
    }

    #[test]
    fn source_chains_flash_errors() {
        use std::error::Error as _;
        let e = SsdError::Flash(FlashError::EmptyTransaction);
        assert!(e.source().is_some());
        assert!(SsdError::InvalidConfig(String::new()).source().is_none());
    }
}
