//! Error type shared by all bioseq operations.

use std::fmt;
use std::io;

/// Convenience result alias for fallible bioseq operations.
pub(crate) type Result<T> = std::result::Result<T, BioError>;

/// Errors produced while parsing or manipulating biological sequences.
#[derive(Debug)]
pub enum BioError {
    /// A byte outside the accepted alphabet was encountered.
    InvalidBase {
        /// The offending byte.
        byte: u8,
        /// Zero-based position within the sequence.
        pos: usize,
    },
    /// A byte that is not a valid amino-acid code was encountered.
    InvalidResidue {
        /// The offending byte.
        byte: u8,
        /// Zero-based position within the sequence.
        pos: usize,
    },
    /// FASTA input was structurally malformed.
    MalformedFasta {
        /// One-based line number of the problem.
        line: usize,
        /// Human-readable description.
        reason: String,
    },
    /// A k-mer size outside the supported range was requested.
    BadKmerSize(usize),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for BioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BioError::InvalidBase { byte, pos } => {
                write!(f, "invalid nucleotide byte 0x{byte:02x} at position {pos}")
            }
            BioError::InvalidResidue { byte, pos } => {
                write!(f, "invalid amino-acid byte 0x{byte:02x} at position {pos}")
            }
            BioError::MalformedFasta { line, reason } => {
                write!(f, "malformed FASTA at line {line}: {reason}")
            }
            BioError::BadKmerSize(k) => {
                write!(f, "k-mer size {k} outside supported range 1..=32")
            }
            BioError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for BioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BioError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BioError {
    fn from(e: io::Error) -> Self {
        BioError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = BioError::InvalidBase { byte: b'?', pos: 7 };
        assert!(e.to_string().contains("position 7"));
        let e = BioError::BadKmerSize(40);
        assert!(e.to_string().contains("40"));
        let e = BioError::MalformedFasta {
            line: 3,
            reason: "body before header".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let e: BioError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
