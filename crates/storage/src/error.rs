//! Error type for the durable-storage layer.
//!
//! Errors are split by what the caller should do about them:
//! [`Error::Transient`] means a bounded retry already failed on an error
//! class that often clears (`EIO`, `ENOSPC`, interrupts) and the caller
//! may retry the whole operation later; [`Error::Io`] and
//! [`Error::Corrupt`] are permanent for the operation that raised them.

use std::fmt;
use std::io;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// What can go wrong persisting or loading checkpoints.
#[derive(Debug)]
pub enum Error {
    /// An underlying filesystem operation failed with a permanent error
    /// (or an error class the retry path does not cover).
    Io(io::Error),
    /// A record failed validation (truncation, bad magic, checksum…).
    Corrupt(&'static str),
    /// A transient filesystem error (`EIO`, `ENOSPC`, interrupt) persisted
    /// through every bounded retry attempt.
    Transient {
        /// The backend operation that kept failing (`store/append`, …).
        op: &'static str,
        /// The last error observed.
        source: io::Error,
        /// How many attempts were made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "stable-storage i/o failed: {e}"),
            Error::Corrupt(what) => write!(f, "corrupt checkpoint record: {what}"),
            Error::Transient {
                op,
                source,
                attempts,
            } => write!(
                f,
                "transient storage error persisted through {attempts} attempts of {op}: {source}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Transient { source, .. } => Some(source),
            Error::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_punctuation() {
        let e = Error::Corrupt("bad magic");
        let s = e.to_string();
        assert!(s.starts_with(char::is_lowercase));
        assert!(!s.ends_with('.'));
        let t = Error::Transient {
            op: "store/append",
            source: io::Error::from_raw_os_error(5),
            attempts: 5,
        };
        assert!(t.to_string().starts_with(char::is_lowercase));
        assert!(t.to_string().contains("of store/append"), "{t}");
    }

    #[test]
    fn io_errors_chain_as_source() {
        use std::error::Error as _;
        let e = Error::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        let t = Error::Transient {
            op: "store/fsync",
            source: io::Error::from_raw_os_error(28),
            attempts: 3,
        };
        assert!(t.source().is_some());
    }
}
