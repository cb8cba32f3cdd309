//! Error types shared across the workspace.

use std::fmt;

use crate::{CheckpointIndex, ProcessId};

/// Convenience alias for results using [`enum@Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the RDT checkpointing stack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A process id exceeded the system size `n`.
    ProcessOutOfRange {
        /// The offending process id.
        process: ProcessId,
        /// The system size.
        n: usize,
    },
    /// A checkpoint index was requested that the process has never taken or
    /// has already garbage-collected.
    UnknownCheckpoint {
        /// Owner of the checkpoint.
        process: ProcessId,
        /// The missing index.
        index: CheckpointIndex,
    },
    /// A stable checkpoint was requested from storage but is not present
    /// (collected, or never stored).
    CheckpointNotInStorage {
        /// Owner of the checkpoint.
        process: ProcessId,
        /// The missing index.
        index: CheckpointIndex,
    },
    /// Two artifacts from systems of different sizes were combined.
    SystemSizeMismatch {
        /// Size expected by the receiver.
        expected: usize,
        /// Size actually provided.
        actual: usize,
    },
    /// An operation was attempted on a crashed process.
    ProcessCrashed(ProcessId),
    /// A rollback target does not exist in stable storage.
    InvalidRollbackTarget {
        /// The process asked to roll back.
        process: ProcessId,
        /// The requested restoration index.
        index: CheckpointIndex,
    },
    /// A message id was referenced that was never sent.
    UnknownMessage(crate::MessageId),
    /// A message was delivered or dropped twice.
    DuplicateDelivery(crate::MessageId),
    /// A trace event is not supported in the current context.
    UnsupportedTraceEvent(String),
    /// A recovery-line computation exhausted a process's stored checkpoints
    /// under a collector whose safety guarantees forbid it (Lemma-1 totality
    /// violated — a garbage-collection safety bug, not a model property).
    RecoveryLineExhausted {
        /// The process whose stored checkpoints were all blocked.
        process: ProcessId,
    },
    /// An incarnation number does not fit the packed dependency-vector
    /// word's 16-bit incarnation field (`crate::DvEntry::MAX_INCARNATION`).
    IncarnationOverflow {
        /// The rejected incarnation number.
        incarnation: u32,
    },
    /// An interval index does not fit the packed dependency-vector word's
    /// 48-bit interval field (`crate::DvEntry::MAX_INTERVAL`).
    IntervalOverflow {
        /// The rejected interval index.
        interval: usize,
    },
    /// A configuration value is out of its valid range (caught at
    /// construction, before it can panic mid-run).
    InvalidConfig(String),
    /// The durability sink behind a middleware failed (write-ahead log or
    /// checkpoint commit); carries the sink's own error rendering.
    Storage(String),
    /// A live runtime's transport failed to send or receive a frame.
    Transport(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ProcessOutOfRange { process, n } => {
                write!(f, "process {process} out of range for system of {n}")
            }
            Error::UnknownCheckpoint { process, index } => {
                write!(f, "unknown checkpoint {index} of {process}")
            }
            Error::CheckpointNotInStorage { process, index } => {
                write!(f, "checkpoint {index} of {process} not in stable storage")
            }
            Error::SystemSizeMismatch { expected, actual } => {
                write!(f, "system size mismatch: expected {expected}, got {actual}")
            }
            Error::ProcessCrashed(p) => write!(f, "process {p} is crashed"),
            Error::InvalidRollbackTarget { process, index } => {
                write!(f, "invalid rollback target {index} for {process}")
            }
            Error::UnknownMessage(id) => write!(f, "unknown message {id}"),
            Error::DuplicateDelivery(id) => write!(f, "message {id} delivered or dropped twice"),
            Error::UnsupportedTraceEvent(what) => write!(f, "unsupported trace event: {what}"),
            Error::RecoveryLineExhausted { process } => {
                write!(
                    f,
                    "recovery line exhausted the stored checkpoints of {process} under a safe collector"
                )
            }
            Error::IncarnationOverflow { incarnation } => {
                write!(
                    f,
                    "incarnation {incarnation} exceeds the packed 16-bit field"
                )
            }
            Error::IntervalOverflow { interval } => {
                write!(f, "interval {interval} exceeds the packed 48-bit field")
            }
            Error::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            Error::Storage(what) => write!(f, "storage sink failed: {what}"),
            Error::Transport(what) => write!(f, "transport failed: {what}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_punctuation() {
        let e = Error::ProcessOutOfRange {
            process: ProcessId::new(5),
            n: 3,
        };
        let s = e.to_string();
        assert!(s.starts_with("process"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }

    #[test]
    fn display_covers_all_variants() {
        let variants = [
            Error::ProcessOutOfRange {
                process: ProcessId::new(0),
                n: 1,
            },
            Error::UnknownCheckpoint {
                process: ProcessId::new(0),
                index: CheckpointIndex::new(1),
            },
            Error::CheckpointNotInStorage {
                process: ProcessId::new(0),
                index: CheckpointIndex::new(1),
            },
            Error::SystemSizeMismatch {
                expected: 2,
                actual: 3,
            },
            Error::ProcessCrashed(ProcessId::new(0)),
            Error::InvalidRollbackTarget {
                process: ProcessId::new(0),
                index: CheckpointIndex::new(9),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
