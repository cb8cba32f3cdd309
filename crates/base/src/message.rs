//! Application messages and their piggybacked control information.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ProcessId, SharedDv};

/// Globally unique message identifier: the sender plus a per-sender sequence
/// number assigned at send time.
///
/// Identifiers order messages *per sender*; they say nothing about delivery
/// order, which the system model allows to differ (messages may be lost or
/// delivered out of order, Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId {
    /// The sending process.
    pub sender: ProcessId,
    /// Sequence number local to the sender, starting at `0`.
    pub seq: u64,
}

impl MessageId {
    /// Creates a message id.
    pub const fn new(sender: ProcessId, seq: u64) -> Self {
        Self { sender, seq }
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m({}#{})", self.sender, self.seq)
    }
}

/// Control information piggybacked on an application message by an RDT
/// checkpointing protocol.
///
/// Per the paper's headline property, this is *all* the coordination an
/// asynchronous garbage collector may rely on (Definition 8): the dependency
/// vector the checkpointing protocol already propagates. No extra fields are
/// added for garbage collection. Each vector entry is incarnation-qualified
/// (a [`crate::DvEntry`]), so the piggyback also carries the sender's view
/// of every process's rollback lineage — the Strom/Yemini-style metadata
/// that keeps recovery total under repeated crashes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageMeta {
    /// Unique id (sender + per-sender sequence).
    pub id: MessageId,
    /// Destination process.
    pub dst: ProcessId,
    /// The sender's dependency vector at send time (`m.DV`), shared with
    /// the sender's interned snapshot: constructing a message does not
    /// deep-copy the vector. [`SharedDv`] is thread-local (non-atomic):
    /// messages live on the thread that minted them, and a runtime that
    /// moves one to another thread ships a copy of the plain vector.
    pub dv: SharedDv,
}

impl MessageMeta {
    /// Creates message metadata. Accepts an owned vector (wrapped) or an
    /// already-interned [`SharedDv`] (shared without copying).
    pub fn new(id: MessageId, dst: ProcessId, dv: impl Into<SharedDv>) -> Self {
        Self {
            id,
            dst,
            dv: dv.into(),
        }
    }

    /// The sending process.
    pub fn src(&self) -> ProcessId {
        self.id.sender
    }
}

impl fmt::Display for MessageMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{} DV={}", self.id, self.dst, self.dv)
    }
}

/// Opaque application payload carried by a [`Message`].
///
/// The checkpointing and garbage-collection layers never inspect payloads;
/// workload generators use them to label traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Payload(pub Vec<u8>);

impl Payload {
    /// An empty payload.
    pub const fn empty() -> Self {
        Self(Vec::new())
    }

    /// Payload from a UTF-8 label (handy in examples and traces).
    pub fn label(s: &str) -> Self {
        Self(s.as_bytes().to_vec())
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Self(bytes)
    }
}

/// An application message: piggybacked control information plus payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// The piggybacked control information.
    pub meta: MessageMeta,
    /// The opaque application payload.
    pub payload: Payload,
}

impl Message {
    /// Creates a message.
    pub fn new(meta: MessageMeta, payload: Payload) -> Self {
        Self { meta, payload }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DependencyVector;

    #[test]
    fn message_id_orders_per_sender() {
        let a = MessageId::new(ProcessId::new(0), 1);
        let b = MessageId::new(ProcessId::new(0), 2);
        assert!(a < b);
    }

    #[test]
    fn meta_src_comes_from_id() {
        let meta = MessageMeta::new(
            MessageId::new(ProcessId::new(2), 0),
            ProcessId::new(1),
            DependencyVector::new(3),
        );
        assert_eq!(meta.src(), ProcessId::new(2));
    }

    #[test]
    fn payload_label_roundtrip() {
        let p = Payload::label("m3");
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn display_is_informative() {
        let meta = MessageMeta::new(
            MessageId::new(ProcessId::new(0), 7),
            ProcessId::new(1),
            DependencyVector::from_raw(vec![1, 0]),
        );
        let s = Message::new(meta, Payload::empty()).to_string();
        assert!(s.contains("p1"), "{s}");
        assert!(s.contains("(1, 0)"), "{s}");
    }
}
