//! Wire codec for piggybacked application messages between real
//! processes.
//!
//! Inside one process the piggyback is an interned `Rc`/`Arc` snapshot;
//! across a process boundary it has to be bytes. A frame carries exactly
//! what `Middleware::receive` needs — the sender, the per-sender message
//! sequence number, the sender's current checkpoint index and the full
//! dependency vector as `(incarnation, interval)` lineage pairs — plus a
//! compact trace context (the sender's causal parent, i.e. the last frame
//! it applied before this send) for cross-process happened-before
//! reconstruction, a magic tag and an FNV-1a checksum so a torn or alien
//! datagram is rejected instead of parsed.
//!
//! All integers are little-endian. Current (v2) layout:
//!
//! ```text
//! magic          u32   0x7174_4452 ("RDTq")
//! sender         u32
//! seq            u64
//! index          u64
//! parent_origin  u32   u32::MAX when the send has no causal parent
//! parent_seq     u64
//! n              u32
//! n × (incarnation u32, interval u64)
//! fnv            u64   checksum over everything above
//! ```
//!
//! The v1 layout (`"RDTp"`, no `parent_*` fields) is not accepted: its
//! magic is rejected like any other unknown tag.

use rdt_base::ProcessId;

/// Frame magic: `b"RDTq"` read as a little-endian u32 (v2, with trace
/// context).
const MAGIC: u32 = u32::from_le_bytes(*b"RDTq");

/// `parent_origin` sentinel marking a frame without a causal parent.
const NO_PARENT: u32 = u32::MAX;

/// One application message on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Originating process.
    pub sender: ProcessId,
    /// Sender-local message sequence number (trace identity).
    pub seq: u64,
    /// The piggybacked checkpoint index (`Piggyback::index`).
    pub index: u64,
    /// Causal parent: the `(origin, seq)` identity of the last frame the
    /// sender applied before this send, `None` for a root send. Purely
    /// observational — the protocol layer ignores it; `rdt causal` uses it
    /// to stitch per-process traces into one happened-before order.
    pub parent: Option<(u32, u64)>,
    /// The sender's dependency vector as raw `(incarnation, interval)`
    /// lineages, one per process.
    pub lineages: Vec<(u32, usize)>,
}

/// FNV-1a over a byte slice; cheap, endian-stable, good enough to reject
/// torn datagrams (corruption detection, not authentication).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl WireFrame {
    /// Serializes the frame (v2 layout), appending the checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 4 + 8 + 8 + 4 + 8 + 4 + self.lineages.len() * 12 + 8);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.sender.index() as u32).to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
        let (parent_origin, parent_seq) = self.parent.unwrap_or((NO_PARENT, 0));
        out.extend_from_slice(&parent_origin.to_le_bytes());
        out.extend_from_slice(&parent_seq.to_le_bytes());
        out.extend_from_slice(&(self.lineages.len() as u32).to_le_bytes());
        for &(inc, interval) in &self.lineages {
            out.extend_from_slice(&inc.to_le_bytes());
            out.extend_from_slice(&(interval as u64).to_le_bytes());
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses and checksums a frame. `None` for anything malformed:
    /// unknown magic, truncation, trailing bytes or checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        struct Cursor<'a> {
            bytes: &'a [u8],
            at: usize,
        }
        impl<'a> Cursor<'a> {
            fn u32(&mut self) -> Option<u32> {
                let b = self.bytes.get(self.at..self.at + 4)?;
                self.at += 4;
                Some(u32::from_le_bytes(b.try_into().expect("4 bytes")))
            }
            fn u64(&mut self) -> Option<u64> {
                let b = self.bytes.get(self.at..self.at + 8)?;
                self.at += 8;
                Some(u64::from_le_bytes(b.try_into().expect("8 bytes")))
            }
        }
        let mut cur = Cursor { bytes, at: 0 };

        if cur.u32()? != MAGIC {
            return None;
        }
        let sender = cur.u32()? as usize;
        let seq = cur.u64()?;
        let index = cur.u64()?;
        let parent_origin = cur.u32()?;
        let parent_seq = cur.u64()?;
        let parent = if parent_origin == NO_PARENT {
            // The sentinel must carry a zero seq; anything else is a
            // malformed (likely torn) frame, not a valid "no parent".
            if parent_seq != 0 {
                return None;
            }
            None
        } else {
            Some((parent_origin, parent_seq))
        };
        let n = cur.u32()? as usize;
        // Bound n by what the buffer can actually hold before allocating.
        if bytes.len() < cur.at + n * 12 + 8 {
            return None;
        }
        let mut lineages = Vec::with_capacity(n);
        for _ in 0..n {
            let inc = cur.u32()?;
            let interval = cur.u64()? as usize;
            lineages.push((inc, interval));
        }
        let body_end = cur.at;
        let sum = cur.u64()?;
        if cur.at != bytes.len() || sum != fnv1a(&bytes[..body_end]) {
            return None;
        }
        Some(Self {
            sender: ProcessId::new(sender),
            seq,
            index,
            parent,
            lineages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> WireFrame {
        WireFrame {
            sender: ProcessId::new(2),
            seq: 41,
            index: 7,
            parent: Some((0, 40)),
            lineages: vec![(0, 3), (1, 0), (0, 9)],
        }
    }

    #[test]
    fn round_trip() {
        let f = frame();
        let bytes = f.encode();
        assert_eq!(WireFrame::decode(&bytes), Some(f));
    }

    #[test]
    fn round_trip_without_parent() {
        let f = WireFrame {
            parent: None,
            ..frame()
        };
        let bytes = f.encode();
        assert_eq!(WireFrame::decode(&bytes), Some(f));
    }

    #[test]
    fn v1_frames_are_rejected() {
        // The pre-trace-context magic: no code path ever produced it, so
        // it is as alien as any other tag.
        let mut bytes = frame().encode();
        bytes[..4].copy_from_slice(b"RDTp");
        assert_eq!(WireFrame::decode(&bytes), None);
    }

    #[test]
    fn corruption_is_rejected() {
        for f in [frame(), WireFrame { parent: None, ..frame() }] {
            let mut bytes = f.encode();
            for i in 0..bytes.len() {
                bytes[i] ^= 0x40;
                assert_eq!(WireFrame::decode(&bytes), None, "flipped byte {i} parsed");
                bytes[i] ^= 0x40;
            }
        }
    }

    #[test]
    fn truncation_and_padding_are_rejected() {
        let bytes = frame().encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                WireFrame::decode(&bytes[..cut]),
                None,
                "prefix {cut} parsed"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(WireFrame::decode(&padded), None);
    }

    #[test]
    fn alien_magic_is_rejected() {
        let mut bytes = frame().encode();
        bytes[0] = b'X';
        assert_eq!(WireFrame::decode(&bytes), None);
    }
}
