//! Wire codec for piggybacked application messages between real
//! processes.
//!
//! Inside one process the piggyback is an interned `Rc`/`Arc` snapshot;
//! across a process boundary it has to be bytes. A frame carries exactly
//! what the middleware's receive needs — the sender, the per-sender message
//! sequence number, the sender's current checkpoint index and the full
//! dependency vector — plus a compact trace context (the sender's causal
//! parent, i.e. the last frame it applied before this send) for
//! cross-process happened-before reconstruction, a magic tag and a
//! checksum so a torn or alien datagram is rejected instead of parsed.
//!
//! All integers are little-endian. The one (v3) layout:
//!
//! ```text
//! magic          u32   "RDTr"
//! sender         u32
//! seq            u64
//! index          u64
//! parent_origin  u32   u32::MAX when the send has no causal parent
//! parent_seq     u64
//! n              u32
//! n × (incarnation u32, interval u64)     rdt_base::codec::ENTRY_BYTES each
//! check          u64   rdt_base::codec::checksum of everything above
//! ```
//!
//! **A frame is its bytes.** [`WireFrame`] is a validated *view*: the
//! parsed header next to the byte slice it was parsed from. The encoder
//! ([`WireFrame::write`]) fills a buffer its caller keeps and returns the
//! view over it; the decoder ([`WireFrame::decode`]) checks the exact
//! length (checked arithmetic — a lying `n` is a length mismatch, never an
//! allocation) and the checksum before anything looks at an entry, and
//! [`WireFrame::unpack_into`] writes the entries into a vector the
//! receiver keeps. Nothing on the path allocates.
//!
//! The checksum rejects every single-bit flip with certainty (the argument
//! is in [`rdt_base::codec`]). Entries stay wide — 12 bytes where the
//! in-memory word has 8 — because the benchmark pins the frame size as an
//! exact count; narrowing them is its own format change. v2 (`"RDTq"`,
//! FNV-1a) and v1 frames are rejected at the magic like any alien tag:
//! nothing deployed produces them.

use rdt_base::codec::{self, Reader, ENTRY_BYTES};
use rdt_base::{DependencyVector, ProcessId};

const MAGIC: u32 = u32::from_le_bytes(*b"RDTr");

/// `parent_origin` sentinel marking a frame without a causal parent.
const NO_PARENT: u32 = u32::MAX;

/// Bytes before the entries, and of the checksum after them.
const HEADER: usize = 4 + 4 + 8 + 8 + 4 + 8 + 4;
const TRAILER: usize = 8;

/// One application message on the wire: the parsed header of a frame that
/// passed every check, and the frame's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFrame<'a> {
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
    bytes: &'a [u8],
}

impl<'a> WireFrame<'a> {
    /// The size of a frame carrying an `n`-entry vector; `None` where that
    /// overflows `usize`. Transports carry at most
    /// [`MAX_FRAME`](crate::transport::MAX_FRAME) bytes.
    pub fn encoded_len(n: usize) -> Option<usize> {
        n.checked_mul(ENTRY_BYTES)?.checked_add(HEADER + TRAILER)
    }

    /// Encodes a frame into `buf` (resized to fit; a buffer that already
    /// has the size is not reallocated) and returns the view over it.
    ///
    /// # Panics
    ///
    /// Panics if the sender or the vector's length does not fit a `u32`.
    pub fn write(
        buf: &'a mut Vec<u8>,
        sender: ProcessId,
        seq: u64,
        index: u64,
        parent: Option<(u32, u64)>,
        dv: &DependencyVector,
    ) -> Self {
        let n = u32::try_from(dv.len()).expect("system size fits the wire");
        let sender_id = u32::try_from(sender.index()).expect("sender fits the wire");
        let (parent_origin, parent_seq) = parent.unwrap_or((NO_PARENT, 0));
        let body_len = HEADER + dv.len() * ENTRY_BYTES;
        buf.resize(body_len + TRAILER, 0);
        let (body, check) = buf.split_at_mut(body_len);
        let (header, entries) = body.split_at_mut(HEADER);
        header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&sender_id.to_le_bytes());
        header[8..16].copy_from_slice(&seq.to_le_bytes());
        header[16..24].copy_from_slice(&index.to_le_bytes());
        header[24..28].copy_from_slice(&parent_origin.to_le_bytes());
        header[28..36].copy_from_slice(&parent_seq.to_le_bytes());
        header[36..40].copy_from_slice(&n.to_le_bytes());
        codec::write_entries(dv, entries);
        check.copy_from_slice(&codec::checksum(body).to_le_bytes());
        Self {
            sender,
            seq,
            index,
            parent,
            bytes: buf,
        }
    }

    /// The frame's bytes, ready for a transport.
    pub fn encode(&self) -> &'a [u8] {
        self.bytes
    }

    /// Parses and checksums a frame. `None` for anything malformed:
    /// unknown magic, truncation, trailing bytes or checksum mismatch.
    pub fn decode(bytes: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC {
            return None;
        }
        let sender = r.u32()? as usize;
        let seq = r.u64()?;
        let index = r.u64()?;
        let parent_origin = r.u32()?;
        let parent_seq = r.u64()?;
        let n = r.u32()? as usize;
        r.take_items(n, ENTRY_BYTES)?;
        let body = &bytes[..r.position()];
        let check = r.u64()?;
        if !r.is_empty() || check != codec::checksum(body) {
            return None;
        }
        let parent = if parent_origin == NO_PARENT {
            // The sentinel must carry a zero seq: no encoder writes
            // anything else.
            if parent_seq != 0 {
                return None;
            }
            None
        } else {
            Some((parent_origin, parent_seq))
        };
        Some(Self {
            sender: ProcessId::new(sender),
            seq,
            index,
            parent,
            bytes,
        })
    }

    /// The length of the dependency vector the frame carries.
    pub fn n(&self) -> usize {
        (self.bytes.len() - HEADER - TRAILER) / ENTRY_BYTES
    }

    /// Writes the carried vector into `dv`.
    ///
    /// # Errors
    ///
    /// As [`codec::read_entries`]: `dv` has another length than
    /// [`n`](Self::n), or an entry overflows the packed word — `dv` is then
    /// overwritten with unspecified entries.
    pub fn unpack_into(&self, dv: &mut DependencyVector) -> rdt_base::Result<()> {
        codec::read_entries(&self.bytes[HEADER..self.bytes.len() - TRAILER], dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(buf: &mut Vec<u8>, parent: Option<(u32, u64)>) -> WireFrame<'_> {
        let dv = DependencyVector::from_lineages(vec![(0, 3), (1, 0), (0, 9)]);
        WireFrame::write(buf, ProcessId::new(2), 41, 7, parent, &dv)
    }

    fn assert_round_trip(parent: Option<(u32, u64)>) {
        let mut buf = Vec::new();
        let f = frame(&mut buf, parent);
        assert_eq!(f.encode().len(), WireFrame::encoded_len(3).unwrap());
        let back = WireFrame::decode(f.encode()).expect("valid frame");
        assert_eq!(back, f);
        assert_eq!(
            (back.seq, back.index, back.parent, back.n()),
            (41, 7, parent, 3)
        );
        let mut dv = DependencyVector::new(3);
        back.unpack_into(&mut dv).unwrap();
        assert_eq!(dv.to_raw_lineages(), vec![(0, 3), (1, 0), (0, 9)]);
        assert!(back.unpack_into(&mut DependencyVector::new(4)).is_err());
    }

    #[test]
    fn round_trip() {
        assert_round_trip(Some((0, 40)));
    }

    #[test]
    fn round_trip_without_parent() {
        assert_round_trip(None);
    }

    #[test]
    fn a_reused_buffer_is_not_reallocated() {
        let mut buf = Vec::new();
        frame(&mut buf, None);
        let at = buf.as_ptr();
        frame(&mut buf, Some((1, 1)));
        assert_eq!(buf.as_ptr(), at);
    }

    /// The frame under another magic, re-sealed so only the magic is wrong.
    fn with_magic(magic: &[u8; 4]) -> Vec<u8> {
        let mut buf = Vec::new();
        frame(&mut buf, None);
        buf[..4].copy_from_slice(magic);
        let body = buf.len() - TRAILER;
        let sum = codec::checksum(&buf[..body]);
        buf[body..].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    #[test]
    fn v1_frames_are_rejected() {
        // Older magics (v1, and v2 with its FNV-1a trailer): no deployed
        // code produces them, so they are as alien as any other tag.
        assert!(WireFrame::decode(&with_magic(b"RDTr")).is_some());
        assert_eq!(WireFrame::decode(&with_magic(b"RDTp")), None);
        assert_eq!(WireFrame::decode(&with_magic(b"RDTq")), None);
    }

    #[test]
    fn alien_magic_is_rejected() {
        assert_eq!(WireFrame::decode(&with_magic(b"XDTr")), None);
    }

    #[test]
    fn corruption_is_rejected() {
        for parent in [Some((0, 40)), None] {
            let mut bytes = Vec::new();
            frame(&mut bytes, parent);
            for i in 0..bytes.len() {
                bytes[i] ^= 0x40;
                assert_eq!(WireFrame::decode(&bytes), None, "flipped byte {i} parsed");
                bytes[i] ^= 0x40;
            }
        }
    }

    #[test]
    fn truncation_and_padding_are_rejected() {
        let mut bytes = Vec::new();
        frame(&mut bytes, Some((0, 40)));
        for cut in 0..bytes.len() {
            assert_eq!(
                WireFrame::decode(&bytes[..cut]),
                None,
                "prefix {cut} parsed"
            );
        }
        bytes.push(0);
        assert_eq!(WireFrame::decode(&bytes), None);
    }

    #[test]
    fn encoded_len_is_checked() {
        assert_eq!(WireFrame::encoded_len(256), Some(3120));
        assert_eq!(WireFrame::encoded_len(usize::MAX / 4), None);
        assert_eq!(WireFrame::encoded_len(usize::MAX / ENTRY_BYTES), None);
    }
}
