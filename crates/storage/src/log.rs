//! The record log: the bytes of one process's stable storage, and the
//! replay that turns them back into what they say. A log is a
//! concatenation of self-delimiting records, each carrying its own
//! [`rdt_base::codec::checksum`] (all integers little-endian):
//!
//! ```text
//! checkpoint   b"RDTC" …                                  the codec record, 38 + 12·n bytes
//! collect      b"RDTX"  owner u32  index u64  check u64   24 bytes: that checkpoint is eliminated
//! incarnation  b"RDTI"  value u32  check u64              16 bytes, always written twice in a row
//! ```
//!
//! [`replay`] is total and linear over arbitrary bytes. A record that
//! fails validation is skipped by resynchronising on the next position
//! where one validates; each stretch skipped is one unit of
//! [`Replay::damaged`]. Look-alike tags cannot make that scan hash the
//! rest of the file once each: every checkpoint record of a log has the
//! length of the first that validated (one system size) and a candidate
//! of another length is refused unhashed; until one validated, a candidate
//! is hashed only while the failed ones before it cost at most one file
//! length, so a single bad record never uses up the allowance of the good
//! one behind it.
//!
//! **A collect never removes the last live checkpoint.** A commit appends
//! its checkpoints before its collects, so a torn append keeps the order
//! anyway; the rule covers the flipped bit that kills the new checkpoint
//! and leaves the collects behind it valid.

use std::collections::BTreeMap;

use rdt_base::codec::{checksum, Reader};
use rdt_base::{CheckpointIndex, Incarnation, ProcessId};

use crate::codec::Frame;

const CHECKPOINT: &[u8] = b"RDTC";
const COLLECT: &[u8] = b"RDTX";
const INCARNATION: &[u8] = b"RDTI";

/// Bytes of a collect record.
pub const COLLECT_BYTES: usize = 24;
/// Bytes of an incarnation floor as written: its record twice, so one
/// damaged copy never lowers the floor.
pub const FLOOR_BYTES: usize = 32;

/// Appends the record that eliminates `owner`'s checkpoint `index`.
pub fn encode_collect(owner: ProcessId, index: CheckpointIndex, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(COLLECT);
    out.extend_from_slice(&(owner.index() as u32).to_le_bytes());
    out.extend_from_slice(&(index.value() as u64).to_le_bytes());
    let check = checksum(&out[start..]);
    out.extend_from_slice(&check.to_le_bytes());
}

/// Appends the incarnation floor `v`, both copies.
pub fn encode_floor(v: Incarnation, out: &mut Vec<u8>) {
    let mut record = [0u8; FLOOR_BYTES / 2];
    record[..4].copy_from_slice(INCARNATION);
    record[4..8].copy_from_slice(&v.value().to_le_bytes());
    let check = checksum(&record[..8]);
    record[8..].copy_from_slice(&check.to_le_bytes());
    out.extend_from_slice(&record);
    out.extend_from_slice(&record);
}

/// The `len`-byte record at the start of `bytes` behind a 4-byte tag, if
/// its trailing checksum holds: a reader over its payload after the tag.
fn sealed(bytes: &[u8], len: usize) -> Option<Reader<'_>> {
    let (body, check) = bytes.get(..len)?.split_at(len - 8);
    (checksum(body).to_le_bytes() == check).then(|| Reader::new(&body[4..]))
}

/// What a log says once replayed.
#[derive(Debug, Default)]
pub struct Replay<'a> {
    /// The checkpoint records live at the end, validated but not decoded.
    pub live: BTreeMap<CheckpointIndex, Frame<'a>>,
    /// The highest incarnation a valid record names, if any does.
    pub floor: Option<Incarnation>,
    /// Stretches of bytes no valid record covers, an invalid tail (a torn
    /// append that was never acknowledged) included.
    pub damaged: usize,
    /// Whether a stretch *ahead of the tail* held an incarnation tag: an
    /// acknowledged floor may be among the bytes that no longer validate.
    pub floor_damaged: bool,
}

impl Replay<'_> {
    /// Appends the log that says the same in the fewest bytes: `floor`
    /// (when above zero), then the live records as they are.
    pub fn compact_into(&self, floor: Incarnation, out: &mut Vec<u8>) {
        if floor > Incarnation::ZERO {
            encode_floor(floor, out);
        }
        for frame in self.live.values() {
            out.extend_from_slice(frame.bytes);
        }
    }
}

/// Replays `bytes` as the log of `owner`; see the [module docs](self).
pub fn replay(bytes: &[u8], owner: ProcessId) -> Replay<'_> {
    let mut out = Replay::default();
    // Length of this log's checkpoint records, once one has validated, and
    // the bytes hashed for failed candidates; whether a stretch is being
    // skipped, and whether it held a floor tag.
    let (mut record_len, mut spent) = (None, 0);
    let (mut skipping, mut floor_tag) = (false, false);
    let mut at = 0;
    while at < bytes.len() {
        let rest = &bytes[at..];
        let tag = rest.get(..4).unwrap_or_default();
        let mut advance = None;
        if tag == CHECKPOINT {
            let mut claimed = 0;
            let admit = |len| {
                claimed = len;
                record_len.map_or(spent <= bytes.len(), |known| known == len)
            };
            match Frame::parse(rest, admit) {
                Ok(frame) if frame.owner == owner => {
                    record_len = Some(claimed);
                    out.live.insert(frame.index, frame);
                    advance = Some(claimed);
                }
                _ => spent += claimed,
            }
        } else if tag == COLLECT {
            let body = sealed(rest, COLLECT_BYTES).and_then(|mut r| Some((r.u32()?, r.u64()?)));
            if let Some((_, index)) = body.filter(|&(who, _)| who as usize == owner.index()) {
                if out.live.len() > 1 {
                    out.live.remove(&CheckpointIndex::new(index as usize));
                }
                advance = Some(COLLECT_BYTES);
            }
        } else if tag == INCARNATION {
            if let Some(v) = sealed(rest, FLOOR_BYTES / 2).and_then(|mut r| r.u32()) {
                out.floor = out.floor.max(Some(Incarnation::new(v)));
                advance = Some(FLOOR_BYTES / 2);
            } else {
                floor_tag = true;
            }
        }
        match advance {
            Some(len) => {
                out.damaged += usize::from(skipping);
                out.floor_damaged |= skipping && floor_tag;
                (skipping, floor_tag) = (false, false);
                at += len;
            }
            None => {
                skipping = true;
                at += 1;
            }
        }
    }
    out.damaged += usize::from(skipping);
    out
}
