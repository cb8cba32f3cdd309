//! Binary on-disk format for one stable-checkpoint record.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   [u8; 4]   b"RDTC"
//! version u16       3
//! owner   u32       process id
//! index   u64       checkpoint index γ
//! n       u32       dependency-vector length
//! dv      (u32 + u64) × n   entries: incarnation ν, interval γ
//! size    u64       application state-snapshot size, in bytes
//! check   u64       rdt_base::codec::checksum of every preceding byte
//! ```
//!
//! The dependency-vector entries are stored **wide**, in the encoding the
//! wire frame shares ([`rdt_base::codec::ENTRY_BYTES`], where the reasons
//! are): an entry whose components no longer fit the in-memory packing
//! decodes to a typed error instead of silently folding into the wrong
//! lineage.
//!
//! The checksum turns torn writes and bit rot into decode errors instead of
//! silently corrupt recovery state — a checkpoint that cannot be trusted
//! must not be restored. It is the workspace's one checksum and rejects
//! every single-bit flip with certainty (the argument is in
//! [`rdt_base::codec`]). Version 2 differed only in carrying FNV-1a there;
//! its records are rejected at the version field like any other damage —
//! nothing deployed produces them.

use rdt_base::codec::{self, Reader, ENTRY_BYTES};
use rdt_base::{CheckpointIndex, DependencyVector, ProcessId};

use crate::error::{Error, Result};

const MAGIC: [u8; 4] = *b"RDTC";
/// The one format.
const VERSION: u16 = 3;
/// Bytes before the entries; `size` and `check` follow them.
const HEADER: usize = 4 + 2 + 4 + 8 + 4;

/// One decoded checkpoint record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The process that took the checkpoint.
    pub owner: ProcessId,
    /// The checkpoint index.
    pub index: CheckpointIndex,
    /// The dependency vector stored with it (Section 4.2).
    pub dv: DependencyVector,
    /// Application state-snapshot size, in bytes.
    pub state_size: usize,
}

/// Encodes a record into its on-disk bytes.
pub fn encode(record: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + record.dv.len() * ENTRY_BYTES + 8 + 8);
    let Record {
        owner,
        index,
        dv,
        state_size,
    } = record;
    encode_into(*owner, *index, dv, *state_size, &mut out);
    out
}

/// Appends the on-disk bytes of one record to `out` — [`encode`] from
/// borrowed parts, so a commit of several records fills one buffer.
pub fn encode_into(
    owner: ProcessId,
    index: CheckpointIndex,
    dv: &DependencyVector,
    state_size: usize,
    out: &mut Vec<u8>,
) {
    let (start, n) = (out.len(), dv.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(owner.index() as u32).to_le_bytes());
    out.extend_from_slice(&(index.value() as u64).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.resize(start + HEADER + n * ENTRY_BYTES, 0);
    codec::write_entries(dv, &mut out[start + HEADER..]);
    out.extend_from_slice(&(state_size as u64).to_le_bytes());
    let check = codec::checksum(&out[start..]);
    out.extend_from_slice(&check.to_le_bytes());
}

/// One record validated in place — structure, length and checksum — with
/// its vector still in wire form: what a log replay keeps per record, so
/// only the records that end up live pay for a decoded vector.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The process that took the checkpoint.
    pub owner: ProcessId,
    /// The checkpoint index.
    pub index: CheckpointIndex,
    /// Application state-snapshot size, in bytes.
    pub state_size: usize,
    /// The record's bytes, checksum included.
    pub bytes: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Validates the record at the start of `bytes`; what follows it is
    /// the caller's. Length is settled before the checksum, the checksum
    /// before an entry is looked at or anything is allocated — and
    /// `admit` is shown the length first and may refuse to have that
    /// many bytes hashed.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] for truncation, bad magic, unsupported version,
    /// an empty vector, a length `admit` refuses or a checksum mismatch.
    pub fn parse(bytes: &'a [u8], admit: impl FnOnce(usize) -> bool) -> Result<Self> {
        const TRUNCATED: Error = Error::Corrupt("truncated record");
        let mut r = Reader::new(bytes);
        if r.take(4).ok_or(TRUNCATED)? != MAGIC {
            return Err(Error::Corrupt("bad magic"));
        }
        if r.u16().ok_or(TRUNCATED)? != VERSION {
            return Err(Error::Corrupt("unsupported version"));
        }
        let owner = r.u32().ok_or(TRUNCATED)? as usize;
        let index = r.u64().ok_or(TRUNCATED)? as usize;
        let n = r.u32().ok_or(TRUNCATED)? as usize;
        if n == 0 {
            return Err(Error::Corrupt("empty dependency vector"));
        }
        // A lying n is a length the file does not have, never an allocation.
        r.take_items(n, ENTRY_BYTES)
            .ok_or(Error::Corrupt("truncated dependency vector"))?;
        let state_size = r.u64().ok_or(TRUNCATED)? as usize;
        let payload = &bytes[..r.position()];
        let check = r.u64().ok_or(TRUNCATED)?;
        if !admit(r.position()) {
            return Err(Error::Corrupt("record length refused"));
        }
        if codec::checksum(payload) != check {
            return Err(Error::Corrupt("checksum mismatch"));
        }
        Ok(Self {
            owner: ProcessId::new(owner),
            index: CheckpointIndex::new(index),
            state_size,
            bytes: &bytes[..r.position()],
        })
    }

    /// Decodes the vector.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] for an entry whose components do not fit the
    /// in-memory packed representation.
    pub fn dv(&self) -> Result<DependencyVector> {
        let entries = &self.bytes[HEADER..self.bytes.len() - 16];
        let mut dv = DependencyVector::new(entries.len() / ENTRY_BYTES);
        codec::read_entries(entries, &mut dv)
            .map_err(|_| Error::Corrupt("entry overflows the packed dependency-vector word"))?;
        Ok(dv)
    }
}

/// Decodes a record from its on-disk bytes.
///
/// # Errors
///
/// [`Error::Corrupt`] for whatever [`Frame::parse`] rejects, trailing
/// bytes, or an entry whose components do not fit the in-memory packed
/// representation.
pub fn decode(bytes: &[u8]) -> Result<Record> {
    let frame = Frame::parse(bytes, |_| true)?;
    if frame.bytes.len() != bytes.len() {
        return Err(Error::Corrupt("trailing bytes"));
    }
    let Frame {
        owner,
        index,
        state_size,
        ..
    } = frame;
    Ok(Record {
        owner,
        index,
        dv: frame.dv()?,
        state_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        Record {
            owner: ProcessId::new(2),
            index: CheckpointIndex::new(7),
            dv: DependencyVector::from_raw(vec![3, 0, 8]),
            state_size: 4096,
        }
    }

    #[test]
    fn roundtrip() {
        let r = record();
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn roundtrip_preserves_incarnations() {
        let r = Record {
            dv: DependencyVector::from_lineages(vec![(0, 3), (2, 1), (1, 9)]),
            ..record()
        };
        let decoded = decode(&encode(&r)).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.dv.to_raw_lineages(), vec![(0, 3), (2, 1), (1, 9)]);
    }

    #[test]
    fn version_1_records_are_rejected() {
        // Neither older format (bare `u64` intervals; FNV-1a trailer) has a
        // deployed producer; their version numbers are as foreign as any.
        for old in [1u16, 2] {
            let mut bytes = encode(&record());
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                decode(&bytes),
                Err(Error::Corrupt("unsupported version"))
            ));
        }
    }

    #[test]
    fn oversized_components_are_corrupt_not_truncated() {
        // A wide on-disk entry whose interval exceeds the packed 48-bit
        // field must be rejected, not silently folded.
        let r = record();
        let mut bytes = encode(&r);
        // Entry 0's interval u64 sits after magic+version+owner+index+n+inc0.
        let off = 4 + 2 + 4 + 8 + 4 + 4;
        bytes[off..off + 8].copy_from_slice(&(1u64 << 48).to_le_bytes());
        // Re-seal the checksum so only the overflow check can fire.
        let payload_end = bytes.len() - 8;
        let check = codec::checksum(&bytes[..payload_end]);
        bytes[payload_end..].copy_from_slice(&check.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(Error::Corrupt(
                "entry overflows the packed dependency-vector word"
            ))
        ));
    }

    #[test]
    fn single_entry_dv_roundtrips() {
        let r = Record {
            dv: DependencyVector::from_raw(vec![0]),
            ..record()
        };
        assert_eq!(decode(&encode(&r)).unwrap(), r);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&record());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(Error::Corrupt("bad magic"))));
    }

    #[test]
    fn flipped_bit_is_rejected() {
        let mut bytes = encode(&record());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode(&record());
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "accepted prefix of {len}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&record());
        bytes.push(0);
        assert!(matches!(
            decode(&bytes),
            Err(Error::Corrupt("trailing bytes"))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode(&record());
        bytes[4] = 9; // version low byte
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn absurd_length_header_does_not_allocate() {
        let mut bytes = encode(&record());
        // Overwrite n with u32::MAX; decode must fail cleanly.
        let n_off = 4 + 2 + 4 + 8;
        bytes[n_off..n_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }
}
