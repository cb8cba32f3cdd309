//! Binary on-disk format for one stable-checkpoint record.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   [u8; 4]   b"RDTC"
//! version u16       2
//! owner   u32       process id
//! index   u64       checkpoint index γ
//! n       u32       dependency-vector length
//! dv      (u32 + u64) × n   entries: incarnation ν, interval γ
//! size    u64       application state-snapshot size, in bytes
//! check   u64       FNV-1a over every preceding byte
//! ```
//!
//! The dependency-vector entries are stored **wide** — an explicit
//! `u32` incarnation next to a full `u64` interval per entry — even though
//! the in-memory [`rdt_base::DvEntry`] packs both into one word. Durable
//! bytes outlive the in-memory representation: keeping the fields explicit
//! means a future change of the packed field split (16/48 today) re-reads
//! old mirrors without a migration, and an entry whose components no longer
//! fit the current packing decodes to a typed error instead of silently
//! folding into the wrong lineage.
//!
//! The checksum turns torn writes and bit rot into decode errors instead of
//! silently corrupt recovery state — a checkpoint that cannot be trusted
//! must not be restored.

use rdt_base::{CheckpointIndex, DependencyVector, ProcessId};

use crate::error::{Error, Result};

const MAGIC: [u8; 4] = *b"RDTC";
/// The one format: wide `(u32 incarnation, u64 interval)` entries.
const VERSION: u16 = 2;

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

/// FNV-1a, 64-bit. Shared with the incarnation-log slot format.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes a record into its on-disk bytes.
pub fn encode(record: &Record) -> Vec<u8> {
    let lineages = record.dv.to_raw_lineages();
    let mut out = Vec::with_capacity(4 + 2 + 4 + 8 + 4 + lineages.len() * 12 + 8 + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(record.owner.index() as u32).to_le_bytes());
    out.extend_from_slice(&(record.index.value() as u64).to_le_bytes());
    out.extend_from_slice(&(lineages.len() as u32).to_le_bytes());
    for (incarnation, interval) in lineages {
        out.extend_from_slice(&incarnation.to_le_bytes());
        out.extend_from_slice(&(interval as u64).to_le_bytes());
    }
    out.extend_from_slice(&(record.state_size as u64).to_le_bytes());
    let check = fnv1a(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Decodes a record from its on-disk bytes.
///
/// # Errors
///
/// [`Error::Corrupt`] for truncation, bad magic, unsupported version,
/// trailing bytes, checksum mismatch, or an entry whose components do not
/// fit the in-memory packed representation.
pub fn decode(bytes: &[u8]) -> Result<Record> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let magic = cursor.take(4)?;
    if magic != MAGIC {
        return Err(Error::Corrupt("bad magic"));
    }
    if cursor.u16()? != VERSION {
        return Err(Error::Corrupt("unsupported version"));
    }
    let owner = cursor.u32()? as usize;
    let index = cursor.u64()? as usize;
    let n = cursor.u32()? as usize;
    if n == 0 {
        return Err(Error::Corrupt("empty dependency vector"));
    }
    // Guard against absurd lengths from corrupt headers before allocating.
    if bytes.len() < cursor.pos + n.saturating_mul(12) + 16 {
        return Err(Error::Corrupt("truncated dependency vector"));
    }
    let mut lineages = Vec::with_capacity(n);
    for _ in 0..n {
        let incarnation = cursor.u32()?;
        let interval = cursor.u64()? as usize;
        lineages.push((incarnation, interval));
    }
    let state_size = cursor.u64()? as usize;
    let payload_end = cursor.pos;
    let check = cursor.u64()?;
    if cursor.pos != bytes.len() {
        return Err(Error::Corrupt("trailing bytes"));
    }
    if fnv1a(&bytes[..payload_end]) != check {
        return Err(Error::Corrupt("checksum mismatch"));
    }
    let dv = DependencyVector::try_from_lineages(&lineages)
        .map_err(|_| Error::Corrupt("entry overflows the packed dependency-vector word"))?;
    Ok(Record {
        owner: ProcessId::new(owner),
        index: CheckpointIndex::new(index),
        dv,
        state_size,
    })
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(Error::Corrupt("truncated record"))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
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
        // The pre-incarnation format (bare `u64` intervals) never had a
        // deployed producer; its version number is as foreign as any other.
        let mut bytes = encode(&record());
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(Error::Corrupt("unsupported version"))
        ));
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
        let check = fnv1a(&bytes[..payload_end]);
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
