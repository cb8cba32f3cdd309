//! The codec toolkit behind every byte format of the workspace — the wire
//! frame (`rdt_env::wire`), the checkpoint record and the incarnation-log
//! slot (`rdt_storage`): one checksum, one bounds-checked reader, one
//! encoding of a dependency vector, so the two trust boundaries (datagrams
//! from a peer, files from a disk) cannot drift apart.
//!
//! # The checksum
//!
//! [`checksum`] deals the input's little-endian 64-bit words (the last one
//! zero-padded) round robin to four lanes. A lane starts from its own
//! constant and absorbs a word `w` by `h ← rotl32((h xor w) · P)` with `P`
//! odd, mod 2⁶⁴; the byte length and then the four lanes are folded
//! through the same step, and the result is `h xor (h >> 32)`. Four lanes
//! because the multiply is the only slow instruction and lanes do not wait
//! for each other: ~100 steps each for a 3 KB frame, not 3 112 in a row.
//!
//! Xor with a fixed operand, multiplication by an odd constant, rotation
//! and `h xor (h >> 32)` are bijections of a 64-bit word, so a step is a
//! bijection of `h` for a fixed `w` and of `w` for a fixed `h`. Hence **two
//! inputs of equal length that differ inside a single aligned word never
//! share a checksum** — the word leaves its lane different and every later
//! step keeps it so — and every single-bit flip is such a difference: a
//! guarantee, not a probability. (The length is folded in because padding
//! alone would not tell `[1]` from `[1, 0]`.) Corruption detection, not
//! authentication. The function is part of both formats and pinned by a
//! known-answer test: changing a constant, the lane count or the order is
//! a format change.

use crate::{DependencyVector, DvEntry, Error, Incarnation, IntervalIndex, Result};

const LANES: usize = 4;
const WORD: usize = 8;
const PRIME: u64 = 0x9E37_79B9_7F4A_7C15;
/// Lane start values: the first four 64-bit primes of xxHash.
const SEEDS: [u64; LANES] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];

#[inline(always)]
fn step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME).rotate_left(32)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; WORD];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The workspace's one checksum; defined in the [module docs](self).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut blocks = bytes.chunks_exact(LANES * WORD);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(WORD)) {
            *lane = step(*lane, le_word(word));
        }
    }
    // Fewer than four words are left, the last one possibly partial.
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(WORD)) {
        *lane = step(*lane, le_word(word));
    }
    let h = lanes.into_iter().fold(bytes.len() as u64, step);
    h ^ (h >> 32)
}

/// A little-endian reader over untrusted bytes: a read yields exactly what
/// was asked for or `None` (consuming nothing), by checked arithmetic.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.at
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.at == self.bytes.len()
    }

    /// The next `len` bytes.
    pub fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(len)?;
        let out = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(out)
    }

    /// The next `count` items of `item_len` bytes each; a product that
    /// overflows is a length the input cannot have.
    pub fn take_items(&mut self, count: usize, item_len: usize) -> Option<&'a [u8]> {
        self.take(count.checked_mul(item_len)?)
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

/// Bytes of one dependency-vector entry in every format: a `u32`
/// incarnation next to a `u64` interval. **Wide** on purpose — [`DvEntry`]
/// packs both into one word, but bytes outlive that representation: a
/// change of the 16/48 split re-reads old bytes without a migration, and a
/// component that no longer fits is a typed error, not a wrong lineage.
pub const ENTRY_BYTES: usize = 12;

/// Writes `dv` as wide entries into `out`.
///
/// # Panics
///
/// Panics unless `out` is exactly `dv.len() * ENTRY_BYTES` long.
pub fn write_entries(dv: &DependencyVector, out: &mut [u8]) {
    assert_eq!(out.len(), dv.len() * ENTRY_BYTES, "entry area size");
    for (slot, entry) in out.chunks_exact_mut(ENTRY_BYTES).zip(dv.as_slice()) {
        let (incarnation, interval) = slot.split_at_mut(4);
        incarnation.copy_from_slice(&entry.incarnation().value().to_le_bytes());
        interval.copy_from_slice(&(entry.interval().value() as u64).to_le_bytes());
    }
}

/// Overwrites `dv` with the wide entries in `bytes`.
///
/// # Errors
///
/// [`Error::SystemSizeMismatch`] unless `bytes` holds exactly `dv.len()`
/// entries; [`Error::IncarnationOverflow`] / [`Error::IntervalOverflow`]
/// for the first component beyond its packed field, in the order
/// [`DvEntry::try_new`] checks them, `dv` then overwritten with
/// unspecified entries.
pub fn read_entries(bytes: &[u8], dv: &mut DependencyVector) -> Result<()> {
    if bytes.len() != dv.len() * ENTRY_BYTES {
        let (expected, actual) = (dv.len(), bytes.len() / ENTRY_BYTES);
        return Err(Error::SystemSizeMismatch { expected, actual });
    }
    // One pass without a branch per entry: pack every entry and OR
    // together the bits that do not fit; only when some did, find the
    // first culprit for its typed error.
    let mut spill = 0;
    for (entry, raw) in dv
        .as_mut_slice()
        .iter_mut()
        .zip(bytes.chunks_exact(ENTRY_BYTES))
    {
        let (incarnation, interval) = wide_entry(raw);
        spill |= (incarnation >> DvEntry::INCARNATION_BITS) | (interval >> DvEntry::INTERVAL_BITS);
        *entry = DvEntry::from_packed((incarnation << DvEntry::INTERVAL_BITS) | interval);
    }
    if spill != 0 {
        for raw in bytes.chunks_exact(ENTRY_BYTES) {
            let (incarnation, interval) = wide_entry(raw);
            // An interval beyond `usize` saturates, which `try_new` rejects.
            let interval = usize::try_from(interval).unwrap_or(usize::MAX);
            DvEntry::try_new(
                Incarnation::new(incarnation as u32),
                IntervalIndex::new(interval),
            )?;
        }
    }
    Ok(())
}

/// The incarnation and interval of one wide entry, each widened to `u64`.
#[inline(always)]
fn wide_entry(raw: &[u8]) -> (u64, u64) {
    let (incarnation, interval) = raw.split_at(4);
    (le_word(incarnation), le_word(interval))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes the known answers are taken over: 0, 1, 2, … mod 251.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn checksum_known_answers() {
        // Pinned: a change here is a change of the wire and disk formats.
        let want: [(usize, u64); 6] = [
            (0, 0x8388_085c_b9a9_55f7),
            (1, 0x8af3_6876_e615_28c2),
            (7, 0x2d60_77f9_9dab_6d89),
            (8, 0x4209_a2b7_fbce_af47),
            (33, 0x8056_6de1_3729_8c71),
            (3112, 0xc0b0_5ffa_3eb8_df37),
        ];
        for (len, sum) in want {
            assert_eq!(checksum(&pattern(len)), sum, "{len} bytes");
        }
    }

    #[test]
    fn any_change_within_one_word_changes_the_checksum() {
        // The bijection argument, exhaustively for single bits at every
        // length that exercises blocks, spare words and the partial word.
        for len in (0..=80).chain([3112]) {
            let mut bytes = pattern(len);
            let sum = checksum(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&bytes), sum, "len {len} bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn zero_padding_changes_the_checksum() {
        let mut bytes = vec![1u8];
        let mut seen = vec![checksum(&[])];
        for _ in 0..40 {
            seen.push(checksum(&bytes));
            bytes.push(0);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 41);
    }

    #[test]
    fn reader_never_reads_past_the_end() {
        let bytes = [1u8, 0, 2, 0, 0, 0, 3];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u16(), Some(1));
        assert_eq!(r.u32(), Some(2));
        assert_eq!(r.u64(), None, "one byte left");
        assert_eq!(r.position(), 6, "a failed read consumes nothing");
        assert_eq!(r.take(usize::MAX), None, "offset overflow");
        assert_eq!(r.take_items(usize::MAX / 2, 12), None, "length overflow");
        assert_eq!(r.take_items(1, 1), Some(&[3u8][..]));
        assert!(r.is_empty());
        assert_eq!(r.take(0), Some(&[][..]));
    }

    #[test]
    fn entries_round_trip_up_to_the_field_maxima() {
        let dv = DependencyVector::from_lineages(vec![
            (0, 3),
            (DvEntry::MAX_INCARNATION, DvEntry::MAX_INTERVAL),
            (1, 0),
        ]);
        let mut bytes = vec![0u8; 3 * ENTRY_BYTES];
        write_entries(&dv, &mut bytes);
        let mut back = DependencyVector::new(3);
        read_entries(&bytes, &mut back).unwrap();
        assert_eq!(back, dv);

        // One entry too few, one byte too many, a component too large.
        assert!(read_entries(&bytes[..24], &mut back).is_err());
        assert!(read_entries(&[&bytes[..], &[0]].concat(), &mut back).is_err());
        bytes[2] = 1; // incarnation 2¹⁶
        assert!(matches!(
            read_entries(&bytes, &mut back),
            Err(Error::IncarnationOverflow { .. })
        ));
        bytes[2] = 0;
        bytes[4 + 6] = 1; // interval 2⁴⁸
        assert!(matches!(
            read_entries(&bytes, &mut back),
            Err(Error::IntervalOverflow { .. })
        ));
        bytes[4 + 6] = 0;

        // The first bad entry is reported, after valid ones: the last
        // entry's interval (2⁴⁸) alone, then the middle entry's
        // incarnation (2³² − 1) ahead of it.
        let last = 2 * ENTRY_BYTES;
        bytes[last + 4 + 6] = 1;
        assert_eq!(
            read_entries(&bytes, &mut back),
            Err(Error::IntervalOverflow { interval: 1 << 48 })
        );
        bytes[ENTRY_BYTES..ENTRY_BYTES + 4].fill(0xff);
        assert_eq!(
            read_entries(&bytes, &mut back),
            Err(Error::IncarnationOverflow {
                incarnation: u32::MAX
            })
        );
        // One entry overflowing both fields reports its incarnation, the
        // order `DvEntry::try_new` checks in.
        bytes[ENTRY_BYTES..ENTRY_BYTES + 4].copy_from_slice(&(1u32 << 16).to_le_bytes());
        bytes[ENTRY_BYTES + 4..last].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            read_entries(&bytes, &mut back),
            Err(Error::IncarnationOverflow {
                incarnation: 1 << 16
            })
        );
    }
}
