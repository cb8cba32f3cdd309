//! Property tests for the wire codec, the trust boundary towards peers:
//! round-trip fidelity up to the field maxima, and rejection — without a
//! panic or an allocation sized by the input — of everything that is not
//! a frame some encoder wrote.

use proptest::prelude::*;
use rdt_base::codec::checksum;
use rdt_base::{DependencyVector, DvEntry, ProcessId};
use rdt_env::WireFrame;

/// Offsets of the `n` field and of the first entry, sizes of an entry and
/// of the checksum trailer (the layout in `wire.rs`).
const N_OFFSET: usize = 36;
const ENTRIES: usize = 40;
const ENTRY: usize = 12;
const TRAILER: usize = 8;

#[derive(Debug, Clone)]
struct Spec {
    sender: u32,
    seq: u64,
    index: u64,
    parent: Option<(u32, u64)>,
    lineages: Vec<(u32, usize)>,
}

/// `x` drawn from `0..cap`, its top value promoted to the field's `max`.
fn top(x: u64, cap: u64, max: u64) -> u64 {
    if x + 1 == cap {
        max
    } else {
        x
    }
}

/// Headers and vectors spanning every field up to its exact maximum.
fn spec() -> impl Strategy<Value = Spec> {
    (
        (0u64..1000, 0u64..1000, 0u64..1000),
        (0u8..3, 0u64..1000, 0u64..1000),
        prop::collection::vec((0u64..16, 0u64..1000), 1..64),
    )
        .prop_map(
            |((sender, seq, index), (has_parent, origin, pseq), entries)| Spec {
                sender: top(sender, 1000, u32::MAX.into()) as u32,
                seq: top(seq, 1000, u64::MAX),
                index: top(index, 1000, u64::MAX),
                // u32::MAX is the "no parent" sentinel, so the largest
                // origin a frame can name is one below it.
                parent: (has_parent > 0).then(|| {
                    (
                        top(origin, 1000, (u32::MAX - 1).into()) as u32,
                        top(pseq, 1000, u64::MAX),
                    )
                }),
                lineages: entries
                    .into_iter()
                    .map(|(v, g)| {
                        (
                            top(v, 16, DvEntry::MAX_INCARNATION.into()) as u32,
                            top(g, 1000, DvEntry::MAX_INTERVAL as u64) as usize,
                        )
                    })
                    .collect(),
            },
        )
}

fn encode(spec: &Spec) -> Vec<u8> {
    let dv = DependencyVector::from_lineages(spec.lineages.clone());
    let mut buf = Vec::new();
    WireFrame::write(
        &mut buf,
        ProcessId::new(spec.sender as usize),
        spec.seq,
        spec.index,
        spec.parent,
        &dv,
    );
    buf
}

/// Recomputes the trailer, so that only a structural check can reject.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - TRAILER;
    let sum = checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_is_identity(spec in spec()) {
        let bytes = encode(&spec);
        prop_assert_eq!(Some(bytes.len()), WireFrame::encoded_len(spec.lineages.len()));
        let frame = WireFrame::decode(&bytes).expect("an encoder's frame decodes");
        prop_assert_eq!(frame.encode(), &bytes[..]);
        prop_assert_eq!(frame.sender.index(), spec.sender as usize);
        prop_assert_eq!((frame.seq, frame.index, frame.parent), (spec.seq, spec.index, spec.parent));
        prop_assert_eq!(frame.n(), spec.lineages.len());
        let mut dv = DependencyVector::new(frame.n());
        frame.unpack_into(&mut dv).expect("entries within the packed fields");
        prop_assert_eq!(dv.to_raw_lineages(), spec.lineages);
    }

    /// Bytes no encoder wrote — random, or random behind a valid magic —
    /// are refused, whatever they claim about their own length.
    #[test]
    fn arbitrary_bytes_are_never_accepted(
        noise in prop::collection::vec(0u8..=255, 0..256),
        magic in 0u8..2,
    ) {
        let mut bytes = noise;
        if magic == 1 && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"RDTr");
        }
        prop_assert_eq!(WireFrame::decode(&bytes), None);
    }

    /// A stretch of a valid frame overwritten with noise decodes only if
    /// the noise happened to be the bytes already there.
    #[test]
    fn overwritten_frames_are_never_accepted(
        spec in spec(),
        at in any::<prop::sample::Index>(),
        noise in prop::collection::vec(0u8..=255, 1..24),
    ) {
        let valid = encode(&spec);
        let mut bytes = valid.clone();
        let at = at.index(bytes.len());
        for (b, noise) in bytes[at..].iter_mut().zip(noise) {
            *b = noise;
        }
        prop_assert!(WireFrame::decode(&bytes).is_none() || bytes == valid);
    }

    /// Exhaustively per case: every bit, every prefix, a few paddings.
    #[test]
    fn every_bit_flip_truncation_and_padding_is_rejected(spec in spec()) {
        let mut bytes = encode(&spec);
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(WireFrame::decode(&bytes), None, "bit {} accepted", bit);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 0..bytes.len() {
            prop_assert_eq!(WireFrame::decode(&bytes[..cut]), None, "prefix {} accepted", cut);
        }
        for pad in 1..=12 {
            bytes.push(0);
            prop_assert_eq!(WireFrame::decode(&bytes), None, "{} bytes of padding accepted", pad);
        }
    }

    /// An `n` that does not match the bytes is a length mismatch — under a
    /// valid checksum too, and without reserving room for `n` entries
    /// (u32::MAX of them would be 48 GiB).
    #[test]
    fn a_lying_n_is_rejected_without_allocating(spec in spec(), lie in 0u32..1000) {
        let mut bytes = encode(&spec);
        let n = spec.lineages.len() as u32;
        let lie = match lie {
            0 => 0,
            1 => u32::MAX,
            2 => u32::MAX / 12 + 1, // n × 12 wraps a 32-bit usize to a small number
            k if k.is_multiple_of(2) => n + k,
            k => n.saturating_sub(k % 8 + 1),
        };
        prop_assume!(lie != n);
        bytes[N_OFFSET..N_OFFSET + 4].copy_from_slice(&lie.to_le_bytes());
        reseal(&mut bytes);
        prop_assert_eq!(WireFrame::decode(&bytes), None);
    }

    /// An entry beyond the packed fields passes the frame checks (the wire
    /// is wider than the word) and fails to unpack.
    #[test]
    fn overflowing_entries_fail_to_unpack(
        spec in spec(),
        which in any::<prop::sample::Index>(),
        field in 0u8..2,
    ) {
        let mut bytes = encode(&spec);
        let entry = ENTRIES + ENTRY * which.index(spec.lineages.len());
        if field == 0 {
            bytes[entry..entry + 4].copy_from_slice(&(DvEntry::MAX_INCARNATION + 1).to_le_bytes());
        } else {
            bytes[entry + 4..entry + ENTRY]
                .copy_from_slice(&(DvEntry::MAX_INTERVAL as u64 + 1).to_le_bytes());
        }
        reseal(&mut bytes);
        let frame = WireFrame::decode(&bytes).expect("well-formed frame");
        prop_assert!(frame.unpack_into(&mut DependencyVector::new(frame.n())).is_err());
    }
}
