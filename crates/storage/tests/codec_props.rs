//! Property tests for the on-disk codec, the trust boundary towards the
//! disk: roundtrip fidelity, rejection of every single-bit corruption, and
//! no panic on — or acceptance of — bytes no encoder wrote.

use proptest::prelude::*;
use rdt_base::{CheckpointIndex, DependencyVector, ProcessId};
use rdt_storage::codec::{decode, encode, Record};

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        0usize..64,
        0usize..10_000,
        // Incarnation-qualified entries, spanning the packed fields up to
        // their exact maxima (the top of each range is promoted to the
        // field maximum): the wide encoding must carry both components
        // faithfully.
        prop::collection::vec((0u32..16, 0usize..1_000_000), 1..32),
        0usize..(1 << 30),
    )
        .prop_map(|(owner, index, lineages, state_size)| {
            let lineages = lineages
                .into_iter()
                .map(|(v, g)| {
                    (
                        if v == 15 {
                            rdt_base::DvEntry::MAX_INCARNATION
                        } else {
                            v
                        },
                        if g >= 999_000 {
                            rdt_base::DvEntry::MAX_INTERVAL
                        } else {
                            g
                        },
                    )
                })
                .collect();
            Record {
                owner: ProcessId::new(owner),
                index: CheckpointIndex::new(index),
                dv: DependencyVector::from_lineages(lineages),
                state_size,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_is_identity(record in record_strategy()) {
        prop_assert_eq!(decode(&encode(&record)).unwrap(), record);
    }

    /// Any single flipped bit is caught — by the checksum, or by a
    /// structural check that fires first.
    #[test]
    fn every_single_bit_flip_is_rejected(record in record_strategy(), which in any::<prop::sample::Index>()) {
        let mut bytes = encode(&record);
        let bit = which.index(bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match decode(&bytes) {
            Err(_) => {}
            // The checksum tells any two inputs apart that differ within
            // one word (`rdt_base::codec`), so this arm is dead; it stays
            // as the weaker claim the format could fall back on.
            Ok(decoded) => prop_assert_ne!(decoded, record, "corruption accepted"),
        }
    }

    /// Bytes no encoder wrote — random, or random behind a valid magic and
    /// version — are an error, whatever length they claim.
    #[test]
    fn arbitrary_bytes_are_never_accepted(
        noise in prop::collection::vec(0u8..=255, 0..256),
        header in 0u8..2,
    ) {
        let mut bytes = noise;
        if header == 1 && bytes.len() >= 6 {
            bytes[..6].copy_from_slice(b"RDTC\x03\x00");
        }
        prop_assert!(decode(&bytes).is_err());
    }

    /// A stretch of a valid record overwritten with noise decodes only if
    /// the noise happened to be the bytes already there.
    #[test]
    fn overwritten_records_are_never_accepted(
        record in record_strategy(),
        at in any::<prop::sample::Index>(),
        noise in prop::collection::vec(0u8..=255, 1..24),
    ) {
        let valid = encode(&record);
        let mut bytes = valid.clone();
        let at = at.index(bytes.len());
        for (b, noise) in bytes[at..].iter_mut().zip(noise) {
            *b = noise;
        }
        prop_assert!(decode(&bytes).is_err() || bytes == valid);
    }

    /// Any truncation is rejected.
    #[test]
    fn truncations_are_rejected(record in record_strategy(), cut in any::<prop::sample::Index>()) {
        let bytes = encode(&record);
        let len = cut.index(bytes.len()); // strictly shorter
        prop_assert!(decode(&bytes[..len]).is_err());
    }
}
