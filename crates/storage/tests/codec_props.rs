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

/// The record log around the codec: replay is total over arbitrary bytes,
/// says only what was written, and loses to a fault at most the records
/// the fault touches.
mod log_replay {
    use std::collections::BTreeMap;
    use std::ops::Range;

    use proptest::prelude::*;
    use rdt_base::{CheckpointIndex, DependencyVector, Incarnation, ProcessId};
    use rdt_storage::codec::encode_into;
    use rdt_storage::log::{encode_collect, encode_floor, replay};

    const OWNER: ProcessId = ProcessId::new(3);
    const WIDTH: usize = 4;

    /// One record as written: what it says and where it sits.
    #[derive(Debug, Clone)]
    enum Said {
        Checkpoint(usize),
        Collect(usize),
        Floor(u32),
    }

    /// A log of random commits and the span of each record in it (a floor
    /// is two records, one per copy).
    fn log_strategy() -> impl Strategy<Value = (Vec<u8>, Vec<(Said, Range<usize>)>)> {
        prop::collection::vec((0u8..6, 0usize..10, 0usize..1_000_000), 1..40).prop_map(|ops| {
            let mut bytes = Vec::new();
            let mut records = Vec::new();
            for (kind, index, a) in ops {
                let start = bytes.len();
                match kind {
                    0..=2 => {
                        let dv = DependencyVector::from_raw(vec![index, a, a / 7, 0]);
                        encode_into(OWNER, CheckpointIndex::new(index), &dv, a, &mut bytes);
                        records.push((Said::Checkpoint(index), start..bytes.len()));
                    }
                    3 | 4 => {
                        encode_collect(OWNER, CheckpointIndex::new(index), &mut bytes);
                        records.push((Said::Collect(index), start..bytes.len()));
                    }
                    _ => {
                        encode_floor(Incarnation::new(a as u32 % 9), &mut bytes);
                        let mid = start + 16;
                        records.push((Said::Floor(a as u32 % 9), start..mid));
                        records.push((Said::Floor(a as u32 % 9), mid..bytes.len()));
                    }
                }
            }
            (bytes, records)
        })
    }

    /// What the records that `survives` lets through say, by the rules of
    /// `rdt_storage::log`: live checkpoints as their bytes, and the floor.
    fn model<'a>(
        bytes: &'a [u8],
        records: &[(Said, Range<usize>)],
        survives: impl Fn(&Range<usize>) -> bool,
    ) -> (BTreeMap<usize, &'a [u8]>, Option<u32>) {
        let (mut live, mut floor) = (BTreeMap::new(), None);
        for (said, span) in records.iter().filter(|(_, span)| survives(span)) {
            match *said {
                Said::Checkpoint(index) => {
                    live.insert(index, &bytes[span.clone()]);
                }
                // A collect never removes the last live checkpoint.
                Said::Collect(index) if live.len() > 1 => {
                    live.remove(&index);
                }
                Said::Collect(_) => {}
                Said::Floor(v) => floor = floor.max(Some(v)),
            }
        }
        (live, floor)
    }

    fn said(bytes: &[u8]) -> (BTreeMap<usize, &[u8]>, Option<u32>, usize) {
        let out = replay(bytes, OWNER);
        let live = out.live.iter().map(|(i, f)| (i.value(), f.bytes)).collect();
        (live, out.floor.map(Incarnation::value), out.damaged)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn a_valid_log_replays_to_what_it_says(log in log_strategy()) {
            let (bytes, records) = log;
            let (live, floor) = model(&bytes, &records, |_| true);
            prop_assert_eq!(said(&bytes), (live, floor, 0));
        }

        /// A flipped bit loses exactly the record it sits in.
        #[test]
        fn a_single_bit_flip_loses_at_most_the_record_it_touches(
            log in log_strategy(),
            which in any::<prop::sample::Index>(),
        ) {
            let (valid, records) = log;
            let bit = which.index(valid.len() * 8);
            let mut bytes = valid.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let (live, floor) = model(&valid, &records, |span| !span.contains(&(bit / 8)));
            prop_assert_eq!(said(&bytes), (live, floor, 1));
        }

        /// A truncation loses exactly the record it cuts and those behind it.
        #[test]
        fn a_truncation_loses_at_most_the_records_it_touches(
            log in log_strategy(),
            cut in any::<prop::sample::Index>(),
        ) {
            let (valid, records) = log;
            let len = cut.index(valid.len() + 1);
            let (live, floor) = model(&valid, &records, |span| span.end <= len);
            let torn = usize::from(records.iter().all(|(_, span)| span.end != len) && len > 0);
            prop_assert_eq!(said(&valid[..len]), (live, floor, torn));
        }

        /// Noise — bare, or behind any of the three tags at a random spot —
        /// is no record, whatever length it claims; replay neither panics
        /// nor believes it.
        #[test]
        fn arbitrary_bytes_say_nothing(
            noise in prop::collection::vec(0u8..=255, 0..512),
            tag in prop::sample::select(vec![&b"RDTC\x03\x00"[..], b"RDTX", b"RDTI", b""]),
            at in any::<prop::sample::Index>(),
        ) {
            let mut bytes = noise;
            if bytes.len() >= tag.len() {
                let at = at.index(bytes.len() - tag.len() + 1);
                bytes[at..at + tag.len()].copy_from_slice(tag);
            }
            let out = replay(&bytes, OWNER);
            prop_assert!(out.live.is_empty() && out.floor.is_none());
            prop_assert_eq!(out.damaged, usize::from(!bytes.is_empty()));
        }

        /// A stretch of a valid log overwritten with noise never yields a
        /// record that was not written.
        #[test]
        fn an_overwritten_log_says_only_what_was_written(
            log in log_strategy(),
            at in any::<prop::sample::Index>(),
            noise in prop::collection::vec(0u8..=255, 1..200),
        ) {
            let (valid, records) = log;
            let mut bytes = valid.clone();
            let at = at.index(bytes.len());
            for (b, noise) in bytes[at..].iter_mut().zip(noise) {
                *b = noise;
            }
            let (live, floor, _) = said(&bytes);
            for record in live.values() {
                prop_assert!(records.iter().any(|(_, span)| &valid[span.clone()] == *record));
            }
            let written = |v| records.iter().any(|(s, _)| matches!(s, Said::Floor(w) if *w == v));
            prop_assert!(floor.is_none_or(written));
        }
    }

    /// Look-alike tags do not make the resynchronising scan quadratic:
    /// 2 MB of checkpoint headers that each claim to reach the end of the
    /// file — hashed in full once per header that would be ~100 GB, a
    /// hang; it is two file lengths at most. The same behind a valid
    /// record, with headers of its length: one record length per header.
    #[test]
    fn repeated_magics_do_not_go_quadratic() {
        const HEADER: usize = 22;
        const FILE: usize = 2 << 20;
        let mut valid = Vec::new();
        let dv = DependencyVector::new(WIDTH);
        encode_into(OWNER, CheckpointIndex::ZERO, &dv, 0, &mut valid);
        for behind_a_valid_record in [false, true] {
            let mut bytes = if behind_a_valid_record {
                valid.clone()
            } else {
                Vec::new()
            };
            while bytes.len() + HEADER <= FILE {
                let rest = FILE - bytes.len();
                let n = if behind_a_valid_record {
                    WIDTH
                } else {
                    rest.saturating_sub(38) / 12
                };
                bytes.extend_from_slice(&valid[..HEADER - 4]);
                bytes.extend_from_slice(&(n as u32).to_le_bytes());
            }
            bytes.resize(FILE, 0);
            let out = replay(&bytes, OWNER);
            assert_eq!(out.live.len(), usize::from(behind_a_valid_record));
            assert_eq!(out.damaged, 1);
        }
    }
}
