//! Shared Theorem-1 pin computation over a checkpoint store.

use rdt_base::{DependencyVector, DvEntry};

use crate::store::{CheckpointStore, Kept};

/// Writes the Theorem-1 pins of every stored checkpoint into `pins`: the
/// pin bitmap of store position `k` (`0` is the oldest stored) is
/// `pins[k * words..(k + 1) * words]`, bit `f` set iff process `f` pins
/// it, given the last-interval vector `li`, one entry per process. `pins`
/// must hold `store.len() * words` words, `words = ⌈n/64⌉`.
///
/// The pinned checkpoint for `f` is the latest stored `γ` with
/// `DV(s^γ)[f] < LI[f]` whose successor — the next stored checkpoint, or
/// the volatile state `dv` — has an entry `≥ LI[f]` (i.e.
/// `s_f^last → c^{γ+1}`). Each `f` pins at most one checkpoint.
///
/// All comparisons are lexicographic over incarnation-qualified entries
/// ([`DvEntry`], one packed word each), so knowledge about a dead
/// incarnation of `f` never counts as knowing `f`'s post-recovery last
/// checkpoint, however high its raw interval index.
///
/// Entries are lexicographically monotone non-decreasing in the checkpoint
/// index (merges only grow them, and a rollback restarts from a surviving
/// prefix with a strictly newer own incarnation). So the set
/// `below_k = {f : DV(s^k)[f] < LI[f]}` only grows towards older
/// checkpoints, the checkpoint `f` pins is the `k` with
/// `f ∈ below_k ∖ below_{k+1}` (`below_s`, past the newest, is the
/// volatile state's), and `pins_k = below_k & !below_{k+1}`, one word at a
/// time. The walk goes oldest first, the way the store keeps its vectors:
/// `below_0` is a branch-free compare of the oldest (full) vector against
/// `LI`, 64 entries a word, and `below_{k+1}` is `below_k` with the bits of
/// the entries that changed at `k + 1` replaced by their compares:
/// `(below_k & !changed_{k+1}) | below(changes_{k+1})`. A pin can only sit
/// where news arrived next.
///
/// **Cost.** `n` compares for each full entry (the oldest, at least), one
/// per changed entry, and `s · ⌈n/64⌉` word operations, where `s ≤ n + 1`
/// is the number stored under RDT-LGC — against the `O(n log s)` of one
/// partition point per process that the paper's complexity claim for
/// Algorithm 3 counts, which are dependent, mispredicted probes. At
/// n = 32 (the benchmark's `sim-crashy`, traced, on a 2-vCPU Xeon) a
/// whole recovery session's median fell from 9.8 to 5.9 µs when
/// compares over whole vectors replaced them, together with the
/// branch-free Lemma-1 test and the session's shared buffers.
pub(crate) fn theorem1_pins(
    store: &CheckpointStore,
    li: &[DvEntry],
    dv: &DependencyVector,
    pins: &mut [u64],
) {
    let words = li.len().div_ceil(64);
    debug_assert_eq!(pins.len(), store.len() * words, "one bitmap per stored");
    // below_k, oldest first.
    for (k, kept) in store.kept().enumerate() {
        let (older, row) = pins.split_at_mut(k * words);
        let row = &mut row[..words];
        match kept {
            Kept::Full(stored) => below_all(stored, li, row),
            Kept::Changed { at, values } => {
                row.copy_from_slice(&older[(k - 1) * words..]);
                let mut values = values.as_slice().iter();
                for (word, bits) in at.words() {
                    let (mut rest, mut fresh) = (bits, 0);
                    while rest != 0 {
                        let bit = rest.trailing_zeros() as usize;
                        let value = values.next().expect("a value per member");
                        fresh |= u64::from(*value < li[word * 64 + bit]) << bit;
                        rest &= rest - 1;
                    }
                    row[word] = row[word] & !bits | fresh;
                }
            }
        }
    }
    // pins_k = below_k & !below_{k+1}; below_{k+1} is still whole when
    // position k is reached.
    let Some(newest) = store.len().checked_sub(1) else {
        return;
    };
    for k in 0..newest {
        for word in 0..words {
            pins[k * words + word] &= !pins[(k + 1) * words + word];
        }
    }
    let newest = &mut pins[newest * words..];
    for (word, (entries, li)) in dv.as_slice().chunks(64).zip(li.chunks(64)).enumerate() {
        newest[word] &= !below(entries, li);
    }
}

/// `below` of every word of `dv` into `row`.
fn below_all(dv: &DependencyVector, li: &[DvEntry], row: &mut [u64]) {
    let words = dv.as_slice().chunks(64).zip(li.chunks(64));
    for (mask, (entries, li)) in row.iter_mut().zip(words) {
        *mask = below(entries, li);
    }
}

/// The mask of the entries `f` of one word with `entries[f] < li[f]`.
#[inline]
pub(crate) fn below(entries: &[DvEntry], li: &[DvEntry]) -> u64 {
    entries
        .iter()
        .zip(li)
        .enumerate()
        .fold(0, |mask, (f, (e, l))| mask | u64::from(e < l) << f)
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;
    use rdt_base::{CheckpointIndex, Incarnation, IntervalIndex, ProcessId};

    use super::*;
    use crate::traits::LastIntervals;

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    /// The pins per stored position, each position's processes ascending.
    pub(crate) fn pins_of(
        store: &CheckpointStore,
        li: &[DvEntry],
        dv: &DependencyVector,
    ) -> Vec<Vec<ProcessId>> {
        let words = li.len().div_ceil(64);
        let mut pins = vec![0; store.len() * words];
        theorem1_pins(store, li, dv, &mut pins);
        pins.chunks(words)
            .map(|bitmap| {
                ProcessId::all(li.len())
                    .filter(|f| bitmap[f.index() / 64] >> (f.index() % 64) & 1 == 1)
                    .collect()
            })
            .collect()
    }

    /// Theorem 1 by definition: `f` pins the latest stored `γ` with
    /// `DV(s^γ)[f] < LI[f]` whose successor — the next stored vector, or
    /// `dv` — reaches `LI[f]`. Every position is tested; nothing is searched.
    pub(crate) fn brute_force(
        store: &CheckpointStore,
        li: &[DvEntry],
        dv: &DependencyVector,
    ) -> Vec<Vec<ProcessId>> {
        let stored: Vec<&DependencyVector> = store.iter().map(|(_, v)| v).collect();
        let mut pins = vec![Vec::new(); stored.len()];
        for (f, &target) in ProcessId::all(li.len()).zip(li) {
            let pinned = (0..stored.len()).rev().find(|&k| {
                let successor = stored.get(k + 1).copied().unwrap_or(dv);
                stored[k].lineage(f) < target && successor.lineage(f) >= target
            });
            if let Some(k) = pinned {
                pins[k].push(f);
            }
        }
        pins
    }

    /// SplitMix64: a history spelled out from one drawn seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A small entry: incarnations 0–3, intervals 0–5, so that stored
    /// entries, the volatile one and `LI` collide often, and dead
    /// incarnations with high intervals sit below live ones with low.
    fn entry(state: &mut u64) -> DvEntry {
        let r = next(state);
        DvEntry::new(
            Incarnation::new((r % 4) as u32),
            IntervalIndex::new((r >> 8) as usize % 6),
        )
    }

    /// `stored` vectors and a volatile one over `n` processes, each entry
    /// monotone non-decreasing from the oldest to the volatile, and an `LI`
    /// whose entries now and then name an incarnation nothing has seen.
    fn system(
        n: usize,
        stored: usize,
        seed: u64,
    ) -> (CheckpointStore, Vec<DvEntry>, DependencyVector) {
        let mut state = seed;
        let mut columns: Vec<Vec<DvEntry>> = (0..n)
            .map(|_| {
                let mut column: Vec<DvEntry> = (0..=stored).map(|_| entry(&mut state)).collect();
                column.sort();
                column
            })
            .collect();
        let li = (0..n)
            .map(|_| match next(&mut state) % 4 {
                0 => DvEntry::new(
                    Incarnation::new(4),
                    IntervalIndex::new(next(&mut state) as usize % 3),
                ),
                _ => entry(&mut state),
            })
            .collect();
        let vector = |k: usize, columns: &mut [Vec<DvEntry>]| {
            DependencyVector::from_lineages(
                columns
                    .iter_mut()
                    .map(|c| (c[k].incarnation().value(), c[k].interval().value()))
                    .collect(),
            )
        };
        let mut store = CheckpointStore::new(ProcessId::new(0));
        for k in 0..stored {
            store.insert(idx(k), vector(k, &mut columns));
        }
        let dv = vector(stored, &mut columns);
        (store, li, dv)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mask_pins_match_the_definition(
            n in prop::sample::select(vec![1usize, 2, 63, 64, 65, 130]),
            stored in 0usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let (store, li, dv) = system(n, stored, seed);
            prop_assert_eq!(pins_of(&store, &li, &dv), brute_force(&store, &li, &dv));
        }
    }

    #[test]
    fn self_entry_always_pins_last_stored() {
        let owner = ProcessId::new(0);
        let mut store = CheckpointStore::new(owner);
        store.insert(idx(0), DependencyVector::from_raw(vec![0, 0]));
        store.insert(idx(1), DependencyVector::from_raw(vec![1, 0]));
        let dv = DependencyVector::from_raw(vec![2, 0]);
        let li = LastIntervals::from_intervals(vec![IntervalIndex::new(2), IntervalIndex::ZERO]);
        let pins = pins_of(&store, li.as_slice(), &dv);
        assert_eq!(pins, vec![vec![], vec![owner]]);
    }

    #[test]
    fn peer_pin_lands_on_latest_unaware_checkpoint() {
        let owner = ProcessId::new(0);
        let f = ProcessId::new(1);
        let mut store = CheckpointStore::new(owner);
        // s^0 knows nothing of f; s^1 knows f's interval 2.
        store.insert(idx(0), DependencyVector::from_raw(vec![0, 0]));
        store.insert(idx(1), DependencyVector::from_raw(vec![1, 2]));
        let dv = DependencyVector::from_raw(vec![2, 2]);
        // LI[f] = 2: s_f^last = s_f^1 → s^1 (entry 2 ≥ 2) and ↛ s^0.
        let li = LastIntervals::from_intervals(vec![IntervalIndex::new(2), IntervalIndex::new(2)]);
        let pins = pins_of(&store, li.as_slice(), &dv);
        assert_eq!(pins[0], vec![f]); // s^0 pinned by f
        assert_eq!(pins[1], vec![owner]); // s^1 pinned by self
    }

    #[test]
    fn no_pin_when_last_checkpoint_of_f_is_unknown() {
        let owner = ProcessId::new(0);
        let mut store = CheckpointStore::new(owner);
        store.insert(idx(0), DependencyVector::from_raw(vec![0, 1]));
        let dv = DependencyVector::from_raw(vec![1, 1]);
        // LI[f] = 5: nothing here knows f's final interval; f pins nothing.
        let li = LastIntervals::from_intervals(vec![IntervalIndex::new(1), IntervalIndex::new(5)]);
        let pins = pins_of(&store, li.as_slice(), &dv);
        assert_eq!(pins, vec![vec![owner]]);
    }

    #[test]
    fn empty_store_has_no_pins() {
        let store = CheckpointStore::new(ProcessId::new(0));
        let dv = DependencyVector::new(2);
        let li = LastIntervals::from_dv(&dv);
        assert!(pins_of(&store, li.as_slice(), &dv).is_empty());
    }
}
