//! Shared Theorem-1 pin computation over a checkpoint store.

use rdt_base::{DependencyVector, DvEntry, ProcessId};

use crate::store::CheckpointStore;

/// Calls `pin(f, k)` for every process `f` that *pins* the checkpoint at
/// store position `k` (`0` is the oldest stored) under Theorem 1, given the
/// last-interval vector `li`, one entry per process:
///
/// the pinned checkpoint for `f` is the latest stored `γ` with
/// `DV(s^γ)[f] < LI[f]` whose successor — the next stored checkpoint, or the
/// volatile state `dv` — has an entry `≥ LI[f]` (i.e. `s_f^last → c^{γ+1}`).
/// Each `f` pins at most one checkpoint, and `f` ascends across the calls.
///
/// All comparisons are lexicographic over incarnation-qualified entries
/// ([`DvEntry`]), so knowledge about a dead incarnation of `f` never counts
/// as knowing `f`'s post-recovery last checkpoint, however high its raw
/// interval index.
///
/// Entries are lexicographically monotone non-decreasing in the checkpoint
/// index (merges only grow them, and a rollback restarts from a surviving
/// prefix with a strictly newer own incarnation), so the search is one
/// partition point per process over the stored positions: O(n log s)
/// overall, matching the paper's complexity claim for Algorithm 3. The
/// partition point `split` is the first position whose entry reaches
/// `LI[f]`, so a stored successor always qualifies and only the volatile
/// one (`split` past the last position) needs the test.
pub(crate) fn theorem1_pins(
    store: &CheckpointStore,
    li: &[DvEntry],
    dv: &DependencyVector,
    mut pin: impl FnMut(ProcessId, usize),
) {
    let stored = store.len();
    for (f, &target) in ProcessId::all(li.len()).zip(li) {
        let split = store.partition_point(|dv| dv.lineage(f) < target);
        if split > 0 && (split < stored || dv.lineage(f) >= target) {
            pin(f, split - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use rdt_base::{CheckpointIndex, IntervalIndex};

    use super::*;
    use crate::traits::LastIntervals;

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    /// The pins per stored position, each position's processes ascending.
    fn pins_of(
        store: &CheckpointStore,
        li: &LastIntervals,
        dv: &DependencyVector,
    ) -> Vec<Vec<ProcessId>> {
        let mut pins = vec![Vec::new(); store.len()];
        theorem1_pins(store, li.as_slice(), dv, |f, k| pins[k].push(f));
        pins
    }

    #[test]
    fn self_entry_always_pins_last_stored() {
        let owner = ProcessId::new(0);
        let mut store = CheckpointStore::new(owner);
        store.insert(idx(0), DependencyVector::from_raw(vec![0, 0]));
        store.insert(idx(1), DependencyVector::from_raw(vec![1, 0]));
        let dv = DependencyVector::from_raw(vec![2, 0]);
        let li = LastIntervals::from_intervals(vec![IntervalIndex::new(2), IntervalIndex::ZERO]);
        let pins = pins_of(&store, &li, &dv);
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
        let pins = pins_of(&store, &li, &dv);
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
        let pins = pins_of(&store, &li, &dv);
        assert_eq!(pins, vec![vec![owner]]);
    }

    #[test]
    fn empty_store_has_no_pins() {
        let store = CheckpointStore::new(ProcessId::new(0));
        let dv = DependencyVector::new(2);
        let li = LastIntervals::from_dv(&dv);
        assert!(pins_of(&store, &li, &dv).is_empty());
    }
}
