//! Checkpoint control blocks (Algorithm 1 of the paper).
//!
//! The paper manipulates heap CCBs through pointers; we use a slab arena
//! with integer handles, which keeps the reference-counting explicit and
//! `unsafe`-free.

use std::num::NonZeroU32;

use serde::{Deserialize, Serialize};

use rdt_base::CheckpointIndex;

/// Handle to a [`Ccb`] inside a [`CcbArena`] — the paper's `↑CCB` pointer.
///
/// The slot number plus one, in 32 non-zero bits: RDT-LGC's `UC` vector is
/// `n` of `Option<CcbRef>` per process, so at most `n + 1` live handles
/// should not cost 16 bytes an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CcbRef(NonZeroU32);

impl CcbRef {
    fn of_slot(slot: usize) -> Self {
        let handle = u32::try_from(slot + 1).ok().and_then(NonZeroU32::new);
        Self(handle.expect("more than u32::MAX live CCBs"))
    }

    fn slot(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// A checkpoint control block: an uncollected stable checkpoint's index plus
/// a reference counter of how many `UC` entries deny its elimination.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ccb {
    /// The paper's `IND` field.
    pub index: CheckpointIndex,
    /// The paper's `RC` field.
    pub rc: u32,
}

/// Slab of CCBs with explicit reference counting.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CcbArena {
    slots: Vec<Option<Ccb>>,
    free: Vec<CcbRef>,
}

impl CcbArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a CCB for checkpoint `index` with `RC = 1`
    /// (procedure `newCCB`, minus the `UC` update).
    pub fn alloc(&mut self, index: CheckpointIndex) -> CcbRef {
        let ccb = Ccb { index, rc: 1 };
        match self.free.pop() {
            Some(r) => {
                self.slots[r.slot()] = Some(ccb);
                r
            }
            None => {
                self.slots.push(Some(ccb));
                CcbRef::of_slot(self.slots.len() - 1)
            }
        }
    }

    /// Increments the reference counter (procedure `link`, line 2).
    ///
    /// # Panics
    ///
    /// Panics if the handle is dangling.
    pub fn inc(&mut self, r: CcbRef) {
        self.slots[r.slot()].as_mut().expect("live CCB").rc += 1;
    }

    /// Decrements the reference counter (procedure `release`, lines 2–5);
    /// if it reaches zero the CCB is deleted and the represented checkpoint
    /// index is returned so the caller can eliminate it from stable storage.
    ///
    /// # Panics
    ///
    /// Panics if the handle is dangling.
    pub fn dec(&mut self, r: CcbRef) -> Option<CheckpointIndex> {
        let ccb = self.slots[r.slot()].as_mut().expect("live CCB");
        ccb.rc -= 1;
        if ccb.rc == 0 {
            let index = ccb.index;
            self.slots[r.slot()] = None;
            self.free.push(r);
            Some(index)
        } else {
            None
        }
    }

    /// The checkpoint index a live CCB represents.
    ///
    /// # Panics
    ///
    /// Panics if the handle is dangling.
    pub fn index_of(&self, r: CcbRef) -> CheckpointIndex {
        self.slots[r.slot()].as_ref().expect("live CCB").index
    }

    /// The current reference count of a live CCB.
    ///
    /// # Panics
    ///
    /// Panics if the handle is dangling.
    pub fn rc_of(&self, r: CcbRef) -> u32 {
        self.slots[r.slot()].as_ref().expect("live CCB").rc
    }

    /// Number of live CCBs — the number of retained checkpoints.
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Live `(index, rc)` pairs, unordered.
    pub fn iter_live(&self) -> impl Iterator<Item = (CheckpointIndex, u32)> + '_ {
        self.slots.iter().flatten().map(|ccb| (ccb.index, ccb.rc))
    }

    /// Removes every live CCB (used when rebuilding state in a rollback).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    #[test]
    fn an_optional_handle_is_four_bytes() {
        assert_eq!(std::mem::size_of::<Option<CcbRef>>(), 4);
    }

    #[test]
    fn alloc_starts_at_rc_one() {
        let mut a = CcbArena::new();
        let r = a.alloc(idx(3));
        assert_eq!(a.rc_of(r), 1);
        assert_eq!(a.index_of(r), idx(3));
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn dec_to_zero_frees_and_reports_index() {
        let mut a = CcbArena::new();
        let r = a.alloc(idx(7));
        assert_eq!(a.dec(r), Some(idx(7)));
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn inc_then_dec_keeps_alive() {
        let mut a = CcbArena::new();
        let r = a.alloc(idx(1));
        a.inc(r);
        assert_eq!(a.dec(r), None);
        assert_eq!(a.rc_of(r), 1);
        assert_eq!(a.dec(r), Some(idx(1)));
    }

    #[test]
    fn slots_are_reused() {
        let mut a = CcbArena::new();
        let r1 = a.alloc(idx(0));
        a.dec(r1);
        let r2 = a.alloc(idx(1));
        assert_eq!(r1, r2, "freed slot is recycled");
        assert_eq!(a.index_of(r2), idx(1));
    }

    #[test]
    #[should_panic(expected = "live CCB")]
    fn dangling_handle_panics() {
        let mut a = CcbArena::new();
        let r = a.alloc(idx(0));
        a.dec(r);
        let _ = a.index_of(r);
    }

    #[test]
    fn iter_live_reports_all() {
        let mut a = CcbArena::new();
        let _r1 = a.alloc(idx(0));
        let r2 = a.alloc(idx(1));
        a.inc(r2);
        let mut live: Vec<_> = a.iter_live().collect();
        live.sort();
        assert_eq!(live, vec![(idx(0), 1), (idx(1), 2)]);
    }
}
