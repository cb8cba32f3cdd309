//! RDT-LGC — the paper's optimal asynchronous garbage collector
//! (Algorithms 1–3).

use serde::{Deserialize, Serialize};

use rdt_base::{CheckpointIndex, DependencyVector, DvEntry, ProcessId, UpdateSet};

use crate::ccb::{CcbArena, CcbRef};
use crate::store::CheckpointStore;
use crate::traits::{GarbageCollector, GcKind, LastIntervals};

/// The RDT-LGC garbage collector of one process.
///
/// Maintains the paper's `UC` vector (*Uncollected Checkpoints*: entry `f`
/// references the CCB of the checkpoint retained because of `p_f`) and a
/// [`CcbArena`] of reference-counted checkpoint control blocks.
///
/// Invariant (Theorem 3, Equation 4): whenever
/// `s_f^last → c_i^{γ+1} ∧ s_f^last ↛ s_i^γ`, entry `UC[f]` references the
/// CCB of `s_i^γ`. A checkpoint is eliminated exactly when no entry
/// references its CCB (Theorem 4: only obsolete checkpoints are collected;
/// Theorem 5: every causally identifiable obsolete checkpoint is).
///
/// # Example
///
/// ```
/// use rdt_base::{CheckpointIndex, DependencyVector, ProcessId, UpdateSet};
/// use rdt_core::{CheckpointStore, GarbageCollector, RdtLgc};
///
/// let p0 = ProcessId::new(0);
/// let mut gc = RdtLgc::new(p0, 2);
/// let mut store = CheckpointStore::new(p0);
/// let mut dv = DependencyVector::new(2);
///
/// // Initial checkpoint s_0^0.
/// store.insert(CheckpointIndex::ZERO, dv.clone());
/// gc.after_checkpoint(&mut store, CheckpointIndex::ZERO, &dv);
/// dv.begin_next_interval(p0);
///
/// // A second checkpoint makes s_0^0 obsolete: nobody depends on p0.
/// let c1 = CheckpointIndex::new(1);
/// store.insert(c1, dv.clone());
/// let gone = gc.after_checkpoint(&mut store, c1, &dv);
/// assert_eq!(gone, vec![CheckpointIndex::ZERO]);
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RdtLgc {
    owner: ProcessId,
    uc: Vec<Option<CcbRef>>,
    arena: CcbArena,
    /// A rollback's working buffer: the CCB of each stored position, once
    /// pinned.
    #[serde(skip)]
    pin_at: Vec<Option<CcbRef>>,
}

impl RdtLgc {
    /// Creates the collector for `owner` in an `n`-process system
    /// (procedure `initialize`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `owner` is out of range.
    pub fn new(owner: ProcessId, n: usize) -> Self {
        assert!(n > 0, "a system needs at least one process");
        assert!(owner.index() < n, "owner out of range");
        Self {
            owner,
            uc: vec![None; n],
            arena: CcbArena::new(),
            pin_at: Vec::new(),
        }
    }

    /// The owning process.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.uc.len()
    }

    /// Procedure `release(j)`: drop `UC[j]`'s reference; if the CCB dies,
    /// eliminate the checkpoint from `store` and report it.
    fn release(&mut self, j: ProcessId, store: &mut CheckpointStore) -> Option<CheckpointIndex> {
        let r = self.uc[j.index()].take()?;
        let freed = self.arena.dec(r)?;
        store
            .remove(freed)
            .expect("CCB-tracked checkpoint must be stored");
        Some(freed)
    }

    /// Procedure `link(j, i)`: make `UC[j]` share `UC[i]`'s CCB.
    fn link_to_own(&mut self, j: ProcessId) {
        let own = self.uc[self.owner.index()]
            .expect("UC[i] always references the last stable checkpoint");
        self.arena.inc(own);
        self.uc[j.index()] = Some(own);
    }

    /// Procedure `newCCB(i, ind)`.
    fn new_own_ccb(&mut self, index: CheckpointIndex) {
        self.uc[self.owner.index()] = Some(self.arena.alloc(index));
    }

    /// The checkpoint index each `UC` entry currently pins (`None` = the
    /// paper's `∗`), in process order — matches the tuples printed under
    /// each event in Figure 4.
    pub fn uc_view(&self) -> Vec<Option<CheckpointIndex>> {
        self.uc
            .iter()
            .map(|slot| slot.map(|r| self.arena.index_of(r)))
            .collect()
    }

    /// Indices of the checkpoints currently retained (live CCBs), ascending.
    pub fn retained(&self) -> Vec<CheckpointIndex> {
        let mut v: Vec<CheckpointIndex> = self.arena.iter_live().map(|(i, _)| i).collect();
        v.sort_unstable();
        v
    }

    /// Rebuilds `UC`/CCBs after a rollback (Algorithm 3 lines 7–17),
    /// appending what it eliminates to `eliminated`.
    ///
    /// For each process `f`, finds the latest stored checkpoint `γ` with
    /// `DV(s^γ)[f] < LI[f]` whose successor (next stored checkpoint, or the
    /// volatile state `dv`) satisfies `DV(c^{γ+1})[f] ≥ LI[f]`, and pins it.
    /// Everything unpinned is eliminated, oldest first.
    fn rebuild_after_rollback(
        &mut self,
        store: &mut CheckpointStore,
        li: &[DvEntry],
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        self.arena.clear();
        self.uc.fill(None);
        self.pin_at.clear();
        // A store under RDT-LGC holds at most n + 1 checkpoints: the buffer
        // is allocated once, at the owner's first rollback.
        self.pin_at.reserve(self.uc.len() + 1);
        self.pin_at.resize(store.len(), None);
        crate::theorem1::theorem1_pins(store, li, dv, |f, k| {
            let r = match self.pin_at[k] {
                Some(r) => {
                    self.arena.inc(r);
                    r
                }
                None => *self.pin_at[k].insert(self.arena.alloc(store.index_at(k))),
            };
            self.uc[f.index()] = Some(r);
        });
        store.retain_positions(|k| self.pin_at[k].is_some(), eliminated);
    }
}

impl GarbageCollector for RdtLgc {
    fn kind(&self) -> GcKind {
        GcKind::RdtLgc
    }

    /// "On taking checkpoint" (Algorithm 2): release the previous own CCB
    /// and create a new one for the just-stored checkpoint.
    fn after_checkpoint_into(
        &mut self,
        store: &mut CheckpointStore,
        index: CheckpointIndex,
        _dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        debug_assert!(store.contains(index), "checkpoint stored before GC runs");
        eliminated.extend(self.release(self.owner, store));
        self.new_own_ccb(index);
    }

    /// "On receiving m" (Algorithm 2): each process that contributed new
    /// causal information now denies the collection of our last stable
    /// checkpoint — release its old pin and link it to ours.
    fn after_receive_into(
        &mut self,
        store: &mut CheckpointStore,
        updated: &UpdateSet,
        _dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let own = self.uc[self.owner.index()];
        for j in updated.iter() {
            debug_assert_ne!(
                j, self.owner,
                "a process cannot receive new causal information about itself"
            );
            // release(j) followed by link(j, i) is a net no-op when UC[j]
            // already references the own CCB (the common case in
            // news-heavy streams between checkpoints): the dec can never
            // free it — UC[i] holds a reference — and the re-link restores
            // the exact pre-release state.
            if self.uc[j.index()] == own {
                continue;
            }
            if let Some(freed) = self.release(j, store) {
                eliminated.push(freed);
            }
            self.link_to_own(j);
        }
    }

    /// Algorithm 3 (a process rolling back to `ri`): discard later
    /// checkpoints, then rebuild `UC` from `li` (or from `dv` when no global
    /// information is available — the uncoordinated variant).
    fn after_rollback(
        &mut self,
        store: &mut CheckpointStore,
        ri: CheckpointIndex,
        li: Option<&LastIntervals>,
        dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let mut eliminated = store.truncate_after(ri);
        let li = li.map_or(dv.as_slice(), LastIntervals::as_slice);
        self.rebuild_after_rollback(store, li, dv, &mut eliminated);
        eliminated
    }

    /// Non-rolling-back process during a synchronized recovery: release any
    /// `UC[f]` with `DV[f] < LI[f]` (Section 4.3).
    ///
    /// The comparison is lexicographic over incarnation-qualified entries:
    /// when `f` rolled back during the session, `LI[f]` carries `f`'s fresh
    /// incarnation, so *any* pre-rollback knowledge of `f` — however high
    /// its raw interval — reads as "does not know `f`'s new last checkpoint"
    /// and the stale pin is released.
    fn on_recovery_info(
        &mut self,
        store: &mut CheckpointStore,
        li: &LastIntervals,
        dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let mut eliminated = Vec::new();
        for f in ProcessId::all(self.uc.len()) {
            if f == self.owner {
                continue;
            }
            if dv.lineage(f) < li.lineage(f) {
                if let Some(freed) = self.release(f, store) {
                    eliminated.push(freed);
                }
            }
        }
        eliminated
    }

    fn pinned(&self) -> usize {
        self.arena.live()
    }

    fn uc_snapshot(&self) -> Option<Vec<Option<CheckpointIndex>>> {
        Some(self.uc_view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    /// Harness mirroring a single process's protocol-side state.
    struct Proc {
        gc: RdtLgc,
        store: CheckpointStore,
        dv: DependencyVector,
    }

    impl Proc {
        fn new(owner: usize, n: usize) -> Self {
            let owner = p(owner);
            let mut this = Self {
                gc: RdtLgc::new(owner, n),
                store: CheckpointStore::new(owner),
                dv: DependencyVector::new(n),
            };
            this.checkpoint(); // s^0
            this
        }

        fn checkpoint(&mut self) -> Vec<CheckpointIndex> {
            let index = self.dv.entry(self.gc.owner()).as_checkpoint();
            self.store.insert(index, self.dv.clone());
            let gone = self.gc.after_checkpoint(&mut self.store, index, &self.dv);
            self.dv.begin_next_interval(self.gc.owner());
            gone
        }

        fn receive(&mut self, sender_dv: &DependencyVector) -> Vec<CheckpointIndex> {
            let updated = self.dv.merge_from(sender_dv);
            self.gc.after_receive(&mut self.store, &updated, &self.dv)
        }
    }

    #[test]
    fn uc_self_entry_always_references_last_stable() {
        let mut a = Proc::new(0, 3);
        assert_eq!(a.gc.uc_view()[0], Some(idx(0)));
        a.checkpoint();
        assert_eq!(a.gc.uc_view()[0], Some(idx(1)));
        a.checkpoint();
        assert_eq!(a.gc.uc_view()[0], Some(idx(2)));
    }

    #[test]
    fn unreferenced_checkpoints_are_collected_on_next_checkpoint() {
        let mut a = Proc::new(0, 2);
        let gone = a.checkpoint();
        assert_eq!(gone, vec![idx(0)]);
        let gone = a.checkpoint();
        assert_eq!(gone, vec![idx(1)]);
        assert_eq!(a.store.len(), 1);
        // Transient n+1 behaviour: peak is 2 (new stored before old released).
        assert_eq!(a.store.peak(), 2);
    }

    #[test]
    fn new_dependency_pins_last_stable_checkpoint() {
        let mut a = Proc::new(0, 2);
        let mut b = Proc::new(1, 2);
        // b sends to a: a learns b's interval 1.
        let gone = a.receive(&b.dv);
        assert!(gone.is_empty());
        // UC[1] now references a's s^0 CCB.
        assert_eq!(a.gc.uc_view(), vec![Some(idx(0)), Some(idx(0))]);
        // a checkpoints: s^0 stays pinned by UC[1], s^1 referenced by UC[0].
        let gone = a.checkpoint();
        assert!(gone.is_empty());
        assert_eq!(a.gc.uc_view(), vec![Some(idx(1)), Some(idx(0))]);
        assert_eq!(a.store.len(), 2);
        // b sends again with fresh info (b checkpointed meanwhile):
        // UC[1] migrates to s^1, releasing s^0.
        b.checkpoint();
        let gone = a.receive(&b.dv);
        assert_eq!(gone, vec![idx(0)]);
        assert_eq!(a.gc.uc_view(), vec![Some(idx(1)), Some(idx(1))]);
    }

    #[test]
    fn stale_message_changes_nothing() {
        let mut a = Proc::new(0, 2);
        let b = Proc::new(1, 2);
        a.receive(&b.dv);
        let before = a.gc.uc_view();
        // Same vector again: no new causal info.
        let gone = a.receive(&b.dv);
        assert!(gone.is_empty());
        assert_eq!(a.gc.uc_view(), before);
    }

    #[test]
    fn retention_never_exceeds_n() {
        // Worst case: every peer pins a distinct checkpoint of a.
        let n = 4;
        let mut a = Proc::new(0, n);
        let mut peers: Vec<Proc> = (1..n).map(|i| Proc::new(i, n)).collect();
        for peer in peers.iter_mut() {
            let dv = peer.dv.clone();
            a.receive(&dv);
            a.checkpoint();
            peer.checkpoint(); // peers refresh so next receive brings news
        }
        assert!(a.gc.pinned() <= n);
        assert!(a.store.len() <= n);
        assert!(a.store.peak() <= n + 1);
    }

    #[test]
    fn rollback_with_global_info_keeps_only_pinned(/* Algorithm 3 */) {
        let n = 2;
        let mut a = Proc::new(0, n);
        let mut b = Proc::new(1, n);
        // a hears from b, checkpoints twice.
        a.receive(&b.dv);
        a.checkpoint(); // s^1 (s^0 pinned by UC[1])
        a.checkpoint(); // s^2 collects s^1
        assert_eq!(a.store.indices().collect::<Vec<_>>(), vec![idx(0), idx(2)]);

        // b fails and recovers at its initial checkpoint: LI = [3, 1]
        // (a's last stable is s^2 → LI[0]=3; b restored s^0 → LI[1]=1).
        // a is told to roll back to s^2 (its own RF component = volatile in
        // a real run; here we exercise the rolled-back path with ri = 2).
        b.dv = DependencyVector::new(n);
        b.dv.begin_next_interval(p(1));
        let li = LastIntervals::from_last_stable(&[idx(2), idx(0)]);
        let mut dv = a.store.dv(idx(2)).unwrap().clone();
        dv.begin_next_interval(p(0));
        let gone = a.gc.after_rollback(&mut a.store, idx(2), Some(&li), &dv);
        a.dv = dv;
        // s^0 was pinned only because of b's OLD run: with LI[1] = 1 and
        // DV(s^0)[1] = 0 < 1, is s^0 still pinned? Its successor s^2 has
        // DV(s^2)[1] = 1 ≥ 1, so yes: b's new s^0 still precedes a's s^2.
        assert!(gone.is_empty());
        assert_eq!(a.gc.uc_view(), vec![Some(idx(2)), Some(idx(0))]);
    }

    #[test]
    fn rollback_without_global_info_uses_dv() {
        let n = 2;
        let mut a = Proc::new(0, n);
        a.checkpoint();
        a.checkpoint();
        // Roll a back to s^1… which was collected; roll to s^2, the last.
        let ri = idx(2);
        let mut dv = a.store.dv(ri).unwrap().clone();
        dv.begin_next_interval(p(0));
        let gone = a.gc.after_rollback(&mut a.store, ri, None, &dv);
        assert!(gone.is_empty());
        assert_eq!(a.store.indices().collect::<Vec<_>>(), vec![ri]);
        assert_eq!(a.gc.uc_view(), vec![Some(ri), None]);
    }

    #[test]
    fn rollback_discards_later_checkpoints() {
        let n = 2;
        let mut a = Proc::new(0, n);
        let b = Proc::new(1, n);
        a.receive(&b.dv); // pins s^0
        a.checkpoint(); // s^1
        a.checkpoint(); // s^2; store = {0, 1?…}
                        // store now {0, 2}: s^1 was collected (only UC[0] referenced it).
        let mut dv = a.store.dv(idx(0)).unwrap().clone();
        dv.begin_next_interval(p(0));
        let li = LastIntervals::from_last_stable(&[idx(0), idx(0)]);
        let gone = a.gc.after_rollback(&mut a.store, idx(0), Some(&li), &dv);
        assert_eq!(gone, vec![idx(2)]);
        assert_eq!(a.store.indices().collect::<Vec<_>>(), vec![idx(0)]);
        assert_eq!(a.gc.uc_view()[0], Some(idx(0)));
    }

    #[test]
    fn recovery_info_releases_stale_pins() {
        let n = 2;
        let mut a = Proc::new(0, n);
        let b = Proc::new(1, n);
        a.receive(&b.dv); // UC[1] pins s^0
        a.checkpoint(); // s^1
        assert_eq!(a.store.len(), 2);
        // b rolls back to s^0: in the new CCP b's last interval is 1, and
        // a's DV[1] = 1 which is NOT < 1 — pin stays (b's s^0 unchanged).
        let li = LastIntervals::from_last_stable(&[idx(1), idx(0)]);
        let gone = a.gc.on_recovery_info(&mut a.store, &li, &a.dv.clone());
        assert!(gone.is_empty());
        // If b instead recovered having NEVER been heard of (fresh LI with
        // entry 2, pretending b checkpointed beyond a's knowledge)… then
        // DV[1] = 1 < 2 and the pin is released, collecting s^0.
        let li = LastIntervals::from_last_stable(&[idx(1), idx(1)]);
        let gone = a.gc.on_recovery_info(&mut a.store, &li, &a.dv.clone());
        assert_eq!(gone, vec![idx(0)]);
        assert_eq!(a.store.len(), 1);
    }

    #[test]
    fn shared_ccb_reference_counting_across_entries() {
        let n = 3;
        let mut a = Proc::new(0, n);
        let b = Proc::new(1, n);
        let c = Proc::new(2, n);
        // Both b and c pin a's s^0 through one receive each.
        a.receive(&b.dv);
        a.receive(&c.dv);
        let view = a.gc.uc_view();
        assert_eq!(view, vec![Some(idx(0)), Some(idx(0)), Some(idx(0))]);
        // One CCB, rc = 3.
        assert_eq!(a.gc.pinned(), 1);
        a.checkpoint(); // UC[0] moves; s^0 still pinned by UC[1], UC[2].
        assert_eq!(a.gc.pinned(), 2);
        assert_eq!(a.store.len(), 2);
    }
}
