//! Baseline garbage collectors the paper compares against (Section 5).

use serde::{Deserialize, Serialize};

use rdt_base::{CheckpointIndex, DependencyVector, UpdateSet};

use crate::store::CheckpointStore;
use crate::theorem1::theorem1_pins;
use crate::traits::{ControlInfo, GarbageCollector, GcKind, LastIntervals};

/// No garbage collection at all: stable storage grows without bound. The
/// divergence baseline for the storage-overhead experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoGc;

impl NoGc {
    /// Creates the collector.
    pub fn new() -> Self {
        Self
    }
}

impl GarbageCollector for NoGc {
    fn kind(&self) -> GcKind {
        GcKind::None
    }

    fn after_checkpoint_into(
        &mut self,
        _store: &mut CheckpointStore,
        _index: CheckpointIndex,
        _dv: &DependencyVector,
        _eliminated: &mut Vec<CheckpointIndex>,
    ) {
    }

    fn after_receive_into(
        &mut self,
        _store: &mut CheckpointStore,
        _updated: &UpdateSet,
        _dv: &DependencyVector,
        _eliminated: &mut Vec<CheckpointIndex>,
    ) {
    }

    fn after_rollback_into(
        &mut self,
        store: &mut CheckpointStore,
        ri: CheckpointIndex,
        _li: Option<&LastIntervals>,
        _dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        // Rolled-back states are gone regardless of GC policy.
        store.truncate_after_into(ri, eliminated);
    }
}

/// The simple coordinated scheme (\[5\] Bhargava & Lian, \[8\] Elnozahy et al.):
/// a coordinator periodically computes the recovery line for the failure of
/// **all** processes (`R_Π`) and every process discards the checkpoints
/// strictly older than its component.
///
/// Correct but not tight: it does not bound uncollected checkpoints between
/// rounds and never collects obsolete checkpoints newer than the `R_Π`
/// component. Relies on reliable control messages (the coordination the
/// paper's asynchronous collector removes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimpleCoordinatedGc {
    rounds: u64,
}

impl SimpleCoordinatedGc {
    /// Creates the collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of control rounds processed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

impl GarbageCollector for SimpleCoordinatedGc {
    fn kind(&self) -> GcKind {
        GcKind::SimpleCoordinated
    }

    fn after_checkpoint_into(
        &mut self,
        _store: &mut CheckpointStore,
        _index: CheckpointIndex,
        _dv: &DependencyVector,
        _eliminated: &mut Vec<CheckpointIndex>,
    ) {
    }

    fn after_receive_into(
        &mut self,
        _store: &mut CheckpointStore,
        _updated: &UpdateSet,
        _dv: &DependencyVector,
        _eliminated: &mut Vec<CheckpointIndex>,
    ) {
    }

    fn after_rollback_into(
        &mut self,
        store: &mut CheckpointStore,
        ri: CheckpointIndex,
        _li: Option<&LastIntervals>,
        _dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        store.truncate_after_into(ri, eliminated);
    }

    fn on_control(
        &mut self,
        store: &mut CheckpointStore,
        info: &ControlInfo,
        _dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let ControlInfo::GlobalLine(line) = info else {
            return Vec::new();
        };
        self.rounds += 1;
        let floor = line[store.owner().index()];
        let doomed: Vec<CheckpointIndex> = store.indices().take_while(|&i| i < floor).collect();
        for d in &doomed {
            store.remove(*d).expect("stored");
        }
        doomed
    }
}

/// Wang et al.'s coordinated collector (\[21\]): a coordinator distributes the
/// global last-interval vector and each process eliminates **every**
/// Theorem-1 obsolete checkpoint. This is the "collects all obsolete
/// checkpoints" comparator — tighter than any asynchronous collector can be
/// (it sees `last_s(f)` for all `f`, not just causally learned values), at
/// the cost of reliable control-message rounds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WangGlobalGc {
    n: usize,
    rounds: u64,
}

impl WangGlobalGc {
    /// Creates the collector for an `n`-process system.
    pub fn new(n: usize) -> Self {
        Self { n, rounds: 0 }
    }

    /// Number of control rounds processed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Eliminates every stored checkpoint no process pins, oldest first,
    /// appending it to `eliminated`.
    fn eliminate_unpinned(
        store: &mut CheckpointStore,
        li: &LastIntervals,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let words = li.len().div_ceil(64);
        let mut pins = vec![0; store.len() * words];
        theorem1_pins(store, li.as_slice(), dv, &mut pins);
        let pinned = |k: usize| pins[k * words..][..words].iter().any(|&w| w != 0);
        store.retain_positions(pinned, eliminated);
    }
}

impl GarbageCollector for WangGlobalGc {
    fn kind(&self) -> GcKind {
        GcKind::WangGlobal
    }

    fn after_checkpoint_into(
        &mut self,
        _store: &mut CheckpointStore,
        _index: CheckpointIndex,
        _dv: &DependencyVector,
        _eliminated: &mut Vec<CheckpointIndex>,
    ) {
    }

    fn after_receive_into(
        &mut self,
        _store: &mut CheckpointStore,
        _updated: &UpdateSet,
        _dv: &DependencyVector,
        _eliminated: &mut Vec<CheckpointIndex>,
    ) {
    }

    fn after_rollback_into(
        &mut self,
        store: &mut CheckpointStore,
        ri: CheckpointIndex,
        li: Option<&LastIntervals>,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        store.truncate_after_into(ri, eliminated);
        if let Some(li) = li {
            Self::eliminate_unpinned(store, li, dv, eliminated);
        }
    }

    fn on_control(
        &mut self,
        store: &mut CheckpointStore,
        info: &ControlInfo,
        dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let ControlInfo::LastIntervals(li) = info else {
            return Vec::new();
        };
        self.rounds += 1;
        let mut eliminated = Vec::new();
        Self::eliminate_unpinned(store, li, dv, &mut eliminated);
        eliminated
    }
}

/// The time-based class of Manivannan & Singhal (\[14\]): checkpoints older
/// than a fixed horizon are discarded, with safety resting on the assumption
/// that every process takes checkpoints in known time intervals and message
/// delays are bounded by the horizon.
///
/// No control messages and no piggybacked information are needed — but when
/// the assumption breaks (a slow channel, a quiet process), this collector
/// **eliminates checkpoints a future recovery line still needs**. The
/// `table_safety` experiment quantifies those violations against the
/// Theorem-1 oracle; RDT-LGC never produces any.
///
/// The most recent stable checkpoint is always retained regardless of age
/// (rolling back requires *some* stable state).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeBasedGc {
    horizon: u64,
    now: u64,
    /// Local storage times of the retained checkpoints.
    stored_at: std::collections::BTreeMap<CheckpointIndex, u64>,
}

impl TimeBasedGc {
    /// Creates the collector with a discard horizon in ticks.
    pub fn new(horizon: u64) -> Self {
        Self {
            horizon,
            now: 0,
            stored_at: std::collections::BTreeMap::new(),
        }
    }

    /// The configured horizon.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The last tick observed.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Discards every stored checkpoint older than the horizon, except the
    /// most recent one.
    fn expire(&mut self, store: &mut CheckpointStore) -> Vec<CheckpointIndex> {
        let Some(last) = store.last() else {
            return Vec::new();
        };
        let deadline = self.now.saturating_sub(self.horizon);
        let doomed: Vec<CheckpointIndex> = store
            .indices()
            .filter(|&i| i != last && self.stored_at.get(&i).copied().unwrap_or(0) < deadline)
            .collect();
        for d in &doomed {
            store.remove(*d).expect("stored");
            self.stored_at.remove(d);
        }
        doomed
    }
}

impl GarbageCollector for TimeBasedGc {
    fn kind(&self) -> GcKind {
        GcKind::TimeBased {
            horizon: self.horizon,
        }
    }

    fn after_checkpoint_into(
        &mut self,
        store: &mut CheckpointStore,
        index: CheckpointIndex,
        _dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        self.stored_at.insert(index, self.now);
        eliminated.extend(self.expire(store));
    }

    fn after_receive_into(
        &mut self,
        _store: &mut CheckpointStore,
        _updated: &UpdateSet,
        _dv: &DependencyVector,
        _eliminated: &mut Vec<CheckpointIndex>,
    ) {
    }

    fn after_rollback_into(
        &mut self,
        store: &mut CheckpointStore,
        ri: CheckpointIndex,
        _li: Option<&LastIntervals>,
        _dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let from = eliminated.len();
        store.truncate_after_into(ri, eliminated);
        for d in &eliminated[from..] {
            self.stored_at.remove(d);
        }
    }

    fn on_tick(
        &mut self,
        store: &mut CheckpointStore,
        now: u64,
        _dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        self.now = self.now.max(now);
        self.expire(store)
    }
}

#[cfg(test)]
mod tests {
    use rdt_base::{IntervalIndex, ProcessId};

    use super::*;

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    fn store_with_chain(owner: usize, n_ckpts: usize, n: usize) -> CheckpointStore {
        let mut store = CheckpointStore::new(ProcessId::new(owner));
        let mut dv = DependencyVector::new(n);
        for _ in 0..n_ckpts {
            store.insert(dv.entry(ProcessId::new(owner)).as_checkpoint(), dv.clone());
            dv.begin_next_interval(ProcessId::new(owner));
        }
        store
    }

    #[test]
    fn no_gc_retains_everything() {
        let mut gc = NoGc::new();
        let mut store = store_with_chain(0, 5, 2);
        let dv = DependencyVector::from_raw(vec![5, 0]);
        assert!(gc.after_checkpoint(&mut store, idx(4), &dv).is_empty());
        assert!(gc
            .after_receive(&mut store, &UpdateSet::new(), &dv)
            .is_empty());
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn no_gc_still_truncates_on_rollback() {
        let mut gc = NoGc::new();
        let mut store = store_with_chain(0, 5, 2);
        let dv = DependencyVector::from_raw(vec![3, 0]);
        let gone = gc.after_rollback(&mut store, idx(2), None, &dv);
        assert_eq!(gone, vec![idx(3), idx(4)]);
    }

    #[test]
    fn simple_coordinated_discards_before_global_line() {
        let mut gc = SimpleCoordinatedGc::new();
        let mut store = store_with_chain(0, 5, 2);
        let dv = DependencyVector::from_raw(vec![5, 0]);
        let info = ControlInfo::GlobalLine(vec![idx(3), idx(0)]);
        let gone = gc.on_control(&mut store, &info, &dv);
        assert_eq!(gone, vec![idx(0), idx(1), idx(2)]);
        assert_eq!(store.len(), 2);
        assert_eq!(gc.rounds(), 1);
    }

    #[test]
    fn simple_coordinated_ignores_wrong_control_info() {
        let mut gc = SimpleCoordinatedGc::new();
        let mut store = store_with_chain(0, 3, 2);
        let dv = DependencyVector::from_raw(vec![3, 0]);
        let info = ControlInfo::LastIntervals(LastIntervals::from_dv(&dv));
        assert!(gc.on_control(&mut store, &info, &dv).is_empty());
        assert_eq!(gc.rounds(), 0);
    }

    #[test]
    fn wang_global_collects_all_theorem1_obsolete() {
        let mut gc = WangGlobalGc::new(2);
        // Owner p0 with 4 lone checkpoints: only the last is non-obsolete.
        let mut store = store_with_chain(0, 4, 2);
        let dv = DependencyVector::from_raw(vec![4, 0]);
        let li = LastIntervals::from_intervals(vec![IntervalIndex::new(4), IntervalIndex::new(1)]);
        let gone = gc.on_control(&mut store, &ControlInfo::LastIntervals(li), &dv);
        assert_eq!(gone, vec![idx(0), idx(1), idx(2)]);
        assert_eq!(store.indices().collect::<Vec<_>>(), vec![idx(3)]);
    }

    #[test]
    fn wang_global_respects_peer_pins() {
        let mut gc = WangGlobalGc::new(2);
        let owner = ProcessId::new(0);
        let mut store = CheckpointStore::new(owner);
        // s^0 ignorant of p1; s^1 knows p1's final interval 2.
        store.insert(idx(0), DependencyVector::from_raw(vec![0, 0]));
        store.insert(idx(1), DependencyVector::from_raw(vec![1, 2]));
        let dv = DependencyVector::from_raw(vec![2, 2]);
        let li = LastIntervals::from_intervals(vec![IntervalIndex::new(2), IntervalIndex::new(2)]);
        let gone = gc.on_control(&mut store, &ControlInfo::LastIntervals(li), &dv);
        // s^0 is pinned by p1 (s_1^last → s^1, ↛ s^0): nothing collected.
        assert!(gone.is_empty());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn time_based_expires_old_checkpoints_but_keeps_the_last() {
        let mut gc = TimeBasedGc::new(100);
        let mut store = CheckpointStore::new(ProcessId::new(0));
        let dv = DependencyVector::from_raw(vec![1, 0]);
        gc.on_tick(&mut store, 0, &dv);
        store.insert(idx(0), dv.clone());
        gc.after_checkpoint(&mut store, idx(0), &dv);
        gc.on_tick(&mut store, 50, &dv);
        store.insert(idx(1), dv.clone());
        gc.after_checkpoint(&mut store, idx(1), &dv);
        // Not yet expired.
        assert_eq!(store.len(), 2);
        // idx(0) (stored at 0) expires past tick 100; idx(1) survives as the
        // most recent even once its age exceeds the horizon.
        let gone = gc.on_tick(&mut store, 101, &dv);
        assert_eq!(gone, vec![idx(0)]);
        let gone = gc.on_tick(&mut store, 10_000, &dv);
        assert!(gone.is_empty());
        assert_eq!(store.indices().collect::<Vec<_>>(), vec![idx(1)]);
    }

    #[test]
    fn time_based_violates_safety_when_the_assumption_breaks() {
        // s^0 is pinned by p1 under Theorem 1 (same store as the
        // wang_global_respects_peer_pins test) — but the time-based rule
        // discards it anyway once it ages out: a safety violation.
        let mut gc = TimeBasedGc::new(10);
        let owner = ProcessId::new(0);
        let mut store = CheckpointStore::new(owner);
        store.insert(idx(0), DependencyVector::from_raw(vec![0, 0]));
        gc.after_checkpoint(&mut store, idx(0), &DependencyVector::from_raw(vec![0, 0]));
        store.insert(idx(1), DependencyVector::from_raw(vec![1, 2]));
        gc.after_checkpoint(&mut store, idx(1), &DependencyVector::from_raw(vec![1, 2]));
        let dv = DependencyVector::from_raw(vec![2, 2]);
        let gone = gc.on_tick(&mut store, 1_000, &dv);
        assert_eq!(gone, vec![idx(0)], "the pinned checkpoint was collected");
    }

    #[test]
    fn time_based_rollback_truncates_and_forgets_timestamps() {
        let mut gc = TimeBasedGc::new(100);
        let mut store = store_with_chain(0, 4, 2);
        for i in 0..4 {
            gc.after_checkpoint(&mut store, idx(i), &DependencyVector::new(2));
        }
        let dv = DependencyVector::from_raw(vec![2, 0]);
        let gone = gc.after_rollback(&mut store, idx(1), None, &dv);
        assert_eq!(gone, vec![idx(2), idx(3)]);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn time_based_kind_round_trips_the_horizon() {
        let gc = TimeBasedGc::new(42);
        assert_eq!(gc.kind(), GcKind::TimeBased { horizon: 42 });
        assert_eq!(gc.kind().to_string(), "time-based(42)");
        assert!(gc.kind().needs_time_assumptions());
        assert!(!gc.kind().is_asynchronous());
        assert!(!gc.kind().needs_control_messages());
        assert!(GcKind::RdtLgc.is_asynchronous());
    }

    #[test]
    fn wang_rollback_applies_theorem1_when_li_present() {
        let mut gc = WangGlobalGc::new(2);
        let mut store = store_with_chain(0, 5, 2);
        let dv = DependencyVector::from_raw(vec![3, 0]);
        let li = LastIntervals::from_intervals(vec![IntervalIndex::new(3), IntervalIndex::new(1)]);
        let gone = gc.after_rollback(&mut store, idx(2), Some(&li), &dv);
        // 3, 4 truncated; 0, 1 obsolete; 2 retained.
        assert_eq!(gone, vec![idx(3), idx(4), idx(0), idx(1)]);
        assert_eq!(store.indices().collect::<Vec<_>>(), vec![idx(2)]);
    }
}
