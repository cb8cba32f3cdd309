//! Per-process stable-storage model for checkpoints.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use rdt_base::{CheckpointIndex, DependencyVector, Error, Incarnation, ProcessId, Result};

/// The stable checkpoints a process currently holds, with the dependency
/// vector stored alongside each one (Section 4.2: "when a stable checkpoint
/// is taken, the current dependency vector is stored with it for recovery
/// purposes").
///
/// The store also tracks its **peak occupancy**, which is how the paper's
/// space bounds are measured: RDT-LGC retains at most `n` checkpoints per
/// process, `n + 1` transiently while a new checkpoint is being stored but
/// the previous one has not yet been released (Section 4.5).
///
/// Entries live in a deque sorted by checkpoint index. Checkpoint indices
/// are assigned monotonically, so insertion is an O(1) back-append (a
/// binary search only runs in the never-taken out-of-order case); lookups
/// binary-search; and since garbage collection almost always eliminates
/// the *oldest* retained checkpoint, removal usually shifts the short
/// front side — O(1) for the dominant pattern. For the n-bounded occupancy
/// RDT-LGC guarantees, this beats a `BTreeMap` on every hot operation, and
/// the unbounded `NoGc` baseline only ever appends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointStore {
    owner: ProcessId,
    entries: VecDeque<(CheckpointIndex, StoredCheckpoint)>,
    /// Highest incarnation the owner has ever opened — the Strom/Yemini
    /// incarnation log. Rollbacks raise it *in stable storage* so a process
    /// restarting from disk can never reuse an incarnation number its dead
    /// execution already propagated.
    incarnation_floor: Incarnation,
    peak: usize,
    total_stored: usize,
    total_collected: usize,
    bytes: usize,
    peak_bytes: usize,
    total_bytes_stored: usize,
    /// Vectors of eliminated [tagged](Self::insert_tagged) checkpoints,
    /// until [`drain_retired`](Self::drain_retired) hands them back.
    #[serde(skip)]
    retired: Aside<Vec<(DependencyVector, u64)>>,
}

/// Bookkeeping of the running process that rides in a store without being
/// part of its value: any two compare equal, and none is serialised or
/// reaches the storage codec.
#[derive(Debug, Clone, Default)]
struct Aside<T>(T);

impl<T> PartialEq for Aside<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for Aside<T> {}

/// One stable checkpoint at rest: its dependency vector (stored for
/// recovery, Section 4.2) and the application-state size it occupies.
///
/// The vector lives inline in the entry: with the sorted-vector layout an
/// insert is a single append-move and a removal a short memmove, so for
/// systems of up to 16 processes (inline vectors) the whole store cycle —
/// insert, collect, remove — runs without touching the allocator or an
/// atomic refcount.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct StoredCheckpoint {
    dv: DependencyVector,
    bytes: usize,
    /// See [`CheckpointStore::insert_tagged`].
    #[serde(skip)]
    tag: Aside<Option<u64>>,
}

impl CheckpointStore {
    /// Creates an empty store for `owner`.
    pub fn new(owner: ProcessId) -> Self {
        Self {
            owner,
            entries: VecDeque::new(),
            incarnation_floor: Incarnation::ZERO,
            peak: 0,
            total_stored: 0,
            total_collected: 0,
            bytes: 0,
            peak_bytes: 0,
            total_bytes_stored: 0,
            retired: Aside::default(),
        }
    }

    /// The owning process.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// The highest incarnation the owner has ever opened (the incarnation
    /// log). A restart must resume at an incarnation strictly above every
    /// one the previous executions used — reading only the stored
    /// checkpoints' vectors is not enough, because rollbacks do not store
    /// checkpoints.
    pub fn incarnation_floor(&self) -> Incarnation {
        self.incarnation_floor
    }

    /// Records that the owner opened incarnation `v` (monotone: lower
    /// values are ignored). Called by the recovery layer on every rollback,
    /// *before* the process resumes execution.
    pub fn raise_incarnation_floor(&mut self, v: Incarnation) {
        self.incarnation_floor = self.incarnation_floor.max(v);
    }

    /// Stores checkpoint `index` with its dependency vector.
    ///
    /// # Panics
    ///
    /// Panics if `index` is already present — checkpoint indices are unique
    /// within a normal execution period (rollbacks eliminate before reuse).
    pub fn insert(&mut self, index: CheckpointIndex, dv: DependencyVector) {
        self.insert_with_size(index, dv, 0);
    }

    /// Stores checkpoint `index` with its dependency vector and the size of
    /// the application state snapshot, in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `index` is already present.
    pub fn insert_with_size(&mut self, index: CheckpointIndex, dv: DependencyVector, bytes: usize) {
        self.insert_tagged(index, dv, bytes, None);
    }

    /// [`insert_with_size`](Self::insert_with_size) for an owner that
    /// wants the vector's buffer back: when a checkpoint stored with
    /// `Some(tag)` — a number that means something to the owner only — is
    /// [removed](Self::remove), its vector is not freed but queued with
    /// the tag for [`drain_retired`](Self::drain_retired). The tag is no
    /// part of the store's value.
    ///
    /// # Panics
    ///
    /// Panics if `index` is already present.
    pub fn insert_tagged(
        &mut self,
        index: CheckpointIndex,
        dv: DependencyVector,
        bytes: usize,
        tag: Option<u64>,
    ) {
        let tag = Aside(tag);
        let stored = StoredCheckpoint { dv, bytes, tag };
        match self.entries.back() {
            // The always-taken path: checkpoint indices grow monotonically.
            Some(&(last, _)) if index > last => self.entries.push_back((index, stored)),
            None => self.entries.push_back((index, stored)),
            Some(_) => match self.position(index) {
                Ok(_) => panic!("checkpoint {index} stored twice"),
                Err(at) => self.entries.insert(at, (index, stored)),
            },
        }
        self.total_stored += 1;
        self.peak = self.peak.max(self.entries.len());
        self.bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.total_bytes_stored += bytes;
    }

    /// Binary-search position of `index` in the sorted entry vector.
    fn position(&self, index: CheckpointIndex) -> std::result::Result<usize, usize> {
        self.entries.binary_search_by_key(&index, |&(i, _)| i)
    }

    /// Eliminates checkpoint `index`.
    ///
    /// # Errors
    ///
    /// [`Error::CheckpointNotInStorage`] if absent.
    pub fn remove(&mut self, index: CheckpointIndex) -> Result<()> {
        match self.position(index) {
            Ok(at) => {
                self.remove_at(at);
                Ok(())
            }
            Err(_) => Err(Error::CheckpointNotInStorage {
                process: self.owner,
                index,
            }),
        }
    }

    /// Eliminates every checkpoint whose position (`0` is the oldest
    /// stored) `keep` rejects, oldest first, appending its index to
    /// `eliminated`: [`remove`](Self::remove) without a search per
    /// checkpoint, for a caller that decided by position. The first
    /// elimination makes room in `eliminated` for every position left, so
    /// it grows at most once.
    pub fn retain_positions(
        &mut self,
        mut keep: impl FnMut(usize) -> bool,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let mut removed = 0;
        for k in 0..self.entries.len() {
            if !keep(k) {
                if removed == 0 {
                    eliminated.reserve(self.entries.len() - k);
                }
                // Ascending, so a removal shifts only positions passed.
                eliminated.push(self.remove_at(k - removed));
                removed += 1;
            }
        }
    }

    /// Eliminates the checkpoint at `position` (`0` is the oldest stored)
    /// and returns its index: [`remove`](Self::remove) for a caller that
    /// knows where the checkpoint is.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    pub fn remove_at(&mut self, position: usize) -> CheckpointIndex {
        let (index, stored) = self.entries.remove(position).expect("position in bounds");
        self.total_collected += 1;
        self.bytes -= stored.bytes;
        if let Some(tag) = stored.tag.0 {
            self.retired.0.push((stored.dv, tag));
        }
        index
    }

    /// The vectors of the tagged checkpoints removed since the last call,
    /// each with its tag, oldest removal first.
    pub fn drain_retired(&mut self) -> impl Iterator<Item = (DependencyVector, u64)> + '_ {
        self.retired.0.drain(..)
    }

    /// The dependency vector stored with `index`.
    ///
    /// # Errors
    ///
    /// [`Error::CheckpointNotInStorage`] if absent.
    pub fn dv(&self, index: CheckpointIndex) -> Result<&DependencyVector> {
        self.position(index)
            .ok()
            .map(|at| &self.entries[at].1.dv)
            .ok_or(Error::CheckpointNotInStorage {
                process: self.owner,
                index,
            })
    }

    /// The index of the checkpoint at `position` (`0` is the oldest).
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    pub fn index_at(&self, position: usize) -> CheckpointIndex {
        self.entries[position].0
    }

    /// Whether `index` is currently stored.
    pub fn contains(&self, index: CheckpointIndex) -> bool {
        self.position(index).is_ok()
    }

    /// Number of checkpoints currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stored indices in ascending order.
    pub fn indices(&self) -> impl DoubleEndedIterator<Item = CheckpointIndex> + '_ {
        self.entries.iter().map(|&(i, _)| i)
    }

    /// `(index, dv)` pairs in ascending index order.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = (CheckpointIndex, &DependencyVector)> + ExactSizeIterator
    {
        self.entries.iter().map(|(i, s)| (*i, &s.dv))
    }

    /// The most recent stored checkpoint, if any.
    pub fn last(&self) -> Option<CheckpointIndex> {
        self.entries.back().map(|&(i, _)| i)
    }

    /// Maximum number of simultaneously stored checkpoints observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Checkpoints stored over the store's lifetime.
    pub fn total_stored(&self) -> usize {
        self.total_stored
    }

    /// Checkpoints eliminated over the store's lifetime.
    pub fn total_collected(&self) -> usize {
        self.total_collected
    }

    /// Bytes currently occupied by stored checkpoints.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Peak simultaneous byte occupancy.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Bytes written to stable storage over the store's lifetime.
    pub fn total_bytes_stored(&self) -> usize {
        self.total_bytes_stored
    }

    /// Removes every checkpoint with index strictly greater than `ri`
    /// (rollback discards them, Algorithm 3 line 4) and returns them:
    /// [`truncate_after_into`](Self::truncate_after_into) into a new vector.
    pub fn truncate_after(&mut self, ri: CheckpointIndex) -> Vec<CheckpointIndex> {
        let mut doomed = Vec::new();
        self.truncate_after_into(ri, &mut doomed);
        doomed
    }

    /// Removes every checkpoint with index strictly greater than `ri`,
    /// appending them to `eliminated`, oldest first. The cut is found from
    /// the newest end, so it costs one compare per checkpoint removed, plus
    /// one. If it removes any, `eliminated` gets room for every checkpoint
    /// stored before the call, so a collector can append what else it
    /// eliminates without growing it again.
    pub fn truncate_after_into(
        &mut self,
        ri: CheckpointIndex,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let later = self.entries.iter().rev().take_while(|&&(i, _)| i > ri);
        let cut = self.entries.len() - later.count();
        if cut < self.entries.len() {
            eliminated.reserve(self.entries.len());
        }
        for (index, stored) in self.entries.drain(cut..) {
            self.total_collected += 1;
            self.bytes -= stored.bytes;
            eliminated.push(index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    fn store_with(indices: &[usize]) -> CheckpointStore {
        let mut s = CheckpointStore::new(ProcessId::new(0));
        for &i in indices {
            s.insert(idx(i), DependencyVector::new(2));
        }
        s
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = store_with(&[0, 1, 2]);
        assert_eq!(s.len(), 3);
        s.remove(idx(1)).unwrap();
        assert!(!s.contains(idx(1)));
        assert_eq!(s.last(), Some(idx(2)));
        assert_eq!(s.total_collected(), 1);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut s = store_with(&[0, 1, 2]);
        s.remove(idx(0)).unwrap();
        s.remove(idx(1)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.peak(), 3);
    }

    #[test]
    #[should_panic(expected = "stored twice")]
    fn duplicate_insert_panics() {
        let mut s = store_with(&[0]);
        s.insert(idx(0), DependencyVector::new(2));
    }

    #[test]
    fn removing_missing_checkpoint_is_an_error() {
        let mut s = store_with(&[0]);
        assert!(matches!(
            s.remove(idx(5)),
            Err(Error::CheckpointNotInStorage { .. })
        ));
    }

    #[test]
    fn byte_accounting_tracks_occupancy() {
        let mut s = CheckpointStore::new(ProcessId::new(0));
        s.insert_with_size(idx(0), DependencyVector::new(2), 100);
        s.insert_with_size(idx(1), DependencyVector::new(2), 50);
        assert_eq!(s.bytes(), 150);
        assert_eq!(s.peak_bytes(), 150);
        s.remove(idx(0)).unwrap();
        assert_eq!(s.bytes(), 50);
        assert_eq!(s.peak_bytes(), 150);
        assert_eq!(s.total_bytes_stored(), 150);
    }

    #[test]
    fn a_tagged_vector_comes_back_and_a_tag_is_no_part_of_the_value() {
        let mut tagged = CheckpointStore::new(ProcessId::new(0));
        let mut plain = tagged.clone();
        let dv = |own| DependencyVector::from_raw(vec![own, 3]);
        for i in 0..3 {
            tagged.insert_tagged(idx(i), dv(i), 8, Some(40 + i as u64));
            plain.insert_with_size(idx(i), dv(i), 8);
        }
        assert_eq!(tagged, plain);
        for store in [&mut tagged, &mut plain] {
            store.remove(idx(1)).unwrap();
            store.remove(idx(0)).unwrap();
        }
        assert_eq!(tagged, plain, "vectors waiting to be drained included");
        let back: Vec<_> = tagged.drain_retired().collect();
        assert_eq!(back, vec![(dv(1), 41), (dv(0), 40)]);
        assert_eq!(tagged.drain_retired().count(), 0);
        assert_eq!(
            plain.drain_retired().count(),
            0,
            "untagged vectors are freed"
        );
    }

    #[test]
    fn retain_positions_eliminates_oldest_first_and_accounts_for_each() {
        let mut s = CheckpointStore::new(ProcessId::new(0));
        for i in 0..5 {
            s.insert_tagged(idx(i), DependencyVector::new(2), 10, Some(i as u64));
        }
        let mut gone = vec![idx(9)];
        s.retain_positions(|k| k == 1 || k == 4, &mut gone);
        assert_eq!(gone, vec![idx(9), idx(0), idx(2), idx(3)], "appended");
        assert_eq!(s.indices().collect::<Vec<_>>(), vec![idx(1), idx(4)]);
        assert_eq!(s.index_at(1), idx(4));
        assert_eq!((s.bytes(), s.total_collected()), (20, 3));
        let tags: Vec<u64> = s.drain_retired().map(|(_, tag)| tag).collect();
        assert_eq!(tags, vec![0, 2, 3]);
    }

    #[test]
    fn truncate_updates_bytes() {
        let mut s = CheckpointStore::new(ProcessId::new(0));
        for i in 0..4 {
            s.insert_with_size(idx(i), DependencyVector::new(2), 10);
        }
        s.truncate_after(idx(1));
        assert_eq!(s.bytes(), 20);
    }

    #[test]
    fn truncate_after_removes_strict_suffix() {
        let mut s = store_with(&[0, 1, 2, 3, 4]);
        let doomed = s.truncate_after(idx(2));
        assert_eq!(doomed, vec![idx(3), idx(4)]);
        assert_eq!(
            s.indices().collect::<Vec<_>>(),
            vec![idx(0), idx(1), idx(2)]
        );
    }

    #[test]
    fn truncate_after_last_is_noop() {
        let mut s = store_with(&[0, 1]);
        assert!(s.truncate_after(idx(1)).is_empty());
        assert_eq!(s.len(), 2);
    }
    #[test]
    fn incarnation_floor_is_monotone_and_survives_truncation() {
        let mut store = CheckpointStore::new(ProcessId::new(0));
        assert_eq!(store.incarnation_floor(), Incarnation::ZERO);
        store.raise_incarnation_floor(Incarnation::new(3));
        store.raise_incarnation_floor(Incarnation::new(1)); // ignored
        assert_eq!(store.incarnation_floor(), Incarnation::new(3));
        store.insert(CheckpointIndex::new(0), DependencyVector::new(2));
        store.truncate_after(CheckpointIndex::new(0));
        assert_eq!(store.incarnation_floor(), Incarnation::new(3));
    }
}
