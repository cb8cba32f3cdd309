//! Per-process stable-storage model for checkpoints.
//!
//! # What an entry keeps
//!
//! Section 4.2 stores "the current dependency vector" with every stable
//! checkpoint, and RDT-LGC may retain up to `n` of them, so a store of full
//! vectors holds O(n²) entries per process — mostly copies of one another:
//! between two consecutive checkpoints of a wide system few entries change.
//! So an entry keeps the entries of its vector that changed since its
//! stored predecessor: an [`UpdateSet`] of processes and their values,
//! ascending. The oldest entry has no predecessor, and everything changed
//! since nothing: it is the vector in full. A *full* entry is that case —
//! every process changed — and there is no other format.
//!
//! An entry is full unless its owner says what changed
//! ([`insert_changed`](CheckpointStore::insert_changed)) since a
//! predecessor that is still the newest stored. In a system of more than
//! 64 processes the checkpointing middleware knows it, however much
//! changed, from its first interned snapshot on: it keeps the set of
//! entries changed since its last checkpoint (or since the checkpoint a
//! rollback restored). So every entry of a system of up to 64 processes
//! is full, as are the checkpoints a process stores before its first
//! interned snapshot and the first one after it, and every entry of a
//! store rebuilt from disk.
//!
//! * **Collecting the oldest** applies its successor's changes to its
//!   vector in place; the successor is the full one from then on.
//! * **Collecting a later one** folds its changes into its successor's:
//!   the entries the successor lacks take the collected one's values.
//! * **Reading** a vector ([`dv`](CheckpointStore::dv)) copies the nearest
//!   full vector at or before it into the caller's buffer and applies the
//!   changes after it, in order. One entry of it
//!   ([`lineage`](CheckpointStore::lineage)) is looked up backwards
//!   through the changes, and a full entry stops the search.
//! * **Truncating** drops the newest entries; nothing depends on them.
//!
//! Equality is semantic: two stores are equal when they hold the same
//! checkpoints with the same vectors and sizes, whatever they keep.

use std::collections::VecDeque;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use rdt_base::{
    CheckpointIndex, DependencyVector, DvEntry, Error, Incarnation, ProcessId, Result, UpdateSet,
};

/// The stable checkpoints a process currently holds, with the dependency
/// vector stored alongside each one (Section 4.2: "when a stable checkpoint
/// is taken, the current dependency vector is stored with it for recovery
/// purposes"), kept as the entries that changed since the predecessor (see
/// the [module docs](self)).
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointStore {
    owner: ProcessId,
    /// Oldest first; the oldest is always full.
    entries: VecDeque<(CheckpointIndex, Stored)>,
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
    /// The vectors of the entries that keep only their changes, oldest
    /// first, once [`iter`](Self::iter) has made them; nothing else reads
    /// them, and every change of the store drops them.
    #[serde(skip)]
    read: OnceLock<Vec<DependencyVector>>,
}

/// One stable checkpoint at rest: what it keeps of its dependency vector
/// and the application-state size it occupies.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stored {
    kept: Kept,
    bytes: usize,
}

/// What an entry keeps of its vector.
///
/// A full vector lives inline in the entry: for systems of up to 16
/// processes (inline vectors) the whole store cycle — insert, collect,
/// remove — runs without touching the allocator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Kept {
    /// Every entry: the vector itself.
    Full(DependencyVector),
    /// The entries that changed since the stored predecessor.
    Changed {
        /// Whose entries changed; never empty.
        at: UpdateSet,
        /// Their values, ascending by process: `at.len()` entries, inline
        /// up to 16 ([`DependencyVector::gather`]).
        values: DependencyVector,
    },
}

impl Kept {
    /// The entry of `f`, if this keeps it.
    fn lineage(&self, f: ProcessId) -> Option<DvEntry> {
        match self {
            Kept::Full(dv) => Some(dv.lineage(f)),
            Kept::Changed { at, values } => at.contains(f).then(|| values.as_slice()[rank(at, f)]),
        }
    }
}

/// A copy of the non-empty `changed`, its spill no longer than its
/// highest member needs.
fn trimmed(changed: &UpdateSet) -> UpdateSet {
    let mut at = UpdateSet::new();
    // The highest first: the set's spill grows once.
    let highest = changed.words().last();
    highest
        .into_iter()
        .chain(changed.words())
        .for_each(|(word, bits)| at.or_word(word, bits));
    at
}

/// How many members of `at` precede its member `f`.
fn rank(at: &UpdateSet, f: ProcessId) -> usize {
    let (word, bit) = (f.index() / 64, f.index() % 64);
    at.words()
        .take_while(|&(w, _)| w <= word)
        .map(|(w, bits)| match w == word {
            true => (bits & ((1 << bit) - 1)).count_ones() as usize,
            false => bits.count_ones() as usize,
        })
        .sum()
}

/// The changes of `older` folded into those of its successor `newer`: the
/// entries `newer` lacks take `older`'s values.
fn fold(
    (older, older_values): (&UpdateSet, &DependencyVector),
    (newer, newer_values): (&UpdateSet, &DependencyVector),
) -> (UpdateSet, DependencyVector) {
    let mut at = newer.clone();
    older
        .words()
        .for_each(|(word, bits)| at.or_word(word, bits));
    let (mut old, mut new) = (
        older_values.as_slice().iter(),
        newer_values.as_slice().iter(),
    );
    let values = at.iter().map(|f| {
        let was = older.contains(f).then(|| old.next());
        match newer.contains(f) {
            true => *new.next().expect("a value per member"),
            false => *was.flatten().expect("a value per member"),
        }
    });
    let values = values.collect();
    (at, values)
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
            read: OnceLock::new(),
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

    /// Stores checkpoint `index` with its dependency vector, in full, and
    /// the size of the application state snapshot, in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `index` is already present.
    pub fn insert_with_size(&mut self, index: CheckpointIndex, dv: DependencyVector, bytes: usize) {
        self.read.take();
        let stored = Stored {
            kept: Kept::Full(dv),
            bytes,
        };
        match self.entries.back() {
            // The always-taken path: checkpoint indices grow monotonically.
            Some(&(last, _)) if index > last => self.entries.push_back((index, stored)),
            None => self.entries.push_back((index, stored)),
            Some(_) => match self.position(index) {
                Ok(_) => panic!("checkpoint {index} stored twice"),
                Err(at) => {
                    // The successor's changes were against what is now the
                    // new checkpoint's predecessor: it keeps its whole.
                    let mut whole = DependencyVector::new(1);
                    self.dv_at(at, &mut whole);
                    self.entries[at].1.kept = Kept::Full(whole);
                    self.entries.insert(at, (index, stored));
                }
            },
        }
        debug_assert!(matches!(self.entries[0].1.kept, Kept::Full(_)));
        self.stored(bytes);
    }

    /// Stores checkpoint `index` with vector `dv`, given that `dv` differs
    /// from the vector of stored checkpoint `predecessor` at most at the
    /// entries in `changed`: if `predecessor` is the newest stored, `index`
    /// comes after it and `changed` is not empty, only those entries are
    /// kept; otherwise `dv` is copied in full.
    ///
    /// # Panics
    ///
    /// Panics if `index` is already present, or a change is out of range.
    pub fn insert_changed(
        &mut self,
        index: CheckpointIndex,
        dv: &DependencyVector,
        predecessor: CheckpointIndex,
        changed: &UpdateSet,
        bytes: usize,
    ) {
        let newest = self.last() == Some(predecessor) && index > predecessor;
        if !newest || changed.is_empty() {
            return self.insert_with_size(index, dv.clone(), bytes);
        }
        self.read.take();
        let at = trimmed(changed);
        let values = dv.gather(&at);
        let stored = Stored {
            kept: Kept::Changed { at, values },
            bytes,
        };
        self.entries.push_back((index, stored));
        self.stored(bytes);
    }

    /// Accounts for a checkpoint of `bytes` just stored.
    fn stored(&mut self, bytes: usize) {
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

    fn absent(&self, index: CheckpointIndex) -> Error {
        Error::CheckpointNotInStorage {
            process: self.owner,
            index,
        }
    }

    /// Eliminates checkpoint `index`.
    ///
    /// # Errors
    ///
    /// [`Error::CheckpointNotInStorage`] if absent.
    pub fn remove(&mut self, index: CheckpointIndex) -> Result<()> {
        let at = self.position(index).map_err(|_| self.absent(index))?;
        self.remove_at(at);
        Ok(())
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
    /// knows where the checkpoint is. Its successor takes over what it
    /// kept (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    #[inline]
    pub fn remove_at(&mut self, position: usize) -> CheckpointIndex {
        self.read.take();
        self.total_collected += 1;
        let mut pair = self.entries.range_mut(position..);
        let (gone, next) = (pair.next().expect("position in bounds"), pair.next());
        let index = gone.0;
        self.bytes -= gone.1.bytes;
        let mut merged = false;
        if let Some((next_index, next)) = next {
            if let Kept::Changed { at, values } = &mut next.kept {
                match &mut gone.1.kept {
                    // The oldest: its vector, brought up to date in place,
                    // is its successor's, which leaves in its stead.
                    Kept::Full(dv) => {
                        dv.overwrite(at, values.as_slice());
                        (gone.0, gone.1.bytes) = (*next_index, next.bytes);
                        merged = true;
                    }
                    Kept::Changed {
                        at: older,
                        values: older_values,
                    } => (*at, *values) = fold((older, older_values), (at, values)),
                }
            }
        }
        self.entries.remove(position + usize::from(merged));
        index
    }

    /// Writes the dependency vector stored with `index` into `into`, which
    /// takes the vector's length if it had another.
    ///
    /// # Errors
    ///
    /// [`Error::CheckpointNotInStorage`] if absent; `into` is then
    /// untouched.
    pub fn dv(&self, index: CheckpointIndex, into: &mut DependencyVector) -> Result<()> {
        let at = self.position(index).map_err(|_| self.absent(index))?;
        self.dv_at(at, into);
        Ok(())
    }

    /// [`dv`](Self::dv) of the checkpoint at `position`.
    fn dv_at(&self, position: usize, into: &mut DependencyVector) {
        let full = |k: usize| match &self.entries[k].1.kept {
            Kept::Full(dv) => Some((k, dv)),
            Kept::Changed { .. } => None,
        };
        let (base, full) = (0..=position)
            .rev()
            .find_map(full)
            .expect("the oldest entry is full");
        match into.len() == full.len() {
            true => into.copy_from(full),
            false => *into = full.clone(),
        }
        for (_, stored) in self.entries.range(base + 1..=position) {
            if let Kept::Changed { at, values } = &stored.kept {
                into.overwrite(at, values.as_slice());
            }
        }
    }

    /// The entry for `f` of the vector stored at `position` (`0` is the
    /// oldest): looked up backwards through the changes, as far as the
    /// nearest entry that keeps it.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()` or `f` is out of range.
    pub fn lineage(&self, position: usize, f: ProcessId) -> DvEntry {
        (0..=position)
            .rev()
            .find_map(|k| self.entries[k].1.kept.lineage(f))
            .expect("the oldest entry is full")
    }

    /// The vector of the checkpoint at `position`, if its entry keeps it
    /// in full: [`lineage`](Self::lineage) without the search.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    pub fn full_at(&self, position: usize) -> Option<&DependencyVector> {
        match &self.entries[position].1.kept {
            Kept::Full(dv) => Some(dv),
            Kept::Changed { .. } => None,
        }
    }

    /// The processes whose entries the checkpoint at `position` keeps
    /// because they changed since its stored predecessor; `None` if it
    /// keeps its vector in full.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    pub fn changed_at(&self, position: usize) -> Option<&UpdateSet> {
        match &self.entries[position].1.kept {
            Kept::Full(_) => None,
            Kept::Changed { at, .. } => Some(at),
        }
    }

    /// What the checkpoints keep, oldest first.
    pub(crate) fn kept(&self) -> impl Iterator<Item = &Kept> {
        self.entries.iter().map(|(_, stored)| &stored.kept)
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

    /// `(index, dv)` pairs in ascending index order. A full entry is read
    /// as it is; the vectors of the entries that keep only their changes
    /// are made on the first call after the store last changed, and kept
    /// until it changes again. For tools and tests; the middleware, the
    /// collectors and the recovery manager read through [`dv`](Self::dv)
    /// and [`lineage`](Self::lineage) and never call this.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = (CheckpointIndex, &DependencyVector)> + ExactSizeIterator
    {
        let made = self.read.get_or_init(|| {
            let (mut full, mut whole) = (None, None);
            let mut made = Vec::new();
            for (_, stored) in &self.entries {
                match &stored.kept {
                    Kept::Full(dv) => (full, whole) = (Some(dv), None),
                    Kept::Changed { at, values } => {
                        let whole = whole.get_or_insert_with(|| {
                            DependencyVector::clone(full.expect("the oldest entry is full"))
                        });
                        whole.overwrite(at, values.as_slice());
                        made.push(whole.clone());
                    }
                }
            }
            made
        });
        let mut made = made.iter();
        let vectors: Vec<&DependencyVector> = (self.entries.iter())
            .map(|(_, stored)| match &stored.kept {
                Kept::Full(dv) => dv,
                Kept::Changed { .. } => made.next().expect("made above"),
            })
            .collect();
        self.entries.iter().map(|&(i, _)| i).zip(vectors)
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
        self.read.take();
        for (index, stored) in self.entries.drain(cut..) {
            self.total_collected += 1;
            self.bytes -= stored.bytes;
            eliminated.push(index);
        }
    }
}

/// Semantic: the same checkpoints with the same vectors and sizes, and the
/// same history, whatever each entry keeps.
impl PartialEq for CheckpointStore {
    fn eq(&self, other: &Self) -> bool {
        let counters = |s: &Self| {
            (
                s.owner,
                s.incarnation_floor,
                s.peak,
                s.total_stored,
                s.total_collected,
                s.bytes,
                s.peak_bytes,
                s.total_bytes_stored,
            )
        };
        let sizes = |s: &Self| -> Vec<_> { s.entries.iter().map(|(i, e)| (*i, e.bytes)).collect() };
        if counters(self) != counters(other) || sizes(self) != sizes(other) {
            return false;
        }
        let (mut mine, mut theirs) = (DependencyVector::new(1), DependencyVector::new(1));
        (0..self.len()).all(|k| {
            self.dv_at(k, &mut mine);
            other.dv_at(k, &mut theirs);
            mine == theirs
        })
    }
}

impl Eq for CheckpointStore {}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rdt_base::IntervalIndex;

    use super::*;
    use crate::theorem1::tests::{brute_force, pins_of};

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

    /// The vector stored with `index`, read into a fresh buffer.
    fn read(s: &CheckpointStore, index: usize) -> DependencyVector {
        let mut dv = DependencyVector::new(1);
        s.dv(idx(index), &mut dv).expect("stored");
        dv
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

    /// Three checkpoints of a 130-process system, each learning entries
    /// across word boundaries: stored in full, and as changes.
    fn wide_pair() -> (CheckpointStore, CheckpointStore, Vec<DependencyVector>) {
        let owner = ProcessId::new(0);
        let (mut full, mut changed) = (CheckpointStore::new(owner), CheckpointStore::new(owner));
        let mut dv = DependencyVector::new(130);
        let mut vectors = Vec::new();
        for (i, learned) in [vec![], vec![1u32, 64, 129], vec![63, 64, 128]]
            .into_iter()
            .enumerate()
        {
            let mut news = DependencyVector::new(130);
            for &f in &learned {
                let f = ProcessId::new(f as usize);
                for _ in 0..=i {
                    news.begin_next_interval(f);
                }
            }
            dv.merge_from(&news);
            full.insert_with_size(idx(i), dv.clone(), 8);
            let changes: UpdateSet = (learned.into_iter().chain([0]))
                .map(|f| ProcessId::new(f as usize))
                .collect();
            match i.checked_sub(1) {
                Some(before) => changed.insert_changed(idx(i), &dv, idx(before), &changes, 8),
                None => changed.insert_with_size(idx(i), dv.clone(), 8),
            }
            vectors.push(dv.clone());
            dv.begin_next_interval(owner);
        }
        (full, changed, vectors)
    }

    #[test]
    fn a_store_of_changes_equals_the_same_store_in_full() {
        let (mut full, mut changed, vectors) = wide_pair();
        assert_eq!(changed.changed_at(0), None, "the oldest is full");
        let at = |f: &[usize]| f.iter().map(|&f| ProcessId::new(f)).collect::<UpdateSet>();
        assert_eq!(changed.changed_at(1), Some(&at(&[0, 1, 64, 129])));
        assert_eq!(changed.changed_at(2), Some(&at(&[0, 63, 64, 128])));
        assert_eq!(full, changed);
        for (k, dv) in vectors.iter().enumerate() {
            assert_eq!(&read(&changed, k), dv);
            for f in ProcessId::all(130) {
                assert_eq!(changed.lineage(k, f), dv.lineage(f), "{k} {f}");
            }
        }
        // The middle one folds into its successor; the oldest then hands
        // its vector over.
        for store in [&mut full, &mut changed] {
            store.remove(idx(1)).unwrap();
        }
        assert_eq!(changed.changed_at(1), Some(&at(&[0, 1, 63, 64, 128, 129])));
        assert_eq!(full, changed);
        for store in [&mut full, &mut changed] {
            store.remove(idx(0)).unwrap();
        }
        assert_eq!(changed.changed_at(0), None);
        assert_eq!(read(&changed, 2), vectors[2]);
        assert_eq!(full, changed);
    }

    #[test]
    fn changes_against_a_checkpoint_no_longer_newest_are_stored_in_full() {
        let (_, mut changed, vectors) = wide_pair();
        changed.truncate_after(idx(1));
        let owner = [ProcessId::new(0)].into_iter().collect();
        changed.insert_changed(idx(3), &vectors[2], idx(2), &owner, 0);
        assert_eq!(changed.changed_at(2), None);
        assert_eq!(read(&changed, 3), vectors[2]);
        // Nothing changed: there is nothing to keep but the vector.
        changed.insert_changed(idx(4), &vectors[2], idx(3), &UpdateSet::new(), 0);
        assert_eq!(changed.changed_at(3), None);
        assert_eq!(read(&changed, 4), vectors[2]);
    }

    #[test]
    fn retain_positions_eliminates_oldest_first_and_accounts_for_each() {
        let mut s = CheckpointStore::new(ProcessId::new(0));
        for i in 0..5 {
            s.insert_with_size(idx(i), DependencyVector::new(2), 10);
        }
        let mut gone = vec![idx(9)];
        s.retain_positions(|k| k == 1 || k == 4, &mut gone);
        assert_eq!(gone, vec![idx(9), idx(0), idx(2), idx(3)], "appended");
        assert_eq!(s.indices().collect::<Vec<_>>(), vec![idx(1), idx(4)]);
        assert_eq!(s.index_at(1), idx(4));
        assert_eq!((s.bytes(), s.total_collected()), (20, 3));
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

    /// SplitMix64: a history spelled out from one drawn seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A store driven by one seed beside a plain list of its checkpoints
    /// and their vectors, and the owner's volatile vector, which only
    /// grows between rollbacks.
    struct Model {
        store: CheckpointStore,
        model: Vec<(CheckpointIndex, DependencyVector)>,
        dv: DependencyVector,
        next: usize,
        state: u64,
    }

    impl Model {
        fn new(n: usize, seed: u64) -> Self {
            let mut this = Self {
                store: CheckpointStore::new(ProcessId::new(0)),
                model: Vec::new(),
                dv: DependencyVector::new(n),
                next: 0,
                state: seed,
            };
            this.checkpoint(false);
            this
        }

        fn draw(&mut self, below: usize) -> usize {
            (next(&mut self.state) % below as u64) as usize
        }

        /// Merges news about a few processes, across word boundaries.
        fn learn(&mut self) {
            let n = self.dv.len();
            let mut news = self.dv.clone();
            for _ in 0..1 + self.draw(4) {
                let f = ProcessId::new(match self.draw(3) {
                    0 => self.draw(n),
                    _ => [n - 1, 63.min(n - 1), 64.min(n - 1)][self.draw(3)],
                });
                match self.draw(8) {
                    0 => {
                        news.resume_incarnation(f, news.incarnation_of(f).next());
                    }
                    _ => {
                        news.begin_next_interval(f);
                    }
                }
            }
            self.dv.merge_from(&news);
        }

        /// Stores the volatile vector as the next checkpoint, as changes
        /// (against the newest stored, or a stale predecessor) or in full.
        fn checkpoint(&mut self, as_changes: bool) {
            let index = idx(self.next);
            self.next += 1 + self.draw(2);
            let bytes = self.draw(100);
            match (as_changes, self.model.last()) {
                (true, Some(&(newest, _))) => {
                    let mut changed = self.changed_since(newest);
                    let stale = self.draw(self.model.len());
                    let predecessor = match self.draw(5) {
                        0 => self.model[stale].0,
                        _ => newest,
                    };
                    // Unchanged entries are allowed.
                    changed.insert(ProcessId::new(0));
                    changed.insert(ProcessId::new(self.draw(self.dv.len())));
                    self.store
                        .insert_changed(index, &self.dv, predecessor, &changed, bytes)
                }
                _ => self.store.insert_with_size(index, self.dv.clone(), bytes),
            }
            self.model.push((index, self.dv.clone()));
            self.dv.begin_next_interval(ProcessId::new(0));
        }

        fn changed_since(&self, newest: CheckpointIndex) -> UpdateSet {
            let at = self.model.iter().position(|&(i, _)| i == newest).unwrap();
            let old = &self.model[at].1;
            let differs = |f: &ProcessId| old.lineage(*f) != self.dv.lineage(*f);
            ProcessId::all(self.dv.len()).filter(differs).collect()
        }

        /// A rollback: the later checkpoints go, the restored vector is
        /// read back into the volatile one, which opens an incarnation.
        fn rollback(&mut self) {
            let at = self.draw(self.model.len());
            let ri = self.model[at].0;
            self.store.truncate_after(ri);
            self.model.truncate(at + 1);
            self.store.dv(ri, &mut self.dv).expect("stored");
            let owner = ProcessId::new(0);
            let live = self
                .dv
                .incarnation_of(owner)
                .max(Incarnation::new(self.next as u32));
            self.dv.resume_incarnation(owner, live.next());
        }

        fn step(&mut self) {
            let len = self.model.len();
            match self.draw(9) {
                0 | 1 => self.learn(),
                2 => self.checkpoint(false),
                3 | 4 => self.checkpoint(true),
                5 if len > 1 => {
                    let at = self.draw(len);
                    assert_eq!(self.store.remove_at(at), self.model.remove(at).0);
                }
                6 if len > 1 => {
                    let keep: Vec<bool> = (0..len).map(|_| self.draw(3) > 0).collect();
                    let mut gone = Vec::new();
                    let keep = |k: usize| keep[k] || k == len - 1;
                    self.store.retain_positions(keep, &mut gone);
                    let mut k = 0;
                    self.model.retain(|_| (keep(k), k += 1).0);
                    assert_eq!(self.store.len(), self.model.len());
                }
                7 => self.rollback(),
                _ => {
                    // Reading through `iter` keeps what it made.
                    let read: Vec<_> = self.store.iter().map(|(i, v)| (i, v.clone())).collect();
                    assert_eq!(read, self.model);
                }
            }
        }

        fn check(&mut self) {
            let n = self.dv.len();
            let indices: Vec<_> = self.model.iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(self.store.indices().collect::<Vec<_>>(), indices);
            prop_assert!(self.store.changed_at(0).is_none(), "the oldest is full");
            let mut buffer = DependencyVector::new(1 + self.draw(n));
            for (k, (index, dv)) in self.model.iter().enumerate() {
                self.store.dv(*index, &mut buffer).expect("stored");
                prop_assert_eq!(&buffer, dv, "{}", index);
                for f in ProcessId::all(n) {
                    prop_assert_eq!(self.store.lineage(k, f), dv.lineage(f));
                }
            }
            // Theorem 1 over an LI near the vectors, dead incarnations too.
            let li: Vec<DvEntry> = (0..n)
                .map(|f| {
                    let e = self.dv.lineage(ProcessId::new(f));
                    let back = self.draw(4);
                    match self.draw(6) {
                        0 => DvEntry::new(e.incarnation().next(), IntervalIndex::new(back)),
                        _ => DvEntry::new(
                            e.incarnation(),
                            IntervalIndex::new(e.interval().value().saturating_sub(back)),
                        ),
                    }
                })
                .collect();
            let model = self.model_store();
            prop_assert_eq!(
                pins_of(&self.store, &li, &self.dv),
                brute_force(&model, &li, &self.dv)
            );
        }

        /// The model as a store of full vectors.
        fn model_store(&self) -> CheckpointStore {
            let mut store = CheckpointStore::new(ProcessId::new(0));
            for (index, dv) in &self.model {
                store.insert(*index, dv.clone());
            }
            store
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every operation on a store of changes, against a list of whole
        /// vectors: the vectors read back, entry by entry and whole, and
        /// the Theorem-1 pins.
        #[test]
        fn a_store_of_changes_reads_as_its_model(
            n in prop::sample::select(vec![3usize, 64, 65, 130]),
            steps in 0usize..60,
            seed in 0u64..u64::MAX,
        ) {
            let mut m = Model::new(n, seed);
            m.check();
            for _ in 0..steps {
                m.step();
                m.check();
            }
        }
    }
}
