//! Transitive dependency vectors (Section 4.2 of the paper).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{
    CheckpointIndex, DvEntry, Error, Incarnation, IntervalIndex, ProcessId, Result, UpdateSet,
};

/// Vectors covering at most this many processes live entirely inline (no
/// heap allocation for construction, cloning or merging).
const INLINE_CAP: usize = 16;

/// Storage for the entries: inline for small systems, heap beyond.
///
/// The representation is an implementation detail — equality, hashing and
/// ordering are defined over the entry slice, and a given vector's
/// representation is fixed by its length (`n ≤ 16` inline), so the two
/// variants never compare against each other in practice.
// The size asymmetry is the design: the large Inline variant IS the
// no-allocation fast path, and every vector of a given system size uses one
// fixed variant, so no memory is "wasted" on the small one.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Serialize, Deserialize)]
enum Entries {
    /// Up to [`INLINE_CAP`] entries stored in place.
    Inline {
        /// Number of live entries in `buf`.
        len: u8,
        /// Entry storage; `buf[len..]` is meaningless padding.
        buf: [DvEntry; INLINE_CAP],
    },
    /// Arbitrary-size fallback.
    Heap(Vec<DvEntry>),
}

impl Entries {
    fn from_vec(entries: Vec<DvEntry>) -> Self {
        if entries.len() <= INLINE_CAP {
            let mut buf = [DvEntry::ZERO; INLINE_CAP];
            buf[..entries.len()].copy_from_slice(&entries);
            Entries::Inline {
                len: entries.len() as u8,
                buf,
            }
        } else {
            Entries::Heap(entries)
        }
    }

    fn zeros(n: usize) -> Self {
        if n <= INLINE_CAP {
            Entries::Inline {
                len: n as u8,
                buf: [DvEntry::ZERO; INLINE_CAP],
            }
        } else {
            Entries::Heap(vec![DvEntry::ZERO; n])
        }
    }

    fn as_slice(&self) -> &[DvEntry] {
        match self {
            Entries::Inline { len, buf } => &buf[..*len as usize],
            Entries::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [DvEntry] {
        match self {
            Entries::Inline { len, buf } => &mut buf[..*len as usize],
            Entries::Heap(v) => v,
        }
    }
}

/// A transitive dependency vector `DV` as maintained by every process of an
/// RDT checkpointing protocol and piggybacked on every application message.
///
/// Semantics (paper, Section 4.2):
///
/// * `DV[i]` — for the owner `p_i` — is the index of the checkpoint interval
///   `p_i` currently executes in. It starts at `0` and is incremented
///   immediately after each checkpoint is stored.
/// * `DV[j]`, `j ≠ i`, is the highest interval index of `p_j` upon which the
///   owner causally depends; it is updated whenever a message with a greater
///   entry arrives.
/// * The vector stored together with checkpoint `c_i^γ` satisfies
///   `DV(c_i^γ)[i] = γ`.
///
/// Equation 2 (`c_a^α → c_b^β ⟺ α < DV(c_b^β)[a]`) is exposed as
/// [`dominates_checkpoint`](Self::dominates_checkpoint), and Equation 3
/// (`last_k_i(j) = DV(v_i)[j] − 1`) as
/// [`last_known`](Self::last_known).
///
/// Vectors of systems with `n ≤ 16` processes are stored inline — no heap
/// allocation on construction, cloning, or merging — because the vector is
/// the payload of the per-event hot path ([`merge_from`](Self::merge_from)
/// on every receive, a clone into stable storage on every checkpoint).
/// Each entry is one packed `u64` word (incarnation in the top 16 bits,
/// interval in the low 48 — see [`DvEntry`] for the layout and the
/// order-preservation argument), so the inline vector is a flat `[u64; 16]`
/// and every merge/containment kernel is a single-compare-per-entry word
/// loop.
///
/// # Example
///
/// ```
/// use rdt_base::{DependencyVector, ProcessId};
///
/// let p0 = ProcessId::new(0);
/// let mut dv = DependencyVector::new(2);
/// assert_eq!(dv.entry(p0).value(), 0);
/// dv.begin_next_interval(p0); // checkpoint s_0^0 stored
/// assert_eq!(dv.entry(p0).value(), 1);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct DependencyVector {
    entries: Entries,
}

impl DependencyVector {
    /// Creates the all-zero vector `(0, …, 0)` of a system with `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; a system needs at least one process.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one process");
        Self {
            entries: Entries::zeros(n),
        }
    }

    /// Builds a vector from raw interval indices.
    ///
    /// ```
    /// use rdt_base::DependencyVector;
    /// let dv = DependencyVector::from_raw(vec![1, 4, 2]);
    /// assert_eq!(dv.len(), 3);
    /// ```
    pub fn from_raw(raw: Vec<usize>) -> Self {
        assert!(!raw.is_empty(), "a system needs at least one process");
        Self {
            entries: Entries::from_vec(
                raw.into_iter()
                    .map(|g| DvEntry::new(Incarnation::ZERO, IntervalIndex::new(g)))
                    .collect(),
            ),
        }
    }

    /// Builds a vector from `(incarnation, interval)` pairs — the
    /// fully-qualified counterpart of [`from_raw`](Self::from_raw) for
    /// post-rollback scenarios.
    ///
    /// # Panics
    ///
    /// Panics if a component exceeds its packed [`DvEntry`] field; decode
    /// untrusted input with [`crate::codec::read_entries`].
    pub fn from_lineages(raw: Vec<(u32, usize)>) -> Self {
        assert!(!raw.is_empty(), "a system needs at least one process");
        Self {
            entries: Entries::from_vec(
                raw.into_iter()
                    .map(|(v, g)| DvEntry::new(Incarnation::new(v), IntervalIndex::new(g)))
                    .collect(),
            ),
        }
    }

    /// The number of processes `n` this vector covers.
    pub fn len(&self) -> usize {
        self.entries.as_slice().len()
    }

    /// Always `false`: vectors cover at least one process.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The *interval component* of the entry for process `p`.
    ///
    /// Interval indices are only comparable within one incarnation; use
    /// [`lineage`](Self::lineage) whenever the execution may have rolled
    /// back.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for this system size.
    pub fn entry(&self, p: ProcessId) -> IntervalIndex {
        self.entries.as_slice()[p.index()].interval()
    }

    /// The full incarnation-qualified entry for process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for this system size.
    pub fn lineage(&self, p: ProcessId) -> DvEntry {
        self.entries.as_slice()[p.index()]
    }

    /// The incarnation component of the entry for process `p` — the newest
    /// incarnation of `p` this vector has causally heard of.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for this system size.
    pub fn incarnation_of(&self, p: ProcessId) -> Incarnation {
        self.entries.as_slice()[p.index()].incarnation()
    }

    /// Fallible variant of [`entry`](Self::entry).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProcessOutOfRange`] if `p.index() >= n`.
    pub fn try_entry(&self, p: ProcessId) -> Result<IntervalIndex> {
        self.entries
            .as_slice()
            .get(p.index())
            .map(|e| e.interval())
            .ok_or(Error::ProcessOutOfRange {
                process: p,
                n: self.len(),
            })
    }

    /// Iterates over `(process, interval)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, IntervalIndex)> + '_ {
        self.entries
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, v)| (ProcessId::new(i), v.interval()))
    }

    /// Incarnation-qualified entries, in process order.
    pub fn as_slice(&self) -> &[DvEntry] {
        self.entries.as_slice()
    }

    /// The entries, mutably: for [`crate::codec::read_entries`], which
    /// decodes into a vector its caller already owns.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [DvEntry] {
        self.entries.as_mut_slice()
    }

    /// Raw interval components as plain integers, in process order.
    pub fn to_raw(&self) -> Vec<usize> {
        self.entries
            .as_slice()
            .iter()
            .map(|e| e.interval().value())
            .collect()
    }

    /// Raw `(incarnation, interval)` components, in process order.
    pub fn to_raw_lineages(&self) -> Vec<(u32, usize)> {
        self.entries
            .as_slice()
            .iter()
            .map(|e| (e.incarnation().value(), e.interval().value()))
            .collect()
    }

    /// Increments the owner's entry: called by `p_i` immediately after it
    /// stores a checkpoint ("On taking checkpoint", Algorithm 2, line 4).
    ///
    /// Returns the interval the process now executes in.
    pub fn begin_next_interval(&mut self, owner: ProcessId) -> IntervalIndex {
        let e = &mut self.entries.as_mut_slice()[owner.index()];
        *e = e.next_interval();
        e.interval()
    }

    /// Opens a fresh incarnation after a rollback: called by `p_i` right
    /// after restoring a checkpoint, with the *globally fresh* incarnation
    /// number assigned by the recovery layer (strictly greater than any the
    /// process has used before — note the restored vector may carry an older
    /// incarnation than the execution that just died).
    ///
    /// The owner's entry becomes `(incarnation, restored interval + 1)`:
    /// re-executed intervals reuse indices, but the incarnation component
    /// keeps them distinguishable from the abandoned attempt's.
    ///
    /// # Panics
    ///
    /// Panics if `incarnation` does not exceed the restored entry's — reused
    /// `(incarnation, interval)` pairs would re-introduce the aliasing this
    /// type exists to prevent.
    pub fn resume_incarnation(&mut self, owner: ProcessId, incarnation: Incarnation) -> DvEntry {
        let e = &mut self.entries.as_mut_slice()[owner.index()];
        assert!(
            incarnation > e.incarnation(),
            "a rollback must open a strictly newer incarnation"
        );
        *e = DvEntry::new(incarnation, e.interval().next());
        *e
    }

    /// Merges the vector piggybacked on a received message
    /// ("On receiving m", Algorithm 2, lines 1–3): every entry of `other`
    /// that is greater replaces the local entry.
    ///
    /// Returns the processes whose entries were updated, i.e. those bringing
    /// *new causal information* — exactly the set for which RDT-LGC must
    /// `release`/`link` (Algorithm 2, lines 4–5). The [`UpdateSet`] is a
    /// bitset: reporting allocates nothing for systems of up to 128
    /// processes.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn merge_from(&mut self, other: &DependencyVector) -> UpdateSet {
        let mut updated = UpdateSet::new();
        self.merge_from_into(other, &mut updated);
        updated
    }

    /// [`merge_from`](Self::merge_from) writing the update report into a
    /// caller-owned set (cleared first). Lets hot loops reuse one
    /// [`UpdateSet`] across events instead of constructing one per merge.
    ///
    /// This is the per-receive hot kernel, a word-parallel loop: because a
    /// [`DvEntry`] is one packed `u64` whose unsigned order *is* the
    /// lexicographic `(incarnation, interval)` order, each entry costs one
    /// word compare, and the update report is derived from a compare mask
    /// (one bit per entry, held in a register and OR-ed into the
    /// [`UpdateSet`] once per 64-entry chunk) instead of per-entry
    /// `insert` calls, which would force the set's memory state through the
    /// loop.
    ///
    /// Which kernel runs depends on the vector's length alone (figures from
    /// the `benchmark/` package on a 2-vCPU shared Xeon):
    ///
    /// * **Up to 64 entries** (one [`UpdateSet`] word) the mask is built
    ///   branch-free (`mask |= (t > m) << bit`) and only its set bits are
    ///   copied. A small system's news is dense and irregular, so a guarded
    ///   store mispredicts: this kernel takes the stand-alone merge of
    ///   `sim-crashy`'s vectors (n = 32) from about 120 to 65 ns, and of
    ///   `sim-dense`'s (n = 16) from about 70 to 40 ns.
    /// * **Longer vectors** keep the store guarded: their per-event news is
    ///   sparse (typically one entry), the branch predicts as not-taken, and
    ///   the branch-free kernel at n = 256 (`live-uds`) cost ×0.95
    ///   end to end — its per-entry shift-and-or costs more there than the
    ///   rarely-taken branch it replaces.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn merge_from_into(&mut self, other: &DependencyVector, updated: &mut UpdateSet) {
        assert_eq!(
            self.len(),
            other.len(),
            "dependency vectors must cover the same system"
        );
        updated.clear();
        let mine = self.entries.as_mut_slice();
        let theirs = other.entries.as_slice();
        if mine.len() <= 64 {
            let mask = mine
                .iter()
                .zip(theirs)
                .enumerate()
                .fold(0u64, |mask, (bit, (m, t))| {
                    mask | (u64::from(t.packed() > m.packed()) << bit)
                });
            let mut news = mask;
            while news != 0 {
                let i = news.trailing_zeros() as usize;
                mine[i] = theirs[i];
                news &= news - 1;
            }
            updated.or_word(0, mask);
            return;
        }
        for (word, (mc, tc)) in mine.chunks_mut(64).zip(theirs.chunks(64)).enumerate() {
            let mut mask = 0u64;
            for (bit, (m, t)) in mc.iter_mut().zip(tc).enumerate() {
                if t.packed() > m.packed() {
                    *m = *t;
                    mask |= 1u64 << bit;
                }
            }
            updated.or_word(word, mask);
        }
    }

    /// Whether merging `other` would bring new causal information, without
    /// performing the merge. FDAS uses this to decide whether a forced
    /// checkpoint is required before processing a receive.
    ///
    /// Unlike [`merge_from_into`](Self::merge_from_into) (whose store is
    /// branch-guarded above 64 entries), this read-only predicate is fully
    /// branch-free at every length: the packed-word comparisons are
    /// OR-folded instead of
    /// short-circuited, so the loop has no data-dependent branches to
    /// mispredict.
    pub fn would_learn_from(&self, other: &DependencyVector) -> bool {
        assert_eq!(self.len(), other.len());
        self.entries
            .as_slice()
            .iter()
            .zip(other.entries.as_slice())
            .fold(false, |acc, (mine, theirs)| {
                acc | (theirs.packed() > mine.packed())
            })
    }

    /// [`would_learn_from`](Self::would_learn_from) over the entries `at`
    /// only. The same answer whenever `other` is known to bring no news
    /// elsewhere — which only the checkpointing middleware's change log
    /// can know; everyone else wants the full scan.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for either vector.
    pub fn would_learn_at(&self, other: &DependencyVector, at: &[u32]) -> bool {
        let (mine, theirs) = (self.entries.as_slice(), other.entries.as_slice());
        at.iter().fold(false, |acc, &i| {
            acc | (theirs[i as usize].packed() > mine[i as usize].packed())
        })
    }

    /// [`merge_from_into`](Self::merge_from_into) over the entries `at`
    /// only (`updated` cleared first; repeated indices are harmless). The
    /// same result under the same condition as
    /// [`would_learn_at`](Self::would_learn_at).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for either vector.
    pub fn merge_at_into(&mut self, other: &DependencyVector, at: &[u32], updated: &mut UpdateSet) {
        updated.clear();
        let (mine, theirs) = (self.entries.as_mut_slice(), other.entries.as_slice());
        for &i in at {
            let i = i as usize;
            if theirs[i].packed() > mine[i].packed() {
                mine[i] = theirs[i];
                updated.insert(ProcessId::new(i));
            }
        }
    }

    /// Makes `self` equal to `source`, given that the two differ at most
    /// at the entries `at`: the O(changes) copy into a buffer that held an
    /// earlier value of `source`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for either vector.
    pub fn patch_from(&mut self, source: &DependencyVector, at: &[u32]) {
        let (mine, theirs) = (self.entries.as_mut_slice(), source.entries.as_slice());
        for &i in at {
            mine[i as usize] = theirs[i as usize];
        }
    }

    /// The entries of the processes in `at`, ascending, packed into a
    /// vector of `at.len()` entries — a value list, not a vector of the
    /// system, stored inline for up to 16 entries like any short vector.
    /// [`overwrite`](Self::overwrite) puts them back.
    ///
    /// # Panics
    ///
    /// Panics if `at` is empty or a member of it is out of range.
    #[inline]
    pub fn gather(&self, at: &UpdateSet) -> DependencyVector {
        let mine = self.entries.as_slice();
        let (len, mut k) = (at.len(), 0);
        assert!(len > 0, "a system needs at least one process");
        let entries = if len <= INLINE_CAP {
            let mut buf = [DvEntry::ZERO; INLINE_CAP];
            at.for_each_index(|f| {
                buf[k] = mine[f];
                k += 1;
            });
            Entries::Inline {
                len: len as u8,
                buf,
            }
        } else {
            let mut heap = Vec::with_capacity(len);
            at.for_each_index(|f| heap.push(mine[f]));
            Entries::Heap(heap)
        };
        DependencyVector { entries }
    }

    /// Overwrites the entries of the processes in `at`, ascending, with
    /// `values` in that order: the inverse of reading them out with
    /// [`lineage`](Self::lineage) or [`gather`](Self::gather). Applying
    /// what changed since an earlier value brings a copy of that value up
    /// to date.
    ///
    /// # Panics
    ///
    /// Panics if a member of `at` is out of range, or `values` is shorter
    /// than `at`.
    #[inline]
    pub fn overwrite(&mut self, at: &UpdateSet, values: &[DvEntry]) {
        let mine = self.entries.as_mut_slice();
        let mut values = values.iter();
        at.for_each_index(|f| mine[f] = *values.next().expect("a value per member"));
    }

    /// Makes `self` equal to `source` in place — `clone_from` without the
    /// representation match, for a buffer of unknown content.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn copy_from(&mut self, source: &DependencyVector) {
        self.entries
            .as_mut_slice()
            .copy_from_slice(source.entries.as_slice());
    }

    /// Equation 2 of the paper: does checkpoint `c_a^α` causally precede the
    /// state (volatile or checkpointed) whose dependency vector is `self`?
    ///
    /// `c_a^α → state ⟺ α < DV(state)[a]`.
    ///
    /// Compares raw interval indices, i.e. answers the question *within one
    /// incarnation of `p_a`*. Recovery-line computations over executions
    /// that may have rolled back must use
    /// [`dominates_live_checkpoint`](Self::dominates_live_checkpoint).
    pub fn dominates_checkpoint(&self, a: ProcessId, alpha: CheckpointIndex) -> bool {
        alpha.value() < self.entry(a).value()
    }

    /// Incarnation-aware Equation 2: does checkpoint `c_a^α` of `p_a`'s
    /// **live** incarnation causally precede this state?
    ///
    /// An entry from a dead incarnation of `p_a` never dominates: the
    /// surviving prefix of every dead incarnation lies at or below the live
    /// execution's restore points, so whatever part of the recorded
    /// dependency still refers to existing states cannot exceed `p_a`'s
    /// current last stable checkpoint. The dead remainder refers to states
    /// already discarded by an earlier recovery session and must not block a
    /// live checkpoint — the orphaned-knowledge failure mode this predicate
    /// eliminates.
    pub fn dominates_live_checkpoint(
        &self,
        a: ProcessId,
        alpha: CheckpointIndex,
        live: Incarnation,
    ) -> bool {
        let e = self.lineage(a);
        debug_assert!(
            e.incarnation() <= live,
            "knowledge of {a} cannot be newer than its own incarnation"
        );
        e.incarnation() == live && alpha.value() < e.interval().value()
    }

    /// Equation 3 of the paper: the last checkpoint of `p_j` known here,
    /// `last_k(j) = DV[j] − 1`, or `None` if no checkpoint of `p_j` is known.
    pub fn last_known(&self, j: ProcessId) -> Option<CheckpointIndex> {
        self.entry(j).last_known_checkpoint()
    }

    /// Component-wise maximum of two vectors (the result of a merge, without
    /// mutating either operand). Branch-free: each entry is one packed-word
    /// `max`.
    pub fn join(&self, other: &DependencyVector) -> DependencyVector {
        assert_eq!(self.len(), other.len());
        let mut joined = self.clone();
        for (mine, theirs) in joined
            .entries
            .as_mut_slice()
            .iter_mut()
            .zip(other.entries.as_slice())
        {
            *mine = DvEntry::from_packed(mine.packed().max(theirs.packed()));
        }
        joined
    }

    /// Whether `self ≤ other` component-wise (causal-history containment):
    /// every causal dependency recorded here is also recorded in `other`.
    ///
    /// Branch-free word-parallel kernel: packed-word comparisons AND-folded
    /// instead of short-circuited (the vectors are short; predictability
    /// beats early exit).
    pub fn dominated_by(&self, other: &DependencyVector) -> bool {
        assert_eq!(self.len(), other.len());
        self.entries
            .as_slice()
            .iter()
            .zip(other.entries.as_slice())
            .fold(true, |acc, (a, b)| acc & (a.packed() <= b.packed()))
    }
}

/// A vector of the collected entries, in order.
///
/// # Panics
///
/// Panics if there are none: a vector covers at least one process.
impl FromIterator<DvEntry> for DependencyVector {
    fn from_iter<I: IntoIterator<Item = DvEntry>>(entries: I) -> Self {
        let mut entries = entries.into_iter();
        let mut buf = [DvEntry::ZERO; INLINE_CAP];
        let len = buf
            .iter_mut()
            .zip(&mut entries)
            .map(|(slot, e)| *slot = e)
            .count();
        assert!(len > 0, "a system needs at least one process");
        let entries = match entries.next() {
            None => Entries::Inline {
                len: len as u8,
                buf,
            },
            Some(more) => {
                let mut heap = buf.to_vec();
                heap.push(more);
                heap.extend(entries);
                Entries::Heap(heap)
            }
        };
        Self { entries }
    }
}

/// Equality is defined over the entry slice, independent of representation.
impl PartialEq for DependencyVector {
    fn eq(&self, other: &Self) -> bool {
        self.entries.as_slice() == other.entries.as_slice()
    }
}

impl Eq for DependencyVector {}

impl std::hash::Hash for DependencyVector {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.entries.as_slice().hash(state);
    }
}

impl fmt::Debug for DependencyVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DependencyVector")
            .field("entries", &self.entries.as_slice())
            .finish()
    }
}

impl fmt::Display for DependencyVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.entries.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn gather_overwrite_and_collect_round_trip_inline_and_on_the_heap() {
        let dv = DependencyVector::from_raw((0..200).map(|g| g * 3).collect());
        for members in [vec![0usize, 5], (0..40).map(|f| f * 5).collect()] {
            let at: UpdateSet = members.iter().map(|&f| p(f)).collect();
            let values = dv.gather(&at);
            assert_eq!(values.len(), members.len());
            let collected: DependencyVector = members.iter().map(|&f| dv.lineage(p(f))).collect();
            assert_eq!(values, collected);
            let mut zero = DependencyVector::new(200);
            zero.overwrite(&at, values.as_slice());
            for f in 0..200 {
                let want = if members.contains(&f) { 3 * f } else { 0 };
                assert_eq!(zero.entry(p(f)).value(), want, "{f}");
            }
        }
    }

    #[test]
    fn new_vector_is_all_zero() {
        let dv = DependencyVector::new(4);
        assert!(dv.iter().all(|(_, e)| e == IntervalIndex::ZERO));
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_process_system_is_rejected() {
        let _ = DependencyVector::new(0);
    }

    #[test]
    fn begin_next_interval_increments_owner_only() {
        let mut dv = DependencyVector::new(3);
        let now = dv.begin_next_interval(p(1));
        assert_eq!(now, IntervalIndex::new(1));
        assert_eq!(dv.to_raw(), vec![0, 1, 0]);
    }

    #[test]
    fn merge_takes_componentwise_max_and_reports_updates() {
        let mut a = DependencyVector::from_raw(vec![2, 0, 5]);
        let b = DependencyVector::from_raw(vec![1, 3, 5]);
        let updated = a.merge_from(&b);
        assert_eq!(a.to_raw(), vec![2, 3, 5]);
        assert_eq!(updated.to_vec(), vec![p(1)]);
    }

    #[test]
    fn merge_with_no_news_reports_nothing() {
        let mut a = DependencyVector::from_raw(vec![2, 3, 5]);
        let b = DependencyVector::from_raw(vec![2, 1, 0]);
        assert!(a.merge_from(&b).is_empty());
        assert_eq!(a.to_raw(), vec![2, 3, 5]);
    }

    #[test]
    fn would_learn_matches_merge_behaviour() {
        let a = DependencyVector::from_raw(vec![2, 3, 5]);
        let higher = DependencyVector::from_raw(vec![0, 4, 0]);
        let lower = DependencyVector::from_raw(vec![2, 3, 5]);
        assert!(a.would_learn_from(&higher));
        assert!(!a.would_learn_from(&lower));
    }

    #[test]
    fn restricted_kernels_agree_with_the_full_ones_where_the_news_is() {
        // 40 entries, so the spill words of the update set are in play;
        // `theirs` brings news at 3 and 37 only.
        let raw = |news: usize| (0..40).map(move |i| if i == 3 || i == 37 { news } else { 5 });
        let mine = DependencyVector::from_raw(raw(5).collect());
        let theirs = DependencyVector::from_raw(raw(9).collect());
        assert!(mine.would_learn_at(&theirs, &[37]));
        assert!(!mine.would_learn_at(&theirs, &[0, 36, 38]));
        assert!(!mine.would_learn_at(&theirs, &[]));
        let (mut full, mut at) = (mine.clone(), mine.clone());
        let (mut full_set, mut at_set) = (UpdateSet::new(), UpdateSet::new());
        at_set.insert(p(1)); // cleared first, like the full merge's
        full.merge_from_into(&theirs, &mut full_set);
        at.merge_at_into(&theirs, &[37, 3, 37, 20], &mut at_set);
        assert_eq!(at, full);
        assert_eq!(at_set, full_set);
        assert_eq!(at_set.to_vec(), vec![p(3), p(37)]);
    }

    #[test]
    fn patch_and_copy_make_a_buffer_equal_to_its_source() {
        let source = DependencyVector::from_raw((0..40).collect());
        let mut stale = source.clone();
        stale.begin_next_interval(p(7));
        stale.begin_next_interval(p(39));
        stale.patch_from(&source, &[39, 7]);
        assert_eq!(stale, source);
        let mut unrelated = DependencyVector::new(40);
        unrelated.copy_from(&source);
        assert_eq!(unrelated, source);
    }

    #[test]
    fn equation_2_checkpoint_domination() {
        // DV(state)[a] = 3 means checkpoints 0,1,2 of p_a precede the state.
        let dv = DependencyVector::from_raw(vec![3, 0]);
        assert!(dv.dominates_checkpoint(p(0), CheckpointIndex::new(2)));
        assert!(!dv.dominates_checkpoint(p(0), CheckpointIndex::new(3)));
        assert!(!dv.dominates_checkpoint(p(1), CheckpointIndex::new(0)));
    }

    #[test]
    fn equation_3_last_known() {
        let dv = DependencyVector::from_raw(vec![0, 4]);
        assert_eq!(dv.last_known(p(0)), None);
        assert_eq!(dv.last_known(p(1)), Some(CheckpointIndex::new(3)));
    }

    #[test]
    fn join_is_commutative_max() {
        let a = DependencyVector::from_raw(vec![2, 0, 5]);
        let b = DependencyVector::from_raw(vec![1, 3, 5]);
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.join(&b).to_raw(), vec![2, 3, 5]);
    }

    #[test]
    fn dominated_by_is_componentwise() {
        let a = DependencyVector::from_raw(vec![1, 2, 3]);
        let b = DependencyVector::from_raw(vec![1, 3, 3]);
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        assert!(a.dominated_by(&a));
    }

    #[test]
    fn merge_prefers_newer_incarnations_over_higher_intervals() {
        // Stale knowledge of p1's dead incarnation 0, interval 9, is
        // superseded by live knowledge (incarnation 1, interval 3).
        let mut a = DependencyVector::from_lineages(vec![(0, 2), (0, 9)]);
        let b = DependencyVector::from_lineages(vec![(0, 1), (1, 3)]);
        let updated = a.merge_from(&b);
        assert_eq!(updated.to_vec(), vec![p(1)]);
        assert_eq!(a.to_raw_lineages(), vec![(0, 2), (1, 3)]);
        // The reverse merge learns nothing: dead knowledge never overwrites
        // live knowledge.
        let mut b2 = b.clone();
        assert!(b2
            .merge_from(&DependencyVector::from_lineages(vec![(0, 1), (0, 9)]))
            .is_empty());
        assert_eq!(b2.lineage(p(1)), b.lineage(p(1)));
    }

    #[test]
    fn resume_incarnation_bumps_and_advances() {
        let mut dv = DependencyVector::from_lineages(vec![(0, 3), (0, 1)]);
        let e = dv.resume_incarnation(p(0), Incarnation::new(2));
        assert_eq!(e, DvEntry::new(Incarnation::new(2), IntervalIndex::new(4)));
        assert_eq!(dv.incarnation_of(p(0)), Incarnation::new(2));
        assert_eq!(dv.entry(p(0)).value(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly newer incarnation")]
    fn resume_incarnation_rejects_reuse() {
        let mut dv = DependencyVector::from_lineages(vec![(1, 3)]);
        dv.resume_incarnation(p(0), Incarnation::new(1));
    }

    #[test]
    fn dead_incarnation_entries_never_dominate_live_checkpoints() {
        // Entry (0, 9) for p1, whose live incarnation is 1: no domination,
        // whatever the checkpoint index.
        let dv = DependencyVector::from_lineages(vec![(0, 1), (0, 9)]);
        assert!(dv.dominates_checkpoint(p(1), CheckpointIndex::new(2)));
        assert!(!dv.dominates_live_checkpoint(p(1), CheckpointIndex::new(2), Incarnation::new(1)));
        // Same-incarnation knowledge dominates as in Equation 2.
        assert!(dv.dominates_live_checkpoint(p(1), CheckpointIndex::new(2), Incarnation::ZERO));
    }

    #[test]
    fn display_shows_incarnation_qualified_entries() {
        let dv = DependencyVector::from_lineages(vec![(0, 1), (2, 4)]);
        assert_eq!(dv.to_string(), "(1, 4@2)");
    }

    #[test]
    fn display_matches_paper_tuple_notation() {
        let dv = DependencyVector::from_raw(vec![1, 4, 2]);
        assert_eq!(dv.to_string(), "(1, 4, 2)");
    }

    #[test]
    fn try_entry_rejects_out_of_range() {
        let dv = DependencyVector::new(2);
        assert!(dv.try_entry(p(1)).is_ok());
        assert!(matches!(
            dv.try_entry(p(2)),
            Err(Error::ProcessOutOfRange { n: 2, .. })
        ));
    }

    #[test]
    fn large_vectors_spill_to_the_heap_transparently() {
        let n = INLINE_CAP * 3;
        let mut big = DependencyVector::new(n);
        big.begin_next_interval(p(n - 1));
        assert_eq!(big.entry(p(n - 1)), IntervalIndex::new(1));
        assert_eq!(big.len(), n);
        let other =
            DependencyVector::from_raw((0..n).map(|i| if i == 0 { 7 } else { 0 }).collect());
        let updated = big.clone().merge_from(&other);
        assert_eq!(updated.to_vec(), vec![p(0)]);
        assert!(matches!(big.entries, Entries::Heap(_)));
    }

    #[test]
    fn inline_and_heap_boundaries() {
        let at_cap = DependencyVector::new(INLINE_CAP);
        assert!(matches!(at_cap.entries, Entries::Inline { .. }));
        let over = DependencyVector::new(INLINE_CAP + 1);
        assert!(matches!(over.entries, Entries::Heap(_)));
        // from_raw picks the same representation per length.
        let from_raw = DependencyVector::from_raw(vec![0; INLINE_CAP]);
        assert_eq!(at_cap, from_raw);
    }

    #[test]
    fn debug_output_shows_entries() {
        let dv = DependencyVector::from_raw(vec![1, 2]);
        let s = format!("{dv:?}");
        assert!(s.contains("DependencyVector"), "{s}");
        assert!(s.contains("entries"), "{s}");
    }
}
