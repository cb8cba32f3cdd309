//! RDT-LGC — the paper's optimal asynchronous garbage collector
//! (Algorithms 1–3).
//!
//! # Algorithm 1's state as pin bitmaps
//!
//! The paper keeps one *checkpoint control block* (CCB) per retained stable
//! checkpoint — its index `IND` and a reference counter `RC` — and the
//! vector `UC` (*Uncollected Checkpoints*), whose entry `f` points at the
//! CCB of the checkpoint retained because of `p_f`, or is `∗`. Here the
//! collector keeps its retained checkpoints oldest first, in the store's
//! order, each with a **pin bitmap** of `⌈n/64⌉` words, all in one flat
//! vector. Bit `f` of a checkpoint's bitmap is set iff `UC[f]` references
//! it. So:
//!
//! * a CCB is a retained checkpoint with its bitmap, and `IND` its index;
//! * `RC` is the bitmap's count of set bits, and `RC = 0` an empty bitmap;
//! * `UC[f]` is the checkpoint whose bitmap has bit `f` (`∗` if none has);
//!   [`RdtLgc::uc_view`] derives the vector;
//! * `release(j)` clears bit `j`, and the checkpoint whose bitmap it empties
//!   is eliminated;
//! * `link(j, i)` sets bit `j` in the bitmap holding bit `i`, which is the
//!   newest one: `UC[i]` references the last stable checkpoint;
//! * `newCCB(i, ind)` appends checkpoint `ind` with only bit `i` set.
//!
//! **Cost.** A receive runs `release(j); link(j, i)` for every `j` in the
//! merge's update set at once: the set is ORed into the newest bitmap and
//! AND-NOTed out of every older one, visiting only the set's non-zero
//! words, newest first, until every pin it moves is found. That is at most
//! O(r · w) word operations, where r ≤ n + 1 is the number of retained
//! checkpoints and w the update set's non-zero words (one up to 64
//! processes), against the O(|news|) pointer-chasing steps of a CCB arena.
//!
//! A rollback (Algorithm 3) cuts the store from its newest end, one compare
//! per checkpoint discarded, and rebuilds every bitmap at once: for each
//! stored checkpoint, newest first, one branch-free compare of its vector
//! against `LI` gives the mask of the processes it does not know, and
//! `pins_k = below_k & !below_{k+1}` is its bitmap (see `theorem1_pins`).
//! That is at most s · n compares over contiguous entries (s ≤ n + 1
//! stored), cut short once a word's mask is full, and nothing is searched.
//! `recovery_info(LI)` builds its stale mask (`DV[f] < LI[f]`, the owner
//! excluded) with the same compare and releases it with the receive's
//! AND-NOT. Both append what they eliminate to the caller's buffer.
//!
//! **Order.** When one event empties several bitmaps, their checkpoints are
//! eliminated in the order the paper's ascending per-`j` loop frees them:
//! by the highest process whose pin that event removed from each.

use serde::{Deserialize, Serialize};

use rdt_base::{CheckpointIndex, DependencyVector, DvEntry, ProcessId, UpdateSet};

use crate::store::CheckpointStore;
use crate::traits::{GarbageCollector, GcKind, LastIntervals};

/// The RDT-LGC garbage collector of one process.
///
/// Maintains the paper's `UC` vector (*Uncollected Checkpoints*: entry `f`
/// references the checkpoint retained because of `p_f`) and its
/// reference-counted checkpoint control blocks, as one pin bitmap per
/// retained checkpoint (see the [module docs](self)).
///
/// Invariant (Theorem 3, Equation 4): whenever
/// `s_f^last → c_i^{γ+1} ∧ s_f^last ↛ s_i^γ`, entry `UC[f]` references
/// `s_i^γ`. A checkpoint is eliminated exactly when no entry references it
/// (Theorem 4: only obsolete checkpoints are collected; Theorem 5: every
/// causally identifiable obsolete checkpoint is).
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
    n: usize,
    /// Words per pin bitmap: `⌈n/64⌉`.
    words: usize,
    /// The retained checkpoints, oldest first.
    held: Vec<Held>,
    /// The pin bitmap of `held[k]` is `pins[k * words..(k + 1) * words]`.
    pins: Vec<u64>,
}

/// A retained checkpoint: the paper's CCB, whose `RC` is its bitmap's count.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Held {
    index: CheckpointIndex,
    /// The highest process whose pin the latest release removed: where the
    /// paper's ascending per-`j` loop frees the checkpoint if that release
    /// left it unpinned.
    released_by: usize,
}

/// The word of a pin bitmap holding process `f`'s bit, and the bit.
fn bit(f: ProcessId) -> (usize, u64) {
    (f.index() / 64, 1 << (f.index() % 64))
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
            n,
            words: n.div_ceil(64),
            held: Vec::new(),
            pins: Vec::new(),
        }
    }

    /// The owning process.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The pin bitmap of the `k`-th oldest retained checkpoint.
    fn bitmap(&self, k: usize) -> &[u64] {
        &self.pins[k * self.words..][..self.words]
    }

    /// Procedure `release(j)` for every `j` in `set` at once, followed by
    /// `link(j, i)` if `link`: clears their pins from every retained
    /// checkpoint but the newest, which gains them, or from every one.
    /// A process pins one checkpoint at most, so the search of a word stops,
    /// newest first, once every pin it looks for is found. Returns how many
    /// checkpoints it left unpinned, and the position of the last.
    fn release(&mut self, set: &UpdateSet, link: bool) -> (usize, usize) {
        let (words, upto) = (self.words, self.held.len() - usize::from(link));
        let mut unpinned = (0, 0);
        for (word, bits) in set.words() {
            let mut left = bits;
            if link {
                let newest = &mut self.pins[upto * words + word];
                left &= !*newest;
                *newest |= bits;
            }
            for k in (0..upto).rev() {
                if left == 0 {
                    break;
                }
                let hit = self.pins[k * words + word] & left;
                if hit != 0 {
                    self.pins[k * words + word] ^= hit;
                    left ^= hit;
                    self.held[k].released_by = word * 64 + 63 - hit.leading_zeros() as usize;
                    if self.bitmap(k).iter().all(|&b| b == 0) {
                        unpinned = (unpinned.0 + 1, k);
                    }
                }
            }
        }
        unpinned
    }

    /// Eliminates the retained checkpoints a release left unpinned, in the
    /// order the paper's ascending per-`j` release loop frees them.
    fn eliminate_unpinned(
        &mut self,
        (unpinned, last): (usize, usize),
        store: &mut CheckpointStore,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        if unpinned == 1 {
            return self.eliminate(last, store, eliminated);
        }
        for _ in 0..unpinned {
            let k = (0..self.held.len())
                .filter(|&k| self.bitmap(k).iter().all(|&b| b == 0))
                .min_by_key(|&k| self.held[k].released_by)
                .expect("as many unpinned checkpoints as the release left");
            self.eliminate(k, store, eliminated);
        }
    }

    /// Eliminates the `k`-th oldest retained checkpoint. The retained
    /// checkpoints are the newest stored, so its place in the store follows.
    fn eliminate(
        &mut self,
        k: usize,
        store: &mut CheckpointStore,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let at = store.len() - self.held.len() + k;
        let gone = self.held.remove(k).index;
        self.pins
            .copy_within((k + 1) * self.words.., k * self.words);
        self.pins.truncate(self.held.len() * self.words);
        eliminated.push(store.remove_at(at));
        debug_assert_eq!(eliminated.last(), Some(&gone), "retained = newest stored");
    }

    /// The checkpoint index each `UC` entry currently pins (`None` = the
    /// paper's `∗`), in process order — matches the tuples printed under
    /// each event in Figure 4.
    pub fn uc_view(&self) -> Vec<Option<CheckpointIndex>> {
        let pinned_by = |f| {
            let (word, bit) = bit(f);
            let k = (0..self.held.len()).find(|&k| self.bitmap(k)[word] & bit != 0)?;
            Some(self.held[k].index)
        };
        ProcessId::all(self.n).map(pinned_by).collect()
    }

    /// Indices of the checkpoints currently retained, ascending.
    pub fn retained(&self) -> Vec<CheckpointIndex> {
        self.held.iter().map(|held| held.index).collect()
    }

    /// Rebuilds `UC` and the pin bitmaps after a rollback (Algorithm 3
    /// lines 7–17), appending what it eliminates to `eliminated`.
    ///
    /// For each process `f`, the latest stored checkpoint `γ` with
    /// `DV(s^γ)[f] < LI[f]` whose successor (next stored checkpoint, or the
    /// volatile state `dv`) satisfies `DV(c^{γ+1})[f] ≥ LI[f]` is pinned:
    /// [`theorem1_pins`](crate::theorem1::theorem1_pins) writes the bitmaps
    /// directly. Everything unpinned is eliminated, oldest first.
    fn rebuild_after_rollback(
        &mut self,
        store: &mut CheckpointStore,
        li: &[DvEntry],
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let words = self.words;
        self.held.clear();
        self.held.extend(store.indices().map(|index| Held {
            index,
            released_by: 0,
        }));
        self.pins.clear();
        self.pins.resize(store.len() * words, 0);
        crate::theorem1::theorem1_pins(store, li, dv, &mut self.pins);
        let mut kept = 0;
        let keep = |k: usize| {
            let pinned = self.bitmap(k).iter().any(|&b| b != 0);
            if pinned {
                self.held[kept] = self.held[k];
                self.pins
                    .copy_within(k * words..(k + 1) * words, kept * words);
                kept += 1;
            }
            pinned
        };
        store.retain_positions(keep, eliminated);
        self.held.truncate(kept);
        self.pins.truncate(kept * words);
    }
}

impl GarbageCollector for RdtLgc {
    fn kind(&self) -> GcKind {
        GcKind::RdtLgc
    }

    /// "On taking checkpoint" (Algorithm 2): release the owner's pin on the
    /// previous checkpoint and retain the just-stored one under it.
    fn after_checkpoint_into(
        &mut self,
        store: &mut CheckpointStore,
        index: CheckpointIndex,
        _dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        debug_assert_eq!(store.last(), Some(index), "stored first, as the newest");
        // newCCB(i, ind): the new checkpoint, pinned by the owner alone.
        let (word, bit) = bit(self.owner);
        let released_by = self.owner.index();
        self.held.push(Held { index, released_by });
        self.pins.resize(self.pins.len() + self.words, 0);
        let at = self.pins.len() - self.words + word;
        self.pins[at] = bit;
        // release(i): the owner's pin leaves the previous last stable one.
        if let Some(previous) = self.held.len().checked_sub(2) {
            let at = previous * self.words + word;
            debug_assert!(self.pins[at] & bit != 0, "UC[i] is the last stable");
            self.pins[at] ^= bit;
            if self.bitmap(previous).iter().all(|&b| b == 0) {
                self.eliminate(previous, store, eliminated);
            }
        }
    }

    /// "On receiving m" (Algorithm 2): each process that contributed new
    /// causal information now denies the collection of our last stable
    /// checkpoint — its pin leaves whichever older checkpoint held it and
    /// joins the newest one's.
    fn after_receive_into(
        &mut self,
        store: &mut CheckpointStore,
        updated: &UpdateSet,
        _dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        debug_assert!(
            !updated.contains(self.owner),
            "a process cannot receive new causal information about itself"
        );
        // Nothing retained yet: nothing pinned, nothing to link to.
        if self.held.is_empty() {
            return;
        }
        let unpinned = self.release(updated, true);
        self.eliminate_unpinned(unpinned, store, eliminated);
    }

    /// Algorithm 3 (a process rolling back to `ri`): discard later
    /// checkpoints, then rebuild `UC` from `li` (or from `dv` when no global
    /// information is available — the uncoordinated variant).
    fn after_rollback_into(
        &mut self,
        store: &mut CheckpointStore,
        ri: CheckpointIndex,
        li: Option<&LastIntervals>,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        store.truncate_after_into(ri, eliminated);
        let li = li.map_or(dv.as_slice(), LastIntervals::as_slice);
        self.rebuild_after_rollback(store, li, dv, eliminated);
    }

    /// Non-rolling-back process during a synchronized recovery: release any
    /// `UC[f]` with `DV[f] < LI[f]` (Section 4.3).
    ///
    /// The comparison is lexicographic over incarnation-qualified entries:
    /// when `f` rolled back during the session, `LI[f]` carries `f`'s fresh
    /// incarnation, so *any* pre-rollback knowledge of `f` — however high
    /// its raw interval — reads as "does not know `f`'s new last checkpoint"
    /// and the stale pin is released.
    fn on_recovery_info_into(
        &mut self,
        store: &mut CheckpointStore,
        li: &LastIntervals,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let (own_word, own_bit) = bit(self.owner);
        let mut stale = UpdateSet::new();
        let known = dv.as_slice().chunks(64);
        for (word, (known, last)) in known.zip(li.as_slice().chunks(64)).enumerate() {
            let mask = crate::theorem1::below(known, last);
            stale.or_word(
                word,
                if word == own_word {
                    mask & !own_bit
                } else {
                    mask
                },
            );
        }
        let unpinned = self.release(&stale, false);
        self.eliminate_unpinned(unpinned, store, eliminated);
    }

    fn pinned(&self) -> usize {
        self.held.len()
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
    fn recovery_info_releases_a_dead_incarnation_pin_however_high_its_interval() {
        let mut a = Proc::new(0, 2);
        // a heard of p1's interval 5 in p1's first incarnation.
        a.receive(&DependencyVector::from_lineages(vec![(0, 0), (0, 5)]));
        a.checkpoint(); // s^0 pinned by p1
                        // p1 rolled back to s_1^2 in incarnation 1: LI[1] = (1, 3), below
                        // 5 as a raw interval, above (0, 5) as an incarnation-qualified one.
        let li = LastIntervals::from_dv(&DependencyVector::from_lineages(vec![(0, 2), (1, 3)]));
        let gone = a.gc.on_recovery_info(&mut a.store, &li, &a.dv.clone());
        assert_eq!(gone, vec![idx(0)]);
        assert_eq!(a.gc.uc_view(), vec![Some(idx(1)), None]);
    }

    /// A sender's vector that is news about exactly the processes `of`
    /// (entry `at` each) to a receiver that knows less of them.
    fn news(n: usize, of: &[usize], at: usize) -> DependencyVector {
        let mut raw = vec![0; n];
        of.iter().for_each(|&f| raw[f] = at);
        DependencyVector::from_raw(raw)
    }

    /// `a` of four processes holding s^0 pinned by p1 and p3, s^1 by p2,
    /// s^2 by itself.
    fn three_retained() -> Proc {
        let mut a = Proc::new(0, 4);
        a.receive(&news(4, &[1, 3], 1));
        a.checkpoint();
        a.receive(&news(4, &[2], 1));
        a.checkpoint();
        assert_eq!(
            a.gc.uc_view(),
            vec![Some(idx(2)), Some(idx(0)), Some(idx(1)), Some(idx(0))]
        );
        a
    }

    #[test]
    fn a_receive_emptying_two_checkpoints_frees_them_as_the_per_j_loop_does() {
        let mut a = three_retained();
        // release(1) leaves s^0 pinned by p3; release(2) frees s^1;
        // release(3) frees s^0 — newest first here, not oldest first.
        let gone = a.receive(&news(4, &[1, 2, 3], 2));
        assert_eq!(gone, vec![idx(1), idx(0)]);
        assert_eq!(a.gc.uc_view(), vec![Some(idx(2)); 4]);
        assert_eq!(a.store.indices().collect::<Vec<_>>(), vec![idx(2)]);
    }

    #[test]
    fn a_recovery_info_emptying_two_checkpoints_frees_them_as_the_per_f_loop_does() {
        let mut a = three_retained();
        // DV = [3, 1, 1, 1]: LI = [3, 2, 2, 2] makes p1, p2 and p3 stale.
        let li = LastIntervals::from_last_stable(&[idx(2), idx(1), idx(1), idx(1)]);
        let gone = a.gc.on_recovery_info(&mut a.store, &li, &a.dv.clone());
        assert_eq!(gone, vec![idx(1), idx(0)]);
        assert_eq!(a.gc.uc_view(), vec![Some(idx(2)), None, None, None]);
        assert_eq!(a.gc.retained(), vec![idx(2)]);
    }

    #[test]
    fn a_checkpoint_frees_a_predecessor_only_the_owner_pinned() {
        let mut a = Proc::new(0, 3);
        a.receive(&news(3, &[1], 1)); // s^0 pinned by p0 and p1
        a.checkpoint(); // s^1 pinned by p0 alone
        assert_eq!(a.gc.retained(), vec![idx(0), idx(1)]);
        let gone = a.checkpoint();
        assert_eq!(gone, vec![idx(1)], "s^0 stays, pinned by p1");
        assert_eq!(a.gc.uc_view(), vec![Some(idx(2)), Some(idx(0)), None]);
    }

    #[test]
    fn a_wide_release_frees_by_the_highest_member_across_words() {
        // s^0 pinned by p1 and p129 (words 0 and 2), s^1 by p65 (word 1).
        let n = 130;
        let mut a = Proc::new(0, n);
        a.receive(&news(n, &[1, 129], 1));
        a.checkpoint();
        a.receive(&news(n, &[65], 1));
        a.checkpoint();
        let gone = a.receive(&news(n, &[1, 65, 129], 2));
        assert_eq!(gone, vec![idx(1), idx(0)], "freed at j = 65, then j = 129");
        assert_eq!(a.gc.retained(), vec![idx(2)]);
    }

    #[test]
    fn a_new_checkpoint_is_pinned_by_its_owner_alone() {
        let a = Proc::new(1, 3);
        assert_eq!(a.gc.uc_view(), vec![None, Some(idx(0)), None]);
        assert_eq!(a.gc.pinned(), 1);
    }

    #[test]
    fn the_release_that_empties_a_bitmap_eliminates_its_checkpoint() {
        let mut a = Proc::new(0, 2);
        a.receive(&news(2, &[1], 1));
        a.checkpoint(); // s^0 pinned by p1 alone
        let gone = a.receive(&news(2, &[1], 2));
        assert_eq!(gone, vec![idx(0)]);
        assert!(!a.store.contains(idx(0)));
        assert_eq!(a.gc.retained(), vec![idx(1)]);
    }

    #[test]
    fn a_checkpoint_pinned_twice_survives_one_release() {
        let mut a = Proc::new(0, 3);
        a.receive(&news(3, &[1, 2], 1));
        a.checkpoint(); // s^0 pinned by p1 and p2
        assert!(a.receive(&news(3, &[1], 2)).is_empty());
        assert_eq!(
            a.gc.uc_view(),
            vec![Some(idx(1)), Some(idx(1)), Some(idx(0))]
        );
        assert_eq!(a.receive(&news(3, &[2], 2)), vec![idx(0)]);
    }

    #[test]
    fn retained_lists_every_pinned_checkpoint_oldest_first() {
        let a = three_retained();
        assert_eq!(a.gc.retained(), vec![idx(0), idx(1), idx(2)]);
        assert_eq!(a.gc.pinned(), 3);
        assert_eq!(a.gc.retained(), a.store.indices().collect::<Vec<_>>());
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
