//! The checkpointing middleware: protocol + garbage collector + stable
//! storage, merged as in the paper's Algorithm 4.
//!
//! # What an event costs
//!
//! Algorithm 2 piggybacks `DV` on every send, compares and merges it on
//! every receive and stores it with every checkpoint — O(n) each. The
//! handlers here pay that only for work not yet done:
//!
//! * **Send** interns one snapshot of `dv` per interval
//!   ([`SharedDv`]); every further send of the burst shares it.
//! * **Receive** (`receive_parts_into`) remembers the
//!   [stamp](SharedDv::stamp) of the last snapshot it merged in full. A
//!   piggyback with that stamp has the same content, and `dv` has only
//!   grown since, so the news test and the merge are skipped: no forced
//!   checkpoint on account of news, an empty update set. The liveness
//!   check, the forced-checkpoint rules that do not read the vector (CBR,
//!   CASBR, MRS, BCS) and the BCS index run as ever. A stamp and not a
//!   handle: keeping the snapshot alive would hold its memory and stop
//!   the sender from reusing it.
//! * **Merge** runs one of two kernels, chosen by the vector's length:
//!   up to 64 entries (one [`UpdateSet`] word) a branch-free compare mask
//!   whose set bits alone are copied, beyond it a guarded store
//!   ([`DependencyVector::merge_from_into`]).
//! * **Rollback** is the one event after which `dv` may be *below* what
//!   was merged, so it — and nothing else — forgets the remembered stamp.
//!   The restored vector is read into `dv` in place — the nearest full
//!   vector copied, the stored changes after it applied — and Algorithm
//!   3's rebuild writes every pin bitmap with word operations, through
//!   buffers the collector keeps: a session allocates no more for a fuller
//!   store.
//! * **Checkpoint** (`take_checkpoint_into`) stores `dv` in full, unless
//!   the change log knows which of its entries changed since the last
//!   checkpoint: then only those.
//!
//! ## The change log
//!
//! In a wide system (`n > LOG_CAP`) the work not yet done is a few entries
//! of a vector of thousands, and finding them by scanning is the cost. So
//! from its first interned snapshot on, such a middleware keeps a *change
//! log* of the entries of `dv` it mutated, twice over: their indices, in
//! order, in a ring of `LOG_CAP`; and those changed since the last
//! checkpoint, as an [`UpdateSet`] no number of changes overflows. There
//! are two mutators — a merge appends the entries of the [`UpdateSet`] it
//! returned and ORs them into the set word by word; a checkpoint appends
//! the owner's entry and restarts the set as that entry alone — and three
//! readers:
//!
//! * **Send.** A snapshot interned under the log names its predecessor —
//!   the snapshot this process interned before it — and carries the
//!   entries logged in between ([`SharedDv::succeeding`]), unless the log
//!   no longer holds them all. **Receive.** If the remembered stamp *is*
//!   that predecessor, everything of the new snapshot outside those
//!   entries was merged already, and the news test and the merge run over
//!   them alone — a full merge in the memo's sense, so the remembered
//!   stamp advances. Any other receive — another sender in between, a
//!   snapshot missed, a log that wrapped, a rollback on either side, a
//!   bare vector — is the full scan.
//! * **Checkpoint** hands the set to the store
//!   ([`CheckpointStore::insert_changed`]), which keeps only those entries
//!   if the last checkpoint stored under the log is still its newest, and
//!   `dv` in full otherwise. So a store of changes takes a log, and then
//!   holds however much changed: every checkpoint after the first one
//!   under the log keeps only its changes. Without a log every stored
//!   vector is full.
//! * **Copy.** A snapshot no message carries when it is invalidated is
//!   kept, with the log position at which it equalled `dv`. The next
//!   intern takes the newest of the (at most `KEPT`) kept buffers and
//!   writes the entries logged since its tag into it, instead of
//!   allocating and copying n words; a tag the log no longer reaches is a
//!   plain in-place copy.
//! * **Rollback** replaces `dv` wholesale: still the one event that
//!   forgets — the remembered stamp, the predecessor, and every position
//!   a tag could name. The set it restarts instead: `dv` is the restored
//!   checkpoint's vector but at the owner's entry, which opens the next
//!   incarnation, so the set is that entry, against that checkpoint.
//!
//! One condition governs the writers and every reader: `n > LOG_CAP` says
//! whether a middleware will ever log (or look for a link), and
//! `changes.is_some()` — true from its first intern on — whether it does
//! yet. A middleware that never interns — a live node's: its step core
//! sends with [`send_with`](Middleware::send_with), encoding the frame
//! straight from `dv`, and mints no snapshot for a frame — or whose
//! vectors are short never has a log, and pays one branch per mutation. In debug builds every
//! patched copy is compared with `dv` and every merged piggyback is
//! checked to be dominated by it.

use serde::{Deserialize, Serialize};

use rdt_base::{
    CheckpointIndex, DependencyVector, Error, Incarnation, Message, MessageId, MessageMeta,
    Payload, ProcessId, Result, SharedDv, UpdateSet,
};
use rdt_core::{CheckpointStore, ControlInfo, GarbageCollector, GcKind, LastIntervals};
use rdt_env::{Storage, Volatile};

use crate::protocol::{Piggyback, ProtocolKind, ProtocolState};

/// What happened while processing one receive.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceiveReport {
    /// A forced checkpoint was stored before the message was processed.
    pub forced: Option<CheckpointIndex>,
    /// Checkpoints eliminated by garbage collection during this receive
    /// (including any triggered by the forced checkpoint).
    pub eliminated: Vec<CheckpointIndex>,
    /// Processes whose entries gained new causal information, as the
    /// allocation-free bitset the merge produced.
    pub updated: UpdateSet,
}

impl ReceiveReport {
    /// Resets the report for reuse, keeping buffer capacity.
    fn clear_for_reuse(&mut self) {
        self.forced = None;
        self.eliminated.clear();
        self.updated.clear();
    }
}

/// What happened while taking a checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointReport {
    /// The index stored.
    pub stored: CheckpointIndex,
    /// Checkpoints eliminated right after storing.
    pub eliminated: Vec<CheckpointIndex>,
}

/// What happened during a rollback.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RollbackReport {
    /// The checkpoint restored.
    pub restored: CheckpointIndex,
    /// Checkpoints eliminated (rolled-back ones plus GC).
    pub eliminated: Vec<CheckpointIndex>,
}

/// Entries the change log holds, and the system size above which a
/// middleware keeps one: a log as long as the vector saves nothing over
/// reading the vector.
const LOG_CAP: usize = 64;

/// Vector buffers kept per process for the next copy of `dv`.
const KEPT: usize = 2;

/// Which entries of `dv` changed, in order, since a position, and which
/// since the last checkpoint — and what that lets the middleware skip.
/// See "What an event costs" in the [module docs](self).
///
/// A *position* counts the entries ever appended; entry `k` sits at
/// `ring[k % LOG_CAP]`, so the log answers for the last `LOG_CAP` of them
/// and, after a rollback, only for those past `floor`.
#[derive(Debug)]
struct ChangeLog {
    ring: [u32; LOG_CAP],
    pos: u64,
    /// Positions below this one are forgotten: `dv` was replaced there.
    floor: u64,
    /// Stamp of the last snapshot interned, and the position it was
    /// interned at; `None` once the log has forgotten that far back.
    interned: Option<(u64, u64)>,
    /// The checkpoint `dv` was last stored with under the log — or that a
    /// rollback restored — and the entries of `dv` changed since: every
    /// merge's update set ORed in, not bounded by the ring.
    since_checkpoint: Option<(CheckpointIndex, UpdateSet)>,
    /// Buffers that left use, each with the position at which it equalled
    /// `dv`.
    kept: [Option<(DependencyVector, u64)>; KEPT],
    /// Copies of `dv` made by patching a kept buffer.
    #[cfg(test)]
    patched_copies: u64,
}

impl ChangeLog {
    fn new() -> Self {
        Self {
            ring: [0; LOG_CAP],
            pos: 0,
            floor: 0,
            interned: None,
            since_checkpoint: None,
            kept: [const { None }; KEPT],
            #[cfg(test)]
            patched_copies: 0,
        }
    }

    fn push(&mut self, entry: ProcessId) {
        self.ring[self.pos as usize % LOG_CAP] = entry.index() as u32;
        self.pos += 1;
    }

    /// Appends the entries a merge updated.
    fn push_all(&mut self, updated: &UpdateSet) {
        updated.iter().for_each(|j| self.push(j));
        if let Some((_, changed)) = &mut self.since_checkpoint {
            updated
                .words()
                .for_each(|(word, bits)| changed.or_word(word, bits));
        }
    }

    /// Starts the entries changed since checkpoint `index` afresh: `dv`
    /// equals its stored vector but at `owner`'s entry, where a checkpoint
    /// opened the next interval, a rollback the next incarnation.
    fn restart_since(&mut self, index: CheckpointIndex, owner: ProcessId) {
        let (at, changed) = self
            .since_checkpoint
            .get_or_insert_with(|| (index, UpdateSet::new()));
        *at = index;
        changed.clear();
        changed.insert(owner);
    }

    /// The entries appended after position `from`, oldest first, as the
    /// ring's two runs; `None` if the log no longer reaches back that far.
    /// A position a [`forget`](Self::forget) passed is out of reach.
    fn since(&self, from: u64) -> Option<[&[u32]; 2]> {
        let count = (self.pos - from) as usize;
        if from < self.floor || count > LOG_CAP {
            return None;
        }
        let start = from as usize % LOG_CAP;
        let wrapped = (start + count).saturating_sub(LOG_CAP);
        Some([
            &self.ring[start..start + count - wrapped],
            &self.ring[..wrapped],
        ])
    }

    /// Forgets everything: `dv` has been replaced. The new value gets a
    /// position of its own — a buffer tagged with the current one equals
    /// the *old* value — and no slice reaches back across it.
    fn forget(&mut self) {
        self.pos += 1;
        self.floor = self.pos;
        self.interned = None;
    }

    /// Keeps `buffer`, which equalled `dv` at position `tag`, unless the
    /// slots are full of newer ones.
    fn keep(&mut self, buffer: DependencyVector, tag: u64) {
        let oldest = self
            .kept
            .iter_mut()
            .min_by_key(|slot| slot.as_ref().map(|k| k.1));
        let oldest = oldest.expect("KEPT > 0");
        if oldest.as_ref().is_none_or(|k| k.1 < tag) {
            *oldest = Some((buffer, tag));
        }
    }

    /// Takes leave of the interned snapshot, `dv` having changed: if no
    /// message carries it any more it is a buffer worth keeping — it
    /// equalled `dv` from its interning to that change.
    fn retire(&mut self, snapshot: SharedDv) {
        if let (Ok(buffer), Some((_, at))) = (snapshot.try_unwrap(), self.interned) {
            self.keep(buffer, at);
        }
    }

    /// A vector equal to `dv`: the kept buffer closest to it, brought up
    /// to date by the entries logged since its tag when the log reaches
    /// back that far and in full otherwise; with no buffer kept, a clone.
    fn copy_of(&mut self, dv: &DependencyVector) -> DependencyVector {
        let newest = self
            .kept
            .iter_mut()
            .max_by_key(|slot| slot.as_ref().map(|k| k.1));
        let Some((mut buffer, tag)) = newest.and_then(Option::take) else {
            return dv.clone();
        };
        match self.since(tag) {
            Some(runs) => {
                runs.iter().for_each(|at| buffer.patch_from(dv, at));
                #[cfg(test)]
                {
                    self.patched_copies += 1;
                }
            }
            None => buffer.copy_from(dv),
        }
        debug_assert_eq!(&buffer, dv, "a change of dv went unlogged");
        buffer
    }
}

/// The per-process checkpointing middleware: owns the dependency vector,
/// the [`CheckpointStore`], a [`ProtocolState`] deciding forced checkpoints
/// and a [`GarbageCollector`] collecting obsolete checkpoints.
///
/// This is the paper's merged implementation (Algorithm 4) generalized over
/// protocols and collectors. The ordering constraints of Section 4.5 are
/// enforced structurally:
///
/// * a forced checkpoint triggered by a receive is **stored before** the
///   garbage collection for that receive runs;
/// * a checkpoint is inserted into stable storage **before** the previous
///   one is released (the transient `n + 1` occupancy is observable through
///   [`CheckpointStore::peak`]).
///
/// # Threading
///
/// A middleware instance is deliberately **`!Send`**: its interned
/// piggyback snapshot is a thread-local [`SharedDv`] (non-atomic refcount),
/// so the per-send cost is one plain counter increment — never an atomic
/// RMW. Multi-threaded and multi-process runtimes keep each process's
/// middleware on its own thread, and a vector that crosses a thread or a
/// process boundary crosses it as plain data: the sharded simulator ships
/// a copy of the piggyback's vector and index to the peer shard, a live
/// node encodes them into a frame ([`send_with`](Self::send_with)). Either
/// way the receiver merges it through
/// [`receive_vector_into`](Self::receive_vector_into), the one entry point
/// for a vector without a stamp.
///
/// # Durability
///
/// The middleware is generic over a [`Storage`] sink (default
/// [`Volatile`], a zero-sized no-op whose error type is uninhabited — the
/// simulator pays nothing). Every mutation of the stable store is
/// followed by a `commit` offer to the sink, and
/// [`rollback`](Self::rollback) write-aheads the new incarnation through
/// [`Storage::wal_incarnation`] *before* any in-memory state changes, so
/// a crash between the WAL and the commit recovers to a total incarnation
/// order. Commit failures are buffered (the in-memory protocol state
/// stays authoritative) and surfaced through
/// [`take_sink_error`](Self::take_sink_error); a WAL failure aborts the
/// rollback with [`Error::Storage`] before anything mutates.
///
/// # Example
///
/// ```
/// use rdt_base::{Payload, ProcessId};
/// use rdt_core::GcKind;
/// use rdt_protocols::{Middleware, ProtocolKind};
///
/// let p0 = ProcessId::new(0);
/// let p1 = ProcessId::new(1);
/// let mut a = Middleware::new(p0, 2, ProtocolKind::Fdas, GcKind::RdtLgc);
/// let mut b = Middleware::new(p1, 2, ProtocolKind::Fdas, GcKind::RdtLgc);
///
/// let m = a.send(p1, Payload::label("hello"));
/// let report = b.receive(&m).expect("delivery");
/// assert!(report.forced.is_none()); // no send yet in b's interval
/// ```
#[derive(Debug)]
pub struct Middleware<S: Storage = Volatile> {
    owner: ProcessId,
    n: usize,
    dv: DependencyVector,
    store: CheckpointStore,
    protocol: ProtocolState,
    gc: Box<dyn GarbageCollector>,
    gc_kind: GcKind,
    seq: u64,
    basic_count: u64,
    crashed: bool,
    state_size: usize,
    /// The incarnation of the current execution attempt: `0` initially,
    /// bumped on every [`rollback`](Self::rollback). Mirrored in the
    /// dependency vector's own entry so it piggybacks on every message.
    incarnation: Incarnation,
    /// Interned snapshot of `dv` shared with outgoing piggybacks and
    /// messages; invalidated whenever `dv` mutates (copy-on-write: a burst
    /// of sends within one interval shares a single allocation), so while
    /// it is `Some` it equals `dv`. The refcount is non-atomic — this field
    /// is what makes `Middleware` `!Send`.
    dv_snapshot: Option<SharedDv>,
    /// Stamp of the last piggybacked snapshot merged in full; see
    /// [`merged_stamp`](Self::merged_stamp).
    merged: Option<u64>,
    /// Receives that found their piggyback's stamp in `merged`.
    #[cfg(test)]
    memo_hits: u64,
    /// The change log, from the first snapshot interned in a system wide
    /// enough (`n > LOG_CAP`) on; `None` costs every mutation one branch.
    changes: Option<Box<ChangeLog>>,
    /// Receives that merged over their snapshot's changed entries only.
    #[cfg(test)]
    restricted_merges: u64,
    /// The durability sink state changes are offered to. [`Volatile`] by
    /// default: calls vanish at compile time.
    sink: S,
    /// First unreported commit failure (rendered); see
    /// [`take_sink_error`](Self::take_sink_error).
    sink_err: Option<String>,
}

/// Compile-time pin of the threading contract: the middleware must stay
/// `!Send` (its interned [`SharedDv`] snapshot has a non-atomic refcount,
/// and the stamp it remembers is unique only on its own thread). If a
/// refactor ever made `Middleware` `Send`, the `Invalid` impl below would
/// apply too and this item lookup would become ambiguous — a compile
/// error, not a latent data race.
const _: fn() = || {
    trait AmbiguousIfSend<A> {
        fn guard() {}
    }
    impl<T: ?Sized> AmbiguousIfSend<()> for T {}
    #[allow(dead_code)]
    struct Invalid;
    impl<T: ?Sized + Send> AmbiguousIfSend<Invalid> for T {}
    let _ = <Middleware as AmbiguousIfSend<_>>::guard;
};

impl Middleware {
    /// Creates the middleware for `owner` in an `n`-process system and
    /// stores the mandatory initial checkpoint `s_i^0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `owner` is out of range.
    pub fn new(owner: ProcessId, n: usize, protocol: ProtocolKind, gc: GcKind) -> Self {
        Self::with_storage(owner, n, protocol, gc, Volatile)
    }

    /// Reconstructs the middleware for a process **restarting after a
    /// crash** from its surviving stable storage (e.g. a
    /// `rdt_storage::DurableStore::rebuild()`).
    ///
    /// The process comes back *crashed*: its volatile state is gone and
    /// operations fail until a recovery session restores a checkpoint
    /// through [`rollback`](Self::rollback), which rebuilds the dependency
    /// vector (Algorithm 3, lines 5–6) and the collector's pins (line 7).
    /// Until then the dependency vector provisionally reflects the last
    /// stable checkpoint — exactly the knowledge a recovery manager reads
    /// when computing the line.
    ///
    /// Volatile counters (basic/forced checkpoint counts, send sequence)
    /// restart from zero; the paper's algorithms never read them across a
    /// failure.
    ///
    /// # Panics
    ///
    /// Panics if the store belongs to a different process or holds no
    /// checkpoint (stable storage always retains at least the most recent
    /// one — no collector may empty it).
    pub fn from_store(
        owner: ProcessId,
        n: usize,
        protocol: ProtocolKind,
        gc: GcKind,
        store: CheckpointStore,
    ) -> Self {
        Self::from_store_with(owner, n, protocol, gc, store, Volatile)
    }
}

impl<S: Storage> Middleware<S> {
    /// [`new`](Middleware::new) with an explicit durability sink: the
    /// initial checkpoint `s_i^0` is committed to `sink` before this
    /// returns.
    pub fn with_storage(
        owner: ProcessId,
        n: usize,
        protocol: ProtocolKind,
        gc: GcKind,
        sink: S,
    ) -> Self {
        assert!(owner.index() < n, "owner out of range");
        let mut mw = Self {
            owner,
            n,
            dv: DependencyVector::new(n),
            store: CheckpointStore::new(owner),
            protocol: ProtocolState::new(protocol),
            gc: gc.build(owner, n),
            gc_kind: gc,
            seq: 0,
            basic_count: 0,
            crashed: false,
            state_size: 0,
            incarnation: Incarnation::ZERO,
            dv_snapshot: None,
            merged: None,
            #[cfg(test)]
            memo_hits: 0,
            changes: None,
            #[cfg(test)]
            restricted_merges: 0,
            sink,
            sink_err: None,
        };
        mw.take_checkpoint(false);
        mw
    }

    /// [`from_store`](Middleware::from_store) with an explicit durability
    /// sink (typically the one the store itself was rebuilt from).
    pub fn from_store_with(
        owner: ProcessId,
        n: usize,
        protocol: ProtocolKind,
        gc: GcKind,
        store: CheckpointStore,
        sink: S,
    ) -> Self {
        assert!(owner.index() < n, "owner out of range");
        assert_eq!(store.owner(), owner, "store owned by a different process");
        let last = store
            .last()
            .expect("stable storage retains at least one checkpoint");
        let mut dv = DependencyVector::new(n);
        store.dv(last, &mut dv).expect("last is stored");
        // Resume at the highest incarnation the previous executions ever
        // opened: the store's incarnation log, not just the last stored
        // vector — rollbacks bump the incarnation without storing a
        // checkpoint, and reusing one of those numbers would re-introduce
        // the (incarnation, interval) aliasing recovery depends on ruling
        // out.
        let incarnation = store.incarnation_floor().max(dv.incarnation_of(owner));
        dv.begin_next_interval(owner);
        Self {
            owner,
            n,
            dv,
            store,
            protocol: ProtocolState::new(protocol),
            gc: gc.build(owner, n),
            gc_kind: gc,
            seq: 0,
            basic_count: 0,
            crashed: true,
            state_size: 0,
            incarnation,
            dv_snapshot: None,
            merged: None,
            #[cfg(test)]
            memo_hits: 0,
            changes: None,
            #[cfg(test)]
            restricted_merges: 0,
            sink,
            sink_err: None,
        }
    }

    /// The owning process.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The protocol in force.
    pub fn protocol_kind(&self) -> ProtocolKind {
        self.protocol.kind()
    }

    /// The collector in force.
    pub fn gc_kind(&self) -> GcKind {
        self.gc_kind
    }

    /// The current dependency vector (the volatile state's view).
    pub fn dv(&self) -> &DependencyVector {
        &self.dv
    }

    /// The stable store (for metrics and recovery).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Index of the last stable checkpoint.
    pub fn last_stable(&self) -> CheckpointIndex {
        self.dv
            .entry(self.owner)
            .last_known_checkpoint()
            .expect("s^0 is stored at construction")
    }

    /// Forced checkpoints taken so far.
    pub fn forced_count(&self) -> u64 {
        self.protocol.forced_count()
    }

    /// Basic checkpoints taken so far (including `s^0`).
    pub fn basic_count(&self) -> u64 {
        self.basic_count
    }

    /// Whether the process is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The incarnation of the current execution attempt (`0` until the
    /// first rollback; bumped by every rollback, crash-induced or
    /// dependent).
    pub fn incarnation(&self) -> Incarnation {
        self.incarnation
    }

    /// The [stamp](SharedDv::stamp) of the last piggybacked snapshot this
    /// process merged in full, if none of its knowledge has been rolled
    /// back since: the vector is entry-wise at least that snapshot, so
    /// receiving it again teaches nothing. `None` after construction and
    /// after every [`rollback`](Self::rollback).
    pub fn merged_stamp(&self) -> Option<u64> {
        self.merged
    }

    /// Consumes the middleware, keeping only its dependency vector.
    pub fn into_dv(self) -> DependencyVector {
        self.dv
    }

    /// Sets the size (in bytes) recorded for subsequently stored
    /// checkpoints — models the application's state-snapshot footprint for
    /// storage-space experiments.
    pub fn set_state_size(&mut self, bytes: usize) {
        self.state_size = bytes;
    }

    /// The currently configured state-snapshot size.
    pub fn state_size(&self) -> usize {
        self.state_size
    }

    /// The durability sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The durability sink, mutably (e.g. to fsync or inspect it).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Takes the first commit failure the sink reported since the last
    /// call, if any. Commit failures do not poison the in-memory state —
    /// the protocol remains correct, only durability is degraded — so
    /// they are buffered rather than returned from the hot-path
    /// operations; runtimes that care poll this after each batch.
    pub fn take_sink_error(&mut self) -> Option<String> {
        self.sink_err.take()
    }

    /// Offers the current stable store to the sink, buffering the first
    /// failure for [`take_sink_error`](Self::take_sink_error).
    fn commit_sink(&mut self) {
        if let Err(e) = self.sink.commit(&self.store) {
            self.sink_err.get_or_insert_with(|| e.to_string());
        }
    }

    /// Stores a checkpoint: insert first, then run GC, then advance the
    /// interval ("On taking checkpoint", Algorithms 2 and 4).
    fn take_checkpoint(&mut self, forced: bool) -> CheckpointReport {
        let mut eliminated = Vec::new();
        let stored = self.take_checkpoint_into(forced, &mut eliminated);
        CheckpointReport { stored, eliminated }
    }

    /// [`take_checkpoint`](Self::take_checkpoint) appending eliminations to
    /// a caller-owned scratch buffer; returns the stored index. The core
    /// every checkpoint path funnels through.
    ///
    /// Under the change log the store keeps only the entries changed
    /// since the last checkpoint stored under it (the owner's own entry,
    /// advanced when that checkpoint was stored, is among them); the store
    /// itself checks that the last checkpoint is still its newest.
    /// Otherwise `dv` is copied in full; for inline vectors (n <= 16) a
    /// pure memcpy into the store's entry.
    fn take_checkpoint_into(
        &mut self,
        forced: bool,
        eliminated: &mut Vec<CheckpointIndex>,
    ) -> CheckpointIndex {
        let index = self.dv.entry(self.owner).as_checkpoint();
        let since = self
            .changes
            .as_deref()
            .and_then(|log| log.since_checkpoint.as_ref());
        match since {
            Some((predecessor, changed)) => {
                self.store
                    .insert_changed(index, &self.dv, *predecessor, changed, self.state_size);
            }
            None => self
                .store
                .insert_with_size(index, self.dv.clone(), self.state_size),
        }
        self.gc
            .after_checkpoint_into(&mut self.store, index, &self.dv, eliminated);
        self.protocol.note_checkpoint(forced);
        if !forced {
            self.basic_count += 1;
        }
        self.dv.begin_next_interval(self.owner);
        if let Some(log) = &mut self.changes {
            log.push(self.owner);
            log.restart_since(index, self.owner);
        }
        self.invalidate_snapshots();
        self.commit_sink();
        index
    }

    /// Takes a basic (application-initiated) checkpoint.
    ///
    /// # Errors
    ///
    /// [`Error::ProcessCrashed`] while crashed.
    pub fn basic_checkpoint(&mut self) -> Result<CheckpointReport> {
        self.ensure_alive()?;
        Ok(self.take_checkpoint(false))
    }

    /// [`basic_checkpoint`](Self::basic_checkpoint) writing into a reused
    /// report (cleared first, capacity kept): the zero-allocation variant
    /// for event loops.
    ///
    /// # Errors
    ///
    /// [`Error::ProcessCrashed`] while crashed.
    pub fn basic_checkpoint_into(&mut self, report: &mut CheckpointReport) -> Result<()> {
        self.ensure_alive()?;
        report.eliminated.clear();
        report.stored = self.take_checkpoint_into(false, &mut report.eliminated);
        Ok(())
    }

    /// Sends a message: piggybacks the dependency vector (and the BCS index)
    /// and marks the protocol's `sent` flag. Under the CAS and CASBR models
    /// the post-send forced checkpoint is stored before this returns; use
    /// [`send_reported`](Self::send_reported) to observe it.
    ///
    /// The caller (network / simulator) is responsible for transporting the
    /// returned [`Message`].
    pub fn send(&mut self, to: ProcessId, payload: Payload) -> Message {
        self.send_reported(to, payload).0
    }

    /// [`send`](Self::send), also returning the report of the post-send
    /// forced checkpoint when the protocol (CAS, CASBR) demands one.
    ///
    /// The message piggybacks the vector as of the send event; the forced
    /// checkpoint opens the *next* interval, so the send is the last
    /// communication event of its interval, as the CAS model requires.
    pub fn send_reported(
        &mut self,
        to: ProcessId,
        payload: Payload,
    ) -> (Message, Option<CheckpointReport>) {
        let id = MessageId::new(self.owner, self.begin_send());
        let msg = Message::new(MessageMeta::new(id, to, self.shared_dv()), payload);
        let forced = self.post_send_force();
        (msg, forced)
    }

    /// Send-side protocol duties shared by every send flavour: liveness
    /// check, the protocol's `sent` flag, and the per-sender sequence
    /// assignment. Returns the sequence number of this send.
    fn begin_send(&mut self) -> u64 {
        assert!(!self.crashed, "crashed processes do not send");
        self.protocol.note_send();
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// The post-send forced checkpoint of the CAS/CASBR models, shared by
    /// every send flavour. Callers must snapshot the piggybacked vector
    /// *before* this runs — the forced checkpoint opens the next interval.
    fn post_send_force(&mut self) -> Option<CheckpointReport> {
        self.protocol
            .must_force_after_send()
            .then(|| self.take_checkpoint(true))
    }

    /// The interned snapshot of the current dependency vector: cloned
    /// lazily on the first request after a local mutation, shared (one
    /// non-atomic counter increment) by every subsequent send in the same
    /// interval.
    fn shared_dv(&mut self) -> SharedDv {
        match &self.dv_snapshot {
            Some(snapshot) => snapshot.clone(),
            None => {
                let snapshot = match self.n > LOG_CAP {
                    true => self.intern_logged(),
                    false => SharedDv::new(self.dv.clone()),
                };
                self.dv_snapshot = Some(snapshot.clone());
                snapshot
            }
        }
    }

    /// Interns a copy of `dv` in a system wide enough for a change log,
    /// starting the log if this is the first. The snapshot names the one
    /// interned before it and the entries logged in between, if the log
    /// still holds them all.
    fn intern_logged(&mut self) -> SharedDv {
        let log = self
            .changes
            .get_or_insert_with(|| Box::new(ChangeLog::new()));
        let copy = log.copy_of(&self.dv);
        let link = log
            .interned
            .and_then(|(pred, at)| Some((pred, log.since(at)?.concat())));
        let snapshot = match link {
            Some((pred, changed)) => SharedDv::succeeding(copy, pred, changed),
            None => SharedDv::new(copy),
        };
        log.interned = Some((snapshot.stamp(), log.pos));
        snapshot
    }

    /// Drops the interned snapshot after a local mutation of `dv`; the
    /// next send re-interns lazily (copy-on-write). Under the change log
    /// it may be kept as a buffer.
    fn invalidate_snapshots(&mut self) {
        match (&mut self.changes, self.dv_snapshot.take()) {
            (Some(log), Some(snapshot)) => log.retire(snapshot),
            _dropped => {}
        }
    }

    /// The full piggyback for the last send (dependency vector plus BCS
    /// index). [`Message`] carries only the vector; protocols needing the
    /// index transport this alongside. The vector is shared, not copied.
    pub fn piggyback(&mut self) -> Piggyback {
        Piggyback::new(self.shared_dv(), self.protocol.index())
    }

    /// A send whose piggyback the caller serialises on the spot: performs
    /// the send-side protocol duties ([`send`](Self::send)'s `sent` flag,
    /// sequence bump, and the CAS/CASBR post-send forced checkpoint) and
    /// hands `encode` the message's id, and the vector and the BCS index as
    /// of the send event — borrowed, so a frame that never leaves the
    /// thread as a snapshot mints no [`SharedDv`]. Returns what `encode`
    /// made and the report of the forced checkpoint, if any.
    ///
    /// # Panics
    ///
    /// Panics while crashed, like [`send`](Self::send).
    pub fn send_with<R>(
        &mut self,
        encode: impl FnOnce(MessageId, &DependencyVector, u64) -> R,
    ) -> (R, Option<CheckpointReport>) {
        let id = MessageId::new(self.owner, self.begin_send());
        let encoded = encode(id, &self.dv, self.protocol.index());
        let forced = self.post_send_force();
        (encoded, forced)
    }

    /// Processes a received message (Algorithm 4's receive handler):
    /// 1. decide and store the forced checkpoint, if the protocol demands it;
    /// 2. merge the piggybacked vector;
    /// 3. run the garbage collection for the new causal information.
    ///
    /// # Errors
    ///
    /// [`Error::ProcessCrashed`] while crashed (the message is lost;
    /// simulators may choose to re-deliver).
    pub fn receive(&mut self, msg: &Message) -> Result<ReceiveReport> {
        self.receive_piggyback(&Piggyback::new(msg.meta.dv.clone(), 0))
    }

    /// [`receive`](Self::receive) with an explicit [`Piggyback`] (used when
    /// the BCS index matters).
    ///
    /// # Errors
    ///
    /// [`Error::ProcessCrashed`] while crashed.
    pub fn receive_piggyback(&mut self, m: &Piggyback) -> Result<ReceiveReport> {
        let mut report = ReceiveReport::default();
        self.receive_piggyback_into(m, &mut report)?;
        Ok(report)
    }

    /// [`receive_piggyback`](Self::receive_piggyback) writing into a reused
    /// report (cleared first, capacity kept): the zero-allocation variant
    /// for event loops — merge reporting is a bitset, eliminations land in
    /// the report's recycled buffer, and the piggyback is only read.
    ///
    /// # Errors
    ///
    /// [`Error::ProcessCrashed`] while crashed.
    pub fn receive_piggyback_into(
        &mut self,
        m: &Piggyback,
        report: &mut ReceiveReport,
    ) -> Result<()> {
        let stamp = Some(m.dv.stamp());
        // Asked only where it can matter, and not of the snapshot merged
        // last: a memo hit never touches the snapshot's memory.
        let changed = match self.merged {
            Some(merged) if self.n > LOG_CAP && stamp != self.merged => m.dv.changes_since(merged),
            _ => None,
        };
        // Two copies of the inlined core, each with its scan folded in.
        match changed {
            Some(at) => self.receive_parts_into(&m.dv, stamp, Some(at), m.index, report),
            None => self.receive_parts_into(&m.dv, stamp, None, m.index, report),
        }
    }

    /// [`receive_piggyback_into`](Self::receive_piggyback_into) for a
    /// vector that is not a snapshot — every vector that crossed a thread
    /// or a process boundary: one a live runtime decoded from a frame, the
    /// copy a sharded simulation shipped from another shard. Having no
    /// stamp it neither consults nor replaces the remembered one: merging
    /// more only grows `dv`, so what was merged before stays merged.
    ///
    /// # Errors
    ///
    /// [`Error::ProcessCrashed`] while crashed.
    pub fn receive_vector_into(
        &mut self,
        their_dv: &DependencyVector,
        their_index: u64,
        report: &mut ReceiveReport,
    ) -> Result<()> {
        self.receive_parts_into(their_dv, None, None, their_index, report)
    }

    /// The receive handler over the piggyback's components — the shared
    /// core behind both entry points, inlined into each so the snapshot
    /// path sees its stamp as the plain `u64` it is.
    ///
    /// A piggyback whose stamp is [`merged_stamp`](Self::merged_stamp) is
    /// the snapshot merged last (same stamp, same content), and between
    /// then and now `dv` has only grown: merges and checkpoints raise
    /// entries, and the one thing that lowers them, `rollback`, clears the
    /// memo. So both O(n) scans are known to come back empty and are
    /// skipped — the news test a protocol may force on answers *false*, the
    /// update set stays empty. Everything that does not depend on the
    /// vector's content runs as for any other receive. A vector without a
    /// stamp is never known and leaves the memo alone.
    ///
    /// `their_changes`, when given, are the entries outside which the
    /// piggyback equals the snapshot merged last
    /// ([`SharedDv::changes_since`] of the remembered stamp): by the same
    /// argument both scans come back empty *there*, and run over these
    /// entries only.
    #[inline(always)]
    fn receive_parts_into(
        &mut self,
        their_dv: &DependencyVector,
        their_stamp: Option<u64>,
        their_changes: Option<&[u32]>,
        their_index: u64,
        report: &mut ReceiveReport,
    ) -> Result<()> {
        self.ensure_alive()?;
        report.clear_for_reuse();
        let known = their_stamp.is_some() && self.merged == their_stamp;
        #[cfg(test)]
        {
            self.memo_hits += u64::from(known);
            self.restricted_merges += u64::from(!known && their_changes.is_some());
        }
        if self
            .protocol
            .must_force_with(their_index, || match their_changes {
                _ if known => false,
                Some(at) => self.dv.would_learn_at(their_dv, at),
                None => self.dv.would_learn_from(their_dv),
            })
        {
            report.forced = Some(self.take_checkpoint_into(true, &mut report.eliminated));
        }
        if !known {
            match their_changes {
                Some(at) => self.dv.merge_at_into(their_dv, at, &mut report.updated),
                None => self.dv.merge_from_into(their_dv, &mut report.updated),
            }
            debug_assert!(their_dv.dominated_by(&self.dv), "news outside the slice");
            self.merged = their_stamp.or(self.merged);
        }
        if !report.updated.is_empty() {
            if let Some(log) = &mut self.changes {
                log.push_all(&report.updated);
            }
            self.invalidate_snapshots();
            let before = report.eliminated.len();
            self.gc.after_receive_into(
                &mut self.store,
                &report.updated,
                &self.dv,
                &mut report.eliminated,
            );
            if report.eliminated.len() > before {
                self.commit_sink();
            }
        }
        self.protocol.note_receive_index(their_index);
        Ok(())
    }

    /// Crashes the process: volatile state is lost, stable storage persists.
    pub fn crash(&mut self) {
        self.crashed = true;
    }

    /// Recovery: restores checkpoint `ri` (which must be stored), rebuilds
    /// the dependency vector (Algorithm 3 lines 5–6) and runs the rollback
    /// garbage collection. Clears the crashed flag.
    ///
    /// `li` is the last-interval vector distributed by a synchronized
    /// recovery manager, or `None` for the uncoordinated variant.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRollbackTarget`] if `ri` is not in stable storage;
    /// [`Error::Storage`] if the sink's incarnation write-ahead fails (the
    /// middleware is left untouched — still crashed, same incarnation —
    /// so the rollback can be retried).
    pub fn rollback(
        &mut self,
        ri: CheckpointIndex,
        li: Option<&LastIntervals>,
    ) -> Result<RollbackReport> {
        let mut eliminated = Vec::new();
        self.rollback_into(ri, li, &mut eliminated)?;
        Ok(RollbackReport {
            restored: ri,
            eliminated,
        })
    }

    /// [`rollback`](Self::rollback) appending the checkpoints it eliminates
    /// to a caller-owned buffer: the allocation-free variant a recovery
    /// session's apply loop uses.
    ///
    /// # Errors
    ///
    /// As for [`rollback`](Self::rollback); `eliminated` is then untouched.
    pub fn rollback_into(
        &mut self,
        ri: CheckpointIndex,
        li: Option<&LastIntervals>,
        eliminated: &mut Vec<CheckpointIndex>,
    ) -> Result<()> {
        if !self.store.contains(ri) {
            return Err(Error::InvalidRollbackTarget {
                process: self.owner,
                index: ri,
            });
        }
        // Every rollback opens a fresh incarnation: the re-executed
        // intervals reuse indices, and the incarnation component is what
        // keeps knowledge of the abandoned attempt distinguishable from
        // knowledge of this one (Lemma-1 totality under repeated crashes).
        // The sink logs the new incarnation *before* anything mutates: a
        // kill-9 mid-rollback must restart into an incarnation at least
        // this high, never a reused one.
        let next = self.incarnation.next();
        self.sink
            .wal_incarnation(next)
            .map_err(|e| Error::Storage(e.to_string()))?;
        self.incarnation = next;
        self.store.dv(ri, &mut self.dv).expect("found above");
        self.dv.resume_incarnation(self.owner, self.incarnation);
        // Mirror the log in the in-memory store's incarnation floor: a
        // later restart from the store alone must not reuse it either.
        self.store.raise_incarnation_floor(self.incarnation);
        // The restored vector may lie below what was merged before, and
        // differs from the old one anywhere: the one event that forgets —
        // all but what changed since `ri`, which is the owner's entry.
        self.merged = None;
        self.invalidate_snapshots();
        if let Some(log) = &mut self.changes {
            log.forget();
            log.restart_since(ri, self.owner);
        }
        self.gc
            .after_rollback_into(&mut self.store, ri, li, &self.dv, eliminated);
        self.protocol.note_checkpoint(true); // clears `sent`; not counted
        self.crashed = false;
        self.commit_sink();
        Ok(())
    }

    /// Recovery participation for a process that does **not** roll back:
    /// releases pins invalidated by the new last-interval vector.
    pub fn recovery_info(&mut self, li: &LastIntervals) -> Vec<CheckpointIndex> {
        let mut eliminated = Vec::new();
        self.recovery_info_into(li, &mut eliminated);
        eliminated
    }

    /// [`recovery_info`](Self::recovery_info) appending the checkpoints it
    /// eliminates to a caller-owned buffer.
    pub fn recovery_info_into(
        &mut self,
        li: &LastIntervals,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let before = eliminated.len();
        self.gc
            .on_recovery_info_into(&mut self.store, li, &self.dv, eliminated);
        if eliminated.len() > before {
            self.commit_sink();
        }
    }

    /// Delivers coordinator control information to the garbage collector
    /// (used by the coordinated baselines).
    pub fn control(&mut self, info: &ControlInfo) -> Vec<CheckpointIndex> {
        let eliminated = self.gc.on_control(&mut self.store, info, &self.dv);
        if !eliminated.is_empty() {
            self.commit_sink();
        }
        eliminated
    }

    /// Advances the garbage collector's local clock (used by the time-based
    /// baseline; a no-op for every other collector).
    pub fn tick(&mut self, now: u64) -> Vec<CheckpointIndex> {
        let eliminated = self.gc.on_tick(&mut self.store, now, &self.dv);
        if !eliminated.is_empty() {
            self.commit_sink();
        }
        eliminated
    }

    /// The collector's `UC` vector, if it maintains one (RDT-LGC does) —
    /// the per-process checkpoint pins shown in the paper's Figure 4.
    pub fn uc_snapshot(&self) -> Option<Vec<Option<CheckpointIndex>>> {
        self.gc.uc_snapshot()
    }

    fn ensure_alive(&self) -> Result<()> {
        if self.crashed {
            Err(Error::ProcessCrashed(self.owner))
        } else {
            Ok(())
        }
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

    fn pair(protocol: ProtocolKind) -> (Middleware, Middleware) {
        (
            Middleware::new(p(0), 2, protocol, GcKind::RdtLgc),
            Middleware::new(p(1), 2, protocol, GcKind::RdtLgc),
        )
    }

    #[test]
    fn construction_stores_initial_checkpoint() {
        let (a, _) = pair(ProtocolKind::Fdas);
        assert_eq!(a.last_stable(), idx(0));
        assert_eq!(a.store().len(), 1);
        assert_eq!(a.dv().entry(p(0)).value(), 1);
    }

    #[test]
    fn fdas_forces_only_after_send() {
        let (mut a, mut b) = pair(ProtocolKind::Fdas);
        b.basic_checkpoint().unwrap();
        // a has not sent: fresh info does not force.
        let m1 = b.send(p(0), Payload::empty());
        let r = a.receive(&m1).unwrap();
        assert!(r.forced.is_none());
        assert_eq!(r.updated.to_vec(), vec![p(1)]);
        // a sends, then receives fresher info: forced.
        let _out = a.send(p(1), Payload::empty());
        b.basic_checkpoint().unwrap();
        let m2 = b.send(p(0), Payload::empty());
        let r = a.receive(&m2).unwrap();
        assert_eq!(r.forced, Some(idx(1)));
    }

    #[test]
    fn forced_checkpoint_is_stored_before_gc_runs() {
        // Section 4.5 ordering: after the forced checkpoint, the receive's
        // GC links the new dependency to the *forced* checkpoint's CCB, so
        // the forced checkpoint is never the one eliminated.
        let (mut a, mut b) = pair(ProtocolKind::Fdas);
        a.send(p(1), Payload::empty());
        b.basic_checkpoint().unwrap();
        let m = b.send(p(0), Payload::empty());
        let r = a.receive(&m).unwrap();
        let forced = r.forced.expect("forced");
        assert!(a.store().contains(forced));
        assert!(!r.eliminated.contains(&forced));
    }

    #[test]
    fn rdt_lgc_collects_during_execution() {
        let (mut a, _) = pair(ProtocolKind::Fdas);
        let r = a.basic_checkpoint().unwrap();
        assert_eq!(r.eliminated, vec![idx(0)]);
        assert_eq!(a.store().len(), 1);
    }

    #[test]
    fn crashed_process_rejects_operations() {
        let (mut a, mut b) = pair(ProtocolKind::Fdas);
        a.crash();
        assert!(a.is_crashed());
        assert!(matches!(
            a.basic_checkpoint(),
            Err(Error::ProcessCrashed(_))
        ));
        let m = b.send(p(0), Payload::empty());
        assert!(a.receive(&m).is_err());
    }

    #[test]
    fn rollback_restores_dv_and_clears_crash() {
        let (mut a, mut b) = pair(ProtocolKind::Fdas);
        b.basic_checkpoint().unwrap();
        let m = b.send(p(0), Payload::empty());
        a.receive(&m).unwrap();
        a.basic_checkpoint().unwrap(); // s^1 knows b's interval 2
        a.crash();
        let report = a.rollback(idx(1), None).unwrap();
        assert_eq!(report.restored, idx(1));
        assert!(!a.is_crashed());
        assert_eq!(a.dv().entry(p(0)).value(), 2);
        assert_eq!(a.dv().entry(p(1)).value(), 2);
    }

    #[test]
    fn rollback_to_missing_checkpoint_fails() {
        let (mut a, _) = pair(ProtocolKind::Fdas);
        assert!(matches!(
            a.rollback(idx(9), None),
            Err(Error::InvalidRollbackTarget { .. })
        ));
    }

    #[test]
    fn bcs_adopts_higher_indices() {
        let (mut a, mut b) = pair(ProtocolKind::Bcs);
        b.basic_checkpoint().unwrap(); // b's BCS index → 2 (s^0 + this)
        let m = b.piggyback();
        let r = a.receive_piggyback(&m).unwrap();
        assert!(r.forced.is_some(), "higher index forces");
        // A repeat delivery of the same piggyback no longer forces.
        let r = a.receive_piggyback(&m).unwrap();
        assert!(r.forced.is_none());
    }

    #[test]
    fn no_forced_never_forces_even_on_news() {
        let (mut a, mut b) = pair(ProtocolKind::NoForced);
        a.send(p(1), Payload::empty());
        b.basic_checkpoint().unwrap();
        let m = b.send(p(0), Payload::empty());
        let r = a.receive(&m).unwrap();
        assert!(r.forced.is_none());
    }

    #[test]
    fn cbr_forces_on_every_receive() {
        let (mut a, mut b) = pair(ProtocolKind::Cbr);
        let m = b.send(p(0), Payload::empty());
        assert!(a.receive(&m).unwrap().forced.is_some());
        // Even a stale duplicate forces under CBR.
        let m2 = b.send(p(0), Payload::empty());
        assert!(a.receive(&m2).unwrap().forced.is_some());
    }

    #[test]
    fn state_size_flows_into_storage_accounting() {
        let mut a = Middleware::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        a.set_state_size(1024);
        a.basic_checkpoint().unwrap(); // collects s^0 (size 0)
        assert_eq!(a.store().bytes(), 1024);
        a.basic_checkpoint().unwrap(); // collects the previous 1024-byte one
        assert_eq!(a.store().bytes(), 1024);
        assert_eq!(a.store().total_bytes_stored(), 2048);
    }

    #[test]
    fn cas_stores_a_forced_checkpoint_after_every_send() {
        let (mut a, _) = pair(ProtocolKind::Cas);
        let (m, forced) = a.send_reported(p(1), Payload::empty());
        let forced = forced.expect("CAS forces after send");
        assert_eq!(forced.stored, idx(1));
        // The message carries the vector as of the send, i.e. interval 1,
        // not the post-checkpoint interval 2.
        assert_eq!(m.meta.dv.entry(p(0)).value(), 1);
        assert_eq!(a.dv().entry(p(0)).value(), 2);
        assert_eq!(a.forced_count(), 1);
    }

    #[test]
    fn send_with_matches_send_side_effects() {
        // CAS: the closure sees the message's id and the pre-checkpoint
        // vector, and the post-send forced checkpoint is reported, exactly
        // like send.
        let (mut a, _) = pair(ProtocolKind::Cas);
        let ((id, own), forced) = a.send_with(|id, dv, _index| (id, dv.entry(p(0)).value()));
        assert_eq!(id, MessageId::new(p(0), 0));
        assert_eq!(own, 1);
        assert_eq!(forced.expect("CAS forces after send").stored, idx(1));
        assert_eq!(a.forced_count(), 1);
        // FDAS: no post-send force, but the sent flag is noted — the next
        // news-bearing receive forces.
        let (mut c, mut d) = pair(ProtocolKind::Fdas);
        let ((), none) = c.send_with(|_, _, _| ());
        assert!(none.is_none());
        d.basic_checkpoint().unwrap();
        let m = d.send(p(0), Payload::empty());
        assert!(c.receive(&m).unwrap().forced.is_some(), "sent was noted");
    }

    #[test]
    fn casbr_forces_on_send_and_on_receive() {
        let (mut a, mut b) = pair(ProtocolKind::Casbr);
        let (m, forced) = a.send_reported(p(1), Payload::empty());
        assert!(forced.is_some());
        let r = b.receive(&m).unwrap();
        assert!(r.forced.is_some());
        assert_eq!(a.forced_count(), 1);
        assert_eq!(b.forced_count(), 1);
    }

    #[test]
    fn mrs_forces_only_on_receive_after_send() {
        let (mut a, mut b) = pair(ProtocolKind::Mrs);
        // Receive with no prior send in the interval: no force, even though
        // the message brings fresh causal information.
        b.basic_checkpoint().unwrap();
        let m1 = b.send(p(0), Payload::empty());
        assert!(a.receive(&m1).unwrap().forced.is_none());
        // After a sends, any receive forces — even a stale one.
        a.send(p(1), Payload::empty());
        let m2 = b.send(p(0), Payload::empty());
        assert!(a.receive(&m2).unwrap().forced.is_some());
    }

    #[test]
    fn fdas_send_never_forces() {
        let (mut a, _) = pair(ProtocolKind::Fdas);
        let (_, forced) = a.send_reported(p(1), Payload::empty());
        assert!(forced.is_none());
    }

    #[test]
    fn gc_kind_none_retains_everything() {
        let mut a = Middleware::new(p(0), 2, ProtocolKind::Fdas, GcKind::None);
        for _ in 0..5 {
            a.basic_checkpoint().unwrap();
        }
        assert_eq!(a.store().len(), 6);
    }

    #[test]
    fn rollback_forgets_the_merged_snapshot() {
        let (mut a, mut b) = pair(ProtocolKind::Fdas);
        b.basic_checkpoint().unwrap();
        let s = b.piggyback();
        a.receive_piggyback(&s).unwrap();
        assert_eq!(a.merged_stamp(), Some(s.dv.stamp()));
        assert_eq!(a.dv().entry(p(1)).value(), 2);
        // Back below S: s^0 knows nothing of b.
        a.crash();
        a.rollback(idx(0), None).unwrap();
        assert_eq!(a.merged_stamp(), None);
        assert_eq!(a.dv().entry(p(1)).value(), 0);
        let r = a.receive_piggyback(&s).unwrap();
        assert_eq!(r.updated.to_vec(), vec![p(1)], "S is news again");
        assert_eq!(a.dv().entry(p(1)).value(), 2);
        assert_eq!(a.memo_hits, 0);
    }

    #[test]
    fn a_stampless_vector_is_always_scanned_and_leaves_the_memo_alone() {
        let (mut a, mut b) = pair(ProtocolKind::Fdas);
        let s = b.piggyback();
        a.receive_piggyback(&s).unwrap();
        b.basic_checkpoint().unwrap();
        let newer = b.dv().clone();
        let mut report = ReceiveReport::default();
        for learns in [true, false] {
            a.receive_vector_into(&newer, 0, &mut report).unwrap();
            assert_eq!(!report.updated.is_empty(), learns);
        }
        assert_eq!(a.dv().entry(p(1)).value(), 2);
        assert_eq!(a.merged_stamp(), Some(s.dv.stamp()), "memo replaced");
        assert_eq!(a.memo_hits, 0, "a bare vector hit the memo");
        // S is still known: dv only grew since it was merged.
        a.receive_piggyback(&s).unwrap();
        assert_eq!(a.memo_hits, 1);
    }

    #[test]
    fn memo_hits_within_a_burst_and_misses_after_any_sender_mutation() {
        let mut a = Middleware::new(p(0), 3, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut b = Middleware::new(p(1), 3, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut c = Middleware::new(p(2), 3, ProtocolKind::Fdas, GcKind::RdtLgc);
        // A same-interval burst is one snapshot: a scan, then two hits.
        let burst: Vec<Piggyback> = (0..3).map(|_| b.piggyback()).collect();
        for (i, pb) in burst.iter().enumerate() {
            let r = a.receive_piggyback(pb).unwrap();
            assert_eq!(r.updated.is_empty(), i > 0);
        }
        assert_eq!(a.memo_hits, 2);
        // Each way b's vector can change re-interns: a checkpoint, ...
        b.basic_checkpoint().unwrap();
        a.receive_piggyback(&b.piggyback()).unwrap();
        assert_eq!(a.memo_hits, 2);
        // ... a merge that learned something, ...
        c.basic_checkpoint().unwrap();
        b.receive_piggyback(&c.piggyback()).unwrap();
        a.receive_piggyback(&b.piggyback()).unwrap();
        assert_eq!(a.memo_hits, 2);
        // ... a rollback.
        b.crash();
        b.rollback(idx(1), None).unwrap();
        let r = a.receive_piggyback(&b.piggyback()).unwrap();
        assert_eq!(a.memo_hits, 2);
        assert_eq!(r.updated.to_vec(), vec![p(1)], "b's new incarnation");
        // A receive that taught b nothing leaves its snapshot alone: a hit.
        let stale = Piggyback::new(DependencyVector::new(3), 0);
        assert!(b.receive_piggyback(&stale).unwrap().updated.is_empty());
        a.receive_piggyback(&b.piggyback()).unwrap();
        assert_eq!(a.memo_hits, 3);
        // The memo is the *last* snapshot merged, not every one ever seen.
        a.receive_piggyback(&burst[0]).unwrap();
        assert_eq!(a.memo_hits, 3);
        // An equal vector interned separately is not recognised.
        let copy = Piggyback::new((*burst[0].dv).clone(), 0);
        assert!(a.receive_piggyback(&copy).unwrap().updated.is_empty());
        assert_eq!(a.memo_hits, 3);
    }

    #[test]
    fn memo_hit_still_runs_the_content_independent_rules() {
        // MRS forces on any receive after a send, news or not; BCS adopts
        // the piggybacked index.
        let (mut a, mut b) = pair(ProtocolKind::Mrs);
        let pb = b.piggyback();
        a.receive_piggyback(&pb).unwrap();
        a.send(p(1), Payload::empty());
        assert!(a.receive_piggyback(&pb).unwrap().forced.is_some());
        assert_eq!(a.memo_hits, 1);

        let (mut a, mut b) = pair(ProtocolKind::Bcs);
        let first = b.piggyback();
        a.receive_piggyback(&first).unwrap();
        let same_vector_higher_index = Piggyback::new(first.dv.clone(), first.index + 5);
        let r = a.receive_piggyback(&same_vector_higher_index).unwrap();
        assert!(r.forced.is_some());
        assert_eq!(a.memo_hits, 1);
        assert_eq!(a.piggyback().index, first.index + 5);
    }

    /// A system just wide enough for a change log, `a` sending to `b`:
    /// every receive below is `b` receiving `a`'s current snapshot.
    const WIDE: usize = LOG_CAP + 2;

    fn wide(i: usize) -> Middleware {
        Middleware::new(p(i), WIDE, ProtocolKind::Fdas, GcKind::RdtLgc)
    }

    fn patched(mw: &Middleware) -> u64 {
        mw.changes.as_ref().map_or(0, |log| log.patched_copies)
    }

    #[test]
    fn a_wide_checkpoint_stores_the_entries_logged_since_the_last_one() {
        let (mut a, mut b, mut c) = (wide(0), wide(1), wide(2));
        // The log starts with the first snapshot, after s^0: the first
        // checkpoint under it has nothing to be relative to.
        a.piggyback();
        let first = a.basic_checkpoint().unwrap().stored;
        assert_eq!(a.store().changed_at(0), None);
        // News from b and c pins s^1 for them, and the owner's entry moved.
        b.basic_checkpoint().unwrap();
        c.basic_checkpoint().unwrap();
        a.receive_piggyback(&b.piggyback()).unwrap();
        a.receive_piggyback(&c.piggyback()).unwrap();
        let at_checkpoint = a.dv().clone();
        let second = a.basic_checkpoint().unwrap().stored;
        assert_eq!(a.store().indices().collect::<Vec<_>>(), vec![first, second]);
        let logged: UpdateSet = [p(0), p(1), p(2)].into_iter().collect();
        assert_eq!(a.store().changed_at(1), Some(&logged));
        assert_eq!(stored(&a, second), at_checkpoint);
        // A short vector never logs, so it stores every vector in full.
        let (mut x, mut y) = pair(ProtocolKind::Fdas);
        x.piggyback();
        x.basic_checkpoint().unwrap();
        y.basic_checkpoint().unwrap();
        x.receive_piggyback(&y.piggyback()).unwrap();
        x.basic_checkpoint().unwrap();
        assert!((0..x.store().len()).all(|k| x.store().changed_at(k).is_none()));
    }

    /// The vector `mw` stored with `index`.
    fn stored(mw: &Middleware, index: CheckpointIndex) -> DependencyVector {
        let mut dv = DependencyVector::new(1);
        mw.store().dv(index, &mut dv).unwrap();
        dv
    }

    #[test]
    fn a_wide_checkpoint_keeps_its_changes_past_the_rings_reach() {
        // Two words and a spill of entries, so 70 distinct senders fit.
        const N: usize = 2 * LOG_CAP + 2;
        let distinct: Vec<usize> = (1..36).chain(N - 35..N).collect();
        for senders in [distinct, vec![N - 1; LOG_CAP + 6]] {
            let mut all: Vec<Middleware> = (0..N)
                .map(|i| Middleware::new(p(i), N, ProtocolKind::Fdas, GcKind::RdtLgc))
                .collect();
            let (a, others) = all.split_first_mut().unwrap();
            a.piggyback();
            a.basic_checkpoint().unwrap();
            let from = a.changes.as_ref().unwrap().pos;
            for &f in &senders {
                let sender = &mut others[f - 1];
                sender.basic_checkpoint().unwrap();
                a.receive_piggyback(&sender.piggyback()).unwrap();
            }
            let pushes = a.changes.as_ref().unwrap().pos - from;
            assert!(pushes > LOG_CAP as u64, "{pushes} pushes");
            let at_checkpoint = a.dv().clone();
            let index = a.basic_checkpoint().unwrap().stored;
            // The senders pin the checkpoint before it, so it stays.
            let k = a.store().len() - 1;
            assert_eq!((k, a.store().index_at(k)), (1, index));
            let changed: UpdateSet = senders.iter().chain(&[0]).map(|&f| p(f)).collect();
            assert_eq!(a.store().changed_at(k), Some(&changed));
            assert_eq!(stored(a, index), at_checkpoint);
        }
    }

    #[test]
    fn the_first_checkpoint_after_a_rollback_keeps_its_changes() {
        let (mut a, mut b, mut c) = (wide(0), wide(1), wide(2));
        a.piggyback();
        a.basic_checkpoint().unwrap();
        b.basic_checkpoint().unwrap();
        a.receive_piggyback(&b.piggyback()).unwrap();
        let restored = a.basic_checkpoint().unwrap().stored;
        a.crash();
        a.rollback(restored, None).unwrap();
        assert_eq!(a.store().last(), Some(restored));
        // News from c after the rollback, and the owner's new incarnation.
        c.basic_checkpoint().unwrap();
        a.receive_piggyback(&c.piggyback()).unwrap();
        let at_checkpoint = a.dv().clone();
        let index = a.basic_checkpoint().unwrap().stored;
        let k = a.store().len() - 1;
        assert_eq!(a.store().index_at(k), index);
        let changed: UpdateSet = [p(0), p(2)].into_iter().collect();
        assert_eq!(a.store().changed_at(k), Some(&changed));
        assert_eq!(stored(&a, index), at_checkpoint);
    }

    #[test]
    fn a_successor_snapshot_is_merged_over_its_changed_entries_only() {
        let (mut a, mut b, mut c) = (wide(0), wide(1), wide(2));
        // The first snapshot has no predecessor: a full scan.
        b.receive_piggyback(&a.piggyback()).unwrap();
        assert_eq!(b.restricted_merges, 0);
        // News from c and a checkpoint of its own: two entries logged.
        c.basic_checkpoint().unwrap();
        a.receive_piggyback(&c.piggyback()).unwrap();
        a.basic_checkpoint().unwrap();
        let next = a.piggyback();
        let merged = b.merged_stamp().expect("a's first snapshot");
        assert_eq!(next.dv.changes_since(merged), Some(&[2u32, 0][..]));
        let r = b.receive_piggyback(&next).unwrap();
        assert_eq!(b.restricted_merges, 1);
        assert_eq!(r.updated.to_vec(), vec![p(0), p(2)]);
        assert_eq!(b.merged_stamp(), Some(next.dv.stamp()), "a full merge");
        // The same snapshot again is the memo's, not the log's.
        b.receive_piggyback(&next).unwrap();
        assert_eq!((b.memo_hits, b.restricted_merges), (1, 1));
        // A short vector never logs.
        let (mut x, mut y) = pair(ProtocolKind::Fdas);
        for _ in 0..3 {
            x.basic_checkpoint().unwrap();
            y.receive_piggyback(&x.piggyback()).unwrap();
        }
        assert!(x.changes.is_none() && y.restricted_merges == 0);
    }

    #[test]
    fn a_foreign_predecessor_is_a_full_scan() {
        let (mut a, mut b, mut c) = (wide(0), wide(1), wide(2));
        b.receive_piggyback(&a.piggyback()).unwrap();
        a.basic_checkpoint().unwrap();
        // c's snapshot in between: b no longer remembers a's first.
        b.receive_piggyback(&c.piggyback()).unwrap();
        let r = b.receive_piggyback(&a.piggyback()).unwrap();
        assert_eq!(r.updated.to_vec(), vec![p(0)]);
        // A snapshot b never saw: its successor names a stranger.
        a.basic_checkpoint().unwrap();
        let _missed = a.piggyback();
        a.basic_checkpoint().unwrap();
        let r = b.receive_piggyback(&a.piggyback()).unwrap();
        assert_eq!(r.updated.to_vec(), vec![p(0)]);
        assert_eq!(b.restricted_merges, 0);
    }

    #[test]
    fn a_trimmed_log_links_nothing_and_patches_nothing() {
        let (mut a, mut b, mut c) = (wide(0), wide(1), wide(2));
        b.receive_piggyback(&a.piggyback()).unwrap();
        // More changes than the ring holds since that snapshot — which,
        // delivered, is the one buffer a keeps, at the first of them.
        for _ in 0..=LOG_CAP {
            c.basic_checkpoint().unwrap();
            a.receive_piggyback(&c.piggyback()).unwrap();
        }
        let far = a.piggyback();
        assert_eq!(patched(&a), 0, "copied in full into the kept buffer");
        assert_eq!(*far.dv, *a.dv());
        assert_eq!(far.dv.changes_since(b.merged_stamp().unwrap()), None);
        let r = b.receive_piggyback(&far).unwrap();
        assert_eq!((r.updated.to_vec(), b.restricted_merges), (vec![p(2)], 0));
        // Within reach again: linked, and patched.
        drop(far);
        c.basic_checkpoint().unwrap();
        a.receive_piggyback(&c.piggyback()).unwrap();
        let near = a.piggyback();
        assert_eq!(patched(&a), 1);
        assert_eq!(*near.dv, *a.dv());
        b.receive_piggyback(&near).unwrap();
        assert_eq!(b.restricted_merges, 1);
    }

    #[test]
    fn a_rollback_on_either_side_is_a_full_scan() {
        let (mut a, mut b) = (wide(0), wide(1));
        b.receive_piggyback(&a.piggyback()).unwrap();
        a.basic_checkpoint().unwrap();
        // The sender's: its vector was replaced, the predecessor is void.
        a.crash();
        a.rollback(a.last_stable(), None).unwrap();
        let reborn = a.piggyback();
        assert_eq!(*reborn.dv, *a.dv());
        assert_eq!(reborn.dv.changes_since(b.merged_stamp().unwrap()), None);
        b.receive_piggyback(&reborn).unwrap();
        // The receiver's: it may be below what it merged.
        a.basic_checkpoint().unwrap();
        b.crash();
        b.rollback(idx(0), None).unwrap();
        assert_eq!(b.dv().entry(p(0)).value(), 0, "below what it merged");
        let linked = a.piggyback();
        assert!(linked.dv.changes_since(reborn.dv.stamp()).is_some());
        let r = b.receive_piggyback(&linked).unwrap();
        assert_eq!(r.updated.to_vec(), vec![p(0)]);
        assert_eq!(b.dv().lineage(p(0)), a.dv().lineage(p(0)));
        assert_eq!(b.restricted_merges, 0);
        // And from there on the log helps again.
        a.basic_checkpoint().unwrap();
        b.receive_piggyback(&a.piggyback()).unwrap();
        assert_eq!(b.restricted_merges, 1);
    }

    /// Test sink observing the commit/WAL call pattern, optionally failing.
    #[derive(Debug, Default)]
    struct RecordingSink {
        commits: usize,
        last_len: usize,
        wals: Vec<u32>,
        fail_commit: bool,
        fail_wal: bool,
    }

    impl Storage for RecordingSink {
        type Error = String;

        fn commit(&mut self, store: &CheckpointStore) -> std::result::Result<(), String> {
            if self.fail_commit {
                return Err("commit refused".into());
            }
            self.commits += 1;
            self.last_len = store.len();
            Ok(())
        }

        fn wal_incarnation(&mut self, inc: Incarnation) -> std::result::Result<(), String> {
            if self.fail_wal {
                return Err("wal refused".into());
            }
            self.wals.push(inc.value());
            Ok(())
        }
    }

    #[test]
    fn sink_sees_every_store_mutation() {
        let mut a = Middleware::with_storage(
            p(0),
            2,
            ProtocolKind::Fdas,
            GcKind::RdtLgc,
            RecordingSink::default(),
        );
        assert_eq!(a.sink().commits, 1, "s^0 is committed at construction");
        a.basic_checkpoint().unwrap();
        assert_eq!(a.sink().commits, 2);
        assert_eq!(a.sink().last_len, a.store().len());
        assert!(a.take_sink_error().is_none());
    }

    #[test]
    fn rollback_write_aheads_the_incarnation_before_committing() {
        let mut a = Middleware::with_storage(
            p(0),
            2,
            ProtocolKind::Fdas,
            GcKind::RdtLgc,
            RecordingSink::default(),
        );
        a.basic_checkpoint().unwrap();
        a.crash();
        let target = a.last_stable();
        a.rollback(target, None).unwrap();
        assert_eq!(
            a.sink().wals,
            vec![1],
            "incarnation 1 was write-ahead logged"
        );
        assert_eq!(a.incarnation(), Incarnation::new(1));
        // The post-rollback commit reflects the truncated store.
        assert_eq!(a.sink().last_len, a.store().len());
    }

    #[test]
    fn failed_wal_aborts_rollback_without_mutating() {
        let mut a = Middleware::with_storage(
            p(0),
            2,
            ProtocolKind::Fdas,
            GcKind::RdtLgc,
            RecordingSink {
                fail_wal: true,
                ..RecordingSink::default()
            },
        );
        a.basic_checkpoint().unwrap();
        a.crash();
        let target = a.last_stable();
        let err = a.rollback(target, None).unwrap_err();
        assert!(matches!(err, Error::Storage(_)));
        assert!(a.is_crashed(), "a failed WAL leaves the process crashed");
        assert_eq!(a.incarnation(), Incarnation::ZERO);
        // The sink becomes writable again: the retry succeeds.
        a.sink_mut().fail_wal = false;
        assert!(a.rollback(target, None).is_ok());
    }

    #[test]
    fn commit_failures_are_buffered_not_fatal() {
        let mut a = Middleware::with_storage(
            p(0),
            2,
            ProtocolKind::Fdas,
            GcKind::RdtLgc,
            RecordingSink {
                fail_commit: true,
                ..RecordingSink::default()
            },
        );
        // The protocol keeps running on the in-memory store.
        a.basic_checkpoint().unwrap();
        let err = a.take_sink_error().expect("failure surfaced");
        assert!(err.contains("commit refused"));
        assert!(a.take_sink_error().is_none(), "error is taken once");
    }
}
