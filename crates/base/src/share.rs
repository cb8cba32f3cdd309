//! Shared, immutable dependency-vector snapshots.
//!
//! A sender piggybacks its current dependency vector on every outgoing
//! message; a burst of sends within one checkpoint interval piggybacks the
//! *same* vector. Interning the snapshot behind a reference-counted pointer
//! makes every send after the first an O(1) pointer copy — but the flavour
//! of the refcount matters on the hot path:
//!
//! * [`SharedDv`] — an [`Rc`]-backed snapshot, the **default**. The
//!   discrete-event simulator and every other driver in this workspace run
//!   a process's events on one thread, so the refcount traffic of cloning a
//!   piggyback per queued hop never needs to be atomic. `SharedDv` is
//!   deliberately `!Send`: the compiler, not a convention, keeps it on the
//!   thread that minted it.
//! * [`SyncDv`] — the [`Arc`]-backed counterpart for runtimes that really
//!   do hand snapshots across threads (`rdt_sim`'s sharded engine). The
//!   atomic refcount cost is paid only where the `Send` bound is real,
//!   instead of on every message of the single-threaded hot path.
//!
//! Both types deref to [`DependencyVector`]; converting between them clones
//! the underlying vector (the two refcount headers are incompatible), which
//! is exactly the copy a cross-thread handoff must pay anyway.
//!
//! # Stamps
//!
//! Every handle also carries a *stamp*: a `u64` minted when a vector is
//! interned (or an existing `Arc` is wrapped), unique within the OS
//! process and never handed out twice. What it promises is one-directional:
//! **same stamp ⇒ same immutable content**. `clone` copies it, and
//! [`SharedDv::to_sync`] / [`SyncDv::to_local`] keep it, since the copy they
//! make has the same content; two snapshots of equal value interned
//! separately have different stamps, so a stamp mismatch says nothing. A
//! receiver that has merged a snapshot can therefore recognise the next
//! piggyback of the same burst in O(1), without holding the snapshot alive
//! — which would keep its memory and stop the sender from taking it back
//! ([`SharedDv::try_unwrap`]). Stamps are process-local: they take no part in
//! equality, hashing or formatting, and they are never put on the wire — a
//! decoded frame is interned afresh.
//!
//! A [`SharedDv`] may also name a *predecessor*: the stamp of an earlier
//! snapshot, with a list of entries ([`SharedDv::succeeding`]). The promise
//! is again one-directional, and exactly this: **same predecessor stamp ⇒
//! the two contents differ at most at these entries** — so a receiver
//! whose last full merge was the predecessor has already merged everything
//! else of the successor ([`SharedDv::changes_since`]). No predecessor, or
//! another one, says nothing. The link lives beside the vector behind the
//! handle and shares the stamp's standing: outside equality, hashing,
//! formatting, serde and the wire, kept by `clone`, and — being a promise
//! about one sender's consecutive snapshots on one thread — dropped by the
//! copies [`SharedDv::to_sync`] and [`SyncDv::to_local`] make.

use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::DependencyVector;

/// Mints a stamp no other call in this OS process has returned or will.
///
/// Ids come in blocks of 2³² (the block index is the high half), one block
/// at a time per thread: the shared counter is touched once per block, so
/// interning a snapshot costs a thread-local increment, not a locked
/// instruction. The low half of a stamp is never zero — a thread-local
/// `next` whose low half is zero has no block (initially) or has used its
/// block up, and takes a new one.
fn mint_stamp() -> u64 {
    const BLOCK: u64 = 1 << 32;
    // Relaxed: the counter publishes no other data; an atomic
    // read-modify-write alone makes every returned block index distinct.
    static NEXT_BLOCK: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static NEXT: Cell<u64> = const { Cell::new(0) };
    }
    NEXT.with(|next| {
        let mut stamp = next.get();
        if stamp % BLOCK == 0 {
            let block = NEXT_BLOCK.fetch_add(1, Ordering::Relaxed);
            stamp = block.checked_mul(BLOCK).expect("stamp space exhausted") + 1;
        }
        next.set(stamp + 1);
        stamp
    })
}

/// What a [`SharedDv`] handle points at: the vector, and beside it the
/// link to the snapshot its sender interned before — see
/// [`SharedDv::changes_since`]. One allocation, so a handle stays two
/// words however much rides along.
#[derive(Serialize, Deserialize)]
struct Interned {
    dv: DependencyVector,
    /// Stamp of the predecessor snapshot, if one was named, and where this
    /// vector may differ from that one's. Boxed: most snapshots have none,
    /// and every one is allocated.
    #[serde(skip)]
    link: Option<Box<(u64, Vec<u32>)>>,
}

/// A thread-local (non-atomic, `!Send`) shared dependency-vector snapshot —
/// the piggyback payload of the single-threaded hot path.
#[derive(Clone, Serialize, Deserialize)]
pub struct SharedDv {
    dv: Rc<Interned>,
    #[serde(skip, default = "mint_stamp")]
    stamp: u64,
}

impl SharedDv {
    /// Interns an owned vector under a fresh stamp.
    #[inline]
    pub fn new(dv: DependencyVector) -> Self {
        Self::intern(dv, None, mint_stamp())
    }

    #[inline]
    fn intern(dv: DependencyVector, link: Option<Box<(u64, Vec<u32>)>>, stamp: u64) -> Self {
        let dv = Rc::new(Interned { dv, link });
        Self { dv, stamp }
    }

    fn vector(&self) -> &DependencyVector {
        &self.dv.dv
    }

    /// Interns `dv` under a fresh stamp as the successor of the snapshot
    /// stamped `pred`, from which it differs at most at the entries
    /// `changed` — the caller's promise, which
    /// [`changes_since`](Self::changes_since) passes on.
    pub fn succeeding(dv: DependencyVector, pred: u64, changed: Vec<u32>) -> Self {
        Self::intern(dv, Some(Box::new((pred, changed))), mint_stamp())
    }

    /// The entries at which this snapshot may differ from the one stamped
    /// `stamp`, if that is its predecessor: everywhere else the two are
    /// equal. `None` says nothing — another sender, a gap, a snapshot
    /// interned without a link or copied across flavours.
    pub fn changes_since(&self, stamp: u64) -> Option<&[u32]> {
        match self.dv.link.as_deref() {
            Some((pred, changed)) if *pred == stamp => Some(changed),
            _ => None,
        }
    }

    /// Deep-copies into the [`Arc`]-backed flavour for a cross-thread
    /// handoff. Same content, so the same stamp.
    pub fn to_sync(&self) -> SyncDv {
        SyncDv {
            dv: Arc::new(self.vector().clone()),
            stamp: self.stamp,
        }
    }

    /// Takes the vector back out if this is the only handle left —
    /// every clone has been dropped — and returns the handle otherwise.
    pub fn try_unwrap(self) -> Result<DependencyVector, Self> {
        let stamp = self.stamp;
        Rc::try_unwrap(self.dv)
            .map(|interned| interned.dv)
            .map_err(|dv| Self { dv, stamp })
    }
}

/// A `Send + Sync` (atomic) shared dependency-vector snapshot, for runtimes
/// that move piggybacks between threads.
#[derive(Clone, Serialize, Deserialize)]
pub struct SyncDv {
    dv: Arc<DependencyVector>,
    #[serde(skip, default = "mint_stamp")]
    stamp: u64,
}

impl SyncDv {
    /// Interns an owned vector under a fresh stamp.
    pub fn new(dv: DependencyVector) -> Self {
        Arc::new(dv).into()
    }

    fn vector(&self) -> &DependencyVector {
        &self.dv
    }

    /// Deep-copies into the thread-local flavour. Same content, so the
    /// same stamp.
    pub fn to_local(&self) -> SharedDv {
        SharedDv::intern(self.vector().clone(), None, self.stamp)
    }
}

macro_rules! snapshot_impls {
    ($ty:ident) => {
        impl $ty {
            /// The snapshot's stamp, unique to the interning it came from
            /// and shared by every clone and cross-flavour copy of it:
            /// equal stamps mean equal, immutable content; unequal stamps
            /// mean nothing. Process-local — never compared, hashed,
            /// printed or put on the wire.
            pub fn stamp(&self) -> u64 {
                self.stamp
            }
        }

        impl Deref for $ty {
            type Target = DependencyVector;

            fn deref(&self) -> &DependencyVector {
                self.vector()
            }
        }

        impl AsRef<DependencyVector> for $ty {
            fn as_ref(&self) -> &DependencyVector {
                self.vector()
            }
        }

        impl From<DependencyVector> for $ty {
            fn from(dv: DependencyVector) -> Self {
                Self::new(dv)
            }
        }

        /// Equality is over the snapshot's value, not pointer identity
        /// or stamp.
        impl PartialEq for $ty {
            fn eq(&self, other: &Self) -> bool {
                self.vector() == other.vector()
            }
        }

        impl Eq for $ty {}

        impl std::hash::Hash for $ty {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                self.vector().hash(state);
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self.vector(), f)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self.vector(), f)
            }
        }
    };
}

snapshot_impls!(SharedDv);
snapshot_impls!(SyncDv);

/// Wraps the `Arc` under a fresh stamp: its other holders are unknown here.
impl From<Arc<DependencyVector>> for SyncDv {
    fn from(dv: Arc<DependencyVector>) -> Self {
        Self {
            dv,
            stamp: mint_stamp(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;

    #[test]
    fn clones_share_one_vector() {
        let a = SharedDv::new(DependencyVector::from_raw(vec![1, 2]));
        let b = a.clone();
        assert!(Rc::ptr_eq(&a.dv, &b.dv));
        assert_eq!(a, b);
        assert_eq!(b.entry(ProcessId::new(1)).value(), 2);
    }

    #[test]
    fn sync_flavour_is_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<SyncDv>();
    }

    #[test]
    fn conversions_preserve_the_value() {
        let local = SharedDv::new(DependencyVector::from_lineages(vec![(1, 3), (0, 0)]));
        let sync = local.to_sync();
        assert_eq!(*local, *sync);
        assert_eq!(sync.to_local(), local);
    }

    #[test]
    fn stamps_follow_content_not_value() {
        let a = SharedDv::new(DependencyVector::from_raw(vec![4, 1]));
        assert_eq!(a.clone().stamp(), a.stamp());
        assert_eq!(a.to_sync().stamp(), a.stamp());
        assert_eq!(a.to_sync().to_local().stamp(), a.stamp());
        // Equal value, interned separately: equal handles, unrelated stamps.
        let b = SharedDv::new(DependencyVector::from_raw(vec![4, 1]));
        assert_eq!(a, b);
        assert_ne!(a.stamp(), b.stamp());
        let arc = Arc::new(DependencyVector::from_raw(vec![4, 1]));
        assert_ne!(SyncDv::from(arc.clone()).stamp(), SyncDv::from(arc).stamp());
    }

    #[test]
    fn a_link_answers_for_its_predecessor_only_and_is_no_part_of_the_value() {
        let first = SharedDv::new(DependencyVector::from_raw(vec![4, 1, 0]));
        let dv = DependencyVector::from_raw(vec![4, 2, 0]);
        let next = SharedDv::succeeding(dv.clone(), first.stamp(), vec![1]);
        assert_eq!(next.changes_since(first.stamp()), Some(&[1u32][..]));
        assert_eq!(next.clone().changes_since(first.stamp()), Some(&[1u32][..]));
        assert_eq!(next.changes_since(next.stamp()), None);
        assert_eq!(first.changes_since(first.stamp()), None, "interned bare");
        assert_eq!(first.changes_since(0), None, "0 is no stamp");
        // Equal to the same vector interned bare; a copy across flavours
        // keeps stamp and content and drops the link.
        assert_eq!(next, SharedDv::new(dv.clone()));
        let hopped = next.to_sync().to_local();
        assert_eq!((hopped.stamp(), &*hopped), (next.stamp(), &dv));
        assert_eq!(hopped.changes_since(first.stamp()), None);
        assert_eq!(next.try_unwrap().expect("sole handle"), dv);
    }

    #[test]
    fn stamps_are_distinct_across_threads() {
        let mint = || {
            let dv = DependencyVector::from_raw(vec![0]);
            (0..1000)
                .map(|_| SyncDv::new(dv.clone()).stamp())
                .collect::<Vec<_>>()
        };
        let spawned: Vec<_> = (0..4).map(|_| std::thread::spawn(mint)).collect();
        let mut all = mint();
        for handle in spawned {
            all.extend(handle.join().expect("minting thread panicked"));
        }
        let minted = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), minted);
    }

    #[test]
    fn try_unwrap_succeeds_only_on_the_last_handle() {
        let a = SharedDv::new(DependencyVector::from_raw(vec![7, 2]));
        let stamp = a.stamp();
        let b = a.clone();
        let a = a.try_unwrap().expect_err("b still shares the vector");
        assert_eq!(a.stamp(), stamp);
        drop(b);
        let dv = a.try_unwrap().expect("last handle");
        assert_eq!(dv, DependencyVector::from_raw(vec![7, 2]));
    }

    #[test]
    fn equality_is_by_value_across_allocations() {
        let a = SharedDv::new(DependencyVector::from_raw(vec![4]));
        let b = SharedDv::new(DependencyVector::from_raw(vec![4]));
        assert!(!Rc::ptr_eq(&a.dv, &b.dv));
        assert_eq!(a, b);
        assert_eq!(format!("{a}"), "(4)");
    }
}
