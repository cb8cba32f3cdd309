//! Shared, immutable dependency-vector snapshots.
//!
//! A sender piggybacks its current dependency vector on every outgoing
//! message; a burst of sends within one checkpoint interval piggybacks the
//! *same* vector. Interning the snapshot behind a reference-counted pointer
//! makes every send after the first an O(1) pointer copy.
//!
//! There is one flavour, [`SharedDv`], and its refcount is an [`Rc`]:
//! every driver in this workspace runs a process's events on one thread,
//! so the refcount traffic of cloning a piggyback per queued hop never
//! needs to be atomic. `SharedDv` is deliberately `!Send`: the compiler,
//! not a convention, keeps it on the thread that minted it. A vector that
//! leaves its thread leaves as a plain [`DependencyVector`] — a frame on
//! the wire, a copy in a shard exchange — and the receiver merges it as a
//! bare vector.
//!
//! # Stamps
//!
//! Every handle also carries a *stamp*: a `u64` minted when a vector is
//! interned, from a counter of the minting thread, and never handed out
//! twice by that thread. What it promises is one-directional: **same stamp
//! ⇒ same immutable content**. `clone` copies it; two snapshots of equal
//! value interned separately have different stamps, so a stamp mismatch
//! says nothing. A receiver that has merged a snapshot can therefore
//! recognise the next piggyback of the same burst in O(1), without holding
//! the snapshot alive — which would keep its memory and stop the sender
//! from taking it back ([`SharedDv::try_unwrap`]).
//!
//! Stamps are per thread, and need be no more: a snapshot is `!Send`, and
//! so is the middleware that remembers a stamp, so no stamp ever meets one
//! minted on another thread. They take no part in equality, hashing or
//! formatting, and they are never put on the wire — a decoded frame is
//! merged as a bare vector, with no stamp at all.
//!
//! A [`SharedDv`] may also name a *predecessor*: the stamp of an earlier
//! snapshot, with a list of entries ([`SharedDv::succeeding`]). The promise
//! is again one-directional, and exactly this: **same predecessor stamp ⇒
//! the two contents differ at most at these entries** — so a receiver
//! whose last full merge was the predecessor has already merged everything
//! else of the successor ([`SharedDv::changes_since`]). No predecessor, or
//! another one, says nothing. The link lives beside the vector behind the
//! handle and shares the stamp's standing: outside equality, hashing,
//! formatting, serde and the wire, and kept by `clone`.

use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::DependencyVector;

/// Mints a stamp no other call on this thread has returned or will: a
/// thread-local counter, never zero.
fn mint_stamp() -> u64 {
    thread_local! {
        static LAST: Cell<u64> = const { Cell::new(0) };
    }
    LAST.with(|last| {
        let stamp = last.get() + 1;
        last.set(stamp);
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
/// the piggyback payload.
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
        Self::intern(dv, None)
    }

    #[inline]
    fn intern(dv: DependencyVector, link: Option<Box<(u64, Vec<u32>)>>) -> Self {
        let dv = Rc::new(Interned { dv, link });
        Self {
            dv,
            stamp: mint_stamp(),
        }
    }

    /// Interns `dv` under a fresh stamp as the successor of the snapshot
    /// stamped `pred`, from which it differs at most at the entries
    /// `changed` — the caller's promise, which
    /// [`changes_since`](Self::changes_since) passes on.
    pub fn succeeding(dv: DependencyVector, pred: u64, changed: Vec<u32>) -> Self {
        Self::intern(dv, Some(Box::new((pred, changed))))
    }

    /// The entries at which this snapshot may differ from the one stamped
    /// `stamp`, if that is its predecessor: everywhere else the two are
    /// equal. `None` says nothing — another sender, a gap, a snapshot
    /// interned without a link.
    pub fn changes_since(&self, stamp: u64) -> Option<&[u32]> {
        match self.dv.link.as_deref() {
            Some((pred, changed)) if *pred == stamp => Some(changed),
            _ => None,
        }
    }

    /// The snapshot's stamp, unique to the interning it came from and
    /// shared by every clone of it: equal stamps mean equal, immutable
    /// content; unequal stamps mean nothing. Thread-local — never compared,
    /// hashed, printed or put on the wire.
    pub fn stamp(&self) -> u64 {
        self.stamp
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

impl Deref for SharedDv {
    type Target = DependencyVector;

    fn deref(&self) -> &DependencyVector {
        &self.dv.dv
    }
}

impl AsRef<DependencyVector> for SharedDv {
    fn as_ref(&self) -> &DependencyVector {
        self
    }
}

impl From<DependencyVector> for SharedDv {
    fn from(dv: DependencyVector) -> Self {
        Self::new(dv)
    }
}

/// Equality is over the snapshot's value, not pointer identity or stamp.
impl PartialEq for SharedDv {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedDv {}

impl std::hash::Hash for SharedDv {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for SharedDv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for SharedDv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
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
    fn stamps_follow_content_not_value() {
        let a = SharedDv::new(DependencyVector::from_raw(vec![4, 1]));
        assert_eq!(a.clone().stamp(), a.stamp());
        // Equal value, interned separately: equal handles, unrelated stamps.
        let b = SharedDv::new(DependencyVector::from_raw(vec![4, 1]));
        assert_eq!(a, b);
        assert_ne!(a.stamp(), b.stamp());
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
        // Equal to the same vector interned bare.
        assert_eq!(next, SharedDv::new(dv.clone()));
        assert_eq!(next.try_unwrap().expect("sole handle"), dv);
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
