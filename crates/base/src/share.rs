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

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::DependencyVector;

/// A thread-local (non-atomic, `!Send`) shared dependency-vector snapshot —
/// the piggyback payload of the single-threaded hot path.
#[derive(Clone, Serialize, Deserialize)]
pub struct SharedDv(Rc<DependencyVector>);

impl SharedDv {
    /// Interns an owned vector.
    pub fn new(dv: DependencyVector) -> Self {
        Self(Rc::new(dv))
    }

    /// Deep-copies into the [`Arc`]-backed flavour for a cross-thread
    /// handoff.
    pub fn to_sync(&self) -> SyncDv {
        SyncDv::new(self.0.as_ref().clone())
    }
}

/// A `Send + Sync` (atomic) shared dependency-vector snapshot, for runtimes
/// that move piggybacks between threads.
#[derive(Clone, Serialize, Deserialize)]
pub struct SyncDv(Arc<DependencyVector>);

impl SyncDv {
    /// Interns an owned vector.
    pub fn new(dv: DependencyVector) -> Self {
        Self(Arc::new(dv))
    }

    /// Deep-copies into the thread-local flavour.
    pub fn to_local(&self) -> SharedDv {
        SharedDv::new(self.0.as_ref().clone())
    }
}

macro_rules! snapshot_impls {
    ($ty:ident) => {
        impl Deref for $ty {
            type Target = DependencyVector;

            fn deref(&self) -> &DependencyVector {
                &self.0
            }
        }

        impl AsRef<DependencyVector> for $ty {
            fn as_ref(&self) -> &DependencyVector {
                &self.0
            }
        }

        impl From<DependencyVector> for $ty {
            fn from(dv: DependencyVector) -> Self {
                Self::new(dv)
            }
        }

        /// Equality is over the snapshot's value, not pointer identity.
        impl PartialEq for $ty {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }

        impl Eq for $ty {}

        impl std::hash::Hash for $ty {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                self.0.hash(state);
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&*self.0, f)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&*self.0, f)
            }
        }
    };
}

snapshot_impls!(SharedDv);
snapshot_impls!(SyncDv);

impl From<Rc<DependencyVector>> for SharedDv {
    fn from(rc: Rc<DependencyVector>) -> Self {
        Self(rc)
    }
}

impl From<Arc<DependencyVector>> for SyncDv {
    fn from(arc: Arc<DependencyVector>) -> Self {
        Self(arc)
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
        assert!(Rc::ptr_eq(&a.0, &b.0));
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
    fn equality_is_by_value_across_allocations() {
        let a = SharedDv::new(DependencyVector::from_raw(vec![4]));
        let b = SharedDv::new(DependencyVector::from_raw(vec![4]));
        assert!(!Rc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(format!("{a}"), "(4)");
    }
}
