//! Wang's decentralized minimum / maximum consistent global checkpoints
//! (reference \[20\] of the paper), computed **online**.
//!
//! Under RDT every checkpoint dependency is causal and captured by the
//! dependency vectors stored alongside the checkpoints (Section 4.2), so
//! each process can compute its own component of the extreme consistent
//! global checkpoints containing a target set `S` from purely local state
//! plus the targets' vectors — no coordinator, no extra rounds. This module
//! is the online counterpart of the offline
//! [`Ccp::max_consistent_containing`] / [`Ccp::min_consistent_containing`]
//! oracles, and is cross-checked against them by the crate's property
//! tests.
//!
//! [`Ccp::max_consistent_containing`]: https://docs.rs/rdt-ccp
//! [`Ccp::min_consistent_containing`]: https://docs.rs/rdt-ccp

use rdt_base::{CheckpointIndex, DependencyVector, ProcessId};
use rdt_protocols::Middleware;

/// A target local checkpoint that must be contained in the computed global
/// checkpoint: `(process, checkpoint index)`. The volatile state is
/// addressed as `last_stable + 1`.
pub type Target = (ProcessId, CheckpointIndex);

/// The **maximum** consistent global checkpoint containing `targets`:
/// componentwise, the latest general checkpoint of each non-target process
/// that does not causally follow any target.
///
/// Returns one component per process (`last_stable + 1` denotes a volatile
/// state), or `None` when:
///
/// * a target is not resolvable (not in stable storage and not volatile —
///   e.g. already garbage collected);
/// * two targets name different checkpoints of the same process;
/// * the targets are mutually inconsistent; or
/// * some process has no stored checkpoint old enough (collected by GC),
///   so its component cannot be *restored* — the calculation is for
///   recovery, and an unrestorable component is useless.
///
/// Requires RD-trackable executions (all RDT protocols of this workspace).
pub fn max_consistent_containing(
    processes: &[Middleware],
    targets: &[Target],
) -> Option<Vec<CheckpointIndex>> {
    let resolved = resolve_targets(processes, targets)?;
    processes
        .iter()
        .map(|mw| {
            let i = mw.owner();
            if let Some(&(_, index, _)) = resolved.iter().find(|&&(q, _, _)| q == i) {
                return Some(index);
            }
            // Candidates newest-first: the volatile state, then the stored
            // checkpoints.
            let volatile = (mw.last_stable().next(), mw.dv().clone());
            let follows_a_target = |dv: &DependencyVector| {
                resolved
                    .iter()
                    .any(|&(q, gamma, _)| dv.dominates_checkpoint(q, gamma))
            };
            if !follows_a_target(&volatile.1) {
                return Some(volatile.0);
            }
            mw.store()
                .iter()
                .rev()
                .find(|(_, dv)| !follows_a_target(dv))
                .map(|(index, _)| index)
        })
        .collect()
}

/// The **minimum** consistent global checkpoint containing `targets`:
/// componentwise, the earliest general checkpoint of each non-target
/// process that no target causally depends on past — i.e.
/// `max_t DV(t)[i]`, directly from the targets' stored vectors (this is
/// where RDT's on-the-fly trackability shines: one vector read per target).
///
/// Same return conventions and failure conditions as
/// [`max_consistent_containing`], except no store scan is needed, so GC
/// never makes a component unrestorable here — the minimum's components are
/// exactly the knowledge horizons the targets pin, which Theorem 2 keeps
/// stored.
pub fn min_consistent_containing(
    processes: &[Middleware],
    targets: &[Target],
) -> Option<Vec<CheckpointIndex>> {
    let resolved = resolve_targets(processes, targets)?;
    Some(
        processes
            .iter()
            .map(|mw| {
                let i = mw.owner();
                if let Some(&(_, index, _)) = resolved.iter().find(|&&(q, _, _)| q == i) {
                    return index;
                }
                let k = resolved
                    .iter()
                    .map(|(_, _, dv)| dv.entry(i).value())
                    .max()
                    .unwrap_or(0);
                CheckpointIndex::new(k)
            })
            .collect(),
    )
}

/// Resolves each target's dependency vector and validates the set:
/// one checkpoint per process, pairwise consistent.
fn resolve_targets(
    processes: &[Middleware],
    targets: &[Target],
) -> Option<Vec<(ProcessId, CheckpointIndex, DependencyVector)>> {
    let mut resolved: Vec<(ProcessId, CheckpointIndex, DependencyVector)> = Vec::new();
    for &(q, gamma) in targets {
        if q.index() >= processes.len() {
            return None;
        }
        if let Some(&(_, prev, _)) = resolved.iter().find(|&&(r, _, _)| r == q) {
            if prev != gamma {
                return None; // conflicting targets on one process
            }
            continue; // duplicate
        }
        let mw = &processes[q.index()];
        let mut dv = mw.dv().clone();
        if gamma != mw.last_stable().next() {
            mw.store().dv(gamma, &mut dv).ok()?;
        }
        resolved.push((q, gamma, dv));
    }
    // Pairwise consistency: t → t' iff DV(t')[t.process] > t.index.
    for (k, (q1, g1, _)) in resolved.iter().enumerate() {
        for (q2, g2, dv2) in &resolved[k + 1..] {
            let dv1 = &resolved[k].2;
            if dv2.dominates_checkpoint(*q1, *g1) || dv1.dominates_checkpoint(*q2, *g2) {
                return None;
            }
        }
    }
    Some(resolved)
}

#[cfg(test)]
mod tests {
    use rdt_base::Payload;
    use rdt_core::GcKind;
    use rdt_protocols::ProtocolKind;

    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    /// p0 ckpt s^1 → m → p1 ckpt s^1 → m → p2, retaining everything.
    fn chain() -> Vec<Middleware> {
        let mut mws: Vec<Middleware> = (0..3)
            .map(|i| Middleware::new(p(i), 3, ProtocolKind::Fdas, GcKind::None))
            .collect();
        mws[0].basic_checkpoint().unwrap();
        let m = mws[0].send(p(1), Payload::empty());
        mws[1].receive(&m).unwrap();
        mws[1].basic_checkpoint().unwrap();
        let m = mws[1].send(p(2), Payload::empty());
        mws[2].receive(&m).unwrap();
        mws
    }

    #[test]
    fn empty_targets_give_the_extremes() {
        let mws = chain();
        let max = max_consistent_containing(&mws, &[]).unwrap();
        // Everyone's volatile state.
        assert_eq!(max, vec![idx(2), idx(2), idx(1)]);
        let min = min_consistent_containing(&mws, &[]).unwrap();
        assert_eq!(min, vec![idx(0), idx(0), idx(0)]);
    }

    #[test]
    fn max_avoids_checkpoints_following_the_target() {
        let mws = chain();
        // Target s_0^0: any knowledge of p0 at all (interval ≥ 1 > 0)
        // causally follows it, and p0's news reached p1 directly and p2
        // transitively, so every later checkpoint drops out.
        let max = max_consistent_containing(&mws, &[(p(0), idx(0))]).unwrap();
        assert_eq!(max[0], idx(0));
        assert_eq!(max[1], idx(0));
        assert_eq!(max[2], idx(0), "p2 heard of p0 through p1's message");
    }

    #[test]
    fn min_reads_target_vectors() {
        let mws = chain();
        // Target p2's volatile state: it depends on p0 interval 2 and p1
        // interval 2 (transitively), so the minimum is (1, 1, volatile)...
        // DV(v_2) = [2, 2, 1] → components max(DV)[i] = 2, 2.
        let min = min_consistent_containing(&mws, &[(p(2), idx(1))]).unwrap();
        assert_eq!(min, vec![idx(2), idx(2), idx(1)]);
    }

    #[test]
    fn conflicting_targets_yield_none() {
        let mws = chain();
        assert!(max_consistent_containing(&mws, &[(p(0), idx(0)), (p(0), idx(1))]).is_none());
        assert!(min_consistent_containing(&mws, &[(p(0), idx(0)), (p(0), idx(1))]).is_none());
    }

    #[test]
    fn duplicate_targets_are_tolerated() {
        let mws = chain();
        let a = max_consistent_containing(&mws, &[(p(0), idx(1))]).unwrap();
        let b = max_consistent_containing(&mws, &[(p(0), idx(1)), (p(0), idx(1))]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn inconsistent_targets_yield_none() {
        let mws = chain();
        // s_0^1 → s_1^1 through the message: inconsistent pair.
        assert!(max_consistent_containing(&mws, &[(p(0), idx(1)), (p(1), idx(1))]).is_none());
    }

    #[test]
    fn unresolvable_target_yields_none() {
        let mws = chain();
        assert!(max_consistent_containing(&mws, &[(p(0), idx(9))]).is_none());
        assert!(max_consistent_containing(&mws, &[(p(9), idx(0))]).is_none());
    }

    #[test]
    fn volatile_targets_are_addressable() {
        let mws = chain();
        // p0's volatile state is index 2 (last stable 1 + 1).
        let max = max_consistent_containing(&mws, &[(p(0), idx(2))]).unwrap();
        assert_eq!(max[0], idx(2));
    }
}
