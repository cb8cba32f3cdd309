//! Algorithm 3 against its definition, through incarnations.
//!
//! A generated history of one process — checkpoints, news about its peers
//! (now and then of a peer's newer incarnation), rollbacks that open a fresh
//! incarnation of its own — runs under a collector. At every rollback the
//! collector's `UC`, the checkpoints it keeps and the ones it eliminates, in
//! order, must equal a brute-force reading of Theorem 1 over the store as
//! it stood: every stored checkpoint is tested for every process, and
//! nothing is searched. The `LI` vector handed to a rollback names entries
//! the store knows, entries just past them, fresh incarnations nothing
//! knows yet, or nothing at all; RDT-LGC is also rolled back without one
//! (the uncoordinated variant, `DV` in place of `LI`). Wang et al.'s
//! coordinated collector eliminates by the same theorem and is held to the
//! same reference.

use proptest::prelude::*;

use rdt_base::{CheckpointIndex, DependencyVector, DvEntry, Incarnation, ProcessId};
use rdt_core::{CheckpointStore, GarbageCollector, LastIntervals, RdtLgc, WangGlobalGc};

/// What a rollback must leave behind.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    uc: Vec<Option<CheckpointIndex>>,
    retained: Vec<CheckpointIndex>,
    eliminated: Vec<CheckpointIndex>,
}

/// Theorem 1 by brute force: after rolling back to `ri`, process `f` pins
/// the stored `γ` with `DV(s^γ)[f] < LI[f] ≤ DV(c^{γ+1})[f]`, the successor
/// being the next stored checkpoint or the volatile state `dv`. Everything
/// after `ri` goes first, then every unpinned checkpoint, oldest first.
fn theorem1(
    stored: &[(CheckpointIndex, DependencyVector)],
    ri: CheckpointIndex,
    li: &[DvEntry],
    dv: &DependencyVector,
) -> Expected {
    let (kept, after): (Vec<_>, Vec<_>) = stored.iter().partition(|(idx, _)| *idx <= ri);
    let mut uc = vec![None; li.len()];
    for (f, &target) in ProcessId::all(li.len()).zip(li) {
        for (k, (idx, at)) in kept.iter().enumerate() {
            let successor = kept.get(k + 1).map_or(dv, |(_, next)| next);
            if at.lineage(f) < target && successor.lineage(f) >= target {
                uc[f.index()] = Some(*idx);
            }
        }
    }
    let (retained, unpinned): (Vec<_>, Vec<_>) = kept
        .iter()
        .map(|(idx, _)| *idx)
        .partition(|idx| uc.contains(&Some(*idx)));
    let eliminated = after.iter().map(|(idx, _)| *idx).chain(unpinned).collect();
    Expected {
        uc,
        retained,
        eliminated,
    }
}

/// One step of the history, decoded from the raw draw `(kind, pick, by,
/// li)`: kinds 0–3 checkpoint, 4–7 learn news of peer `pick` (of a newer
/// incarnation when `by` is 0), 8–9 roll back to the stored checkpoint
/// `pick` with the `LI` picks `li`.
type Draw = (u8, prop::sample::Index, usize, Vec<(u8, usize)>);

fn history() -> impl Strategy<Value = (usize, prop::sample::Index, Vec<Draw>)> {
    let step = (
        0u8..10,
        any::<prop::sample::Index>(),
        0usize..4,
        prop::collection::vec((0u8..4, 0usize..64), 6),
    );
    (
        2usize..7,
        any::<prop::sample::Index>(),
        prop::collection::vec(step, 1..48),
    )
}

/// Runs one history under `gc`; `checked` receives every rollback's
/// outcome and the reference it must equal. `with_li(k)` says whether the
/// `k`-th rollback is given `LI`.
fn replay<G: GarbageCollector>(
    n: usize,
    owner: ProcessId,
    steps: &[Draw],
    mut gc: G,
    with_li: impl Fn(usize) -> bool,
    mut checked: impl FnMut(&G, &CheckpointStore, Vec<CheckpointIndex>, Expected),
) {
    let mut store = CheckpointStore::new(owner);
    let mut dv = DependencyVector::new(n);
    // The highest incarnation of each process anyone has heard of.
    let mut top = vec![0u32; n];
    let mut rollbacks = 0;
    let checkpoint = |gc: &mut G, store: &mut CheckpointStore, dv: &mut DependencyVector| {
        let index = dv.entry(owner).as_checkpoint();
        store.insert(index, dv.clone());
        gc.after_checkpoint(store, index, dv);
        dv.begin_next_interval(owner);
    };
    checkpoint(&mut gc, &mut store, &mut dv);
    for (kind, pick, by, li_picks) in steps {
        match kind {
            0..=3 => checkpoint(&mut gc, &mut store, &mut dv),
            4..=7 => {
                let of = (owner.index() + 1 + pick.index(n - 1)) % n;
                let mut raw = dv.to_raw_lineages();
                raw[of] = if *by == 0 {
                    top[of] += 1;
                    (top[of], 0)
                } else {
                    (raw[of].0, raw[of].1 + by)
                };
                let updated = dv.merge_from(&DependencyVector::from_lineages(raw));
                gc.after_receive(&mut store, &updated, &dv);
            }
            _ => {
                let stored: Vec<_> = store.iter().map(|(i, v)| (i, v.clone())).collect();
                let (ri, restored) = &stored[pick.index(stored.len())];
                top[owner.index()] += 1;
                let mut post = restored.clone();
                post.resume_incarnation(owner, Incarnation::new(top[owner.index()]));
                // What the store and the restored state know of each peer.
                let known = |f: ProcessId| {
                    stored
                        .iter()
                        .map(move |(_, v)| v.lineage(f))
                        .chain([post.lineage(f)])
                };
                let li: Vec<DvEntry> = ProcessId::all(n)
                    .zip(li_picks)
                    .map(|(f, &(mode, x))| {
                        let seen: Vec<DvEntry> = known(f).collect();
                        let entry = seen[x % seen.len()];
                        match mode {
                            _ if f == owner => post.lineage(owner),
                            0 => entry,
                            1 => entry.next_interval(),
                            2 => DvEntry::new(
                                Incarnation::new(top[f.index()] + 1),
                                rdt_base::IntervalIndex::new(x % 3),
                            ),
                            _ => DvEntry::ZERO,
                        }
                    })
                    .collect();
                let li = LastIntervals::from_dv(&DependencyVector::from_lineages(
                    li.iter()
                        .map(|e| (e.incarnation().value(), e.interval().value()))
                        .collect(),
                ));
                let given = with_li(rollbacks).then_some(&li);
                let expected = theorem1(
                    &stored,
                    *ri,
                    given.map_or(post.as_slice(), LastIntervals::as_slice),
                    &post,
                );
                let eliminated = gc.after_rollback(&mut store, *ri, given, &post);
                dv = post;
                rollbacks += 1;
                checked(&gc, &store, eliminated, expected);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// RDT-LGC's rebuild (Algorithm 3, lines 7–17), with `LI` at even
    /// rollbacks and without it at odd ones.
    #[test]
    fn rdt_lgc_rollback_matches_theorem1_by_brute_force(h in history()) {
        let (n, owner, steps) = h;
        let owner = ProcessId::new(owner.index(n));
        replay(n, owner, &steps, RdtLgc::new(owner, n), |k| k % 2 == 0,
            |gc, store, eliminated, expected| {
                prop_assert_eq!(gc.uc_snapshot(), Some(expected.uc));
                prop_assert_eq!(gc.retained(), expected.retained.clone());
                prop_assert_eq!(store.indices().collect::<Vec<_>>(), expected.retained);
                prop_assert_eq!(eliminated, expected.eliminated);
            });
    }

    /// Wang et al.'s collector: Theorem-1 elimination when given `LI`, the
    /// truncation alone when not.
    #[test]
    fn wang_rollback_matches_theorem1_by_brute_force(h in history()) {
        let (n, owner, steps) = h;
        let owner = ProcessId::new(owner.index(n));
        replay(n, owner, &steps, WangGlobalGc::new(n), |_| true,
            |_, store, eliminated, expected| {
                prop_assert_eq!(store.indices().collect::<Vec<_>>(), expected.retained);
                prop_assert_eq!(eliminated, expected.eliminated);
            });
    }
}
