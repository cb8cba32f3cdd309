//! Equivalence of the bitset-based merge reporting against a reference
//! implementation: `DependencyVector::merge_from` must report exactly the
//! same updated set, and produce the same final vector, as the obvious
//! `Vec<ProcessId>`-collecting merge it replaced — across system sizes
//! that exercise the inline representation (n ≤ 16), the heap spill, the
//! switch from the one-word branch-free kernel (n ≤ 64) to the guarded
//! store (n = 65), and the `UpdateSet` high-bit spill (n > 128); and with
//! pairs whose every entry is news.

use proptest::prelude::*;

use rdt_base::{DependencyVector, ProcessId, UpdateSet};

/// The pre-optimization reference: componentwise max, updates collected
/// into a vector in ascending process order.
fn reference_merge(mine: &mut [usize], theirs: &[usize]) -> Vec<ProcessId> {
    assert_eq!(mine.len(), theirs.len());
    let mut updated = Vec::new();
    for (i, (m, t)) in mine.iter_mut().zip(theirs).enumerate() {
        if *t > *m {
            *m = *t;
            updated.push(ProcessId::new(i));
        }
    }
    updated
}

fn vec_pair(n: usize) -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (
        prop::collection::vec(0usize..64, n),
        prop::collection::vec(0usize..64, n),
    )
}

/// A [`vec_pair`] at one of `sizes`; one draw in four puts every entry of
/// the second vector ahead of the first's, so every entry is news.
fn pair_at(sizes: Vec<usize>) -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    let longest = *sizes.iter().max().expect("a size");
    (prop::sample::select(sizes), vec_pair(longest), 0u8..4).prop_map(
        |(n, (mut a, mut b), draw)| {
            a.truncate(n);
            b.truncate(n);
            if draw == 0 {
                b.iter_mut().zip(&a).for_each(|(t, m)| *t += m + 1);
            }
            (a, b)
        },
    )
}

fn check_equivalence(a: Vec<usize>, b: Vec<usize>) {
    let mut reference = a.clone();
    let expected_updates = reference_merge(&mut reference, &b);

    let mut dv = DependencyVector::from_raw(a);
    let other = DependencyVector::from_raw(b);
    let updated = dv.merge_from(&other);

    assert_eq!(dv.to_raw(), reference, "merged vectors diverged");
    assert_eq!(updated.to_vec(), expected_updates, "update sets diverged");
    assert_eq!(updated.len(), expected_updates.len());
    assert_eq!(updated.is_empty(), expected_updates.is_empty());
    for p in &expected_updates {
        assert!(updated.contains(*p));
    }
    // The reusable-buffer variant reports identically.
    let mut dv2 = DependencyVector::from_raw(reference.clone());
    let mut scratch: UpdateSet = [ProcessId::new(0)].into_iter().collect();
    dv2.merge_from_into(&other, &mut scratch);
    assert!(scratch.is_empty(), "re-merge must clear the scratch set");
}

/// Unpacked reference model for the packed-word kernels: entries as plain
/// `(u32 incarnation, usize interval)` pairs compared lexicographically —
/// exactly the pre-packing `DvEntry` struct. The packed `u64` kernels
/// (`merge_from_into`, `dominated_by`, `would_learn_from`, `join`) must
/// agree with this model entry for entry.
mod unpacked {
    pub type Entry = (u32, usize);

    pub fn merge(mine: &mut [Entry], theirs: &[Entry]) -> Vec<usize> {
        let mut updated = Vec::new();
        for (i, (m, t)) in mine.iter_mut().zip(theirs).enumerate() {
            // Lexicographic: tuple Ord.
            if *t > *m {
                *m = *t;
                updated.push(i);
            }
        }
        updated
    }

    pub fn dominated_by(a: &[Entry], b: &[Entry]) -> bool {
        a.iter().zip(b).all(|(x, y)| x <= y)
    }

    pub fn would_learn(mine: &[Entry], theirs: &[Entry]) -> bool {
        mine.iter().zip(theirs).any(|(m, t)| t > m)
    }

    pub fn join(a: &[Entry], b: &[Entry]) -> Vec<Entry> {
        a.iter().zip(b).map(|(x, y)| *x.max(y)).collect()
    }
}

/// Cross-incarnation entry pairs: small incarnations and intervals so the
/// two components actually interact (newer incarnation at lower interval).
type LineagePair = (Vec<(u32, usize)>, Vec<(u32, usize)>);

fn lineage_pair(n: usize) -> impl Strategy<Value = LineagePair> {
    (
        prop::collection::vec((0u32..4, 0usize..16), n),
        prop::collection::vec((0u32..4, 0usize..16), n),
    )
}

/// A [`lineage_pair`] at one of `sizes`; one draw in four puts every entry
/// of the second vector ahead of the first's, half of them by a newer
/// incarnation at a lower interval.
fn lineage_at(sizes: Vec<usize>) -> impl Strategy<Value = LineagePair> {
    let longest = *sizes.iter().max().expect("a size");
    (prop::sample::select(sizes), lineage_pair(longest), 0u8..4).prop_map(
        |(n, (mut a, mut b), draw)| {
            a.truncate(n);
            b.truncate(n);
            if draw == 0 {
                for (i, (t, m)) in b.iter_mut().zip(&a).enumerate() {
                    *t = if i % 2 == 0 {
                        (m.0, m.1 + 1 + t.1)
                    } else {
                        (m.0 + 1, t.1 % (m.1 + 1))
                    };
                }
            }
            (a, b)
        },
    )
}

fn check_packed_against_unpacked(a: Vec<(u32, usize)>, b: Vec<(u32, usize)>) {
    let mut reference = a.clone();
    let expected_updates = unpacked::merge(&mut reference, &b);

    let mut dv = DependencyVector::from_lineages(a.clone());
    let other = DependencyVector::from_lineages(b.clone());

    // Pre-merge predicates against the model.
    assert_eq!(
        dv.would_learn_from(&other),
        unpacked::would_learn(&a, &b),
        "would_learn_from diverged"
    );
    assert_eq!(
        dv.dominated_by(&other),
        unpacked::dominated_by(&a, &b),
        "dominated_by diverged"
    );
    assert_eq!(
        other.dominated_by(&dv),
        unpacked::dominated_by(&b, &a),
        "dominated_by diverged (flipped)"
    );
    assert_eq!(
        dv.join(&other).to_raw_lineages(),
        unpacked::join(&a, &b),
        "join diverged"
    );

    // The merge itself: final vector and update report.
    let updated = dv.merge_from(&other);
    assert_eq!(dv.to_raw_lineages(), reference, "merged vectors diverged");
    assert_eq!(
        updated.to_vec(),
        expected_updates
            .iter()
            .map(|&i| ProcessId::new(i))
            .collect::<Vec<_>>(),
        "update sets diverged"
    );

    // Post-merge algebra: the merge result dominates both operands.
    assert!(
        other.dominated_by(&dv),
        "merge result must dominate the merged-in operand"
    );
    assert!(DependencyVector::from_lineages(a).dominated_by(&dv));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Inline representation (n ≤ 16).
    #[test]
    fn bitset_merge_matches_reference_inline(pair in pair_at(vec![7])) {
        check_equivalence(pair.0, pair.1);
    }

    /// Heap representation, single bitset word (16 < n ≤ 128), either
    /// side of the one-word kernel's limit: n = 64 branch-free, n = 65
    /// guarded.
    #[test]
    fn bitset_merge_matches_reference_heap(pair in pair_at(vec![40, 64, 65])) {
        check_equivalence(pair.0, pair.1);
    }

    /// Spilled bitset (n > 128).
    #[test]
    fn bitset_merge_matches_reference_spill(pair in pair_at(vec![150])) {
        check_equivalence(pair.0, pair.1);
    }

    /// Packed kernels vs the unpacked model, inline representation — with
    /// cross-incarnation entries, where lexicographic ≠ interval order.
    #[test]
    fn packed_kernels_match_unpacked_model_inline(pair in lineage_at(vec![5])) {
        check_packed_against_unpacked(pair.0, pair.1);
    }

    /// Packed kernels vs the unpacked model at the inline/heap boundary.
    #[test]
    fn packed_kernels_match_unpacked_model_at_cap(pair in lineage_at(vec![16])) {
        check_packed_against_unpacked(pair.0, pair.1);
    }

    /// Packed kernels vs the unpacked model, heap representation, at the
    /// one-word kernel's limit (n = 64) and across a full update-report
    /// word boundary (n > 64).
    #[test]
    fn packed_kernels_match_unpacked_model_heap(pair in lineage_at(vec![64, 65, 70])) {
        check_packed_against_unpacked(pair.0, pair.1);
    }

    /// Packed kernels vs the unpacked model with a spilled update report
    /// (n > 128).
    #[test]
    fn packed_kernels_match_unpacked_model_spill(pair in lineage_at(vec![140])) {
        check_packed_against_unpacked(pair.0, pair.1);
    }
}
