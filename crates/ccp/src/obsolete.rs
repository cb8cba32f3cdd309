//! Obsolete-checkpoint characterizations (Section 3, Theorems 1 and 2).

use std::collections::BTreeSet;

use rdt_base::{CheckpointId, DvEntry, ProcessId};

use crate::model::{Ccp, GeneralCheckpoint};
use crate::recovery_line::FaultySet;

impl Ccp {
    /// **Theorem 1** — exact characterization of obsolete checkpoints in
    /// RD-trackable CCPs: stable checkpoint `s_i^γ` is obsolete iff there is
    /// no process `p_f` with
    /// `s_f^last → c_i^{γ+1}  ∧  s_f^last ↛ s_i^γ`.
    ///
    /// This is the ground-truth oracle the online collectors are validated
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a stable checkpoint of this CCP.
    pub fn is_obsolete(&self, s: CheckpointId) -> bool {
        let g = GeneralCheckpoint::from(s);
        assert!(
            self.exists(g) && !self.is_volatile(g),
            "{s} is not a stable checkpoint of this CCP"
        );
        let next = GeneralCheckpoint::new(s.process, s.index.next());
        !self
            .processes()
            .any(|f| self.last_stable_precedes(f, next) && !self.last_stable_precedes(f, g))
    }

    /// [`is_obsolete`](Self::is_obsolete) on a pattern with replayed
    /// rollbacks: Theorem 1 over the live history, with `s_f^last → c`
    /// tested incarnation-aware
    /// ([`last_stable_precedes_live`](Self::last_stable_precedes_live)), so
    /// knowledge of a dead incarnation of `f` pins nothing, as Lemma 1
    /// amnesties it. Identical to `is_obsolete` on crash-free patterns.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a stable checkpoint of this CCP.
    pub fn is_obsolete_live(&self, s: CheckpointId) -> bool {
        let g = GeneralCheckpoint::from(s);
        assert!(
            self.exists(g) && !self.is_volatile(g),
            "{s} is not a stable checkpoint of this CCP"
        );
        let next = GeneralCheckpoint::new(s.process, s.index.next());
        !self.processes().any(|f| {
            self.last_stable_precedes_live(f, next) && !self.last_stable_precedes_live(f, g)
        })
    }

    /// **Theorem 2** — the causal-knowledge-only sufficient condition:
    /// `s_i^γ` is (identifiably) obsolete if there is no `p_f` with
    /// `last_k_i(f) ≥ 0 ∧ s_f^lastk_i → c_i^{γ+1} ∧ s_f^lastk_i ↛ s_i^γ`,
    /// where `lastk_i(f)` is the last checkpoint of `p_f` that `p_i`'s
    /// volatile state causally knows (Equation 3).
    ///
    /// Everything this returns `true` for is also obsolete under
    /// [`is_obsolete`](Self::is_obsolete); the converse may fail — that gap
    /// is exactly what Theorem 5 proves unavoidable for asynchronous GC.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a stable checkpoint of this CCP.
    pub fn is_causally_identifiable_obsolete(&self, s: CheckpointId) -> bool {
        self.witnesses(s).is_empty()
    }

    /// **Theorem 2's witnesses** of stable checkpoint `s_i^γ`:
    /// `W(s_i^γ) = {f : s_f^lastk_i(f) → c_i^{γ+1} ∧ s_f^lastk_i(f) ↛ s_i^γ}`,
    /// where `lastk_i(f)` is the last checkpoint of `p_f` that `p_i`'s
    /// volatile state causally knows (Equation 3); a process `p_i` knows
    /// no checkpoint of is no witness. These are the processes that keep
    /// `s` from being causally identifiable as obsolete — the set is empty
    /// iff [`is_causally_identifiable_obsolete`](Self::is_causally_identifiable_obsolete)
    /// — and, by Theorem 3, exactly those whose `UC_i` entry RDT-LGC points
    /// at `s`: the answer to "why is this checkpoint still retained?".
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a stable checkpoint of this CCP.
    pub fn witnesses(&self, s: CheckpointId) -> BTreeSet<ProcessId> {
        let (dv_next, dv_s) = self.around(s);
        let known = self.volatile_dv(s.process);
        let witness = |&f: &ProcessId| match known.last_known(f) {
            None => false, // last_k_i(f) = −1
            Some(lastk) => {
                dv_next.dominates_checkpoint(f, lastk) && !dv_s.dominates_checkpoint(f, lastk)
            }
        };
        self.processes().filter(witness).collect()
    }

    /// [`witnesses`](Self::witnesses) on a pattern with replayed
    /// rollbacks: judged on the live history, with every comparison
    /// incarnation-qualified ([`DvEntry`]'s lexicographic order), so that
    /// `s_f^lastk_i(f) → c` reads `DV(c)[f] ≥ DV(v_i)[f]`. Knowledge of `p_f`
    /// that is no newer than `released[f]` witnesses nothing.
    ///
    /// `released` is what a coordinated recovery session (Section 4.3)
    /// took back from `p_i`: `released[f]` is `p_i`'s entry for `p_f` right
    /// after the latest session, if the session's last-interval vector
    /// showed it stale (below `LI[f]`: an earlier checkpoint of `p_f` than
    /// its last, or one of a dead incarnation), and zero otherwise. What
    /// `p_i` knew of a dead incarnation at a session is therefore amnestied
    /// there, as Lemma 1 amnesties it; knowledge that reaches `p_i` after
    /// the session, of whatever incarnation, witnesses as any news does —
    /// `p_i` cannot tell it is stale. All zero on a crash-free pattern, on
    /// which this equals `witnesses`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a stable checkpoint of this CCP, or `released`
    /// has fewer entries than the CCP has processes.
    pub fn witnesses_live(&self, s: CheckpointId, released: &[DvEntry]) -> BTreeSet<ProcessId> {
        let (dv_next, dv_s) = self.around(s);
        let known = self.volatile_dv(s.process);
        let witness = |&f: &ProcessId| {
            let knows = known.lineage(f);
            knows.last_known_checkpoint().is_some()
                && knows > released[f.index()]
                && dv_s.lineage(f) < knows
                && knows <= dv_next.lineage(f)
        };
        self.processes().filter(witness).collect()
    }

    /// The vectors of stable checkpoint `s` and of its successor `c^{γ+1}`.
    fn around(
        &self,
        s: CheckpointId,
    ) -> (&rdt_base::DependencyVector, &rdt_base::DependencyVector) {
        let g = GeneralCheckpoint::from(s);
        assert!(
            self.exists(g) && !self.is_volatile(g),
            "{s} is not a stable checkpoint of this CCP"
        );
        let next = GeneralCheckpoint::new(s.process, s.index.next());
        let dv_next = self.dv(next).expect("γ+1 exists for stable γ");
        (dv_next, self.dv(g).expect("stable checkpoint exists"))
    }

    /// All obsolete stable checkpoints of the CCP (Theorem 1).
    pub fn obsolete_set(&self) -> BTreeSet<CheckpointId> {
        self.stable_checkpoints()
            .filter(|&s| self.is_obsolete(s))
            .collect()
    }

    /// All causally identifiable obsolete checkpoints (Theorem 2) — the set
    /// an *optimal asynchronous* collector must eliminate (Definition 9).
    pub fn causally_identifiable_obsolete_set(&self) -> BTreeSet<CheckpointId> {
        self.stable_checkpoints()
            .filter(|&s| self.is_causally_identifiable_obsolete(s))
            .collect()
    }

    /// **Definition 7** — needlessness by exhaustive enumeration: `s` is
    /// needless iff it belongs to the recovery line of *no* faulty set
    /// `F ⊆ Π`. Exponential in `n`; oracle use only.
    ///
    /// By Lemma 3 this coincides with obsolescence for RD-trackable CCPs.
    pub fn is_needless_exhaustive(&self, s: CheckpointId) -> bool {
        let n = self.n();
        let g = GeneralCheckpoint::from(s);
        for mask in 0u64..(1u64 << n) {
            let faulty: FaultySet = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(ProcessId::new)
                .collect();
            if self.recovery_line(&faulty).component(s.process) == g {
                return false;
            }
        }
        true
    }

    /// **Lemma 2** — needlessness via single failures only: `s` is needless
    /// iff it belongs to no `R_{{p_f}}` for any single faulty process `p_f`
    /// (and is not the process's own last stable checkpoint, which `R_∅`
    /// retains implicitly through the volatile state).
    pub fn is_needless_single_failures(&self, s: CheckpointId) -> bool {
        let g = GeneralCheckpoint::from(s);
        // F = ∅ keeps every volatile state; a stable checkpoint is in R_∅
        // never (volatile components only), so only single failures matter —
        // plus Lemma 2 reduces any larger F to some single failure.
        self.processes().all(|f| {
            let faulty: FaultySet = std::iter::once(f).collect();
            self.recovery_line(&faulty).component(s.process) != g
        })
    }

    /// The checkpoints `p_i` must retain by Theorem 1: for every `p_f` with
    /// `s_f^last → v_i`, the most recent stable checkpoint of `p_i` not
    /// causally preceded by `s_f^last`.
    pub fn retained_set(&self) -> BTreeSet<CheckpointId> {
        self.stable_checkpoints()
            .filter(|&s| !self.is_obsolete(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use rdt_base::CheckpointIndex;

    use super::*;
    use crate::CcpBuilder;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn s(i: usize, idx: usize) -> CheckpointId {
        CheckpointId::new(p(i), CheckpointIndex::new(idx))
    }

    /// p1 checkpoints twice with a message to p2 in between.
    fn small() -> Ccp {
        let mut b = CcpBuilder::new(2);
        b.checkpoint(p(0)); // s_1^1
        b.message(p(0), p(1)); // p2 depends on s_1^1
        b.checkpoint(p(0)); // s_1^2
        b.build()
    }

    #[test]
    fn last_stable_is_never_obsolete() {
        let ccp = small();
        for proc_ in ccp.processes() {
            let last = CheckpointId::new(proc_, ccp.last_stable(proc_));
            assert!(!ccp.is_obsolete(last), "{last}");
        }
    }

    #[test]
    fn superseded_unreferenced_checkpoint_is_obsolete() {
        let mut b = CcpBuilder::new(2);
        b.checkpoint(p(0)); // s_1^1
        b.checkpoint(p(0)); // s_1^2
        let ccp = b.build();
        // No process depends on p1 at all: s_1^0 and s_1^1 are obsolete.
        assert!(ccp.is_obsolete(s(0, 0)));
        assert!(ccp.is_obsolete(s(0, 1)));
        assert!(!ccp.is_obsolete(s(0, 2)));
    }

    #[test]
    fn dependency_pins_a_non_last_checkpoint() {
        // p2's last stable (s_2^0) precedes nothing of p1; but p1's s_1^1
        // precedes p2's volatile. From p2's perspective: s_1^last = s_1^2
        // does NOT precede v_2 (message was sent in interval 2, carrying
        // knowledge of s_1^1 only)… so which of p2's checkpoints pin p1's?
        let ccp = small();
        // s_1^1 → v_2 but s_1^2 ↛ v_2. For p1's checkpoints the only other
        // process is p2 with s_2^last = s_2^0, which precedes only v_2.
        // So ALL of p1's non-last checkpoints are obsolete by Theorem 1.
        assert!(ccp.is_obsolete(s(0, 0)));
        assert!(ccp.is_obsolete(s(0, 1)));
        assert!(!ccp.is_obsolete(s(0, 2)));
        // p2's own s_2^0: s_1^last = s_1^2 ↛ v_2 and ↛ s_2^0; s_2^last is
        // s_2^0 itself (→ v_2, ↛ itself) so it is retained.
        assert!(!ccp.is_obsolete(s(1, 0)));
    }

    #[test]
    fn theorem1_equals_exhaustive_needlessness() {
        let ccp = small();
        for c in ccp.stable_checkpoints() {
            assert_eq!(
                ccp.is_obsolete(c),
                ccp.is_needless_exhaustive(c),
                "Lemma 3 violated at {c}"
            );
        }
    }

    #[test]
    fn lemma2_single_failures_suffice() {
        let ccp = small();
        for c in ccp.stable_checkpoints() {
            assert_eq!(
                ccp.is_needless_exhaustive(c),
                ccp.is_needless_single_failures(c),
                "Lemma 2 violated at {c}"
            );
        }
    }

    #[test]
    fn theorem2_implies_theorem1() {
        let ccp = small();
        for c in ccp.stable_checkpoints() {
            if ccp.is_causally_identifiable_obsolete(c) {
                assert!(ccp.is_obsolete(c), "Theorem 2 unsound at {c}");
            }
        }
    }

    #[test]
    fn knowledge_gap_example() {
        // p3 checkpoints after messaging p2; p2 cannot know about s_3^2, so
        // a checkpoint of p2 pinned by stale knowledge of p3 stays retained
        // by Theorem 2 while Theorem 1 already calls it obsolete.
        let mut b = CcpBuilder::new(2);
        b.checkpoint(p(1)); // s_2^1  (here "p3" is process 1 of a 2-system)
        b.message(p(1), p(0)); // p1 learns s_2^1
        b.checkpoint(p(0)); // s_1^1, depends on s_2^1
        b.checkpoint(p(1)); // s_2^2: p1 never learns of it
        let ccp = b.build();
        // By Theorem 1: is s_1^0 obsolete? p_f = p2: s_2^last = s_2^2.
        // s_2^2 ↛ c_1^1 so no pin from p2 ⇒ s_1^0 obsolete.
        assert!(ccp.is_obsolete(s(0, 0)));
        // By Theorem 2 (p1's knowledge): last_k_1(p2) = 1, s_2^1 → c_1^1
        // and s_2^1 ↛ s_1^0 ⇒ NOT identifiable.
        assert!(!ccp.is_causally_identifiable_obsolete(s(0, 0)));
    }

    #[test]
    fn obsolete_set_and_retained_set_partition_stable_checkpoints() {
        let ccp = small();
        let obsolete = ccp.obsolete_set();
        let retained = ccp.retained_set();
        assert_eq!(obsolete.len() + retained.len(), ccp.stable_count());
        assert!(obsolete.is_disjoint(&retained));
    }

    #[test]
    fn fresh_system_retains_exactly_the_initial_checkpoints() {
        let ccp = CcpBuilder::new(3).build();
        assert!(ccp.obsolete_set().is_empty());
        assert_eq!(ccp.retained_set().len(), 3);
    }
}
