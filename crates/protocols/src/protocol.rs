//! Communication-induced checkpointing protocols: the forced-checkpoint
//! decision rules.

use std::fmt;

use serde::{Deserialize, Serialize};

use rdt_base::{DependencyVector, SharedDv};

/// Which communication-induced checkpointing protocol a process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// No forced checkpoints at all. **Not** RD-trackable; kept as the
    /// baseline that exhibits useless checkpoints and the domino effect
    /// (paper Figure 2).
    NoForced,
    /// Checkpoint-before-receive: a forced checkpoint before *every*
    /// delivery. Trivially RDT, maximally expensive in forced checkpoints.
    Cbr,
    /// Checkpoint-after-send: a forced checkpoint right after *every* send,
    /// so a send is always the last communication event of its interval.
    /// RDT (Wang's CAS model).
    Cas,
    /// Checkpoint-after-send-before-receive: the union of [`Cas`] and
    /// [`Cbr`] — every communication event sits alone at an interval
    /// boundary. RDT; the most expensive model in Wang's hierarchy.
    ///
    /// [`Cas`]: ProtocolKind::Cas
    /// [`Cbr`]: ProtocolKind::Cbr
    Casbr,
    /// Mark-receive-send (Russell's model): within each interval all
    /// receives precede all sends, enforced by forcing a checkpoint before a
    /// delivery whenever a send already happened in the current interval.
    /// RDT (Wang's MRS model).
    Mrs,
    /// Fixed-dependency-interval: force whenever a received message brings
    /// new causal information, so the dependency vector is constant within
    /// each interval. RDT; fewer forced checkpoints than CBR.
    Fdi,
    /// Wang's fixed-dependency-after-send — the protocol the paper merges
    /// with RDT-LGC in Algorithm 4: force only when new causal information
    /// arrives *after a send* in the current interval. RDT; fewer forced
    /// checkpoints than FDI.
    Fdas,
    /// Briatico–Ciuffoletti–Simoncini index-based protocol: piggyback a
    /// checkpoint index, force when a higher index arrives. Domino-free (no
    /// zigzag cycles) but **not** RDT; used only in the forced-checkpoint
    /// comparison.
    Bcs,
}

impl ProtocolKind {
    /// All protocols, for sweeps.
    pub const ALL: [ProtocolKind; 8] = [
        ProtocolKind::NoForced,
        ProtocolKind::Cbr,
        ProtocolKind::Cas,
        ProtocolKind::Casbr,
        ProtocolKind::Mrs,
        ProtocolKind::Fdi,
        ProtocolKind::Fdas,
        ProtocolKind::Bcs,
    ];

    /// The RDT subfamily (Wang's model hierarchy), for sweeps that need
    /// RD-trackable executions.
    pub const RDT: [ProtocolKind; 6] = [
        ProtocolKind::Cbr,
        ProtocolKind::Cas,
        ProtocolKind::Casbr,
        ProtocolKind::Mrs,
        ProtocolKind::Fdi,
        ProtocolKind::Fdas,
    ];

    /// Whether the protocol guarantees rollback-dependency trackability.
    pub fn ensures_rdt(self) -> bool {
        matches!(
            self,
            ProtocolKind::Cbr
                | ProtocolKind::Cas
                | ProtocolKind::Casbr
                | ProtocolKind::Mrs
                | ProtocolKind::Fdi
                | ProtocolKind::Fdas
        )
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolKind::NoForced => "no-forced",
            ProtocolKind::Cbr => "cbr",
            ProtocolKind::Cas => "cas",
            ProtocolKind::Casbr => "casbr",
            ProtocolKind::Mrs => "mrs",
            ProtocolKind::Fdi => "fdi",
            ProtocolKind::Fdas => "fdas",
            ProtocolKind::Bcs => "bcs",
        };
        f.write_str(s)
    }
}

/// The control information a protocol piggybacks on application messages:
/// the dependency vector all RDT protocols propagate (Section 4.2) plus the
/// scalar checkpoint index used by BCS.
///
/// The vector is interned behind a thread-local [`SharedDv`] shared with
/// the sender's snapshot cache: constructing, cloning and queueing
/// piggybacks is pointer-cheap with no atomic refcount traffic, and a burst
/// of sends from an unchanged interval shares one allocation (the
/// middleware copies on local mutation). A piggyback never leaves its
/// thread: a runtime that moves a message to another thread or process
/// ships the vector and the index as plain data, and the receiver hands
/// them to [`Middleware::receive_vector_into`](crate::Middleware::receive_vector_into).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Piggyback {
    /// The sender's dependency vector at send time (`m.DV`).
    pub dv: SharedDv,
    /// The sender's BCS checkpoint index (ignored by other protocols).
    pub index: u64,
}

impl Piggyback {
    /// Creates a piggyback from an owned vector (wrapped) or an interned
    /// [`SharedDv`] (shared without copying).
    pub fn new(dv: impl Into<SharedDv>, index: u64) -> Self {
        Self {
            dv: dv.into(),
            index,
        }
    }
}

/// Per-process protocol state: the flags the forced-checkpoint rules read.
///
/// The transcribed Algorithm 4 of the paper initializes its receive handler
/// with `forced ← true`, which would make FDAS force on *every* fresh
/// dependency; the actual FDAS rule fixes dependencies *after a send*, so we
/// implement `forced ← sent` (see DESIGN.md).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolState {
    kind: ProtocolKind,
    /// FDAS's `sent` flag: a message was sent in the current interval.
    sent: bool,
    /// BCS checkpoint index.
    index: u64,
    forced_count: u64,
}

impl ProtocolState {
    /// Creates the initial protocol state.
    pub fn new(kind: ProtocolKind) -> Self {
        Self {
            kind,
            sent: false,
            index: 0,
            forced_count: 0,
        }
    }

    /// The protocol in force.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Forced checkpoints taken so far.
    pub fn forced_count(&self) -> u64 {
        self.forced_count
    }

    /// The current BCS index (meaningful only for [`ProtocolKind::Bcs`]).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Whether a forced checkpoint must be stored *before* processing a
    /// message whose piggyback is `m`, given the local vector `dv`.
    pub fn must_force(&self, dv: &DependencyVector, m: &Piggyback) -> bool {
        self.must_force_with(m.index, || dv.would_learn_from(&m.dv))
    }

    /// The rule itself, with the O(n) question — would the piggybacked
    /// vector bring new causal information? — asked through `learns` only
    /// by the kinds that depend on it (FDI; FDAS after a send), so a caller
    /// that already knows the answer need not scan for it.
    pub fn must_force_with(&self, their_index: u64, learns: impl FnOnce() -> bool) -> bool {
        match self.kind {
            ProtocolKind::NoForced | ProtocolKind::Cas => false,
            ProtocolKind::Cbr | ProtocolKind::Casbr => true,
            ProtocolKind::Mrs => self.sent,
            ProtocolKind::Fdi => learns(),
            ProtocolKind::Fdas => self.sent && learns(),
            ProtocolKind::Bcs => their_index > self.index,
        }
    }

    /// Whether a forced checkpoint must be stored right *after* a send (the
    /// CAS and CASBR models). The piggyback of the sent message carries the
    /// pre-checkpoint vector; the new interval begins after the send.
    pub fn must_force_after_send(&self) -> bool {
        matches!(self.kind, ProtocolKind::Cas | ProtocolKind::Casbr)
    }

    /// Notes a send ("Before sending m": `sent ← true`).
    pub fn note_send(&mut self) {
        self.sent = true;
    }

    /// Notes a stored checkpoint ("On taking checkpoint": `sent ← false`);
    /// `forced` distinguishes protocol-induced checkpoints. For BCS a basic
    /// checkpoint increments the index.
    pub fn note_checkpoint(&mut self, forced: bool) {
        self.sent = false;
        if forced {
            self.forced_count += 1;
        } else {
            self.index += 1;
        }
    }

    /// Notes a processed receive, letting BCS adopt a higher index.
    pub fn note_receive(&mut self, m: &Piggyback) {
        self.note_receive_index(m.index);
    }

    /// [`note_receive`](Self::note_receive) over the piggybacked index
    /// alone: the middleware's receive path, whose vector may arrive as a
    /// bare one.
    pub fn note_receive_index(&mut self, their_index: u64) {
        if self.kind == ProtocolKind::Bcs && their_index > self.index {
            self.index = their_index;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pb(raw: Vec<usize>, index: u64) -> Piggyback {
        Piggyback::new(DependencyVector::from_raw(raw), index)
    }

    #[test]
    fn no_forced_never_forces() {
        let s = ProtocolState::new(ProtocolKind::NoForced);
        let dv = DependencyVector::from_raw(vec![0, 0]);
        assert!(!s.must_force(&dv, &pb(vec![9, 9], 9)));
    }

    #[test]
    fn cbr_always_forces() {
        let s = ProtocolState::new(ProtocolKind::Cbr);
        let dv = DependencyVector::from_raw(vec![5, 5]);
        assert!(s.must_force(&dv, &pb(vec![0, 0], 0)), "even stale messages");
    }

    #[test]
    fn fdi_forces_only_on_news() {
        let s = ProtocolState::new(ProtocolKind::Fdi);
        let dv = DependencyVector::from_raw(vec![2, 2]);
        assert!(s.must_force(&dv, &pb(vec![0, 3], 0)));
        assert!(!s.must_force(&dv, &pb(vec![2, 2], 0)));
    }

    #[test]
    fn fdas_requires_a_prior_send() {
        let mut s = ProtocolState::new(ProtocolKind::Fdas);
        let dv = DependencyVector::from_raw(vec![2, 2]);
        let news = pb(vec![0, 3], 0);
        assert!(!s.must_force(&dv, &news), "no send yet in this interval");
        s.note_send();
        assert!(s.must_force(&dv, &news));
        s.note_checkpoint(true); // new interval clears the flag
        assert!(!s.must_force(&dv, &news));
    }

    #[test]
    fn bcs_follows_indices() {
        let mut s = ProtocolState::new(ProtocolKind::Bcs);
        let dv = DependencyVector::from_raw(vec![0, 0]);
        assert!(!s.must_force(&dv, &pb(vec![0, 0], 0)));
        assert!(s.must_force(&dv, &pb(vec![0, 0], 1)));
        s.note_receive(&pb(vec![0, 0], 3));
        assert_eq!(s.index(), 3);
        assert!(!s.must_force(&dv, &pb(vec![0, 0], 3)));
        // Basic checkpoints advance the index.
        s.note_checkpoint(false);
        assert_eq!(s.index(), 4);
    }

    #[test]
    fn forced_counter_counts_only_forced() {
        let mut s = ProtocolState::new(ProtocolKind::Fdas);
        s.note_checkpoint(false);
        s.note_checkpoint(true);
        s.note_checkpoint(true);
        assert_eq!(s.forced_count(), 2);
    }

    #[test]
    fn rdt_classification() {
        assert!(!ProtocolKind::NoForced.ensures_rdt());
        assert!(!ProtocolKind::Bcs.ensures_rdt());
        for kind in ProtocolKind::RDT {
            assert!(kind.ensures_rdt(), "{kind}");
        }
    }

    #[test]
    fn rdt_subfamily_is_a_subset_of_all() {
        for kind in ProtocolKind::RDT {
            assert!(ProtocolKind::ALL.contains(&kind));
        }
    }

    #[test]
    fn cas_forces_after_send_never_before_receive() {
        let s = ProtocolState::new(ProtocolKind::Cas);
        assert!(s.must_force_after_send());
        let dv = DependencyVector::from_raw(vec![0, 0]);
        assert!(!s.must_force(&dv, &pb(vec![9, 9], 9)));
    }

    #[test]
    fn casbr_forces_on_both_sides() {
        let s = ProtocolState::new(ProtocolKind::Casbr);
        assert!(s.must_force_after_send());
        let dv = DependencyVector::from_raw(vec![5, 5]);
        assert!(s.must_force(&dv, &pb(vec![0, 0], 0)), "even stale messages");
    }

    #[test]
    fn mrs_forces_only_when_a_send_precedes_the_receive() {
        let mut s = ProtocolState::new(ProtocolKind::Mrs);
        assert!(!s.must_force_after_send());
        let dv = DependencyVector::from_raw(vec![0, 0]);
        let stale = pb(vec![0, 0], 0);
        assert!(!s.must_force(&dv, &stale), "no send yet in this interval");
        s.note_send();
        assert!(
            s.must_force(&dv, &stale),
            "even stale info breaks MRS order"
        );
        s.note_checkpoint(true);
        assert!(!s.must_force(&dv, &stale));
    }

    #[test]
    fn only_cas_family_forces_after_send() {
        for kind in ProtocolKind::ALL {
            let expected = matches!(kind, ProtocolKind::Cas | ProtocolKind::Casbr);
            assert_eq!(
                ProtocolState::new(kind).must_force_after_send(),
                expected,
                "{kind}"
            );
        }
    }

    #[test]
    fn display_names_are_stable_for_new_kinds() {
        assert_eq!(ProtocolKind::Cas.to_string(), "cas");
        assert_eq!(ProtocolKind::Casbr.to_string(), "casbr");
        assert_eq!(ProtocolKind::Mrs.to_string(), "mrs");
    }
}
