//! The garbage-collector interface shared by RDT-LGC and the baselines.

use std::fmt;

use serde::{Deserialize, Serialize};

use rdt_base::{
    CheckpointIndex, DependencyVector, DvEntry, Incarnation, IntervalIndex, ProcessId, UpdateSet,
};

use crate::store::CheckpointStore;

/// The *last interval vector* a recovery manager distributes during a
/// synchronized recovery session: `LI[j] = last_s(j) + 1` in the CCP defined
/// by the recovery-line cut (Section 4.3, Algorithm 3).
///
/// Entries are incarnation-qualified ([`DvEntry`]): for a process that rolls
/// back during the session, `LI[j]` carries the *fresh* incarnation opened
/// by the rollback, so lexicographic comparison against any pre-rollback
/// knowledge (`DV[j] < LI[j]`) correctly reads "this state does not know
/// `p_j`'s post-recovery last checkpoint" even though the raw interval
/// indices alias.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LastIntervals(Vec<DvEntry>);

impl LastIntervals {
    /// Builds from per-process last-stable indices (`LI[j] = last_s(j)+1`),
    /// all in the initial incarnation — the crash-free constructor.
    pub fn from_last_stable(last_stable: &[CheckpointIndex]) -> Self {
        Self(
            last_stable
                .iter()
                .map(|c| DvEntry::new(Incarnation::ZERO, c.interval_after()))
                .collect(),
        )
    }

    /// Builds from per-process `(last stable, incarnation)` pairs — the
    /// recovery manager's constructor, carrying each process's post-session
    /// incarnation.
    pub fn from_components(components: &[(CheckpointIndex, Incarnation)]) -> Self {
        Self(
            components
                .iter()
                .map(|&(c, v)| DvEntry::new(v, c.interval_after()))
                .collect(),
        )
    }

    /// Builds directly from interval indices (initial incarnation).
    pub fn from_intervals(intervals: Vec<IntervalIndex>) -> Self {
        Self(
            intervals
                .into_iter()
                .map(|g| DvEntry::new(Incarnation::ZERO, g))
                .collect(),
        )
    }

    /// Reuses a dependency vector as the interval source — the paper's
    /// uncoordinated variant, "replacing LI by DV in line 9".
    pub fn from_dv(dv: &DependencyVector) -> Self {
        Self(dv.as_slice().to_vec())
    }

    /// The interval component of the entry for process `j`.
    pub fn entry(&self, j: ProcessId) -> IntervalIndex {
        self.0[j.index()].interval()
    }

    /// The full incarnation-qualified entry for process `j`.
    pub fn lineage(&self, j: ProcessId) -> DvEntry {
        self.0[j.index()]
    }

    /// The incarnation-qualified entries, in process order.
    pub fn as_slice(&self) -> &[DvEntry] {
        &self.0
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for LastIntervals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LI(")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// Which garbage-collection algorithm a process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GcKind {
    /// The paper's asynchronous, optimal RDT-LGC (Algorithms 1–3).
    RdtLgc,
    /// No garbage collection at all — the divergence baseline.
    None,
    /// The simple coordinated scheme of Bhargava/Lian and the Elnozahy
    /// survey: periodically compute the recovery line for the failure of all
    /// processes and discard everything before it. Needs control messages.
    SimpleCoordinated,
    /// Wang et al.'s coordinated collector: distribute the global
    /// last-interval vector and eliminate every Theorem-1 obsolete
    /// checkpoint. Needs control messages; collects *all* obsolete
    /// checkpoints.
    WangGlobal,
    /// The time-based class of Manivannan & Singhal: discard checkpoints
    /// older than `horizon` ticks, *assuming* processes checkpoint in known
    /// time intervals and message delays are bounded. No control messages —
    /// but **unsafe when the assumption breaks** (the paper's §5 critique:
    /// "unfeasible in many practical scenarios"). Kept as the comparator
    /// showing why RDT-LGC's causal condition matters.
    TimeBased {
        /// Age (in simulation ticks) past which checkpoints are discarded.
        horizon: u64,
    },
}

impl GcKind {
    /// Default discard horizon for [`GcKind::TimeBased`] sweeps, in ticks.
    pub const DEFAULT_HORIZON: u64 = 500;

    /// All kinds, for sweeps.
    pub const ALL: [GcKind; 5] = [
        GcKind::RdtLgc,
        GcKind::None,
        GcKind::SimpleCoordinated,
        GcKind::WangGlobal,
        GcKind::TimeBased {
            horizon: Self::DEFAULT_HORIZON,
        },
    ];

    /// Whether this collector relies on control-message rounds.
    pub fn needs_control_messages(self) -> bool {
        matches!(self, GcKind::SimpleCoordinated | GcKind::WangGlobal)
    }

    /// Whether this collector's *safety* rests on real-time assumptions
    /// (bounded checkpoint intervals and message delays).
    pub fn needs_time_assumptions(self) -> bool {
        matches!(self, GcKind::TimeBased { .. })
    }

    /// Whether this collector is asynchronous in the paper's sense
    /// (Definition 8): coordination only through information piggybacked in
    /// application messages, no control rounds, no time assumptions.
    pub fn is_asynchronous(self) -> bool {
        !self.needs_control_messages() && !self.needs_time_assumptions()
    }

    /// Instantiates the collector for a process in an `n`-process system.
    pub fn build(self, owner: ProcessId, n: usize) -> Box<dyn GarbageCollector> {
        match self {
            GcKind::RdtLgc => Box::new(crate::lgc::RdtLgc::new(owner, n)),
            GcKind::None => Box::new(crate::baselines::NoGc::new()),
            GcKind::SimpleCoordinated => Box::new(crate::baselines::SimpleCoordinatedGc::new()),
            GcKind::WangGlobal => Box::new(crate::baselines::WangGlobalGc::new(n)),
            GcKind::TimeBased { horizon } => Box::new(crate::baselines::TimeBasedGc::new(horizon)),
        }
    }
}

impl fmt::Display for GcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GcKind::RdtLgc => "rdt-lgc",
            GcKind::None => "no-gc",
            GcKind::SimpleCoordinated => "simple-coordinated",
            GcKind::WangGlobal => "wang-global",
            GcKind::TimeBased { horizon } => return write!(f, "time-based({horizon})"),
        };
        f.write_str(s)
    }
}

/// Control information a coordinator distributes to coordinated collectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlInfo {
    /// The recovery line for the failure of all processes (`R_Π`): everything
    /// strictly before a process's component is discarded.
    GlobalLine(Vec<CheckpointIndex>),
    /// The global last-interval vector, enabling Theorem-1 elimination.
    LastIntervals(LastIntervals),
}

/// An online, per-process checkpoint garbage collector.
///
/// The checkpointing protocol owns the dependency vector and the
/// [`CheckpointStore`]; it invokes these hooks at the paper's event points.
/// Hooks **remove collected checkpoints from the store themselves** and
/// return the eliminated indices for accounting.
///
/// Implementations must uphold *safety*: never eliminate a checkpoint that
/// is not obsolete (Theorem 1) in the CCP of any consistent cut containing
/// the current local state.
pub trait GarbageCollector: fmt::Debug + Send {
    /// Which algorithm this is.
    fn kind(&self) -> GcKind;

    /// Called right after checkpoint `index` (with vector `dv`) was written
    /// to `store` ("On taking checkpoint", Algorithm 2). The store already
    /// contains the new checkpoint, as its newest — the paper's transient
    /// `n + 1` occupancy.
    ///
    /// Eliminated checkpoints are **appended** to `eliminated`, a
    /// caller-owned scratch buffer reused across events — the hot path
    /// allocates nothing here.
    fn after_checkpoint_into(
        &mut self,
        store: &mut CheckpointStore,
        index: CheckpointIndex,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    );

    /// Allocating convenience wrapper over
    /// [`after_checkpoint_into`](Self::after_checkpoint_into).
    fn after_checkpoint(
        &mut self,
        store: &mut CheckpointStore,
        index: CheckpointIndex,
        dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let mut eliminated = Vec::new();
        self.after_checkpoint_into(store, index, dv, &mut eliminated);
        eliminated
    }

    /// Called after a received message merged new causal information for the
    /// processes in `updated` ("On receiving m", Algorithm 2). `dv` is the
    /// post-merge dependency vector. The update report is the bitset
    /// [`DependencyVector::merge_from`] produced, and eliminations are
    /// **appended** to the caller-owned `eliminated` buffer — no allocation
    /// crosses this boundary on the hot path.
    fn after_receive_into(
        &mut self,
        store: &mut CheckpointStore,
        updated: &UpdateSet,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    );

    /// Allocating convenience wrapper over
    /// [`after_receive_into`](Self::after_receive_into).
    fn after_receive(
        &mut self,
        store: &mut CheckpointStore,
        updated: &UpdateSet,
        dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let mut eliminated = Vec::new();
        self.after_receive_into(store, updated, dv, &mut eliminated);
        eliminated
    }

    /// Recovery session, rolling-back process (Algorithm 3): the process has
    /// restored checkpoint `ri`; `li` is the distributed last-interval vector
    /// (`None` for the uncoordinated variant, which falls back to `dv`).
    /// `dv` is the post-rollback dependency vector (restored and bumped).
    /// Eliminations are **appended** to the caller-owned `eliminated`
    /// buffer, the discarded checkpoints first.
    ///
    /// Implementations must discard checkpoints with index `> ri` and may
    /// eliminate whatever the available information proves obsolete.
    fn after_rollback_into(
        &mut self,
        store: &mut CheckpointStore,
        ri: CheckpointIndex,
        li: Option<&LastIntervals>,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    );

    /// Allocating convenience wrapper over
    /// [`after_rollback_into`](Self::after_rollback_into).
    fn after_rollback(
        &mut self,
        store: &mut CheckpointStore,
        ri: CheckpointIndex,
        li: Option<&LastIntervals>,
        dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let mut eliminated = Vec::new();
        self.after_rollback_into(store, ri, li, dv, &mut eliminated);
        eliminated
    }

    /// Recovery session, non-rolling-back process with global information:
    /// the paper's note that such a process "can just release any entry
    /// `UC[f]` such that `DV[f] < LI[f]`". Eliminations are appended to
    /// `eliminated`.
    fn on_recovery_info_into(
        &mut self,
        store: &mut CheckpointStore,
        li: &LastIntervals,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let _ = (store, li, dv, eliminated);
    }

    /// Allocating convenience wrapper over
    /// [`on_recovery_info_into`](Self::on_recovery_info_into).
    fn on_recovery_info(
        &mut self,
        store: &mut CheckpointStore,
        li: &LastIntervals,
        dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let mut eliminated = Vec::new();
        self.on_recovery_info_into(store, li, dv, &mut eliminated);
        eliminated
    }

    /// Clock tick for time-based collectors: `now` is the current local
    /// time, in the same unit as the [`GcKind::TimeBased`] horizon.
    /// Asynchronous and coordinated collectors ignore it.
    fn on_tick(
        &mut self,
        store: &mut CheckpointStore,
        now: u64,
        dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let _ = (store, now, dv);
        Vec::new()
    }

    /// Out-of-band control round for coordinated baselines; asynchronous
    /// collectors ignore it. `dv` is the process's current dependency vector
    /// (the volatile state's view, needed for Theorem-1 elimination).
    fn on_control(
        &mut self,
        store: &mut CheckpointStore,
        info: &ControlInfo,
        dv: &DependencyVector,
    ) -> Vec<CheckpointIndex> {
        let _ = (store, info, dv);
        Vec::new()
    }

    /// Number of checkpoints currently pinned by this collector's own
    /// bookkeeping (for RDT-LGC, its retained checkpoints: the live CCBs).
    /// Purely informational.
    fn pinned(&self) -> usize {
        0
    }

    /// The collector's `UC` vector, if it maintains one (RDT-LGC does):
    /// entry `f` is the checkpoint index pinned because of `p_f`, `None`
    /// rendering as the paper's `∗`. Purely informational — used to print
    /// the paper's Figure 4 tuples.
    fn uc_snapshot(&self) -> Option<Vec<Option<CheckpointIndex>>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_intervals_from_last_stable() {
        let li =
            LastIntervals::from_last_stable(&[CheckpointIndex::new(2), CheckpointIndex::new(0)]);
        assert_eq!(li.entry(ProcessId::new(0)), IntervalIndex::new(3));
        assert_eq!(li.entry(ProcessId::new(1)), IntervalIndex::new(1));
        assert_eq!(li.to_string(), "LI(3, 1)");
    }

    #[test]
    fn last_intervals_from_dv_is_verbatim() {
        let dv = DependencyVector::from_raw(vec![4, 0, 2]);
        let li = LastIntervals::from_dv(&dv);
        assert_eq!(li.entry(ProcessId::new(0)), IntervalIndex::new(4));
        assert_eq!(li.entry(ProcessId::new(2)), IntervalIndex::new(2));
    }

    #[test]
    fn gc_kind_control_message_classification() {
        assert!(!GcKind::RdtLgc.needs_control_messages());
        assert!(!GcKind::None.needs_control_messages());
        assert!(GcKind::SimpleCoordinated.needs_control_messages());
        assert!(GcKind::WangGlobal.needs_control_messages());
    }

    #[test]
    fn gc_kind_builds_every_variant() {
        for kind in GcKind::ALL {
            let gc = kind.build(ProcessId::new(0), 3);
            assert_eq!(gc.kind(), kind);
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(GcKind::RdtLgc.to_string(), "rdt-lgc");
        assert_eq!(GcKind::WangGlobal.to_string(), "wang-global");
    }
}
