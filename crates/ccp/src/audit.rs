//! Offline safety audit of garbage collection.
//!
//! A collector is *safe* (Theorem 4) if every checkpoint it eliminates is
//! obsolete — in the CCP of the consistent cut **at the moment of
//! elimination**, per the Theorem 1 characterization. Because obsolescence
//! is stable (a needless checkpoint stays needless, Lemma 3), auditing at
//! the elimination cut is exact: a violation found here is a checkpoint some
//! future recovery line may still need.
//!
//! The simulator records [`TraceEvent::Collect`] for each elimination; this
//! module replays the trace and checks every collection against the oracle.

use rdt_base::{CheckpointId, Result, TraceEvent};

use crate::builder::CcpBuilder;

/// Replays a crash-free `trace` and returns every eliminated checkpoint
/// that was **not** obsolete at its elimination cut — the collector's
/// safety violations.
///
/// The Theorem-1 characterization assumes RD-trackable patterns, so the
/// verdicts are meaningful for traces produced under RDT protocols.
///
/// # Errors
///
/// Malformed traces as in [`CcpBuilder::from_trace`], plus
/// [`rdt_base::Error::UnsupportedTraceEvent`] for crash/restore events:
/// the Theorem-1 obsolescence oracle audits *within* one execution epoch,
/// so split traces at recovery sessions before auditing. (Crashy runs are
/// covered end-to-end by the repeated-recovery property tests, which pin
/// the online recovery line against the rollback-replaying oracle.)
///
/// # Example
///
/// ```
/// use rdt_base::{CheckpointIndex, ProcessId, TraceEvent};
/// use rdt_ccp::collection_safety_violations;
///
/// let p1 = ProcessId::new(0);
/// // p1 checkpoints s^1 and immediately collects the lone s^0 — obsolete,
/// // so no violation.
/// let trace = vec![
///     TraceEvent::Checkpoint { process: p1, forced: false },
///     TraceEvent::Collect { process: p1, index: CheckpointIndex::ZERO },
/// ];
/// let violations = collection_safety_violations(2, &trace)?;
/// assert!(violations.is_empty());
/// # Ok::<(), rdt_base::Error>(())
/// ```
pub fn collection_safety_violations(n: usize, trace: &[TraceEvent]) -> Result<Vec<CheckpointId>> {
    let mut b = CcpBuilder::new(n);
    let mut violations = Vec::new();
    for ev in trace {
        match *ev {
            TraceEvent::Collect { process, index } => {
                let s = CheckpointId::new(process, index);
                if !b.ccp().is_obsolete(s) {
                    violations.push(s);
                }
            }
            TraceEvent::Crash { .. } | TraceEvent::Restore { .. } => {
                return Err(rdt_base::Error::UnsupportedTraceEvent(
                    "the collection-safety audit covers one execution epoch: \
                     split the trace at recovery sessions"
                        .into(),
                ));
            }
            _ => b.apply(ev)?,
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use rdt_base::{CheckpointIndex, ProcessId};

    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn ckpt(i: usize) -> TraceEvent {
        TraceEvent::Checkpoint {
            process: p(i),
            forced: false,
        }
    }

    fn collect(i: usize, index: usize) -> TraceEvent {
        TraceEvent::Collect {
            process: p(i),
            index: CheckpointIndex::new(index),
        }
    }

    #[test]
    fn collecting_a_superseded_lone_checkpoint_is_safe() {
        let trace = vec![ckpt(0), collect(0, 0)];
        assert!(collection_safety_violations(2, &trace).unwrap().is_empty());
    }

    #[test]
    fn collecting_the_last_checkpoint_is_a_violation() {
        // s_1^0 is p1's most recent stable checkpoint: never obsolete.
        let trace = vec![collect(0, 0)];
        let v = collection_safety_violations(2, &trace).unwrap();
        assert_eq!(v, vec![CheckpointId::new(p(0), CheckpointIndex::ZERO)]);
    }

    #[test]
    fn collecting_a_peer_pinned_checkpoint_is_a_violation() {
        use rdt_base::MessageId;
        // p2 checkpoints s_2^1 then messages p1, who checkpoints s_1^1:
        // s_1^0 is pinned by p2 (s_2^1 → s_1^1 ∧ s_2^1 ↛ s_1^0).
        let m = MessageId::new(p(1), 0);
        let trace = vec![
            ckpt(1),
            TraceEvent::Send { id: m, to: p(0) },
            TraceEvent::Deliver { id: m },
            ckpt(0),
            collect(0, 0),
        ];
        let v = collection_safety_violations(2, &trace).unwrap();
        assert_eq!(v, vec![CheckpointId::new(p(0), CheckpointIndex::ZERO)]);
    }

    #[test]
    fn violation_is_judged_at_the_elimination_cut_not_the_end() {
        // s_1^0's pin by p2 disappears later (p2's news propagates), but
        // the collection happened while the pin was live: still flagged.
        use rdt_base::MessageId;
        let m1 = MessageId::new(p(1), 0);
        let m2 = MessageId::new(p(1), 1);
        let trace = vec![
            ckpt(1),
            TraceEvent::Send { id: m1, to: p(0) },
            TraceEvent::Deliver { id: m1 },
            ckpt(0),
            collect(0, 0), // violation: pinned by p2 at this cut
            ckpt(1),
            TraceEvent::Send { id: m2, to: p(0) },
            TraceEvent::Deliver { id: m2 },
            ckpt(0),
        ];
        let v = collection_safety_violations(2, &trace).unwrap();
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn crash_traces_are_rejected() {
        let trace = vec![TraceEvent::Crash { process: p(0) }];
        assert!(collection_safety_violations(2, &trace).is_err());
    }
}
