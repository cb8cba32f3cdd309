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
//!
//! **Through recovery sessions.** A trace's `Crash` and `Restore` events
//! replay through [`CcpBuilder`]: a `Restore` truncates the process's live
//! history and opens its next incarnation. A collect is judged on the live
//! history, with knowledge of a dead incarnation amnestied as Lemma 1 does
//! ([`Ccp::is_obsolete_live`](crate::Ccp::is_obsolete_live)). The
//! eliminations a session makes itself — the rollback's Algorithm 3 and
//! the others' `recovery_info(LI)` — are not in the trace; the caller
//! hands them over per session, and they are judged once the session's
//! `Restore` events (one run of them per session) have replayed, on the
//! pattern the session left. A checkpoint a `Restore` discarded is no
//! longer in the live history, and a collect of it is not a garbage
//! collection decision: it is skipped.

use rdt_base::{CheckpointId, CheckpointIndex, Error, ProcessId, Result, TraceEvent};

use crate::builder::CcpBuilder;

/// Replays `trace` and returns every eliminated checkpoint that was **not**
/// obsolete at its elimination cut — the collector's safety violations.
/// [`collection_safety_violations_through_sessions`] with no session: a
/// crash-free trace, or one whose sessions eliminated nothing but what the
/// trace names.
///
/// The Theorem-1 characterization assumes RD-trackable patterns, so the
/// verdicts are meaningful for traces produced under RDT protocols.
///
/// # Errors
///
/// As for [`collection_safety_violations_through_sessions`]: a trace with
/// a recovery session needs that session's eliminations.
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
    collection_safety_violations_through_sessions::<Vec<CheckpointId>>(n, trace, &[])
}

/// [`collection_safety_violations`] through recovery sessions: `sessions[k]`
/// lists what the `k`-th session of `trace` eliminated that the trace does
/// not name (a simulator's `recovery_sessions[k].eliminated`). Each list is
/// judged right after the session's run of `Restore` events, on the
/// pattern the session left; a checkpoint a `Restore` discarded is skipped.
///
/// # Errors
///
/// * Malformed traces as in [`CcpBuilder::from_trace`].
/// * [`Error::UnsupportedTraceEvent`] if `trace` holds a different number
///   of recovery sessions than `sessions` has lists.
/// * [`Error::UnknownCheckpoint`] for a collect of a checkpoint the process
///   never stored.
pub fn collection_safety_violations_through_sessions<S: AsRef<[CheckpointId]>>(
    n: usize,
    trace: &[TraceEvent],
    sessions: &[S],
) -> Result<Vec<CheckpointId>> {
    let mut audit = Audit {
        b: CcpBuilder::new(n),
        stored: vec![1; n],
        violations: Vec::new(),
    };
    let mut session = 0;
    for (k, ev) in trace.iter().enumerate() {
        match *ev {
            TraceEvent::Collect { process, index } => {
                audit.judge(CheckpointId::new(process, index))?;
            }
            TraceEvent::Checkpoint { process, .. } => {
                let index = audit.b.checkpoint(process);
                let stored = &mut audit.stored[process.index()];
                *stored = (*stored).max(index.value() + 1);
            }
            _ => audit.b.apply(ev)?,
        }
        let restore = |ev: Option<&TraceEvent>| matches!(ev, Some(TraceEvent::Restore { .. }));
        if restore(Some(ev)) && !restore(trace.get(k + 1)) {
            let eliminated = sessions.get(session).ok_or_else(|| {
                Error::UnsupportedTraceEvent(format!(
                    "recovery session {session}: its eliminations were not given"
                ))
            })?;
            for &c in eliminated.as_ref() {
                audit.judge(c)?;
            }
            session += 1;
        }
    }
    if session != sessions.len() {
        return Err(Error::UnsupportedTraceEvent(format!(
            "{} sessions' eliminations given for a trace of {session}",
            sessions.len()
        )));
    }
    Ok(audit.violations)
}

/// The checkpoints a crash-free run still retains at its end
/// (`retained[i]`: p_i's stored indices) that are causally identifiable
/// as obsolete there: [`Ccp::witnesses`](crate::Ccp::witnesses) is
/// empty, so an optimal collector (Theorem 5) would have eliminated them.
///
/// # Errors
///
/// Malformed traces as in [`CcpBuilder::from_trace`].
///
/// # Panics
///
/// Panics if a retained index is not a stable checkpoint of the trace.
pub fn missed_at_the_end(n: usize, trace: &[TraceEvent], retained: &[Vec<usize>]) -> Result<usize> {
    let ccp = CcpBuilder::from_trace(n, trace)?.build();
    let stored = retained.iter().enumerate().flat_map(|(p, indices)| {
        let p = ProcessId::new(p);
        indices
            .iter()
            .map(move |&i| CheckpointId::new(p, CheckpointIndex::new(i)))
    });
    Ok(stored.filter(|&s| ccp.witnesses(s).is_empty()).count())
}

/// The replay under audit.
struct Audit {
    b: CcpBuilder,
    /// Per process, how many checkpoints its histories ever reached: a
    /// collect beyond the live history but below this names a checkpoint a
    /// `Restore` discarded.
    stored: Vec<usize>,
    violations: Vec<CheckpointId>,
}

impl Audit {
    fn judge(&mut self, c: CheckpointId) -> Result<()> {
        let ccp = self.b.ccp();
        if c.process.index() >= ccp.n() || c.index.value() >= self.stored[c.process.index()] {
            return Err(Error::UnknownCheckpoint {
                process: c.process,
                index: c.index,
            });
        }
        if c.index <= ccp.last_stable(c.process) && !ccp.is_obsolete_live(c) {
            self.violations.push(c);
        }
        Ok(())
    }
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

    fn restore(i: usize, to: usize) -> TraceEvent {
        TraceEvent::Restore {
            process: p(i),
            to: CheckpointIndex::new(to),
        }
    }

    fn id(i: usize, index: usize) -> CheckpointId {
        CheckpointId::new(p(i), CheckpointIndex::new(index))
    }

    /// p2 checkpoints s_2^1 and messages p1, which checkpoints s_1^1 and
    /// s_1^2; then p1 crashes and restores s_1^2.
    fn session() -> Vec<TraceEvent> {
        use rdt_base::MessageId;
        let m = MessageId::new(p(1), 0);
        vec![
            ckpt(1),
            TraceEvent::Send { id: m, to: p(0) },
            TraceEvent::Deliver { id: m },
            ckpt(0),
            ckpt(0),
            TraceEvent::Crash { process: p(0) },
            restore(0, 2),
        ]
    }

    #[test]
    fn a_session_is_audited_on_the_history_it_left() {
        // s_1^0 is pinned by p2 (s_2^1 → s_1^1, ↛ s_1^0), s_1^1 is not.
        let fine: &[&[CheckpointId]] = &[&[id(0, 1)]];
        let v = collection_safety_violations_through_sessions(2, &session(), fine).unwrap();
        assert!(v.is_empty(), "{v:?}");
        let early: &[&[CheckpointId]] = &[&[id(0, 0)]];
        let v = collection_safety_violations_through_sessions(2, &session(), early).unwrap();
        assert_eq!(v, vec![id(0, 0)]);
    }

    #[test]
    fn a_checkpoint_a_restore_discarded_is_skipped_and_a_reused_index_judged() {
        // p1 restores s_1^0: s_1^1 leaves the live history, and the
        // session's truncation of it is no collection decision.
        let mut trace = vec![ckpt(0), TraceEvent::Crash { process: p(0) }, restore(0, 0)];
        let sessions: &[&[CheckpointId]] = &[&[id(0, 1)]];
        let v = collection_safety_violations_through_sessions(2, &trace, sessions).unwrap();
        assert!(v.is_empty());
        // Re-executed, s_1^1 exists again, as p1's last stable: never obsolete.
        trace.extend([ckpt(0), collect(0, 1)]);
        let v = collection_safety_violations_through_sessions(2, &trace, sessions).unwrap();
        assert_eq!(v, vec![id(0, 1)]);
    }

    #[test]
    fn dead_incarnation_knowledge_pins_nothing() {
        use rdt_base::MessageId;
        // p2 tells p1 of its interval 2, then rolls back to s_2^0: p1's
        // s_1^1 knows only p2's dead incarnation, so s_1^0 is obsolete.
        let m = MessageId::new(p(1), 0);
        let trace = vec![
            ckpt(1),
            TraceEvent::Send { id: m, to: p(0) },
            TraceEvent::Deliver { id: m },
            ckpt(0),
            TraceEvent::Crash { process: p(1) },
            restore(1, 0),
        ];
        let sessions: &[&[CheckpointId]] = &[&[id(0, 0)]];
        let v = collection_safety_violations_through_sessions(2, &trace, sessions).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_session_without_its_eliminations_is_an_error() {
        assert!(collection_safety_violations(2, &session()).is_err());
        let two: &[&[CheckpointId]] = &[&[], &[]];
        assert!(collection_safety_violations_through_sessions(2, &session(), two).is_err());
        let never = vec![ckpt(0), collect(0, 5)];
        assert!(collection_safety_violations(2, &never).is_err());
    }
}
