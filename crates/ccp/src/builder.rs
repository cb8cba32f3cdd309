//! Incremental construction of checkpoint-and-communication patterns.

use std::collections::{BTreeMap, BTreeSet};

use rdt_base::{
    CheckpointIndex, DependencyVector, Error, Incarnation, MessageId, ProcessId, Result, TraceEvent,
};

use crate::model::{Ccp, LocalEvent, MessageRecord};

/// Builds a [`Ccp`] event by event.
///
/// The builder replays the exact dependency-vector propagation of Section 4.2
/// as it goes, so the finished CCP carries the vector each checkpoint would
/// have been stored with by a real RDT protocol.
///
/// Every process implicitly starts with its initial stable checkpoint
/// `s_i^0` (Section 2.2), so a fresh builder already describes a valid CCP.
///
/// # Example — Figure 1 style construction
///
/// ```
/// use rdt_ccp::CcpBuilder;
/// use rdt_base::ProcessId;
///
/// let p1 = ProcessId::new(0);
/// let p2 = ProcessId::new(1);
///
/// let mut b = CcpBuilder::new(2);
/// let m1 = b.send(p1, p2);
/// b.checkpoint(p1);
/// b.deliver(m1);
/// b.checkpoint(p2);
/// let ccp = b.build();
/// assert_eq!(ccp.stable_count(), 4); // two initial + two explicit
/// ```
#[derive(Debug, Clone)]
pub struct CcpBuilder {
    /// The pattern of the cut built so far; its volatile vectors are the
    /// processes' current ones.
    ccp: Ccp,
    /// Messages the network lost.
    dropped: BTreeSet<MessageId>,
    /// Per-process sequence number of the next send.
    next_seq: Vec<u64>,
}

impl CcpBuilder {
    /// Creates a builder for a system of `n` processes, each having stored
    /// its initial checkpoint `s_i^0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one process");
        let mut b = Self {
            ccp: Ccp {
                n,
                events: vec![Vec::new(); n],
                messages: BTreeMap::new(),
                checkpoint_dvs: vec![Vec::new(); n],
                volatile_dvs: (0..n).map(|_| DependencyVector::new(n)).collect(),
                incarnations: vec![Incarnation::ZERO; n],
            },
            dropped: BTreeSet::new(),
            next_seq: vec![0; n],
        };
        for p in ProcessId::all(n) {
            b.checkpoint(p); // s_i^0
        }
        b
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.ccp.n
    }

    /// The current (volatile) dependency vector of `p`.
    pub fn current_dv(&self, p: ProcessId) -> &DependencyVector {
        &self.ccp.volatile_dvs[p.index()]
    }

    /// `p` stores its next stable checkpoint; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn checkpoint(&mut self, p: ProcessId) -> CheckpointIndex {
        let (i, ccp) = (p.index(), &mut self.ccp);
        let index = CheckpointIndex::new(ccp.checkpoint_dvs[i].len());
        debug_assert_eq!(ccp.volatile_dvs[i].entry(p).value(), index.value());
        ccp.checkpoint_dvs[i].push(ccp.volatile_dvs[i].clone());
        ccp.events[i].push(LocalEvent::Checkpoint(index));
        ccp.volatile_dvs[i].begin_next_interval(p);
        index
    }

    /// `from` sends a message to `to`; returns its id. The message is
    /// in-transit until [`deliver`](Self::deliver)ed or
    /// [`drop_message`](Self::drop_message)ed.
    ///
    /// # Panics
    ///
    /// Panics if either process is out of range.
    pub fn send(&mut self, from: ProcessId, to: ProcessId) -> MessageId {
        let (i, ccp) = (from.index(), &mut self.ccp);
        assert!(to.index() < ccp.n, "destination out of range");
        let id = MessageId::new(from, self.next_seq[i]);
        self.next_seq[i] += 1;
        let record = MessageRecord {
            id,
            dst: to,
            send_interval: ccp.volatile_dvs[i].entry(from),
            send_pos: ccp.events[i].len(),
            send_dv: ccp.volatile_dvs[i].clone(),
            recv_interval: None,
            recv_pos: None,
        };
        ccp.events[i].push(LocalEvent::Send(id));
        ccp.messages.insert(id, record);
        id
    }

    /// The destination of `id` receives it now.
    ///
    /// # Panics
    ///
    /// Panics if the message is unknown or already delivered/dropped; use
    /// [`try_deliver`](Self::try_deliver) for a fallible variant.
    pub fn deliver(&mut self, id: MessageId) {
        self.try_deliver(id).expect("deliver");
    }

    /// Fallible [`deliver`](Self::deliver).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownMessage`] if never sent, [`Error::DuplicateDelivery`]
    /// if already delivered or dropped.
    pub fn try_deliver(&mut self, id: MessageId) -> Result<()> {
        if self.dropped.contains(&id) {
            return Err(Error::DuplicateDelivery(id));
        }
        let ccp = &mut self.ccp;
        let record = ccp.messages.get_mut(&id).ok_or(Error::UnknownMessage(id))?;
        if record.delivered() {
            return Err(Error::DuplicateDelivery(id));
        }
        let dst = record.dst.index();
        let dv = &mut ccp.volatile_dvs[dst];
        record.recv_interval = Some(dv.entry(record.dst));
        record.recv_pos = Some(ccp.events[dst].len());
        ccp.events[dst].push(LocalEvent::Receive(id));
        dv.merge_from(&record.send_dv);
        Ok(())
    }

    /// Marks `id` as lost by the network; it will never contribute to the
    /// dependency relation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`try_deliver`](Self::try_deliver).
    pub fn drop_message(&mut self, id: MessageId) -> Result<()> {
        let record = self
            .ccp
            .messages
            .get(&id)
            .ok_or(Error::UnknownMessage(id))?;
        if record.delivered() || !self.dropped.insert(id) {
            return Err(Error::DuplicateDelivery(id));
        }
        Ok(())
    }

    /// Convenience: send from `from` to `to` and deliver immediately.
    pub fn message(&mut self, from: ProcessId, to: ProcessId) -> MessageId {
        let id = self.send(from, to);
        self.deliver(id);
        id
    }

    /// Replays a recovery-session rollback: `p` restores stable checkpoint
    /// `to`, discarding every later checkpoint and opening a fresh
    /// incarnation (mirroring `rdt_protocols::Middleware::rollback`).
    ///
    /// The raw event and message history is deliberately *not* rewritten:
    /// `events`/`messages` keep the dead segments (path-based analyses such
    /// as zigzag queries therefore require crash-free traces), while the
    /// checkpoint/dependency state — everything recovery-line and Theorem-1
    /// queries read — reflects the live history only. Receivers of messages
    /// sent in a dead segment keep the merged knowledge, exactly as live
    /// middlewares do; the incarnation component marks it stale.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or `to` exceeds the last stable
    /// checkpoint; use [`try_restore`](Self::try_restore) for a fallible
    /// variant.
    pub fn restore(&mut self, p: ProcessId, to: CheckpointIndex) {
        self.try_restore(p, to).expect("restore");
    }

    /// Fallible [`restore`](Self::restore).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownCheckpoint`] if `p` has no stable checkpoint `to`.
    pub fn try_restore(&mut self, p: ProcessId, to: CheckpointIndex) -> Result<()> {
        let (i, ccp) = (p.index(), &mut self.ccp);
        if i >= ccp.n || to.value() >= ccp.checkpoint_dvs[i].len() {
            return Err(Error::UnknownCheckpoint {
                process: p,
                index: to,
            });
        }
        ccp.checkpoint_dvs[i].truncate(to.value() + 1);
        let mut dv = ccp.checkpoint_dvs[i][to.value()].clone();
        ccp.incarnations[i] = ccp.incarnations[i].next();
        dv.resume_incarnation(p, ccp.incarnations[i]);
        ccp.volatile_dvs[i] = dv;
        Ok(())
    }

    /// Finishes construction.
    pub fn build(self) -> Ccp {
        self.ccp
    }

    /// Replays a trace produced by a workload generator or simulator into a
    /// builder (and ultimately a [`Ccp`]).
    ///
    /// Crash/recovery traces replay too: `Crash` events only mark the
    /// volatile-state loss (no structural effect — the simulator drops
    /// in-transit messages explicitly), and each `Restore` event truncates
    /// the process's live checkpoint history and bumps its incarnation via
    /// [`restore`](Self::restore).
    ///
    /// # Errors
    ///
    /// * Delivery errors as in [`try_deliver`](Self::try_deliver).
    /// * [`Error::UnknownCheckpoint`] for a `Restore` onto a checkpoint the
    ///   replayed history never stored.
    pub fn from_trace(n: usize, trace: &[TraceEvent]) -> Result<Self> {
        let mut b = CcpBuilder::new(n);
        for ev in trace {
            b.apply(ev)?;
        }
        Ok(b)
    }

    /// Applies one trace event to the pattern under construction.
    ///
    /// # Errors
    ///
    /// As in [`from_trace`](Self::from_trace).
    pub fn apply(&mut self, ev: &TraceEvent) -> Result<()> {
        match *ev {
            TraceEvent::Checkpoint { process, .. } => {
                self.checkpoint(process);
            }
            TraceEvent::Send { id, to } => {
                let assigned = self.send(id.sender, to);
                if assigned != id {
                    return Err(Error::UnsupportedTraceEvent(format!(
                        "out-of-order send sequence: expected {assigned}, got {id}"
                    )));
                }
            }
            TraceEvent::Deliver { id } => self.try_deliver(id)?,
            TraceEvent::Drop { id } => self.drop_message(id)?,
            // Garbage collection does not change the dependency
            // structure; the audit module interprets these separately.
            TraceEvent::Collect { .. } => {}
            // A crash alone loses only volatile state; the recovery
            // session's `Restore` events carry the structural change.
            TraceEvent::Crash { .. } => {}
            TraceEvent::Restore { process, to } => self.try_restore(process, to)?,
        }
        Ok(())
    }

    /// The CCP of the cut built so far, borrowed: what
    /// [`build`](Self::build) would return now.
    pub fn ccp(&self) -> &Ccp {
        &self.ccp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GeneralCheckpoint;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn dv_propagation_follows_section_4_2() {
        // p1 checkpoints, then messages p2; p2's DV learns p1's interval.
        let mut b = CcpBuilder::new(3);
        b.checkpoint(p(0)); // s_1^1, p1 now in interval 2
        b.message(p(0), p(1));
        assert_eq!(b.current_dv(p(1)).to_raw(), vec![2, 1, 0]);
    }

    #[test]
    fn checkpoint_dv_self_entry_equals_index() {
        let mut b = CcpBuilder::new(2);
        let c1 = b.checkpoint(p(0));
        let c2 = b.checkpoint(p(0));
        assert_eq!(c1.value(), 1);
        assert_eq!(c2.value(), 2);
        let ccp = b.build();
        for g in 0..=2 {
            let dv = ccp
                .dv(GeneralCheckpoint::new(p(0), CheckpointIndex::new(g)))
                .unwrap();
            assert_eq!(dv.entry(p(0)).value(), g);
        }
    }

    #[test]
    fn dropped_messages_do_not_propagate() {
        let mut b = CcpBuilder::new(2);
        b.checkpoint(p(0));
        let m = b.send(p(0), p(1));
        b.drop_message(m).unwrap();
        assert_eq!(b.current_dv(p(1)).to_raw(), vec![0, 1]);
        assert!(b.try_deliver(m).is_err());
    }

    #[test]
    fn double_delivery_is_rejected() {
        let mut b = CcpBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.deliver(m);
        assert!(matches!(b.try_deliver(m), Err(Error::DuplicateDelivery(_))));
    }

    #[test]
    fn unknown_message_is_rejected() {
        let mut b = CcpBuilder::new(2);
        let ghost = MessageId::new(p(0), 99);
        assert!(matches!(
            b.try_deliver(ghost),
            Err(Error::UnknownMessage(_))
        ));
    }

    #[test]
    fn trace_roundtrip_matches_direct_construction() {
        let trace = vec![
            TraceEvent::Checkpoint {
                process: p(0),
                forced: false,
            },
            TraceEvent::Send {
                id: MessageId::new(p(0), 0),
                to: p(1),
            },
            TraceEvent::Deliver {
                id: MessageId::new(p(0), 0),
            },
            TraceEvent::Checkpoint {
                process: p(1),
                forced: true,
            },
        ];
        let replayed = CcpBuilder::from_trace(2, &trace).unwrap().build();

        let mut direct = CcpBuilder::new(2);
        direct.checkpoint(p(0));
        let m = direct.send(p(0), p(1));
        direct.deliver(m);
        direct.checkpoint(p(1));
        assert_eq!(replayed, direct.build());
    }

    #[test]
    fn restore_truncates_live_history_and_bumps_incarnation() {
        use rdt_base::Incarnation;
        let mut b = CcpBuilder::new(2);
        b.checkpoint(p(0)); // s^1
        b.checkpoint(p(0)); // s^2
        b.apply(&TraceEvent::Crash { process: p(0) }).unwrap();
        b.apply(&TraceEvent::Restore {
            process: p(0),
            to: CheckpointIndex::new(1),
        })
        .unwrap();
        let ccp = b.ccp();
        assert_eq!(ccp.last_stable(p(0)), CheckpointIndex::new(1));
        assert_eq!(ccp.incarnation(p(0)), Incarnation::new(1));
        // The volatile vector resumes at interval 2 of incarnation 1.
        assert_eq!(ccp.volatile_dv(p(0)).to_raw_lineages()[0], (1, 2));
        // Re-execution stores checkpoint 2 again, in the new incarnation.
        b.checkpoint(p(0));
        let ccp = b.build();
        assert_eq!(ccp.last_stable(p(0)), CheckpointIndex::new(2));
        assert_eq!(
            ccp.dv(GeneralCheckpoint::new(p(0), CheckpointIndex::new(2)))
                .unwrap()
                .to_raw_lineages()[0],
            (1, 2)
        );
    }

    #[test]
    fn restore_onto_missing_checkpoint_is_rejected() {
        let mut b = CcpBuilder::new(1);
        assert!(matches!(
            b.try_restore(p(0), CheckpointIndex::new(5)),
            Err(Error::UnknownCheckpoint { .. })
        ));
    }

    #[test]
    fn in_transit_message_is_not_part_of_dependency_relation() {
        let mut b = CcpBuilder::new(2);
        let m = b.send(p(0), p(1));
        let ccp = b.build();
        assert!(!ccp.message(m).unwrap().delivered());
        assert_eq!(ccp.delivered_count(), 0);
    }
}
