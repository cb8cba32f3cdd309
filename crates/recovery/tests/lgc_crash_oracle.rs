//! RDT-LGC against the paper's theorems through crashes and recovery
//! sessions.
//!
//! A generated run drives one [`Middleware`] per process under RDT-LGC and
//! an RDT protocol: basic checkpoints, sends, deliveries in any order,
//! message losses, and crashes of any subset of the processes, each
//! followed by a coordinated [`RecoveryManager`] session (the world stops:
//! every message in transit is lost). Every step is mirrored into a
//! [`CcpBuilder`], whose `restore` truncates a rolled-back process's live
//! history and opens its next incarnation, as the middleware does. After
//! every operation, and after every whole session, on the live history:
//!
//! * **Theorem 4** (safety) — every checkpoint eliminated so far, and still
//!   part of the live history, is obsolete (Theorem 1);
//! * **Theorem 5** (optimality) — no retained checkpoint is causally
//!   identifiable as obsolete (Theorem 2);
//! * **Section 4.5** — at most `n` checkpoints stored per process, `n + 1`
//!   at the peak;
//! * **Theorem 3** (both directions) — for every retained checkpoint `s`,
//!   the processes whose `UC` entry points at `s` are exactly its live
//!   witnesses `W(s)` ([`rdt_ccp::Ccp::witnesses_live`]), less what the
//!   latest session's last-interval vector released;
//! * the mirror is faithful — each process's store is its live history less
//!   what was eliminated, every vector it reads back is the mirror's, and
//!   its dependency vector is the mirror's.
//!
//! Besides systems of a few processes, whose stores keep every vector in
//! full, wide ones have a change log, so their stores keep the entries
//! that changed since the predecessor: folds, hand-overs and rollbacks
//! read through them. Three wide shapes: 65 processes, the traffic among
//! four of them across the first word boundary; the same after one of
//! them told another of more than 64 of its checkpoints in a row; and
//! 130 processes, 70 of which told one of theirs before it checkpoints —
//! the last two past the reach of the change log's 64-entry ring. In a
//! wide system one more shape is checked: after its first send a process
//! stores every checkpoint but the first as changes, the first after a
//! rollback too.
//!
//! Checkpoints a rollback discards leave the live history with it, and a
//! later checkpoint may reuse their index: they are dropped from the
//! eliminated set at the rollback.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rdt_base::{
    CheckpointId, CheckpointIndex, DependencyVector, DvEntry, Message, MessageId, Payload,
    ProcessId,
};
use rdt_ccp::{CcpBuilder, GeneralCheckpoint};
use rdt_core::GcKind;
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_recovery::{FaultySet, RecoveryManager};

/// The running system and its offline mirror.
struct System {
    mws: Vec<Middleware>,
    mirror: CcpBuilder,
    in_flight: Vec<(MessageId, Message)>,
    /// Eliminated checkpoints still in the live history.
    eliminated: BTreeSet<CheckpointId>,
    /// Per process, what the latest session released: its entry for each
    /// process the session's `LI` showed stale, zero for the others.
    released: Vec<Vec<DvEntry>>,
    sessions: usize,
    /// Per process, how far it is from storing changes.
    shape: Vec<Shape>,
}

/// Where a process of a wide system stands towards storing its
/// checkpoints as changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// No change log yet (or never: the system is not wide).
    Unlogged,
    /// A log since its first send; the next checkpoint is stored in full.
    FirstDue,
    /// Every checkpoint is stored as changes.
    Changes,
}

impl System {
    fn new(n: usize, protocol: ProtocolKind) -> Self {
        Self {
            mws: (0..n)
                .map(|i| Middleware::new(ProcessId::new(i), n, protocol, GcKind::RdtLgc))
                .collect(),
            mirror: CcpBuilder::new(n),
            in_flight: Vec::new(),
            eliminated: BTreeSet::new(),
            released: vec![vec![DvEntry::ZERO; n]; n],
            sessions: 0,
            shape: vec![Shape::Unlogged; n],
        }
    }

    /// The newest checkpoint `p` stores.
    fn newest(&self, p: ProcessId) -> CheckpointIndex {
        self.mws[p.index()].store().last().expect("never empty")
    }

    /// Checks how `p` stored `index`, its newest checkpoint having been
    /// `before`: as changes, once past its first checkpoint under the
    /// change log. What the newest entry keeps shows only while `before`
    /// is stored: collecting it may hand a full vector over.
    fn stored_as(&mut self, p: ProcessId, index: CheckpointIndex, before: CheckpointIndex) {
        let shape = &mut self.shape[p.index()];
        match *shape {
            Shape::Unlogged => return,
            Shape::FirstDue => return *shape = Shape::Changes,
            Shape::Changes => {}
        }
        let store = self.mws[p.index()].store();
        if !store.contains(before) {
            return;
        }
        let k = store.len() - 1;
        assert_eq!(store.index_at(k), index, "{p} stored s^{index} last");
        assert!(
            store.changed_at(k).is_some(),
            "{p} stored s^{index} in full, after s^{before}"
        );
    }

    fn collected(&mut self, p: ProcessId, gone: &[CheckpointIndex]) {
        for &index in gone {
            assert!(
                self.eliminated.insert(CheckpointId::new(p, index)),
                "{p} eliminated s^{index} twice"
            );
        }
    }

    /// Mirrors a checkpoint the middleware stored.
    fn mirror_checkpoint(&mut self, p: ProcessId, stored: CheckpointIndex) {
        assert_eq!(self.mirror.checkpoint(p), stored, "mirror out of step");
    }

    fn checkpoint(&mut self, p: ProcessId) {
        let before = self.newest(p);
        let report = self.mws[p.index()].basic_checkpoint().expect("alive");
        self.mirror_checkpoint(p, report.stored);
        self.collected(p, &report.eliminated);
        self.stored_as(p, report.stored, before);
    }

    fn send(&mut self, from: ProcessId, to: ProcessId) {
        let before = self.newest(from);
        let (msg, forced) = self.mws[from.index()].send_reported(to, Payload::empty());
        let id = self.mirror.send(from, to);
        // The send interned a snapshot: in a wide system, the log starts.
        if self.mws.len() > 64 && self.shape[from.index()] == Shape::Unlogged {
            self.shape[from.index()] = Shape::FirstDue;
        }
        // CAS / CASBR: the post-send forced checkpoint follows the send.
        if let Some(report) = forced {
            self.mirror_checkpoint(from, report.stored);
            self.collected(from, &report.eliminated);
            self.stored_as(from, report.stored, before);
        }
        self.in_flight.push((id, msg));
    }

    fn deliver(&mut self, k: usize) {
        let (id, msg) = self.in_flight.remove(k % self.in_flight.len());
        let dst = msg.meta.dst;
        let before = self.newest(dst);
        let report = self.mws[dst.index()].receive(&msg).expect("alive");
        // A forced checkpoint is stored before the message is processed.
        if let Some(stored) = report.forced {
            self.mirror_checkpoint(dst, stored);
        }
        self.mirror.deliver(id);
        self.collected(dst, &report.eliminated);
        if let Some(stored) = report.forced {
            self.stored_as(dst, stored, before);
        }
    }

    fn drop_message(&mut self, k: usize) {
        let (id, _) = self.in_flight.remove(k % self.in_flight.len());
        self.mirror.drop_message(id).expect("in transit");
    }

    /// Crashes `faulty` and runs a coordinated recovery session.
    fn crash(&mut self, faulty: &FaultySet) {
        for &p in faulty {
            self.mws[p.index()].crash();
        }
        for (id, _) in std::mem::take(&mut self.in_flight) {
            self.mirror.drop_message(id).expect("in transit");
        }
        let report = RecoveryManager::new()
            .recover(&mut self.mws, faulty)
            .unwrap_or_else(|e| panic!("session for {faulty:?}: {e}"));
        for c in &report.eliminated {
            self.collected(c.process, &[c.index]);
        }
        for &(p, ri) in &report.rolled_back {
            self.mirror.restore(p, ri);
            self.eliminated.retain(|c| c.process != p || c.index <= ri);
        }
        let li = report.li.expect("a coordinated session distributes LI");
        for (mw, released) in self.mws.iter().zip(&mut self.released) {
            let known = mw.dv().as_slice().iter().zip(li.as_slice());
            let stale =
                |(&e, &last): (&DvEntry, &DvEntry)| if e < last { e } else { DvEntry::ZERO };
            *released = known.map(stale).collect();
        }
        self.sessions += 1;
    }

    /// The theorems on the live history, after `what`.
    fn check(&self, what: &str) {
        let ccp = self.mirror.ccp();
        let n = self.mws.len();
        for c in &self.eliminated {
            prop_assert!(
                ccp.is_obsolete(*c),
                "Theorem 4: {} eliminated but not obsolete, after {}",
                c,
                what
            );
        }
        let mut stored = DependencyVector::new(n);
        for mw in &self.mws {
            let p = mw.owner();
            let store = mw.store();
            prop_assert_eq!(mw.dv(), ccp.volatile_dv(p), "{} after {}", p, what);
            let uc = mw.uc_snapshot().expect("RDT-LGC keeps UC");
            for index in store.indices() {
                store.dv(index, &mut stored).expect("stored");
                let mirrored = ccp.dv(GeneralCheckpoint::new(p, index)).expect("live");
                prop_assert_eq!(&stored, mirrored, "{} s^{} after {}", p, index, what);
                let c = CheckpointId::new(p, index);
                let pinning: BTreeSet<ProcessId> = ProcessId::all(n)
                    .filter(|f| uc[f.index()] == Some(index))
                    .collect();
                prop_assert_eq!(
                    ccp.witnesses_live(c, &self.released[p.index()]),
                    pinning,
                    "Theorem 3: {}'s witnesses are not its pins, after {}",
                    c,
                    what
                );
            }
            let live: Vec<CheckpointIndex> = (0..=ccp.last_stable(p).value())
                .map(CheckpointIndex::new)
                .filter(|&i| !self.eliminated.contains(&CheckpointId::new(p, i)))
                .collect();
            prop_assert_eq!(
                store.indices().collect::<Vec<_>>(),
                live,
                "{} after {}",
                p,
                what
            );
            for index in store.indices() {
                let c = CheckpointId::new(p, index);
                prop_assert!(
                    !ccp.is_causally_identifiable_obsolete(c),
                    "Theorem 5: {} retained although causally identifiable as obsolete, after {}",
                    c,
                    what
                );
            }
            prop_assert!(
                store.len() <= n,
                "{} stores {} after {}",
                p,
                store.len(),
                what
            );
            prop_assert!(store.peak() <= n + 1, "{} peaked at {}", p, store.peak());
        }
        let retained: BTreeSet<CheckpointId> = self
            .mws
            .iter()
            .flat_map(|mw| {
                mw.store()
                    .indices()
                    .map(|i| CheckpointId::new(mw.owner(), i))
            })
            .collect();
        let identifiable = ccp.causally_identifiable_obsolete_set();
        prop_assert!(retained.is_disjoint(&identifiable), "after {}", what);
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Checkpoint(usize),
    Send(usize, usize),
    Deliver(usize),
    Drop(usize),
    /// Crash the processes whose bits are set (at least one).
    Crash(u32),
}

/// Weights 3 : 5 : 5 : 1 : 1 for checkpoint, send, deliver, drop, crash.
fn op() -> impl Strategy<Value = Op> {
    (0u8..15, 0usize..64, 0usize..64, 1u32..u32::MAX).prop_map(|(kind, a, b, mask)| match kind {
        0..=2 => Op::Checkpoint(a),
        3..=7 => Op::Send(a, b),
        8..=12 => Op::Deliver(b),
        13 => Op::Drop(b),
        _ => Op::Crash(mask),
    })
}

/// Runs `ops` over `n` processes of which those in `active` do all the
/// work.
fn run_among(n: usize, active: &[usize], protocol: ProtocolKind, ops: &[Op]) -> System {
    run_after(n, active, protocol, &[], ops)
}

/// [`run_among`] for `ops` after `prefix`, which is checked only once it
/// has run: a fixed prefix is checked op by op once, not once per case.
fn run_after(
    n: usize,
    active: &[usize],
    protocol: ProtocolKind,
    prefix: &[Op],
    ops: &[Op],
) -> System {
    let k = active.len();
    let at = |a: usize| ProcessId::new(active[a % k]);
    let mut sys = System::new(n, protocol);
    sys.check("the initial checkpoints");
    let all = prefix.iter().chain(ops).enumerate();
    for (step, &op) in all {
        match op {
            Op::Checkpoint(a) => sys.checkpoint(at(a)),
            Op::Send(a, b) => {
                let from = a % k;
                sys.send(at(from), at(from + 1 + b % (k - 1)));
            }
            Op::Deliver(k) if !sys.in_flight.is_empty() => sys.deliver(k),
            Op::Drop(k) if !sys.in_flight.is_empty() => sys.drop_message(k),
            Op::Deliver(_) | Op::Drop(_) => continue,
            Op::Crash(mask) => {
                // Bit `i % 32` for the `i`-th active process.
                let mut faulty: FaultySet = (0..k)
                    .filter(|i| mask & (1 << (i % 32)) != 0)
                    .map(at)
                    .collect();
                if faulty.is_empty() {
                    faulty.insert(at(mask as usize));
                }
                sys.crash(&faulty);
            }
        }
        if step + 1 >= prefix.len() {
            sys.check(&format!("step {step} ({op:?})"));
        }
    }
    sys
}

fn run(n: usize, protocol: ProtocolKind, ops: &[Op]) -> System {
    run_among(n, &(0..n).collect::<Vec<_>>(), protocol, ops)
}

/// Ops by which the first of `k` active processes sends (its change log
/// starts) and checkpoints; then each of `senders` (positions among the
/// active) checkpoints and tells it, and it checkpoints again: the news of
/// every sender lands between two of its checkpoints, a push of the
/// change log's ring each at least.
fn gather(k: usize, senders: impl IntoIterator<Item = usize>) -> Vec<Op> {
    let first = [Op::Send(0, 0), Op::Deliver(0), Op::Checkpoint(0)];
    let told = |a: usize| [Op::Checkpoint(a), Op::Send(a, k - 1 - a), Op::Deliver(0)];
    let ops = first.into_iter().chain(senders.into_iter().flat_map(told));
    ops.chain([Op::Checkpoint(0)]).collect()
}

/// The protocols that force no checkpoint on a receive in an interval
/// without a send (FDI forces on any news, CBR and CASBR on every
/// receive): under them [`gather`]'s news all lands in one interval.
const GATHERING: [ProtocolKind; 3] = [ProtocolKind::Cas, ProtocolKind::Mrs, ProtocolKind::Fdas];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Theorems 4 and 5 and the space bound after every operation and every
    /// recovery session, for every RDT protocol.
    #[test]
    fn rdt_lgc_is_safe_and_optimal_through_crashes(
        n in 2usize..6,
        protocol in prop::sample::select(ProtocolKind::RDT.to_vec()),
        ops in prop::collection::vec(op(), 0..80),
    ) {
        run(n, protocol, &ops);
    }

    /// The same through stores of changes: 65 processes, the traffic
    /// among four of them on both sides of the first word boundary.
    #[test]
    fn stores_of_changes_hold_the_mirrors_vectors_through_crashes(
        protocol in prop::sample::select(ProtocolKind::RDT.to_vec()),
        ops in prop::collection::vec(op(), 0..60),
    ) {
        run_among(WIDE, &ACTIVE, protocol, &ops);
    }
}

proptest! {
    // Each case replays a prefix of 200 ops or more, and the variety is in
    // the three protocols and what follows.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same past the ring's reach, one entry changed more than 64
    /// times: `p64` tells `p0` of 70 checkpoints in a row before `p0`
    /// checkpoints, then the traffic goes on.
    #[test]
    fn an_entry_changed_past_the_rings_reach_is_stored_as_changes(
        protocol in prop::sample::select(GATHERING.to_vec()),
        ops in prop::collection::vec(op(), 0..60),
    ) {
        run_after(WIDE, &ACTIVE, protocol, &gather(ACTIVE.len(), [3; 70]), &ops);
    }

    /// The same past the ring's reach, more than 64 entries changed: 130
    /// processes, 70 of them active on both sides of both word
    /// boundaries, each of which tells the first before it checkpoints.
    #[test]
    fn entries_changed_past_the_rings_reach_are_stored_as_changes(
        protocol in prop::sample::select(GATHERING.to_vec()),
        ops in prop::collection::vec(op(), 0..30),
    ) {
        let active = wider_active();
        run_after(WIDER, &active, protocol, &gather(active.len(), 1..active.len()), &ops);
    }
}

/// A system twice as wide, and its 70 active processes.
const WIDER: usize = 130;

fn wider_active() -> Vec<usize> {
    (0..35).chain(WIDER - 35..WIDER).collect()
}

/// A system wide enough for a change log, and the processes of it that
/// take part.
const WIDE: usize = 65;
const ACTIVE: [usize; 4] = [0, 1, 63, 64];

/// The generator reaches what the property is about: sessions that roll
/// back and collect, and runs that go on after them.
#[test]
fn sessions_roll_back_and_collect() {
    let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
    let mut sys = System::new(3, ProtocolKind::Fdas);
    sys.checkpoint(p1);
    sys.send(p1, p0);
    sys.deliver(0);
    sys.checkpoint(p0);
    sys.send(p0, p2);
    sys.deliver(0);
    sys.checkpoint(p1);
    sys.send(p1, p2);
    sys.check("the prefix");
    sys.crash(&[p1].into_iter().collect());
    sys.check("the session");
    assert_eq!(sys.sessions, 1);
    assert_eq!(sys.mws[1].incarnation().value(), 1);
    assert!(!sys.eliminated.is_empty());
    sys.checkpoint(p1);
    sys.send(p1, p0);
    sys.deliver(0);
    sys.checkpoint(p0);
    sys.check("the run after the session");
}

/// Theorem 3 through a session, the case that fixes what `released`
/// holds: knowledge of a dead incarnation that reaches a process *after*
/// the session that amnestied it pins like any news. `p1` crashes and
/// restores `s_1^2`, so its checkpoints up to there belong to a dead
/// incarnation, and `p0` and `p2` knew of them: the session released
/// both. Then `p2` tells `p0` of `s_1^1`, which is news to `p0`, and `p0`
/// cannot tell it is stale: `UC_0[p1]` points at `p0`'s last checkpoint
/// and `p1` is a witness of it, though Lemma 1 would amnesty the entry.
#[test]
fn dead_incarnation_news_after_a_session_pins_like_any_news() {
    let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
    let mut sys = System::new(3, ProtocolKind::Fdas);
    sys.send(p1, p0);
    sys.deliver(0);
    sys.checkpoint(p1);
    sys.send(p1, p2);
    sys.deliver(0);
    sys.checkpoint(p1);
    sys.check("the prefix");
    sys.crash(&[p1].into_iter().collect());
    sys.check("the session");
    assert_eq!(sys.mws[1].incarnation().value(), 1);
    assert!(sys.released[0][1] > DvEntry::ZERO && sys.released[2][1] > DvEntry::ZERO);
    sys.send(p2, p0);
    sys.deliver(0);
    sys.check("the news");
    let (knows, last) = (sys.mws[0].dv().lineage(p1), sys.mws[0].last_stable());
    assert_eq!(
        (knows.incarnation().value(), knows.interval().value()),
        (0, 2)
    );
    assert!(!sys.mws[0].dv().dominates_live_checkpoint(
        p1,
        CheckpointIndex::new(1),
        sys.mws[1].incarnation()
    ));
    assert_eq!(sys.mws[0].uc_snapshot().unwrap()[1], Some(last));
    let c = CheckpointId::new(p0, last);
    assert!(sys
        .mirror
        .ccp()
        .witnesses_live(c, &sys.released[0])
        .contains(&p1));
}

/// The prefixes past the ring's reach do what they are for, checked op by
/// op: the first process's last checkpoint follows more than 64 changes
/// of its vector — 70 of one entry, or news of 70 processes — and keeps
/// just the entries they changed.
#[test]
fn the_gathering_prefixes_reach_past_the_ring() {
    let wider = wider_active();
    for protocol in GATHERING {
        for (n, active, senders) in [
            (WIDE, &ACTIVE[..], vec![3; 70]),
            (WIDER, &wider[..], (1..wider.len()).collect()),
        ] {
            let gathered = gather(active.len(), senders.iter().copied());
            let sys = run_among(n, active, protocol, &gathered);
            let store = sys.mws[0].store();
            let changed = store.changed_at(store.len() - 1).expect("changes");
            let expected: BTreeSet<usize> = senders.iter().map(|&a| active[a]).collect();
            let got: BTreeSet<usize> = changed.iter().map(ProcessId::index).collect();
            assert_eq!(got, &expected | &[0].into(), "{protocol:?} n = {n}");
        }
    }
}

/// The wide generator reaches what it is for: a store that keeps changes,
/// a fold of one, and a rollback onto one.
#[test]
fn a_wide_store_keeps_changes_and_rolls_back_onto_them() {
    let [p0, p1, p63, p64] = ACTIVE.map(ProcessId::new);
    let mut sys = System::new(WIDE, ProtocolKind::Fdas);
    sys.send(p0, p64);
    sys.deliver(0);
    sys.checkpoint(p0);
    sys.checkpoint(p63);
    sys.send(p63, p0);
    sys.deliver(0);
    sys.checkpoint(p0);
    sys.checkpoint(p1);
    sys.send(p1, p0);
    sys.deliver(0);
    sys.checkpoint(p0);
    sys.check("the prefix");
    let store = sys.mws[0].store();
    let kept: Vec<usize> = (0..store.len())
        .map(|k| store.changed_at(k).map_or(WIDE, |at| at.len()))
        .collect();
    assert_eq!(
        kept,
        vec![WIDE, 2, 2],
        "s^1 in full, then {{p0, p63}}, {{p0, p1}}"
    );
    sys.crash(&[p1].into_iter().collect());
    sys.check("the session");
    assert!(sys.mws[0].incarnation().value() == 1, "p0 was an orphan");
    assert_eq!(sys.mws[0].last_stable(), CheckpointIndex::new(2));
}
