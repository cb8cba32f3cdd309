//! The change log is invisible: a system wide enough to keep one, driven
//! through interned piggybacks (linked snapshots, restricted merges,
//! patched copies, kept buffers), goes through the states of a reference
//! system that sends with `send_with` and receives plain vectors — which
//! never interns, so never logs, and whose every receive is
//! `would_learn_from` + `merge_from_into` and every copy a clone.
//!
//! Run in a debug build: the middleware's two `debug_assert` oracles
//! (patched copy equals `dv`, merged piggyback dominated by `dv`) then
//! check every step from the inside as well.

use proptest::prelude::*;
use rdt_base::{CheckpointIndex, DependencyVector, Incarnation, Payload, ProcessId};
use rdt_core::{GcKind, LastIntervals};
use rdt_protocols::{Middleware, Piggyback, ProtocolKind, ReceiveReport};

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    a: usize,
    b: usize,
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..14, 0usize..64, 0usize..64).prop_map(|(kind, a, b)| Op { kind, a, b }),
        0..max,
    )
}

/// A message in flight, as each system carries it.
#[derive(Clone)]
struct Flight {
    to: usize,
    logged: Piggyback,
    plain: (DependencyVector, u64),
}

/// `k` live processes of an `n`-process system, twice: `logged` under the
/// change log, `plain` the reference.
struct Systems {
    ids: Vec<ProcessId>,
    logged: Vec<Middleware>,
    plain: Vec<Middleware>,
    in_flight: Vec<Flight>,
}

impl Systems {
    /// The live processes are spread over the id range, so the update
    /// set's spill words and the far end of the vector are in play.
    fn new(n: usize, k: usize, protocol: ProtocolKind) -> Self {
        let ids: Vec<_> = (0..k)
            .map(|i| ProcessId::new(i * (n - 1) / (k - 1)))
            .collect();
        let fresh = || {
            ids.iter()
                .map(|&id| Middleware::new(id, n, protocol, GcKind::RdtLgc))
                .collect()
        };
        Self {
            logged: fresh(),
            plain: fresh(),
            ids,
            in_flight: Vec::new(),
        }
    }

    /// What a recovery manager would distribute if `p` restored `ri`:
    /// everyone's last stable checkpoint and incarnation, `p`'s as they
    /// will be. Processes that never ran are at `s^0`.
    fn last_intervals(&self, p: usize, ri: CheckpointIndex) -> LastIntervals {
        let n = self.plain[0].n();
        let mut components = vec![(CheckpointIndex::ZERO, Incarnation::ZERO); n];
        for (i, mw) in self.plain.iter().enumerate() {
            components[self.ids[i].index()] = match i == p {
                true => (ri, mw.incarnation().next()),
                false => (mw.last_stable(), mw.incarnation()),
            };
        }
        LastIntervals::from_components(&components)
    }

    /// Applies `op` to both systems and compares everything it reported
    /// and every state it left; `at` says where, should they differ.
    fn step(&mut self, op: Op, at: impl std::fmt::Debug + Copy) {
        let k = self.ids.len();
        let p = op.a % k;
        match op.kind {
            0 | 1 => prop_assert_eq!(
                self.logged[p].basic_checkpoint(),
                self.plain[p].basic_checkpoint(),
                "{:?}",
                at
            ),
            // A burst: up to three sends of one interval, one snapshot —
            // which is `dv` as of the send, whatever it was patched from.
            2..=5 => {
                let to = (p + 1 + op.b % (k - 1)) % k;
                for _ in 0..=op.b % 3 {
                    let logged = self.logged[p].piggyback();
                    prop_assert_eq!(&*logged.dv, self.logged[p].dv(), "{:?}", at);
                    let (_, forced) = self.logged[p].send_reported(self.ids[to], Payload::empty());
                    let (plain, reference) = self.plain[p].send_with(|dv, i| (dv.clone(), i));
                    prop_assert_eq!(forced, reference, "{:?}", at);
                    prop_assert_eq!((&*logged.dv, logged.index), (&plain.0, plain.1), "{:?}", at);
                    self.in_flight.push(Flight { to, logged, plain });
                }
            }
            // Delivered in any order; lost; or delivered and left in
            // flight to arrive again.
            6..=11 => {
                if self.in_flight.is_empty() {
                    return;
                }
                let which = op.b % self.in_flight.len();
                let flight = match op.kind {
                    10 => self.in_flight[which].clone(),
                    _ => self.in_flight.remove(which),
                };
                if op.kind == 11 {
                    return;
                }
                let mut reference = ReceiveReport::default();
                let (dv, index) = &flight.plain;
                self.plain[flight.to]
                    .receive_vector_into(dv, *index, &mut reference)
                    .expect("alive");
                let report = self.logged[flight.to].receive_piggyback(&flight.logged);
                prop_assert_eq!(report, Ok(reference), "{:?}", at);
            }
            // A crash and a rollback, in-flight messages left to arrive;
            // with global information, the others hear of it too.
            _ => {
                let stored: Vec<_> = self.plain[p].store().indices().collect();
                let ri = stored[op.b % stored.len()];
                let li = (op.kind == 13).then(|| self.last_intervals(p, ri));
                for system in [&mut self.logged, &mut self.plain] {
                    system[p].crash();
                }
                prop_assert_eq!(
                    self.logged[p].rollback(ri, li.as_ref()),
                    self.plain[p].rollback(ri, li.as_ref()),
                    "{:?}",
                    at
                );
                for q in (0..k).filter(|&q| q != p) {
                    if let Some(li) = &li {
                        prop_assert_eq!(
                            self.logged[q].recovery_info(li),
                            self.plain[q].recovery_info(li),
                            "{:?}",
                            at
                        );
                    }
                }
            }
        }
        for (logged, plain) in self.logged.iter().zip(&self.plain) {
            prop_assert_eq!(logged.dv(), plain.dv(), "{:?}", at);
            prop_assert_eq!(logged.store(), plain.store(), "{:?}", at);
            prop_assert_eq!(logged.uc_snapshot(), plain.uc_snapshot(), "{:?}", at);
            prop_assert_eq!(logged.forced_count(), plain.forced_count(), "{:?}", at);
            prop_assert_eq!(logged.incarnation(), plain.incarnation(), "{:?}", at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `n` from just above the gate (65) up; long enough schedules that a
    /// busy process wraps its ring of 64 between two sends now and then.
    #[test]
    fn a_logging_system_goes_through_the_reference_systems_states(
        n in 65usize..200,
        k in 3usize..6,
        ops in ops(320),
    ) {
        for protocol in ProtocolKind::ALL {
            let mut systems = Systems::new(n, k, protocol);
            for (i, &op) in ops.iter().enumerate() {
                systems.step(op, (protocol, i, op));
            }
        }
    }
}
