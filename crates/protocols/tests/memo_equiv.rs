//! The receive memo and the kept snapshot buffers are invisible: a
//! middleware fed the senders' interned piggybacks (same-stamp bursts, so
//! the memo hits and delivered snapshots are kept for the next copy) and
//! one fed a deep copy of each (fresh stamp, so the memo never hits and
//! the senders' snapshots are never shared) go through identical states.

use proptest::prelude::*;
use rdt_base::{Payload, ProcessId};
use rdt_core::GcKind;
use rdt_protocols::{Middleware, Piggyback, ProtocolKind};

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    a: usize,
    b: usize,
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..10, 0usize..64, 0usize..64).prop_map(|(kind, a, b)| Op { kind, a, b }),
        0..max,
    )
}

/// One system of `n` middlewares and its messages in flight.
struct Universe {
    mws: Vec<Middleware>,
    in_flight: Vec<(ProcessId, Piggyback)>,
    /// Whether a delivery hands over the piggyback as sent or a deep copy.
    interned: bool,
}

impl Universe {
    fn new(n: usize, protocol: ProtocolKind, interned: bool) -> Self {
        let mws = (0..n)
            .map(|i| Middleware::new(ProcessId::new(i), n, protocol, GcKind::RdtLgc))
            .collect();
        Self {
            mws,
            in_flight: Vec::new(),
            interned,
        }
    }

    /// Applies `op`, rendering everything it reported.
    fn step(&mut self, op: Op) -> String {
        let n = self.mws.len();
        let p = op.a % n;
        match op.kind {
            0 | 1 => format!("{:?}", self.mws[p].basic_checkpoint()),
            // A burst: up to three sends of one interval, one snapshot.
            2..=4 => {
                let q = ProcessId::new((p + 1 + op.b % (n - 1)) % n);
                let forced: Vec<_> = (0..=op.b % 3)
                    .map(|_| {
                        let pb = self.mws[p].piggyback();
                        self.in_flight.push((q, pb));
                        self.mws[p].send_reported(q, Payload::empty()).1
                    })
                    .collect();
                format!("{forced:?}")
            }
            // Out of order, and every third one leaves its message in
            // flight to arrive again.
            5..=8 => {
                if self.in_flight.is_empty() {
                    return String::new();
                }
                let at = op.b % self.in_flight.len();
                let (to, pb) = if op.a.is_multiple_of(3) {
                    self.in_flight[at].clone()
                } else {
                    self.in_flight.remove(at)
                };
                let pb = if self.interned {
                    pb
                } else {
                    Piggyback::new((*pb.dv).clone(), pb.index)
                };
                format!("{:?}", self.mws[to.index()].receive_piggyback(&pb))
            }
            // A crash and a rollback, in-flight messages left to arrive:
            // the receiver may meet a snapshot it merged before and lost.
            _ => {
                let stored: Vec<_> = self.mws[p].store().indices().collect();
                let ri = stored[op.b % stored.len()];
                self.mws[p].crash();
                format!("{:?}", self.mws[p].rollback(ri, None))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interned_and_copied_piggybacks_are_indistinguishable(n in 2usize..5, ops in ops(120)) {
        for proto in ProtocolKind::ALL {
            let mut shared = Universe::new(n, proto, true);
            let mut copied = Universe::new(n, proto, false);
            for (i, &op) in ops.iter().enumerate() {
                prop_assert_eq!(shared.step(op), copied.step(op), "{} op {} {:?}", proto, i, op);
            }
            for (a, b) in shared.mws.iter().zip(&copied.mws) {
                prop_assert_eq!(a.dv(), b.dv());
                prop_assert_eq!(a.store(), b.store());
                prop_assert_eq!(a.forced_count(), b.forced_count());
                prop_assert_eq!(a.basic_count(), b.basic_count());
                prop_assert_eq!(a.incarnation(), b.incarnation());
            }
        }
    }
}
