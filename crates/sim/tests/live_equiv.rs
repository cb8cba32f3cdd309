//! The wire is invisible: a system whose messages travel as frames
//! (`LiveNode::send_frame` → bytes → `deliver_frame`) and one whose
//! messages stay in memory (`Middleware::send` → `receive_piggyback`) go
//! through identical states — under loss, duplication, reordering and
//! rollbacks into newer incarnations, for every protocol (BCS needs its
//! index to survive the codec).

use proptest::prelude::*;
use rdt_base::{Payload, ProcessId};
use rdt_core::GcKind;
use rdt_protocols::{Middleware, Piggyback, ProtocolKind};
use rdt_sim::LiveNode;

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    a: usize,
    b: usize,
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..11, 0usize..64, 0usize..64).prop_map(|(kind, a, b)| Op { kind, a, b }),
        0..max,
    )
}

/// How one universe moves a message; everything else is shared.
trait Carrier {
    type InFlight: Clone;
    fn new(owner: ProcessId, n: usize, protocol: ProtocolKind) -> Self;
    fn mw(&self) -> &Middleware;
    fn mw_mut(&mut self) -> &mut Middleware;
    /// Sends; renders the post-send forced checkpoint.
    fn send(&mut self, to: ProcessId) -> (Self::InFlight, String);
    /// Delivers; renders `(forced, eliminated)`.
    fn deliver(&mut self, message: &Self::InFlight) -> String;
}

impl Carrier for LiveNode {
    type InFlight = Vec<u8>;
    fn new(owner: ProcessId, n: usize, protocol: ProtocolKind) -> Self {
        LiveNode::new(owner, n, protocol, GcKind::RdtLgc)
    }
    fn mw(&self) -> &Middleware {
        self.middleware()
    }
    fn mw_mut(&mut self) -> &mut Middleware {
        self.middleware_mut()
    }
    fn send(&mut self, to: ProcessId) -> (Vec<u8>, String) {
        let (frame, forced) = self.send_frame(to);
        (frame.encode().to_vec(), format!("{forced:?}"))
    }
    fn deliver(&mut self, bytes: &Vec<u8>) -> String {
        let out = self
            .deliver_frame(bytes)
            .expect("alive")
            .expect("a frame a node encoded");
        format!("{:?}", (out.forced, out.eliminated))
    }
}

impl Carrier for Middleware {
    type InFlight = Piggyback;
    fn new(owner: ProcessId, n: usize, protocol: ProtocolKind) -> Self {
        Middleware::new(owner, n, protocol, GcKind::RdtLgc)
    }
    fn mw(&self) -> &Middleware {
        self
    }
    fn mw_mut(&mut self) -> &mut Middleware {
        self
    }
    fn send(&mut self, to: ProcessId) -> (Piggyback, String) {
        let pb = self.piggyback();
        let forced = self.send_reported(to, Payload::empty()).1;
        (pb, format!("{:?}", forced.map(|report| report.stored)))
    }
    fn deliver(&mut self, pb: &Piggyback) -> String {
        let report = self.receive_piggyback(pb).expect("alive");
        format!("{:?}", (report.forced, report.eliminated.len()))
    }
}

struct Universe<C: Carrier> {
    nodes: Vec<C>,
    in_flight: Vec<(usize, C::InFlight)>,
}

impl<C: Carrier> Universe<C> {
    fn new(n: usize, protocol: ProtocolKind) -> Self {
        Self {
            nodes: (0..n)
                .map(|i| C::new(ProcessId::new(i), n, protocol))
                .collect(),
            in_flight: Vec::new(),
        }
    }

    /// Applies `op`, rendering everything it reported.
    fn step(&mut self, op: Op) -> String {
        let n = self.nodes.len();
        let p = op.a % n;
        match op.kind {
            0 | 1 => format!("{:?}", self.nodes[p].mw_mut().basic_checkpoint()),
            2..=4 => {
                let q = (p + 1 + op.b % (n - 1)) % n;
                let (message, forced) = self.nodes[p].send(ProcessId::new(q));
                self.in_flight.push((q, message));
                forced
            }
            // Out of order; every third one stays in flight to arrive
            // again, and kind 9 is a loss.
            5..=9 => {
                if self.in_flight.is_empty() {
                    return String::new();
                }
                let at = op.b % self.in_flight.len();
                let (to, message) = if op.kind != 9 && op.a.is_multiple_of(3) {
                    self.in_flight[at].clone()
                } else {
                    self.in_flight.remove(at)
                };
                if op.kind == 9 {
                    return "lost".into();
                }
                self.nodes[to].deliver(&message)
            }
            // A crash and a rollback into a fresh incarnation, in-flight
            // messages of the dead one left to arrive.
            _ => {
                let mw = self.nodes[p].mw_mut();
                let stored: Vec<_> = mw.store().indices().collect();
                mw.crash();
                format!("{:?}", mw.rollback(stored[op.b % stored.len()], None))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn framed_and_in_memory_messages_are_indistinguishable(n in 2usize..5, ops in ops(120)) {
        for proto in ProtocolKind::ALL {
            let mut framed = Universe::<LiveNode>::new(n, proto);
            let mut direct = Universe::<Middleware>::new(n, proto);
            for (i, &op) in ops.iter().enumerate() {
                prop_assert_eq!(framed.step(op), direct.step(op), "{} op {} {:?}", proto, i, op);
                for (a, b) in framed.nodes.iter().zip(&direct.nodes) {
                    let (a, b) = (a.mw(), b.mw());
                    prop_assert_eq!(a.dv(), b.dv(), "{} op {} {:?}", proto, i, op);
                    prop_assert_eq!(a.store(), b.store(), "{} op {} {:?}", proto, i, op);
                    prop_assert_eq!(a.forced_count(), b.forced_count());
                    prop_assert_eq!(a.basic_count(), b.basic_count());
                    prop_assert_eq!(a.incarnation(), b.incarnation());
                }
            }
        }
    }
}

/// The property is not vacuous on its hardest part: a rollback opens an
/// incarnation above 0 and a later frame carries it to a peer.
#[test]
fn a_newer_incarnation_travels_the_wire() {
    let mut framed = Universe::<LiveNode>::new(2, ProtocolKind::Fdas);
    let op = |kind, a, b| Op { kind, a, b };
    for op in [op(0, 0, 0), op(10, 0, 0), op(2, 0, 0), op(5, 1, 0)] {
        framed.step(op);
    }
    let learned = framed.nodes[1].mw().dv().lineage(ProcessId::new(0));
    assert_eq!(framed.nodes[0].mw().incarnation().value(), 1);
    assert_eq!(learned.incarnation().value(), 1);
}
