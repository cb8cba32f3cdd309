//! The shared per-process protocol driver for *live* runtimes (threads,
//! real OS processes) — every delivery path that is not the
//! discrete-event engine funnels through here.
//!
//! A [`LiveNode`] wraps one middleware and speaks the crate-neutral
//! [`WireFrame`] codec: sends produce an encoded frame ready for any
//! [`Transport`](rdt_env::Transport) (or an in-process channel), receives
//! consume raw bytes and reject malformed or alien frames instead of
//! panicking. The `rdt serve` workers, the benchmark's frame path and the
//! threaded example all drive this type, so the protocol-side handling of
//! a message exists exactly once.
//!
//! There is no representation between the middleware's vector and the
//! frame's bytes: a send encodes straight from `Middleware::dv()` into a
//! frame-sized buffer the node keeps, a delivery validates the bytes and
//! unpacks them into an n-entry vector the node keeps, which the
//! middleware merges by reference. With observability off the steady state
//! allocates nothing (`tests/live_alloc.rs` counts).
//!
//! Every operation also logs what it did (target `rdt_sim::live`), after
//! applying it and before the caller transmits anything: `checkpoint` for
//! a basic checkpoint; `frame_send` (with `forced` for the CAS/CASBR
//! post-send checkpoint), `frame_recv` and `frame_apply` (with `forced`
//! for the checkpoint stored before the merge) for frames; and
//! `gc_collect` after every operation that eliminated checkpoints. That is
//! the whole history the offline oracle replays, in the shape the
//! simulator's trace has. Sends are stamped with the node's causal parent
//! — the identity of the last frame it applied — which travels on the wire
//! in the [`WireFrame`] trace context, and `rdt causal` later stitches the
//! per-process logs into one happened-before order. The events flow into
//! the process event log unconditionally (when one is installed) and
//! through the normal sink at `debug`; when neither is active the fields
//! are never materialized, so the hot path stays cheap and the
//! deterministic engine is untouched.

use rdt_base::{CheckpointIndex, DependencyVector, ProcessId, Result};
use rdt_core::GcKind;
use rdt_env::{Storage, Volatile, WireFrame};
use rdt_obs::{Event, Level, Value};
use rdt_protocols::{Middleware, ProtocolKind, ReceiveReport};

/// Target for causal span events.
const OBS_TARGET: &str = "rdt_sim::live";

/// Whether causal span events would go anywhere right now.
#[inline]
fn obs_active() -> bool {
    rdt_obs::flight::enabled() || rdt_obs::sink::enabled(Level::Debug)
}

/// Hands one event to the process event log (unfiltered) and the process
/// sink (level-filtered).
fn obs_record(level: Level, name: &'static str, fields: Vec<(&'static str, Value)>) {
    let event = Event {
        level,
        target: OBS_TARGET,
        name,
        message: String::new(),
        fields,
    };
    rdt_obs::flight::record(&event);
    rdt_obs::sink::emit(&event);
}

/// Logs the checkpoints an operation of `mw` eliminated, if any, with the
/// peer entries that still pin the survivors (the uc view): the typed
/// live-GC provenance, and the `Collect`s the offline audit judges.
fn log_collects<S: Storage>(mw: &Middleware<S>, eliminated: &[CheckpointIndex]) {
    if eliminated.is_empty() || !(rdt_obs::flight::enabled() || rdt_obs::sink::enabled(Level::Info))
    {
        return;
    }
    let collected: Vec<String> = eliminated.iter().map(|c| c.value().to_string()).collect();
    let mut fields = vec![
        ("process", Value::U64(mw.owner().index() as u64)),
        ("eliminated", Value::U64(eliminated.len() as u64)),
        ("collected", Value::Str(collected.join(","))),
    ];
    if let Some(uc) = mw.uc_snapshot() {
        let pins: Vec<String> = uc
            .iter()
            .enumerate()
            .filter_map(|(q, c)| c.map(|c| format!("{q}:{}", c.value())))
            .collect();
        fields.push(("pins", Value::Str(pins.join(","))));
    }
    obs_record(Level::Info, "gc_collect", fields);
}

/// What a delivered frame did to the local middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliverOutcome {
    /// The frame's originating process.
    pub sender: ProcessId,
    /// The sender-local message sequence number.
    pub seq: u64,
    /// The forced checkpoint the receive stored, if the protocol demanded
    /// one.
    pub forced: Option<CheckpointIndex>,
    /// Checkpoints garbage-collected during this receive.
    pub eliminated: usize,
}

/// One process of a live runtime: a middleware plus the wire codec and
/// the reused buffers of the frame path.
#[derive(Debug)]
pub struct LiveNode<S: Storage = Volatile> {
    mw: Middleware<S>,
    scratch: ReceiveReport,
    /// The outgoing frame; [`send_frame`](Self::send_frame) returns a view
    /// over it.
    out: Vec<u8>,
    /// The vector of the frame being delivered.
    incoming: DependencyVector,
    /// Sender-local sequence of the next outgoing message — the wire
    /// identity peers see; volatile, like the middleware's own counter.
    next_seq: u64,
    /// Causal parent for the next send: the `(origin, seq)` of the last
    /// frame this node applied. Volatile — after a crash the first send
    /// is a causal root again, which is exactly right post-rollback.
    last_applied: Option<(u32, u64)>,
    /// Frame encode/decode timings (`live/encode`, `live/decode`);
    /// disabled by default — see [`set_profiling`](Self::set_profiling).
    prof: rdt_obs::Profiler,
}

impl LiveNode {
    /// A fresh node with volatile storage.
    pub fn new(owner: ProcessId, n: usize, protocol: ProtocolKind, gc: GcKind) -> Self {
        Self::over(Middleware::new(owner, n, protocol, gc))
    }
}

impl<S: Storage> LiveNode<S> {
    /// Wraps an existing middleware (e.g. one rebuilt from durable
    /// storage after a crash).
    pub fn over(mw: Middleware<S>) -> Self {
        Self {
            scratch: ReceiveReport::default(),
            out: Vec::new(),
            incoming: DependencyVector::new(mw.n()),
            mw,
            next_seq: 0,
            last_applied: None,
            prof: rdt_obs::Profiler::disabled(),
        }
    }

    /// Enables (or disables) frame-path profiling: [`send_frame`]
    /// (`live/encode`) and [`deliver_frame`](Self::deliver_frame)
    /// (`live/decode`) record per-call latencies. Replaces any
    /// previously accumulated timings.
    ///
    /// [`send_frame`]: Self::send_frame
    pub fn set_profiling(&mut self, on: bool) {
        self.prof = rdt_obs::Profiler::new(on);
    }

    /// The accumulated frame-path timings (`Some` iff profiling is on).
    pub fn profile(&self) -> Option<&rdt_obs::ProfileReport> {
        self.prof.report()
    }

    /// Removes and returns the accumulated timings, leaving profiling on.
    pub fn take_profile(&mut self) -> Option<rdt_obs::ProfileReport> {
        let on = self.prof.enabled();
        std::mem::replace(&mut self.prof, rdt_obs::Profiler::new(on)).into_report()
    }

    /// The wrapped middleware.
    pub fn middleware(&self) -> &Middleware<S> {
        &self.mw
    }

    /// The wrapped middleware, mutably (rollback, sink access).
    pub fn middleware_mut(&mut self) -> &mut Middleware<S> {
        &mut self.mw
    }

    /// Unwraps the middleware.
    pub fn into_middleware(self) -> Middleware<S> {
        self.mw
    }

    /// Takes a basic checkpoint; returns the stored index.
    ///
    /// # Errors
    ///
    /// As [`Middleware::basic_checkpoint`].
    pub fn checkpoint(&mut self) -> Result<CheckpointIndex> {
        let report = self.mw.basic_checkpoint()?;
        crate::step::debug_assert_retained_bound(&self.mw);
        if obs_active() {
            obs_record(
                Level::Debug,
                "checkpoint",
                vec![
                    ("process", Value::U64(self.mw.owner().index() as u64)),
                    ("index", Value::U64(report.stored.value() as u64)),
                ],
            );
        }
        log_collects(&self.mw, &report.eliminated);
        Ok(report.stored)
    }

    /// Performs a send's protocol duties and encodes the piggyback as a
    /// wire frame for the caller to transmit (`frame.encode()` is the
    /// node's buffer, valid until the next call). Returns the frame and
    /// the post-send forced checkpoint (CAS/CASBR), if any.
    ///
    /// # Panics
    ///
    /// Panics while crashed, like [`Middleware::send`].
    pub fn send_frame(&mut self, to: ProcessId) -> (WireFrame<'_>, Option<CheckpointIndex>) {
        let t = self.prof.start();
        let seq = self.next_seq;
        self.next_seq += 1;
        let (owner, parent, out) = (self.mw.owner(), self.last_applied, &mut self.out);
        // The sender's own entry as the frame carries it: a post-send
        // forced checkpoint moves it on.
        let own = self.mw.dv().lineage(owner);
        let (frame, forced) = self
            .mw
            .send_with(move |dv, index| WireFrame::write(out, owner, seq, index, parent, dv));
        self.prof.stop("live/encode", t);
        if obs_active() {
            let mut fields = vec![
                ("process", Value::U64(owner.index() as u64)),
                ("to", Value::U64(to.index() as u64)),
                ("seq", Value::U64(seq)),
                ("inc", Value::U64(u64::from(own.incarnation().value()))),
                ("interval", Value::U64(own.interval().value() as u64)),
                ("forced", Value::Bool(forced.is_some())),
            ];
            if let Some((po, ps)) = frame.parent {
                fields.push(("parent_process", Value::U64(u64::from(po))));
                fields.push(("parent_seq", Value::U64(ps)));
            }
            obs_record(Level::Debug, "frame_send", fields);
        }
        let forced = forced.map(|report| {
            log_collects(&self.mw, &report.eliminated);
            report.stored
        });
        (frame, forced)
    }

    /// Decodes and delivers one received frame. Returns `Ok(None)` for
    /// frames that fail validation — torn datagrams, wrong magic, vectors
    /// of a different system size, overflowing lineages — which a lossy
    /// transport treats as channel noise, not an error.
    ///
    /// # Errors
    ///
    /// [`rdt_base::Error::ProcessCrashed`] while crashed.
    pub fn deliver_frame(&mut self, bytes: &[u8]) -> Result<Option<DeliverOutcome>> {
        let t = self.prof.start();
        let outcome = self.deliver_frame_inner(bytes);
        self.prof.stop("live/decode", t);
        outcome
    }

    fn deliver_frame_inner(&mut self, bytes: &[u8]) -> Result<Option<DeliverOutcome>> {
        let Some(frame) = WireFrame::decode(bytes) else {
            return Ok(None);
        };
        // A vector of another system size or with an overflowing lineage
        // fails to unpack; `incoming` is scratch, the middleware untouched.
        if frame.sender.index() >= self.mw.n() || frame.unpack_into(&mut self.incoming).is_err() {
            return Ok(None);
        }
        let active = obs_active();
        if active {
            let mut fields = vec![
                ("process", Value::U64(self.mw.owner().index() as u64)),
                ("from", Value::U64(frame.sender.index() as u64)),
                ("seq", Value::U64(frame.seq)),
            ];
            if let Some((po, ps)) = frame.parent {
                fields.push(("parent_process", Value::U64(u64::from(po))));
                fields.push(("parent_seq", Value::U64(ps)));
            }
            obs_record(Level::Debug, "frame_recv", fields);
        }
        self.mw
            .receive_vector_into(&self.incoming, frame.index, &mut self.scratch)?;
        crate::step::debug_assert_retained_bound(&self.mw);
        self.last_applied = Some((frame.sender.index() as u32, frame.seq));
        let eliminated = self.scratch.eliminated.len();
        if active {
            // The learned entry for the sender after the merge — must
            // dominate (≥, lexicographic on incarnation then interval)
            // what the frame carried; `rdt causal` checks exactly that.
            let learned = self.mw.dv().lineage(frame.sender);
            obs_record(
                Level::Debug,
                "frame_apply",
                vec![
                    ("process", Value::U64(self.mw.owner().index() as u64)),
                    ("from", Value::U64(frame.sender.index() as u64)),
                    ("seq", Value::U64(frame.seq)),
                    ("inc", Value::U64(u64::from(learned.incarnation().value()))),
                    ("interval", Value::U64(learned.interval().value() as u64)),
                    ("forced", Value::Bool(self.scratch.forced.is_some())),
                    ("eliminated", Value::U64(eliminated as u64)),
                ],
            );
        }
        log_collects(&self.mw, &self.scratch.eliminated);
        Ok(Some(DeliverOutcome {
            sender: frame.sender,
            seq: frame.seq,
            forced: self.scratch.forced,
            eliminated,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn frames_round_trip_between_nodes() {
        let mut a = LiveNode::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut b = LiveNode::new(p(1), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        b.checkpoint().unwrap();
        let (frame, forced) = b.send_frame(p(0));
        assert!(forced.is_none(), "FDAS never forces on send");
        assert_eq!(frame.seq, 0);
        assert_eq!(frame.parent, None, "first send is a causal root");
        let outcome = a
            .deliver_frame(frame.encode())
            .unwrap()
            .expect("valid frame");
        assert_eq!(outcome.sender, p(1));
        // The receiver learned the sender's interval.
        assert_eq!(a.middleware().dv().entry(p(1)).value(), 2);
    }

    #[test]
    fn wire_send_matches_in_memory_send_effects() {
        // The same scenario through frames and through in-memory messages
        // must leave identical middleware state.
        let mut wire_a = LiveNode::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut wire_b = LiveNode::new(p(1), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut mem_a = Middleware::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut mem_b = Middleware::new(p(1), 2, ProtocolKind::Fdas, GcKind::RdtLgc);

        // a sends, then b checkpoints and sends fresher info back: forced.
        let (f1, _) = wire_a.send_frame(p(1));
        let m1 = mem_a.send(p(1), rdt_base::Payload::empty());
        wire_b.deliver_frame(f1.encode()).unwrap().unwrap();
        mem_b.receive(&m1).unwrap();
        wire_b.checkpoint().unwrap();
        mem_b.basic_checkpoint().unwrap();
        let (f2, _) = wire_b.send_frame(p(0));
        let m2 = mem_b.send(p(0), rdt_base::Payload::empty());
        let wire_out = wire_a.deliver_frame(f2.encode()).unwrap().unwrap();
        let mem_out = mem_a.receive(&m2).unwrap();

        assert_eq!(wire_out.forced, mem_out.forced);
        assert_eq!(wire_a.middleware().dv(), mem_a.dv());
        assert_eq!(wire_a.middleware().store().len(), mem_a.store().len());
    }

    #[test]
    fn garbage_and_alien_frames_are_ignored() {
        let mut a = LiveNode::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        assert_eq!(a.deliver_frame(b"not a frame").unwrap(), None);
        // A frame from a 3-process system does not fit a 2-process node,
        // nor does a sender the node has no entry for.
        let mut buf = Vec::new();
        for (sender, n) in [(2, 3), (2, 2)] {
            let alien =
                WireFrame::write(&mut buf, p(sender), 0, 0, None, &DependencyVector::new(n));
            assert_eq!(a.deliver_frame(alien.encode()).unwrap(), None);
        }
    }

    #[test]
    fn an_overflowing_lineage_is_ignored_and_leaves_the_node_untouched() {
        let mut a = LiveNode::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut b = LiveNode::new(p(1), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        b.checkpoint().unwrap();
        let mut bytes = b.send_frame(p(0)).0.encode().to_vec();
        // Entry 1's incarnation becomes 2¹⁶ under a valid checksum: the
        // frame decodes, the entry does not fit the packed word.
        let body = bytes.len() - 8;
        bytes[40 + 12 + 2] = 1;
        let sum = rdt_base::codec::checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert!(WireFrame::decode(&bytes).is_some());
        let before = a.middleware().dv().clone();
        assert_eq!(a.deliver_frame(&bytes).unwrap(), None);
        assert_eq!(a.middleware().dv(), &before);
        // The scratch vector holds half a frame now; the next valid frame
        // overwrites all of it.
        a.deliver_frame(b.send_frame(p(0)).0.encode())
            .unwrap()
            .expect("valid frame");
        assert_eq!(a.middleware().dv().to_raw(), vec![1, 2]);
    }

    #[test]
    fn causal_parent_is_the_last_applied_frame() {
        let mut a = LiveNode::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut b = LiveNode::new(p(1), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let f0 = b.send_frame(p(0)).0.encode().to_vec();
        let (f1, _) = b.send_frame(p(0));
        assert_eq!(
            f1.parent, None,
            "sends without any applied frame stay roots"
        );
        a.deliver_frame(&f0).unwrap().unwrap();
        let (fa, _) = a.send_frame(p(1));
        assert_eq!(fa.parent, Some((1, 0)), "parent is b's frame seq 0");
        a.deliver_frame(f1.encode()).unwrap().unwrap();
        let (fa2, _) = a.send_frame(p(1));
        assert_eq!(fa2.parent, Some((1, 1)), "parent advances with each apply");
        // The parent survives the wire.
        assert_eq!(
            WireFrame::decode(fa2.encode()).unwrap().parent,
            Some((1, 1))
        );
    }

    #[test]
    fn a_decoded_frame_is_never_a_known_snapshot() {
        // Stamps do not travel, so a frame can neither hit the receive memo
        // nor displace what an in-memory snapshot left there.
        let mut a = LiveNode::new(p(0), 3, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut b = LiveNode::new(p(1), 3, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut c = Middleware::new(p(2), 3, ProtocolKind::Fdas, GcKind::RdtLgc);
        let bytes = b.send_frame(p(0)).0.encode().to_vec();
        a.deliver_frame(&bytes).unwrap().expect("valid frame");
        assert_eq!(a.middleware().merged_stamp(), None);
        let snapshot = c.piggyback();
        a.middleware_mut().receive_piggyback(&snapshot).unwrap();
        let stamp = Some(snapshot.dv.stamp());
        // The same bytes again, after a rollback took their news away: were
        // they remembered as merged, entry 1 would stay 0.
        a.middleware_mut().crash();
        a.middleware_mut()
            .rollback(CheckpointIndex::ZERO, None)
            .unwrap();
        a.middleware_mut().receive_piggyback(&snapshot).unwrap();
        assert_eq!(a.middleware().dv().entry(p(1)).value(), 0);
        for _ in 0..2 {
            a.deliver_frame(&bytes).unwrap().expect("valid frame");
            assert_eq!(a.middleware().dv().entry(p(1)).value(), 1, "not scanned");
            assert_eq!(a.middleware().merged_stamp(), stamp, "memo displaced");
        }
    }

    #[test]
    fn crashed_node_rejects_delivery() {
        let mut a = LiveNode::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut b = LiveNode::new(p(1), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let (frame, _) = b.send_frame(p(0));
        a.middleware_mut().crash();
        assert!(a.deliver_frame(frame.encode()).is_err());
    }
}
