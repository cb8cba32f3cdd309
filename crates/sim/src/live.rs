//! The shared per-process protocol driver for *live* runtimes (threads,
//! real OS processes) — every delivery path that is not the
//! discrete-event engine funnels through here.
//!
//! A [`LiveNode`] is the simulators' step core over one process, plus the
//! crate-neutral [`WireFrame`] codec: its checkpoint, send and delivery
//! are the engines' handlers, event for event, so the protocol-side
//! handling of every event exists exactly once. Sends produce an encoded
//! frame ready for any [`Transport`] (or an in-process channel), receives
//! consume raw bytes and reject malformed or alien frames instead of
//! panicking. Where a live process differs from a simulated one is its
//! wire state alone: the frame buffers, the last applied frame and a
//! clock. The clock is what [`tick`](LiveNode::tick) sets, and every event
//! first advances the collector to it (only the time-based baseline
//! reacts). A frame delivered to a crashed node is lost and logged as a
//! drop, as in the engines. The benchmark's frame path drives a node
//! directly.
//!
//! A [`LiveWorker`] is the one loop that runs a live process: a node over
//! any [`Transport`], stepped by its caller — pump what arrived, tick,
//! one operation of a fixed mix — with every write of a step checked
//! before a frame leaves. `rdt serve`'s workers step it over Unix-domain
//! sockets, the threaded example over channels between threads, and the
//! in-process worker oracle over a channel mesh it steps in a seeded
//! order.
//!
//! There is no representation between the middleware's vector and the
//! frame's bytes: a send encodes straight from `Middleware::dv()` into a
//! frame-sized buffer the node keeps, and mints no shared snapshot; a
//! delivery validates the bytes and unpacks them into an n-entry vector
//! the node keeps, which the middleware merges by reference. With
//! observability off the steady state allocates nothing
//! (`tests/live_alloc.rs` counts).
//!
//! Every operation also logs what it did to the process event log
//! (`rdt_obs::flight`), when one is installed, after applying it and
//! before the caller transmits anything: the node's sink renders the step
//! core's [`TraceEvent`]s for the operation, in its order, as
//! [`TraceLine`]s in one write — a send and then its post-send forced
//! checkpoint (CAS/CASBR); a delivery's forced checkpoint and then the
//! delivery; one collect per eliminated checkpoint after the operation,
//! and before it those of the clock's advance. The sink also counts what
//! the events say into [`LiveStats`].
//!
//! **Lineage.** Send and deliver lines carry the sender's dependency
//! entry: a send's is the sender's own entry as the frame carried it,
//! read before a post-send forced checkpoint moves it on; a delivery's is
//! the receiver's entry for the sender after the merge, which is never
//! older (lexicographic on incarnation, then interval) than what the frame
//! carried — the merge of logs checks it. That is the whole history the
//! offline oracle replays. With no log installed no line is rendered, so
//! the hot path stays cheap and the deterministic engines are untouched.
//!
//! Sends are stamped with the node's causal parent — the identity of the
//! last frame it applied — which travels on the wire in the
//! [`WireFrame`] trace context.

use rdt_base::{
    CheckpointIndex, DependencyVector, DvEntry, Error, MessageId, ProcessId, Result, TraceEvent,
};
use rdt_core::GcKind;
use rdt_env::transport::MAX_FRAME;
use rdt_env::{DetRng, Rng as _, Storage, Transport, Volatile, WireFrame};
use rdt_protocols::{Middleware, ProtocolKind};

use crate::metrics::MetricOp;
use crate::step::{Sink, StepCore};
use crate::TraceLine;

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

/// What a live node's operations did, counted from the step core's
/// observables as they happened.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LiveStats {
    /// Frames sent.
    pub sent: u64,
    /// Frames delivered (validated and applied).
    pub delivered: u64,
    /// Basic checkpoints taken.
    pub basic: u64,
    /// Forced checkpoints, after a send (CAS/CASBR) or before a delivery.
    pub forced: u64,
    /// Checkpoints the operations eliminated.
    pub eliminated: u64,
}

impl LiveStats {
    /// Counts one event a process logged: the rule by which a history's
    /// lines are read back as the counts its node kept.
    pub fn tally(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Send { .. } => self.sent += 1,
            TraceEvent::Deliver { .. } => self.delivered += 1,
            TraceEvent::Checkpoint { forced: false, .. } => self.basic += 1,
            TraceEvent::Checkpoint { forced: true, .. } => self.forced += 1,
            TraceEvent::Collect { .. } => self.eliminated += 1,
            TraceEvent::Drop { .. } | TraceEvent::Crash { .. } | TraceEvent::Restore { .. } => {}
        }
    }
}

/// A live node's [`Sink`]: each trace event becomes a line of the
/// operation's event-log write, and what the events and metric ops say
/// the node did is counted.
#[derive(Debug)]
struct LiveSink {
    owner: ProcessId,
    /// The lines of the operation being performed.
    log: String,
    stats: LiveStats,
}

impl LiveSink {
    /// Writes the operation's lines to the event log in one write.
    fn write(&mut self) {
        rdt_obs::flight::record(&self.log);
        self.log.clear();
    }
}

impl Sink for LiveSink {
    const LINEAGE: bool = true;

    fn trace(&mut self, event: TraceEvent, lineage: Option<DvEntry>) {
        match event {
            TraceEvent::Checkpoint { forced: false, .. } => self.stats.basic += 1,
            TraceEvent::Checkpoint { forced: true, .. } => self.stats.forced += 1,
            TraceEvent::Collect { .. } => self.stats.eliminated += 1,
            _ => {}
        }
        if rdt_obs::flight::enabled() {
            // A drop happens in the network; everything else here.
            let process = (!matches!(event, TraceEvent::Drop { .. })).then_some(self.owner);
            let mut line = TraceLine::new(process, event);
            line.lineage = lineage;
            line.render(&mut self.log);
            self.log.push('\n');
        }
    }

    fn metric(&mut self, op: MetricOp) {
        match op {
            MetricOp::Sent(_) => self.stats.sent += 1,
            MetricOp::Delivered(_) => self.stats.delivered += 1,
            _ => {}
        }
    }

    fn occupancy(&mut self, _at: u64, _p: ProcessId, _retained: usize) {}
}

/// One process of a live runtime: a one-process step core plus the wire
/// codec and the reused buffers of the frame path.
#[derive(Debug)]
pub struct LiveNode<S: Storage = Volatile> {
    core: StepCore<S>,
    sink: LiveSink,
    /// The collector's clock: [`tick`](Self::tick) sets it, every
    /// operation first advances the collector to it.
    now: u64,
    /// The outgoing frame; [`send_frame`](Self::send_frame) returns a view
    /// over it.
    out: Vec<u8>,
    /// The vector of the frame being delivered.
    incoming: DependencyVector,
    /// Causal parent for the next send: the `(origin, seq)` of the last
    /// frame this node applied. Volatile — after a crash the first send
    /// is a causal root again, which is exactly right post-rollback.
    last_applied: Option<(u32, u64)>,
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
        let n = mw.n();
        Self {
            sink: LiveSink {
                owner: mw.owner(),
                log: String::new(),
                stats: LiveStats::default(),
            },
            now: 0,
            out: Vec::new(),
            incoming: DependencyVector::new(n),
            core: StepCore::over(vec![mw], n),
            last_applied: None,
        }
    }

    /// The wrapped middleware.
    pub fn middleware(&self) -> &Middleware<S> {
        &self.core.processes()[0]
    }

    /// The wrapped middleware, mutably (rollback, sink access).
    pub fn middleware_mut(&mut self) -> &mut Middleware<S> {
        &mut self.core.processes_mut()[0]
    }

    /// Unwraps the middleware.
    pub fn into_middleware(self) -> Middleware<S> {
        self.core.into_processes().pop().expect("one process")
    }

    /// What the node's operations did so far.
    pub fn stats(&self) -> LiveStats {
        self.sink.stats
    }

    /// Sets the collector's clock to `now`: every later operation first
    /// advances the collector to it ([`Middleware::tick`]: the time-based
    /// baseline collects there, every other collector ignores it).
    pub fn tick(&mut self, now: u64) {
        self.now = now;
    }

    /// Takes a basic checkpoint; returns the stored index.
    ///
    /// # Errors
    ///
    /// [`rdt_base::Error::ProcessCrashed`] while crashed.
    pub fn checkpoint(&mut self) -> Result<CheckpointIndex> {
        let p = self.sink.owner;
        let stored = self.core.checkpoint(p, self.now, &mut self.sink);
        self.sink.write();
        stored?.ok_or(Error::ProcessCrashed(p))
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
        let (owner, parent, out) = (self.sink.owner, self.last_applied, &mut self.out);
        let sent = self
            .core
            .send_encoded(owner, to, self.now, &mut self.sink, |id, dv, index| {
                WireFrame::write(out, owner, id.seq, index, parent, dv)
            });
        self.sink.write();
        sent.expect("crashed processes do not send")
    }

    /// Decodes and delivers one received frame. Returns `Ok(None)` for
    /// frames that fail validation — torn datagrams, wrong magic, vectors
    /// of a different system size, overflowing lineages — which a lossy
    /// transport treats as channel noise, not an error, and for a frame a
    /// crashed node loses.
    ///
    /// # Errors
    ///
    /// A receive that fails in the middleware, or its commit.
    pub fn deliver_frame(&mut self, bytes: &[u8]) -> Result<Option<DeliverOutcome>> {
        let Some(frame) = WireFrame::decode(bytes) else {
            return Ok(None);
        };
        // A vector of another system size or with an overflowing lineage
        // fails to unpack; `incoming` is scratch, the middleware untouched.
        let id = MessageId::new(frame.sender, frame.seq);
        let n = self.incoming.len();
        if id.sender.index() >= n || frame.unpack_into(&mut self.incoming).is_err() {
            return Ok(None);
        }
        let carried = (&self.incoming, frame.index);
        let report = self
            .core
            .deliver(self.sink.owner, id, &carried, self.now, &mut self.sink);
        self.sink.write();
        let Some(report) = report? else {
            return Ok(None);
        };
        self.last_applied = Some((id.sender.index() as u32, id.seq));
        Ok(Some(DeliverOutcome {
            sender: id.sender,
            seq: id.seq,
            forced: report.forced,
            eliminated: report.eliminated.len(),
        }))
    }
}

/// Percent of a worker's operations that are basic checkpoints; the rest
/// are sends to a uniformly drawn other process.
const CHECKPOINT_PERCENT: u64 = 35;

/// One live process: a [`LiveNode`] over a [`Transport`], running its
/// workload one [`step`](Self::step) at a time for whoever drives it — a
/// real process pacing itself, a thread, or a test choosing which worker
/// steps next.
///
/// Each operation is **apply → log → transmit**: the middleware commits
/// through its sink, the node logs the operation's lines, and the sink and
/// the event log are checked after every delivery and again before a frame
/// goes out. A step whose commit or log write failed returns the error
/// and transmits nothing, so a peer never holds a frame whose sender's
/// disk or log is behind it.
#[derive(Debug)]
pub struct LiveWorker<T: Transport, S: Storage = Volatile> {
    node: LiveNode<S>,
    transport: T,
    rng: DetRng,
    /// The receive buffer, [`MAX_FRAME`] long.
    buf: Vec<u8>,
    /// The frame being sent, held while its step's writes are checked.
    out: Vec<u8>,
    /// The node's stats as of the last check that found every write of
    /// its operations done.
    written: LiveStats,
    /// Frame-path and transport timings (`live/decode`, `live/encode`,
    /// `live/recv`, `live/send`).
    prof: rdt_obs::Profiler,
}

impl<T: Transport, S: Storage> LiveWorker<T, S> {
    /// A worker running `node` over `transport`. Its operations are drawn
    /// from `seed` mixed with the node's rank, so the processes of a run
    /// share one seed and draw different streams.
    pub fn new(node: LiveNode<S>, transport: T, seed: u64) -> Self {
        let rank = node.middleware().owner().index() as u64;
        Self {
            rng: DetRng::seeded(seed ^ rank.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            written: node.stats(),
            node,
            transport,
            buf: vec![0; MAX_FRAME],
            out: Vec::new(),
            prof: rdt_obs::Profiler::disabled(),
        }
    }

    /// Enables (or disables) profiling of the frame path — a delivery
    /// (`live/decode`) and a send (`live/encode`), each with its log
    /// write — and of the transport (`live/recv`, `live/send`), replacing
    /// what was accumulated.
    pub fn set_profiling(&mut self, on: bool) {
        self.prof = rdt_obs::Profiler::new(on);
    }

    /// The accumulated frame-path and transport timings (empty unless
    /// profiling is on).
    pub fn profile(&self) -> rdt_obs::ProfileReport {
        self.prof.report().cloned().unwrap_or_default()
    }

    /// The node.
    pub fn node(&self) -> &LiveNode<S> {
        &self.node
    }

    /// The transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Unwraps the node.
    pub fn into_node(self) -> LiveNode<S> {
        self.node
    }

    /// What the worker's operations did so far, counting only operations
    /// whose every write succeeded: the node's [`LiveStats`] as of the
    /// last step or delivery that did not fail.
    pub fn stats(&self) -> LiveStats {
        self.written
    }

    /// Delivers every frame the transport has ready; frames that fail
    /// validation are dropped as channel noise.
    ///
    /// # Errors
    ///
    /// A failed receive, or a delivery whose commit or log write failed.
    pub fn pump(&mut self) -> Result<()> {
        loop {
            let mut t = self.prof.start();
            let received = self.transport.recv(&mut self.buf);
            self.prof.lap("live/recv", &mut t);
            let Some(len) = received.map_err(|e| Error::Transport(format!("recv: {e}")))? else {
                return Ok(());
            };
            let delivered = self.node.deliver_frame(&self.buf[..len]);
            self.prof.stop("live/decode", t);
            delivered?;
            self.written()?;
        }
    }

    /// One step at tick `now`: [`pump`](Self::pump), set the node's clock
    /// to `now`, then a basic checkpoint (35 %) or a send to a uniformly
    /// drawn other process, which first advances the collector to it.
    ///
    /// # Errors
    ///
    /// As [`pump`](Self::pump); a failed send; a crashed node's
    /// checkpoint; an operation whose commit or log write failed, which
    /// then transmits nothing.
    ///
    /// # Panics
    ///
    /// In a system of one process, which has no one to send to, and on a
    /// crashed node's send.
    pub fn step(&mut self, now: u64) -> Result<()> {
        self.pump()?;
        // A time-based collector discards what is older than its horizon
        // in these ticks, at the step's operation.
        self.node.tick(now);
        if self.rng.between(0, 99) < CHECKPOINT_PERCENT {
            self.node.checkpoint()?;
            return self.written();
        }
        let mw = self.node.middleware();
        let (n, me) = (mw.n() as u64, mw.owner().index() as u64);
        let k = self.rng.between(0, n - 2);
        let peer = ProcessId::new((k + u64::from(k >= me)) as usize);
        let t = self.prof.start();
        let (frame, _forced) = self.node.send_frame(peer);
        self.out.clear();
        self.out.extend_from_slice(frame.encode());
        self.prof.stop("live/encode", t);
        // Transmit strictly after the send and its forced checkpoint are
        // committed and logged: a peer can only deliver a message whose
        // Send the oracle will find, from a sender whose disk is not
        // behind its log.
        self.written()?;
        let t = self.prof.start();
        let sent = self.transport.send(peer, &self.out);
        self.prof.stop("live/send", t);
        sent.map_err(|e| Error::Transport(format!("send: {e}")))
    }

    /// The sink's first failed commit, else the event log's first failed
    /// write, since the last check: either way the process's history is no
    /// longer what it will say it did. With neither, the node's stats so
    /// far are written ones.
    fn written(&mut self) -> Result<()> {
        if let Some(e) = self.node.middleware_mut().take_sink_error() {
            return Err(Error::Storage(e));
        }
        if let Some(e) = rdt_obs::flight::take_error() {
            return Err(Error::Storage(format!("event log: {e}")));
        }
        self.written = self.node.stats();
        Ok(())
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
    fn workers_over_a_mesh_deliver_every_frame_they_send() {
        let mesh = rdt_env::ChannelTransport::mesh(3, std::time::Duration::ZERO);
        let mut workers: Vec<_> = mesh
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let node = LiveNode::new(p(i), 3, ProtocolKind::Cas, GcKind::RdtLgc);
                LiveWorker::new(node, t, 5)
            })
            .collect();
        for now in 1..=50 {
            for worker in &mut workers {
                worker.step(now).unwrap();
            }
        }
        for worker in &mut workers {
            worker.pump().unwrap();
        }
        let total =
            |count: fn(LiveStats) -> u64| -> u64 { workers.iter().map(|w| count(w.stats())).sum() };
        assert_eq!(total(|s| s.sent) + total(|s| s.basic), 150, "one op a step");
        assert_eq!(total(|s| s.delivered), total(|s| s.sent));
        assert_eq!(
            total(|s| s.forced),
            total(|s| s.sent),
            "CAS forces after a send"
        );
        for worker in &workers {
            let store = worker.node().middleware().store();
            assert_eq!(worker.stats().eliminated, store.total_collected() as u64);
        }
        assert!(total(|s| s.eliminated) > 0);
    }

    #[test]
    fn crashed_node_rejects_delivery() {
        // As in the simulators, a crashed process loses the message: not
        // an error, nothing applied, nothing counted as delivered.
        let mut a = LiveNode::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        let mut b = LiveNode::new(p(1), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        b.checkpoint().unwrap();
        let (frame, _) = b.send_frame(p(0));
        a.middleware_mut().crash();
        assert_eq!(a.deliver_frame(frame.encode()).unwrap(), None);
        assert_eq!(a.middleware().dv().entry(p(1)).value(), 0);
        assert_eq!(a.stats(), LiveStats::default());
        assert!(
            a.checkpoint().is_err(),
            "a crashed node takes no checkpoint"
        );
    }
}
