//! `live-uds`: the `rdt serve` worker loop without its pacing sleep, trace
//! log and process boundary.
//!
//! Two `LiveNode`s of an n = 256 system exchange frames over two
//! `UdsTransport` sockets in one thread, alternating direction:
//! `send_frame` → `WireFrame::encode` → `Transport::send` →
//! `Transport::recv` → `deliver_frame`. Closed loop, window 1: a frame is
//! sent only after the previous one was applied.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rdt_base::{Payload, ProcessId};
use rdt_core::GcKind;
use rdt_env::{DetRng, Rng as _, Transport, UdsTransport, WireFrame};
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_sim::LiveNode;

use crate::harness::{
    median_call_ns, ns_since, scale, timer_overhead_ns, Layers, Mode, Rep, Workload,
};
use crate::host::{shorten, work_root};
use crate::stats::{median, percentile};

const N: usize = 256;
const PROTOCOL: ProtocolKind = ProtocolKind::Fdas;
const GC: GcKind = GcKind::RdtLgc;
/// Share of frames preceded by a basic checkpoint of their sender.
const CHECKPOINT_SHARE: f64 = 0.1;

/// The `live-uds` workload.
#[derive(Debug)]
pub struct LiveUds {
    frames: usize,
    dir: PathBuf,
}

impl LiveUds {
    /// 100 000 frames per repetition (10 000 in quick mode).
    pub fn new(quick: bool) -> Self {
        Self {
            frames: scale(100_000, quick),
            dir: shorten(&work_root().join(format!("live-uds-{}", std::process::id()))),
        }
    }
}

impl Drop for LiveUds {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Which frames are preceded by a checkpoint: the generated input.
fn schedule(seed: u64, frames: usize) -> Vec<bool> {
    let mut rng = DetRng::seeded(seed);
    (0..frames).map(|_| rng.chance(CHECKPOINT_SHARE)).collect()
}

/// What the two middlewares must look like after the schedule: the same
/// sends, receives and checkpoints through in-memory `Middleware::send` /
/// `receive`, no codec and no sockets.
fn reference(checkpoints: &[bool]) -> [Middleware; 2] {
    let mut mws = [
        Middleware::new(p(0), N, PROTOCOL, GC),
        Middleware::new(p(1), N, PROTOCOL, GC),
    ];
    for (k, &checkpoint) in checkpoints.iter().enumerate() {
        let (from, to) = (k % 2, (k + 1) % 2);
        if checkpoint {
            mws[from].basic_checkpoint().expect("live process");
        }
        let msg = mws[from].send(p(to), Payload::empty());
        mws[to].receive(&msg).expect("live process");
    }
    mws
}

/// What one timed body measured.
#[derive(Debug, Default)]
struct Frames {
    /// Per-frame `send_frame` → `deliver_frame` latency, ns.
    latencies: Vec<f64>,
    /// Frames that were not applied.
    failed: u64,
    /// Traced only: the five calls' times summed over all frames, seconds.
    parts_s: f64,
    /// Traced only: time spent in the stand-alone decode, which the plain
    /// body does not do, seconds.
    probe_s: f64,
}

/// The two ends of one repetition.
struct Pair {
    nodes: [LiveNode; 2],
    sockets: [UdsTransport; 2],
    buf: Vec<u8>,
}

impl Pair {
    fn bind(dir: &std::path::Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        // The timeout only bounds how long a lost frame stalls the loop;
        // on one thread every frame is already queued when `recv` runs.
        let timeout = Duration::from_millis(200);
        Ok(Self {
            nodes: [
                LiveNode::new(p(0), N, PROTOCOL, GC),
                LiveNode::new(p(1), N, PROTOCOL, GC),
            ],
            sockets: [
                UdsTransport::bind(dir, 0, timeout)?,
                UdsTransport::bind(dir, 1, timeout)?,
            ],
            buf: vec![0u8; rdt_env::transport::MAX_FRAME],
        })
    }

    /// Moves one frame `from` → `to`; `false` if it was not applied.
    fn frame(&mut self, from: usize, to: usize) -> bool {
        let (frame, _forced) = self.nodes[from].send_frame(p(to));
        let bytes = frame.encode();
        if self.sockets[from].send(p(to), &bytes).is_err() {
            return false;
        }
        let Ok(Some(len)) = self.sockets[to].recv(&mut self.buf) else {
            return false;
        };
        matches!(self.nodes[to].deliver_frame(&self.buf[..len]), Ok(Some(_)))
    }

    /// The plain timed body.
    fn run(&mut self, checkpoints: &[bool]) -> Frames {
        let mut out = Frames::default();
        out.latencies.reserve(checkpoints.len());
        for (k, &checkpoint) in checkpoints.iter().enumerate() {
            let (from, to) = (k % 2, (k + 1) % 2);
            if checkpoint && self.nodes[from].checkpoint().is_err() {
                out.failed += 1;
                continue;
            }
            let t = Instant::now();
            let applied = self.frame(from, to);
            out.latencies.push(ns_since(t));
            out.failed += u64::from(!applied);
        }
        out
    }

    /// The traced timed body: the same calls, each timed on its own, plus a
    /// stand-alone decode of the received bytes.
    fn run_traced(&mut self, checkpoints: &[bool], layers: &mut Layers) -> Frames {
        let frames = checkpoints.len();
        let mut out = Frames::default();
        out.latencies.reserve(frames);
        let mut calls: [Vec<f64>; 6] = std::array::from_fn(|_| Vec::with_capacity(frames));
        let mut frame_bytes = 0;
        for (k, &checkpoint) in checkpoints.iter().enumerate() {
            let (from, to) = (k % 2, (k + 1) % 2);
            if checkpoint && self.nodes[from].checkpoint().is_err() {
                out.failed += 1;
                continue;
            }
            let t0 = Instant::now();
            let (frame, _forced) = self.nodes[from].send_frame(p(to));
            let t1 = Instant::now();
            let bytes = frame.encode();
            let t2 = Instant::now();
            let sent = self.sockets[from].send(p(to), &bytes);
            let t3 = Instant::now();
            let received = self.sockets[to].recv(&mut self.buf);
            let t4 = Instant::now();
            let (Ok(()), Ok(Some(len))) = (sent, received) else {
                out.failed += 1;
                continue;
            };
            let applied = self.nodes[to].deliver_frame(&self.buf[..len]);
            let t5 = Instant::now();
            out.latencies.push((t5 - t0).as_nanos() as f64);
            out.failed += u64::from(!matches!(applied, Ok(Some(_))));

            let decoded = WireFrame::decode(std::hint::black_box(&self.buf[..len]));
            let decode_ns = ns_since(t5);
            std::hint::black_box(decoded);

            let spans = [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4];
            for (samples, span) in calls.iter_mut().zip(spans) {
                samples.push(span.as_nanos() as f64);
            }
            calls[5].push(decode_ns);
            frame_bytes = len;
        }
        out.parts_s = calls[..5].iter().flatten().sum::<f64>() / 1e9;
        out.probe_s = calls[5].iter().sum::<f64>() / 1e9;

        let overhead = timer_overhead_ns();
        let [send_frame, encode, uds_send, uds_recv, deliver, decode] = &calls;
        let deliver_ns = median_call_ns(deliver, overhead);
        let decode_ns = median_call_ns(decode, overhead);
        layers.insert(
            "sim.live.send_frame_ns",
            median_call_ns(send_frame, overhead),
        );
        layers.insert("env.wire.encode_ns", median_call_ns(encode, overhead));
        layers.insert("env.uds.send_ns", median_call_ns(uds_send, overhead));
        layers.insert("env.uds.recv_ns", median_call_ns(uds_recv, overhead));
        layers.insert("sim.live.deliver_ns", deliver_ns);
        layers.insert("env.wire.decode_ns", decode_ns);
        layers.insert("sim.live.apply_ns", deliver_ns - decode_ns);
        layers.insert("env.wire.frame_bytes", frame_bytes as f64);
        out
    }
}

impl Workload for LiveUds {
    fn rep(&mut self, seed: u64, mode: Mode, _expected: Option<u64>) -> Rep {
        let mut rep = Rep::default();

        let t = Instant::now();
        let checkpoints = schedule(seed, self.frames);
        let want = reference(&checkpoints);
        let mut pair = match Pair::bind(&self.dir) {
            Ok(pair) => pair,
            Err(e) => {
                rep.fail(format!("binding sockets under {}: {e}", self.dir.display()));
                return rep;
            }
        };
        rep.setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let Frames {
            mut latencies,
            failed,
            parts_s,
            probe_s,
        } = match mode {
            Mode::Plain => pair.run(&checkpoints),
            Mode::Traced => pair.run_traced(&checkpoints, &mut rep.layers),
        };
        rep.wall_s = t.elapsed().as_secs_f64() - probe_s;
        rep.ops = self.frames as u64;
        rep.failed = failed;
        // The five call timings of a traced repetition are held against the
        // summed frame latencies of the plain ones. Every span holds one
        // clock read's worth of time that is not the call's.
        let clock_s = timer_overhead_ns() / 1e9 * latencies.len() as f64;
        rep.whole_or_parts_s = match mode {
            Mode::Plain => latencies.iter().sum::<f64>() / 1e9 - clock_s,
            Mode::Traced => parts_s - 5.0 * clock_s,
        };
        if mode == Mode::Plain {
            latencies.sort_by(f64::total_cmp);
            rep.op_samples = latencies.len() as u64;
            for (name, q) in [
                ("sim.live.apply_us_p50", 0.5),
                ("sim.live.apply_us_p99", 0.99),
            ] {
                rep.layers.insert(name, percentile(&latencies, q) / 1e3);
            }
        } else {
            rep.exact
                .insert("env.wire.frame_bytes", rep.layers["env.wire.frame_bytes"]);
        }

        if failed > 0 {
            rep.fail(format!(
                "{failed} of {} frames were not applied",
                self.frames
            ));
        }
        for (node, want) in pair.nodes.iter().zip(&want) {
            let got = node.middleware();
            if got.dv() != want.dv() || got.store().len() != want.store().len() {
                rep.fail(format!(
                    "{}: state after the frames differs from the in-memory replay",
                    got.owner()
                ));
            }
        }
        rep
    }

    /// `live-uds` with the flight recorder installed against without, on a
    /// tenth of the frames (the recorder fsyncs every 64 events).
    fn probes(&mut self, seed: u64, _layers: &Layers) -> Result<Layers, String> {
        let checkpoints = schedule(seed, (self.frames / 10).max(1));
        let per_frame = |recorded: bool| -> Result<f64, String> {
            let rounds = (0..3)
                .map(|_| {
                    let mut pair = Pair::bind(&self.dir).map_err(|e| e.to_string())?;
                    if recorded {
                        rdt_obs::flight::install(self.dir.join("flight.jsonl"), 0);
                    }
                    let t = Instant::now();
                    let failed = pair.run(&checkpoints).failed;
                    let ns = ns_since(t) / checkpoints.len() as f64;
                    rdt_obs::flight::uninstall();
                    if failed > 0 {
                        return Err(format!("{failed} frames lost with recorder={recorded}"));
                    }
                    Ok(ns)
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(median(&rounds))
        };
        let off = per_frame(false)?;
        let on = per_frame(true)?;
        let mut out = Layers::new();
        out.insert("obs.flight_overhead_pct", (on / off - 1.0) * 100.0);
        Ok(out)
    }
}
