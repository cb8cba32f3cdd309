//! What every workload hands back to the runner, and the metric names the
//! runner prints (mirrored by `../BENCHMARK.json`; `tests/quick.rs` fails
//! when the two drift apart).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// Per-layer measurements of one repetition or probe, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer a
/// workload does not exercise reads 0 there — that is the layer-separation
/// statement, not a missing measurement.
pub const PER_LAYER: [(&str, &str); 68] = [
    // The public steps behind `SimulationBuilder::run()`.
    ("workloads.generate_ms", "ms"),
    ("sim.new_ms", "ms"),
    ("sim.schedule_ms", "ms"),
    ("sim.drain_ms", "ms"),
    ("sim.report_ms", "ms"),
    // Phases of the engine's own `ProfileReport`.
    ("sim.engine.drain_ms", "ms"),
    ("sim.engine.recovery_ms", "ms"),
    ("sim.engine.control_round_ms", "ms"),
    ("sim.engine.self_ms", "ms"),
    ("sim.shard.plan_ms", "ms"),
    ("sim.shard.setup_ms", "ms"),
    ("sim.shard.drain_ms", "ms"),
    ("sim.shard.exchange_ms", "ms"),
    ("sim.shard.barrier_wait_ms", "ms"),
    ("sim.shard.finish_ms", "ms"),
    ("sim.shard.merge_ms", "ms"),
    ("sim.shard.run_wall_ms", "ms"),
    // The run's trace replayed through bare middlewares.
    ("protocols.send_ns", "ns"),
    ("protocols.receive_ns", "ns"),
    ("protocols.checkpoint_ns", "ns"),
    ("protocols.replay_ms", "ms"),
    ("base.dv.merge_ns", "ns"),
    ("base.dv.news_ratio", "ratio"),
    ("env.queue.cancel_us", "us"),
    ("recovery.session_us_p50", "us"),
    ("recovery.rolled_back_per_session", "count"),
    // The live frame path, call by call.
    ("sim.live.send_frame_ns", "ns"),
    ("env.wire.encode_ns", "ns"),
    ("env.uds.send_ns", "ns"),
    ("env.uds.recv_ns", "ns"),
    ("sim.live.deliver_ns", "ns"),
    ("env.wire.decode_ns", "ns"),
    ("sim.live.apply_ns", "ns"),
    ("sim.live.apply_us_p50", "us"),
    ("sim.live.apply_us_p99", "us"),
    ("env.wire.frame_bytes", "bytes"),
    // The durable store, backend call by backend call.
    ("storage.backend.write_us", "us"),
    ("storage.backend.fsync_us", "us"),
    ("storage.backend.fsync_dir_us", "us"),
    ("storage.backend.rename_us", "us"),
    ("storage.backend.remove_us", "us"),
    ("storage.backend.list_us", "us"),
    ("storage.backend.read_us", "us"),
    ("storage.backend.fsyncs_per_commit", "count"),
    ("storage.backend.lists_per_commit", "count"),
    ("storage.backend.writes_per_commit", "count"),
    ("storage.bytes_per_commit", "bytes"),
    ("storage.commit.self_us", "us"),
    ("storage.commit_us_p50", "us"),
    ("storage.commit_us_p99", "us"),
    ("storage.codec.encode_ns", "ns"),
    ("storage.codec.decode_ns", "ns"),
    ("storage.restart.loaded", "count"),
    ("storage.restart_us_p50", "us"),
    ("storage.restart_us_p99", "us"),
    ("storage.transient_retries", "count"),
    // Simulated statistics: identical on every run of one seed.
    ("sim.events", "count"),
    ("sim.deliveries", "count"),
    ("sim.forced", "count"),
    ("sim.collected", "count"),
    ("sim.sessions", "count"),
    ("sim.rolled_back", "count"),
    ("sim.max_retained", "count"),
    // Cost of looking.
    ("obs.profile_overhead_pct", "%"),
    ("obs.flight_overhead_pct", "%"),
    ("bench.parts_over_whole", "ratio"),
    ("bench.reps", "count"),
    ("bench.op_samples", "count"),
];

/// Per-layer metrics that are counts of one seed's first repetition, not
/// timings: two commits that differ only in speed must agree on them
/// exactly, and `compare` enforces that.
pub const EXACT: [&str; 14] = [
    "sim.events",
    "sim.deliveries",
    "sim.forced",
    "sim.collected",
    "sim.sessions",
    "sim.rolled_back",
    "sim.max_retained",
    "recovery.rolled_back_per_session",
    "env.wire.frame_bytes",
    "storage.backend.fsyncs_per_commit",
    "storage.backend.lists_per_commit",
    "storage.backend.writes_per_commit",
    "storage.bytes_per_commit",
    "storage.restart.loaded",
];

/// How a repetition is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed from outside only: the end-to-end numbers.
    Plain,
    /// With the layer boundaries timed too: the per-layer numbers.
    Traced,
}

/// One repetition of a workload's timed body on one derived seed.
#[derive(Debug, Default)]
pub struct Rep {
    /// Everything before the first timed call, in seconds.
    pub setup_s: f64,
    /// Wall of the timed body, in seconds.
    pub wall_s: f64,
    /// [`Mode::Plain`]: the seconds the traced parts should add up to.
    /// [`Mode::Traced`]: the sum of those parts, each timed on its own.
    /// Zero where a workload has no such decomposition.
    pub whole_or_parts_s: f64,
    /// Operations attempted (events, frames, commits, restarts).
    pub ops: u64,
    /// Operations that failed; all of them when a check failed.
    pub failed: u64,
    /// Per-operation latency samples taken ([`Mode::Plain`] only; the
    /// simulator workloads have none).
    pub op_samples: u64,
    /// [`Mode::Traced`]: layer timings. [`Mode::Plain`]: the percentiles of
    /// the per-operation latencies, which need no timing inside.
    pub layers: Layers,
    /// Exact counts ([`Mode::Traced`] only); see [`EXACT`].
    pub exact: Layers,
    /// Fingerprint of the outputs, where the workload has one to pin.
    pub fingerprint: Option<u64>,
    /// Why the repetition's check failed.
    pub failure: Option<String>,
}

impl Rep {
    /// Marks the repetition's whole output wrong.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed = self.ops.max(1);
        self.failure.get_or_insert(why.into());
    }
}

/// A named workload: repetitions on derived seeds plus once-per-run probes.
pub trait Workload {
    /// Runs one repetition: set-up, timed body, correctness check.
    /// `expected` is the pinned fingerprint for this repetition, if any.
    fn rep(&mut self, seed: u64, mode: Mode, expected: Option<u64>) -> Rep;

    /// Stand-alone measurements of single layers, made once per traced run
    /// on the first repetition's seed. `layers` holds the medians of the
    /// traced repetitions, for probes that report a difference.
    fn probes(&mut self, _seed: u64, _layers: &Layers) -> Result<Layers, String> {
        Ok(Layers::new())
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds since `start`, as a float.
pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Median cost of one `Instant::now()` … `elapsed()` pair, in ns: what a
/// per-call timing adds to the call it brackets.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..4096)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(&t);
            ns_since(t)
        })
        .collect();
    median(&samples)
}

/// Median of per-call samples in ns with the clock's own cost taken out.
pub fn median_call_ns(samples: &[f64], overhead_ns: f64) -> f64 {
    (median(samples) - overhead_ns).max(0.0)
}

/// A workload size, divided by ten in `--quick` mode.
pub fn scale(size: usize, quick: bool) -> usize {
    if quick {
        size / 10
    } else {
        size
    }
}

/// splitmix64: the `k`-th repetition seed derived from `--seed`.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
