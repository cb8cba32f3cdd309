//! Simulation configuration.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Network channel behaviour: per-message delay, loss and (through variable
/// delays) reordering — the paper's asynchronous system model, in which
/// messages "can be lost or delivered out of order" (Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Minimum delivery delay, in ticks.
    pub min_delay: u64,
    /// Maximum delivery delay, in ticks (inclusive). Delays are drawn
    /// uniformly from `[min_delay, max_delay]`; unequal delays reorder
    /// messages naturally.
    pub max_delay: u64,
    /// Probability that a message is lost in transit.
    pub loss_rate: f64,
}

impl ChannelConfig {
    /// A reliable, reordering channel with delays in `[1, 20]`.
    pub fn reliable() -> Self {
        Self {
            min_delay: 1,
            max_delay: 20,
            loss_rate: 0.0,
        }
    }

    /// A lossy variant of [`reliable`](Self::reliable).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ loss_rate ≤ 1.0`.
    pub fn lossy(loss_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss_rate), "loss rate out of range");
        Self {
            loss_rate,
            ..Self::reliable()
        }
    }

    /// Instant delivery (delay 0, no loss): useful for deterministic tests.
    pub fn instant() -> Self {
        Self {
            min_delay: 0,
            max_delay: 0,
            loss_rate: 0.0,
        }
    }

    /// Validates the channel parameters. Hand-built and deserialized
    /// configs bypass the checked constructors, and an out-of-range
    /// `loss_rate` would otherwise panic deep inside the engine's RNG
    /// mid-run; this turns it into a typed error at construction time.
    ///
    /// # Errors
    ///
    /// [`rdt_base::Error::InvalidConfig`] if `loss_rate` is not a
    /// probability (NaN included) or `min_delay > max_delay`.
    pub fn validate(&self) -> rdt_base::Result<()> {
        if !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(rdt_base::Error::InvalidConfig(format!(
                "channel loss_rate {} is not a probability in [0, 1]",
                self.loss_rate
            )));
        }
        if self.min_delay > self.max_delay {
            return Err(rdt_base::Error::InvalidConfig(format!(
                "channel min_delay {} exceeds max_delay {}",
                self.min_delay, self.max_delay
            )));
        }
        Ok(())
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self::reliable()
    }
}

/// How processes map onto shards of the parallel engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Partitioning {
    /// Balanced contiguous blocks: processes `[k·n/s, (k+1)·n/s)` on
    /// shard `k`. Keeps ring/chain neighbours together, so patterns with
    /// local communication cross shards rarely.
    #[default]
    Contiguous,
    /// Round-robin: process `p` on shard `p mod s`. Spreads hot spots at
    /// the cost of making every neighbour link cross-shard.
    Strided,
}

impl Partitioning {
    /// The shard owning process `p` under this partitioning of `n`
    /// processes into `shards` shards.
    pub fn shard_of(self, p: usize, n: usize, shards: usize) -> usize {
        match self {
            Partitioning::Contiguous => p * shards / n,
            Partitioning::Strided => p % shards,
        }
    }
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partitioning::Contiguous => write!(f, "contiguous"),
            Partitioning::Strided => write!(f, "strided"),
        }
    }
}

/// Parallel-engine knobs. The default (`shards = 1`) is the sequential
/// engine; any higher count runs the conservative-lookahead sharded
/// engine, whose output is byte-identical for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Worker shards to partition the processes across. Clamped to the
    /// process count; `0` is rejected by validation.
    pub shards: usize,
    /// Process-to-shard assignment.
    pub partitioning: Partitioning,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            partitioning: Partitioning::default(),
        }
    }
}

/// Why a multi-shard run degraded to the sequential engine: the channel's
/// `min_delay` is 0, so a cross-shard message can be delivered in the tick
/// it was sent and the conservative lookahead window is empty. The run
/// counts it in
/// [`Metrics::sequential_fallbacks`](crate::Metrics::sequential_fallbacks)
/// rather than silently degrading to lockstep barriers every tick, and
/// `rdt` prints this message on stderr when that count is not zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroLookaheadFallback {
    /// The shard count that was requested.
    pub shards: usize,
}

impl fmt::Display for ZeroLookaheadFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "channel min_delay is 0: conservative lookahead is empty, so the requested {} shards \
             fall back to the sequential engine (set min_delay >= 1 to run sharded)",
            self.shards
        )
    }
}

impl std::error::Error for ZeroLookaheadFallback {}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Channel behaviour.
    pub channel: ChannelConfig,
    /// Ticks between consecutive application operations.
    pub ticks_per_op: u64,
    /// If set, a coordinator runs a control round every this many ticks,
    /// feeding the coordinated baseline collectors (`SimpleCoordinated`,
    /// `WangGlobal`). Asynchronous collectors ignore control rounds.
    pub control_every: Option<u64>,
    /// When a crash occurs, every *other* process also crashes with this
    /// probability — correlated failures exercising multi-process faulty
    /// sets in one recovery session.
    pub correlated_crash_prob: f64,
    /// Record a full event trace for offline (oracle) replay.
    pub record_trace: bool,
    /// Record one `(time, process, retained)` occupancy sample per processed
    /// event, for storage-timeline analyses.
    pub record_occupancy: bool,
    /// Application state-snapshot size in bytes recorded with each stored
    /// checkpoint (storage-space accounting).
    pub state_size: usize,
    /// Parallel-engine knobs (defaults to the sequential engine). The
    /// `serde(default)` keeps configs serialized before this field existed
    /// deserializable.
    #[serde(default)]
    pub shard: ShardConfig,
    /// Collect a phase-timing [`ProfileReport`](rdt_obs::ProfileReport)
    /// into the run's report. Profiling observes wall-clock time around the
    /// deterministic core — it draws no randomness and reorders no events,
    /// so enabling it leaves the simulation output byte-identical (asserted
    /// by `tests/obs_equiv.rs`). The `RDT_PROFILE` environment variable
    /// also enables it without touching the config. `serde(default)` keeps
    /// earlier serialized configs deserializable.
    #[serde(default)]
    pub profile: bool,
}

impl SimConfig {
    /// The fault-heavy preset used by the repeated-recovery stress runs and
    /// the CI smoke step: lossy channel, correlated multi-process faulty
    /// sets on every crash. Combine with a workload whose `crash_prob` is
    /// nonzero — this preset only shapes what a crash *does*, not how often
    /// one happens.
    pub fn fault_heavy() -> Self {
        Self {
            channel: ChannelConfig::lossy(0.05),
            correlated_crash_prob: 0.3,
            ..Self::default()
        }
    }

    /// Validates the whole configuration (channel included) — see
    /// [`ChannelConfig::validate`].
    ///
    /// # Errors
    ///
    /// [`rdt_base::Error::InvalidConfig`] for any out-of-range field.
    pub fn validate(&self) -> rdt_base::Result<()> {
        self.channel.validate()?;
        if !(0.0..=1.0).contains(&self.correlated_crash_prob) {
            return Err(rdt_base::Error::InvalidConfig(format!(
                "correlated_crash_prob {} is not a probability in [0, 1]",
                self.correlated_crash_prob
            )));
        }
        if self.shard.shards == 0 {
            return Err(rdt_base::Error::InvalidConfig(
                "shard count must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            channel: ChannelConfig::default(),
            ticks_per_op: 10,
            control_every: None,
            correlated_crash_prob: 0.0,
            record_trace: false,
            record_occupancy: false,
            state_size: 0,
            shard: ShardConfig::default(),
            profile: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_has_no_loss() {
        assert_eq!(ChannelConfig::reliable().loss_rate, 0.0);
    }

    #[test]
    fn instant_is_deterministic_delay() {
        let c = ChannelConfig::instant();
        assert_eq!((c.min_delay, c.max_delay), (0, 0));
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn lossy_validates_probability() {
        let _ = ChannelConfig::lossy(1.5);
    }

    #[test]
    fn default_config_records_nothing() {
        let c = SimConfig::default();
        assert!(!c.record_trace);
        assert!(c.control_every.is_none());
    }

    #[test]
    fn validate_accepts_every_preset() {
        for c in [
            ChannelConfig::reliable(),
            ChannelConfig::instant(),
            ChannelConfig::lossy(1.0),
        ] {
            c.validate().unwrap();
        }
        SimConfig::default().validate().unwrap();
        SimConfig::fault_heavy().validate().unwrap();
    }

    #[test]
    fn validate_rejects_hand_built_out_of_range_configs() {
        let bad_loss = ChannelConfig {
            loss_rate: 1.5,
            ..ChannelConfig::reliable()
        };
        assert!(bad_loss.validate().is_err());
        let nan_loss = ChannelConfig {
            loss_rate: f64::NAN,
            ..ChannelConfig::reliable()
        };
        assert!(nan_loss.validate().is_err());
        let inverted = ChannelConfig {
            min_delay: 9,
            max_delay: 3,
            ..ChannelConfig::reliable()
        };
        assert!(inverted.validate().is_err());
        let bad_corr = SimConfig {
            correlated_crash_prob: -0.1,
            ..SimConfig::default()
        };
        assert!(bad_corr.validate().is_err());
        let no_shards = SimConfig {
            shard: ShardConfig {
                shards: 0,
                ..ShardConfig::default()
            },
            ..SimConfig::default()
        };
        assert!(no_shards.validate().is_err());
    }

    #[test]
    fn partitionings_cover_every_process() {
        for partitioning in [Partitioning::Contiguous, Partitioning::Strided] {
            for n in 1..12 {
                for shards in 1..=n {
                    let mut sizes = vec![0usize; shards];
                    for p in 0..n {
                        let s = partitioning.shard_of(p, n, shards);
                        assert!(s < shards, "{partitioning}: {p}/{n} landed on {s}");
                        sizes[s] += 1;
                    }
                    let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                    assert!(
                        max - min <= 1,
                        "{partitioning}: unbalanced {sizes:?} for n={n} shards={shards}"
                    );
                }
            }
        }
    }

    #[test]
    fn contiguous_blocks_are_contiguous() {
        let shard: Vec<usize> = (0..10)
            .map(|p| Partitioning::Contiguous.shard_of(p, 10, 4))
            .collect();
        let mut sorted = shard.clone();
        sorted.sort_unstable();
        assert_eq!(shard, sorted, "block assignment must be monotone");
    }
}
