//! Measurement of the quantities the paper's analysis bounds.

use serde::{Deserialize, Serialize};

use rdt_base::ProcessId;

/// Per-process counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcessMetrics {
    /// Checkpoints currently in stable storage.
    pub retained: usize,
    /// Peak simultaneous occupancy (the `n + 1` bound's subject).
    pub peak_retained: usize,
    /// Checkpoints written over the run.
    pub total_stored: usize,
    /// Checkpoints eliminated over the run.
    pub total_collected: usize,
    /// Basic checkpoints taken.
    pub basic: u64,
    /// Forced checkpoints taken.
    pub forced: u64,
    /// Messages sent / delivered to this process / lost en route to it.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages lost.
    pub lost: u64,
    /// Sum of retained-count samples (one per processed event) for
    /// time-averaging.
    pub retained_sum: u64,
    /// Number of samples in `retained_sum`.
    pub samples: u64,
}

impl ProcessMetrics {
    /// Average retained checkpoints over the run (sampled per event).
    pub fn avg_retained(&self) -> f64 {
        if self.samples == 0 {
            self.retained as f64
        } else {
            self.retained_sum as f64 / self.samples as f64
        }
    }
}

/// Whole-run metrics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Per-process counters, indexed by process id.
    pub per_process: Vec<ProcessMetrics>,
    /// Peak of the *global* retained total across event samples.
    pub peak_global_retained: usize,
    /// Recovery sessions run.
    pub recovery_sessions: u64,
    /// Total checkpoints rolled back across all sessions.
    pub total_rolled_back: u64,
    /// Control rounds executed by the coordinator.
    pub control_rounds: u64,
    /// Simulated ticks elapsed.
    pub ticks: u64,
    /// Recovery-line components that degraded to the oldest surviving
    /// checkpoint because an unsafe (time-based) collector had eliminated
    /// every unblocked one. Always `0` for safe collectors — they error out
    /// instead of degrading (Lemma-1 totality).
    pub degraded_lines: u64,
    /// Times a requested multi-shard run fell back to the sequential
    /// engine because the topology admits zero lookahead
    /// ([`ZeroLookaheadFallback`](crate::ZeroLookaheadFallback)). `0` or
    /// `1` per run; summable across sweeps. `serde(default)` keeps
    /// metrics serialized before this field existed deserializable.
    #[serde(default)]
    pub sequential_fallbacks: u64,
}

/// One metric mutation. `Sample` is the order-sensitive one: it refreshes
/// `peak_global_retained` from the *current* per-process retained values,
/// which is why the sharded engine logs ops under their global event key
/// and replays them in key order instead of summing per shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MetricOp {
    Sent(ProcessId),
    Delivered(ProcessId),
    Lost(ProcessId),
    Sample {
        p: ProcessId,
        retained: usize,
        peak: usize,
    },
    ControlRound,
    Session {
        rolled_back: u64,
        degraded: u64,
    },
}

impl Metrics {
    /// Applies one mutation: on the spot in the sequential engine, in
    /// global key order when the sharded coordinator replays worker logs.
    pub(crate) fn apply(&mut self, op: MetricOp) {
        match op {
            MetricOp::Sent(p) => self.per_process[p.index()].sent += 1,
            MetricOp::Delivered(p) => self.per_process[p.index()].delivered += 1,
            MetricOp::Lost(p) => self.per_process[p.index()].lost += 1,
            MetricOp::Sample { p, retained, peak } => self.sample(p, retained, peak),
            MetricOp::ControlRound => self.control_rounds += 1,
            MetricOp::Session {
                rolled_back,
                degraded,
            } => {
                self.recovery_sessions += 1;
                self.total_rolled_back += rolled_back;
                self.degraded_lines += degraded;
            }
        }
    }

    /// Creates zeroed metrics for `n` processes.
    pub fn new(n: usize) -> Self {
        Self {
            per_process: vec![ProcessMetrics::default(); n],
            ..Self::default()
        }
    }

    /// The per-process metrics for `p`.
    pub fn process(&self, p: ProcessId) -> &ProcessMetrics {
        &self.per_process[p.index()]
    }

    /// Highest retained-checkpoint count observed on any single process —
    /// the paper bounds this by `n` (+1 transiently) for RDT-LGC.
    pub fn max_retained_per_process(&self) -> usize {
        self.per_process
            .iter()
            .map(|m| m.peak_retained)
            .max()
            .unwrap_or(0)
    }

    /// Current total retained across processes.
    pub fn total_retained(&self) -> usize {
        self.per_process.iter().map(|m| m.retained).sum()
    }

    /// Average of per-process time-averaged retention.
    pub fn avg_retained(&self) -> f64 {
        if self.per_process.is_empty() {
            return 0.0;
        }
        self.per_process
            .iter()
            .map(|m| m.avg_retained())
            .sum::<f64>()
            / self.per_process.len() as f64
    }

    /// Total forced checkpoints across processes.
    pub fn total_forced(&self) -> u64 {
        self.per_process.iter().map(|m| m.forced).sum()
    }

    /// Total basic checkpoints across processes.
    pub fn total_basic(&self) -> u64 {
        self.per_process.iter().map(|m| m.basic).sum()
    }

    /// Total checkpoints collected across processes.
    pub fn total_collected(&self) -> usize {
        self.per_process.iter().map(|m| m.total_collected).sum()
    }

    /// Total messages delivered.
    pub fn total_delivered(&self) -> u64 {
        self.per_process.iter().map(|m| m.delivered).sum()
    }

    /// Records a retained-count sample for `p` and refreshes the global
    /// peak.
    pub fn sample(&mut self, p: ProcessId, retained: usize, peak: usize) {
        let m = &mut self.per_process[p.index()];
        m.retained = retained;
        m.peak_retained = m.peak_retained.max(peak);
        m.retained_sum += retained as u64;
        m.samples += 1;
        let total = self.total_retained();
        self.peak_global_retained = self.peak_global_retained.max(total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_tracks_peaks_and_averages() {
        let mut m = Metrics::new(2);
        m.sample(ProcessId::new(0), 3, 3);
        m.sample(ProcessId::new(0), 1, 3);
        m.sample(ProcessId::new(1), 2, 2);
        assert_eq!(m.max_retained_per_process(), 3);
        assert_eq!(m.total_retained(), 3); // 1 + 2
        assert_eq!(m.peak_global_retained, 3);
        assert!((m.process(ProcessId::new(0)).avg_retained() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new(3);
        assert_eq!(m.max_retained_per_process(), 0);
        assert_eq!(m.avg_retained(), 0.0);
        assert_eq!(m.total_retained(), 0);
    }

    #[test]
    fn totals_sum_over_processes() {
        let mut m = Metrics::new(2);
        m.per_process[0].forced = 3;
        m.per_process[1].forced = 4;
        m.per_process[0].basic = 1;
        assert_eq!(m.total_forced(), 7);
        assert_eq!(m.total_basic(), 1);
    }
}
