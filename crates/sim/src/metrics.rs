//! Measurement of the quantities the paper's analysis bounds.
//!
//! [`Metrics::sample`] runs after every handled event, so it must not cost
//! O(n): the global retained total behind
//! [`peak_global_retained`](Metrics::peak_global_retained) is kept as a
//! running sum, adjusted by the sampled process's change, and never
//! re-added from the per-process values. The sum is bookkeeping, not an
//! observable — it is left out of `Debug`, equality and serialisation, and
//! [`Metrics::total_retained`] still answers from the per-process values.
//! A debug build checks the two against each other at every sample; code
//! that writes `per_process[..].retained` directly, the field being
//! public, must not sample afterwards.

use std::fmt;

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
#[derive(Clone, Default, Serialize, Deserialize)]
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
    /// Running sum of `per_process[..].retained`, kept by
    /// [`set_retained`](Self::set_retained).
    #[serde(skip)]
    retained_total: usize,
}

/// Every field but the running retained total, exactly as derived. (The
/// destructuring makes a field added later a compile error here until it
/// is listed.)
impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self {
            per_process,
            peak_global_retained,
            recovery_sessions,
            total_rolled_back,
            control_rounds,
            ticks,
            degraded_lines,
            sequential_fallbacks,
            retained_total: _,
        } = self;
        f.debug_struct("Metrics")
            .field("per_process", per_process)
            .field("peak_global_retained", peak_global_retained)
            .field("recovery_sessions", recovery_sessions)
            .field("total_rolled_back", total_rolled_back)
            .field("control_rounds", control_rounds)
            .field("ticks", ticks)
            .field("degraded_lines", degraded_lines)
            .field("sequential_fallbacks", sequential_fallbacks)
            .finish()
    }
}

/// Every field but the running retained total, exactly as derived.
impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        let Self {
            per_process,
            peak_global_retained,
            recovery_sessions,
            total_rolled_back,
            control_rounds,
            ticks,
            degraded_lines,
            sequential_fallbacks,
            retained_total: _,
        } = self;
        *per_process == other.per_process
            && *peak_global_retained == other.peak_global_retained
            && *recovery_sessions == other.recovery_sessions
            && *total_rolled_back == other.total_rolled_back
            && *control_rounds == other.control_rounds
            && *ticks == other.ticks
            && *degraded_lines == other.degraded_lines
            && *sequential_fallbacks == other.sequential_fallbacks
    }
}

/// One metric mutation. `Sample` is the order-sensitive one: it moves the
/// global retained total by the sampled process's change and raises
/// `peak_global_retained` to the total *as of that sample*, so the peak
/// depends on how the samples of different processes interleave. Every
/// other effect commutes: a counter is a sum, and a process's sample fields
/// are written by the one thread that owns the process. The sharded engine
/// therefore applies every op in place to a per-thread [`Metrics`] and adds
/// the copies up at the end ([`Metrics::absorb`]); only each sample's
/// non-zero change of the retained count crosses threads, under its global
/// event key, to be folded in key order into the peak.
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
    /// Applies one mutation, on the spot, on the thread that emitted it.
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

    /// Adds `other`'s counters into these, row by row: the sharded
    /// engine's per-thread copies, each written only where its thread
    /// handled an event, make up the run's. A process's peak is the larger
    /// of the two; `peak_global_retained` is left alone — it is no sum of
    /// per-thread peaks, and the caller sets it from the fold of the
    /// retained changes.
    pub(crate) fn absorb(&mut self, other: &Metrics) {
        for (m, o) in self.per_process.iter_mut().zip(&other.per_process) {
            let ProcessMetrics {
                retained,
                peak_retained,
                total_stored,
                total_collected,
                basic,
                forced,
                sent,
                delivered,
                lost,
                retained_sum,
                samples,
            } = o;
            m.retained += retained;
            m.peak_retained = m.peak_retained.max(*peak_retained);
            m.total_stored += total_stored;
            m.total_collected += total_collected;
            m.basic += basic;
            m.forced += forced;
            m.sent += sent;
            m.delivered += delivered;
            m.lost += lost;
            m.retained_sum += retained_sum;
            m.samples += samples;
        }
        let Metrics {
            per_process: _,
            peak_global_retained: _,
            recovery_sessions,
            total_rolled_back,
            control_rounds,
            ticks,
            degraded_lines,
            sequential_fallbacks,
            retained_total,
        } = other;
        self.recovery_sessions += recovery_sessions;
        self.total_rolled_back += total_rolled_back;
        self.control_rounds += control_rounds;
        self.ticks += ticks;
        self.degraded_lines += degraded_lines;
        self.sequential_fallbacks += sequential_fallbacks;
        self.retained_total += retained_total;
    }

    /// Sets `p`'s current retained count, moving the running total by the
    /// difference.
    pub(crate) fn set_retained(&mut self, p: ProcessId, retained: usize) -> &mut ProcessMetrics {
        let m = &mut self.per_process[p.index()];
        self.retained_total = self.retained_total - m.retained + retained;
        m.retained = retained;
        m
    }

    /// Records a retained-count sample for `p` and raises the global peak
    /// to the new total, in O(1).
    pub fn sample(&mut self, p: ProcessId, retained: usize, peak: usize) {
        let m = self.set_retained(p, retained);
        m.peak_retained = m.peak_retained.max(peak);
        m.retained_sum += retained as u64;
        m.samples += 1;
        debug_assert_eq!(
            self.retained_total,
            self.total_retained(),
            "a retained count was written past set_retained"
        );
        self.peak_global_retained = self.peak_global_retained.max(self.retained_total);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The running total gives the peak a re-summing `sample` gives,
        /// and never shows in the derived-looking impls.
        #[test]
        fn peak_equals_the_resumming_reference(
            n in 1usize..9,
            samples in prop::collection::vec((0usize..64, 0usize..40), 0..200),
        ) {
            let mut m = Metrics::new(n);
            let mut retained = vec![0usize; n];
            let mut peak = 0;
            for (p, r) in samples {
                let p = p % n;
                m.sample(ProcessId::new(p), r, r);
                retained[p] = r;
                peak = peak.max(retained.iter().sum());
                prop_assert_eq!(m.peak_global_retained, peak);
                prop_assert_eq!(m.total_retained(), retained.iter().sum::<usize>());
            }
            // Same public fields, different running totals: still equal.
            let mut rebuilt = Metrics::new(n);
            rebuilt.per_process.clone_from(&m.per_process);
            rebuilt.peak_global_retained = m.peak_global_retained;
            prop_assert_eq!(&rebuilt, &m);
            prop_assert_eq!(format!("{rebuilt:?}"), format!("{m:?}"));
            prop_assert!(!format!("{m:#?}").contains("retained_total"));
        }
    }

    proptest! {
        /// Samples dealt out to per-thread copies by owner, counters to any
        /// copy: absorbed, the copies equal the one `Metrics` every op was
        /// applied to — the global peak aside, which no copy can know.
        #[test]
        fn absorbed_copies_equal_one_metrics(
            n in 1usize..9,
            threads in 1usize..4,
            ops in prop::collection::vec((0usize..64, 0usize..6, 0usize..40, 0usize..4), 0..200),
        ) {
            let mut whole = Metrics::new(n);
            let mut copies = vec![Metrics::new(n); threads];
            for (p, kind, r, thread) in ops {
                let p = ProcessId::new(p % n);
                let (op, thread) = match kind {
                    0 => (MetricOp::Sent(p), thread),
                    1 => (MetricOp::Delivered(p), thread),
                    2 => (MetricOp::Lost(p), thread),
                    3 => (MetricOp::Sample { p, retained: r, peak: r + 1 }, p.index()),
                    4 => (MetricOp::ControlRound, thread),
                    _ => (MetricOp::Session { rolled_back: r as u64, degraded: 1 }, thread),
                };
                whole.apply(op);
                copies[thread % threads].apply(op);
            }
            let mut sum = Metrics::new(n);
            for copy in &copies {
                sum.absorb(copy);
            }
            sum.peak_global_retained = whole.peak_global_retained;
            prop_assert_eq!(&sum, &whole);
            prop_assert_eq!(sum.retained_total, whole.retained_total);
        }
    }

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
