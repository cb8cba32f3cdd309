//! Workload specifications and random generation.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use rdt_base::ProcessId;

use crate::ops::AppOp;

/// Communication topology of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    /// Every send picks a uniformly random partner.
    UniformRandom,
    /// A uniformly random sender sends to its ring successor.
    Ring,
    /// The first `servers` processes are servers; clients send to random
    /// servers, servers reply to random clients.
    ClientServer {
        /// Number of server processes (must be `< n`).
        servers: usize,
    },
    /// Like `UniformRandom`, but a sender emits `burst` consecutive messages
    /// to the same partner before re-drawing — models hot conversations
    /// where causal knowledge concentrates.
    Bursty {
        /// Messages per burst.
        burst: usize,
    },
    /// A token circulates; only the holder sends (to the successor), then
    /// passes the token. Maximizes causal-knowledge propagation.
    TokenRing,
    /// Hub-and-spoke: all traffic crosses process 0. Half the sends go
    /// spoke → hub, half hub → spoke — knowledge concentrates at the hub
    /// and spokes learn about each other only through it.
    Star,
    /// A unidirectional pipeline: `p_i` sends only to `p_{i+1}`; the last
    /// stage never sends. Knowledge flows one way, so upstream processes
    /// never learn downstream checkpoints — the adversarial case for
    /// causal-knowledge GC.
    Pipeline,
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::UniformRandom => write!(f, "uniform-random"),
            Pattern::Ring => write!(f, "ring"),
            Pattern::ClientServer { servers } => write!(f, "client-server({servers})"),
            Pattern::Bursty { burst } => write!(f, "bursty({burst})"),
            Pattern::TokenRing => write!(f, "token-ring"),
            Pattern::Star => write!(f, "star"),
            Pattern::Pipeline => write!(f, "pipeline"),
        }
    }
}

/// A reproducible workload: topology, length, checkpoint/crash rates, seed.
///
/// ```
/// use rdt_workloads::{Pattern, WorkloadSpec};
/// let spec = WorkloadSpec::uniform_random(4, 100)
///     .with_seed(7)
///     .with_checkpoint_prob(0.3);
/// let ops = spec.generate();
/// assert_eq!(ops.len(), 100);
/// // Same seed, same workload.
/// assert_eq!(ops, spec.generate());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of processes.
    pub n: usize,
    /// Number of application operations to generate.
    pub steps: usize,
    /// Communication topology.
    pub pattern: Pattern,
    /// RNG seed; everything is deterministic given the spec.
    pub seed: u64,
    /// Per-step probability that the acting process takes a basic checkpoint
    /// instead of sending.
    pub checkpoint_prob: f64,
    /// Per-step probability that the acting process crashes (triggering a
    /// recovery session in the simulator).
    pub crash_prob: f64,
}

impl WorkloadSpec {
    /// A uniform-random workload with the default checkpoint rate (0.2) and
    /// no crashes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn uniform_random(n: usize, steps: usize) -> Self {
        assert!(n >= 2, "workloads need at least two processes");
        Self {
            n,
            steps,
            pattern: Pattern::UniformRandom,
            seed: 0,
            checkpoint_prob: 0.2,
            crash_prob: 0.0,
        }
    }

    /// Sets the topology.
    pub fn with_pattern(mut self, pattern: Pattern) -> Self {
        if let Pattern::ClientServer { servers } = pattern {
            assert!(servers > 0 && servers < self.n, "0 < servers < n required");
        }
        if let Pattern::Bursty { burst } = pattern {
            assert!(burst > 0, "burst must be positive");
        }
        self.pattern = pattern;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the basic-checkpoint probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    pub fn with_checkpoint_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.checkpoint_prob = p;
        self
    }

    /// Sets the crash probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0` and `checkpoint_prob + p ≤ 1.0`.
    pub fn with_crash_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        assert!(self.checkpoint_prob + p <= 1.0, "probabilities exceed 1");
        self.crash_prob = p;
        self
    }

    /// Generates the operation stream. Deterministic in the spec.
    pub fn generate(&self) -> Vec<AppOp> {
        let mut ops = Vec::with_capacity(self.steps);
        self.ops().fill(self.steps, |op| ops.push(op));
        ops
    }

    /// The operation stream of [`generate`](Self::generate), produced on
    /// demand: a consumer that handles ops as they come never holds more
    /// than the block it asked for.
    ///
    /// ```
    /// use rdt_workloads::WorkloadSpec;
    /// let spec = WorkloadSpec::uniform_random(4, 100).with_seed(7);
    /// let (mut stream, mut ops) = (spec.ops(), Vec::new());
    /// while stream.fill(32, |op| ops.push(op)) > 0 {}
    /// assert_eq!(ops, spec.generate());
    /// ```
    pub fn ops(&self) -> OpStream {
        OpStream {
            rng: StdRng::seed_from_u64(self.seed),
            state: PatternState::new(self.pattern, self.n),
            n: self.n,
            checkpoint_below: self.checkpoint_prob,
            crash_below: self.checkpoint_prob + self.crash_prob,
            remaining: self.steps,
        }
    }
}

/// A [`WorkloadSpec`]'s operation stream in the making
/// ([`WorkloadSpec::ops`]): the generator's rng and pattern state between
/// two blocks.
#[derive(Debug)]
pub struct OpStream {
    rng: StdRng,
    state: PatternState,
    n: usize,
    /// A roll below this is a checkpoint, …
    checkpoint_below: f64,
    /// … else one below this a crash, else a send.
    crash_below: f64,
    remaining: usize,
}

impl OpStream {
    /// Ops still to come.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Hands the next `max` ops (fewer at the end of the stream) to `sink`
    /// in stream order; returns how many.
    ///
    /// A block at a time rather than an `Iterator`: the rng and the pattern
    /// state live in locals across the loop, which is what keeps
    /// [`WorkloadSpec::generate`] and a consumer's refill at the speed of a
    /// plain loop (`generate` as `collect` over a per-op `next` measured ×2).
    #[inline]
    pub fn fill(&mut self, max: usize, mut sink: impl FnMut(AppOp)) -> usize {
        let count = max.min(self.remaining);
        let (mut rng, mut state) = (self.rng.clone(), self.state);
        let (n, checkpoint_below, crash_below) = (self.n, self.checkpoint_below, self.crash_below);
        for _ in 0..count {
            let roll: f64 = rng.gen();
            sink(if roll < checkpoint_below {
                AppOp::Checkpoint(ProcessId::new(rng.gen_range(0..n)))
            } else if roll < crash_below {
                AppOp::Crash(ProcessId::new(rng.gen_range(0..n)))
            } else {
                let (from, to) = state.next_pair(&mut rng);
                AppOp::Send { from, to }
            });
        }
        (self.rng, self.state) = (rng, state);
        self.remaining -= count;
        count
    }
}

/// Mutable pattern state across a generation run.
#[derive(Debug, Clone, Copy)]
enum PatternState {
    UniformRandom {
        n: usize,
    },
    Ring {
        n: usize,
    },
    ClientServer {
        n: usize,
        servers: usize,
    },
    Bursty {
        n: usize,
        burst: usize,
        left: usize,
        pair: (usize, usize),
    },
    TokenRing {
        n: usize,
        holder: usize,
    },
    Star {
        n: usize,
    },
    Pipeline {
        n: usize,
    },
}

impl PatternState {
    fn new(pattern: Pattern, n: usize) -> Self {
        match pattern {
            Pattern::UniformRandom => PatternState::UniformRandom { n },
            Pattern::Ring => PatternState::Ring { n },
            Pattern::ClientServer { servers } => PatternState::ClientServer { n, servers },
            Pattern::Bursty { burst } => PatternState::Bursty {
                n,
                burst,
                left: 0,
                pair: (0, 1),
            },
            Pattern::TokenRing => PatternState::TokenRing { n, holder: 0 },
            Pattern::Star => PatternState::Star { n },
            Pattern::Pipeline => PatternState::Pipeline { n },
        }
    }

    #[inline]
    fn next_pair(&mut self, rng: &mut StdRng) -> (ProcessId, ProcessId) {
        let (a, b) = match self {
            PatternState::UniformRandom { n } => {
                let from = rng.gen_range(0..*n);
                let to = (from + 1 + rng.gen_range(0..*n - 1)) % *n;
                (from, to)
            }
            PatternState::Ring { n } => {
                let from = rng.gen_range(0..*n);
                (from, (from + 1) % *n)
            }
            PatternState::ClientServer { n, servers } => {
                // Half the traffic is client→server, half server→client.
                if rng.gen_bool(0.5) {
                    let from = rng.gen_range(*servers..*n);
                    (from, rng.gen_range(0..*servers))
                } else {
                    let from = rng.gen_range(0..*servers);
                    (from, rng.gen_range(*servers..*n))
                }
            }
            PatternState::Bursty {
                n,
                burst,
                left,
                pair,
            } => {
                if *left == 0 {
                    let from = rng.gen_range(0..*n);
                    let to = (from + 1 + rng.gen_range(0..*n - 1)) % *n;
                    *pair = (from, to);
                    *left = *burst;
                }
                *left -= 1;
                *pair
            }
            PatternState::TokenRing { n, holder } => {
                let from = *holder;
                *holder = (*holder + 1) % *n;
                (from, (from + 1) % *n)
            }
            PatternState::Star { n } => {
                let spoke = rng.gen_range(1..*n);
                if rng.gen_bool(0.5) {
                    (spoke, 0)
                } else {
                    (0, spoke)
                }
            }
            PatternState::Pipeline { n } => {
                let from = rng.gen_range(0..*n - 1);
                (from, from + 1)
            }
        };
        (ProcessId::new(a), ProcessId::new(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATTERNS: [Pattern; 7] = [
        Pattern::UniformRandom,
        Pattern::Ring,
        Pattern::ClientServer { servers: 2 },
        Pattern::Bursty { burst: 4 },
        Pattern::TokenRing,
        Pattern::Star,
        Pattern::Pipeline,
    ];

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::uniform_random(3, 200).with_seed(99);
        assert_eq!(spec.generate(), spec.generate());
    }

    /// The generator resumes: asked a block at a time, across every
    /// pattern's carried state (a burst in progress, the token's holder), it
    /// produces the stream it produces when asked for everything at once.
    #[test]
    fn a_stream_filled_in_blocks_is_the_generated_stream() {
        const BLOCK: usize = 64;
        for pattern in PATTERNS {
            for crash_prob in [0.0, 0.01] {
                for steps in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
                    let spec = WorkloadSpec::uniform_random(5, steps)
                        .with_pattern(pattern)
                        .with_seed(steps as u64)
                        .with_crash_prob(crash_prob);
                    let (mut stream, mut ops) = (spec.ops(), Vec::new());
                    while stream.remaining() > 0 {
                        let due = stream.remaining().min(BLOCK);
                        assert_eq!(stream.fill(BLOCK, |op| ops.push(op)), due);
                    }
                    assert_eq!(stream.fill(BLOCK, |_| panic!("a spent stream")), 0);
                    assert_eq!(ops, spec.generate(), "{pattern}, {steps} steps");
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadSpec::uniform_random(3, 200).with_seed(1).generate();
        let b = WorkloadSpec::uniform_random(3, 200).with_seed(2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn sends_never_self_address() {
        for pattern in PATTERNS {
            let spec = WorkloadSpec::uniform_random(5, 300)
                .with_pattern(pattern)
                .with_seed(3);
            for op in spec.generate() {
                if let AppOp::Send { from, to } = op {
                    assert_ne!(from, to, "{pattern}");
                }
            }
        }
    }

    #[test]
    fn checkpoint_probability_zero_yields_no_checkpoints() {
        let spec = WorkloadSpec::uniform_random(3, 100)
            .with_checkpoint_prob(0.0)
            .with_seed(5);
        assert!(spec
            .generate()
            .iter()
            .all(|op| !matches!(op, AppOp::Checkpoint(_))));
    }

    #[test]
    fn crash_probability_injects_crashes() {
        let spec = WorkloadSpec::uniform_random(3, 400)
            .with_checkpoint_prob(0.1)
            .with_crash_prob(0.1)
            .with_seed(5);
        assert!(spec
            .generate()
            .iter()
            .any(|op| matches!(op, AppOp::Crash(_))));
    }

    #[test]
    fn client_server_traffic_crosses_the_tier_boundary() {
        let servers = 2;
        let spec = WorkloadSpec::uniform_random(5, 300)
            .with_pattern(Pattern::ClientServer { servers })
            .with_checkpoint_prob(0.0)
            .with_seed(8);
        for op in spec.generate() {
            if let AppOp::Send { from, to } = op {
                let from_server = from.index() < servers;
                let to_server = to.index() < servers;
                assert_ne!(from_server, to_server);
            }
        }
    }

    #[test]
    fn token_ring_visits_everyone() {
        let spec = WorkloadSpec::uniform_random(4, 16)
            .with_pattern(Pattern::TokenRing)
            .with_checkpoint_prob(0.0)
            .with_seed(1);
        let senders: std::collections::BTreeSet<usize> = spec
            .generate()
            .iter()
            .filter_map(|op| match op {
                AppOp::Send { from, .. } => Some(from.index()),
                _ => None,
            })
            .collect();
        assert_eq!(senders.len(), 4);
    }

    #[test]
    fn star_traffic_always_touches_the_hub() {
        let spec = WorkloadSpec::uniform_random(5, 300)
            .with_pattern(Pattern::Star)
            .with_checkpoint_prob(0.0)
            .with_seed(4);
        for op in spec.generate() {
            if let AppOp::Send { from, to } = op {
                assert!(from.index() == 0 || to.index() == 0);
            }
        }
    }

    #[test]
    fn pipeline_flows_strictly_downstream() {
        let spec = WorkloadSpec::uniform_random(5, 300)
            .with_pattern(Pattern::Pipeline)
            .with_checkpoint_prob(0.0)
            .with_seed(4);
        for op in spec.generate() {
            if let AppOp::Send { from, to } = op {
                assert_eq!(to.index(), from.index() + 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "0 < servers < n")]
    fn client_server_validates_tier_size() {
        let _ =
            WorkloadSpec::uniform_random(3, 10).with_pattern(Pattern::ClientServer { servers: 3 });
    }
}
