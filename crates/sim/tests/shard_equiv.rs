//! Sharded-engine equivalence: for a fixed seed, the conservative
//! lookahead parallel engine must produce **byte-identical** output to
//! the sequential engine — full canonical dump, including the event
//! trace, occupancy timeline, per-process metrics, the order-sensitive
//! `peak_global_retained`, and every recovery-session report — at any
//! shard count and under either partitioning.
//!
//! A zero-lookahead channel (`min_delay == 0`) cannot run sharded; the
//! engine must fall back to the sequential path *loudly* (typed warning,
//! counted in metrics) while still producing the identical report.

use proptest::prelude::*;

use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_recovery::RecoveryMode;
use rdt_sim::{
    ChannelConfig, Partitioning, ShardConfig, SimConfig, SimulationBuilder, ZeroLookaheadFallback,
};
use rdt_workloads::{Pattern, WorkloadSpec};

mod common;
use common::{canonical_dump, run, run_with_shards, scenarios, Scenario};

/// Every golden scenario, sharded at 1, 2 and 4, dumps byte-identically
/// to the sequential engine. This is the replay-golden equivalence the
/// CI multi-thread smoke job runs under `RAYON_NUM_THREADS=2`.
#[test]
fn golden_scenarios_are_byte_identical_at_every_shard_count() {
    for scenario in &scenarios() {
        let sequential = canonical_dump(&run(scenario));
        for shards in [1usize, 2, 4] {
            let sharded = canonical_dump(&run_with_shards(scenario, shards));
            assert_eq!(
                sharded, sequential,
                "{}: {} shards diverged from sequential",
                scenario.name, shards
            );
        }
    }
}

/// The strided partitioning maximizes cross-shard traffic (every
/// neighbour link crosses); it must be just as equivalent.
#[test]
fn strided_partitioning_is_byte_identical() {
    let scenario = &scenarios()[1]; // crashy_fdas_lgc: crashes + loss
    let sequential = canonical_dump(&run(scenario));
    let spec = WorkloadSpec::uniform_random(scenario.n, scenario.steps)
        .with_pattern(scenario.pattern)
        .with_seed(scenario.seed)
        .with_checkpoint_prob(0.25)
        .with_crash_prob(scenario.crash);
    let report = SimulationBuilder::new(spec)
        .protocol(scenario.protocol)
        .garbage_collector(scenario.gc)
        .config(SimConfig {
            channel: ChannelConfig::lossy(scenario.loss),
            control_every: scenario.control_every,
            correlated_crash_prob: scenario.correlated,
            record_trace: true,
            record_occupancy: true,
            state_size: 512,
            shard: ShardConfig {
                shards: 3,
                partitioning: Partitioning::Strided,
            },
            ..SimConfig::default()
        })
        .recovery_mode(scenario.mode)
        .run()
        .expect("simulation runs");
    assert_eq!(canonical_dump(&report), sequential);
}

/// `min_delay == 0` leaves no conservative lookahead: the run must fall
/// back to the sequential engine, warn via the typed
/// [`ZeroLookaheadFallback`], count the fallback in metrics — and still
/// produce the byte-identical report.
#[test]
fn zero_lookahead_falls_back_loudly_to_the_sequential_engine() {
    let spec = WorkloadSpec::uniform_random(4, 300).with_seed(77);
    let config = SimConfig {
        channel: ChannelConfig::instant(),
        record_trace: true,
        record_occupancy: true,
        ..SimConfig::default()
    };
    let sequential = SimulationBuilder::new(spec.clone())
        .config(config)
        .run()
        .expect("sequential runs");
    let fallen_back = SimulationBuilder::new(spec)
        .config(config)
        .shards(2)
        .run()
        .expect("fallback runs");
    assert_eq!(sequential.metrics.sequential_fallbacks, 0);
    assert_eq!(fallen_back.metrics.sequential_fallbacks, 1);
    assert_eq!(
        canonical_dump(&fallen_back),
        canonical_dump(&sequential),
        "the fallback must not change any observable"
    );
    let warning = ZeroLookaheadFallback { shards: 2 }.to_string();
    assert!(warning.contains("min_delay"), "{warning}");
    assert!(warning.contains("2 shards"), "{warning}");
}

/// One run of a drawn configuration at `shards` (1: the sequential
/// engine), dumped.
fn dump_at(s: &Scenario, min_delay: u64, shards: usize, partitioning: Partitioning) -> String {
    let spec = WorkloadSpec::uniform_random(s.n, s.steps)
        .with_pattern(s.pattern)
        .with_seed(s.seed)
        .with_checkpoint_prob(0.25)
        .with_crash_prob(s.crash);
    let report = SimulationBuilder::new(spec)
        .protocol(s.protocol)
        .garbage_collector(s.gc)
        .config(SimConfig {
            channel: ChannelConfig {
                min_delay,
                max_delay: 20,
                loss_rate: s.loss,
            },
            control_every: s.control_every,
            correlated_crash_prob: s.correlated,
            record_trace: true,
            record_occupancy: true,
            state_size: 512,
            shard: ShardConfig {
                shards,
                partitioning,
            },
            ..SimConfig::default()
        })
        .recovery_mode(s.mode)
        .run()
        .expect("simulation runs");
    canonical_dump(&report)
}

const PATTERNS: [Pattern; 3] = [Pattern::UniformRandom, Pattern::Ring, Pattern::TokenRing];

const PARTITIONINGS: [Partitioning; 2] = [Partitioning::Contiguous, Partitioning::Strided];

proptest! {
    // 32 cases: under the shim's per-test seed, fewer never pair
    // `SimpleCoordinated` with control rounds at more than one shard, and
    // no golden scenario takes its `GlobalLine` control path (gathered
    // views → recovery line).
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary seeds, topologies, protocols, collectors, crash/loss
    /// mixes, shard counts and partitionings: sharded ≡ sequential, byte
    /// for byte. `min_delay` ranges down to 0 so the fallback path is
    /// exercised within the same property.
    #[test]
    fn arbitrary_configs_shard_byte_identically(
        n in 2usize..7,
        steps in 50usize..300,
        seed in 0u64..u64::MAX,
        proto in 0usize..8,
        gc in 0usize..5,
        pattern in 0usize..3,
        crash in 0.0f64..0.03,
        loss in 0.0f64..0.15,
        min_delay in 0u64..3,
        shards in 1usize..=4,
        strided in 0usize..2,
        control in 0usize..2,
        uncoordinated in 0usize..2,
    ) {
        let scenario = Scenario {
            name: "arbitrary",
            n,
            steps,
            seed,
            protocol: ProtocolKind::ALL[proto],
            gc: [
                GcKind::RdtLgc,
                GcKind::None,
                GcKind::WangGlobal,
                GcKind::TimeBased { horizon: 100 },
                GcKind::SimpleCoordinated,
            ][gc],
            pattern: PATTERNS[pattern],
            crash,
            correlated: 0.2,
            loss,
            control_every: (control == 1).then_some(90),
            mode: if uncoordinated == 1 {
                RecoveryMode::Uncoordinated
            } else {
                RecoveryMode::Coordinated
            },
        };
        let partitioning = PARTITIONINGS[strided];
        let sequential = dump_at(&scenario, min_delay, 1, partitioning);
        let sharded = dump_at(&scenario, min_delay, shards, partitioning);
        prop_assert_eq!(sharded, sequential, "sharded run diverged from sequential");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Wide systems (n > 64), every protocol: each process keeps a change
    /// log, so the bare vectors another shard ships meet receivers that
    /// merge their neighbours' linked snapshots over the changed entries
    /// only — and BCS reads the piggybacked index that rides with them.
    #[test]
    fn wide_systems_shard_byte_identically_under_every_protocol(
        n in 65usize..=80,
        steps in 200usize..400,
        seed in 0u64..u64::MAX,
        pattern in 0usize..3,
        crash in 0.0f64..0.02,
        shards in 2usize..=4,
        strided in 0usize..2,
    ) {
        for protocol in ProtocolKind::ALL {
            let scenario = Scenario {
                name: "wide",
                n,
                steps,
                seed,
                protocol,
                gc: GcKind::RdtLgc,
                pattern: PATTERNS[pattern],
                crash,
                correlated: 0.2,
                loss: 0.05,
                control_every: None,
                mode: RecoveryMode::Coordinated,
            };
            let partitioning = PARTITIONINGS[strided];
            let sequential = dump_at(&scenario, 1, 1, partitioning);
            let sharded = dump_at(&scenario, 1, shards, partitioning);
            prop_assert_eq!(sharded, sequential, "{} diverged from sequential", protocol);
        }
    }
}

/// One run of `s` at `shards` (1: the sequential engine) with trace and
/// occupancy off, its report rendered whole — metrics with
/// `peak_global_retained`, final vectors, last-stable indices, retained
/// sets, incarnations and every recovery session.
fn unrecorded_at(
    s: &Scenario,
    checkpoint_prob: f64,
    shards: usize,
    partitioning: Partitioning,
) -> String {
    let spec = WorkloadSpec::uniform_random(s.n, s.steps)
        .with_pattern(s.pattern)
        .with_seed(s.seed)
        .with_checkpoint_prob(checkpoint_prob)
        .with_crash_prob(s.crash);
    let report = SimulationBuilder::new(spec)
        .protocol(s.protocol)
        .garbage_collector(s.gc)
        .config(SimConfig {
            channel: ChannelConfig::lossy(s.loss),
            control_every: s.control_every,
            correlated_crash_prob: s.correlated,
            shard: ShardConfig {
                shards,
                partitioning,
            },
            ..SimConfig::default()
        })
        .recovery_mode(s.mode)
        .run()
        .expect("simulation runs");
    assert!(report.trace.is_none() && report.occupancy.is_none());
    assert_eq!(report.metrics.sequential_fallbacks, 0);
    format!("{report:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Long runs with nothing recorded: 3 200 to 4 000 ops, past three of
    /// the planner's 1 024-event windows, where the metrics fold in place
    /// and only retained changes cross shards, the coordinator hands on
    /// full batches and waits on full command queues. At a checkpoint
    /// probability of 0.995 a ring's crossings are rarer than one in 1 024
    /// events, so its windows are cut by count. n = 16 or 65..80, crashes
    /// with correlated faults and control rounds in the mix, 2 and 4
    /// shards: the report equals the sequential engine's.
    #[test]
    fn long_unrecorded_runs_shard_like_the_sequential_engine(
        wide in 0usize..2,
        n_wide in 65usize..=80,
        steps in 3200usize..4000,
        seed in 0u64..u64::MAX,
        pattern in 0usize..3,
        sparse in 0usize..2,
        crash in 0.0f64..0.004,
        control in 0usize..2,
        gc in 0usize..3,
        four in 0usize..2,
        strided in 0usize..2,
    ) {
        let scenario = Scenario {
            name: "long",
            n: if wide == 1 { n_wide } else { 16 },
            steps,
            seed,
            protocol: ProtocolKind::Fdas,
            gc: [GcKind::RdtLgc, GcKind::WangGlobal, GcKind::SimpleCoordinated][gc],
            pattern: PATTERNS[pattern],
            crash,
            correlated: 0.2,
            loss: 0.05,
            control_every: (control == 1).then_some(90),
            mode: RecoveryMode::Coordinated,
        };
        let checkpoint_prob = if sparse == 1 { 0.995 } else { 0.25 };
        let partitioning = PARTITIONINGS[strided];
        let shards = if four == 1 { 4 } else { 2 };
        let sequential = unrecorded_at(&scenario, checkpoint_prob, 1, partitioning);
        let sharded = unrecorded_at(&scenario, checkpoint_prob, shards, partitioning);
        prop_assert_eq!(sharded, sequential, "{} shards diverged from sequential", shards);
    }
}
