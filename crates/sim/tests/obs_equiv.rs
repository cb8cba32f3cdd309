//! Observability must be a pure observer: with phase profiling switched
//! on, every golden scenario — sequential and sharded — must still produce
//! the **byte-identical** canonical dump recorded in the committed golden
//! file.
//!
//! Also pins the sharded profile's accounting: per shard, the worker
//! phases (`setup`/`cmd_wait`/`drain`/`exchange`/`barrier_wait`/`global`/
//! `finish`) tile the worker loop, so their totals must sum to the
//! shard's measured wall-clock within ±5%.

use proptest::prelude::*;

use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_recovery::RecoveryMode;
use rdt_sim::{ChannelConfig, Partitioning, ShardConfig, SimConfig, SimulationBuilder};
use rdt_workloads::{Pattern, WorkloadSpec};

mod common;
use common::{
    canonical_dump, fingerprint, golden_fingerprints, run_profiled_with_shards, scenarios, Scenario,
};

/// Profiling on, goldens unchanged: every pinned scenario at shards 1, 2
/// and 4 must fingerprint exactly as the committed golden file says —
/// not merely match an unprofiled run of the same binary.
#[test]
fn goldens_are_byte_identical_with_profiling_on() {
    let golden: std::collections::BTreeMap<String, String> =
        golden_fingerprints().into_iter().collect();
    for scenario in &scenarios() {
        let expected = golden
            .get(scenario.name)
            .unwrap_or_else(|| panic!("{} missing from golden file", scenario.name));
        for shards in [1usize, 2, 4] {
            let report = run_profiled_with_shards(scenario, shards);
            assert!(
                report.profile.is_some(),
                "{}: profiling requested but no profile recorded",
                scenario.name
            );
            let fp = fingerprint(&canonical_dump(&report));
            assert_eq!(
                &fp, expected,
                "{} at {} shards: profiling changed the canonical output",
                scenario.name, shards
            );
        }
    }
}

/// The sequential engine's profile carries the engine phases with sane
/// totals, and the run envelope covers its parts.
#[test]
fn sequential_profile_reports_engine_phases() {
    let report = run_profiled_with_shards(&scenarios()[0], 1);
    let profile = report.profile.expect("profile recorded");
    let run = profile.phases.get("engine/run").expect("engine/run phase");
    assert_eq!(run.count, 1);
    let drain = profile
        .phases
        .get("engine/drain")
        .expect("engine/drain phase");
    assert!(drain.count > 0 && drain.total_ns > 0);
    assert!(
        drain.total_ns <= run.total_ns,
        "drain ({} ns) cannot exceed the run envelope ({} ns)",
        drain.total_ns,
        run.total_ns
    );
    assert!(drain.min_ns <= drain.max_ns);
    assert_eq!(drain.buckets.iter().sum::<u64>(), drain.count);
}

/// Sharded profile accounting: for every shard `k`, the worker phase
/// totals must sum to `shard/wall/k` within ±5% — the phases tile the
/// worker loop, so anything beyond timer overhead is a hole in the
/// instrumentation. Timing-sensitive, so best-of-three against scheduler
/// preemption landing between two scoped timers.
#[test]
fn shard_phase_totals_sum_to_the_shard_wall_clock() {
    const PARTS: [&str; 7] = [
        "setup",
        "cmd_wait",
        "drain",
        "exchange",
        "barrier_wait",
        "global",
        "finish",
    ];
    let scenario = &scenarios()[0]; // largest crash-free pinned scenario
    let shards = 4usize;
    let mut last_err = String::new();
    for _attempt in 0..3 {
        let report = run_profiled_with_shards(scenario, shards);
        let profile = report.profile.as_ref().expect("profile recorded");
        let mut ok = true;
        last_err.clear();
        for k in 0..shards {
            let wall = profile
                .phases
                .get(&format!("shard/wall/{k}"))
                .unwrap_or_else(|| panic!("shard/wall/{k} missing"))
                .total_ns;
            let sum: u64 = PARTS
                .iter()
                .filter_map(|p| profile.phases.get(&format!("shard/{p}/{k}")))
                .map(|s| s.total_ns)
                .sum();
            // ±5%: sum ≥ 95% of wall (no unaccounted holes) and ≤ 105%
            // (scoped timers cannot overlap the envelope by more than
            // measurement noise).
            if sum * 20 < wall * 19 || sum * 20 > wall * 21 {
                ok = false;
                last_err = format!(
                    "shard {k}: phase totals {sum} ns vs wall {wall} ns ({:.1}%)",
                    100.0 * sum as f64 / wall as f64
                );
                break;
            }
        }
        if ok {
            return;
        }
    }
    panic!("phase sums outside ±5% of wall-clock on 3 attempts: {last_err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The shard-equivalence property re-run with profiling enabled on
    /// the sharded side: a *profiled* sharded run must stay byte-identical
    /// to the *unprofiled* sequential run — profiling must not perturb
    /// event order, RNG draws, or any observable.
    #[test]
    fn profiled_sharded_runs_stay_byte_identical(
        n in 2usize..7,
        steps in 50usize..300,
        seed in 0u64..u64::MAX,
        proto in 0usize..4,
        gc in 0usize..3,
        pattern in 0usize..3,
        crash in 0.0f64..0.03,
        loss in 0.0f64..0.15,
        min_delay in 1u64..3,
        shards in 2usize..=4,
        strided in 0usize..2,
    ) {
        let scenario = Scenario {
            name: "arbitrary_profiled",
            n,
            steps,
            seed,
            protocol: [
                ProtocolKind::Fdas,
                ProtocolKind::Cas,
                ProtocolKind::Fdi,
                ProtocolKind::Mrs,
            ][proto],
            gc: [GcKind::RdtLgc, GcKind::None, GcKind::WangGlobal][gc],
            pattern: [Pattern::UniformRandom, Pattern::Ring, Pattern::TokenRing][pattern],
            crash,
            correlated: 0.2,
            loss,
            control_every: None,
            mode: RecoveryMode::Coordinated,
        };
        let spec = WorkloadSpec::uniform_random(scenario.n, scenario.steps)
            .with_pattern(scenario.pattern)
            .with_seed(scenario.seed)
            .with_checkpoint_prob(0.25)
            .with_crash_prob(scenario.crash);
        let build = |shards: usize, profiled: bool| {
            let mut builder = SimulationBuilder::new(spec.clone())
                .protocol(scenario.protocol)
                .garbage_collector(scenario.gc)
                .config(SimConfig {
                    channel: ChannelConfig {
                        min_delay,
                        max_delay: 20,
                        loss_rate: scenario.loss,
                    },
                    correlated_crash_prob: scenario.correlated,
                    record_trace: true,
                    record_occupancy: true,
                    state_size: 512,
                    shard: ShardConfig {
                        shards,
                        partitioning: if strided == 1 {
                            Partitioning::Strided
                        } else {
                            Partitioning::Contiguous
                        },
                    },
                    ..SimConfig::default()
                })
                .recovery_mode(scenario.mode);
            if profiled {
                builder = builder.profile();
            }
            builder.run().expect("simulation runs")
        };
        let sequential = build(1, false);
        let sharded = build(shards, true);
        prop_assert!(sequential.profile.is_none());
        prop_assert!(sharded.profile.is_some());
        prop_assert_eq!(
            canonical_dump(&sharded),
            canonical_dump(&sequential),
            "profiled sharded run diverged from unprofiled sequential"
        );
    }
}
