//! Safety of garbage collection, measured against the Theorem-1 oracle.
//!
//! A collector is *safe* (Theorem 4) if every checkpoint it eliminates is
//! obsolete in the CCP of the cut **at the moment of elimination** — checked
//! by replaying the simulator's trace through
//! [`rdt_ccp::collection_safety_violations`]. RDT-LGC is proved safe; the
//! time-based baseline is safe **only** while its real-time assumption
//! holds, which slow channels and quiet processes break.

use rdt_ccp::collection_safety_violations;
use rdt_checkpointing::prelude::*;
use rdt_core::GcKind;
use rdt_sim::SimulationBuilder;

/// Runs a crash-free workload under slow channels and audits every
/// garbage-collection event against the Theorem-1 oracle.
fn violations(spec: &WorkloadSpec, gc: GcKind) -> Vec<CheckpointId> {
    let config = SimConfig {
        channel: ChannelConfig {
            min_delay: 50,
            max_delay: 400,
            loss_rate: 0.0,
        },
        ..SimConfig::default()
    };
    let report = SimulationBuilder::new(spec.clone())
        .protocol(ProtocolKind::Fdas)
        .garbage_collector(gc)
        .config(config)
        .record_trace()
        .run()
        .expect("simulation runs");
    let trace = report.trace.expect("trace recording was enabled");
    collection_safety_violations(spec.n, &trace).expect("crash-free trace replays")
}

fn slow_world_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec::uniform_random(4, 300)
        .with_seed(seed)
        .with_checkpoint_prob(0.15)
}

#[test]
fn rdt_lgc_never_violates_safety() {
    for seed in 0..6 {
        let v = violations(&slow_world_spec(seed), GcKind::RdtLgc);
        assert!(v.is_empty(), "seed {seed}: RDT-LGC dropped {v:?}");
    }
}

#[test]
fn rdt_lgc_is_safe_under_every_rdt_protocol() {
    // Theorem 4 does not care which RDT protocol drives the checkpoints:
    // audit the whole family on identical traffic.
    for protocol in ProtocolKind::RDT {
        for seed in 0..2 {
            let report = SimulationBuilder::new(slow_world_spec(seed))
                .protocol(protocol)
                .garbage_collector(GcKind::RdtLgc)
                .record_trace()
                .run()
                .expect("simulation runs");
            let v = rdt_ccp::collection_safety_violations(4, &report.trace.unwrap())
                .expect("crash-free trace replays");
            assert!(v.is_empty(), "{protocol} seed {seed}: dropped {v:?}");
        }
    }
}

#[test]
fn no_gc_trivially_never_violates_safety() {
    let v = violations(&slow_world_spec(0), GcKind::None);
    assert!(v.is_empty());
}

#[test]
fn time_based_gc_violates_safety_under_broken_assumptions() {
    // A horizon far below the real checkpoint cadence + message delays: the
    // assumption [14] needs does not hold, and pinned checkpoints age out.
    let mut total = 0usize;
    for seed in 0..6 {
        total += violations(&slow_world_spec(seed), GcKind::TimeBased { horizon: 60 }).len();
    }
    assert!(
        total > 0,
        "expected at least one safety violation across seeds"
    );
}

#[test]
fn time_based_gc_is_safe_when_the_assumption_holds() {
    // A horizon comfortably above every inter-checkpoint gap plus the
    // maximum delay: Theorem-1 pins always point at recently stored
    // checkpoints, so nothing pinned ever ages out.
    let spec = WorkloadSpec::uniform_random(3, 400)
        .with_seed(9)
        .with_checkpoint_prob(0.45);
    let config = SimConfig {
        channel: ChannelConfig {
            min_delay: 0,
            max_delay: 3,
            loss_rate: 0.0,
        },
        ticks_per_op: 1,
        ..SimConfig::default()
    };
    let report = SimulationBuilder::new(spec.clone())
        .protocol(ProtocolKind::Fdas)
        .garbage_collector(GcKind::TimeBased { horizon: 100_000 })
        .config(config)
        .record_trace()
        .run()
        .expect("simulation runs");
    let v = collection_safety_violations(spec.n, &report.trace.unwrap())
        .expect("crash-free trace replays");
    assert!(v.is_empty(), "dropped {v:?}");
}

#[test]
fn time_based_gc_does_bound_storage_where_no_gc_diverges() {
    // The reason [14] exists at all: it does collect. Its storage stays far
    // below the no-GC baseline even while (unsafely) configured.
    let spec = slow_world_spec(3);
    let run = |gc| {
        SimulationBuilder::new(spec.clone())
            .garbage_collector(gc)
            .run()
            .expect("simulation runs")
            .metrics
            .total_retained()
    };
    let timed = run(GcKind::TimeBased { horizon: 200 });
    let none = run(GcKind::None);
    assert!(timed < none, "time-based {timed} not below no-gc {none}");
}

/// Runs a crashy `fault_heavy` workload (lossy channels, correlated
/// crashes) and audits every elimination through its recovery sessions,
/// each session's own eliminations included.
fn violations_through_crashes(spec: &WorkloadSpec, gc: GcKind) -> (Vec<CheckpointId>, usize) {
    let report = SimulationBuilder::new(spec.clone())
        .protocol(ProtocolKind::Fdas)
        .garbage_collector(gc)
        .config(SimConfig::fault_heavy())
        .record_trace()
        .run()
        .expect("simulation runs");
    let sessions: Vec<&[CheckpointId]> = report
        .recovery_sessions
        .iter()
        .map(|s| s.eliminated.as_slice())
        .collect();
    let trace = report.trace.as_ref().expect("trace recording was enabled");
    let v = rdt_ccp::collection_safety_violations_through_sessions(spec.n, trace, &sessions)
        .expect("crashy trace replays");
    (v, sessions.len())
}

fn crashy_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec::uniform_random(8, 4000)
        .with_seed(seed)
        .with_crash_prob(0.01)
}

#[test]
fn rdt_lgc_never_violates_safety_through_crashes() {
    let mut sessions = 0;
    for seed in 0..4 {
        let (v, k) = violations_through_crashes(&crashy_spec(seed), GcKind::RdtLgc);
        assert!(v.is_empty(), "seed {seed}: RDT-LGC dropped {v:?}");
        sessions += k;
    }
    assert!(sessions >= 100, "{sessions} sessions audited");
}

#[test]
fn time_based_gc_is_flagged_through_crashes() {
    let total: usize = (0..4)
        .map(|seed| {
            violations_through_crashes(&crashy_spec(seed), GcKind::TimeBased { horizon: 60 })
                .0
                .len()
        })
        .sum();
    assert!(total > 0, "expected safety violations across seeds");
}
