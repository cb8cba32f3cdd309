//! Cross-crate integration: simulator × protocol × collector matrices,
//! validated against the offline oracle via trace replay.

use rdt_checkpointing::ccp::CcpBuilder;
use rdt_checkpointing::prelude::*;

fn sim(n: usize, steps: usize, seed: u64, protocol: ProtocolKind, gc: GcKind) -> SimulationReport {
    SimulationBuilder::new(
        WorkloadSpec::uniform_random(n, steps)
            .with_seed(seed)
            .with_checkpoint_prob(0.3),
    )
    .protocol(protocol)
    .garbage_collector(gc)
    .record_trace()
    .run()
    .expect("simulation runs")
}

#[test]
fn rdt_protocols_produce_rdt_traces_through_the_full_stack() {
    for protocol in [ProtocolKind::Cbr, ProtocolKind::Fdi, ProtocolKind::Fdas] {
        for seed in 0..3 {
            let report = sim(4, 150, seed, protocol, GcKind::RdtLgc);
            let trace = report.trace.as_ref().expect("trace recorded");
            let ccp = CcpBuilder::from_trace(4, trace)
                .expect("crash-free")
                .build();
            assert!(ccp.is_rdt(), "{protocol} seed {seed}");
        }
    }
}

#[test]
fn lgc_safety_and_optimality_hold_on_simulated_executions() {
    for seed in 0..5 {
        let report = sim(4, 200, seed, ProtocolKind::Fdas, GcKind::RdtLgc);
        let trace = report.trace.as_ref().expect("trace recorded");
        let ccp = CcpBuilder::from_trace(4, trace)
            .expect("crash-free")
            .build();
        let obsolete = ccp.obsolete_set();
        let identifiable = ccp.causally_identifiable_obsolete_set();

        for (i, retained) in report.final_retained.iter().enumerate() {
            let p = ProcessId::new(i);
            let all: Vec<usize> = (0..=ccp.last_stable(p).value()).collect();
            for idx in &all {
                let id = rdt_base::CheckpointId::new(p, rdt_base::CheckpointIndex::new(*idx));
                if retained.contains(idx) {
                    // Optimality: retained ⇒ not causally identifiable.
                    assert!(!identifiable.contains(&id), "seed {seed}: {id} retained");
                } else {
                    // Safety: eliminated ⇒ obsolete.
                    assert!(obsolete.contains(&id), "seed {seed}: {id} eliminated");
                }
            }
        }
    }
}

#[test]
fn retention_bound_holds_across_the_matrix() {
    for protocol in [ProtocolKind::Cbr, ProtocolKind::Fdi, ProtocolKind::Fdas] {
        for seed in 0..3 {
            let n = 5;
            let report = sim(n, 300, seed, protocol, GcKind::RdtLgc);
            assert!(
                report.metrics.max_retained_per_process() <= n + 1,
                "{protocol} seed {seed}"
            );
        }
    }
}

#[test]
fn coordinated_collectors_converge_with_control_rounds() {
    let n = 4;
    for gc in [GcKind::SimpleCoordinated, GcKind::WangGlobal] {
        let report = SimulationBuilder::new(
            WorkloadSpec::uniform_random(n, 400)
                .with_seed(9)
                .with_checkpoint_prob(0.3),
        )
        .garbage_collector(gc)
        .control_every(200)
        .run()
        .expect("simulation runs");
        assert!(report.metrics.control_rounds > 0, "{gc}");
        assert!(report.metrics.total_collected() > 0, "{gc}");
    }
}

#[test]
fn wang_global_is_at_least_as_aggressive_as_simple() {
    let n = 4;
    let run = |gc| -> usize {
        SimulationBuilder::new(
            WorkloadSpec::uniform_random(n, 400)
                .with_seed(13)
                .with_checkpoint_prob(0.3),
        )
        .garbage_collector(gc)
        .control_every(100)
        .run()
        .expect("simulation runs")
        .metrics
        .total_collected()
    };
    assert!(run(GcKind::WangGlobal) >= run(GcKind::SimpleCoordinated));
}

#[test]
fn no_gc_diverges() {
    let n = 4;
    let report = sim(n, 400, 3, ProtocolKind::Fdas, GcKind::None);
    assert!(report.metrics.max_retained_per_process() > n + 1);
    assert_eq!(report.metrics.total_collected(), 0);
}

#[test]
fn lossy_channels_preserve_all_guarantees() {
    let n = 4;
    let report = SimulationBuilder::new(
        WorkloadSpec::uniform_random(n, 300)
            .with_seed(21)
            .with_checkpoint_prob(0.3),
    )
    .channel(ChannelConfig::lossy(0.3))
    .record_trace()
    .run()
    .expect("simulation runs");
    let trace = report.trace.as_ref().expect("trace recorded");
    let ccp = CcpBuilder::from_trace(n, trace)
        .expect("crash-free")
        .build();
    assert!(ccp.is_rdt());
    assert!(report.metrics.max_retained_per_process() <= n + 1);
    let lost: u64 = report.metrics.per_process.iter().map(|m| m.lost).sum();
    assert!(lost > 0, "loss rate 0.3 should lose something");
}

#[test]
fn simulation_is_deterministic_in_the_seed() {
    let run = || sim(4, 200, 77, ProtocolKind::Fdas, GcKind::RdtLgc);
    let (a, b) = (run(), run());
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.final_retained, b.final_retained);
}
