//! A run's cost does not depend on how far apart its events are in
//! simulated time. One op per million ticks (`ticks_per_op: 1_000_000`)
//! leaves 20 000 ops, their deliveries and ~200 crash sessions spread over
//! 2·10¹⁰ ticks; the event queue holds only what is in flight and pops it
//! by key, so the run takes what the default spacing takes — a queue that
//! stepped through every tick would not finish. (The bucket ring this
//! queue replaced passed too: it stepped only through ticks up to its
//! furthest pending event, at most 1 024, and jumped once it ran empty.)

use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_sim::{SimConfig, SimulationBuilder, SimulationReport};
use rdt_workloads::WorkloadSpec;

const N: usize = 8;

fn run(shards: usize) -> SimulationReport {
    let spec = WorkloadSpec::uniform_random(N, 20_000)
        .with_seed(25)
        .with_crash_prob(0.01);
    let mut report = SimulationBuilder::new(spec)
        .protocol(ProtocolKind::Fdas)
        .garbage_collector(GcKind::RdtLgc)
        .config(SimConfig {
            ticks_per_op: 1_000_000,
            ..SimConfig::default()
        })
        .shards(shards)
        .run()
        .expect("the run completes");
    // Wall-clock observations (present under `RDT_PROFILE`) differ.
    report.profile = None;
    report
}

#[test]
fn a_run_a_million_ticks_per_op_apart_completes_in_both_engines() {
    let sequential = run(1);
    let m = &sequential.metrics;
    assert!(m.ticks >= 19_999 * 1_000_000, "ticks {}", m.ticks);
    assert!(m.max_retained_per_process() <= N + 1);
    let sent: u64 = m.per_process.iter().map(|p| p.sent).sum();
    let lost: u64 = m.per_process.iter().map(|p| p.lost).sum();
    assert!(sent > 0);
    assert_eq!(sent, m.total_delivered() + lost, "every send ends");
    assert!(m.recovery_sessions >= 1, "no recovery session ran");

    let sharded = run(2);
    assert_eq!(sharded.metrics.sequential_fallbacks, 0);
    assert_eq!(format!("{sharded:?}"), format!("{sequential:?}"));
}
