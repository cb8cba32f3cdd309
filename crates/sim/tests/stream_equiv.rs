//! `SimulationBuilder::run()` never holds its workload: the lane takes the
//! ops from the generator a block at a time. That must be invisible — the
//! run is the one the public steps give when handed the whole generated
//! slice (`Simulation::new`, `schedule_ops(&spec.generate())`,
//! `run_to_completion`), on every field of the report.
//!
//! The key-by-key half of the argument (a streamed schedule pops what the
//! slice's schedule pops, for every pattern and around the block size; a
//! slice scheduled in mid-stream) is unit-tested beside `Schedule` in
//! `src/engine.rs`, where the block size is visible.

use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_recovery::RecoveryMode;
use rdt_sim::{SimConfig, Simulation, SimulationBuilder};
use rdt_workloads::{Pattern, WorkloadSpec};

#[test]
fn a_streamed_run_is_the_run_of_the_generated_slice() {
    // Recordings, control rounds, loss, correlated crashes: everything that
    // reads a key or draws from the rng. Several refills per run.
    let config = SimConfig {
        control_every: Some(50),
        record_trace: true,
        record_occupancy: true,
        ..SimConfig::fault_heavy()
    };
    let cases = [
        (Pattern::UniformRandom, GcKind::RdtLgc),
        (Pattern::Bursty { burst: 4 }, GcKind::WangGlobal),
        (Pattern::TokenRing, GcKind::SimpleCoordinated),
    ];
    for (seed, (pattern, gc)) in cases.into_iter().enumerate() {
        let spec = WorkloadSpec::uniform_random(6, 5000)
            .with_pattern(pattern)
            .with_seed(seed as u64 + 1)
            .with_checkpoint_prob(0.25)
            .with_crash_prob(0.01);

        let mut streamed = SimulationBuilder::new(spec.clone())
            .protocol(ProtocolKind::Fdas)
            .garbage_collector(gc)
            .config(config)
            .run()
            .expect("streamed run");

        let mode = RecoveryMode::Coordinated;
        let mut sim = Simulation::new(spec.n, ProtocolKind::Fdas, gc, config, mode, spec.seed);
        sim.schedule_ops(&spec.generate());
        sim.run_to_completion().expect("run of the slice");
        let mut sliced = sim.into_report();

        assert!(sliced.metrics.recovery_sessions > 10, "{pattern} crashes");
        assert!(sliced.metrics.control_rounds > 100, "{pattern} has rounds");
        // Wall-clock observations (present under `RDT_PROFILE`) differ.
        (streamed.profile, sliced.profile) = (None, None);
        assert_eq!(format!("{streamed:?}"), format!("{sliced:?}"), "{pattern}");
    }
}
