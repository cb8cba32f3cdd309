//! Synthetic Table S3 — recovery sessions (Algorithm 3): rollback depth and
//! checkpoints eliminated during recovery, coordinated (LI / Theorem 1)
//! versus uncoordinated (DV / Theorem 2).

use rdt_bench::header;
use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_recovery::RecoveryMode;
use rdt_sim::SimulationBuilder;
use rdt_workloads::WorkloadSpec;

pub fn run() {
    header(
        "table_rollback (S3)",
        "recovery sessions: LI (Theorem 1) vs DV (Theorem 2) garbage collection",
        "n = 6, 3000 ops, crash prob 0.004, FDAS + RDT-LGC",
    );
    println!(
        "{:<15} {:>5} {:>9} {:>12} {:>14} {:>12}",
        "mode", "seed", "sessions", "rolled-back", "gc-eliminated", "max-retain"
    );

    for mode in [RecoveryMode::Coordinated, RecoveryMode::Uncoordinated] {
        for seed in 0..4u64 {
            let n = 6;
            let spec = WorkloadSpec::uniform_random(n, 3_000)
                .with_seed(seed)
                .with_checkpoint_prob(0.25)
                .with_crash_prob(0.004);
            let report = SimulationBuilder::new(spec)
                .protocol(ProtocolKind::Fdas)
                .garbage_collector(GcKind::RdtLgc)
                .recovery_mode(mode)
                .run()
                .expect("simulation runs");
            let eliminated: usize = report
                .recovery_sessions
                .iter()
                .map(|s| s.eliminated.len())
                .sum();
            println!(
                "{:<15} {:>5} {:>9} {:>12} {:>14} {:>12}",
                mode.to_string(),
                seed,
                report.recovery_sessions.len(),
                report.metrics.total_rolled_back,
                eliminated,
                report.metrics.max_retained_per_process(),
            );
            assert!(report.metrics.max_retained_per_process() <= n + 1);
        }
    }
    println!();
    println!(
        "same seeds ⇒ identical pre-crash executions: coordinated sessions\n\
         eliminate at least as much (Theorem 1 ⊇ Theorem 2); both preserve\n\
         the ≤ n+1 retention bound through failures."
    );
}
