//! Synthetic Table S2 — Theorems 4 and 5 measured: on random executions,
//! RDT-LGC never eliminates a non-obsolete checkpoint (safety) and never
//! retains a causally identifiable obsolete one (optimality); the retained
//! surplus over the Theorem-1 ideal is exactly the knowledge gap.

use rdt_base::{CheckpointId, CheckpointIndex};
use rdt_bench::header;
use rdt_ccp::CcpBuilder;
use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_sim::SimulationBuilder;
use rdt_workloads::{Pattern, WorkloadSpec};

pub fn run() {
    header(
        "table_optimality (S2)",
        "Theorem 4 (safety) and Theorem 5 (optimality) vs the exhaustive oracle",
        "n = 4, 300 ops per run, FDAS + RDT-LGC",
    );
    println!(
        "{:<16} {:>5} {:>9} {:>10} {:>11} {:>10} {:>9}",
        "pattern", "seed", "stable", "collected", "safety-viol", "missed-id", "gap"
    );

    let mut total_violations = 0usize;
    for pattern in [
        Pattern::UniformRandom,
        Pattern::Ring,
        Pattern::TokenRing,
        Pattern::Star,
        Pattern::Pipeline,
    ] {
        for seed in 0..4u64 {
            let n = 4;
            let spec = WorkloadSpec::uniform_random(n, 300)
                .with_pattern(pattern)
                .with_seed(seed)
                .with_checkpoint_prob(0.3);
            let report = SimulationBuilder::new(spec)
                .protocol(ProtocolKind::Fdas)
                .garbage_collector(GcKind::RdtLgc)
                .record_trace()
                .run()
                .expect("simulation runs");
            let trace = report.trace.as_ref().expect("recorded");
            let ccp = CcpBuilder::from_trace(n, trace)
                .expect("crash-free")
                .build();
            let obsolete = ccp.obsolete_set();
            let identifiable = ccp.causally_identifiable_obsolete_set();

            let mut safety_violations = 0usize;
            let mut missed_identifiable = 0usize;
            let mut knowledge_gap = 0usize;
            let mut collected = 0usize;
            for p in ccp.processes() {
                let retained = &report.final_retained[p.index()];
                for idx in 0..=ccp.last_stable(p).value() {
                    let id = CheckpointId::new(p, CheckpointIndex::new(idx));
                    if retained.contains(&idx) {
                        if identifiable.contains(&id) {
                            missed_identifiable += 1; // optimality breach
                        } else if obsolete.contains(&id) {
                            knowledge_gap += 1; // unavoidable (Theorem 5)
                        }
                    } else {
                        collected += 1;
                        if !obsolete.contains(&id) {
                            safety_violations += 1; // safety breach
                        }
                    }
                }
            }
            total_violations += safety_violations + missed_identifiable;
            println!(
                "{:<16} {:>5} {:>9} {:>10} {:>11} {:>10} {:>9}",
                pattern.to_string(),
                seed,
                ccp.stable_count(),
                collected,
                safety_violations,
                missed_identifiable,
                knowledge_gap,
            );
        }
    }
    println!();
    assert_eq!(total_violations, 0, "Theorems 4/5 must hold");
    println!(
        "safety-viol = 0 and missed-id = 0 everywhere: Theorems 4 and 5 hold.\n\
         gap = obsolete-but-unidentifiable checkpoints — what *any* purely\n\
         asynchronous collector must retain. The gap is driven by *stale*\n\
         causal knowledge: largest where news arrives second-hand and ages\n\
         (uniform-random, star spokes), smallest where knowledge circulates\n\
         fresh (token-ring) or never crosses at all (pipeline upstream — no\n\
         knowledge means no Theorem-1 pin to miss)."
    );
}
