//! Synthetic Table S4 — forced-checkpoint overhead of the checkpointing
//! protocols on identical traffic (the trade-off Section 5 surveys).

use rdt_bench::{header, par_sweep};
use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_sim::SimulationBuilder;
use rdt_workloads::{Pattern, WorkloadSpec};

pub fn run() {
    let steps = 4_000;
    header(
        "table_forced (S4)",
        "forced checkpoints by protocol × pattern (identical traffic)",
        &format!("n = 8, {steps} ops, ckpt prob 0.2, seed-averaged over 3 derived seeds"),
    );
    println!(
        "{:<16} {:<10} {:>8} {:>8} {:>14} {:>6}",
        "pattern", "protocol", "basic", "forced", "forced/deliv", "RDT"
    );

    let patterns = [
        Pattern::UniformRandom,
        Pattern::Ring,
        Pattern::ClientServer { servers: 2 },
        Pattern::Bursty { burst: 8 },
    ];
    // One grid cell per (pattern, protocol); seeds fan out across cores.
    let cells: Vec<(Pattern, ProtocolKind)> = patterns
        .iter()
        .flat_map(|&pattern| ProtocolKind::ALL.map(|protocol| (pattern, protocol)))
        .collect();
    let measured = par_sweep(cells, 3, 0, |&(pattern, protocol), seed| {
        let spec = WorkloadSpec::uniform_random(8, steps)
            .with_pattern(pattern)
            .with_seed(seed)
            .with_checkpoint_prob(0.2);
        let report = SimulationBuilder::new(spec)
            .protocol(protocol)
            .garbage_collector(GcKind::RdtLgc)
            .run()
            .expect("simulation runs");
        (
            report.metrics.total_basic() as f64,
            report.metrics.total_forced() as f64,
            report.metrics.total_delivered() as f64,
        )
    });
    let mut grid = measured.into_iter();

    for pattern in patterns {
        let per_protocol: Vec<(ProtocolKind, f64, f64, f64)> = ProtocolKind::ALL
            .into_iter()
            .map(|protocol| {
                let runs = grid.next().expect("grid covers every cell");
                let k = runs.len() as f64;
                let (basic, forced, delivered) = runs
                    .into_iter()
                    .fold((0.0, 0.0, 0.0), |(b, f, d), (rb, rf, rd)| {
                        (b + rb, f + rf, d + rd)
                    });
                (protocol, basic / k, forced / k, delivered / k)
            })
            .collect();
        for (protocol, basic, forced, delivered) in &per_protocol {
            println!(
                "{:<16} {:<10} {:>8.0} {:>8.0} {:>14.3} {:>6}",
                pattern.to_string(),
                protocol.to_string(),
                basic,
                forced,
                forced / delivered.max(1.0),
                protocol.ensures_rdt(),
            );
        }
        // The forced-checkpoint hierarchy (Section 5's trade-off).
        let f = |k: ProtocolKind| {
            per_protocol
                .iter()
                .find(|(p, ..)| *p == k)
                .map(|(_, _, forced, _)| *forced)
                .unwrap()
        };
        assert!(f(ProtocolKind::Casbr) >= f(ProtocolKind::Cbr));
        assert!(f(ProtocolKind::Casbr) >= f(ProtocolKind::Cas));
        assert!(f(ProtocolKind::Cbr) >= f(ProtocolKind::Fdi));
        assert!(f(ProtocolKind::Cbr) >= f(ProtocolKind::Mrs));
        assert!(f(ProtocolKind::Mrs) >= f(ProtocolKind::Fdas));
        assert!(f(ProtocolKind::Fdi) >= f(ProtocolKind::Fdas));
        println!();
    }
    println!(
        "hierarchy holds on every pattern: CASBR ≥ CBR ≥ {{FDI, MRS}} ≥ FDAS and\n\
         CASBR ≥ CAS (Wang's RDT model family); BCS forces less but is not RDT;\n\
         no-forced is free but domino-prone."
    );
}
