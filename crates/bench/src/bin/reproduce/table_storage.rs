//! Synthetic Table S1 — the practical evaluation the paper proposes as
//! future work (Section 6): uncollected-checkpoint storage by collector,
//! across system sizes and communication patterns.
//!
//! The `pattern × n × collector × seed` grid fans out across cores through
//! the parallel sweep driver; per-run seeds are deterministic, so the
//! printed table is identical at any worker count.

use rdt_bench::{header, par_sweep, parallel::mean, rule};
use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_sim::SimulationBuilder;
use rdt_workloads::{Pattern, WorkloadSpec};

struct Cell {
    pattern: Pattern,
    n: usize,
    gc: GcKind,
}

struct Measured {
    avg: f64,
    max: f64,
    collected: f64,
}

pub fn run() {
    let steps = 4_000;
    let seeds = 3u64;
    header(
        "table_storage (S1)",
        "storage overhead by collector × pattern × n",
        &format!("{steps} ops per run, mean over {seeds} derived seeds, FDAS, ckpt prob 0.3"),
    );
    println!(
        "{:<8} {:>3}  {:<20} {:>9} {:>9} {:>10}",
        "pattern", "n", "collector", "avg/proc", "max/proc", "collected"
    );

    let patterns = [
        Pattern::UniformRandom,
        Pattern::Ring,
        Pattern::ClientServer { servers: 2 },
        Pattern::TokenRing,
    ];
    let mut cells = Vec::new();
    for pattern in patterns {
        for n in [4usize, 8, 16] {
            for gc in GcKind::ALL {
                cells.push(Cell { pattern, n, gc });
            }
        }
    }

    let results = par_sweep(cells, seeds, 1, |cell, seed| {
        let spec = WorkloadSpec::uniform_random(cell.n, steps)
            .with_pattern(cell.pattern)
            .with_seed(seed)
            .with_checkpoint_prob(0.3);
        let mut b = SimulationBuilder::new(spec)
            .protocol(ProtocolKind::Fdas)
            .garbage_collector(cell.gc);
        if cell.gc.needs_control_messages() {
            b = b.control_every(1_000);
        }
        let report = b.run().expect("simulation runs");
        Measured {
            avg: report.metrics.avg_retained(),
            max: report.metrics.max_retained_per_process() as f64,
            collected: report.metrics.total_collected() as f64,
        }
    });

    let mut rows = results.iter();
    for pattern in patterns {
        for n in [4usize, 8, 16] {
            for gc in GcKind::ALL {
                let runs = rows.next().expect("grid covers every cell");
                let avgs: Vec<f64> = runs.iter().map(|m| m.avg).collect();
                let maxs: Vec<f64> = runs.iter().map(|m| m.max).collect();
                let collected: Vec<f64> = runs.iter().map(|m| m.collected).collect();
                println!(
                    "{:<8} {:>3}  {:<20} {:>9.2} {:>9.1} {:>10.0}",
                    pattern.to_string(),
                    n,
                    gc.to_string(),
                    mean(&avgs),
                    mean(&maxs),
                    mean(&collected),
                );
                if gc == GcKind::RdtLgc {
                    assert!(
                        maxs.iter().all(|&m| m <= (n + 1) as f64),
                        "RDT-LGC bound violated"
                    );
                }
            }
            rule(70);
        }
    }
    println!(
        "shape: rdt-lgc ≤ n+1 always and tracks wang-global between control\n\
         rounds with zero coordination; simple-coordinated lags (collects only\n\
         up to the all-fail line); no-gc grows with the checkpoint count."
    );
}
