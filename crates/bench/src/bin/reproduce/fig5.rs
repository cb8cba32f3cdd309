//! Regenerates Figure 5 / Section 4.5: the worst-case retention scenario.
//! Sweeps n and reports per-process retention (= n, the tight bound), the
//! transient per-process peak (n+1), steady global storage (n²) and the
//! transient global peak (n(n+1)); then confirms "n collected, n² remain".

use rdt_base::ProcessId;
use rdt_bench::header;
use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_sim::run_script;
use rdt_workloads::figures::figure5_worst_case;

pub fn run() {
    header(
        "fig5",
        "Figure 5 — worst-case retention for RDT-LGC",
        "sweep n = 2..10, FDAS + RDT-LGC",
    );
    println!(
        "{:>3} {:>9} {:>10} {:>9} {:>12} {:>10}",
        "n", "per-proc", "peak/proc", "global", "peak global", "collected"
    );
    for n in 2..=10usize {
        let run = run_script(
            n,
            &figure5_worst_case(n),
            ProtocolKind::Fdas,
            GcKind::RdtLgc,
        )
        .expect("script runs");
        let per_proc: Vec<usize> = (0..n)
            .map(|i| run.retained(ProcessId::new(i)).len())
            .collect();
        assert!(per_proc.iter().all(|&r| r == n), "tight bound reached");
        let steady: usize = per_proc.iter().sum();

        // Everyone takes one more checkpoint: n+1 transient per process.
        let mut processes = run.processes;
        let mut collected = 0usize;
        let mut peak_global = 0usize;
        for mw in processes.iter_mut() {
            let report = mw.basic_checkpoint().expect("alive");
            collected += report.eliminated.len();
            peak_global += mw.store().peak();
        }
        let peak_proc = processes.iter().map(|mw| mw.store().peak()).max().unwrap();
        let after: usize = processes.iter().map(|mw| mw.store().len()).sum();

        println!(
            "{n:>3} {:>9} {:>10} {steady:>9} {peak_global:>12} {collected:>10}",
            per_proc[0], peak_proc,
        );
        assert_eq!(steady, n * n, "n² steady state");
        assert_eq!(peak_global, n * (n + 1), "n(n+1) transient peak");
        assert_eq!(after, n * n, "n collected, n² remain stored");
    }
    println!();
    println!(
        "matches Section 4.5: per-process retention reaches n (tight by\n\
         Theorem 5), n+1 during a store, n(n+1) global transient, n² after."
    );
}
