//! Regenerates Figure 3: recovery-line determination for F = {p2, p3} and
//! the obsolete-checkpoint classification of the shown window.

use rdt_bench::header;
use rdt_ccp::figures::figure3;

pub fn run() {
    header(
        "fig3",
        "Figure 3 — recovery-line determination, F = {p2, p3}",
        "4 processes, window indices 6..11",
    );
    let fig = figure3();
    println!("RD-trackable: {}", fig.ccp.is_rdt());
    println!();

    let line = fig.ccp.recovery_line(&fig.faulty);
    let brute = fig.ccp.brute_force_recovery_line(&fig.faulty).unwrap();
    println!("Lemma-1 recovery line : {line}");
    println!("Definition-5 (brute)  : {brute}");
    println!("agreement             : {}", line == brute);
    println!();

    for p in fig.ccp.processes() {
        let comp = line.component(p);
        let volatile = fig.ccp.is_volatile(comp);
        println!(
            "{p}: component c_{p}^{}{}",
            comp.index,
            if volatile { " (volatile)" } else { "" }
        );
    }
    let p2 = rdt_base::ProcessId::new(1);
    let p3 = rdt_base::ProcessId::new(2);
    let slast2 = rdt_ccp::GeneralCheckpoint::new(p2, fig.ccp.last_stable(p2));
    let slast3 = rdt_ccp::GeneralCheckpoint::new(p3, fig.ccp.last_stable(p3));
    println!();
    println!(
        "s_2^last → s_3^last (so s_3^last ∉ R_F, as in the paper): {}",
        fig.ccp.precedes(slast2, slast3)
    );
    println!();

    let window: Vec<String> = fig
        .ccp
        .obsolete_set()
        .into_iter()
        .filter(|c| c.index.value() >= fig.window_start[c.process.index()])
        .map(|c| c.to_string())
        .collect();
    println!("obsolete in window: {window:?}");
    println!(
        "paper's five {{c_2^7, c_2^9, c_3^8, c_4^6, c_4^8}} plus c_1^8 — the\n\
         c_1^8 pin is unrealizable in any finite CCP (causality cycle; see\n\
         EXPERIMENTS.md)."
    );
}
