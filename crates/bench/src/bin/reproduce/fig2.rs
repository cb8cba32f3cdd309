//! Regenerates Figure 2: useless checkpoints and the domino effect under a
//! protocol without forced checkpoints, contrasted with the RDT protocols.

use rdt_base::ProcessId;
use rdt_bench::header;
use rdt_ccp::CcpBuilder;
use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_sim::run_script;
use rdt_workloads::figures::figure2_script;

pub fn run() {
    header(
        "fig2",
        "Figure 2 — useless checkpoints and the domino effect",
        "2 processes, crossing messages m1..m4",
    );
    println!(
        "{:<10} {:>6} {:>5} {:>8} {:>24}",
        "protocol", "forced", "RDT", "useless", "line after p1 failure"
    );
    for protocol in [
        ProtocolKind::NoForced,
        ProtocolKind::Bcs,
        ProtocolKind::Fdas,
        ProtocolKind::Fdi,
        ProtocolKind::Cbr,
    ] {
        let run = run_script(2, &figure2_script(), protocol, GcKind::RdtLgc).expect("script runs");
        let ccp = CcpBuilder::from_trace(2, &run.trace)
            .expect("crash-free trace")
            .build();
        let forced: u64 = run.processes.iter().map(|m| m.forced_count()).sum();
        let faulty = [ProcessId::new(0)].into_iter().collect();
        let line = ccp.brute_force_recovery_line(&faulty).expect("line exists");
        println!(
            "{:<10} {:>6} {:>5} {:>8} {:>24}",
            protocol.to_string(),
            forced,
            ccp.is_rdt(),
            ccp.useless_checkpoints().len(),
            line.to_string(),
        );
    }
    println!();
    println!(
        "no-forced: every non-initial checkpoint useless, failure → initial state\n\
         (the paper's domino effect). All RDT protocols keep the line current."
    );
}
