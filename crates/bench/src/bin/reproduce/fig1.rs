//! Regenerates Figure 1: the running-example CCP, its path classification
//! and the RDT property (with and without m3).

use rdt_base::{CheckpointIndex, ProcessId};
use rdt_bench::header;
use rdt_ccp::figures::figure1;
use rdt_ccp::GeneralCheckpoint;

pub fn run() {
    header("fig1", "Figure 1 — example CCP and path classification", "");
    let fig = figure1();
    let [m1, m2, m3, m4, m5] = fig.messages;
    println!("{}", fig.ccp.render_ascii());
    println!("{}", fig.ccp.summary());
    println!();

    let zz = fig.ccp.zigzag();
    let g =
        |i: usize, idx: usize| GeneralCheckpoint::new(ProcessId::new(i), CheckpointIndex::new(idx));
    let rows = [
        (
            "[m1, m2]",
            zz.is_causal_path(g(0, 0), &[m1, m2], g(2, 2)),
            "C-path (paper: C-path)",
        ),
        (
            "[m1, m4]",
            zz.is_causal_path(g(0, 0), &[m1, m4], g(2, 2)),
            "C-path (paper: C-path)",
        ),
        (
            "[m5, m4]",
            zz.is_zigzag_path(g(0, 1), &[m5, m4], g(2, 2))
                && !zz.is_causal_path(g(0, 1), &[m5, m4], g(2, 2)),
            "Z-path, non-causal (paper: Z-path)",
        ),
        (
            "[m3]  ",
            zz.is_causal_path(g(0, 1), &[m3], g(2, 2)),
            "C-path doubling [m5, m4]",
        ),
    ];
    for (path, holds, label) in rows {
        println!("{path}  {}  {label}", if holds { "✓" } else { "✗" });
    }
    println!();
    println!("RDT with m3    : {}", fig.ccp.is_rdt());
    println!("RDT without m3 : {}", fig.ccp_without_m3.is_rdt());
    println!(
        "without m3, s_1^1 ⤳ s_3^2 but s_1^1 ↛ s_3^2: {}",
        fig.ccp_without_m3.zigzag().zigzag_reaches(g(0, 1), g(2, 2))
            && !fig.ccp_without_m3.precedes(g(0, 1), g(2, 2))
    );
}
