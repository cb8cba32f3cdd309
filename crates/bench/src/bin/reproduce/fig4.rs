//! Regenerates Figure 4: the RDT-LGC execution trace with per-event DV/UC
//! state, the on-the-fly eliminations and the knowledge-gap retention.

use rdt_base::{CheckpointId, CheckpointIndex, ProcessId};
use rdt_bench::header;
use rdt_ccp::CcpBuilder;
use rdt_core::GcKind;
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_sim::run_script_with;
use rdt_workloads::figures::figure4_script;
use rdt_workloads::ScriptOp;

fn fmt_uc(uc: &[Option<CheckpointIndex>]) -> String {
    let inner: Vec<String> = uc
        .iter()
        .map(|slot| slot.map_or_else(|| "∗".into(), |i| i.to_string()))
        .collect();
    format!("({})", inner.join(","))
}

pub fn run() {
    header(
        "fig4",
        "Figure 4 — RDT-LGC execution (DV over UC after each event)",
        "3 processes, FDAS + RDT-LGC",
    );
    let n = 3;
    // Destination per send ordinal, to name the receiver of a delivery.
    let mut sent_to: Vec<ProcessId> = Vec::new();
    let processes = ProcessId::all(n)
        .map(|p| Middleware::new(p, n, ProtocolKind::Fdas, GcKind::RdtLgc))
        .collect();
    let run = run_script_with(processes, &figure4_script(), |op, mws, _trace| {
        let what = match *op {
            ScriptOp::Checkpoint(p) => format!("ckpt  s_{p}^{}", mws[p.index()].last_stable()),
            ScriptOp::Send { from, to } => {
                sent_to.push(to);
                format!("send  {from} → {to}")
            }
            ScriptOp::Deliver { send_ordinal } => {
                format!("recv  m{} at {}", send_ordinal + 1, sent_to[send_ordinal])
            }
        };
        print!("{what:<16}");
        for mw in mws {
            print!(
                "  {}:{}{}",
                mw.owner(),
                mw.dv(),
                fmt_uc(&mw.uc_snapshot().expect("RDT-LGC")),
            );
        }
        println!();
    })
    .expect("script runs");

    println!();
    println!(
        "eliminated on the fly: {:?}",
        run.eliminated
            .iter()
            .map(|&(p, i)| CheckpointId::new(p, CheckpointIndex::new(i)).to_string())
            .collect::<Vec<_>>()
    );
    for mw in &run.processes {
        println!("{} retains {:?}", mw.owner(), run.retained(mw.owner()));
    }

    // Oracle cross-check of the knowledge gap.
    let ccp = CcpBuilder::from_trace(n, &run.trace)
        .expect("crash-free")
        .build();
    let s21 = CheckpointId::new(ProcessId::new(1), CheckpointIndex::new(1));
    println!();
    println!(
        "s_2^1: obsolete by Theorem 1 = {}, causally identifiable = {} →\n\
         RDT-LGC retains it; Theorem 5 says no asynchronous collector can\n\
         collect it.",
        ccp.is_obsolete(s21),
        ccp.is_causally_identifiable_obsolete(s21),
    );
}
