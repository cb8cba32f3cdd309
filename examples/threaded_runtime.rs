//! The same middleware under real OS threads: one `LiveNode` per thread, encoded wire frames
//! between them; the paper's retention bounds hold under whatever schedule the OS produces.

use rdt_checkpointing::{prelude::*, sim::LiveNode, workloads::AppOp};
use std::sync::mpsc::{channel, Receiver, Sender};

enum Msg {
    Op(AppOp),
    Frame(Vec<u8>),
}

/// One process, its node minted here and never moved (the middleware is `!Send`): handles `quota`
/// messages — one per own op, one per frame addressed to it — and checks the `n` / `n + 1` bounds.
fn run(me: usize, quota: usize, inbox: Receiver<Msg>, peers: Vec<Sender<Msg>>) {
    let n = peers.len();
    let mut node = LiveNode::new(ProcessId::new(me), n, ProtocolKind::Fdas, GcKind::RdtLgc);
    for _ in 0..quota {
        match inbox.recv().expect("senders outlive the quota") {
            Msg::Op(AppOp::Checkpoint(_)) => drop(node.checkpoint().expect("alive")),
            Msg::Op(AppOp::Send { to, .. }) => {
                let frame = Msg::Frame(node.send_frame(to).0.encode().to_vec());
                peers[to.index()].send(frame).expect("peer awaits it");
            }
            Msg::Op(AppOp::Crash(_)) => {} // recovery needs a stop-the-world manager
            Msg::Frame(bytes) => drop(node.deliver_frame(&bytes).expect("alive")),
        }
    }
    let store = node.middleware().store();
    let (retained, peak) = (store.len(), store.peak());
    println!("p{me}: retained {retained} (≤ {n}), peak {peak} (≤ {n} + 1)");
    assert!(retained <= n && peak <= n + 1, "the n / n + 1 bounds");
}

fn main() {
    let n = 6;
    let ops = WorkloadSpec::uniform_random(n, 2_000).generate();
    let home = |op: &AppOp| {
        let (AppOp::Checkpoint(p) | AppOp::Crash(p) | AppOp::Send { from: p, .. }) = *op;
        p.index()
    };
    let mut quota = vec![0; n];
    for op in &ops {
        quota[home(op)] += 1;
        if let AppOp::Send { to, .. } = *op {
            quota[to.index()] += 1;
        }
    }
    let (txs, inboxes): (Vec<_>, Vec<_>) = (0..n).map(|_| channel::<Msg>()).unzip();
    let mut processes = Vec::new();
    for (me, inbox) in inboxes.into_iter().enumerate() {
        let (quota, peers) = (quota[me], txs.clone());
        processes.push(std::thread::spawn(move || run(me, quota, inbox, peers)));
    }
    for op in &ops {
        txs[home(op)].send(Msg::Op(*op)).expect("process alive");
    }
    for process in processes {
        process.join().expect("a process broke a bound");
    }
}
