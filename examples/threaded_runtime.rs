//! The same middleware under real OS threads: one `LiveWorker` per thread — the loop each `rdt
//! serve` process runs — over an in-process channel mesh; the paper's retention bounds hold under
//! whatever schedule the OS produces, and every frame sent is either delivered or counted as
//! dropped by a full inbox.

use rdt_checkpointing::env::ChannelTransport;
use rdt_checkpointing::prelude::*;
use rdt_checkpointing::sim::{LiveNode, LiveWorker};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn main() {
    let (n, steps) = (6, 2_000);
    let done = Arc::new(Barrier::new(n));
    let mesh = ChannelTransport::mesh(n, Duration::ZERO)
        .into_iter()
        .enumerate();
    let processes: Vec<_> = mesh
        .map(|(me, transport)| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // Minted here and never moved: the middleware is `!Send`.
                let node = LiveNode::new(ProcessId::new(me), n, ProtocolKind::Fdas, GcKind::RdtLgc);
                let mut worker = LiveWorker::new(node, transport, 7);
                for now in 1..=steps {
                    worker.step(now).expect("a volatile process cannot fail a write");
                }
                // Once every process has sent its last frame, deliver what is left.
                done.wait();
                worker.pump().expect("alive");
                let (stats, store) = (worker.stats(), worker.node().middleware().store());
                let (retained, peak) = (store.len(), store.peak());
                let dropped = worker.transport().dropped();
                println!(
                    "p{me}: {} sent, {} delivered, {dropped} dropped; retained {retained} (≤ {n}), peak {peak} (≤ {n} + 1)",
                    stats.sent, stats.delivered
                );
                assert!(retained <= n && peak <= n + 1, "the n / n + 1 bounds");
                (stats.sent, stats.delivered, dropped)
            })
        })
        .collect();
    let (mut sent, mut delivered, mut dropped) = (0, 0, 0);
    for process in processes {
        let (s, d, x) = process.join().expect("a process broke a bound");
        (sent, delivered, dropped) = (sent + s, delivered + d, dropped + x);
    }
    println!("all: {sent} sent, {delivered} delivered, {dropped} dropped");
    assert_eq!(
        sent,
        delivered + dropped,
        "a frame neither delivered nor dropped"
    );
}
