//! Stable storage made literal, on the path `rdt serve` ships: each
//! process's middleware commits every change of its stable store to disk
//! through its `DiskSink`, a process dies, restarts from the surviving
//! files and rejoins through an ordinary recovery session.
//!
//! ```sh
//! cargo run --example durable_restart
//! ```

use rdt_checkpointing::prelude::*;
use rdt_checkpointing::storage::DiskSink;
use rdt_core::GcKind;
use rdt_protocols::Middleware;
use rdt_recovery::{FaultySet, RecoveryManager};

fn main() {
    let n = 2;
    let root = std::env::temp_dir().join(format!("rdt-durable-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let open = |p: ProcessId| {
        DurableStore::open(root.join(format!("p{}", p.index())), p).expect("scratch dir")
    };
    let node = |p: ProcessId| {
        let sink = DiskSink::over(open(p));
        Middleware::with_storage(p, n, ProtocolKind::Fdas, GcKind::RdtLgc, sink)
    };

    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let mut a = node(p0);
    let mut b = node(p1);

    println!("== durable restart ==\n");
    // Some history: checkpoints and a message each way, each change of a
    // stable store committed to disk as it happens.
    a.basic_checkpoint().unwrap();
    let m = a.send(p1, Payload::label("hello"));
    b.receive(&m).unwrap();
    b.basic_checkpoint().unwrap();
    let m = b.send(p0, Payload::label("world"));
    a.receive(&m).unwrap();
    a.basic_checkpoint().unwrap();
    for mw in [&mut a, &mut b] {
        assert_eq!(mw.take_sink_error(), None, "every commit reached the disk");
    }

    println!(
        "p1 stable store before the crash: {:?}",
        a.store().indices().map(|i| i.value()).collect::<Vec<_>>()
    );
    let disk = a.sink().disk();
    println!(
        "  on disk: {} checksummed records in {:?}",
        disk.indices().unwrap().len(),
        disk.dir()
    );

    // p0 dies: drop the middleware and its sink. Only the files survive.
    drop(a);
    let disk = open(p0);
    let rebuilt = disk.rebuild().expect("records validate");
    let sink = DiskSink::over(disk);
    let a = Middleware::from_store_with(p0, n, ProtocolKind::Fdas, GcKind::RdtLgc, rebuilt, sink);
    println!("\np1 restarted from disk: crashed = {}", a.is_crashed());

    // An ordinary recovery session brings the pair to a consistent cut.
    let mut world = vec![a, b];
    let faulty: FaultySet = [p0].into_iter().collect();
    let report = RecoveryManager::new()
        .recover(&mut world, &faulty)
        .expect("Lemma 1 is total for safe collectors");
    println!(
        "recovery line: {:?} (rolled back: {:?})",
        report.line.iter().map(|c| c.value()).collect::<Vec<_>>(),
        report.rolled_back
    );
    let (b, mut a) = (world.pop().unwrap(), world.pop().unwrap());
    assert!(!a.is_crashed());
    assert_eq!(a.take_sink_error(), None, "the rollback reached the disk");

    // Knowledge survives: p1's restored vector still knows p2's interval.
    println!(
        "p1 dependency vector after recovery: {:?} (remembers p2's checkpoint)",
        a.dv().to_raw()
    );
    assert!(a.dv().to_raw()[1] > 0);
    // And so does the new incarnation: a second crash cannot reuse it.
    let floor = a.sink().disk().incarnation_floor().unwrap();
    println!("p1 incarnation on disk: {floor:?}");
    assert_eq!(floor, a.incarnation());
    drop((a, b));

    let _ = std::fs::remove_dir_all(&root);
    println!("\nstable storage really was stable.");
}
