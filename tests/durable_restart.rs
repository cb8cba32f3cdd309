//! End-to-end durability: a process's stable storage is mirrored to its
//! record log, the process "dies" (its in-memory state is dropped),
//! restarts from the surviving log, and a recovery session brings the
//! system back to a consistent cut — after which execution continues and
//! every bound holds.

use std::fs;
use std::path::PathBuf;

use rdt_checkpointing::prelude::*;
use rdt_core::GcKind;
use rdt_protocols::Middleware;
use rdt_recovery::{FaultySet, RecoveryManager};

fn scratch(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "rdt-restart-test-{}-{tag}-{seq}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A tiny harness: `n` middlewares, per-process durable mirrors, immediate
/// message delivery, disk synced after every event.
struct DurableWorld {
    mws: Vec<Middleware>,
    disks: Vec<DurableStore>,
    root: PathBuf,
}

impl DurableWorld {
    fn new(n: usize, tag: &str) -> Self {
        let root = scratch(tag);
        let mws: Vec<Middleware> = (0..n)
            .map(|i| Middleware::new(ProcessId::new(i), n, ProtocolKind::Fdas, GcKind::RdtLgc))
            .collect();
        let disks: Vec<DurableStore> = (0..n)
            .map(|i| {
                DurableStore::open(root.join(format!("p{i}")), ProcessId::new(i))
                    .expect("scratch dir opens")
            })
            .collect();
        let mut world = Self { mws, disks, root };
        world.sync_all();
        world
    }

    fn sync(&mut self, i: usize) {
        self.disks[i]
            .sync(self.mws[i].store())
            .expect("disk mirror");
    }

    fn sync_all(&mut self) {
        for i in 0..self.mws.len() {
            self.sync(i);
        }
    }

    fn checkpoint(&mut self, i: usize) {
        self.mws[i].basic_checkpoint().expect("alive");
        self.sync(i);
    }

    fn message(&mut self, from: usize, to: usize) {
        let m = self.mws[from].send(ProcessId::new(to), Payload::empty());
        self.sync(from);
        self.mws[to].receive(&m).expect("alive");
        self.sync(to);
    }

    /// Kills process `i` (drops its volatile state) and restarts it from
    /// disk alone.
    fn crash_and_restart(&mut self, i: usize) {
        self.crash_and_restart_reported(i);
    }

    /// As [`crash_and_restart`](Self::crash_and_restart), returning the
    /// lenient-rebuild report (quarantine counts and the like).
    fn crash_and_restart_reported(&mut self, i: usize) -> RestartReport {
        let n = self.mws.len();
        let (rebuilt, report) = self.disks[i].rebuild_reported().expect("disk is readable");
        self.mws[i] = Middleware::from_store(
            ProcessId::new(i),
            n,
            ProtocolKind::Fdas,
            GcKind::RdtLgc,
            rebuilt,
        );
        assert!(self.mws[i].is_crashed());
        report
    }

    /// Rewrites the record of process `i`'s newest stored checkpoint in
    /// its log: `mutilate` gets the record's bytes and returns what is to
    /// stand in their place. Returns the log as it then is.
    fn mutilate_newest_record(&self, i: usize, mutilate: impl Fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
        let path = self.disks[i].log_path();
        let mut bytes = fs::read(&path).unwrap();
        let replay = rdt_checkpointing::storage::log::replay(&bytes, ProcessId::new(i));
        let (_, newest) = replay.live.last_key_value().expect("a checkpoint is live");
        let at = newest.bytes.as_ptr() as usize - bytes.as_ptr() as usize;
        let stand_in = mutilate(newest.bytes);
        bytes.splice(at..at + newest.bytes.len(), stand_in);
        fs::write(&path, &bytes).unwrap();
        bytes
    }

    fn recover(&mut self, faulty: &[usize]) {
        let faulty: FaultySet = faulty.iter().map(|&i| ProcessId::new(i)).collect();
        RecoveryManager::new()
            .recover(&mut self.mws, &faulty)
            .expect("Lemma 1 is total for safe collectors");
        self.sync_all();
    }
}

impl Drop for DurableWorld {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn restart_from_disk_restores_a_consistent_system() {
    let mut w = DurableWorld::new(3, "consistent");
    // Build some history with cross-process knowledge.
    w.checkpoint(0);
    w.message(0, 1);
    w.checkpoint(1);
    w.message(1, 2);
    w.checkpoint(2);
    w.message(2, 0);
    w.checkpoint(0);

    let before: Vec<Vec<usize>> = w
        .mws
        .iter()
        .map(|m| m.store().indices().map(|i| i.value()).collect())
        .collect();

    // p1 dies; everything it knew must come back from the files.
    w.crash_and_restart(1);
    assert_eq!(
        w.mws[1]
            .store()
            .indices()
            .map(|i| i.value())
            .collect::<Vec<_>>(),
        before[1],
        "disk reproduced the exact retained set"
    );

    w.recover(&[1]);
    assert!(!w.mws[1].is_crashed());

    // Execution continues; bounds hold; knowledge flows again.
    w.message(1, 0);
    w.checkpoint(0);
    w.message(0, 2);
    w.checkpoint(2);
    for mw in &w.mws {
        assert!(mw.store().len() <= 3, "{}", mw.owner());
    }
}

#[test]
fn restarted_process_dv_reflects_its_last_stable_checkpoint() {
    let mut w = DurableWorld::new(2, "dv");
    w.checkpoint(0);
    w.message(1, 0); // p0 learns of p1's interval
    w.checkpoint(0);
    let dv_before = w.mws[0].dv().clone();
    w.crash_and_restart(0);
    // Volatile knowledge gained after the last checkpoint is gone; the
    // restored vector equals the last stored one, bumped.
    assert_eq!(w.mws[0].dv(), &dv_before);
    w.recover(&[0]);
    // After the recovery session the intervals are unchanged, but the
    // rollback opened a fresh incarnation for p0's own entry.
    assert_eq!(w.mws[0].dv().to_raw(), dv_before.to_raw());
    assert_eq!(
        w.mws[0].incarnation(),
        rdt_checkpointing::base::Incarnation::new(1)
    );
    assert_eq!(
        w.mws[0]
            .dv()
            .incarnation_of(rdt_checkpointing::base::ProcessId::new(0)),
        rdt_checkpointing::base::Incarnation::new(1)
    );
}

#[test]
fn restart_resumes_above_every_incarnation_the_dead_execution_used() {
    use rdt_checkpointing::base::Incarnation;
    // p0 rolls back once (incarnation 1) and propagates incarnation-1
    // knowledge to p1, then dies hard and is rebuilt from disk alone.
    // Rollbacks store no checkpoint, so the stored vectors still say
    // incarnation 0 — the durable incarnation log must carry the counter,
    // or the restart would reuse incarnation 1 and alias the dead
    // execution's knowledge (and the recovery line would read p1's live
    // dependency as stale).
    let mut w = DurableWorld::new(2, "incarnation-log");
    w.checkpoint(0);
    w.mws[0].crash();
    w.recover(&[0]); // rollback to s_0^1: incarnation 1
    assert_eq!(w.mws[0].incarnation(), Incarnation::new(1));
    w.message(0, 1); // p1 now knows p0's incarnation 1, interval 2
    assert_eq!(
        w.mws[1].dv().lineage(ProcessId::new(0)),
        rdt_checkpointing::base::DvEntry::new(
            Incarnation::new(1),
            rdt_checkpointing::base::IntervalIndex::new(2)
        )
    );

    w.crash_and_restart(0);
    assert_eq!(
        w.mws[0].incarnation(),
        Incarnation::new(1),
        "the restart resumes at the logged incarnation, not the stored vector's"
    );
    // The recovery session reads p1's incarnation-1 knowledge as *live* —
    // p1 depends on p0's lost interval 2 and must roll back with it.
    let line = RecoveryManager::new()
        .recovery_line(&w.mws, &[ProcessId::new(0)].into_iter().collect())
        .expect("Lemma 1 total");
    assert_eq!(line[1], CheckpointIndex::new(0), "p1 is an orphan");
    w.recover(&[0]);
    assert_eq!(w.mws[0].incarnation(), Incarnation::new(2));
    // The log survives on disk, monotone across the whole ordeal.
    assert_eq!(w.disks[0].incarnation_floor().unwrap(), Incarnation::new(2));
}

#[test]
fn gc_eliminations_propagate_to_disk() {
    let mut w = DurableWorld::new(2, "gc");
    for _ in 0..5 {
        w.checkpoint(0);
    }
    // RDT-LGC keeps only the last lone checkpoint; the mirror must agree.
    assert_eq!(w.mws[0].store().len(), 1);
    assert_eq!(w.disks[0].indices().unwrap().len(), 1);
}

#[test]
fn repeated_crashes_never_lose_the_recovery_anchor() {
    let mut w = DurableWorld::new(3, "repeat");
    for round in 0..4 {
        w.checkpoint(round % 3);
        w.message(round % 3, (round + 1) % 3);
        let victim = (round + 1) % 3;
        w.crash_and_restart(victim);
        w.recover(&[victim]);
        for mw in &w.mws {
            assert!(!mw.is_crashed());
            assert!(!mw.store().is_empty(), "{} lost its anchor", mw.owner());
        }
    }
}

#[test]
fn simultaneous_restart_of_every_process_recovers() {
    let mut w = DurableWorld::new(3, "all");
    w.checkpoint(0);
    w.message(0, 1);
    w.checkpoint(1);
    for i in 0..3 {
        w.crash_and_restart(i);
    }
    w.recover(&[0, 1, 2]);
    for mw in &w.mws {
        assert!(!mw.is_crashed());
    }
    // The system can make progress from the recovered cut.
    w.message(0, 2);
    w.checkpoint(2);
    assert!(w.mws[2].store().len() <= 3);
}

/// Builds enough cross-process history that every process retains at
/// least two stable checkpoints, so corrupting the newest leaves an
/// older intact one to fall back to.
fn world_with_depth(tag: &str) -> DurableWorld {
    // Each process checkpoints right after receiving from a sender that
    // never checkpoints behind its send: the new checkpoint depends on a
    // volatile interval, so the older one stays a live rollback target.
    let mut w = DurableWorld::new(3, tag);
    w.message(1, 0);
    w.checkpoint(0);
    w.message(2, 1);
    w.checkpoint(1);
    w.message(0, 2);
    w.checkpoint(2);
    for i in 0..3 {
        assert!(
            w.disks[i].indices().unwrap().len() >= 2,
            "p{i} needs a fallback checkpoint for these tests"
        );
    }
    w
}

#[test]
fn torn_write_is_quarantined_and_the_older_checkpoint_restored() {
    let mut w = world_with_depth("torn");
    // Tear p1's newest checkpoint record to a prefix — the image of media
    // corruption after the fact (a torn *append* only ever tears the tail,
    // and was never acknowledged).
    let intact_before = w.disks[1].indices().unwrap().len();
    let damaged = w.mutilate_newest_record(1, |record| record[..record.len() / 2].to_vec());

    let report = w.crash_and_restart_reported(1);
    assert_eq!(report.quarantined, 1, "exactly the torn record is skipped");
    assert_eq!(report.loaded, intact_before - 1);
    assert_eq!(report.log_bytes, damaged.len());

    // The system still reaches a consistent cut and keeps executing; the
    // first commit after the restart rewrote the log and kept the damaged
    // image for forensics.
    w.recover(&[1]);
    let aside = w.disks[1].dir().join("store.log.quarantined");
    assert_eq!(fs::read(aside).unwrap(), damaged);
    assert_eq!(w.disks[1].rebuild_reported().unwrap().1.quarantined, 0);
    w.message(1, 2);
    w.checkpoint(2);
    for mw in &w.mws {
        assert!(!mw.is_crashed());
        assert!(!mw.store().is_empty());
    }
}

#[test]
fn bit_flip_is_detected_by_the_checksum_and_quarantined() {
    let mut w = world_with_depth("bitflip");
    w.mutilate_newest_record(0, |record| {
        let mut flipped = record.to_vec();
        flipped[record.len() / 2] ^= 0x40;
        flipped
    });

    let report = w.crash_and_restart_reported(0);
    assert_eq!(report.quarantined, 1, "one silently corrupted record");
    w.recover(&[0]);
    w.message(0, 1);
    w.checkpoint(1);
    for mw in &w.mws {
        assert!(!mw.is_crashed());
    }
}

#[test]
fn corruption_on_every_process_at_once_still_recovers() {
    let mut w = world_with_depth("multi-corrupt");
    // All three processes lose their newest checkpoint to different
    // faults in the same incident.
    for i in 0..3 {
        w.mutilate_newest_record(i, |record| match i {
            0 => record[..record.len() / 3].to_vec(),
            1 => {
                let mut b = record.to_vec();
                let last = b.len() - 1;
                b[last] ^= 0x01;
                b
            }
            _ => vec![0; record.len()],
        });
    }
    let mut quarantined = 0;
    for i in 0..3 {
        quarantined += w.crash_and_restart_reported(i).quarantined;
    }
    assert_eq!(quarantined, 3);
    w.recover(&[0, 1, 2]);
    w.message(0, 2);
    w.checkpoint(2);
    for mw in &w.mws {
        assert!(!mw.is_crashed());
        assert!(!mw.store().is_empty(), "{} lost its anchor", mw.owner());
    }
}

#[test]
fn lost_rename_never_loses_the_recovery_anchor() {
    // A lost rename is the crash image of dying between rename and the
    // parent-directory fsync — `FaultFs` models exactly that: the rename
    // reports success and the backend is dead from the next operation
    // on. Sweep the fault across every backend operation of a compacting
    // commit; keyed to a non-rename operation it simply does not fire.
    let owner = ProcessId::new(0);
    let run = |dir: &PathBuf, plan: FaultPlan| -> (FaultFs, Result<(), String>) {
        let backend = FaultFs::new(plan);
        let outcome = (|| {
            let disk = DurableStore::open_with(dir, owner, Box::new(backend.clone()))
                .map_err(|e| e.to_string())?;
            let mut mw = Middleware::new(owner, 2, ProtocolKind::Fdas, GcKind::RdtLgc);
            disk.sync(mw.store()).map_err(|e| e.to_string())?;
            mw.basic_checkpoint().map_err(|e| e.to_string())?;
            disk.sync(mw.store()).map_err(|e| e.to_string())?;
            Ok(())
        })();
        (backend, outcome)
    };

    // Reference run: find the operation window of the second sync, the
    // one that persists checkpoint 1 and collects checkpoint 0 — more dead
    // bytes than live ones, so it compacts: read, write, fsync, rename,
    // directory fsync.
    let refdir = scratch("lost-rename-ref");
    let probe = FaultFs::new(FaultPlan::none());
    let window = {
        let disk = DurableStore::open_with(&refdir, owner, Box::new(probe.clone())).unwrap();
        let mut mw = Middleware::new(owner, 2, ProtocolKind::Fdas, GcKind::RdtLgc);
        disk.sync(mw.store()).unwrap();
        let start = probe.ops_executed();
        mw.basic_checkpoint().unwrap();
        disk.sync(mw.store()).unwrap();
        start..probe.ops_executed()
    };
    assert_eq!(window.end - window.start, 5, "the commit compacts");
    fs::remove_dir_all(&refdir).ok();

    for k in window {
        let dir = scratch(&format!("lost-rename-{k}"));
        let plan = FaultPlan::none().with_fault(k, FaultKind::LostRename);
        let (backend, outcome) = run(&dir, plan);
        // The fault fires only when op k is a rename; the crash then
        // surfaces on the operation after it (one always follows — a
        // rename is never the commit's last operation, the directory
        // fsync always chases it).
        assert_eq!(
            outcome.is_err(),
            backend.has_crashed(),
            "op {k}: the only permitted error is the injected crash"
        );
        assert_eq!(backend.has_crashed(), backend.faults_injected() > 0);

        // Restart from the surviving files with the real filesystem.
        let disk = DurableStore::open(&dir, owner).unwrap();
        let (rebuilt, report) = disk.rebuild_reported().unwrap();
        let survived: Vec<usize> = rebuilt.indices().map(|c| c.value()).collect();
        let expected = if backend.has_crashed() { [0] } else { [1] };
        assert_eq!(
            survived, expected,
            "op {k}: a lost rename keeps the old log whole, a kept one is the new log"
        );
        assert_eq!(
            report.quarantined, 0,
            "op {k}: a lost rename corrupts nothing"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn an_old_layout_directory_opens_as_an_empty_store() {
    // One file per checkpoint and slotted incarnation files: the layout
    // before the log. Nothing deployed produces it; a restart reads the
    // one file it owns, so these are strays — an empty store, no panic,
    // and the first commit lands beside them.
    let dir = scratch("old-layout");
    fs::create_dir_all(&dir).unwrap();
    for name in [
        "ckpt_0.bin",
        "ckpt_7.bin",
        "incarnation_a.bin",
        "incarnation.bin",
    ] {
        fs::write(dir.join(name), b"RDTC\x03\x00 whatever these held").unwrap();
    }
    let owner = ProcessId::new(0);
    let disk = DurableStore::open(&dir, owner).unwrap();
    let (store, report) = disk.rebuild_reported().unwrap();
    assert!(store.is_empty());
    assert_eq!(report, RestartReport::default());
    let mw = Middleware::new(owner, 2, ProtocolKind::Fdas, GcKind::RdtLgc);
    assert_eq!(disk.sync(mw.store()).unwrap(), (1, 0));
    assert_eq!(disk.rebuild().unwrap().len(), 1);
    fs::remove_dir_all(dir).unwrap();
}

mod log_model_props {
    use std::fs;

    use proptest::prelude::*;
    use rdt_checkpointing::base::Incarnation;
    use rdt_checkpointing::prelude::*;

    const N: usize = 3;
    /// Bytes of a checkpoint record at this width, and of a raised floor.
    const RECORD: usize = 38 + 12 * N;
    const FLOOR: usize = 32;

    fn contents(store: &CheckpointStore) -> Vec<(CheckpointIndex, DependencyVector)> {
        store.iter().map(|(i, dv)| (i, dv.clone())).collect()
    }

    fn live_bytes(store: &CheckpointStore) -> usize {
        let floor = store.incarnation_floor() > Incarnation::ZERO;
        store.len() * RECORD + if floor { FLOOR } else { 0 }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random insert / collect / incarnation-bump / reopen sequences
        /// against an in-memory model, with crashes: a commit torn at an
        /// **arbitrary byte** of its append (or, for a compacting commit,
        /// a rename that did or did not reach the directory). After every
        /// reopen the log says what the model said at the last
        /// acknowledged commit, or at the one in flight, or — a prefix of
        /// the in-flight append — its checkpoints without (all of) its
        /// collects; the floor is never below an acknowledged value; the
        /// anchor is never lost; and after every commit the log is at most
        /// twice its live bytes plus that commit.
        #[test]
        fn the_log_is_the_model_at_the_last_or_the_in_flight_commit(
            ops in prop::collection::vec(
                (0u8..7, 0usize..64, 0u8..3, any::<prop::sample::Index>()),
                1..60,
            ),
        ) {
            let dir = super::scratch("log-model");
            let owner = ProcessId::new(0);
            let mut disk = DurableStore::open(&dir, owner).expect("scratch dir");
            let path = disk.log_path();
            let mut model = CheckpointStore::new(owner);
            model.insert(CheckpointIndex::ZERO, DependencyVector::new(N));
            disk.sync(&model).expect("first commit");
            // A torn tail stays in the file until the next commit rewrites it.
            let mut torn = 0;

            for (kind, a, crash, cut) in ops {
                let acked = model.clone();
                match kind {
                    // Take a checkpoint; every other time collect the oldest
                    // in the same commit, as RDT-LGC does.
                    0..=3 => {
                        let next = model.last().expect("never empty").value() + 1;
                        model.insert(
                            CheckpointIndex::new(next),
                            DependencyVector::from_raw(vec![next, a, a * a]),
                        );
                        if kind % 2 == 1 && model.len() > 2 {
                            let oldest = model.indices().next().expect("non-empty");
                            model.remove(oldest).expect("stored");
                        }
                    }
                    // Collect any one but the newest (a receive that brought news).
                    4 if model.len() > 1 => {
                        let doomed = model.indices().nth(a % (model.len() - 1)).expect("in range");
                        model.remove(doomed).expect("stored");
                    }
                    // Roll back: drop the newest checkpoints, open an incarnation.
                    5 => {
                        let keep = model.indices().nth(a % model.len()).expect("in range");
                        model.truncate_after(keep);
                        let next = Incarnation::new(model.incarnation_floor().value() + 1);
                        model.raise_incarnation_floor(next);
                    }
                    // Reopen: a clean restart reads exactly the model.
                    6 => {
                        disk = DurableStore::open(&dir, owner).expect("directory survives");
                        let (rebuilt, report) = disk.rebuild_reported().expect("intact log");
                        prop_assert_eq!(report.quarantined, torn);
                        prop_assert_eq!(contents(&rebuilt), contents(&model));
                        prop_assert_eq!(rebuilt.incarnation_floor(), model.incarnation_floor());
                        continue;
                    }
                    _ => {}
                }
                if model == acked {
                    continue;
                }
                let before = fs::read(&path).expect("log exists");
                disk.sync(&model).expect("commit");
                let after = fs::read(&path).expect("log exists");
                torn = 0;
                let commit = after.len().saturating_sub(before.len());
                prop_assert!(
                    after.len() <= 2 * live_bytes(&model) + commit,
                    "{} bytes of log for {} live", after.len(), live_bytes(&model)
                );
                if crash != 0 {
                    continue;
                }

                // The crash: the commit was in flight, not acknowledged.
                let appended = after.len() > before.len() && after.starts_with(&before);
                let image = if appended {
                    &after[..before.len() + cut.index(commit + 1)]
                } else if cut.index(2) == 0 {
                    &before[..] // the rename never reached the directory
                } else {
                    &after[..]
                };
                fs::write(&path, image).expect("crash image");
                disk = DurableStore::open(&dir, owner).expect("directory survives");
                let (rebuilt, report) = disk.rebuild_reported().expect("a prefix replays");
                prop_assert!(report.quarantined <= 1, "at most the torn tail");
                torn = report.quarantined;
                prop_assert!(!rebuilt.is_empty(), "the anchor is never lost");
                prop_assert!(rebuilt.incarnation_floor() >= acked.incarnation_floor());
                prop_assert!(rebuilt.incarnation_floor() <= model.incarnation_floor());
                let collected_any = acked.indices().any(|i| !rebuilt.contains(i));
                for (index, dv) in rebuilt.iter() {
                    let source = if model.contains(index) { &model } else { &acked };
                    let mut written = dv.clone();
                    prop_assert!(source.dv(index, &mut written).is_ok(), "never a record not written");
                    prop_assert_eq!(&written, dv, "never a record not written");
                }
                for (index, _) in model.iter() {
                    let settled = acked.contains(index) || collected_any;
                    prop_assert!(
                        !settled || rebuilt.contains(index),
                        "{:?} lost: checkpoints are appended ahead of collects", index
                    );
                }
                // The process restarts from what the disk says.
                model = rebuilt;
            }
            fs::remove_dir_all(dir).ok();
        }
    }
}

mod disk_sink_props {
    use proptest::prelude::*;
    use rdt_checkpointing::prelude::*;
    use rdt_checkpointing::storage::DiskSink;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A volatile middleware and a `Middleware<DiskSink>` fed identical
        /// events agree on every observable, the directory always equals
        /// the in-memory stable store, and a restart from the directory
        /// alone rebuilds exactly that store.
        #[test]
        fn disk_sink_is_transparent_and_restart_rebuilds_the_store(
            ops in prop::collection::vec((0u8..4, 0usize..16), 0..30),
            proto in prop::sample::select(vec![ProtocolKind::Fdas, ProtocolKind::Cas]),
        ) {
            let n = 2;
            let dir = super::scratch("disk-sink-props");
            let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
            let mut plain = Middleware::new(p0, n, proto, GcKind::RdtLgc);
            let disk = DurableStore::open(&dir, p0).expect("scratch dir");
            let mut durable =
                Middleware::with_storage(p0, n, proto, GcKind::RdtLgc, DiskSink::over(disk));
            // A fixed peer feeding both the same piggybacks.
            let mut peer = Middleware::new(p1, n, proto, GcKind::RdtLgc);

            for step in 0..=ops.len() {
                // Checked before the first op too: `s^0` is already on disk.
                prop_assert_eq!(durable.take_sink_error(), None);
                prop_assert_eq!(plain.dv(), durable.dv());
                prop_assert_eq!(
                    durable.sink().disk().indices().expect("readable"),
                    durable.store().indices().collect::<Vec<_>>()
                );
                // What the handle remembers is what a restart would read.
                let (on_disk, _) = DurableStore::open(&dir, p0)
                    .and_then(|fresh| fresh.rebuild_reported())
                    .expect("readable");
                prop_assert_eq!(
                    on_disk.iter().collect::<Vec<_>>(),
                    durable.store().iter().collect::<Vec<_>>()
                );
                let Some(&(kind, a)) = ops.get(step) else { break };
                match kind {
                    0 => prop_assert_eq!(
                        plain.basic_checkpoint().expect("alive"),
                        durable.basic_checkpoint().expect("alive")
                    ),
                    1 => prop_assert_eq!(
                        plain.send(p1, Payload::empty()).meta.dv,
                        durable.send(p1, Payload::empty()).meta.dv
                    ),
                    2 => {
                        if a % 3 == 0 {
                            peer.basic_checkpoint().expect("alive");
                        }
                        let pb = peer.piggyback();
                        peer.send(p0, Payload::empty());
                        prop_assert_eq!(
                            plain.receive_piggyback(&pb).expect("alive"),
                            durable.receive_piggyback(&pb).expect("alive")
                        );
                    }
                    _ => {
                        // Roll both back to their last stable checkpoint.
                        let target = plain.last_stable();
                        prop_assert_eq!(
                            plain.rollback(target, None).expect("stored"),
                            durable.rollback(target, None).expect("stored")
                        );
                    }
                }
            }

            // A crashed process refuses to checkpoint and leaves the disk alone.
            durable.crash();
            prop_assert!(durable.basic_checkpoint().is_err());
            let before: Vec<_> = durable.store().iter().map(|(i, dv)| (i, dv.clone())).collect();
            let incarnation = durable.incarnation();
            drop(durable); // the kill: everything volatile is gone

            let disk = DurableStore::open(&dir, p0).expect("directory survives");
            let (rebuilt, report) = disk.rebuild_reported().expect("readable");
            prop_assert_eq!(report.quarantined, 0);
            let after: Vec<_> = rebuilt.iter().map(|(i, dv)| (i, dv.clone())).collect();
            prop_assert_eq!(after, before);
            let sink = DiskSink::over(disk);
            let restarted =
                Middleware::from_store_with(p0, n, proto, GcKind::RdtLgc, rebuilt, sink);
            prop_assert!(restarted.is_crashed());
            prop_assert!(restarted.incarnation() >= incarnation, "no incarnation is ever reused");
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
