//! `durable-commit` and `durable-restart`: the file-backed stable store
//! with the simulator out of the picture.
//!
//! One `Middleware<DiskSink>` of an n = 64 system with its files under
//! `benchmark/.work/`, fed by volatile peers. Flush policy: the store's full
//! `StdFs` discipline (temp file, fsync, rename, directory fsync) on the
//! checkout's filesystem. What a flush costs is therefore the sandbox's
//! latency, not a device's.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use rdt_base::{CheckpointIndex, DependencyVector, Payload, ProcessId};
use rdt_core::{CheckpointStore, GcKind};
use rdt_env::{DetRng, Rng as _};
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_storage::codec::{self, Record};
use rdt_storage::{DiskSink, DurableStore, StdFs, StorageBackend};

use crate::harness::{ns_since, scale, Layers, Mode, Rep, Workload};
use crate::host::work_root;
use crate::stats::{median, percentile};

const N: usize = 64;
/// Peers that talk to the durable process; the other entries of the
/// 64-wide vectors stay at their initial value.
const PEERS: usize = 7;
const PROTOCOL: ProtocolKind = ProtocolKind::Fdas;
const GC: GcKind = GcKind::RdtLgc;
const OWNER: ProcessId = ProcessId::new(0);

/// One generated input event.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The durable process takes a basic checkpoint (every 4th event).
    Checkpoint,
    /// Peer `j` sends to the durable process.
    FromPeer(usize),
    /// The durable process sends to peer `j`.
    ToPeer(usize),
    /// Peer `j` takes a basic checkpoint.
    PeerCheckpoint(usize),
}

fn generate(seed: u64, events: usize) -> Vec<Event> {
    let mut rng = DetRng::seeded(seed);
    (0..events)
        .map(|k| {
            if k % 4 == 3 {
                return Event::Checkpoint;
            }
            let peer = 1 + rng.between(0, PEERS as u64 - 1) as usize;
            match rng.between(0, 4) {
                0 | 1 => Event::FromPeer(peer),
                2 | 3 => Event::ToPeer(peer),
                _ => Event::PeerCheckpoint(peer),
            }
        })
        .collect()
}

/// Closing events after which the durable process retains the same number
/// of checkpoints whatever the seed: each peer in turn tells it something
/// new, in an interval of its own. RDT-LGC then pins one checkpoint per
/// peer plus the latest one — so every repetition restarts from
/// `PEERS + 1 = 8` files and restart latency has one mode, not one per
/// retained-set size.
fn settle() -> impl Iterator<Item = Event> {
    (1..=PEERS).flat_map(|j| {
        [
            Event::PeerCheckpoint(j),
            Event::FromPeer(j),
            Event::Checkpoint,
        ]
    })
}

/// Timings and counts of one backend operation kind.
#[derive(Debug, Default)]
struct OpStats {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

/// What the timing backend saw.
#[derive(Debug, Default)]
struct FsStats {
    write: OpStats,
    fsync: OpStats,
    fsync_dir: OpStats,
    rename: OpStats,
    remove: OpStats,
    list: OpStats,
    read: OpStats,
    bytes_written: Cell<u64>,
}

impl FsStats {
    fn ops(&self) -> [&OpStats; 7] {
        [
            &self.write,
            &self.fsync,
            &self.fsync_dir,
            &self.rename,
            &self.remove,
            &self.list,
            &self.read,
        ]
    }

    fn total_ns(&self) -> u64 {
        self.ops().iter().map(|op| op.ns.get()).sum()
    }

    /// Forgets what set-up did, so the counts describe the timed body.
    fn reset(&self) {
        for op in self.ops() {
            op.calls.set(0);
            op.ns.set(0);
        }
        self.bytes_written.set(0);
    }
}

/// `StdFs` with every call timed and counted: the span at the boundary
/// between `rdt-storage` and the filesystem, recorded from outside.
#[derive(Debug)]
struct TimingFs {
    stats: Rc<FsStats>,
}

impl TimingFs {
    fn timed<T>(
        &self,
        op: &OpStats,
        call: impl FnOnce(&StdFs) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let t = Instant::now();
        let out = call(&StdFs);
        op.ns.set(op.ns.get() + t.elapsed().as_nanos() as u64);
        op.calls.set(op.calls.get() + 1);
        out
    }
}

impl StorageBackend for TimingFs {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        StdFs.create_dir_all(dir)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.timed(&self.stats.read, |fs| fs.read(path))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let written = &self.stats.bytes_written;
        written.set(written.get() + bytes.len() as u64);
        self.timed(&self.stats.write, |fs| fs.write(path, bytes))
    }
    fn fsync(&self, path: &Path) -> std::io::Result<()> {
        self.timed(&self.stats.fsync, |fs| fs.fsync(path))
    }
    fn fsync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.timed(&self.stats.fsync_dir, |fs| fs.fsync_dir(dir))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.timed(&self.stats.rename, |fs| fs.rename(from, to))
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.timed(&self.stats.remove, |fs| fs.remove(path))
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.timed(&self.stats.list, |fs| fs.list(dir))
    }
}

/// `StdFs` without the flushes, for `durable-restart`'s set-up only: the
/// files it leaves are byte-identical, and set-up time stays the
/// benchmark's own work instead of the sandbox disk's mood (the flushes of
/// a populating feed drifted by a third within a quarter-hour). Nothing
/// timed or reported runs on it.
#[derive(Debug)]
struct Unflushed;

impl StorageBackend for Unflushed {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        StdFs.create_dir_all(dir)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        StdFs.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        StdFs.write(path, bytes)
    }
    fn fsync(&self, _path: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn fsync_dir(&self, _dir: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        StdFs.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        StdFs.remove(path)
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        StdFs.list(dir)
    }
}

/// Opens the durable process's store on `StdFs` — the store's full
/// discipline on the checkout's filesystem — timed when `stats` is given.
fn open(dir: &Path, stats: Option<&Rc<FsStats>>) -> rdt_storage::Result<DurableStore> {
    let fs: Box<dyn StorageBackend> = match stats {
        None => Box::new(StdFs),
        Some(stats) => Box::new(TimingFs {
            stats: Rc::clone(stats),
        }),
    };
    DurableStore::open_with(dir, OWNER, fs)
}

/// The durable process and the peers feeding it.
struct Cluster {
    durable: Middleware<DiskSink>,
    peers: Vec<Middleware>,
}

/// What feeding a cluster measured.
#[derive(Debug, Default)]
struct Fed {
    /// Per-`basic_checkpoint()` latency, ns.
    commit_ns: Vec<f64>,
    /// Backend time inside those calls, ns ([`TimingFs`] only).
    commit_backend_ns: f64,
    sink_errors: u64,
}

impl Cluster {
    /// A fresh durable process over `disk`; its initial checkpoint is
    /// committed when this returns.
    fn create(disk: DurableStore) -> Self {
        Self {
            durable: Middleware::with_storage(OWNER, N, PROTOCOL, GC, DiskSink::over(disk)),
            peers: (1..=PEERS)
                .map(|j| Middleware::new(ProcessId::new(j), N, PROTOCOL, GC))
                .collect(),
        }
    }

    fn feed(&mut self, events: &[Event], stats: Option<&FsStats>) -> Fed {
        let mut fed = Fed::default();
        for &event in events {
            match event {
                Event::Checkpoint => {
                    let backend_before = stats.map_or(0, FsStats::total_ns);
                    let t = Instant::now();
                    let out = self.durable.basic_checkpoint();
                    fed.commit_ns.push(ns_since(t));
                    fed.commit_backend_ns +=
                        (stats.map_or(0, FsStats::total_ns) - backend_before) as f64;
                    if out.is_err() {
                        fed.sink_errors += 1;
                    }
                }
                Event::FromPeer(j) => {
                    let msg = self.peers[j - 1].send(OWNER, Payload::empty());
                    if self.durable.receive(&msg).is_err() {
                        fed.sink_errors += 1;
                    }
                }
                Event::ToPeer(j) => {
                    let msg = self.durable.send(ProcessId::new(j), Payload::empty());
                    self.peers[j - 1].receive(&msg).expect("peers never crash");
                }
                Event::PeerCheckpoint(j) => {
                    self.peers[j - 1]
                        .basic_checkpoint()
                        .expect("peers never crash");
                }
            }
            if self.durable.take_sink_error().is_some() {
                fed.sink_errors += 1;
            }
        }
        fed
    }
}

fn contents(store: &CheckpointStore) -> Vec<(CheckpointIndex, &DependencyVector)> {
    store.iter().collect()
}

/// The checkpoints a restart would find in `dir` must be exactly the ones
/// the in-memory store holds.
fn check_disk_matches(dir: &Path, memory: &CheckpointStore) -> Result<(), String> {
    let rebuilt = DurableStore::open(dir, OWNER)
        .and_then(|disk| disk.rebuild())
        .map_err(|e| format!("rebuilding from {}: {e}", dir.display()))?;
    if contents(&rebuilt) != contents(memory) {
        return Err(format!(
            "disk holds {} checkpoints, memory {}: the rebuilt store differs",
            rebuilt.len(),
            memory.len()
        ));
    }
    Ok(())
}

fn us(ns: u64, calls: u64) -> f64 {
    ns as f64 / 1e3 / calls.max(1) as f64
}

/// Mean latency per call of each backend operation.
fn backend_layers(stats: &FsStats, layers: &mut Layers) {
    for (name, op) in [
        ("storage.backend.write_us", &stats.write),
        ("storage.backend.fsync_us", &stats.fsync),
        ("storage.backend.fsync_dir_us", &stats.fsync_dir),
        ("storage.backend.rename_us", &stats.rename),
        ("storage.backend.remove_us", &stats.remove),
        ("storage.backend.list_us", &stats.list),
        ("storage.backend.read_us", &stats.read),
    ] {
        layers.insert(name, us(op.ns.get(), op.calls.get()));
    }
}

fn probe_record() -> Record {
    Record {
        owner: OWNER,
        index: CheckpointIndex::new(7),
        dv: DependencyVector::new(N),
        state_size: 0,
    }
}

/// Stand-alone record codec timings at this workload's vector width (the
/// format is fixed-width, so the entries' values do not matter).
fn codec_probe() -> Layers {
    let record = probe_record();
    let bytes = codec::encode(&record);
    const BATCH: usize = 2000;
    let per_call = |call: &dyn Fn()| {
        let rounds: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..BATCH {
                    call();
                }
                ns_since(t) / BATCH as f64
            })
            .collect();
        median(&rounds)
    };
    let mut out = Layers::new();
    out.insert(
        "storage.codec.encode_ns",
        per_call(&|| {
            std::hint::black_box(codec::encode(std::hint::black_box(&record)));
        }),
    );
    out.insert(
        "storage.codec.decode_ns",
        per_call(&|| {
            let _ = std::hint::black_box(codec::decode(std::hint::black_box(&bytes)));
        }),
    );
    out
}

/// `durable-commit`: 10 000 events, every 4th a basic checkpoint.
#[derive(Debug)]
pub struct DurableCommit {
    events: usize,
    dir: PathBuf,
}

impl DurableCommit {
    /// 10 000 events per repetition (1 000 in quick mode).
    pub fn new(quick: bool) -> Self {
        Self {
            events: scale(10_000, quick),
            dir: work_root().join(format!("durable-commit-{}", std::process::id())),
        }
    }
}

impl Drop for DurableCommit {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for DurableCommit {
    fn rep(&mut self, seed: u64, mode: Mode, _expected: Option<u64>) -> Rep {
        let mut rep = Rep::default();
        let stats = (mode == Mode::Traced).then(|| Rc::new(FsStats::default()));

        let t = Instant::now();
        let events = generate(seed, self.events);
        let mut cluster = match open(&self.dir, stats.as_ref()) {
            Ok(disk) => Cluster::create(disk),
            Err(e) => {
                rep.fail(format!("creating {}: {e}", self.dir.display()));
                return rep;
            }
        };
        rep.setup_s = t.elapsed().as_secs_f64();
        // The initial checkpoint's commit belongs to set-up.
        if let Some(stats) = &stats {
            stats.reset();
        }

        let t = Instant::now();
        let mut fed = cluster.feed(&events, stats.as_deref());
        rep.wall_s = t.elapsed().as_secs_f64();
        rep.ops = self.events as u64;
        rep.failed = fed.sink_errors;

        let commits = fed.commit_ns.len() as f64;
        let commit_total_ns: f64 = fed.commit_ns.iter().sum();
        fed.commit_ns.sort_by(f64::total_cmp);
        if mode == Mode::Plain {
            rep.op_samples = fed.commit_ns.len() as u64;
            for (name, q) in [
                ("storage.commit_us_p50", 0.5),
                ("storage.commit_us_p99", 0.99),
            ] {
                rep.layers.insert(name, percentile(&fed.commit_ns, q) / 1e3);
            }
        }

        if fed.sink_errors > 0 {
            rep.fail(format!("{} events reported a sink error", fed.sink_errors));
        }
        if let Err(why) = check_disk_matches(&self.dir, cluster.durable.store()) {
            rep.fail(why);
        }

        if let Some(stats) = stats.as_deref() {
            backend_layers(stats, &mut rep.layers);
            rep.layers.insert(
                "storage.commit.self_us",
                (commit_total_ns - fed.commit_backend_ns) / 1e3 / commits,
            );
            let retries = cluster.durable.sink().disk().transient_retries();
            rep.layers
                .insert("storage.transient_retries", retries as f64);
            // Per durable commit, over the whole feed: receive-path commits
            // (garbage collection removing files) are part of what a commit
            // costs the store.
            let per_commit = |count: u64| count as f64 / commits;
            rep.exact.insert(
                "storage.backend.fsyncs_per_commit",
                per_commit(stats.fsync.calls.get() + stats.fsync_dir.calls.get()),
            );
            rep.exact.insert(
                "storage.backend.lists_per_commit",
                per_commit(stats.list.calls.get()),
            );
            rep.exact.insert(
                "storage.backend.writes_per_commit",
                per_commit(stats.write.calls.get()),
            );
            rep.exact.insert(
                "storage.bytes_per_commit",
                per_commit(stats.bytes_written.get()),
            );
        }
        // Leave nothing behind, so every set-up starts from an empty slate.
        let _ = std::fs::remove_dir_all(&self.dir);
        rep
    }

    fn probes(&mut self, _seed: u64, _layers: &Layers) -> Result<Layers, String> {
        Ok(codec_probe())
    }
}

/// `durable-restart`: a directory populated by 2 000 events, then 4 000 ×
/// (`DurableStore::open` → `rebuild_reported` → `Middleware::from_store_with`).
#[derive(Debug)]
pub struct DurableRestart {
    populate: usize,
    restarts: usize,
    dir: PathBuf,
}

impl DurableRestart {
    /// 4 000 restarts per repetition (400 in quick mode).
    pub fn new(quick: bool) -> Self {
        Self {
            populate: scale(2_000, quick),
            restarts: scale(4_000, quick),
            dir: work_root().join(format!("durable-restart-{}", std::process::id())),
        }
    }
}

impl Drop for DurableRestart {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for DurableRestart {
    fn rep(&mut self, seed: u64, mode: Mode, _expected: Option<u64>) -> Rep {
        let mut rep = Rep::default();
        let stats = (mode == Mode::Traced).then(|| Rc::new(FsStats::default()));

        // Set-up: run a process for a while, then lose it. Only its files
        // survive; the in-memory store is kept to check the restarts.
        let t = Instant::now();
        let mut events = generate(seed, self.populate);
        events.extend(settle());
        let survivor = match DurableStore::open_with(&self.dir, OWNER, Box::new(Unflushed)) {
            Ok(disk) => {
                let mut cluster = Cluster::create(disk);
                let fed = cluster.feed(&events, None);
                if fed.sink_errors > 0 {
                    rep.fail(format!("{} sink errors while populating", fed.sink_errors));
                }
                cluster.durable.store().clone()
            }
            Err(e) => {
                rep.fail(format!("creating {}: {e}", self.dir.display()));
                return rep;
            }
        };
        rep.setup_s = t.elapsed().as_secs_f64();

        let mut restart_ns = Vec::with_capacity(self.restarts);
        let mut loaded = 0;
        let mut retries = 0;
        let t = Instant::now();
        for _ in 0..self.restarts {
            let t = Instant::now();
            let restarted = open(&self.dir, stats.as_ref()).and_then(|disk| {
                let (store, report) = disk.rebuild_reported()?;
                let mw = Middleware::from_store_with(
                    OWNER,
                    N,
                    PROTOCOL,
                    GC,
                    store,
                    DiskSink::over(disk),
                );
                Ok((mw, report))
            });
            restart_ns.push(ns_since(t));
            match restarted {
                Ok((mw, report))
                    if report.quarantined == 0
                        && report.loaded == survivor.len()
                        && contents(mw.store()) == contents(&survivor) =>
                {
                    loaded = report.loaded;
                    retries = report.transient_retries;
                }
                Ok(_) => rep.failed += 1,
                Err(_) => rep.failed += 1,
            }
        }
        rep.wall_s = t.elapsed().as_secs_f64();
        rep.ops = self.restarts as u64;
        if rep.failed > 0 {
            rep.fail(format!(
                "{} of {} restarts did not rebuild the surviving store",
                rep.failed, self.restarts
            ));
        }

        restart_ns.sort_by(f64::total_cmp);
        if mode == Mode::Plain {
            rep.op_samples = restart_ns.len() as u64;
            for (name, q) in [
                ("storage.restart_us_p50", 0.5),
                ("storage.restart_us_p99", 0.99),
            ] {
                rep.layers.insert(name, percentile(&restart_ns, q) / 1e3);
            }
        }

        if let Some(stats) = stats.as_deref() {
            backend_layers(stats, &mut rep.layers);
            rep.layers
                .insert("storage.transient_retries", retries as f64);
            rep.exact.insert("storage.restart.loaded", loaded as f64);
        }
        // Leave nothing behind, so every set-up starts from an empty slate.
        let _ = std::fs::remove_dir_all(&self.dir);
        rep
    }

    fn probes(&mut self, _seed: u64, _layers: &Layers) -> Result<Layers, String> {
        Ok(codec_probe())
    }
}
