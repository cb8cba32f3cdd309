//! A run's memory is the system's, not the run's: `SimulationBuilder::run()`
//! takes its ops from the generator a block at a time, so how long the
//! execution is does not show in what the sequential engine holds. Counted,
//! not timed: a `#[global_allocator]` that tracks the peak of live bytes
//! and the vector-sized requests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use rdt_sim::SimulationBuilder;
use rdt_workloads::{Pattern, WorkloadSpec};

/// Bytes allocated and not yet freed, by every thread (the sharded engine
/// runs workers), and the highest value that has had since the last reset.
/// Statistics only — nothing is published through them, hence `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Calls that asked for 8 KB or more — a dependency vector at n = 1024 —
/// ever.
static VECTOR_CALLS: AtomicUsize = AtomicUsize::new(0);

struct PeakLive;

fn grew(by: usize) {
    VECTOR_CALLS.fetch_add(usize::from(by >= 8 << 10), Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the only thing added is
// arithmetic on two atomics, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for PeakLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: see the impl-level comment.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: see the impl-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: see the impl-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakLive = PeakLive;

/// The counters are the process's: one measurement at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Peak of live bytes, above what was live on entry, and the calls that
/// asked for a vector's worth of memory, while a run of `spec` is made and
/// its report dropped.
fn cost_of_a_run(spec: WorkloadSpec, shards: usize) -> (usize, usize) {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let steps = spec.steps;
    let (before, calls) = (LIVE.load(Relaxed), VECTOR_CALLS.load(Relaxed));
    PEAK.store(before, Relaxed);
    let report = SimulationBuilder::new(spec).shards(shards).run();
    let report = report.expect("the run completes");
    assert_eq!(report.metrics.sequential_fallbacks, 0);
    assert!(report.metrics.total_delivered() as usize > steps / 2);
    drop(report);
    (
        PEAK.load(Relaxed) - before,
        VECTOR_CALLS.load(Relaxed) - calls,
    )
}

/// [`cost_of_a_run`]'s peak for `steps` ops at n = 16 (the `sim-dense`
/// shape).
fn peak_of_a_run(steps: usize, shards: usize) -> usize {
    let spec = WorkloadSpec::uniform_random(16, steps).with_seed(1);
    cost_of_a_run(spec, shards).0
}

/// Ten times the ops, the same memory: no `Vec<AppOp>`, no full-length
/// lane (which at 24 + 40 bytes per op would put 11.5 MB between the two).
#[test]
fn the_sequential_engine_holds_the_system_not_the_run() {
    let (short, long) = (peak_of_a_run(20_000, 1), peak_of_a_run(200_000, 1));
    assert!(
        long.abs_diff(short) <= 64 << 10,
        "20 000 ops peak at {short} bytes, 200 000 at {long}"
    );
    // The counter does count: n = 16 costs more than nothing, and far
    // less than the ops of the short run alone would.
    assert!((16 << 10..20_000 * 24).contains(&short), "{short} bytes");
}

/// The sharded engine holds the system too: its coordinator plans as it
/// pops the schedule and hands each worker its events window by window, a
/// window holds at most 1 024 planned events, and every thread folds its
/// metric ops in place, so only one window's retained-count changes
/// travel. What the length of the run may still move is how far the
/// coordinator runs ahead of its workers, which depends on thread timing:
/// at most 8 windows of at most 1 024 events (64 bytes each) a worker,
/// 1 MB for the two, beside the sequential test's 64 KB. (While the engine
/// kept a whole-run plan and every metric op under its key until the end,
/// 200 000 ops peaked 226 bytes per op above 20 000.)
#[test]
fn the_sharded_engine_holds_the_system_not_the_run() {
    let (short, long) = (peak_of_a_run(20_000, 2), peak_of_a_run(200_000, 2));
    assert!(
        long.abs_diff(short) <= (2 * 8 * 1024 * 64) + (64 << 10),
        "20 000 ops peak at {short} bytes, 200 000 at {long}"
    );
}

/// The `sim-wide` shape, n = 1024 on a ring, where every vector is 8 KB
/// and the change log is on. A process holds `dv`, its interned snapshot,
/// at most two kept buffers, its log, its collector's pin bitmaps (16
/// words per retained checkpoint) and a store that keeps one vector in
/// full and, for every later checkpoint, the entries that changed,
/// however many: 29.4 KB at the peak (35.8 KB while a checkpoint after
/// more than 64 changes kept a whole vector, 45.1 KB while every one
/// did). And the steady state takes its copies of `dv` out of the kept
/// buffers and stores no whole vector: two ops in ten thousand ask the
/// allocator for a vector — a snapshot freed by the last message that
/// carried it is gone — where a whole stored vector after 64 changes
/// made it three in a hundred, and an intern or a checkpoint copy every
/// time 0.43 of them.
#[test]
fn a_wide_run_stays_within_its_budget_per_process_and_per_op() {
    let ring = |steps| {
        let spec = WorkloadSpec::uniform_random(1024, steps).with_pattern(Pattern::Ring);
        cost_of_a_run(spec.with_seed(1), 1)
    };
    let ((_, short), (peak, long)) = (ring(50_000), ring(100_000));
    let per_process = peak / 1024;
    assert!(per_process < 31 << 10, "{per_process} bytes per process");
    let per_op = (long - short) as f64 / 50_000.0;
    assert!(per_op < 0.01, "{per_op:.4} vector allocations per op");
}
