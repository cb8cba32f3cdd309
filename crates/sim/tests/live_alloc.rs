//! What the per-message and the per-crash paths allocate. The frame path
//! allocates nothing in the steady state: with observability off,
//! `send_frame` → `encode` → `deliver_frame` at n = 256 runs out of the
//! buffers the two nodes own. A recovery session allocates per process,
//! never per stored checkpoint. Counted, not timed: a `#[global_allocator]`
//! that counts the calling thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdt_base::{Payload, ProcessId};
use rdt_core::GcKind;
use rdt_env::WireFrame;
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_recovery::{FaultySet, RecoveryManager};
use rdt_sim::LiveNode;

thread_local! {
    /// Allocations and reallocations made by this thread. `const`-built and
    /// without a destructor, so touching it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the only thing added is a
// thread-local counter bump, which neither allocates nor unwinds
// (`try_with` reports a destroyed slot as an error instead of panicking).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: see the impl-level comment.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: see the impl-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_round_trips_do_not_allocate() {
    const N: usize = 256;
    let p = ProcessId::new;
    // NoForced, so that the one thing in a delivery that has to allocate —
    // storing a forced checkpoint's vector — does not happen inside the
    // counted calls; the basic checkpoints that make the news are taken
    // between them.
    let mut nodes = [
        LiveNode::new(p(0), N, ProtocolKind::NoForced, GcKind::RdtLgc),
        LiveNode::new(p(1), N, ProtocolKind::NoForced, GcKind::RdtLgc),
    ];
    // One round trip: what the two frame calls allocated and collected.
    let mut round_trip = |k: usize| {
        let (from, to) = (k % 2, (k + 1) % 2);
        let [a, b] = &mut nodes;
        let (sender, receiver) = if from == 0 { (a, b) } else { (b, a) };
        if k.is_multiple_of(3) {
            sender.checkpoint().unwrap();
        }
        let before = allocations();
        let (frame, _forced) = sender.send_frame(p(to));
        let outcome = receiver.deliver_frame(frame.encode());
        let allocated = allocations() - before;
        (allocated, outcome.unwrap().expect("valid frame").eliminated)
    };
    // Warm-up: both output buffers get their size, both reports their
    // capacity.
    for k in 0..16 {
        round_trip(k);
    }
    let (counted, collected) = (16..1016)
        .map(&mut round_trip)
        .fold((0, 0), |sum, one| (sum.0 + one.0, sum.1 + one.1));
    assert_eq!(counted, 0, "the frame path allocated");
    assert!(collected > 100, "the frames carried no news: {collected}");
    let before = allocations();

    // The counter does count: a frame copied out is one allocation.
    let copy = nodes[0].send_frame(p(1)).0.encode().to_vec();
    assert_eq!(allocations() - before, 1);

    // Nor does refusing a hostile frame allocate: the copy, claiming
    // u32::MAX entries under a checksum that matches the claim.
    let mut hostile = copy;
    hostile[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
    let body = hostile.len() - 8;
    let sum = rdt_base::codec::checksum(&hostile[..body]);
    hostile[body..].copy_from_slice(&sum.to_le_bytes());
    let before = allocations();
    assert_eq!(WireFrame::decode(&hostile), None);
    assert_eq!(nodes[1].deliver_frame(&hostile).unwrap(), None);
    assert_eq!(allocations() - before, 0, "rejecting a lying n allocated");
}

/// A coordinated session over n = 32 RDT-LGC middlewares whose stores were
/// filled for `depth` rounds: the allocations `RecoveryManager::recover`
/// made, and the checkpoints the crashed processes' stores held when it
/// began.
///
/// Processes 0–3 each hear from a distinct peer among 4–31 every round,
/// just after that peer checkpointed, and then checkpoint themselves, so
/// each round leaves one more of their checkpoints pinned. Then all four
/// crash together. They never talked to each other, so each rolls back to
/// its own last checkpoint, and no other process has heard of them. Each
/// rollback runs Algorithm 3's rebuild over a store of about `depth`
/// checkpoints, and every other process gets `LI`.
fn session_allocations(depth: usize) -> (u64, usize) {
    const N: usize = 32;
    let p = ProcessId::new;
    let mut mws: Vec<Middleware> = (0..N)
        .map(|i| Middleware::new(p(i), N, ProtocolKind::Fdas, GcKind::RdtLgc))
        .collect();
    for round in 0..depth {
        for i in 0..4 {
            let peer = 4 + (i + round) % (N - 4);
            mws[peer].basic_checkpoint().unwrap();
            let m = mws[peer].send(p(i), Payload::empty());
            mws[i].receive(&m).unwrap();
            mws[i].basic_checkpoint().unwrap();
        }
    }
    let faulty: FaultySet = (0..4).map(p).collect();
    for f in &faulty {
        mws[f.index()].crash();
    }
    let stored = mws[..4].iter().map(|mw| mw.store().len()).sum();
    let before = allocations();
    let report = RecoveryManager::new().recover(&mut mws, &faulty).unwrap();
    let allocated = allocations() - before;
    assert_eq!(report.rolled_back.len(), 4, "{report:?}");
    (allocated, stored)
}

#[test]
fn a_recovery_session_allocates_per_process_not_per_checkpoint() {
    let (few, few_stored) = session_allocations(2);
    let (many, many_stored) = session_allocations(12);
    assert_eq!(
        (few_stored, many_stored),
        (4 * 3, 4 * 13),
        "every round leaves one more checkpoint pinned"
    );
    assert_eq!(
        few, many,
        "{few_stored} stored checkpoints cost {few} allocations, {many_stored} cost {many}"
    );
}
