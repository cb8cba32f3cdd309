//! An integer-tick bucket (calendar) queue for the discrete-event engine.
//!
//! The simulator schedules events at integer ticks that are never in the
//! past, almost always within a short horizon of the current time (message
//! delays, op spacing, control periods). A ring of per-tick buckets makes
//! `push` and `pop` O(1) for that common case — no comparisons, no heap
//! percolation — while a `BTreeMap` overflow absorbs far-future events
//! (they migrate into the ring as time approaches). Within a tick, events
//! pop in push (sequence) order, so the total order is exactly the
//! `(at, seq)` order the previous `BinaryHeap<Reverse<…>>` implementation
//! produced; the in-file `equivalence` proptest module proves it against a
//! heap reference, operation by operation.
//!
//! The queue holds only what a run creates *while it executes* —
//! deliveries, control rounds. The part of a run whose final `(at, seq)`
//! order is known before it starts (the application op stream, a shard's
//! planned events) stays out of it, in an ordered [`Lane`] that
//! [`pop_merged`](BucketQueue::pop_merged) merges with the queue by key:
//! no bucket and no allocation per pre-planned event. A crash session's
//! [`retain`](BucketQueue::retain), which drops the in-transit deliveries
//! in place, therefore visits the handful of events in flight, never the
//! ops still to come.
//!
//! Exhausted buckets are recycled through a pool, so a long simulation
//! reuses a handful of allocations regardless of event count.

use std::collections::{BTreeMap, VecDeque};

/// How many ticks ahead of the ring base events stay in the ring. Chosen
/// to cover default op spacing (10 ticks), maximum channel delays (tens of
/// ticks) and control periods with room to spare, while keeping the idle
/// ring walk trivial.
const WINDOW: u64 = 1024;

/// One per-tick bucket: events in push (= `seq`) order.
type Bucket<T> = VecDeque<(u64, T)>;

/// The ordered lane beside a [`BucketQueue`]: events whose `(at, seq, item)`
/// keys were all known up front, in key order, consumed from the front.
pub type Lane<L> = VecDeque<(u64, u64, L)>;

/// A priority queue over `(at, seq)` keys, specialized for monotone
/// discrete-event scheduling.
///
/// Invariants the caller must uphold (the simulator does by construction):
///
/// * `seq` strictly increases across pushes (`debug_assert`ed);
/// * `at` is never below the tick of the most recently popped event
///   (`assert`ed: a release run must not reorder silently).
#[derive(Debug)]
pub struct BucketQueue<T> {
    /// Tick represented by `ring[0]`.
    base: u64,
    /// Per-tick buckets for `base .. base + ring.len()`, each in `seq`
    /// order by construction (pushes arrive with increasing `seq`).
    ring: VecDeque<Bucket<T>>,
    /// Events at ticks `>= base + WINDOW`, keyed by tick.
    overflow: BTreeMap<u64, Bucket<T>>,
    /// Total queued events.
    len: usize,
    /// Recycled bucket storage.
    pool: Vec<Bucket<T>>,
    /// Highest `seq` pushed so far (monotonicity check).
    last_seq: u64,
}

impl<T> Default for BucketQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BucketQueue<T> {
    /// An empty queue starting at tick 0.
    pub fn new() -> Self {
        Self {
            base: 0,
            ring: VecDeque::new(),
            overflow: BTreeMap::new(),
            len: 0,
            pool: Vec::new(),
            last_seq: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn fresh_bucket(pool: &mut Vec<Bucket<T>>) -> Bucket<T> {
        pool.pop().unwrap_or_default()
    }

    /// Ensures `ring[offset]` exists, growing the ring from the pool.
    fn grow_ring_to(&mut self, offset: usize) {
        if self.ring.len() <= offset {
            let pool = &mut self.pool;
            self.ring
                .resize_with(offset + 1, || Self::fresh_bucket(pool));
        }
    }

    /// Enqueues `item` at tick `at` with sequence number `seq`.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(
            self.last_seq == 0 || seq > self.last_seq,
            "sequence numbers must increase"
        );
        assert!(at >= self.base, "cannot schedule into the past");
        self.last_seq = seq;
        if at >= self.base + WINDOW {
            self.overflow.entry(at).or_default().push_back((seq, item));
        } else {
            let offset = (at - self.base) as usize;
            self.grow_ring_to(offset);
            self.ring[offset].push_back((seq, item));
        }
        self.len += 1;
    }

    /// Enqueues `item` at tick `at` with sequence number `seq`, keeping the
    /// bucket sorted by `seq` — the out-of-order flavour of
    /// [`push`](Self::push) for shard-local queues, whose events arrive in
    /// per-shard (not global) order: an inserted cross-shard delivery may
    /// carry a *smaller* global sequence number than a later local event
    /// already queued at the same tick. Position is found by binary search,
    /// and the global-monotonicity invariant is deliberately not asserted.
    pub fn insert(&mut self, at: u64, seq: u64, item: T) {
        assert!(at >= self.base, "cannot schedule into the past");
        let bucket = if at >= self.base + WINDOW {
            self.overflow.entry(at).or_default()
        } else {
            let offset = (at - self.base) as usize;
            self.grow_ring_to(offset);
            &mut self.ring[offset]
        };
        let pos = bucket.partition_point(|&(s, _)| s < seq);
        bucket.insert(pos, (seq, item));
        self.len += 1;
    }

    /// Dequeues the earliest event whose `(at, seq)` key is strictly below
    /// `bound`, or `None` — without consuming anything at or past the
    /// bound, and without advancing the internal base past `bound.0`, so
    /// later [`insert`](Self::insert)s at ticks `>= bound.0` (the earliest
    /// a conservative-lookahead window barrier can deliver) stay legal.
    pub fn pop_before(&mut self, bound: (u64, u64)) -> Option<(u64, u64, T)> {
        loop {
            if self.base >= bound.0 {
                // Only same-tick events with a smaller seq still qualify.
                if self.base == bound.0 {
                    if let Some(front) = self.ring.front_mut() {
                        if let Some(&(seq, _)) = front.front() {
                            if seq < bound.1 {
                                let (seq, item) = front.pop_front().expect("peeked");
                                self.len -= 1;
                                return Some((self.base, seq, item));
                            }
                        }
                    }
                }
                return None;
            }
            if let Some(front) = self.ring.front_mut() {
                if let Some((seq, item)) = front.pop_front() {
                    self.len -= 1;
                    return Some((self.base, seq, item));
                }
                let spent = self.ring.pop_front().expect("front exists");
                self.pool.push(spent);
                self.base += 1;
                self.migrate_overflow();
                continue;
            }
            // Ring empty: jump to the first overflow tick if it is at or
            // inside the bound (a bucket *at* the bound may still hold
            // same-tick events below `bound.1`), else park the base there.
            match self.overflow.first_key_value() {
                Some((&at, _)) if at <= bound.0 => {
                    self.base = at;
                    self.migrate_overflow();
                }
                _ => {
                    self.base = bound.0;
                    return None;
                }
            }
        }
    }

    /// Dequeues the earliest event below `bound` of this queue and `lane`
    /// merged by `(at, seq)`; a lane item becomes a `T` through `wrap`. The
    /// queue is only ever drained up to the lane's head, so the base never
    /// passes the head's tick and whatever handling the head schedules
    /// (a delivery at `head.at + delay`) is still a legal push.
    pub fn pop_merged<L>(
        &mut self,
        lane: &mut Lane<L>,
        bound: (u64, u64),
        wrap: impl FnOnce(L) -> T,
    ) -> Option<(u64, u64, T)> {
        let head = lane.front().map(|&(at, seq, _)| (at, seq));
        let head = head.filter(|&head| head < bound);
        if let Some(event) = self.pop_before(head.unwrap_or(bound)) {
            return Some(event);
        }
        head?;
        let (at, seq, item) = lane.pop_front()?;
        Some((at, seq, wrap(item)))
    }

    /// Dequeues the earliest event as `(at, seq, item)`, in `(at, seq)`
    /// order.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(front) = self.ring.front_mut() {
                if let Some((seq, item)) = front.pop_front() {
                    self.len -= 1;
                    return Some((self.base, seq, item));
                }
                // Bucket exhausted: recycle it and advance one tick.
                let spent = self.ring.pop_front().expect("front exists");
                self.pool.push(spent);
                self.base += 1;
                self.migrate_overflow();
                continue;
            }
            // Ring empty: jump straight to the first overflow tick.
            let (&at, _) = self
                .overflow
                .first_key_value()
                .expect("len > 0 with an empty ring means overflow has events");
            self.base = at;
            self.migrate_overflow();
        }
    }

    /// Moves overflow buckets whose tick entered the ring window into the
    /// ring. Buckets move wholesale — they are already `seq`-sorted, and
    /// ring slots for overflow ticks are empty by construction (events for
    /// those ticks kept landing in the overflow until now).
    fn migrate_overflow(&mut self) {
        while let Some((&at, _)) = self.overflow.first_key_value() {
            if at >= self.base + WINDOW {
                break;
            }
            let bucket = self.overflow.remove(&at).expect("first key exists");
            let offset = (at - self.base) as usize;
            self.grow_ring_to(offset);
            debug_assert!(
                self.ring[offset].is_empty(),
                "ring and overflow must stay disjoint"
            );
            let empty = std::mem::replace(&mut self.ring[offset], bucket);
            self.pool.push(empty);
        }
    }

    /// Keeps only the events for which `keep` returns `true`, preserving
    /// `(at, seq)` order. Removed events are handed to `drop_fn` in
    /// `(at, seq)` order together with their tick. Buckets are filtered
    /// through pooled scratch storage — one element move per event, no
    /// queue rebuild. This is the crash-session drain: the old engine
    /// `mem::take`-and-re-pushed its entire heap here.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool, mut drop_fn: impl FnMut(u64, T)) {
        let len = &mut self.len;
        let pool = &mut self.pool;
        let mut filter = |bucket: &mut Bucket<T>, at: u64| {
            if bucket.is_empty() {
                return;
            }
            let mut old = std::mem::replace(bucket, Self::fresh_bucket(pool));
            for (seq, item) in old.drain(..) {
                if keep(&item) {
                    bucket.push_back((seq, item));
                } else {
                    *len -= 1;
                    drop_fn(at, item);
                }
            }
            // The drained storage goes back to the pool: repeated crash
            // sessions reuse the same buffers instead of churning them.
            pool.push(old);
        };
        for (offset, bucket) in self.ring.iter_mut().enumerate() {
            filter(bucket, self.base + offset as u64);
        }
        for (&at, bucket) in self.overflow.iter_mut() {
            filter(bucket, at);
        }
        // Ticks whose overflow bucket emptied out are dropped (their
        // storage is recycled when `filter` replaced them — the emptied
        // originals were consumed above).
        let emptied: Vec<u64> = self
            .overflow
            .iter()
            .filter(|(_, b)| b.is_empty())
            .map(|(&at, _)| at)
            .collect();
        for at in emptied {
            if let Some(bucket) = self.overflow.remove(&at) {
                self.pool.push(bucket);
            }
        }
    }
}

#[cfg(test)]
mod equivalence {
    //! The bucket queue — alone, and merged with an ordered lane — must pop
    //! events in exactly the `(at, seq)` order of the
    //! `BinaryHeap<Reverse<…>>` it replaced, under arbitrary interleaved
    //! pushes, pops and crash-style retains.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::{BucketQueue, Lane};
    use crate::SimEnv;

    /// One scripted step: numbers map onto the currently legal moves.
    #[derive(Debug, Clone, Copy)]
    struct Op {
        kind: u8,
        delay: u64,
        payload: u8,
    }

    fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            (0u8..8, 0u64..2500, 0u8..4).prop_map(|(kind, delay, payload)| Op {
                kind,
                delay,
                payload,
            }),
            1..max,
        )
    }

    type Heap = BinaryHeap<Reverse<(u64, u64, u8)>>;

    /// Drops payload class `doomed` from the reference heap; returns the
    /// drops as `(at, payload)` in the `(at, seq)` order `retain` reports.
    fn heap_retain(heap: &mut Heap, doomed: u8) -> Vec<(u64, u8)> {
        let (mut dropped, kept): (Vec<_>, Vec<_>) =
            heap.drain().partition(|Reverse((_, _, p))| *p == doomed);
        heap.extend(kept);
        dropped.sort_unstable_by_key(|&Reverse(key)| key);
        let drops = dropped.into_iter().map(|Reverse((at, _, p))| (at, p));
        drops.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pops_match_binary_heap_reference(script in ops(120)) {
            let mut bucket: BucketQueue<u8> = BucketQueue::new();
            let mut heap = Heap::new();
            let mut time = 0u64;
            let mut seq = 1u64;
            for op in script {
                match op.kind {
                    // Push (weighted: most ops are pushes, spanning the
                    // ring window and the overflow).
                    0..=4 => {
                        let at = time + op.delay;
                        bucket.push(at, seq, op.payload);
                        heap.push(Reverse((at, seq, op.payload)));
                        seq += 1;
                    }
                    // Pop from both; results must agree exactly.
                    5..=6 => {
                        let expected = heap.pop().map(|Reverse(e)| e);
                        let got = bucket.pop();
                        prop_assert_eq!(got, expected);
                        if let Some((at, _, _)) = got {
                            time = time.max(at);
                        }
                    }
                    // Crash-style retain: drop one payload class from both.
                    _ => {
                        let mut dropped = Vec::new();
                        bucket.retain(|&p| p != op.payload, |at, p| dropped.push((at, p)));
                        prop_assert_eq!(dropped, heap_retain(&mut heap, op.payload));
                    }
                }
            }
            // Drain the tails; they must agree to the last event.
            loop {
                let expected = heap.pop().map(|Reverse(e)| e);
                let got = bucket.pop();
                prop_assert_eq!(got, expected);
                if got.is_none() {
                    break;
                }
            }
        }

        /// A preloaded key-ordered lane merged with the queue — the way the
        /// engine runs: ops wait in the lane, whatever handling them
        /// schedules at `now + delay` is queued, crashes cancel queued
        /// events only — pops in the order of one heap holding everything.
        #[test]
        fn lane_merge_matches_binary_heap_reference(
            preloaded in prop::collection::vec((0u64..40, 0u8..4), 0..60),
            script in ops(120),
        ) {
            // Lane payloads sit in a class of their own: a cancel never
            // matches them, as the engine's never matches an op.
            const LANE: u8 = 100;
            let mut env: SimEnv<u8> = SimEnv::new(0);
            let mut heap = Heap::new();
            let mut seq = 0u64;
            let mut at = 0u64;
            let mut lane = Lane::new();
            for (gap, payload) in preloaded {
                at += gap;
                let stamp = env.next_seq();
                prop_assert_eq!(stamp, seq);
                lane.push_back((at, stamp, LANE + payload));
                heap.push(Reverse((at, seq, LANE + payload)));
                seq += 1;
            }
            prop_assert_eq!(env.pending(), 0);
            for op in script {
                match op.kind {
                    0..=3 => {
                        let at = env.now() + op.delay;
                        env.schedule(at, op.payload);
                        heap.push(Reverse((at, seq, op.payload)));
                        seq += 1;
                    }
                    4..=6 => {
                        let expected = heap.pop().map(|Reverse(e)| e);
                        prop_assert_eq!(env.pop_merged(&mut lane, |p| p), expected);
                    }
                    _ => {
                        let mut dropped = Vec::new();
                        env.cancel(|&p| p != op.payload, |at, p| dropped.push((at, p)));
                        prop_assert_eq!(dropped, heap_retain(&mut heap, op.payload));
                    }
                }
            }
            loop {
                let expected = heap.pop().map(|Reverse(e)| e);
                let got = env.pop_merged(&mut lane, |p| p);
                prop_assert_eq!(got, expected);
                if got.is_none() {
                    break;
                }
            }
        }

        /// The shard-queue pair `insert` + `pop_before` drains, window by
        /// window, exactly the events below each bound in `(at, seq)`
        /// order — matching a sorted reference under arbitrary
        /// (non-monotonic-seq) insertions between windows.
        #[test]
        fn windowed_drain_matches_sorted_reference(
            windows in prop::collection::vec(
                (
                    prop::collection::vec((0u64..2500, 0u64..u64::MAX), 0..20),
                    1u64..2000,
                    0u64..u64::MAX,
                ),
                1..12,
            ),
        ) {
            let mut queue: BucketQueue<u64> = BucketQueue::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut bound = (0u64, 0u64);
            let mut unique = 0u64;
            for (inserts, bound_delay, bound_seq) in windows {
                for (delay, seq_salt) in inserts {
                    let at = bound.0 + delay;
                    // Mix a counter in to keep seqs unique while leaving
                    // their relative order arbitrary.
                    let seq = (seq_salt / 2) ^ unique;
                    unique += 1;
                    if (at, seq) < bound {
                        continue; // a barrier never delivers into the past
                    }
                    queue.insert(at, seq, seq);
                    heap.push(Reverse((at, seq, seq)));
                }
                bound = (bound.0 + bound_delay, bound_seq);
                loop {
                    let expected = match heap.peek() {
                        Some(&Reverse((at, seq, _))) if (at, seq) < bound => {
                            heap.pop().map(|Reverse(e)| e)
                        }
                        _ => None,
                    };
                    let got = queue.pop_before(bound);
                    prop_assert_eq!(got, expected);
                    if got.is_none() {
                        break;
                    }
                }
            }
            // Final drain: everything left pops in order.
            loop {
                let expected = heap.pop().map(|Reverse(e)| e);
                let got = queue.pop_before((u64::MAX, u64::MAX));
                prop_assert_eq!(got, expected);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut BucketQueue<T>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn pops_in_at_seq_order() {
        let mut q = BucketQueue::new();
        q.push(5, 1, "a");
        q.push(3, 2, "b");
        q.push(5, 3, "c");
        q.push(3, 4, "d");
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q), vec![(3, 2), (3, 4), (5, 1), (5, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q: BucketQueue<u8> = BucketQueue::new();
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_at_current_tick_while_draining() {
        let mut q = BucketQueue::new();
        q.push(10, 1, ());
        let (at, _, ()) = q.pop().expect("queued");
        assert_eq!(at, 10);
        // Delay-zero push onto the tick being processed pops next.
        q.push(10, 2, ());
        q.push(11, 3, ());
        assert_eq!(drain(&mut q), vec![(10, 2), (11, 3)]);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = BucketQueue::new();
        q.push(0, 1, "now");
        q.push(WINDOW * 3, 2, "later");
        q.push(WINDOW * 3 + 1, 3, "latest");
        assert_eq!(
            drain(&mut q),
            vec![(0, 1), (WINDOW * 3, 2), (WINDOW * 3 + 1, 3)]
        );
    }

    #[test]
    fn overflow_tick_jump_skips_idle_ticks() {
        let mut q = BucketQueue::new();
        q.push(WINDOW * 10, 1, ());
        // One pop must not walk WINDOW*10 ring slots; it jumps.
        assert_eq!(
            q.pop().map(|(at, seq, _)| (at, seq)),
            Some((WINDOW * 10, 1))
        );
    }

    #[test]
    fn retain_drops_in_order_and_preserves_the_rest() {
        let mut q = BucketQueue::new();
        q.push(1, 1, 10);
        q.push(1, 2, 11);
        q.push(2, 3, 10);
        q.push(WINDOW + 5, 4, 11);
        q.push(WINDOW + 5, 5, 10);
        let mut dropped = Vec::new();
        q.retain(|&v| v == 10, |at, v| dropped.push((at, v)));
        assert_eq!(dropped, vec![(1, 11), (WINDOW + 5, 11)]);
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q), vec![(1, 1), (2, 3), (WINDOW + 5, 5)]);
    }

    #[test]
    fn retain_on_partially_consumed_tick() {
        let mut q = BucketQueue::new();
        q.push(0, 1, 1);
        q.push(0, 2, 2);
        q.push(0, 3, 3);
        assert_eq!(q.pop().map(|(_, s, _)| s), Some(1));
        let mut dropped = Vec::new();
        q.retain(|&v| v != 2, |_, v| dropped.push(v));
        assert_eq!(dropped, vec![2]);
        assert_eq!(drain(&mut q), vec![(0, 3)]);
    }

    #[test]
    fn insert_orders_within_a_tick_by_seq() {
        let mut q = BucketQueue::new();
        q.insert(4, 30, "c");
        q.insert(4, 10, "a");
        q.insert(4, 20, "b");
        q.insert(2, 99, "z");
        assert_eq!(drain(&mut q), vec![(2, 99), (4, 10), (4, 20), (4, 30)]);
    }

    #[test]
    fn pop_before_stops_at_the_bound() {
        let mut q = BucketQueue::new();
        q.insert(1, 5, ());
        q.insert(3, 2, ());
        q.insert(3, 9, ());
        q.insert(4, 1, ());
        // Bound (3, 7): pops (1,5) and (3,2); (3,9) and (4,1) stay.
        assert_eq!(q.pop_before((3, 7)).map(|(a, s, _)| (a, s)), Some((1, 5)));
        assert_eq!(q.pop_before((3, 7)).map(|(a, s, _)| (a, s)), Some((3, 2)));
        assert_eq!(q.pop_before((3, 7)), None);
        assert_eq!(q.len(), 2);
        // A cross-shard delivery landing exactly at the bound is legal.
        q.insert(3, 7, ());
        assert_eq!(drain(&mut q), vec![(3, 7), (3, 9), (4, 1)]);
    }

    #[test]
    fn pop_before_reaches_overflow_events_at_the_bound_tick() {
        let mut q = BucketQueue::new();
        let far = WINDOW * 2; // lives in the overflow, ring empty
        q.insert(far, 3, ());
        q.insert(far, 9, ());
        assert_eq!(
            q.pop_before((far, 9)).map(|(a, s, _)| (a, s)),
            Some((far, 3))
        );
        assert_eq!(q.pop_before((far, 9)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_before_parks_the_base_for_later_inserts() {
        let mut q = BucketQueue::new();
        q.insert(2, 1, ());
        assert_eq!(q.pop_before((10, 0)).map(|(a, s, _)| (a, s)), Some((2, 1)));
        assert_eq!(q.pop_before((10, 0)), None);
        // The base parked at 10, not beyond: tick-10 inserts still work.
        q.insert(10, 2, ());
        q.insert(12, 3, ());
        assert_eq!(drain(&mut q), vec![(10, 2), (12, 3)]);
    }

    #[test]
    fn buckets_are_recycled() {
        let mut q = BucketQueue::new();
        for round in 0..100u64 {
            q.push(round * 3, round * 2 + 1, ());
            q.push(round * 3 + 1, round * 2 + 2, ());
            let _ = q.pop();
            let _ = q.pop();
        }
        assert!(q.is_empty());
        // The pool keeps bucket allocations bounded regardless of rounds.
        assert!(q.pool.len() <= 8, "pool grew to {}", q.pool.len());
    }
}
