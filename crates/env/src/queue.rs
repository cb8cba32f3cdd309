//! The event queue of the discrete-event engine: a binary heap over
//! `(at, seq)` keys.
//!
//! It holds what a run creates *while it executes* — deliveries and
//! control rounds, about one event in flight at a time on `sim-dense`
//! (0.8 sends per op × a 10.5-tick mean delay ÷ 10 ticks per op). The part
//! of a run whose final `(at, seq)` order is known before it starts (the
//! application op stream) stays out of it, in an ordered [`Lane`] that
//! [`pop_merged`](EventQueue::pop_merged) merges with the queue by key —
//! dslab's `ordered_events` beside the `BinaryHeap` of the events a run
//! creates (SNIPPETS.md). A crash session's
//! [`retain`](EventQueue::retain) therefore visits the handful of events in
//! flight, never the ops still to come.
//!
//! Why a heap: until PR 13 the whole op stream sat in this queue, and a
//! ring of per-tick buckets made its push and pop O(1) for that load. With
//! the ops in the lane only a handful of events remain, a ring walks every
//! idle tick between them (nine in ten on `sim-dense`), and a heap of a few
//! entries costs a few comparisons per operation whatever the spacing of
//! the ticks. Ordering by the whole key also lets the one
//! [`push`](EventQueue::push) take keys in any `seq` order, as the shard
//! worker's cross-shard deliveries arrive.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// The ordered lane beside an [`EventQueue`]: events whose `(at, seq, item)`
/// keys were all known up front, in key order, consumed from the front.
pub type Lane<L> = VecDeque<(u64, u64, L)>;

/// A queued event, ordered by its `(at, seq)` key alone and in reverse, so
/// that the max-heap [`BinaryHeap`] pops the earliest.
#[derive(Debug)]
struct Entry<T> {
    key: (u64, u64),
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A priority queue over unique `(at, seq)` keys for discrete-event
/// scheduling. Keys may arrive in any order, but `at` is never below the
/// tick of the most recently popped event (`assert`ed: a release run must
/// not reorder silently).
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Tick of the most recently popped event, the lane's included.
    now: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at tick 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Enqueues `item` at tick `at` with sequence number `seq`.
    ///
    /// # Panics
    ///
    /// If `at` is below the tick of the most recently popped event.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(Entry {
            key: (at, seq),
            item,
        });
    }

    /// Dequeues the earliest event as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let Entry { key, item } = self.heap.pop()?;
        self.now = key.0;
        Some((key.0, key.1, item))
    }

    /// Dequeues the earliest event whose `(at, seq)` key is strictly below
    /// `bound`, or `None` — consuming nothing at or past the bound, so
    /// later pushes at ticks `>= bound.0` (the earliest a
    /// conservative-lookahead window barrier can deliver) stay legal.
    pub fn pop_before(&mut self, bound: (u64, u64)) -> Option<(u64, u64, T)> {
        if self.heap.peek()?.key < bound {
            self.pop()
        } else {
            None
        }
    }

    /// Dequeues the earliest event of this queue and `lane` merged by
    /// `(at, seq)`; a lane item becomes a `T` through `wrap`.
    pub fn pop_merged<L>(
        &mut self,
        lane: &mut Lane<L>,
        wrap: impl FnOnce(L) -> T,
    ) -> Option<(u64, u64, T)> {
        let Some(&(at, seq, _)) = lane.front() else {
            return self.pop();
        };
        if let Some(event) = self.pop_before((at, seq)) {
            return Some(event);
        }
        let (at, seq, item) = lane.pop_front()?;
        self.now = at;
        Some((at, seq, wrap(item)))
    }

    /// Drops every queued event: a crash loses every message in transit.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Keeps only the events for which `keep` returns `true`. Removed
    /// events are handed to `drop_fn` with their tick, in `(at, seq)`
    /// order. The crash-session drain: one pass splits the heap's vector
    /// into kept and dropped items in place, only the dropped ones are
    /// sorted, and the kept ones are re-heapified in O(kept) — no
    /// allocation, no sort of the whole queue.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool, mut drop_fn: impl FnMut(u64, T)) {
        let mut items = std::mem::take(&mut self.heap).into_vec();
        let mut kept = 0;
        for i in 0..items.len() {
            if keep(&items[i].item) {
                items.swap(kept, i);
                kept += 1;
            }
        }
        items[kept..].sort_unstable_by_key(|entry| entry.key);
        for Entry { key, item } in items.drain(kept..) {
            drop_fn(key.0, item);
        }
        self.heap = BinaryHeap::from(items);
    }
}

#[cfg(test)]
mod equivalence {
    //! The queue — alone, and merged with an ordered lane — must pop events
    //! in exactly `(at, seq)` order under arbitrary interleaved pushes,
    //! pops and crash-style retains. The reference is no heap: a plain
    //! vector scanned for its least key.

    use proptest::prelude::*;

    use super::{EventQueue, Lane};
    use crate::SimEnv;

    /// One scripted step: numbers map onto the currently legal moves.
    #[derive(Debug, Clone, Copy)]
    struct Op {
        kind: u8,
        delay: u64,
        payload: u8,
    }

    /// A delay: mostly short, as channel delays and op spacing are, or a
    /// gap of up to 10⁹ ticks.
    fn delay() -> impl Strategy<Value = u64> {
        (0u8..5, 0u64..2500, 0u64..=1_000_000_000)
            .prop_map(|(pick, short, long)| if pick == 0 { long } else { short })
    }

    fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            (0u8..8, delay(), 0u8..4).prop_map(|(kind, delay, payload)| Op {
                kind,
                delay,
                payload,
            }),
            1..max,
        )
    }

    /// The reference queue: `(at, seq, payload)` in arrival order.
    #[derive(Default)]
    struct Scan<P>(Vec<(u64, u64, P)>);

    impl<P: Copy + PartialEq> Scan<P> {
        fn push(&mut self, at: u64, seq: u64, payload: P) {
            self.0.push((at, seq, payload));
        }

        /// Removes the entry with the least key among those `pick` accepts.
        fn take_min(&mut self, pick: impl Fn(&(u64, u64, P)) -> bool) -> Option<(u64, u64, P)> {
            let entries = self.0.iter().enumerate();
            let (i, _) = entries
                .filter(|(_, e)| pick(e))
                .min_by_key(|(_, e)| (e.0, e.1))?;
            Some(self.0.remove(i))
        }

        fn pop_before(&mut self, bound: (u64, u64)) -> Option<(u64, u64, P)> {
            self.take_min(|&(at, seq, _)| (at, seq) < bound)
        }

        fn pop(&mut self) -> Option<(u64, u64, P)> {
            self.take_min(|_| true)
        }

        /// Drops payload class `doomed`; returns the drops as
        /// `(at, payload)` in the `(at, seq)` order `retain` reports.
        fn cancel(&mut self, doomed: P) -> Vec<(u64, P)> {
            std::iter::from_fn(|| self.take_min(|e| e.2 == doomed))
                .map(|(at, _, p)| (at, p))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pops_match_min_scan_reference(script in ops(120)) {
            let mut queue: EventQueue<u8> = EventQueue::new();
            let mut scan = Scan::default();
            let mut time = 0u64;
            let mut seq = 1u64;
            for op in script {
                match op.kind {
                    // Push (weighted: most ops are pushes).
                    0..=4 => {
                        let at = time + op.delay;
                        queue.push(at, seq, op.payload);
                        scan.push(at, seq, op.payload);
                        seq += 1;
                    }
                    // Pop from both; results must agree exactly.
                    5..=6 => {
                        let got = queue.pop();
                        prop_assert_eq!(got, scan.pop());
                        if let Some((at, _, _)) = got {
                            time = time.max(at);
                        }
                    }
                    // Crash-style retain: drop one payload class from both.
                    _ => {
                        let mut dropped = Vec::new();
                        queue.retain(|&p| p != op.payload, |at, p| dropped.push((at, p)));
                        prop_assert_eq!(dropped, scan.cancel(op.payload));
                        prop_assert_eq!(queue.len(), scan.0.len());
                    }
                }
            }
            // Drain the tails; they must agree to the last event.
            loop {
                let got = queue.pop();
                prop_assert_eq!(got, scan.pop());
                if got.is_none() {
                    break;
                }
            }
        }

        /// A preloaded key-ordered lane merged with the queue — the way the
        /// engine runs: ops wait in the lane, whatever handling them
        /// schedules at `now + delay` is queued, crashes cancel queued
        /// events only — pops in the order of one reference holding
        /// everything.
        #[test]
        fn lane_merge_matches_min_scan_reference(
            preloaded in prop::collection::vec((0u64..40, 0u8..4), 0..60),
            script in ops(120),
        ) {
            // Lane payloads sit in a class of their own: a cancel never
            // matches them, as the engine's never matches an op.
            const LANE: u8 = 100;
            let mut env: SimEnv<u8> = SimEnv::new(0);
            let mut scan = Scan::default();
            let mut seq = 0u64;
            let mut at = 0u64;
            let mut lane = Lane::new();
            for (gap, payload) in preloaded {
                at += gap;
                let stamp = env.next_seq();
                prop_assert_eq!(stamp, seq);
                lane.push_back((at, stamp, LANE + payload));
                scan.push(at, seq, LANE + payload);
                seq += 1;
            }
            prop_assert_eq!(env.pending(), 0);
            for op in script {
                match op.kind {
                    0..=3 => {
                        let at = env.now() + op.delay;
                        env.schedule(at, op.payload);
                        scan.push(at, seq, op.payload);
                        seq += 1;
                    }
                    4..=6 => {
                        prop_assert_eq!(env.pop_merged(&mut lane, |p| p), scan.pop());
                    }
                    _ => {
                        let mut dropped = Vec::new();
                        env.cancel(|&p| p != op.payload, |at, p| dropped.push((at, p)));
                        prop_assert_eq!(dropped, scan.cancel(op.payload));
                    }
                }
            }
            loop {
                let got = env.pop_merged(&mut lane, |p| p);
                prop_assert_eq!(got, scan.pop());
                if got.is_none() {
                    break;
                }
            }
        }

        /// The shard-queue pair `push` + `pop_before` drains, window by
        /// window, exactly the events below each bound in `(at, seq)`
        /// order — under pushes in arbitrary `seq` order between windows,
        /// among them runs of same-tick pushes in *descending* `seq` order
        /// (the worker's cross-shard case) and gaps of up to 10⁹ ticks.
        #[test]
        fn windowed_drain_matches_sorted_reference(
            windows in prop::collection::vec(
                (
                    prop::collection::vec((delay(), 0u64..u64::MAX, 1usize..5), 0..20),
                    delay().prop_map(|d| d + 1),
                    0u64..u64::MAX,
                ),
                1..12,
            ),
        ) {
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut scan = Scan::default();
            let mut bound = (0u64, 0u64);
            let mut unique = 0u64;
            for (pushes, bound_delay, bound_seq) in windows {
                for (delay, seq_salt, run) in pushes {
                    let at = bound.0 + delay;
                    // Random high bits leave the order across pushes
                    // arbitrary; a counter in the low bits keeps seqs
                    // unique, and is spent backwards within a run so its
                    // same-tick seqs descend.
                    let first = unique;
                    unique += run as u64;
                    for low in (first..unique).rev() {
                        let seq = (seq_salt & !0xfff) | low;
                        if (at, seq) < bound {
                            continue; // a barrier never delivers into the past
                        }
                        queue.push(at, seq, seq);
                        scan.push(at, seq, seq);
                    }
                }
                bound = (bound.0 + bound_delay, bound_seq);
                loop {
                    let got = queue.pop_before(bound);
                    prop_assert_eq!(got, scan.pop_before(bound));
                    if got.is_none() {
                        break;
                    }
                }
            }
            // Final drain: everything left pops in order.
            loop {
                let got = queue.pop_before((u64::MAX, u64::MAX));
                prop_assert_eq!(got, scan.pop());
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

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at, seq));
        }
        out
    }

    /// Far enough ahead that no short-horizon structure would hold it.
    const FAR: u64 = 1_000_000_000;

    #[test]
    fn pops_in_at_seq_order() {
        let mut q = EventQueue::new();
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
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_at_current_tick_while_draining() {
        let mut q = EventQueue::new();
        q.push(10, 1, ());
        let (at, _, ()) = q.pop().expect("queued");
        assert_eq!(at, 10);
        // Delay-zero push onto the tick being processed pops next.
        q.push(10, 2, ());
        q.push(11, 3, ());
        assert_eq!(drain(&mut q), vec![(10, 2), (11, 3)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, 1, ());
        q.push(12, 2, ());
        let _ = q.pop();
        q.push(9, 3, ());
    }

    #[test]
    fn retain_drops_in_order_and_preserves_the_rest() {
        let mut q = EventQueue::new();
        q.push(1, 1, 10);
        q.push(1, 2, 11);
        q.push(2, 3, 10);
        q.push(FAR + 5, 4, 11);
        q.push(FAR + 5, 5, 10);
        let mut dropped = Vec::new();
        q.retain(|&v| v == 10, |at, v| dropped.push((at, v)));
        assert_eq!(dropped, vec![(1, 11), (FAR + 5, 11)]);
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q), vec![(1, 1), (2, 3), (FAR + 5, 5)]);
    }

    #[test]
    fn retain_on_partially_consumed_tick() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        q.push(4, 30, "c");
        q.push(4, 10, "a");
        q.push(4, 20, "b");
        q.push(2, 99, "z");
        assert_eq!(drain(&mut q), vec![(2, 99), (4, 10), (4, 20), (4, 30)]);
    }

    #[test]
    fn pop_before_stops_at_the_bound() {
        let mut q = EventQueue::new();
        q.push(1, 5, ());
        q.push(3, 2, ());
        q.push(3, 9, ());
        q.push(4, 1, ());
        // Bound (3, 7): pops (1,5) and (3,2); (3,9) and (4,1) stay.
        assert_eq!(q.pop_before((3, 7)).map(|(a, s, _)| (a, s)), Some((1, 5)));
        assert_eq!(q.pop_before((3, 7)).map(|(a, s, _)| (a, s)), Some((3, 2)));
        assert_eq!(q.pop_before((3, 7)), None);
        assert_eq!(q.len(), 2);
        // A cross-shard delivery landing exactly at the bound is legal.
        q.push(3, 7, ());
        assert_eq!(drain(&mut q), vec![(3, 7), (3, 9), (4, 1)]);
    }

    /// Same-tick events far ahead of everything popped so far: the bound's
    /// own tick still yields those with a smaller `seq`.
    #[test]
    fn pop_before_reaches_overflow_events_at_the_bound_tick() {
        let mut q = EventQueue::new();
        q.push(FAR, 3, ());
        q.push(FAR, 9, ());
        assert_eq!(
            q.pop_before((FAR, 9)).map(|(a, s, _)| (a, s)),
            Some((FAR, 3))
        );
        assert_eq!(q.pop_before((FAR, 9)), None);
        assert_eq!(q.len(), 1);
    }

    /// A drained window leaves the bound's tick open: pushes at it (the
    /// earliest a barrier delivers) are legal.
    #[test]
    fn pop_before_parks_the_base_for_later_inserts() {
        let mut q = EventQueue::new();
        q.push(2, 1, ());
        assert_eq!(q.pop_before((10, 0)).map(|(a, s, _)| (a, s)), Some((2, 1)));
        assert_eq!(q.pop_before((10, 0)), None);
        q.push(10, 2, ());
        q.push(12, 3, ());
        assert_eq!(drain(&mut q), vec![(10, 2), (12, 3)]);
    }
}
