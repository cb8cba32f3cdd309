//! The simulated environment: virtual clock + event queue + seeded rng.
//!
//! `SimEnv` is exactly the scheduling core the discrete-event engine used
//! to carry inline — the same `(at, seq)` order, the same `seq` counter
//! semantics (starts at 0, increments after each push), the same
//! time-advance rule (`now = max(now, at)`), the same single `StdRng`
//! stream behind the [`Rng`](crate::Rng) trait. Moving it behind this
//! type is a relocation, not a behaviour change: fixed-seed runs through
//! `SimEnv` are byte-identical to the pre-refactor engine, which the
//! replay goldens in `rdt-sim` pin.

use crate::clock::{Clock, VirtualClock};
use crate::queue::{EventQueue, Lane};
use crate::rng::DetRng;

/// Deterministic simulated runtime: schedule events, pop them in
/// `(at, seq)` order, advance virtual time as they are consumed.
#[derive(Debug)]
pub struct SimEnv<T> {
    clock: VirtualClock,
    seq: u64,
    queue: EventQueue<T>,
    rng: DetRng,
}

impl<T> SimEnv<T> {
    /// A fresh environment at tick 0 whose rng stream is determined by
    /// `seed`. Callers that previously mixed a salt into the seed (the
    /// engine XORs `0x5eed_c0de`) pass the mixed value here.
    pub fn new(seed: u64) -> Self {
        Self {
            clock: VirtualClock::new(),
            seq: 0,
            queue: EventQueue::new(),
            rng: DetRng::seeded(seed),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Draws the next sequence number without enqueuing anything: the
    /// stamp of an event kept in an ordered [`Lane`] beside the queue.
    pub fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Draws `count` consecutive sequence numbers at once and returns the
    /// first: the stamps of a run of lane events that are produced later,
    /// block by block, yet keyed as if all had been stamped now.
    pub fn reserve_seqs(&mut self, count: u64) -> u64 {
        let first = self.seq;
        self.seq += count;
        first
    }

    /// Enqueues `item` at tick `at`, stamping it with the next sequence
    /// number (total order over equal ticks is push order), and returns
    /// that number: `(at, seq)` is the key the event will pop under.
    pub fn schedule(&mut self, at: u64, item: T) -> u64 {
        let seq = self.next_seq();
        self.queue.push(at, seq, item);
        seq
    }

    /// Dequeues the earliest event, advancing the clock to its tick
    /// (never backwards). Returns `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let (at, seq, item) = self.queue.pop()?;
        self.clock.advance_to(at);
        Some((at, seq, item))
    }

    /// Dequeues the earliest event of the queue and `lane` merged by
    /// `(at, seq)` ([`EventQueue::pop_merged`]), advancing the clock to
    /// its tick.
    pub fn pop_merged<L>(
        &mut self,
        lane: &mut Lane<L>,
        wrap: impl FnOnce(L) -> T,
    ) -> Option<(u64, u64, T)> {
        let event = self.queue.pop_merged(lane, wrap)?;
        self.clock.advance_to(event.0);
        Some(event)
    }

    /// In-place drain of scheduled events failing `keep`; dropped events
    /// are handed to `drop_fn` with their tick in `(at, seq)` order.
    /// This is the crash-session cancel path.
    pub fn cancel(&mut self, keep: impl FnMut(&T) -> bool, drop_fn: impl FnMut(u64, T)) {
        self.queue.retain(keep, drop_fn);
    }

    /// Number of scheduled, not-yet-delivered events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The environment's random stream (use through the
    /// [`Rng`](crate::Rng) trait so draw order stays explicit).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng as _;

    #[test]
    fn events_pop_in_at_seq_order_and_advance_time() {
        let mut env: SimEnv<&str> = SimEnv::new(7);
        env.schedule(5, "b");
        env.schedule(2, "a");
        assert_eq!(env.schedule(5, "c"), 2, "the stamp it pops under");
        assert_eq!(env.pending(), 3);
        assert_eq!(env.pop(), Some((2, 1, "a")));
        assert_eq!(env.now(), 2);
        assert_eq!(env.pop(), Some((5, 0, "b")));
        assert_eq!(env.pop(), Some((5, 2, "c")));
        assert_eq!(env.now(), 5);
        assert_eq!(env.pop(), None);
    }

    #[test]
    fn lane_events_merge_with_the_queue_by_key() {
        let mut env: SimEnv<&str> = SimEnv::new(7);
        let mut lane = Lane::new();
        for (at, item) in [(0, "op0"), (10, "op1"), (20, "op2")] {
            lane.push_back((at, env.next_seq(), item));
        }
        assert_eq!(env.pending(), 0, "a lane event takes no queue slot");
        assert_eq!(env.pop_merged(&mut lane, |op| op), Some((0, 0, "op0")));
        // Scheduled while op0 runs: lands between op1 and op2, and on
        // op1's own tick after it (later sequence number).
        env.schedule(env.now() + 15, "late");
        env.schedule(env.now() + 10, "tie");
        let order: Vec<_> = std::iter::from_fn(|| env.pop_merged(&mut lane, |op| op)).collect();
        assert_eq!(
            order,
            vec![
                (10, 1, "op1"),
                (10, 4, "tie"),
                (15, 3, "late"),
                (20, 2, "op2")
            ]
        );
        assert_eq!(env.now(), 20);
        // Spent lane, drained queue: the environment still takes events.
        env.schedule(env.now(), "after");
        assert_eq!(env.pop_merged(&mut lane, |op| op), Some((20, 5, "after")));
    }

    #[test]
    fn a_reserved_block_is_the_stamps_next_seq_would_have_drawn() {
        let mut env: SimEnv<&str> = SimEnv::new(7);
        env.schedule(3, "before");
        assert_eq!(env.reserve_seqs(5), 1);
        assert_eq!(env.reserve_seqs(0), 6);
        assert_eq!(env.next_seq(), 6);
        env.schedule(3, "after");
        assert_eq!(env.pop(), Some((3, 0, "before")));
        assert_eq!(env.pop(), Some((3, 7, "after")));
    }

    #[test]
    fn cancel_reports_drops_in_order() {
        let mut env: SimEnv<u8> = SimEnv::new(1);
        env.schedule(1, 10);
        env.schedule(2, 20);
        env.schedule(3, 10);
        let mut dropped = Vec::new();
        env.cancel(|&v| v != 10, |at, v| dropped.push((at, v)));
        assert_eq!(dropped, vec![(1, 10), (3, 10)]);
        assert_eq!(env.pending(), 1);
    }

    #[test]
    fn same_seed_same_draws() {
        let mut a: SimEnv<()> = SimEnv::new(42);
        let mut b: SimEnv<()> = SimEnv::new(42);
        for _ in 0..50 {
            assert_eq!(a.rng().chance(0.3), b.rng().chance(0.3));
            assert_eq!(a.rng().between(1, 9), b.rng().between(1, 9));
        }
    }
}
