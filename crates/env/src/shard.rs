//! Per-shard slice of the simulated environment: a virtual clock over an
//! event queue, **without** a generator.
//!
//! The sharded engine draws every random decision in one planner on the
//! coordinator (so draw order cannot depend on shard interleaving), which
//! leaves a shard worker with exactly two needs: hold its processes'
//! deliveries in `(at, seq)` order, and advance a local clock as it
//! consumes them. Planned events reach the worker already key-ordered and
//! never enter the queue; deliveries do, local ones as they are sent and
//! cross-shard ones between windows, out of global sequence order. Every
//! key is the planner's, so this bundle has neither an rng nor a sequence
//! counter — which is why it is not a `SimEnv`.

use crate::clock::{Clock, VirtualClock};
use crate::queue::EventQueue;

/// Event queue + clock for one shard of a partitioned simulation.
///
/// All events carry the *global* `(at, seq)` keys assigned by the planner;
/// a worker drains the ones below each bound it reaches (its next planned
/// event, or a window's cut) through [`pop_before`](Self::pop_before).
#[derive(Debug, Default)]
pub struct ShardEnv<T> {
    clock: VirtualClock,
    queue: EventQueue<T>,
}

impl<T> ShardEnv<T> {
    /// An empty shard environment at tick 0.
    pub fn new() -> Self {
        Self {
            clock: VirtualClock::new(),
            queue: EventQueue::new(),
        }
    }

    /// The shard-local virtual time: the tick of the last popped event.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues `item` under its pre-assigned global key, in any `seq`
    /// order.
    pub fn insert(&mut self, at: u64, seq: u64, item: T) {
        self.queue.push(at, seq, item);
    }

    /// Pops the earliest queued event strictly below `bound`
    /// ([`EventQueue::pop_before`]) and advances the clock to it; `None`
    /// once nothing below the bound is left.
    pub fn pop_before(&mut self, bound: (u64, u64)) -> Option<(u64, u64, T)> {
        let (at, seq, item) = self.queue.pop_before(bound)?;
        self.clock.advance_to(at);
        Some((at, seq, item))
    }

    /// Drops every queued event, leaving the clock where it is.
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_follows_popped_events_within_windows() {
        let mut env: ShardEnv<&str> = ShardEnv::new();
        env.insert(9, 1, "b");
        env.insert(5, 3, "a");
        assert_eq!(env.now(), 0);
        assert_eq!(env.pop_before((5, 3)), None, "the bound is exclusive");
        assert_eq!(env.pop_before((9, 1)), Some((5, 3, "a")));
        assert_eq!(env.pop_before((9, 1)), None);
        assert_eq!(env.now(), 5, "an empty window leaves the clock alone");
        assert_eq!(env.pop_before((u64::MAX, u64::MAX)), Some((9, 1, "b")));
        assert_eq!(env.now(), 9);
        assert!(env.is_empty());
    }

    #[test]
    fn clear_drops_what_is_queued_and_keeps_the_clock() {
        let mut env: ShardEnv<u32> = ShardEnv::new();
        env.insert(4, 0, 1);
        assert_eq!(env.pop_before((5, 0)), Some((4, 0, 1)));
        env.insert(7, 2, 2);
        env.insert(6, 9, 3);
        env.clear();
        assert!(env.is_empty());
        assert_eq!(env.now(), 4);
        env.insert(6, 10, 4);
        assert_eq!(env.pop_before((u64::MAX, 0)), Some((6, 10, 4)));
    }
}
