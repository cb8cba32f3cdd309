//! Per-shard slice of the simulated environment: a virtual clock over an
//! event queue, **without** a generator.
//!
//! The sharded engine pre-plans every random draw in a sequential planning
//! pass (so draw order cannot depend on shard interleaving), which leaves
//! a shard worker with exactly two needs: hold its processes' events in
//! `(at, seq)` order, and advance a local clock as it consumes them. The
//! planned events arrive already key-ordered and stay in a [`Lane`] beside
//! the queue; only deliveries are queued, local ones as they are sent and
//! cross-shard ones between windows, out of global sequence order. Every
//! key is the planning pass's, so this bundle has neither an rng nor a
//! sequence counter — which is why it is not a `SimEnv`.

use crate::clock::{Clock, VirtualClock};
use crate::queue::{EventQueue, Lane};

/// Event queue + clock for one shard of a partitioned simulation.
///
/// All events carry the *global* `(at, seq)` keys assigned by the planning
/// pass; a worker drains the ones it owns, strictly below each lookahead
/// bound, through [`pop_merged`](Self::pop_merged).
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

    /// Pops the earliest event strictly below `bound` of the queue and
    /// `lane` merged by key ([`EventQueue::pop_merged`]) and advances the
    /// clock to it; `None` once the window is drained.
    pub fn pop_merged<L>(
        &mut self,
        lane: &mut Lane<L>,
        bound: (u64, u64),
        wrap: impl FnOnce(L) -> T,
    ) -> Option<(u64, u64, T)> {
        let (at, seq, item) = self.queue.pop_merged(lane, bound, wrap)?;
        self.clock.advance_to(at);
        Some((at, seq, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_follows_popped_events_within_windows() {
        let mut env: ShardEnv<&str> = ShardEnv::new();
        let mut lane = Lane::from([(5, 2, "planned"), (9, 1, "b")]);
        env.insert(5, 3, "delivered");
        assert_eq!(env.now(), 0);
        assert_eq!(env.len(), 1, "planned events take no queue slot");
        let mut pop = |bound| env.pop_merged(&mut lane, bound, |ev| ev);
        assert_eq!(pop((9, 1)), Some((5, 2, "planned")));
        assert_eq!(pop((9, 1)), Some((5, 3, "delivered")));
        assert_eq!(pop((9, 1)), None);
        assert_eq!(env.now(), 5, "an empty window leaves the clock alone");
        assert_eq!(
            env.pop_merged(&mut lane, (u64::MAX, u64::MAX), |ev| ev),
            Some((9, 1, "b"))
        );
        assert_eq!(env.now(), 9);
        assert!(env.is_empty() && lane.is_empty());
    }
}
