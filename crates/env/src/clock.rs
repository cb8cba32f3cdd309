//! Virtual time: a monotone tick counter the simulation loop advances.
//!
//! Both simulated environments ([`SimEnv`](crate::SimEnv) and
//! [`ShardEnv`](crate::ShardEnv)) read their time off one; a live worker
//! is handed its tick by whoever steps it.

/// Deterministic virtual time: a counter the simulation loop advances as
/// it consumes events. Never moves on its own.
#[derive(Debug, Default, Clone, Copy)]
pub struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// A clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances to `at` if it is ahead; a lagging `at` leaves the clock
    /// untouched (time never rewinds, mirroring the old engine's
    /// `self.time = at.max(self.time)`).
    pub fn advance_to(&mut self, at: u64) {
        self.now = self.now.max(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_monotone() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        c.advance_to(10);
        assert_eq!(c.now(), 10);
        c.advance_to(4); // lagging event tick must not rewind time
        assert_eq!(c.now(), 10);
    }
}
