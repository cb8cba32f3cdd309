//! Runtime-environment abstraction for the RDT checkpointing stack.
//!
//! The paper defines the middleware independently of any simulator; this
//! crate makes the code match. Everything the protocol layer needs from
//! "the outside world" is narrowed to four trait capabilities:
//!
//! * [`Clock`] — a monotone source of ticks;
//! * [`Rng`] — the two random draws the drivers actually make
//!   (Bernoulli trials and inclusive uniform ranges);
//! * [`Transport`] — framed, unreliable, unordered message exchange;
//! * [`Storage`] — the durability sink a middleware commits its
//!   checkpoint store and incarnation WAL into.
//!
//! Two bundles implement them:
//!
//! * [`SimEnv`] — deterministic virtual clock over a binary-heap event
//!   queue of what is in flight, plus a seeded generator; a run's
//!   pre-planned events merge in from an ordered [`Lane`] beside it.
//!   Fixed-seed runs are replay-golden:
//!   the discrete-event engine draws through this bundle in exactly the
//!   order it always did, so goldens stay byte-identical.
//! * [`RealEnv`] — a monotonic OS clock, an entropy-seeded generator and
//!   a Unix-domain-socket loopback transport for N real processes. The
//!   matching durable [`Storage`] implementation lives in `rdt-storage`
//!   (`DiskSink`), since durability depends on crates above this one.
//!
//! The [`wire`] module carries piggybacked dependency vectors between real
//! processes in a checksummed frame; [`queue`] holds the event queue the
//! simulated environment schedules through.

#![forbid(unsafe_code)]

pub mod clock;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod storage;
pub mod transport;
pub mod wire;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use queue::{EventQueue, Lane};
pub use rng::{DetRng, Rng};
pub use shard::ShardEnv;
pub use sim::SimEnv;
pub use storage::{Storage, Volatile};
pub use transport::{ChannelTransport, Transport, UdsTransport};
pub use wire::WireFrame;

/// The real-runtime bundle: monotonic clock + entropy-seeded generator +
/// a caller-chosen transport. The durability half of a real environment
/// attaches to the middleware itself (see `rdt_storage::DiskSink`), so
/// this bundle stays below the storage crates in the dependency order.
#[derive(Debug)]
pub struct RealEnv<T: Transport> {
    /// Monotonic wall-clock ticks (microseconds since construction).
    pub clock: MonotonicClock,
    /// Seeded generator driving workload decisions.
    pub rng: DetRng,
    /// Loopback transport to the other processes.
    pub transport: T,
}

impl<T: Transport> RealEnv<T> {
    /// Bundles a transport with a fresh monotonic clock and a generator
    /// seeded from `seed` (pass an entropy-derived seed for production
    /// use, a fixed one for reproducible demos).
    pub fn new(seed: u64, transport: T) -> Self {
        Self {
            clock: MonotonicClock::new(),
            rng: DetRng::seeded(seed),
            transport,
        }
    }
}
