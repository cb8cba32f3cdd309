//! Runtime-environment abstraction for the RDT checkpointing stack.
//!
//! The paper defines the middleware independently of any simulator; this
//! crate makes the code match. Everything the protocol layer needs from
//! "the outside world" is narrowed to three trait capabilities:
//!
//! * [`Rng`] — the two random draws the drivers actually make
//!   (Bernoulli trials and inclusive uniform ranges);
//! * [`Transport`] — framed, unreliable, unordered message exchange,
//!   between real processes ([`UdsTransport`]) or threads and in-process
//!   tests ([`ChannelTransport`]);
//! * [`Storage`] — the durability sink a middleware commits its
//!   checkpoint store and incarnation WAL into ([`Volatile`] here; the
//!   durable `DiskSink` lives in `rdt-storage`, since durability depends
//!   on crates above this one).
//!
//! The simulated runtime is one bundle, [`SimEnv`]: a deterministic
//! [`VirtualClock`] over a binary-heap event queue of what is in flight,
//! plus a seeded generator; a run's pre-planned events merge in from an
//! ordered [`Lane`] beside it. Fixed-seed runs are replay-golden: the
//! discrete-event engine draws through this bundle in exactly the order it
//! always did, so goldens stay byte-identical. [`ShardEnv`] is its
//! generator-less slice for one shard. A live process needs no bundle:
//! `rdt_sim::LiveWorker` takes a transport, a sink and a seed, and is
//! handed its tick by whoever steps it.
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

pub use clock::VirtualClock;
pub use queue::{EventQueue, Lane};
pub use rng::{DetRng, Rng};
pub use shard::ShardEnv;
pub use sim::SimEnv;
pub use storage::{Storage, Volatile};
pub use transport::{ChannelTransport, Transport, UdsTransport};
pub use wire::WireFrame;
