//! The library half of the `rdt` binary: the event-log merger that both
//! `rdt serve`'s oracle check and `rdt causal` read through, the verdict
//! `rdt serve`, the in-process worker oracle and `rdt torture` pass on a
//! run, the one restart from disk they share, the torture harness itself
//! and the line check `obs_check` runs — public so tests can drive them.

#![forbid(unsafe_code)]

pub mod check;
pub mod merge;
mod restart;
pub mod torture;
pub mod verdict;

pub use restart::restart;
