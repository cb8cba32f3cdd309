//! The library half of the `rdt` binary: the event-log merger that both
//! `rdt serve`'s oracle check and `rdt causal` read through, the verdict
//! `rdt serve` and the in-process worker oracle pass on a live run, and
//! the line check `obs_check` runs — public so tests can drive them over
//! the logs `LiveNode`s write.

#![forbid(unsafe_code)]

pub mod check;
pub mod merge;
pub mod verdict;
