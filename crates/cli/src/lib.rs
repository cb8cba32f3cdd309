//! The library half of the `rdt` binary: the event-log merger that both
//! `rdt serve`'s oracle check and `rdt causal` read through, public so
//! tests can drive it in-process over the logs `LiveNode`s write.

#![forbid(unsafe_code)]

pub mod merge;
