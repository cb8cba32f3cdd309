//! Observability for the rdt stack: structured leveled events, phase
//! profiling, and metrics exposition — offline and dependency-free like the
//! rest of the workspace.
//!
//! Three pieces:
//!
//! - **Events** ([`event`], [`Event`], [`Sink`]): named, typed, leveled
//!   occurrences replacing ad-hoc `eprintln!` paths. One process-wide sink,
//!   defaulting to human-format stderr at `warn`; `RDT_LOG` adjusts the
//!   level, `RDT_LOG_JSONL=<path>` swaps in a line-oriented JSON sink, and
//!   tests install a [`CaptureSink`].
//! - **Profiling** ([`Profiler`], [`ProfileReport`], [`PhaseStats`]):
//!   scoped wall-clock timers, counters and fixed power-of-two latency
//!   histograms. Disabled profilers never read the clock; enabled ones
//!   observe around the deterministic core without touching RNG or event
//!   order, so replay goldens stay byte-identical with profiling on.
//! - **Exposition**: [`ProfileReport::to_json`] for run summaries,
//!   [`ProfileReport::to_prometheus`] / [`ProfileReport::from_prometheus`]
//!   for scrape-file dumps and coordinator-side re-aggregation, and the
//!   `obs_check` binary (backed by the [`check`] module) validating JSONL
//!   streams and `.prom` textfiles in CI.
//!
//! Plus the per-process [`flight`] event log: every recorded event, one
//! JSONL line each, in the file the moment it happens, so a kill-9 leaves
//! the whole history behind.
//! See `crates/obs/OBSERVABILITY.md` for the operator-facing knobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod event;
pub mod flight;
pub mod json;
pub mod profile;
pub mod sink;

pub use event::{Event, EventBuilder, Level, Value};
pub use profile::{PhaseStats, ProfileReport, Profiler, HIST_BUCKETS};
pub use sink::{CaptureSink, JsonlSink, Sink, StderrSink};

/// Starts building an event at `level`. Below the process threshold the
/// builder is inert (fields are not materialized, `emit` is a no-op).
pub fn event(level: Level, target: &'static str, name: &'static str) -> EventBuilder {
    EventBuilder::new(level, target, name)
}

/// [`event`] at [`Level::Debug`].
pub fn debug(target: &'static str, name: &'static str) -> EventBuilder {
    event(Level::Debug, target, name)
}

/// [`event`] at [`Level::Info`].
pub fn info(target: &'static str, name: &'static str) -> EventBuilder {
    event(Level::Info, target, name)
}

/// [`event`] at [`Level::Warn`].
pub fn warn(target: &'static str, name: &'static str) -> EventBuilder {
    event(Level::Warn, target, name)
}

/// [`event`] at [`Level::Error`].
pub fn error(target: &'static str, name: &'static str) -> EventBuilder {
    event(Level::Error, target, name)
}

/// Replaces the process-wide sink, returning the previous one. See
/// [`sink::set_sink`].
pub fn set_sink(sink: std::sync::Arc<dyn Sink>) -> std::sync::Arc<dyn Sink> {
    sink::set_sink(sink)
}

/// Sets the minimum level reaching the sink (`None` = off), overriding
/// `RDT_LOG`. See [`sink::set_level`].
pub fn set_level(level: Option<Level>) {
    sink::set_level(level)
}
