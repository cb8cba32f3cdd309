//! Observability for the rdt stack: phase profiling, metrics exposition
//! and the process event log — offline and dependency-free like the rest
//! of the workspace.
//!
//! Three pieces:
//!
//! - **Profiling** ([`Profiler`], [`ProfileReport`], [`PhaseStats`]):
//!   scoped wall-clock timers, counters and fixed power-of-two latency
//!   histograms. Disabled profilers never read the clock; enabled ones
//!   observe around the deterministic core without touching RNG or event
//!   order, so replay goldens stay byte-identical with profiling on.
//! - **Exposition**: [`ProfileReport::to_json`] for run summaries,
//!   [`ProfileReport::to_prometheus`] / [`ProfileReport::from_prometheus`]
//!   for scrape-file dumps and coordinator-side re-aggregation, the
//!   [`json`] writer and parser, and the [`check`] module validating a
//!   trace's header, span and counter lines and `.prom` textfiles.
//! - **The event log** ([`flight`]): whole JSONL lines (a live node's
//!   trace lines), in the file the moment they are recorded, so a kill-9
//!   leaves the whole history behind.
//!
//! The events themselves — their one line shape and its one codec — are
//! `rdt_sim::TraceLine`'s. See `crates/obs/OBSERVABILITY.md` for the
//! operator-facing knobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod flight;
pub mod json;
pub mod profile;

pub use profile::{PhaseStats, ProfileReport, Profiler, HIST_BUCKETS};
