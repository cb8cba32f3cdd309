//! Pluggable event sinks and the process-wide dispatch state.
//!
//! Exactly one sink is active per process. The default is [`StderrSink`]
//! filtered at `warn`; both are overridable — by environment at first use
//! (`RDT_LOG` sets the level, `RDT_LOG_JSONL=<path>` swaps in a
//! [`JsonlSink`]) or programmatically via [`set_sink`] / [`set_level`]
//! (tests install a [`CaptureSink`]).

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::event::{Event, Level};

/// Receives every event that passes the level filter. Implementations must
/// be thread-safe: shard workers emit concurrently.
pub trait Sink: Send + Sync {
    /// Handles one event. Called after level filtering; implementations do
    /// not filter again.
    fn emit(&self, event: &Event);
}

/// Human-format sink: one [`Event`] display line per event on stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn emit(&self, event: &Event) {
        eprintln!("{event}");
    }
}

/// JSONL sink: one flat JSON object per line, appended to a file.
///
/// Each event is rendered to a complete line first and written with a single
/// `write_all` under a mutex, so lines from concurrent shard workers never
/// interleave. The file is opened in append mode, so multiple processes
/// (e.g. `rdt serve` workers) can share one path.
#[derive(Debug)]
pub struct JsonlSink {
    file: Mutex<File>,
}

impl JsonlSink {
    /// Opens (creating if needed) `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `io::Error`.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink {
            file: Mutex::new(file),
        })
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut line = event.to_json().to_string();
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // Logging must never take the process down; drop the line on I/O
        // error (e.g. disk full) rather than panicking mid-simulation.
        let _ = file.write_all(line.as_bytes());
    }
}

/// Test sink: buffers every event for later inspection.
#[derive(Debug, Default)]
pub struct CaptureSink {
    events: Mutex<Vec<Event>>,
}

impl CaptureSink {
    /// An empty capture buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the captured events.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Removes and returns the captured events.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Sink for CaptureSink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

/// Minimum level an event needs to reach the sink. `u8::MAX` = off.
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);
const LEVEL_UNSET: u8 = 0xfe;
const LEVEL_OFF: u8 = 0xff;

fn level_code(level: Level) -> u8 {
    match level {
        Level::Debug => 0,
        Level::Info => 1,
        Level::Warn => 2,
        Level::Error => 3,
    }
}

fn init_level() -> u8 {
    let code = match std::env::var("RDT_LOG").ok().as_deref() {
        None | Some("") => level_code(Level::Warn),
        Some("off") | Some("none") => LEVEL_OFF,
        Some(name) => Level::parse(name).map_or(level_code(Level::Warn), level_code),
    };
    LEVEL.store(code, Ordering::Relaxed);
    code
}

/// Whether an event at `level` would currently reach the sink. Cheap (one
/// relaxed atomic load after first use); instrumentation call sites gate on
/// this implicitly through [`EventBuilder`](crate::EventBuilder).
pub fn enabled(level: Level) -> bool {
    let mut threshold = LEVEL.load(Ordering::Relaxed);
    if threshold == LEVEL_UNSET {
        threshold = init_level();
    }
    level_code(level) >= threshold
}

/// Sets the minimum level (`None` disables all output). Overrides `RDT_LOG`.
pub fn set_level(level: Option<Level>) {
    LEVEL.store(level.map_or(LEVEL_OFF, level_code), Ordering::Relaxed);
}

fn sink_cell() -> &'static RwLock<Arc<dyn Sink>> {
    static SINK: OnceLock<RwLock<Arc<dyn Sink>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(default_sink()))
}

fn default_sink() -> Arc<dyn Sink> {
    if let Some(path) = std::env::var_os("RDT_LOG_JSONL").filter(|p| !p.is_empty()) {
        match JsonlSink::open(&path) {
            Ok(sink) => return Arc::new(sink),
            Err(err) => {
                eprintln!(
                    "[error rdt_obs::sink] jsonl_open_failed: falling back to stderr \
                     (path={}, error={err})",
                    path.to_string_lossy()
                );
            }
        }
    }
    Arc::new(StderrSink)
}

/// Replaces the process-wide sink, returning the previous one.
pub fn set_sink(sink: Arc<dyn Sink>) -> Arc<dyn Sink> {
    let cell = sink_cell();
    let mut guard = cell.write().unwrap_or_else(|e| e.into_inner());
    std::mem::replace(&mut *guard, sink)
}

/// Dispatches a pre-built [`Event`] through the level filter to the sink.
/// For call sites that construct events directly (e.g. to also hand them
/// to the event log, which bypasses the filter); builder-based call
/// sites go through [`EventBuilder::emit`](crate::EventBuilder::emit).
pub fn emit(event: &Event) {
    if enabled(event.level) {
        dispatch(event);
    }
}

pub(crate) fn dispatch(event: &Event) {
    let cell = sink_cell();
    let sink = cell.read().unwrap_or_else(|e| e.into_inner()).clone();
    sink.emit(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;

    fn sample(name: &'static str) -> Event {
        Event {
            level: Level::Warn,
            target: "rdt_obs::tests",
            name,
            message: "hello".into(),
            fields: vec![("k", Value::U64(1))],
        }
    }

    #[test]
    fn capture_sink_buffers_and_drains() {
        let sink = CaptureSink::new();
        sink.emit(&sample("a"));
        sink.emit(&sample("b"));
        assert_eq!(sink.events().len(), 2);
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1].name, "b");
        assert!(sink.events().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_valid_lines_under_concurrent_writers() {
        let dir = std::env::temp_dir().join(format!("rdt_obs_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("concurrent.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = Arc::new(JsonlSink::open(&path).unwrap());

        const WRITERS: usize = 8;
        const PER_WRITER: usize = 50;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let mut e = sample("concurrent");
                        e.fields = vec![
                            ("writer", Value::U64(w as u64)),
                            ("seq", Value::U64(i as u64)),
                            // Bulk payload widens the race window for
                            // interleaved partial writes.
                            ("pad", Value::Str("x".repeat(64))),
                        ];
                        sink.emit(&e);
                    }
                });
            }
        });

        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), WRITERS * PER_WRITER);
        let mut seen = [0u64; WRITERS];
        for line in lines {
            let v = crate::json::parse(line).expect("every line is complete JSON");
            assert_eq!(v.get("event").unwrap().as_str(), Some("concurrent"));
            let w = v.get("writer").unwrap().as_u64().unwrap() as usize;
            seen[w] += 1;
        }
        assert!(seen.iter().all(|&n| n == PER_WRITER as u64));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
