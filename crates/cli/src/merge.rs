//! The one reader of the per-process event logs.
//!
//! Every live process writes one append-only log (the `rdt_obs::flight`
//! event log; `rdt serve` workers leave `flight_p<rank>.jsonl`) of the
//! trace lines ([`TraceLine`]) of what it did, in program order. [`Logs`]
//! reads them into per-process queues and [`Logs::merge`] interleaves the
//! queues into one global order in which every delivery comes after its
//! send — a linearization of Lamport's happened-before relation —
//! checking on the way that what a receiver *learned* about the sender is
//! never older than what the sender *said*. Two thin callers read the
//! order: `rdt serve` maps it to the offline oracle's trace
//! ([`Merged::oracle_trace`]), `rdt causal` prints it.
//!
//! A log is complete up to a kill: a torn final line is the kill's and is
//! dropped, garbage anywhere else is an error, and a process's sends are
//! numbered 0, 1, 2, … in its log, so a lost line shows as a gap. A
//! delivery whose sender's log is an input must find its send there; only
//! one whose sender is missing from the inputs gets a stand-in
//! `synthetic` send.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

use rdt_base::{DvEntry, MessageId, ProcessId, TraceEvent};
use rdt_sim::TraceLine;

/// One process's log: the file it came from, its lines in program order
/// with their line numbers, and how many sends it has logged.
#[derive(Debug)]
struct Log {
    file: String,
    lines: VecDeque<(usize, TraceLine)>,
    sends: u64,
}

/// Parsed per-process logs, ready to [`merge`](Logs::merge).
#[derive(Debug, Default)]
pub struct Logs {
    procs: BTreeMap<ProcessId, Log>,
}

impl Logs {
    /// Reads and parses every log at `paths`, as [`add`](Self::add) does.
    ///
    /// # Errors
    ///
    /// An unreadable file, or as [`add`](Self::add).
    pub fn read(paths: &[impl AsRef<Path>]) -> Result<Self, String> {
        let mut logs = Self::default();
        for path in paths {
            let file = path.as_ref().display().to_string();
            let body = std::fs::read_to_string(path).map_err(|e| format!("{file}: {e}"))?;
            logs.add(&file, &body)?;
        }
        Ok(logs)
    }

    /// Parses the log `body` of `file`. Blank lines and lines that are
    /// not events are skipped, and so are drops, which the merge
    /// re-derives; a torn final line (no newline, not a whole event) is
    /// dropped.
    ///
    /// # Errors
    ///
    /// A malformed line anywhere but the torn tail, a process already
    /// read from another file, or a send whose seq is not the next.
    pub fn add(&mut self, file: &str, body: &str) -> Result<(), String> {
        for (i, raw) in body.split_inclusive('\n').enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let line = match TraceLine::parse(raw.trim_end_matches('\n')) {
                Ok(Some(line)) => line,
                Ok(None) => continue,
                Err(_) if !raw.ends_with('\n') => break, // the kill's torn tail
                Err(e) => return Err(format!("{file}:{}: {e}", i + 1)),
            };
            let Some(process) = line.process else {
                continue;
            };
            let log = self.procs.entry(process).or_insert_with(|| Log {
                file: file.to_string(),
                lines: VecDeque::new(),
                sends: 0,
            });
            if log.file != file {
                return Err(format!(
                    "process {} appears in both {} and {file}: cannot reconstruct one program order",
                    process.index(),
                    log.file
                ));
            }
            // A stand-in send (a merge's output read back) is not in its
            // sender's numbering.
            if let (TraceEvent::Send { id, .. }, false) = (line.event, line.synthetic) {
                if id.seq != log.sends {
                    return Err(format!(
                        "{file}:{}: send seq {} where {} is next: a line of process {}'s log is missing",
                        i + 1,
                        id.seq,
                        log.sends,
                        process.index()
                    ));
                }
                log.sends += 1;
            }
            log.lines.push_back((i + 1, line));
        }
        Ok(())
    }

    /// Every line read, each process's in program order.
    pub fn lines(&self) -> impl Iterator<Item = &TraceLine> {
        self.procs
            .values()
            .flat_map(|log| log.lines.iter().map(|(_, line)| line))
    }

    /// Interleaves the logs into one happened-before order. A delivery is
    /// enabled once its send is in the order, and so is the forced
    /// checkpoint right before it in its log (the receive's); every other
    /// event is always enabled. A delivery whose sender's log is an input
    /// but holds no such send is an error; one whose sender is missing gets
    /// a `synthetic` send first.
    ///
    /// # Errors
    ///
    /// A delivery without its send, one that learned an older entry than
    /// its send carried, or logs with no enabled head left (a causal
    /// cycle).
    pub fn merge(self) -> Result<Merged, String> {
        let logged: BTreeSet<MessageId> = self
            .lines()
            .filter_map(|line| match line.event {
                TraceEvent::Send { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        let present: BTreeSet<ProcessId> = self.procs.keys().copied().collect();
        let mut queues: Vec<Log> = self.procs.into_values().collect();
        let processes = queues.len();
        // Sends in the order: the sender's entry they carried, if said.
        let mut sent: BTreeMap<MessageId, Option<DvEntry>> = BTreeMap::new();
        let mut order = Vec::new();
        let mut synthetic = 0;
        loop {
            let mut progress = false;
            for log in &mut queues {
                while let Some(&(at, head)) = log.lines.front() {
                    // A delivery waits for its send, and so does the forced
                    // checkpoint its receive stored just before it: both
                    // happened once the frame arrived.
                    let gate = match (head.event, log.lines.get(1)) {
                        (TraceEvent::Deliver { id }, _) => Some((at, id)),
                        (TraceEvent::Checkpoint { forced: true, .. }, Some(&(at, next))) => {
                            match next.event {
                                TraceEvent::Deliver { id } => Some((at, id)),
                                _ => None,
                            }
                        }
                        _ => None,
                    };
                    if let Some((at, id)) = gate.filter(|(_, id)| !sent.contains_key(id)) {
                        if logged.contains(&id) {
                            break;
                        }
                        if present.contains(&id.sender) {
                            return Err(format!(
                                "{}:{at}: deliver of frame ({}, {}) has no send in process {}'s log",
                                log.file,
                                id.sender.index(),
                                id.seq,
                                id.sender.index()
                            ));
                        }
                        let to = head.process.expect("a logged line names its process");
                        order.push(TraceLine {
                            synthetic: true,
                            ..TraceLine::new(Some(id.sender), TraceEvent::Send { id, to })
                        });
                        sent.insert(id, None);
                        synthetic += 1;
                    }
                    match head.event {
                        TraceEvent::Send { id, .. } => {
                            sent.insert(id, head.lineage);
                        }
                        TraceEvent::Deliver { id } => {
                            if let (Some(carried), Some(learned)) = (sent[&id], head.lineage) {
                                if learned < carried {
                                    return Err(format!(
                                        "{}:{at}: deliver of frame ({}, {}) learned lineage {learned} \
                                         older than the send's {carried}",
                                        log.file,
                                        id.sender.index(),
                                        id.seq
                                    ));
                                }
                            }
                        }
                        _ => {}
                    }
                    log.lines.pop_front();
                    order.push(head);
                    progress = true;
                }
            }
            if queues.iter().all(|log| log.lines.is_empty()) {
                break;
            }
            if !progress {
                let heads: Vec<String> = queues
                    .iter()
                    .filter_map(|log| log.lines.front())
                    .map(|(_, line)| format!("waiting on {}", line.event))
                    .collect();
                return Err(format!(
                    "logs imply a causal cycle — no event is enabled: {}",
                    heads.join("; ")
                ));
            }
        }
        Ok(Merged {
            order,
            processes,
            synthetic,
        })
    }
}

/// The logs in one happened-before order.
#[derive(Debug)]
pub struct Merged {
    /// Every logged event, synthetic sends included.
    pub order: Vec<TraceLine>,
    /// Processes with a log among the inputs.
    pub processes: usize,
    /// Sends stood in for.
    pub synthetic: usize,
}

impl Merged {
    /// The order as the offline oracle's trace: a frame delivered twice is
    /// delivered once, and sends never delivered end as `Drop`s.
    pub fn oracle_trace(&self) -> Vec<TraceEvent> {
        let mut trace = Vec::with_capacity(self.order.len());
        let mut delivered: BTreeMap<MessageId, bool> = BTreeMap::new();
        for line in &self.order {
            match line.event {
                TraceEvent::Send { id, .. } => {
                    delivered.insert(id, false);
                }
                TraceEvent::Deliver { id } if delivered.insert(id, true) != Some(false) => {
                    continue;
                }
                _ => {}
            }
            trace.push(line.event);
        }
        trace.extend(
            delivered
                .into_iter()
                .filter(|&(_, delivered)| !delivered)
                .map(|(id, _)| TraceEvent::Drop { id }),
        );
        trace
    }
}
