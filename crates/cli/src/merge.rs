//! The one reader of the per-process event logs.
//!
//! Every live process writes one append-only JSONL log (the
//! `rdt_obs::flight` event log; `rdt serve` workers leave
//! `flight_p<rank>.jsonl`) whose `rdt_sim::live` events are its whole
//! history: `checkpoint`, `frame_send`, `frame_recv`, `frame_apply` and
//! `gc_collect`. [`Logs`] parses them into per-process queues in program
//! order and [`Logs::merge`] interleaves the queues into one global order
//! in which every receive and apply comes after its send — a
//! linearization of Lamport's happened-before relation — checking on the
//! way that what a receiver *learned* about the sender is never older
//! than what the sender *said*. Two thin callers read the order:
//! `rdt serve` maps it to the offline oracle's trace
//! ([`Merged::oracle_trace`]), `rdt causal` to its causal JSONL.
//!
//! A log is complete up to a kill: a torn final line is the kill's and is
//! dropped, garbage anywhere else is an error, and a process's sends are
//! numbered 0, 1, 2, … in its log, so a lost line shows as a gap. A
//! receive whose origin's log is an input must find its send there; only
//! one whose origin is missing from the inputs gets a stand-in
//! `synthetic` send.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

use rdt_base::{CheckpointIndex, MessageId, ProcessId, TraceEvent};
use rdt_obs::json::{self, JsonValue};

/// Target of the events a `LiveNode` logs.
const TARGET: &str = "rdt_sim::live";

/// What a logged event did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A basic checkpoint.
    Checkpoint,
    /// A frame sent (`forced`: the CAS/CASBR post-send checkpoint).
    Send,
    /// A frame received, before it is applied.
    Recv,
    /// A frame applied (`forced`: the checkpoint stored before the merge).
    Apply,
    /// Checkpoints eliminated by the operation before it.
    Collect,
}

impl Kind {
    /// The name `rdt causal` gives the event.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Checkpoint => "checkpoint",
            Kind::Send => "send",
            Kind::Recv => "recv",
            Kind::Apply => "apply",
            Kind::Collect => "collect",
        }
    }
}

/// One logged event of `process`. For frames, `peer` is the destination
/// of a send and the origin of a receive or apply, and `seq` is always the
/// sender's sequence number, so `(origin, seq)` names a frame globally.
/// `inc`/`interval` are the sender's entry a send carried or the one an
/// apply learned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// What happened.
    pub kind: Kind,
    /// The acting process.
    pub process: u64,
    /// The frame's other endpoint.
    pub peer: u64,
    /// The sender's sequence number of the frame.
    pub seq: u64,
    /// The incarnation of the sender's entry.
    pub inc: u64,
    /// The interval of the sender's entry.
    pub interval: u64,
    /// A send or apply also stored a forced checkpoint.
    pub forced: bool,
    /// Checkpoints an apply eliminated.
    pub eliminated: u64,
    /// The checkpoints a collect eliminated.
    pub collected: Vec<usize>,
    /// A send the merger stood in for: its origin's log is not an input.
    pub synthetic: bool,
    /// `file:line`, for error messages.
    pub src: String,
}

impl Record {
    /// The frame's global identity: (origin, send seq).
    pub fn frame(&self) -> (u64, u64) {
        match self.kind {
            Kind::Send => (self.process, self.seq),
            _ => (self.peer, self.seq),
        }
    }
}

/// One process's log: the file it came from, its events in program order,
/// and how many sends it has logged.
#[derive(Debug)]
struct Log {
    file: String,
    records: VecDeque<Record>,
    sends: u64,
}

/// Parsed per-process logs, ready to [`merge`](Logs::merge).
#[derive(Debug, Default)]
pub struct Logs {
    procs: BTreeMap<u64, Log>,
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

    /// Parses the log `body` of `file`. Lines of other targets or shapes
    /// are skipped; a torn final line (no newline, not a whole event) is
    /// dropped.
    ///
    /// # Errors
    ///
    /// A malformed line anywhere but the torn tail, a process already
    /// read from another file, or a send whose seq is not the next.
    pub fn add(&mut self, file: &str, body: &str) -> Result<(), String> {
        for (i, raw) in body.split_inclusive('\n').enumerate() {
            let src = format!("{file}:{}", i + 1);
            let record = match parse_line(&src, raw.trim_end_matches('\n')) {
                Ok(Some(record)) => record,
                Ok(None) => continue,
                Err(_) if !raw.ends_with('\n') => break, // the kill's torn tail
                Err(e) => return Err(e),
            };
            let log = self.procs.entry(record.process).or_insert_with(|| Log {
                file: file.to_string(),
                records: VecDeque::new(),
                sends: 0,
            });
            if log.file != file {
                return Err(format!(
                    "process {} appears in both {} and {file}: cannot reconstruct one program order",
                    record.process, log.file
                ));
            }
            if record.kind == Kind::Send {
                if record.seq != log.sends {
                    return Err(format!(
                        "{src}: send seq {} where {} is next: a line of process {}'s log is missing",
                        record.seq, log.sends, record.process
                    ));
                }
                log.sends += 1;
            }
            log.records.push_back(record);
        }
        Ok(())
    }

    /// Interleaves the logs into one happened-before order. Checkpoints,
    /// sends and collects are always enabled; a receive or apply once its
    /// send is in the order. A receive whose origin's log is an input but
    /// holds no such send is an error; one whose origin is missing gets a
    /// `synthetic` send first.
    ///
    /// # Errors
    ///
    /// A receive without its send, an apply that learned an older entry
    /// than its send carried, or logs with no enabled head left (a
    /// causal cycle).
    pub fn merge(self) -> Result<Merged, String> {
        let present: BTreeSet<u64> = self.procs.keys().copied().collect();
        let logged: BTreeSet<(u64, u64)> = self
            .procs
            .values()
            .flat_map(|log| &log.records)
            .filter(|r| r.kind == Kind::Send)
            .map(Record::frame)
            .collect();
        let mut queues: Vec<VecDeque<Record>> =
            self.procs.into_values().map(|log| log.records).collect();
        let processes = queues.len();
        // Sends in the order: the sender's entry they carried, `None` for
        // a synthetic one.
        let mut sent: BTreeMap<(u64, u64), Option<(u64, u64)>> = BTreeMap::new();
        let mut order = Vec::new();
        let mut synthetic = 0;
        loop {
            let mut progress = false;
            for queue in &mut queues {
                while let Some(head) = queue.front() {
                    match head.kind {
                        Kind::Send => {
                            sent.insert(head.frame(), Some((head.inc, head.interval)));
                        }
                        Kind::Recv | Kind::Apply => {
                            let id = head.frame();
                            let carried = match sent.get(&id) {
                                Some(&carried) => carried,
                                None if logged.contains(&id) => break, // wait for the send
                                None if present.contains(&head.peer) => {
                                    return Err(format!(
                                        "{}: {} of frame ({}, {}) has no send in process {}'s log",
                                        head.src,
                                        head.kind.as_str(),
                                        head.peer,
                                        head.seq,
                                        head.peer
                                    ));
                                }
                                None => {
                                    order.push(Record {
                                        kind: Kind::Send,
                                        process: head.peer,
                                        peer: head.process,
                                        inc: 0,
                                        interval: 0,
                                        forced: false,
                                        eliminated: 0,
                                        collected: Vec::new(),
                                        synthetic: true,
                                        ..head.clone()
                                    });
                                    sent.insert(id, None);
                                    synthetic += 1;
                                    None
                                }
                            };
                            if let Some((inc, interval)) = carried {
                                if head.kind == Kind::Apply
                                    && (head.inc, head.interval) < (inc, interval)
                                {
                                    return Err(format!(
                                        "{}: apply of frame ({}, {}) learned lineage (inc {}, interval {}) \
                                         older than the send's (inc {inc}, interval {interval})",
                                        head.src, head.peer, head.seq, head.inc, head.interval
                                    ));
                                }
                            }
                        }
                        Kind::Checkpoint | Kind::Collect => {}
                    }
                    order.extend(queue.pop_front());
                    progress = true;
                }
            }
            if queues.iter().all(VecDeque::is_empty) {
                break;
            }
            if !progress {
                let heads: Vec<String> = queues
                    .iter()
                    .filter_map(VecDeque::front)
                    .map(|r| {
                        let (origin, seq) = r.frame();
                        format!(
                            "p{} waiting on {} of ({origin}, {seq})",
                            r.process,
                            r.kind.as_str()
                        )
                    })
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
    pub order: Vec<Record>,
    /// Processes with a log among the inputs.
    pub processes: usize,
    /// Sends stood in for.
    pub synthetic: usize,
}

impl Merged {
    /// The order as the offline oracle's trace, in the shape the
    /// simulator's has: a send's forced checkpoint after its `Send`, an
    /// apply's before its `Deliver`, collects after the operation; a frame
    /// applied twice is delivered once; sends never applied end as
    /// `Drop`s.
    pub fn oracle_trace(&self) -> Vec<TraceEvent> {
        let pid = |p: u64| ProcessId::new(p as usize);
        let msg = |(origin, seq): (u64, u64)| MessageId::new(pid(origin), seq);
        let mut trace = Vec::with_capacity(self.order.len());
        let mut delivered: BTreeMap<(u64, u64), bool> = BTreeMap::new();
        for r in &self.order {
            let process = pid(r.process);
            let forced = TraceEvent::Checkpoint {
                process,
                forced: true,
            };
            match r.kind {
                Kind::Checkpoint => trace.push(TraceEvent::Checkpoint {
                    process,
                    forced: false,
                }),
                Kind::Send => {
                    trace.push(TraceEvent::Send {
                        id: msg(r.frame()),
                        to: pid(r.peer),
                    });
                    delivered.insert(r.frame(), false);
                    if r.forced {
                        trace.push(forced);
                    }
                }
                Kind::Recv => {}
                Kind::Apply => {
                    if r.forced {
                        trace.push(forced);
                    }
                    let first = delivered.insert(r.frame(), true) == Some(false);
                    if first {
                        trace.push(TraceEvent::Deliver { id: msg(r.frame()) });
                    }
                }
                Kind::Collect => trace.extend(r.collected.iter().map(|&i| TraceEvent::Collect {
                    process,
                    index: CheckpointIndex::new(i),
                })),
            }
        }
        trace.extend(
            delivered
                .into_iter()
                .filter(|&(_, delivered)| !delivered)
                .map(|(id, _)| TraceEvent::Drop { id: msg(id) }),
        );
        trace
    }
}

/// Parses one log line; `Ok(None)` for a line that is valid JSON but not
/// a `LiveNode` event (simulator trace lines, other targets and events).
fn parse_line(src: &str, line: &str) -> Result<Option<Record>, String> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let v = json::parse(line).map_err(|e| format!("{src}: {e}"))?;
    if v.get("type").is_some() || v.get("target").and_then(JsonValue::as_str) != Some(TARGET) {
        return Ok(None);
    }
    let kind = match v.get("event").and_then(JsonValue::as_str) {
        Some("checkpoint") => Kind::Checkpoint,
        Some("frame_send") => Kind::Send,
        Some("frame_recv") => Kind::Recv,
        Some("frame_apply") => Kind::Apply,
        Some("gc_collect") => Kind::Collect,
        _ => return Ok(None),
    };
    let u = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{src}: missing integer field {key:?}"))
    };
    let flag = |key: &str| match v.get(key) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("{src}: missing boolean field {key:?}")),
    };
    let mut r = Record {
        kind,
        process: u("process")?,
        peer: 0,
        seq: 0,
        inc: 0,
        interval: 0,
        forced: false,
        eliminated: 0,
        collected: Vec::new(),
        synthetic: false,
        src: src.to_string(),
    };
    if matches!(kind, Kind::Send | Kind::Recv | Kind::Apply) {
        r.peer = u(if kind == Kind::Send { "to" } else { "from" })?;
        r.seq = u("seq")?;
    }
    if matches!(kind, Kind::Send | Kind::Apply) {
        r.inc = u("inc")?;
        r.interval = u("interval")?;
        r.forced = flag("forced")?;
    }
    if kind == Kind::Apply {
        r.eliminated = u("eliminated")?;
    }
    if kind == Kind::Collect {
        let list = v
            .get("collected")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{src}: missing string field \"collected\""))?;
        r.collected = list
            .split(',')
            .map(|i| {
                i.parse()
                    .map_err(|e| format!("{src}: collected {list:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
    }
    Ok(Some(r))
}
