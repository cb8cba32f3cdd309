//! `rdt causal` — merge per-worker observability dumps into one
//! happened-before-ordered trace.
//!
//! Each worker of an `rdt serve` run (or any process with the flight
//! recorder / `RDT_LOG_JSONL` active) leaves a JSONL dump whose
//! `rdt_sim::live` events describe its local frame activity: `frame_send`,
//! `frame_recv`, `frame_apply`. This analyzer interleaves those per-process
//! program orders into one global sequence in which every receive appears
//! after its matching send — a linearization of Lamport's happened-before
//! relation — and cross-checks the dependency-vector lineage on the wire:
//! what a receiver *learned* about the sender can never be older than what
//! the sender *said* at send time.
//!
//! Flight-recorder rings are bounded and flushed periodically, so a dump
//! may be truncated at both ends: old records evicted from the ring, and a
//! kill-9 losing the unflushed tail. The send sequence numbers surviving
//! in a process's dump span its *recorded window*; receives referencing a
//! send outside that window get a `synthetic_send` placeholder, while a
//! missing send *inside* the window is a real causality violation and
//! fails the merge.

use std::collections::{BTreeMap, VecDeque};

use rdt_obs::json::{self, JsonValue};

const TARGET: &str = "rdt_sim::live";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Send,
    Recv,
    Apply,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Send => "send",
            Kind::Recv => "recv",
            Kind::Apply => "apply",
        }
    }
}

/// One frame event parsed out of a worker dump, in that worker's program
/// order. `peer` is the destination for sends and the origin for
/// receives/applies; `seq` is always the *sender's* sequence number, so
/// `(origin, seq)` names a frame globally.
#[derive(Debug, Clone)]
struct FrameEvent {
    kind: Kind,
    process: u64,
    peer: u64,
    seq: u64,
    inc: u64,
    interval: u64,
    forced: bool,
    eliminated: u64,
    src: String,
}

impl FrameEvent {
    /// The frame's global identity: (origin process, send seq).
    fn frame_id(&self) -> (u64, u64) {
        match self.kind {
            Kind::Send => (self.process, self.seq),
            Kind::Recv | Kind::Apply => (self.peer, self.seq),
        }
    }
}

/// Entry point for the `causal` subcommand.
pub fn causal(m: &clap::ArgMatches) -> Result<(), String> {
    let mut inputs: Vec<std::path::PathBuf> = m
        .get_many::<String>("inputs")
        .map(|vals| vals.map(std::path::PathBuf::from).collect())
        .unwrap_or_default();
    if let Some(dir) = m.get_one::<String>("dir") {
        inputs.extend(harvest(std::path::Path::new(dir))?);
    }
    if inputs.is_empty() {
        return Err("no inputs: pass dump files or --dir <serve dir>".into());
    }

    let mut queues: Vec<(u64, VecDeque<FrameEvent>)> = Vec::new();
    let mut owner_file: BTreeMap<u64, String> = BTreeMap::new();
    for path in &inputs {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for (lineno, line) in body.lines().enumerate() {
            let Some(ev) = parse_frame_event(path, lineno, line)? else {
                continue;
            };
            match owner_file.get(&ev.process) {
                Some(prev) if *prev != path.display().to_string() => {
                    return Err(format!(
                        "process {} appears in both {prev} and {}: cannot \
                         reconstruct one program order",
                        ev.process,
                        path.display()
                    ));
                }
                _ => {
                    owner_file
                        .entry(ev.process)
                        .or_insert_with(|| path.display().to_string());
                }
            }
            match queues.iter_mut().find(|(p, _)| *p == ev.process) {
                Some((_, q)) => q.push_back(ev),
                None => {
                    let p = ev.process;
                    queues.push((p, VecDeque::from([ev])));
                }
            }
        }
    }
    queues.sort_by_key(|(p, _)| *p);

    let merged = merge(queues)?;

    let mut doc = String::new();
    for line in &merged.lines {
        rdt_obs::check::check_jsonl_line(line)
            .map_err(|e| format!("internal: emitted invalid causal line: {e}"))?;
        doc.push_str(line);
        doc.push('\n');
    }
    match m.get_one::<String>("out") {
        Some(path) => std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{doc}"),
    }
    eprintln!(
        "causal: {} events from {} processes merged ({} synthetic sends)",
        merged.lines.len(),
        merged.processes,
        merged.synthetic
    );
    Ok(())
}

/// Collects `flight_p*.jsonl` dumps under `dir`, sorted by name.
fn harvest(dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>, String> {
    let mut found = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("flight_p") && name.ends_with(".jsonl") {
            found.push(entry.path());
        }
    }
    if found.is_empty() {
        return Err(format!(
            "{}: no flight_p*.jsonl dumps found",
            dir.display()
        ));
    }
    found.sort();
    Ok(found)
}

/// Parses one dump line into a [`FrameEvent`]; `Ok(None)` for lines that
/// are valid JSON but not live frame events (trace lines, other targets,
/// `gc_collect`, …).
fn parse_frame_event(
    path: &std::path::Path,
    lineno: usize,
    line: &str,
) -> Result<Option<FrameEvent>, String> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let src = format!("{}:{}", path.display(), lineno + 1);
    let v = json::parse(line).map_err(|e| format!("{src}: {e}"))?;
    if v.get("type").is_some() {
        return Ok(None); // simulator trace line, not a log envelope
    }
    if v.get("target").and_then(JsonValue::as_str) != Some(TARGET) {
        return Ok(None);
    }
    let kind = match v.get("event").and_then(JsonValue::as_str) {
        Some("frame_send") => Kind::Send,
        Some("frame_recv") => Kind::Recv,
        Some("frame_apply") => Kind::Apply,
        _ => return Ok(None),
    };
    let u = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{src}: missing integer field {key:?}"))
    };
    let peer_key = if kind == Kind::Send { "to" } else { "from" };
    let process = u("process")?;
    let peer = u(peer_key)?;
    let seq = u("seq")?;
    let (mut inc, mut interval) = (0, 0);
    if matches!(kind, Kind::Send | Kind::Apply) {
        inc = u("inc")?;
        interval = u("interval")?;
    }
    let (mut forced, mut eliminated) = (false, 0);
    if kind == Kind::Apply {
        forced = matches!(v.get("forced"), Some(JsonValue::Bool(true)));
        eliminated = u("eliminated")?;
    }
    Ok(Some(FrameEvent {
        kind,
        process,
        peer,
        seq,
        inc,
        interval,
        forced,
        eliminated,
        src,
    }))
}

#[derive(Debug)]
struct Merged {
    lines: Vec<String>,
    processes: usize,
    synthetic: usize,
}

/// What the merger knows about a frame once its send has been emitted.
#[derive(Clone, Copy)]
struct SentFrame {
    inc: u64,
    interval: u64,
    synthetic: bool,
}

/// Interleaves the per-process queues into one happened-before-consistent
/// sequence. A receive (or apply) is *enabled* once its send has been
/// emitted; a send is always enabled. A receive referencing a send outside
/// its origin's recorded window gets a `synthetic_send`; one inside the
/// window with no matching send is a violation. If no head is enabled and
/// work remains, the dumps imply a causal cycle and the merge fails.
fn merge(mut queues: Vec<(u64, VecDeque<FrameEvent>)>) -> Result<Merged, String> {
    // Recorded send window per origin: [lowest, highest] send seq
    // surviving in its dump. Sends are numbered monotonically per origin,
    // so anything below the window was evicted from the bounded ring and
    // anything above it was lost in the unflushed tail of a kill — both
    // legitimately absent. Only a gap *inside* the window is a violation.
    let mut window: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut in_dump: BTreeMap<(u64, u64), ()> = BTreeMap::new();
    let dumped: Vec<u64> = queues.iter().map(|(p, _)| *p).collect();
    for (p, q) in &queues {
        for ev in q {
            if ev.kind == Kind::Send {
                in_dump.insert((*p, ev.seq), ());
                let w = window.entry(*p).or_insert((ev.seq, ev.seq));
                w.0 = w.0.min(ev.seq);
                w.1 = w.1.max(ev.seq);
            }
        }
    }

    let mut emitted: BTreeMap<(u64, u64), SentFrame> = BTreeMap::new();
    let mut lines = Vec::new();
    let mut pos: u64 = 0;
    let mut synthetic = 0usize;
    let processes = queues.len();

    let emit = |kind: &str, ev: &FrameEvent, pos: &mut u64, lines: &mut Vec<String>| {
        let mut obj = vec![
            ("type".to_string(), JsonValue::Str("causal".into())),
            ("pos".to_string(), JsonValue::UInt(*pos)),
            ("kind".to_string(), JsonValue::Str(kind.into())),
            ("process".to_string(), JsonValue::UInt(ev.process)),
            ("peer".to_string(), JsonValue::UInt(ev.peer)),
            ("seq".to_string(), JsonValue::UInt(ev.seq)),
        ];
        if kind != "recv" {
            obj.push(("inc".to_string(), JsonValue::UInt(ev.inc)));
            obj.push(("interval".to_string(), JsonValue::UInt(ev.interval)));
        }
        if kind == "apply" {
            obj.push(("forced".to_string(), JsonValue::Bool(ev.forced)));
            obj.push(("eliminated".to_string(), JsonValue::UInt(ev.eliminated)));
        }
        let mut out = String::new();
        JsonValue::Obj(obj).render(&mut out);
        lines.push(out);
        *pos += 1;
    };

    loop {
        let mut progress = false;
        let mut exhausted = true;
        for (_, queue) in &mut queues {
            let Some(head) = queue.front().cloned() else {
                continue;
            };
            exhausted = false;
            match head.kind {
                Kind::Send => {
                    emitted.insert(
                        head.frame_id(),
                        SentFrame {
                            inc: head.inc,
                            interval: head.interval,
                            synthetic: false,
                        },
                    );
                    emit("send", &head, &mut pos, &mut lines);
                }
                Kind::Recv | Kind::Apply => {
                    let id = head.frame_id();
                    let sent = match emitted.get(&id) {
                        Some(s) => *s,
                        None if in_dump.contains_key(&id) => continue, // wait for the send
                        None => {
                            let outside_window = !dumped.contains(&head.peer)
                                || window
                                    .get(&head.peer)
                                    .is_none_or(|(lo, hi)| head.seq < *lo || head.seq > *hi);
                            if !outside_window {
                                return Err(format!(
                                    "{}: {} of frame ({}, {}) has no matching send \
                                     inside process {}'s recorded window {:?}",
                                    head.src,
                                    head.kind.as_str(),
                                    head.peer,
                                    head.seq,
                                    head.peer,
                                    window.get(&head.peer)
                                ));
                            }
                            // The send fell outside the origin's surviving
                            // ring (evicted head or unflushed kill tail):
                            // stand in for it so the order stays consistent.
                            let ghost = FrameEvent {
                                kind: Kind::Send,
                                process: head.peer,
                                peer: head.process,
                                seq: head.seq,
                                inc: 0,
                                interval: 0,
                                forced: false,
                                eliminated: 0,
                                src: head.src.clone(),
                            };
                            let s = SentFrame {
                                inc: 0,
                                interval: 0,
                                synthetic: true,
                            };
                            emitted.insert(id, s);
                            synthetic += 1;
                            emit("synthetic_send", &ghost, &mut pos, &mut lines);
                            s
                        }
                    };
                    if head.kind == Kind::Apply
                        && !sent.synthetic
                        && (head.inc, head.interval) < (sent.inc, sent.interval)
                    {
                        return Err(format!(
                            "{}: apply of frame ({}, {}) learned lineage \
                             (inc {}, interval {}) older than the send's \
                             (inc {}, interval {})",
                            head.src,
                            head.peer,
                            head.seq,
                            head.inc,
                            head.interval,
                            sent.inc,
                            sent.interval
                        ));
                    }
                    emit(head.kind.as_str(), &head, &mut pos, &mut lines);
                }
            }
            queue.pop_front();
            progress = true;
        }
        if exhausted {
            break;
        }
        if !progress {
            let heads: Vec<String> = queues
                .iter()
                .filter_map(|(p, q)| {
                    q.front().map(|ev| {
                        format!(
                            "p{p} waiting on {} of ({}, {})",
                            ev.kind.as_str(),
                            ev.peer,
                            ev.seq
                        )
                    })
                })
                .collect();
            return Err(format!(
                "dumps imply a causal cycle — no event is enabled: {}",
                heads.join("; ")
            ));
        }
    }

    Ok(Merged {
        lines,
        processes,
        synthetic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_line(event: &str, fields: &[(&str, JsonValue)]) -> String {
        let mut obj = vec![
            ("level".to_string(), JsonValue::Str("debug".into())),
            ("target".to_string(), JsonValue::Str(TARGET.into())),
            ("event".to_string(), JsonValue::Str(event.into())),
            ("msg".to_string(), JsonValue::Str(String::new())),
        ];
        for (k, v) in fields {
            obj.push((k.to_string(), v.clone()));
        }
        let mut out = String::new();
        JsonValue::Obj(obj).render(&mut out);
        out
    }

    fn parse_lines(process_lines: &[(u64, Vec<String>)]) -> Vec<(u64, VecDeque<FrameEvent>)> {
        let mut queues = Vec::new();
        for (p, lines) in process_lines {
            let mut q = VecDeque::new();
            for (i, line) in lines.iter().enumerate() {
                let path = std::path::PathBuf::from(format!("p{p}.jsonl"));
                if let Some(ev) = parse_frame_event(&path, i, line).unwrap() {
                    q.push_back(ev);
                }
            }
            queues.push((*p, q));
        }
        queues
    }

    fn send(process: u64, to: u64, seq: u64, inc: u64, interval: u64) -> String {
        log_line(
            "frame_send",
            &[
                ("process", JsonValue::UInt(process)),
                ("to", JsonValue::UInt(to)),
                ("seq", JsonValue::UInt(seq)),
                ("inc", JsonValue::UInt(inc)),
                ("interval", JsonValue::UInt(interval)),
            ],
        )
    }

    fn recv(process: u64, from: u64, seq: u64) -> String {
        log_line(
            "frame_recv",
            &[
                ("process", JsonValue::UInt(process)),
                ("from", JsonValue::UInt(from)),
                ("seq", JsonValue::UInt(seq)),
            ],
        )
    }

    fn apply(process: u64, from: u64, seq: u64, inc: u64, interval: u64) -> String {
        log_line(
            "frame_apply",
            &[
                ("process", JsonValue::UInt(process)),
                ("from", JsonValue::UInt(from)),
                ("seq", JsonValue::UInt(seq)),
                ("inc", JsonValue::UInt(inc)),
                ("interval", JsonValue::UInt(interval)),
                ("forced", JsonValue::Bool(false)),
                ("eliminated", JsonValue::UInt(0)),
            ],
        )
    }

    #[test]
    fn merges_recv_after_its_send() {
        // p1's dump lists its recv first; the merge must still place p0's
        // send before it.
        let queues = parse_lines(&[
            (1, vec![recv(1, 0, 0), apply(1, 0, 0, 0, 1)]),
            (0, vec![send(0, 1, 0, 0, 1)]),
        ]);
        let merged = merge(queues).unwrap();
        let kinds: Vec<String> = merged
            .lines
            .iter()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("kind")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(kinds, ["send", "recv", "apply"]);
        assert_eq!(merged.synthetic, 0);
        for l in &merged.lines {
            rdt_obs::check::check_jsonl_line(l).unwrap();
        }
    }

    #[test]
    fn synthesizes_sends_evicted_below_the_horizon() {
        // p0's ring starts at send seq 5; the recv of seq 2 predates it.
        let queues = parse_lines(&[
            (0, vec![send(0, 1, 5, 0, 3)]),
            (1, vec![recv(1, 0, 2), recv(1, 0, 5)]),
        ]);
        let merged = merge(queues).unwrap();
        assert_eq!(merged.synthetic, 1);
        let kinds: Vec<String> = merged
            .lines
            .iter()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("kind")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert!(kinds.contains(&"synthetic_send".to_string()));
        // The real send of seq 5 still precedes its recv.
        let send_pos = kinds.iter().position(|k| k == "send").unwrap();
        let recv5 = merged
            .lines
            .iter()
            .position(|l| {
                let v = json::parse(l).unwrap();
                v.get("kind").unwrap().as_str() == Some("recv")
                    && v.get("seq").unwrap().as_u64() == Some(5)
            })
            .unwrap();
        assert!(send_pos < recv5);
    }

    #[test]
    fn rejects_a_recv_with_no_send_inside_the_recorded_window() {
        // p0's dump spans seqs 0..=5, so seq 3 can neither have been
        // evicted (below 0) nor lost in the kill tail (above 5).
        let queues = parse_lines(&[
            (0, vec![send(0, 1, 0, 0, 1), send(0, 1, 5, 0, 2)]),
            (1, vec![recv(1, 0, 3)]),
        ]);
        let err = merge(queues).unwrap_err();
        assert!(err.contains("no matching send"), "{err}");
    }

    #[test]
    fn synthesizes_sends_lost_in_the_unflushed_kill_tail() {
        // p0 was killed after transmitting seq 6 but before its ring
        // flushed it; p1's dump kept the recv.
        let queues = parse_lines(&[
            (0, vec![send(0, 1, 5, 0, 2)]),
            (1, vec![recv(1, 0, 5), recv(1, 0, 6)]),
        ]);
        let merged = merge(queues).unwrap();
        assert_eq!(merged.synthetic, 1);
    }

    #[test]
    fn rejects_an_apply_that_unlearned_the_senders_lineage() {
        let queues = parse_lines(&[
            (0, vec![send(0, 1, 0, 1, 4)]),
            (1, vec![recv(1, 0, 0), apply(1, 0, 0, 1, 3)]),
        ]);
        let err = merge(queues).unwrap_err();
        assert!(err.contains("older than the send"), "{err}");
    }

    #[test]
    fn skips_foreign_lines_and_gc_events() {
        let path = std::path::PathBuf::from("x.jsonl");
        for line in [
            r#"{"type":"run","n":2,"steps":5,"seed":1,"shards":1,"protocol":"fdas","gc":"rdt"}"#,
            r#"{"level":"info","target":"rdt_sim::engine","event":"other","msg":""}"#,
            &log_line("gc_collect", &[("process", JsonValue::UInt(0))]),
        ] {
            assert!(parse_frame_event(&path, 0, line).unwrap().is_none());
        }
    }
}
