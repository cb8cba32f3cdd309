//! Causal span events and flight recording from the live frame path.
//!
//! Own integration binary (own process): the sink, level and flight
//! recorder are process-global, so this must not share a process with
//! other tests that touch them.

use std::sync::Arc;

use rdt_base::ProcessId;
use rdt_core::GcKind;
use rdt_obs::{CaptureSink, Level};
use rdt_protocols::ProtocolKind;
use rdt_sim::LiveNode;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn live_frames_emit_causal_events_and_flight_dump() {
    let dir = std::env::temp_dir().join(format!("rdt_live_causal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("flight_p0.jsonl");

    let capture = Arc::new(CaptureSink::new());
    rdt_obs::set_sink(capture.clone());
    // Sink at info: the debug-level frame events must still reach the
    // flight recorder (which bypasses the filter) but not the sink.
    rdt_obs::set_level(Some(Level::Info));
    rdt_obs::flight::install(&dump, 0);

    let mut a = LiveNode::new(p(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
    let mut b = LiveNode::new(p(1), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
    b.checkpoint().unwrap();
    let (f0, _) = b.send_frame(p(0));
    let out = a.deliver_frame(f0.encode()).unwrap().unwrap();
    assert_eq!(out.sender, p(1));
    let (f1, _) = a.send_frame(p(1));
    assert_eq!(f1.parent, Some((1, 0)));
    b.deliver_frame(f1.encode()).unwrap().unwrap();

    rdt_obs::flight::flush();
    let body = std::fs::read_to_string(&dump).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    // 2 sends, 2 recvs, 2 applies, and the second apply's fresher DV lets
    // RDT-LGC collect b's checkpoint — one typed gc_collect event.
    assert_eq!(lines.len(), 7, "unexpected dump: {body}");
    for line in &lines {
        rdt_obs::check::check_jsonl_line(line).unwrap();
    }
    let events: Vec<_> = lines
        .iter()
        .map(|l| rdt_obs::json::parse(l).unwrap())
        .collect();
    let kinds: Vec<_> = events
        .iter()
        .map(|e| e.get("event").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(
        kinds,
        [
            "frame_send",
            "frame_recv",
            "frame_apply",
            "frame_send",
            "frame_recv",
            "frame_apply",
            "gc_collect"
        ]
    );
    // The GC event names the collected checkpoint and the surviving pins.
    assert_eq!(events[6].get("eliminated").unwrap().as_u64(), Some(1));
    assert_eq!(events[6].get("collected").unwrap().as_str(), Some("1"));
    assert!(events[6].get("pins").unwrap().as_str().is_some());
    // The second send (a's) names b's frame 0 as its causal parent.
    assert_eq!(events[3].get("parent_process").unwrap().as_u64(), Some(1));
    assert_eq!(events[3].get("parent_seq").unwrap().as_u64(), Some(0));
    // The apply learned at least the interval the send carried.
    let sent = events[0].get("interval").unwrap().as_u64().unwrap();
    let learned = events[2].get("interval").unwrap().as_u64().unwrap();
    assert!(learned >= sent, "apply learned {learned} < sent {sent}");

    // The debug-level frame events were filtered from the sink...
    let sunk = capture.drain();
    assert!(
        sunk.iter().all(|e| e.level >= Level::Info),
        "debug event leaked through an info-level sink"
    );

    // ...and with the recorder uninstalled the frame path goes quiet.
    rdt_obs::flight::uninstall().unwrap();
    rdt_obs::set_level(Some(Level::Error));
    let (f2, _) = b.send_frame(p(0));
    a.deliver_frame(f2.encode()).unwrap().unwrap();
    assert!(capture.drain().is_empty());

    std::fs::remove_dir_all(&dir).unwrap();
}
