//! The event log of the live frame path: the trace events of each
//! operation, in the one line shape.
//!
//! Own integration binary (own process): the event log is process-global,
//! so this must not share a process with other tests that touch it.

use rdt_base::{CheckpointIndex, MessageId, ProcessId, TraceEvent};
use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_sim::{LiveNode, TraceLine};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn live_frames_emit_causal_events_and_flight_dump() {
    let dir = std::env::temp_dir().join(format!("rdt_live_causal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("flight_p0.jsonl");

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

    // Every line is in the file when the call that logged it returns.
    let body = std::fs::read_to_string(&dump).unwrap();
    let lines: Vec<TraceLine> = body
        .lines()
        .map(|l| TraceLine::parse(l).unwrap().expect("an event line"))
        .collect();
    let at: Vec<_> = lines.iter().map(|l| (l.process, l.event)).collect();
    let collect = |index| TraceEvent::Collect {
        process: p(1),
        index: CheckpointIndex::new(index),
    };
    // b's basic checkpoint supersedes its lone s^0; two sends, each
    // delivered at its receiver. b sent since s^1, so FDAS forces s^2
    // before the second delivery's news is merged, which lets RDT-LGC
    // collect s^1 after it.
    assert_eq!(
        at,
        [
            (
                Some(p(1)),
                TraceEvent::Checkpoint {
                    process: p(1),
                    forced: false
                }
            ),
            (Some(p(1)), collect(0)),
            (
                Some(p(1)),
                TraceEvent::Send {
                    id: MessageId::new(p(1), 0),
                    to: p(0)
                }
            ),
            (
                Some(p(0)),
                TraceEvent::Deliver {
                    id: MessageId::new(p(1), 0)
                }
            ),
            (
                Some(p(0)),
                TraceEvent::Send {
                    id: MessageId::new(p(0), 0),
                    to: p(1)
                }
            ),
            (
                Some(p(1)),
                TraceEvent::Checkpoint {
                    process: p(1),
                    forced: true
                }
            ),
            (
                Some(p(1)),
                TraceEvent::Deliver {
                    id: MessageId::new(p(0), 0)
                }
            ),
            (Some(p(1)), collect(1)),
        ],
        "{body}"
    );
    // The delivery learned at least the entry the send carried.
    let (sent, learned) = (lines[2].lineage.unwrap(), lines[3].lineage.unwrap());
    assert!(learned >= sent, "delivery learned {learned} < sent {sent}");

    // With the log uninstalled the frame path goes quiet.
    rdt_obs::flight::uninstall().unwrap();
    let (f2, _) = b.send_frame(p(0));
    a.deliver_frame(f2.encode()).unwrap().unwrap();
    assert_eq!(std::fs::read_to_string(&dump).unwrap(), body);

    std::fs::remove_dir_all(&dir).unwrap();
}
