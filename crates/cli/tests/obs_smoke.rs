//! End-to-end smoke tests for the observability subcommands: `rdt
//! explain` provenance against the oracle, crash-free and crashy, the
//! serve → event log → `rdt causal` merge pipeline, `rdt trace` into a
//! reader that stops early, and the zero-lookahead fallback said on
//! stderr and counted in the metrics document.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use rdt_base::TraceEvent;

fn rdt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdt"))
}

fn stdout_of(output: &std::process::Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdt_obs_smoke_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_zero_lookahead_fallback_is_said_on_stderr_and_counted() {
    let dir = temp_dir("fallback");
    let run = |min_delay: &str| {
        let doc = dir.join(format!("min_delay_{min_delay}.json"));
        let output = rdt()
            .args(["simulate", "-n", "6", "-s", "500", "-j", "2"])
            .args(["--min-delay", min_delay, "--max-delay", "10"])
            .arg("--metrics-out")
            .arg(&doc)
            .output()
            .expect("spawning rdt");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(output.status.success(), "{stderr}");
        (stderr, std::fs::read_to_string(&doc).unwrap())
    };
    let (stderr, doc) = run("0");
    assert_eq!(stderr.matches("min_delay is 0").count(), 1, "{stderr}");
    assert!(doc.contains("\"sequential_fallbacks\": 1"), "{doc}");
    let (stderr, doc) = run("1");
    assert!(!stderr.contains("min_delay"), "{stderr}");
    assert!(doc.contains("\"sequential_fallbacks\": 0"), "{doc}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_cross_checks_against_the_oracle() {
    let output = rdt()
        .args(["explain", "-n", "3", "-s", "200", "-S", "11", "--json"])
        .output()
        .expect("spawning rdt");
    let stdout = stdout_of(&output);
    assert!(
        output.status.success(),
        "explain failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // One document per single-process failure, each carrying the line and
    // per-component provenance.
    assert!(stdout.contains("\"faulty\""), "no scenarios in {stdout}");
    assert!(stdout.contains("\"line\""));
    assert!(stdout.contains("\"amnestied\""));
}

#[test]
fn explain_cross_checks_crashy_workloads() {
    let output = rdt()
        .args([
            "explain", "-n", "5", "-s", "600", "-S", "7", "-x", "0.02", "--json",
        ])
        .output()
        .expect("spawning rdt");
    let stdout = stdout_of(&output);
    assert!(
        output.status.success(),
        "crashy explain failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The run's recovery sessions reached the line: some pin is knowledge
    // of a later incarnation.
    let later_incarnation = stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"incarnation\": "))
        .any(|v| v.trim_end_matches(',') != "0");
    assert!(later_incarnation, "no pin past incarnation 0 in {stdout}");
}

#[test]
fn a_reader_that_stops_early_ends_the_command_quietly() {
    // Far more than a pipe holds, so the writer is still writing when the
    // reader goes.
    let mut child = rdt()
        .args(["trace", "-n", "4", "-s", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning rdt");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut first)
        .expect("reading the first line");
    assert!(first.starts_with("{\"type\":\"run\""), "{first}");
    let output = child.wait_with_output().expect("waiting for rdt");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(output.status.code(), Some(101), "{stderr}");
    assert_eq!(
        output.status.code(),
        Some(141),
        "the shell's SIGPIPE status"
    );
}

#[test]
fn serve_flight_dumps_merge_into_a_causal_trace() {
    let dir = temp_dir("causal");
    let serve = rdt()
        .args(["serve", "-n", "3", "--ops", "60", "-S", "42", "--json"])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("spawning rdt serve");
    assert!(
        serve.status.success(),
        "serve failed: {}\n{}",
        stdout_of(&serve),
        String::from_utf8_lossy(&serve.stderr)
    );
    for rank in 0..3 {
        assert!(
            dir.join(format!("flight_p{rank}.jsonl")).exists(),
            "worker {rank} left no event log"
        );
    }
    assert!(
        dir.join("metrics_merged.prom").exists(),
        "coordinator wrote no merged metrics snapshot"
    );

    let merged = dir.join("causal.jsonl");
    let causal = rdt()
        .arg("causal")
        .arg("--dir")
        .arg(&dir)
        .arg("-o")
        .arg(&merged)
        .output()
        .expect("spawning rdt causal");
    assert!(
        causal.status.success(),
        "causal merge failed: {}",
        String::from_utf8_lossy(&causal.stderr)
    );

    // Happened-before sanity on the merged trace itself: no delivery
    // before the send of the same frame, no send stood in for, and every
    // logged event printed.
    let body = std::fs::read_to_string(&merged).unwrap();
    let mut seen_send = std::collections::BTreeSet::new();
    let mut events = 0usize;
    for line in body.lines() {
        let line = rdt_sim::TraceLine::parse(line)
            .unwrap()
            .expect("an event line");
        assert!(!line.synthetic, "{line:?}");
        match line.event {
            TraceEvent::Send { id, .. } => {
                seen_send.insert(id);
            }
            TraceEvent::Deliver { id } => {
                assert!(
                    seen_send.contains(&id),
                    "delivery of {id} precedes its send"
                );
            }
            _ => {}
        }
        events += 1;
    }
    let logged: usize = (0..3)
        .map(|rank| {
            let log = std::fs::read_to_string(dir.join(format!("flight_p{rank}.jsonl"))).unwrap();
            log.lines().count()
        })
        .sum();
    assert_eq!(events, logged);
    assert!(events > 0, "empty causal trace");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn causal_requires_inputs() {
    let output = rdt().arg("causal").output().expect("spawning rdt");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("no inputs"));
}
