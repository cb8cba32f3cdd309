//! End-to-end smoke tests for the observability subcommands: `rdt
//! explain` provenance against the oracle, crash-free and crashy, the
//! serve → event log → `rdt causal` merge pipeline, and `rdt trace`
//! into a reader that stops early.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, Stdio};

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

    // Happened-before sanity on the merged trace itself: no recv before
    // the send of the same (origin, seq) frame.
    let body = std::fs::read_to_string(&merged).unwrap();
    let mut seen_send = std::collections::BTreeSet::new();
    let mut events = 0usize;
    for line in body.lines() {
        rdt_obs::check::check_jsonl_line(line).unwrap();
        let v = rdt_obs::json::parse(line).unwrap();
        let kind = v.get("kind").unwrap().as_str().unwrap().to_string();
        let process = v.get("process").unwrap().as_u64().unwrap();
        let peer = v.get("peer").unwrap().as_u64().unwrap();
        let seq = v.get("seq").unwrap().as_u64().unwrap();
        match kind.as_str() {
            "send" | "synthetic_send" => {
                seen_send.insert((process, seq));
            }
            "recv" | "apply" => {
                assert!(
                    seen_send.contains(&(peer, seq)),
                    "{kind} of ({peer}, {seq}) precedes its send"
                );
            }
            other => panic!("unexpected kind {other}"),
        }
        events += 1;
    }
    assert!(events > 0, "empty causal trace");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn causal_requires_inputs() {
    let output = rdt().arg("causal").output().expect("spawning rdt");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("no inputs"));
}
