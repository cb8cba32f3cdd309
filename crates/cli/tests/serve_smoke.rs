//! End-to-end smoke tests for `rdt serve`: real OS processes over
//! Unix-domain sockets, with and without the kill-9 chaos cycle.

use std::process::Command;

fn rdt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdt"))
}

fn stdout_of(output: &std::process::Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The `key=value` fields of one worker's summary file.
fn summary(dir: &std::path::Path, rank: usize) -> std::collections::BTreeMap<String, u64> {
    let raw = std::fs::read_to_string(dir.join(format!("summary_p{rank}.txt"))).unwrap();
    raw.split_whitespace()
        .map(|field| {
            let (key, value) = field.split_once('=').unwrap();
            (key.to_string(), value.parse().unwrap())
        })
        .collect()
}

#[test]
fn clean_run_agrees_with_the_oracle() {
    let dir = std::env::temp_dir().join(format!("rdt_serve_smoke_clean_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = rdt()
        .args(["serve", "-n", "3", "--ops", "60", "-S", "42", "--json"])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("spawning rdt");
    let stdout = stdout_of(&output);
    assert!(
        output.status.success(),
        "serve failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("\"lines_agree\": true"),
        "no agreement in {stdout}"
    );
    assert!(stdout.contains("\"chaos\": false"));
    assert!(stdout.contains("\"gc_violations\": 0"), "{stdout}");
    // Every checkpoint a worker stored — its initial one, basic and forced
    // — is retained or was eliminated by one of its operations, and the
    // summed eliminations are what the run reports as collected.
    let mut collected = 0;
    for rank in 0..3 {
        let s = summary(&dir, rank);
        assert_eq!(
            s["eliminated"],
            1 + s["basic"] + s["forced"] - s["retained"],
            "p{rank}: {s:?}"
        );
        collected += s["eliminated"];
    }
    assert!(
        stdout.contains(&format!("\"collected\": {collected},")),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_cycle_survives_kill9_and_matches_the_oracle() {
    let output = rdt()
        .args(["serve", "-n", "3", "-S", "1337", "--chaos", "--json"])
        .output()
        .expect("spawning rdt");
    let stdout = stdout_of(&output);
    assert!(
        output.status.success(),
        "chaos serve failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("\"chaos\": true"));
    assert!(
        stdout.contains("\"lines_agree\": true"),
        "no agreement in {stdout}"
    );
    assert!(stdout.contains("\"gc_violations\": 0"), "{stdout}");
}

#[test]
fn serve_rejects_a_single_process() {
    let output = rdt()
        .args(["serve", "-n", "1"])
        .output()
        .expect("spawning rdt");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("at least two"));
}

#[test]
fn serve_rejects_a_system_whose_frames_exceed_the_transport_limit() {
    // 5 457 processes fill a 64 KiB frame; one more would have every
    // message cut short by the receiver's buffer and dropped.
    let output = rdt()
        .args(["serve", "-n", "6000", "--ops", "1"])
        .output()
        .expect("spawning rdt");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("frame limit of 65536 bytes"), "{stderr}");
    assert!(stderr.contains("at most 5457 processes"), "{stderr}");
}
