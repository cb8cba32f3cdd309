//! End-to-end smoke tests for `rdt serve`: real OS processes over
//! Unix-domain sockets, with and without the kill-9 chaos cycle.

use std::process::Command;

fn rdt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdt"))
}

fn stdout_of(output: &std::process::Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn clean_run_agrees_with_the_oracle() {
    let output = rdt()
        .args(["serve", "-n", "3", "--ops", "60", "-S", "42", "--json"])
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
