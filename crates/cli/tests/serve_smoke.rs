//! End-to-end smoke tests for `rdt serve`: real OS processes over
//! Unix-domain sockets, with and without the kill-9 chaos cycle.

use std::process::Command;

fn rdt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdt"))
}

fn stdout_of(output: &std::process::Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The counters of the run's merged metrics snapshot
/// (`metrics_merged.prom`): un-suffixed, the cluster-wide totals.
fn merged(dir: &std::path::Path) -> std::collections::BTreeMap<String, u64> {
    let text = std::fs::read_to_string(dir.join("metrics_merged.prom")).unwrap();
    rdt_obs::ProfileReport::from_prometheus(&text)
        .unwrap()
        .counters
}

/// One worker's series of the merged snapshot, by counter name.
fn per_rank(dir: &std::path::Path, rank: usize) -> std::collections::BTreeMap<String, u64> {
    let suffix = format!("/p{rank}");
    merged(dir)
        .into_iter()
        .filter_map(|(name, v)| Some((name.strip_suffix(&suffix)?.to_string(), v)))
        .collect()
}

#[test]
fn clean_run_agrees_with_the_oracle() {
    for protocol in rdt_protocols::ProtocolKind::ALL.map(|k| k.to_string()) {
        let dir = std::env::temp_dir().join(format!(
            "rdt_serve_smoke_clean_{protocol}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let output = rdt()
            .args(["serve", "-n", "3", "--ops", "60", "-S", "42", "--json"])
            .args(["--protocol", &protocol])
            .arg("--dir")
            .arg(&dir)
            .output()
            .expect("spawning rdt");
        let stdout = stdout_of(&output);
        assert!(
            output.status.success(),
            "{protocol}: serve failed: {stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            stdout.contains("\"lines_agree\": true"),
            "{protocol}: no agreement in {stdout}"
        );
        assert!(stdout.contains("\"chaos\": false"));
        assert!(
            stdout.contains("\"gc_violations\": 0"),
            "{protocol}: {stdout}"
        );
        assert!(stdout.contains("\"gc_missed\": 0,"), "{protocol}: {stdout}");
        // Every checkpoint a worker stored — its initial one, basic and
        // forced — is retained or was eliminated by one of its operations.
        for rank in 0..3 {
            let s = per_rank(&dir, rank);
            assert_eq!(
                s["checkpoints_eliminated"],
                1 + s["checkpoints_basic"] + s["checkpoints_forced"] - s["checkpoints_retained"],
                "{protocol} p{rank}: {s:?}"
            );
        }
        // The workers' own counts, summed, are the run's totals read off
        // the logged lines: two independent counts of one history.
        let doc = rdt_obs::json::parse(&stdout).unwrap();
        let counted = merged(&dir);
        for (key, counter) in [
            ("sent", "frames_sent"),
            ("delivered", "frames_delivered"),
            ("basic_checkpoints", "checkpoints_basic"),
            ("forced_checkpoints", "checkpoints_forced"),
            ("collected", "checkpoints_eliminated"),
        ] {
            let logged = doc.get(key).and_then(|v| v.as_u64());
            assert_eq!(
                logged,
                Some(counted[counter]),
                "{protocol}: {key} against {counter}: {stdout}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_time_based_collector_fails_the_audit_live() {
    // A three-step horizon discards checkpoints a peer still depends on
    // (20 of 20 runs flagged 6 to 18 collects); the audit runs on the
    // merged logs before the online recovery session, so the count is
    // reported and fails the run.
    let output = rdt()
        .args([
            "serve", "-n", "3", "--ops", "60", "-S", "42", "--gc", "time:3", "--json",
        ])
        .output()
        .expect("spawning rdt");
    let stdout = stdout_of(&output);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{stdout}");
    assert!(!stderr.contains("unknown collector"), "{stderr}");
    let doc = rdt_obs::json::parse(&stdout)
        .unwrap_or_else(|e| panic!("no report ({e}) in {stdout}\n{stderr}"));
    let violations = doc.get("gc_violations").and_then(|v| v.as_u64());
    assert!(violations > Some(0), "{stdout}");
    assert!(stderr.contains("not obsolete"), "{stderr}");
}

#[test]
fn without_a_collector_the_live_theorem_5_audit_counts_what_is_retained() {
    // Nothing is collected, so every checkpoint a later one superseded is
    // retained with no witness; only RDT-LGC fails the run for it.
    let output = rdt()
        .args([
            "serve", "-n", "3", "--ops", "60", "-S", "42", "--gc", "none", "--json",
        ])
        .output()
        .expect("spawning rdt");
    let stdout = stdout_of(&output);
    assert!(
        output.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = rdt_obs::json::parse(&stdout).unwrap();
    let missed = doc.get("gc_missed").and_then(|v| v.as_u64());
    assert!(missed > Some(0), "{stdout}");
}

/// Event lines of `kind` in the event logs under `dir` whose file names
/// start with `prefix`, a torn final line not counted.
fn logged(dir: &std::path::Path, prefix: &str, kind: &str) -> u64 {
    let mut count = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with(prefix) && name.ends_with(".jsonl")) {
            continue;
        }
        let body = std::fs::read_to_string(&path).unwrap();
        count += body
            .split_inclusive('\n')
            .filter(|l| l.ends_with('\n') && l.contains(kind))
            .count() as u64;
    }
    count
}

#[test]
fn chaos_cycle_survives_kill9_and_matches_the_oracle() {
    let dir = std::env::temp_dir().join(format!("rdt_serve_smoke_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = rdt()
        .args(["serve", "-n", "3", "-S", "1337", "--chaos", "--json"])
        .arg("--dir")
        .arg(&dir)
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
    assert!(stdout.contains("\"gc_missed\": null"), "{stdout}");
    // The totals are both segments' logged events: the kill-point logs
    // (`flight_p*`) and the resumed ones (`flight_resume_p*`).
    let doc = rdt_obs::json::parse(&stdout).unwrap();
    let total = |key: &str| doc.get(key).and_then(|v| v.as_u64()).unwrap();
    for (key, kind) in [
        ("sent", r#""kind":"send""#),
        ("delivered", r#""kind":"deliver""#),
        ("basic_checkpoints", r#""forced":false"#),
        ("forced_checkpoints", r#""forced":true"#),
        ("collected", r#""kind":"collect""#),
    ] {
        let (killed, resumed) = (
            logged(&dir, "flight_p", kind),
            logged(&dir, "flight_resume_p", kind),
        );
        assert_eq!(total(key), killed + resumed, "{key}: {stdout}");
    }
    assert!(logged(&dir, "flight_p", r#""kind":"send""#) > 0);
    let _ = std::fs::remove_dir_all(&dir);
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
