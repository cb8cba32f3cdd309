//! End-to-end tests for `--runs K`: K simulator runs on seeds derived from
//! `--seed`, fanned out across cores, through `rdt simulate` and `rdt
//! audit`.

use std::process::Command;

use rdt_obs::json::{self, JsonValue};

fn rdt(args: &[&str]) -> std::process::Output {
    let output = Command::new(env!("CARGO_BIN_EXE_rdt"))
        .args(args)
        .output()
        .expect("spawning rdt");
    assert!(
        output.status.success(),
        "rdt {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn field(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap()
}

#[test]
fn simulate_runs_print_the_same_bytes() {
    let args = [
        "simulate", "-n", "6", "-s", "2000", "-x", "0.002", "--runs", "8",
    ];
    let first = rdt(&args).stdout;
    assert_eq!(first, rdt(&args).stdout);
    let text = String::from_utf8(first).unwrap();
    assert!(text.starts_with("aggregate over 8 parallel runs"), "{text}");
}

#[test]
fn metrics_out_holds_one_document_per_run() {
    let dir = std::env::temp_dir().join(format!("rdt_runs_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("runs.json");
    let path_arg = path.to_str().unwrap();
    rdt(&[
        "simulate",
        "-n",
        "4",
        "-s",
        "500",
        "--runs",
        "3",
        "--metrics-out",
        path_arg,
    ]);
    let docs = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let JsonValue::Arr(docs) = docs else {
        panic!("not an array: {docs:?}")
    };
    assert_eq!(docs.len(), 3);
    // Run k is the single run on the k-th derived seed.
    let seed = rdt_bench::derive_seed(0, 2).to_string();
    rdt(&[
        "simulate",
        "-n",
        "4",
        "-s",
        "500",
        "-S",
        &seed,
        "--metrics-out",
        path_arg,
    ]);
    let third = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(docs[2], third);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_sums_every_run_through_correlated_uncoordinated_sessions() {
    let common = [
        "audit",
        "-n",
        "6",
        "-s",
        "3000",
        "-P",
        "cas",
        "-x",
        "0.02",
        "-l",
        "0.05",
        "--correlated",
        "0.3",
        "--recovery",
        "uncoordinated",
        "--json",
    ];
    let doc = |extra: &[&str]| {
        let args: Vec<&str> = common.iter().chain(extra).copied().collect();
        json::parse(&String::from_utf8(rdt(&args).stdout).unwrap()).unwrap()
    };
    let all = doc(&["-S", "5", "--runs", "4"]);
    assert_eq!(field(&all, "runs"), 4);
    assert_eq!(all.get("violations"), Some(&JsonValue::Arr(vec![])));
    let (mut collected, mut sessions) = (0, 0);
    for k in 0..4 {
        let one = doc(&["-S", &rdt_bench::derive_seed(5, k).to_string()]);
        assert!(one.get("runs").is_none());
        collected += field(&one, "collected");
        sessions += field(&one, "sessions");
    }
    assert_eq!(field(&all, "collected"), collected);
    assert_eq!(field(&all, "sessions"), sessions);
    assert!(sessions > 0, "no recovery session audited");
    assert_eq!(
        all.get("missed"),
        Some(&JsonValue::Null),
        "not judged through sessions"
    );
}

/// A crash-free audit judges what is retained at the end against Theorem
/// 5: RDT-LGC leaves nothing that no process witnesses under any of the
/// eight protocols, sharded too; without a collector every obsolete
/// checkpoint stays, which `missed` counts and does not fail on.
#[test]
fn audit_counts_the_checkpoints_a_collector_missed() {
    let missed = |extra: &[&str]| {
        let mut args = vec!["audit", "-n", "8", "-s", "1500", "-S", "7", "--json"];
        args.extend(extra);
        let doc = json::parse(&String::from_utf8(rdt(&args).stdout).unwrap()).unwrap();
        assert_eq!(doc.get("violations"), Some(&JsonValue::Arr(vec![])));
        field(&doc, "missed")
    };
    for protocol in rdt_protocols::ProtocolKind::ALL {
        assert_eq!(missed(&["-P", &protocol.to_string()]), 0, "{protocol}");
    }
    assert_eq!(missed(&["-p", "ring", "-j", "2"]), 0);
    let none = missed(&["--gc", "none"]);
    assert!(none > 0, "no-gc missed {none}");
}

/// Above 32 processes a per-process line is its range, its most common
/// value and a few processes off it, so a run's text does not grow with
/// the system: at n = 1024 the parent's three lines alone were 20 KB.
#[test]
fn a_wide_simulation_prints_a_summary_that_does_not_grow_with_n() {
    let args = [
        "simulate",
        "-n",
        "1024",
        "-p",
        "ring",
        "-s",
        "5000",
        "-S",
        "7",
        "--occupancy",
    ];
    let text = String::from_utf8(rdt(&args).stdout).unwrap();
    assert!(text.len() < 2 << 10, "{} bytes:\n{text}", text.len());
    let line = text
        .lines()
        .find(|l| l.starts_with("final incarnations: "))
        .expect("the incarnations line");
    assert_eq!(
        line,
        "final incarnations: min 0, median 0, max 0; 0 on 1024 of 1024; off it: none"
    );
    assert!(text.contains("final retained checkpoints: min ["), "{text}");
}
