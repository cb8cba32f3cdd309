//! `rdt torture`'s exit message counts what its JSON counts: failing runs
//! over runs judged, the reference run included in both.

use std::process::Command;

use rdt_obs::json::{self, JsonValue};

#[test]
fn a_failing_sweep_counts_the_runs_its_json_counts() {
    let output = Command::new(env!("CARGO_BIN_EXE_rdt"))
        .args([
            "torture", "-n", "4", "--events", "80", "-S", "7", "--gc", "time:1", "--json",
        ])
        .output()
        .expect("spawning rdt");
    assert_eq!(output.status.code(), Some(1), "a one-tick collector fails");
    let doc = json::parse(&String::from_utf8(output.stdout).unwrap()).unwrap();
    let count = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap();
    let Some(JsonValue::Arr(failures)) = doc.get("failures") else {
        panic!("no failures list: {doc:?}")
    };
    let judged = 1 + count("crash_points_tested") + count("fault_plans_tested");
    let stderr = String::from_utf8(output.stderr).unwrap();
    let expected = format!(
        "{} of {judged} runs violated the crash-consistency contract",
        failures.len()
    );
    assert!(stderr.contains(&expected), "{stderr:?} lacks {expected:?}");
    assert!(
        failures
            .iter()
            .any(|f| f.as_str().is_some_and(|f| f.starts_with("reference run"))),
        "the reference run fails too, and is counted: {failures:?}"
    );
}
