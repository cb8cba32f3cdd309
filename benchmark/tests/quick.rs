//! Keeps the benchmark from rotting between uses: every workload runs in
//! `--quick` mode through the real binary, and what it prints is held
//! against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rdt_obs::json::{self, JsonValue};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn contract() -> JsonValue {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).unwrap();
    json::parse(&text).unwrap()
}

/// The `key` field of every entry of one of `BENCHMARK.json`'s lists.
fn declared(contract: &JsonValue, list: &str, key: &str) -> Vec<String> {
    let Some(JsonValue::Arr(entries)) = contract.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    entries
        .iter()
        .map(|e| e.get(key).and_then(JsonValue::as_str).unwrap().to_string())
        .collect()
}

/// The workloads `BENCHMARK.json` lists, plus the one the runner knows and
/// the contract cannot hold (see `README.md`).
fn workloads(contract: &JsonValue) -> Vec<String> {
    let mut names = declared(contract, "workloads", "name");
    names.push("durable-commit".into());
    names
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rdt-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// The contract's result: the last line of standard output.
fn result(output: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn metric_units(result: &JsonValue) -> Vec<(String, String)> {
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        panic!("result has no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(
                    m.get("value"),
                    Some(JsonValue::Num(_) | JsonValue::UInt(_) | JsonValue::Int(_))
                ),
                "{name} has no numeric value"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap();
            (name.clone(), unit.to_string())
        })
        .collect()
}

/// `name → unit` as `BENCHMARK.json` declares it.
fn declared_units(contract: &JsonValue, list: &str) -> Vec<(String, String)> {
    declared(contract, list, "name")
        .into_iter()
        .zip(declared(contract, list, "unit"))
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let contract = contract();
    for workload in workloads(&contract) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = bench(&["--workload", &workload, "--quick", "--trace", trace]);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let result = result(&output);
            let keys: Vec<&str> = match &result {
                JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("result is not an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
            // Same names, same units, same order as the contract file.
            assert_eq!(
                metric_units(&result),
                declared_units(&contract, list),
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in workloads(&contract()) {
        let result = result(&bench(&["--workload", &workload, "--quick"]));
        let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics");
        };
        for (name, m) in metrics {
            assert!(
                !matches!(m.get("value"), Some(JsonValue::UInt(0)))
                    && m.get("value") != Some(&JsonValue::Num(0.0)),
                "{workload}: {name} is zero"
            );
        }
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = manifest_dir().join(".work");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

#[test]
fn a_wrong_expected_fingerprint_fails_the_run() {
    let wrong = scratch("wrong-expected.json");
    std::fs::write(
        &wrong,
        r#"{"seed":1,"quick":{"sim-dense":"00000000deadbeef","sim-sharded":"00000000deadbeef"}}"#,
    )
    .unwrap();
    for workload in ["sim-dense", "sim-sharded"] {
        let output = bench(&[
            "--workload",
            workload,
            "--quick",
            "--expected",
            wrong.to_str().unwrap(),
        ]);
        assert!(
            !output.status.success(),
            "{workload} accepted a wrong fingerprint"
        );
        let result = result(&output);
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)));
        let failed = result.get("failed").and_then(JsonValue::as_u64).unwrap();
        let attempted = result.get("attempted").and_then(JsonValue::as_u64).unwrap();
        assert!(failed > 0 && failed <= attempted);
        assert!(String::from_utf8_lossy(&output.stderr).contains("expected.json"));
    }
    // Another seed has no pinned fingerprint and passes on the invariants.
    let output = bench(&[
        "--workload",
        "sim-dense",
        "--quick",
        "--seed",
        "2",
        "--expected",
        wrong.to_str().unwrap(),
    ]);
    assert!(output.status.success());
    std::fs::remove_file(wrong).unwrap();
}

/// The field at `path` of a JSON object, for overwriting.
fn field<'a>(value: &'a mut JsonValue, path: &[&str]) -> &'a mut JsonValue {
    path.iter().fold(value, |value, key| {
        let JsonValue::Obj(fields) = value else {
            panic!("{key}: not inside an object");
        };
        let (_, inner) = fields
            .iter_mut()
            .find(|(name, _)| name == key)
            .unwrap_or_else(|| panic!("no field {key}"));
        inner
    })
}

/// `records` with `edit` applied to every record line (the contract's
/// result lines between them are left alone).
fn doctored(records: &str, edit: impl Fn(&mut JsonValue)) -> String {
    records
        .lines()
        .map(|line| {
            let mut record = json::parse(line).unwrap();
            if record.get("workload").is_some() {
                edit(&mut record);
            }
            record.to_string() + "\n"
        })
        .collect()
}

#[test]
fn compare_accepts_a_set_against_itself_and_flags_what_went_wrong() {
    let (a, b) = (scratch("a.jsonl"), scratch("b.jsonl"));
    let mut records = String::new();
    for trace in ["0", "1"] {
        let output = bench(&["--workload", "durable-restart", "--quick", "--trace", trace]);
        assert!(output.status.success());
        records += &String::from_utf8_lossy(&output.stdout);
    }
    std::fs::write(&a, &records).unwrap();
    let compare = |b_records: String| {
        std::fs::write(&b, b_records).unwrap();
        let output = bench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
        let table = String::from_utf8_lossy(&output.stdout).to_string();
        (output.status.success(), table)
    };

    let (ok, table) = compare(records.clone());
    assert!(ok, "{table}");
    assert!(table.contains("durable-restart"), "{table}");

    // The throughput halved and one exact count changed: one breach, one
    // differing count.
    let (ok, table) = compare(doctored(&records, |record| {
        if record.get("trace") == Some(&JsonValue::Bool(true)) {
            *field(record, &["metrics", "storage.restart.loaded", "value"]) = JsonValue::UInt(999);
        } else {
            let value = field(record, &["metrics", "ops_per_s", "value"]);
            let JsonValue::Num(x) = *value else {
                panic!("ops_per_s is not a number");
            };
            *value = JsonValue::Num(x / 2.0);
        }
    }));
    assert!(!ok, "{table}");
    assert!(table.contains("BREACH"), "{table}");
    assert!(table.contains("DIFFERS"), "{table}");

    // A run that failed its checks: operations failed and, every repetition
    // being wrong, no number to print.
    let (ok, table) = compare(doctored(&records, |record| {
        *field(record, &["failed"]) = JsonValue::UInt(3);
        *field(record, &["correct"]) = JsonValue::Bool(false);
    }));
    assert!(!ok, "{table}");
    assert!(table.contains("FAILED"), "{table}");
    let (ok, table) = compare(doctored(&records, |record| {
        if record.get("trace") == Some(&JsonValue::Bool(false)) {
            *field(record, &["metrics", "ops_per_s", "value"]) = JsonValue::Null;
        }
    }));
    assert!(!ok, "{table}");
    assert!(table.contains("BREACH"), "{table}");

    // A workload the second set did not run at all.
    let (ok, table) = compare(String::new());
    assert!(!ok, "{table}");
    assert!(table.contains("BREACH"), "{table}");

    for path in [a, b] {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn malformed_invocations_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "sim-dense", "--trace", "2"][..],
        &["--seed"][..],
        &[][..],
    ] {
        let output = bench(args);
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
