//! `compare <a.jsonl> <b.jsonl>`: holds two result sets (files of the
//! runner's captured standard output, one run after another) against the
//! bounds in `BENCHMARK.json`.
//!
//! One row per (workload, end-to-end metric) with both sides' medians over
//! their runs and the ratio b / a. A row is a BREACH when b is worse than a
//! by more than the metric's bound or does not have the metric at all, and
//! "unresolved" when it is not but either side's spread exceeds the bound —
//! the data cannot tell. The spread is the quartile spread over a side's
//! runs, or over the repetitions of its one run when that is all it has.
//! A run that reported failed operations on either side is FAILED. Exact
//! counts of traced records must be identical for the same workload, seed
//! and size. Exits non-zero on any of these.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use rdt_obs::json::{self, JsonValue};

use crate::harness::EXACT;
use crate::stats::{median, quartile_spread};

fn as_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Num(x) => Some(*x),
        JsonValue::UInt(x) => Some(*x as f64),
        JsonValue::Int(x) => Some(*x as f64),
        _ => None,
    }
}

/// One side's runs of one (workload, end-to-end metric).
#[derive(Default)]
struct Runs {
    /// Each run's value.
    values: Vec<f64>,
    /// The runs' per-repetition samples, pooled.
    pooled: Vec<f64>,
    /// Runs that printed no number for the metric.
    missing: usize,
}

/// One side's results.
#[derive(Default)]
struct ResultSet {
    runs: BTreeMap<(String, String), Runs>,
    /// (workload, seed, quick) of every traced record, and its exact counts.
    traced: BTreeMap<(String, u64, bool), BTreeMap<String, f64>>,
    /// Runs that reported failed operations, described.
    failed: Vec<String>,
}

fn load(path: &Path, end_to_end: &BTreeMap<String, (bool, f64)>) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = ResultSet::default();
    for (lineno, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), lineno + 1);
        let record = json::parse(line).map_err(|e| bad(&e))?;
        let Some(workload) = record.get("workload").and_then(JsonValue::as_str) else {
            // The contract's result line repeats what the record before it
            // says; anything else does not belong in the file.
            if record.get("attempted").is_some() {
                continue;
            }
            return Err(bad("neither a record nor a result line"));
        };
        let traced = record.get("trace") == Some(&JsonValue::Bool(true));
        let seed = record.get("seed").and_then(JsonValue::as_u64).unwrap_or(0);
        let quick = record.get("quick") == Some(&JsonValue::Bool(true));
        let failed = record.get("failed").and_then(JsonValue::as_u64);
        if failed != Some(0) || record.get("correct") != Some(&JsonValue::Bool(true)) {
            set.failed.push(format!(
                "{}: {workload} seed {seed}: {} operations failed",
                path.display(),
                failed.map_or("unknown".into(), |f| f.to_string())
            ));
        }
        let Some(metrics) = record.get("metrics") else {
            return Err(bad("record has no metrics"));
        };
        if traced {
            let exact = EXACT.iter().filter_map(|name| {
                let value = metrics.get(name)?.get("value").and_then(as_f64)?;
                Some((name.to_string(), value))
            });
            set.traced
                .insert((workload.to_string(), seed, quick), exact.collect());
            continue;
        }
        // A run whose checks all failed has no number to print (`null`).
        for name in end_to_end.keys() {
            let runs = set
                .runs
                .entry((workload.to_string(), name.clone()))
                .or_default();
            let metric = metrics.get(name);
            match metric.and_then(|m| m.get("value")).and_then(as_f64) {
                Some(value) => runs.values.push(value),
                None => runs.missing += 1,
            }
            if let Some(JsonValue::Arr(samples)) = metric.and_then(|m| m.get("samples")) {
                runs.pooled.extend(samples.iter().filter_map(as_f64));
            }
        }
    }
    Ok(set)
}

/// `name → (lower is better, bound)` from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (bool, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(JsonValue::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let better = m.get("better").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => {
                    Ok((name.to_string(), (better == "lower", bound)))
                }
                _ => Err("BENCHMARK.json: malformed end_to_end entry".to_string()),
            }
        })
        .collect()
}

/// Compares result set `b` against base `a`.
pub fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let bounds = bounds()?;
    let (a, b) = (load(a, &bounds)?, load(b, &bounds)?);
    let mut bad = false;

    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "spread", "bound"
    );
    let spread = |runs: &Runs| {
        let over = if runs.values.len() > 1 {
            &runs.values
        } else {
            &runs.pooled
        };
        quartile_spread(over).unwrap_or(0.0)
    };
    let none = Runs::default();
    for (key @ (workload, metric), base) in &a.runs {
        let (lower_better, bound) = bounds[metric];
        let new = b.runs.get(key).unwrap_or(&none);
        if base.values.is_empty() || base.missing > 0 || new.values.is_empty() || new.missing > 0 {
            bad = true;
            println!(
                "{workload:<16} {metric:<12} {} of {} runs in a and {} of {} in b have no value  BREACH",
                base.missing,
                base.missing + base.values.len(),
                new.missing,
                new.missing + new.values.len()
            );
            continue;
        }
        let (ma, mb) = (median(&base.values), median(&new.values));
        let worse_by = if lower_better {
            mb / ma - 1.0
        } else {
            1.0 - mb / ma
        };
        let spread = spread(base).max(spread(new));
        let verdict = if worse_by > bound {
            bad = true;
            "BREACH"
        } else if spread > bound {
            "unresolved"
        } else {
            "ok"
        };
        println!(
            "{workload:<16} {metric:<12} {ma:>14.4} {mb:>14.4} {:>9.4} {:>6.1}% {:>6.1}%  {verdict}",
            mb / ma,
            spread * 100.0,
            bound * 100.0
        );
    }

    for failure in a.failed.iter().chain(&b.failed) {
        bad = true;
        println!("{failure}  FAILED");
    }

    for (key @ (workload, seed, _), base) in &a.traced {
        let Some(new) = b.traced.get(key) else {
            continue;
        };
        for (metric, va) in base {
            let vb = new.get(metric);
            if vb != Some(va) {
                bad = true;
                let vb = vb.map_or("nothing".into(), |v| v.to_string());
                println!("{workload:<16} {metric} differs for seed {seed}: {va} vs {vb}  DIFFERS");
            }
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
