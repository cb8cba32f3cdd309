//! The repository's benchmark runner. One invocation runs one workload for
//! one `--seed` in one process:
//!
//! ```text
//! rdt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--quick] [--expected <file>]
//! rdt-benchmark compare <a.jsonl> <b.jsonl>
//! rdt-benchmark bless
//! ```
//!
//! The last line of standard output is the result the benchmark contract
//! asks for; the line before it is the full record (host, commit, command,
//! per-repetition samples). `compare` reads files of such output, one run
//! appended after another. See `README.md` for what each workload and
//! metric is for.

mod compare;
mod durable;
mod harness;
mod host;
mod live;
mod sims;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rdt_obs::json::{self, JsonValue};

use harness::{derive_seed, Layers, Mode, Rep, Workload, END_TO_END, PER_LAYER};
use stats::median;

/// Every workload, in the order `BENCHMARK.json` lists them (all but
/// `durable-commit`, which it leaves out: see `README.md`), with the
/// seconds one repetition (set-up, timed body, check) took on the host the
/// first numbers were recorded on. A run makes `--seconds` / that many
/// repetitions: a count fixed by the arguments, not by how fast this build
/// happens to be, so both sides of a comparison pick their best repetition
/// from the same number of draws.
const WORKLOADS: [(&str, f64); 7] = [
    ("sim-dense", 0.77),
    ("sim-wide", 0.36),
    ("sim-sharded", 0.76),
    ("sim-crashy", 1.1),
    ("durable-commit", 1.9),
    ("durable-restart", 0.2),
    ("live-uds", 1.28),
];

/// Repetitions of a run that is to measure for `seconds`. A traced run
/// makes every repetition plain and traced, and the traced body of the
/// sequential simulator is two runs.
fn repetitions(workload: &str, seconds: f64, trace: bool, quick: bool) -> u64 {
    let (_, rep_s) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .expect("name was validated");
    let bodies = if trace { 3.0 } else { 1.0 };
    match quick {
        true => 1,
        false => (seconds / (rep_s * bodies)).ceil().max(1.0) as u64,
    }
}

/// The seed `expected.json` pins fingerprints for.
const DEFAULT_SEED: u64 = 1;

fn workload(name: &str, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim-dense" => Box::new(sims::SimCase::dense(quick)),
        "sim-wide" => Box::new(sims::SimCase::wide(quick)),
        "sim-sharded" => Box::new(sims::SimCase::sharded(quick)),
        "sim-crashy" => Box::new(sims::SimCase::crashy(quick)),
        "durable-commit" => Box::new(durable::DurableCommit::new(quick)),
        "durable-restart" => Box::new(durable::DurableRestart::new(quick)),
        "live-uds" => Box::new(live::LiveUds::new(quick)),
        _ => return None,
    })
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    expected: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
        expected: Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.to_string(),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => parsed.quick = true,
            "--expected" => parsed.expected = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == parsed.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

/// The fingerprint `expected.json` pins for the first repetition of
/// `workload` at this size, when `seed` is the one it was recorded for.
fn pinned(path: &Path, workload: &str, quick: bool, seed: u64) -> Result<Option<u64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("seed").and_then(JsonValue::as_u64) != Some(seed) {
        return Ok(None);
    }
    let size = if quick { "quick" } else { "full" };
    match doc.get(size).and_then(|s| s.get(workload)) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .map(Some)
            .ok_or_else(|| {
                format!(
                    "{}: {size}/{workload} is not a hex fingerprint",
                    path.display()
                )
            }),
    }
}

/// One reported metric: its value and the per-repetition samples behind it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
    /// Measurements behind the value (latency samples for a percentile,
    /// repetitions otherwise).
    n: u64,
}

impl Metric {
    fn new(
        name: &'static str,
        unit: &'static str,
        samples: Vec<f64>,
        pick: fn(&[f64]) -> f64,
    ) -> Self {
        Metric {
            name,
            unit,
            value: pick(&samples),
            n: samples.len() as u64,
            samples,
        }
    }
}

fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The end-to-end metrics over the repetitions whose checks passed.
///
/// Times are those of the least-disturbed repetition (lowest set-up time,
/// highest throughput), not the median one: on a shared host interference
/// only ever slows a repetition down, and here it comes in phases longer
/// than a repetition, which a median follows and a minimum mostly escapes.
/// The number of repetitions it is taken over is fixed by the arguments
/// (see [`repetitions`]). Memory is the process's high-water mark at exit.
fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let good: Vec<&Rep> = reps.iter().filter(|r| r.failure.is_none()).collect();
    let unit = |name| unit_of(&END_TO_END, name);
    let of = |name, pick: fn(&[f64]) -> f64, sample: fn(&Rep) -> f64| {
        Metric::new(
            name,
            unit(name),
            good.iter().map(|r| sample(r)).collect(),
            pick,
        )
    };
    vec![
        of("setup_s", lowest, |r| r.setup_s),
        of("ops_per_s", highest, |r| r.ops as f64 / r.wall_s),
        Metric::new(
            "peak_rss_mb",
            unit("peak_rss_mb"),
            vec![host::peak_rss_mb()],
            lowest,
        ),
    ]
}

/// Per-repetition samples of every layer figure the repetitions whose
/// checks passed reported: timings inside from the traced ones, latency
/// percentiles from the plain ones.
fn layer_samples(plain: &[Rep], traced: &[Rep]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in plain.iter().chain(traced).filter(|r| r.failure.is_none()) {
        for (name, value) in &rep.layers {
            samples.entry(name).or_default().push(*value);
        }
    }
    samples
}

/// The per-layer metrics: medians of the repetitions' figures, the first
/// repetition's exact counts, the probes, and the cost of tracing.
fn per_layer(
    plain: &[Rep],
    traced: &[Rep],
    mut samples: BTreeMap<&'static str, Vec<f64>>,
    probes: Layers,
) -> Result<Vec<Metric>, String> {
    if let Some(first) = traced.first() {
        samples.extend(first.exact.iter().map(|(name, v)| (*name, vec![*v])));
    }
    samples.extend(probes.into_iter().map(|(name, v)| (name, vec![v])));

    // A ratio between the two kinds of repetition is the median over the
    // indices of traced / plain: the two bodies of one index run back to
    // back, so a slow phase of the host slows both.
    let paired = |of: fn(&Rep) -> f64| {
        let ratios: Vec<f64> = plain
            .iter()
            .zip(traced)
            .filter(|(p, t)| p.failure.is_none() && t.failure.is_none() && of(p) > 0.0)
            .map(|(p, t)| of(t) / of(p))
            .collect();
        (!ratios.is_empty()).then(|| median(&ratios))
    };
    if let Some(ratio) = paired(|r| r.wall_s) {
        samples.insert("obs.profile_overhead_pct", vec![(ratio - 1.0) * 100.0]);
    }
    if let Some(ratio) = paired(|r| r.whole_or_parts_s) {
        samples.insert("bench.parts_over_whole", vec![ratio]);
    }
    samples.insert("bench.reps", vec![traced.len() as f64]);
    let op_samples: u64 = plain.iter().map(|r| r.op_samples).sum();
    samples.insert("bench.op_samples", vec![op_samples as f64]);

    if let Some(stray) = samples
        .keys()
        .find(|name| !PER_LAYER.iter().any(|(known, _)| known == *name))
    {
        return Err(format!("workload reported undeclared metric {stray}"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples = samples.remove(name).unwrap_or_else(|| vec![0.0]);
            let mut metric = Metric::new(name, unit, samples, median);
            // A latency percentile stands on the operations timed, not on
            // the repetitions it is the median of.
            if plain.iter().any(|r| r.layers.contains_key(name)) {
                metric.n = op_samples;
            }
            metric
        })
        .collect())
}

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `{name: {"value", "unit"}}` as the contract's result line wants it; with
/// `full`, also the sample count and the per-repetition samples.
fn metrics_json(metrics: &[Metric], full: bool) -> JsonValue {
    let one = |m: &Metric| {
        let mut fields = vec![
            ("value", num(m.value)),
            ("unit", JsonValue::Str(m.unit.into())),
        ];
        if full {
            fields.push(("n", JsonValue::UInt(m.n)));
            fields.push((
                "samples",
                JsonValue::Arr(m.samples.iter().copied().map(num).collect()),
            ));
        }
        obj(fields)
    };
    obj(metrics.iter().map(|m| (m.name, one(m))).collect())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let mut w = workload(&args.workload, args.quick).expect("name was validated");
    let pinned = pinned(&args.expected, &args.workload, args.quick, args.seed)?;
    std::fs::create_dir_all(host::work_root()).map_err(|e| format!("creating .work: {e}"))?;

    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for k in 0..repetitions(&args.workload, args.seconds, args.trace, args.quick) {
        // Only a host several times slower than the reference one gets
        // here: give up repetitions rather than outlast the caller's limit.
        if start.elapsed().as_secs_f64() > 3.0 * args.seconds {
            break;
        }
        let seed = derive_seed(args.seed, k);
        let expected = if k == 0 { pinned } else { None };
        // Whichever body runs second finds the caches and the allocator
        // warm, so the two take turns.
        if args.trace && k % 2 == 1 {
            traced.push(w.rep(seed, Mode::Traced, expected));
        }
        plain.push(w.rep(seed, Mode::Plain, expected));
        if args.trace && k % 2 == 0 {
            traced.push(w.rep(seed, Mode::Traced, expected));
        }
    }

    let mut failures: Vec<String> = plain
        .iter()
        .chain(&traced)
        .filter_map(|r| r.failure.clone())
        .collect();
    let metrics = if args.trace {
        let samples = layer_samples(&plain, &traced);
        let medians: Layers = samples.iter().map(|(name, v)| (*name, median(v))).collect();
        let probes = w
            .probes(derive_seed(args.seed, 0), &medians)
            .unwrap_or_else(|why| {
                failures.push(why);
                Layers::new()
            });
        per_layer(&plain, &traced, samples, probes)?
    } else {
        end_to_end(&plain)
    };
    drop(w);

    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.ops.max(1)).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.failed).sum();
    let failed = failed.max(failures.len() as u64);
    let correct = failed == 0;

    let verdict = [
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::UInt(attempted)),
        ("failed", JsonValue::UInt(failed)),
    ];
    let mut record = vec![
        ("workload", JsonValue::Str(args.workload.clone())),
        ("seed", JsonValue::UInt(args.seed)),
        ("trace", JsonValue::Bool(args.trace)),
        ("quick", JsonValue::Bool(args.quick)),
        ("seconds", num(args.seconds)),
        ("reps", JsonValue::UInt(plain.len() as u64)),
    ];
    record.extend(host::provenance());
    record.extend(verdict.clone());
    record.push((
        "failures",
        JsonValue::Arr(failures.iter().cloned().map(JsonValue::Str).collect()),
    ));
    record.push(("metrics", metrics_json(&metrics, true)));
    let record = obj(record).to_string();

    let mut result = verdict.to_vec();
    result.push(("metrics", metrics_json(&metrics, false)));
    for why in &failures {
        eprintln!("{}: FAILED: {why}", args.workload);
    }
    println!("{record}");
    println!("{}", obj(result).to_string());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Re-records `expected.json`: the first repetition's fingerprint of every
/// simulator workload at both sizes, for [`DEFAULT_SEED`]. Only for an
/// intentional change of the simulator's semantics.
fn bless() -> Result<ExitCode, String> {
    let seed = derive_seed(DEFAULT_SEED, 0);
    let mut sizes = Vec::new();
    for (size, quick) in [("full", false), ("quick", true)] {
        let mut pins = Vec::new();
        for (name, _) in WORKLOADS.iter().filter(|(n, _)| n.starts_with("sim-")) {
            let rep = workload(name, quick)
                .expect("listed workload")
                .rep(seed, Mode::Plain, None);
            if let Some(why) = rep.failure {
                return Err(format!("{name} ({size}): {why}"));
            }
            let fp = rep
                .fingerprint
                .ok_or_else(|| format!("{name}: no fingerprint"))?;
            pins.push((*name, JsonValue::Str(format!("{fp:016x}"))));
        }
        sizes.push((size, obj(pins)));
    }
    let mut doc = vec![("seed", JsonValue::UInt(DEFAULT_SEED))];
    doc.extend(sizes);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    let text = obj(doc).to_string().replace("},", "},\n ") + "\n";
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err("usage: compare <a.jsonl> <b.jsonl>".into()),
        },
        Some("bless") => bless(),
        _ => parse_args(&args).and_then(|parsed| run(&parsed)),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("rdt-benchmark: {why}");
        ExitCode::from(2)
    })
}
