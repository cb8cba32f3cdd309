//! Zero-cost-when-disabled phase profiling: scoped timers, counters and
//! fixed-bucket latency histograms.
//!
//! A [`Profiler`] is a thread-local accumulator: each engine worker owns one
//! and records into it without synchronization, then the coordinator
//! [`merge_suffixed`](ProfileReport::merge_suffixed)s the per-shard reports
//! under `…/<shard>` keys. When disabled, [`Profiler::start`] returns `None`
//! without reading the clock, so the hot path pays one branch per phase.
//!
//! Timing never touches the simulation's RNG or event queue — the profiler
//! observes wall-clock time around deterministic work, so replay goldens
//! stay byte-identical with profiling on (asserted by
//! `crates/sim/tests/obs_equiv.rs`).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::JsonValue;

/// Power-of-two latency buckets: bucket `i` counts durations `d` (ns) with
/// `floor(log2(max(d, 1))) == i`, i.e. `[2^i, 2^(i+1))` ns, with 0 ns in
/// bucket 0 and everything ≥ 2^31 ns (~2.1 s) clamped into the last bucket.
pub const HIST_BUCKETS: usize = 32;

/// Bucket index for a duration in nanoseconds.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns <= 1 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound (ns) of bucket `i`, for exposition `le` labels.
/// The last bucket is unbounded (`u64::MAX`).
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Accumulated statistics for one named phase: count, total, min/max and a
/// fixed power-of-two histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of recorded intervals.
    pub count: u64,
    /// Sum of recorded durations, ns.
    pub total_ns: u64,
    /// Shortest recorded duration, ns (`u64::MAX` while empty).
    pub min_ns: u64,
    /// Longest recorded duration, ns.
    pub max_ns: u64,
    /// Power-of-two latency histogram; see [`bucket_of`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for PhaseStats {
    fn default() -> Self {
        PhaseStats {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl PhaseStats {
    /// Records one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_of(ns)] += 1;
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean duration in ns (0 while empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    fn to_json(&self) -> JsonValue {
        let mut obj = vec![
            ("count".to_string(), JsonValue::UInt(self.count)),
            ("total_ns".to_string(), JsonValue::UInt(self.total_ns)),
            (
                "min_ns".to_string(),
                JsonValue::UInt(if self.count == 0 { 0 } else { self.min_ns }),
            ),
            ("max_ns".to_string(), JsonValue::UInt(self.max_ns)),
            ("mean_ns".to_string(), JsonValue::UInt(self.mean_ns())),
        ];
        // Sparse histogram: only non-empty buckets, as [upper_bound_ns, n].
        let hist: Vec<JsonValue> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                JsonValue::Arr(vec![
                    JsonValue::UInt(bucket_upper_ns(i)),
                    JsonValue::UInt(*n),
                ])
            })
            .collect();
        obj.push(("hist".to_string(), JsonValue::Arr(hist)));
        JsonValue::Obj(obj)
    }
}

/// A merged profile: named phase timings plus named counters. Phase names
/// are `/`-separated paths (`engine/drain`, `shard/barrier_wait/3`); the
/// per-shard suffix is appended by [`merge_suffixed`](Self::merge_suffixed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Phase timings, keyed by phase path.
    pub phases: BTreeMap<String, PhaseStats>,
    /// Monotonic counters, keyed by name.
    pub counters: BTreeMap<String, u64>,
}

impl ProfileReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulator for `phase`, created on first use.
    pub fn phase_mut(&mut self, phase: &str) -> &mut PhaseStats {
        if !self.phases.contains_key(phase) {
            self.phases.insert(phase.to_string(), PhaseStats::default());
        }
        self.phases.get_mut(phase).expect("just inserted")
    }

    /// The accumulator for `phase`, if any interval was recorded.
    pub fn phase(&self, phase: &str) -> Option<&PhaseStats> {
        self.phases.get(phase)
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Folds `other` into this report key-by-key.
    pub fn merge(&mut self, other: &ProfileReport) {
        for (name, stats) in &other.phases {
            self.phase_mut(name).merge(stats);
        }
        for (name, delta) in &other.counters {
            self.add(name, *delta);
        }
    }

    /// Folds `other` in with `/{suffix}` appended to every key — how the
    /// coordinator namespaces per-shard worker reports (`shard/drain` from
    /// worker 2 lands as `shard/drain/2`) — and *also* into the un-suffixed
    /// key, so `shard/drain` on the coordinator is the global total across
    /// workers. Without the global fold, worker series whose names collide
    /// with coordinator-side series were silently dropped from the totals.
    pub fn merge_suffixed(&mut self, other: &ProfileReport, suffix: &str) {
        for (name, stats) in &other.phases {
            self.phase_mut(&format!("{name}/{suffix}")).merge(stats);
            self.phase_mut(name).merge(stats);
        }
        for (name, delta) in &other.counters {
            self.add(&format!("{name}/{suffix}"), *delta);
            self.add(name, *delta);
        }
    }

    /// The report as a JSON object:
    /// `{"phases":{<path>:{count,total_ns,min_ns,max_ns,mean_ns,hist}},"counters":{<name>:n}}`.
    pub fn to_json(&self) -> JsonValue {
        let phases = self
            .phases
            .iter()
            .map(|(name, stats)| (name.clone(), stats.to_json()))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), JsonValue::UInt(*v)))
            .collect();
        JsonValue::Obj(vec![
            ("phases".to_string(), JsonValue::Obj(phases)),
            ("counters".to_string(), JsonValue::Obj(counters)),
        ])
    }

    /// The report in Prometheus text exposition format. Phase timings
    /// become `rdt_phase_ns_total` / `rdt_phase_count_total` series labelled
    /// by phase path; counters become `rdt_counter_total` labelled by name;
    /// histograms become cumulative `rdt_phase_latency_ns_bucket` series
    /// with power-of-two `le` bounds. Label values are escaped per the
    /// exposition format (`\\`, `\"`, `\n`).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# HELP rdt_phase_ns_total Total wall-clock time spent in each phase.\n");
        out.push_str("# TYPE rdt_phase_ns_total counter\n");
        for (name, stats) in &self.phases {
            let _ = writeln!(
                out,
                "rdt_phase_ns_total{{phase=\"{}\"}} {}",
                escape_label_value(name),
                stats.total_ns
            );
        }
        out.push_str("# HELP rdt_phase_count_total Number of recorded intervals per phase.\n");
        out.push_str("# TYPE rdt_phase_count_total counter\n");
        for (name, stats) in &self.phases {
            let _ = writeln!(
                out,
                "rdt_phase_count_total{{phase=\"{}\"}} {}",
                escape_label_value(name),
                stats.count
            );
        }
        out.push_str("# HELP rdt_phase_latency_ns Per-phase latency, power-of-two buckets.\n");
        out.push_str("# TYPE rdt_phase_latency_ns histogram\n");
        for (name, stats) in &self.phases {
            let name = escape_label_value(name);
            let mut cumulative = 0u64;
            for (i, n) in stats.buckets.iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                cumulative += n;
                let le = bucket_upper_ns(i);
                let le = if le == u64::MAX {
                    "+Inf".to_string()
                } else {
                    le.to_string()
                };
                let _ = writeln!(
                    out,
                    "rdt_phase_latency_ns_bucket{{phase=\"{name}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "rdt_phase_latency_ns_sum{{phase=\"{name}\"}} {}",
                stats.total_ns
            );
            let _ = writeln!(
                out,
                "rdt_phase_latency_ns_count{{phase=\"{name}\"}} {}",
                stats.count
            );
        }
        out.push_str("# HELP rdt_counter_total Monotonic event counters.\n");
        out.push_str("# TYPE rdt_counter_total counter\n");
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "rdt_counter_total{{name=\"{}\"}} {v}",
                escape_label_value(name)
            );
        }
        out
    }

    /// Parses a report back out of the exposition text written by
    /// [`to_prometheus`](Self::to_prometheus) — how the serve coordinator
    /// re-aggregates worker `.prom` dumps and how `obs_check` validates
    /// them. Histogram buckets are reconstructed from the cumulative
    /// `_bucket` series; per-phase `min_ns`/`max_ns` are not carried by the
    /// exposition format and come back as the empty-accumulator defaults.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line, unknown
    /// metric family, mis-aligned bucket bound, or cumulative-count
    /// inconsistency.
    pub fn from_prometheus(text: &str) -> Result<ProfileReport, String> {
        let mut report = ProfileReport::new();
        // phase -> (cumulative count so far, expected final count, total)
        let mut hist_done: BTreeMap<String, u64> = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                let mut words = comment.split_whitespace();
                match words.next() {
                    Some("HELP") | Some("TYPE") if words.next().is_none() => {
                        return Err(err("comment names no metric"));
                    }
                    _ => {} // free-form comment, or a named metric
                }
                continue;
            }
            let (metric, labels, value) = split_sample(line).ok_or_else(|| err("bad sample"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| err("sample value is not a u64"))?;
            match metric {
                "rdt_phase_ns_total" => {
                    let phase = single_label(labels, "phase").ok_or_else(|| err("bad labels"))?;
                    report.phase_mut(&phase).total_ns = value;
                }
                "rdt_phase_count_total" => {
                    let phase = single_label(labels, "phase").ok_or_else(|| err("bad labels"))?;
                    report.phase_mut(&phase).count = value;
                }
                "rdt_phase_latency_ns_bucket" => {
                    let (phase, le) =
                        pair_labels(labels, "phase", "le").ok_or_else(|| err("bad labels"))?;
                    let idx = if le == "+Inf" {
                        HIST_BUCKETS - 1
                    } else {
                        let bound: u64 =
                            le.parse().map_err(|_| err("le bound is not a number"))?;
                        let idx = bucket_of(bound);
                        if bucket_upper_ns(idx) != bound {
                            return Err(err("le bound is not a bucket upper bound"));
                        }
                        idx
                    };
                    let prior = hist_done.get(&phase).copied().unwrap_or(0);
                    let n = value
                        .checked_sub(prior)
                        .ok_or_else(|| err("bucket series is not cumulative"))?;
                    report.phase_mut(&phase).buckets[idx] += n;
                    hist_done.insert(phase, value);
                }
                "rdt_phase_latency_ns_sum" => {
                    let phase = single_label(labels, "phase").ok_or_else(|| err("bad labels"))?;
                    let stats = report.phase_mut(&phase);
                    if stats.total_ns != 0 && stats.total_ns != value {
                        return Err(err("histogram sum disagrees with rdt_phase_ns_total"));
                    }
                    stats.total_ns = value;
                }
                "rdt_phase_latency_ns_count" => {
                    let phase = single_label(labels, "phase").ok_or_else(|| err("bad labels"))?;
                    let stats = report.phase_mut(&phase);
                    if stats.count != 0 && stats.count != value {
                        return Err(err("histogram count disagrees with rdt_phase_count_total"));
                    }
                    stats.count = value;
                }
                "rdt_counter_total" => {
                    let name = single_label(labels, "name").ok_or_else(|| err("bad labels"))?;
                    report.add(&name, value);
                }
                other => return Err(format!("line {}: unknown metric {other}", lineno + 1)),
            }
        }
        for (phase, stats) in &report.phases {
            let in_buckets: u64 = stats.buckets.iter().sum();
            if in_buckets != stats.count {
                return Err(format!(
                    "phase {phase}: buckets hold {in_buckets} samples but count is {}",
                    stats.count
                ));
            }
        }
        Ok(report)
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote and newline.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_label_value`]. `None` on a dangling or unknown escape.
fn unescape_label_value(value: &str) -> Option<String> {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            'n' => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

/// Splits one sample line into `(metric, label_body, value)`. The label
/// body is the text between `{` and the matching un-escaped `}`.
fn split_sample(line: &str) -> Option<(&str, &str, &str)> {
    let brace = line.find('{')?;
    let metric = &line[..brace];
    let rest = &line[brace + 1..];
    // Find the closing brace outside any quoted label value.
    let mut in_quotes = false;
    let mut escaped = false;
    let mut close = None;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => {
                close = Some(i);
                break;
            }
            _ => {}
        }
    }
    let close = close?;
    let labels = &rest[..close];
    let value = rest[close + 1..].trim();
    if metric.is_empty() || value.is_empty() {
        return None;
    }
    Some((metric, labels, value))
}

/// Parses `name="value"` label pairs (escaped values allowed).
fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].strip_prefix('"')?;
        // Scan to the closing un-escaped quote.
        let mut escaped = false;
        let mut end = None;
        for (i, c) in after.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let end = end?;
        let value = unescape_label_value(&after[..end])?;
        out.push((key, value));
        rest = after[end + 1..].trim_start_matches(',').trim_start();
    }
    Some(out)
}

/// The value of the single expected label, or `None` on any other shape.
fn single_label(body: &str, key: &str) -> Option<String> {
    let labels = parse_labels(body)?;
    match labels.as_slice() {
        [(k, v)] if k == key => Some(v.clone()),
        _ => None,
    }
}

/// The values of exactly the two expected labels, in either order.
fn pair_labels(body: &str, first: &str, second: &str) -> Option<(String, String)> {
    let labels = parse_labels(body)?;
    if labels.len() != 2 {
        return None;
    }
    let a = labels.iter().find(|(k, _)| k == first)?.1.clone();
    let b = labels.iter().find(|(k, _)| k == second)?.1.clone();
    Some((a, b))
}

/// Whether the `RDT_PROFILE` environment variable requests profiling
/// (any value except unset, empty, or `0`).
pub fn env_enabled() -> bool {
    std::env::var_os("RDT_PROFILE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// A thread-local phase-timing accumulator.
///
/// The disabled path never reads the clock: [`start`](Self::start) returns
/// `None` and [`stop`](Self::stop) ignores it.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    report: ProfileReport,
}

impl Profiler {
    /// A profiler, recording only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            report: ProfileReport::new(),
        }
    }

    /// A disabled profiler (records nothing).
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Whether this profiler records.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a timing interval: `Some(now)` when enabled, `None` (no clock
    /// read) when not.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a timing interval opened by [`start`](Self::start), charging
    /// the elapsed time to `phase`.
    #[inline]
    pub fn stop(&mut self, phase: &str, start: Option<Instant>) {
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.report.phase_mut(phase).record(ns);
        }
    }

    /// Closes the interval opened at `*last`, charging it to `phase`, and
    /// opens the next one at the same instant: back-to-back phases cost one
    /// clock read each and leave no gap between them.
    #[inline]
    pub fn lap(&mut self, phase: &str, last: &mut Option<Instant>) {
        if let Some(last) = last {
            let now = Instant::now();
            let ns = u64::try_from((now - *last).as_nanos()).unwrap_or(u64::MAX);
            self.report.phase_mut(phase).record(ns);
            *last = now;
        }
    }

    /// Adds `delta` to counter `name` (when enabled).
    #[inline]
    pub fn add(&mut self, name: &str, delta: u64) {
        if self.enabled {
            self.report.add(name, delta);
        }
    }

    /// The accumulated report: `Some` when enabled, `None` when the profiler
    /// was off (so reports never claim a phase took zero time merely because
    /// timing was disabled).
    pub fn into_report(self) -> Option<ProfileReport> {
        self.enabled.then_some(self.report)
    }

    /// Read access to the in-progress report (for periodic exposition).
    pub fn report(&self) -> Option<&ProfileReport> {
        self.enabled.then_some(&self.report)
    }

    /// Write access to the in-progress report (for merging sub-reports).
    pub fn report_mut(&mut self) -> Option<&mut ProfileReport> {
        self.enabled.then_some(&mut self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // 0 and 1 ns share bucket 0 ([1, 2) extended down to 0).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        // Exact powers of two open their own bucket; one less stays below.
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(7), 2);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of((1 << 30) - 1), 29);
        assert_eq!(bucket_of(1 << 30), 30);
        // Everything from 2^31 up clamps into the last bucket.
        assert_eq!(bucket_of(1 << 31), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_align_with_bucket_of() {
        for i in 0..HIST_BUCKETS - 1 {
            let upper = bucket_upper_ns(i);
            assert_eq!(bucket_of(upper), i, "upper bound of bucket {i}");
            assert_eq!(bucket_of(upper + 1), i + 1);
        }
        assert_eq!(bucket_upper_ns(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn phase_stats_record_and_merge() {
        let mut a = PhaseStats::default();
        a.record(10);
        a.record(100);
        let mut b = PhaseStats::default();
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 115);
        assert_eq!(a.min_ns, 5);
        assert_eq!(a.max_ns, 100);
        assert_eq!(a.mean_ns(), 38);
        assert_eq!(a.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn report_merge_suffixed_namespaces_keys() {
        let mut worker = ProfileReport::new();
        worker.phase_mut("shard/drain").record(50);
        worker.add("events", 7);
        let mut merged = ProfileReport::new();
        merged.merge_suffixed(&worker, "2");
        assert_eq!(merged.phase("shard/drain/2").unwrap().count, 1);
        assert_eq!(merged.counters["events/2"], 7);
        // The un-suffixed keys carry the global totals.
        assert_eq!(merged.phase("shard/drain").unwrap().count, 1);
        assert_eq!(merged.counters["events"], 7);
    }

    #[test]
    fn merge_suffixed_folds_colliding_worker_series_into_global_totals() {
        // Regression: the coordinator already holds a series under the same
        // name as a worker series; the worker's contribution must land in
        // the global total rather than being visible only under its suffix.
        let mut merged = ProfileReport::new();
        merged.phase_mut("store/write").record(100);
        merged.add("frames_sent", 10);
        for (rank, delta) in [(0u32, 3u64), (1, 4)] {
            let mut worker = ProfileReport::new();
            worker.phase_mut("store/write").record(50);
            worker.add("frames_sent", delta);
            merged.merge_suffixed(&worker, &rank.to_string());
        }
        assert_eq!(merged.counters["frames_sent"], 17);
        assert_eq!(merged.counters["frames_sent/0"], 3);
        assert_eq!(merged.counters["frames_sent/1"], 4);
        let global = merged.phase("store/write").unwrap();
        assert_eq!(global.count, 3);
        assert_eq!(global.total_ns, 200);
        assert_eq!(merged.phase("store/write/1").unwrap().count, 1);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        let t = p.start();
        assert!(t.is_none());
        p.stop("x", t);
        p.add("c", 3);
        assert!(p.into_report().is_none());
    }

    #[test]
    fn enabled_profiler_accumulates() {
        let mut p = Profiler::new(true);
        let t = p.start();
        assert!(t.is_some());
        p.stop("x", t);
        p.add("c", 3);
        let report = p.into_report().unwrap();
        assert_eq!(report.phase("x").unwrap().count, 1);
        assert_eq!(report.counters["c"], 3);
    }

    #[test]
    fn json_and_prometheus_exposition() {
        let mut r = ProfileReport::new();
        r.phase_mut("engine/drain").record(100);
        r.phase_mut("engine/drain").record(3_000_000_000); // clamps to +Inf bucket
        r.add("frames_sent", 42);
        let json = r.to_json().to_string();
        let parsed = crate::json::parse(&json).unwrap();
        let drain = parsed.get("phases").unwrap().get("engine/drain").unwrap();
        assert_eq!(drain.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(drain.get("total_ns").unwrap().as_u64(), Some(3_000_000_100));
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("frames_sent")
                .unwrap()
                .as_u64(),
            Some(42)
        );

        let prom = r.to_prometheus();
        assert!(prom.contains("rdt_phase_ns_total{phase=\"engine/drain\"} 3000000100"));
        assert!(prom.contains("rdt_phase_count_total{phase=\"engine/drain\"} 2"));
        assert!(prom.contains("le=\"+Inf\"}"));
        assert!(prom.contains("rdt_counter_total{name=\"frames_sent\"} 42"));
        assert!(prom.contains("# HELP rdt_phase_ns_total "));
        assert!(prom.contains("# HELP rdt_counter_total "));
    }

    #[test]
    fn label_values_are_escaped_and_unescaped() {
        let mut r = ProfileReport::new();
        r.phase_mut("weird\"phase\\with\nnewline").record(5);
        r.add("plain", 1);
        let prom = r.to_prometheus();
        assert!(prom.contains(r#"phase="weird\"phase\\with\nnewline""#));
        let back = ProfileReport::from_prometheus(&prom).unwrap();
        assert_eq!(back.phase("weird\"phase\\with\nnewline").unwrap().count, 1);
    }

    #[test]
    fn prometheus_round_trips_counts_totals_and_buckets() {
        let mut r = ProfileReport::new();
        r.phase_mut("engine/drain").record(100);
        r.phase_mut("engine/drain").record(130);
        r.phase_mut("engine/drain").record(3_000_000_000);
        r.phase_mut("live/encode").record(0);
        r.add("frames_sent", 42);
        r.add("frames_received", 17);
        let back = ProfileReport::from_prometheus(&r.to_prometheus()).unwrap();
        assert_eq!(back.counters, r.counters);
        for (name, stats) in &r.phases {
            let b = back.phase(name).unwrap();
            assert_eq!(b.count, stats.count, "{name} count");
            assert_eq!(b.total_ns, stats.total_ns, "{name} total");
            assert_eq!(b.buckets, stats.buckets, "{name} buckets");
        }
        // min/max are lossy through the exposition format by design.
    }

    #[test]
    fn from_prometheus_rejects_malformed_input() {
        assert!(ProfileReport::from_prometheus("rdt_counter_total{name=\"x\"}").is_err());
        assert!(ProfileReport::from_prometheus("bogus_metric{name=\"x\"} 1").is_err());
        assert!(
            ProfileReport::from_prometheus("rdt_counter_total{phase=\"x\"} 1").is_err(),
            "wrong label name"
        );
        assert!(
            ProfileReport::from_prometheus(
                "rdt_phase_latency_ns_bucket{phase=\"p\",le=\"12\"} 1\n\
                 rdt_phase_latency_ns_count{phase=\"p\"} 1"
            )
            .is_err(),
            "le bound off the bucket grid"
        );
        assert!(
            ProfileReport::from_prometheus(
                "rdt_phase_latency_ns_bucket{phase=\"p\",le=\"1\"} 2\n\
                 rdt_phase_latency_ns_bucket{phase=\"p\",le=\"3\"} 1\n\
                 rdt_phase_latency_ns_count{phase=\"p\"} 2"
            )
            .is_err(),
            "non-cumulative bucket series"
        );
        assert!(
            ProfileReport::from_prometheus("rdt_phase_count_total{phase=\"p\"} 3").is_err(),
            "count without matching bucket samples"
        );
    }

    #[test]
    fn from_prometheus_merges_cleanly_for_aggregation() {
        // The serve coordinator parses worker dumps and merge_suffixed-es
        // them; totals must add up across the round trip.
        let mut merged = ProfileReport::new();
        for rank in 0..3u32 {
            let mut w = ProfileReport::new();
            w.phase_mut("live/encode").record(64 + u64::from(rank));
            w.add("frames_sent", 5);
            let parsed = ProfileReport::from_prometheus(&w.to_prometheus()).unwrap();
            merged.merge_suffixed(&parsed, &format!("p{rank}"));
        }
        assert_eq!(merged.counters["frames_sent"], 15);
        assert_eq!(merged.counters["frames_sent/p1"], 5);
        assert_eq!(merged.phase("live/encode").unwrap().count, 3);
    }
}
