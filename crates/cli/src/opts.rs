//! Shared option parsing: workload, protocol, collector and channel
//! settings, reused by every subcommand.

use clap::{Arg, ArgMatches, Command};

use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_recovery::RecoveryMode;
use rdt_sim::{ChannelConfig, ShardConfig, SimConfig};
use rdt_workloads::{Pattern, WorkloadSpec};

/// Parses a `--pattern` value.
///
/// Accepted: `uniform`, `ring`, `token-ring`, `client-server:<servers>`,
/// `bursty:<burst>`.
///
/// # Errors
///
/// A human-readable message for unknown names or malformed parameters.
pub fn parse_pattern(s: &str) -> Result<Pattern, String> {
    let (name, param) = match s.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (s, None),
    };
    let numeric = |p: Option<&str>, what: &str| -> Result<usize, String> {
        p.ok_or_else(|| format!("{name} needs a parameter, e.g. {name}:{what}"))?
            .parse::<usize>()
            .map_err(|e| format!("bad {name} parameter: {e}"))
    };
    match name {
        "uniform" | "uniform-random" => Ok(Pattern::UniformRandom),
        "ring" => Ok(Pattern::Ring),
        "token-ring" | "token" => Ok(Pattern::TokenRing),
        "star" => Ok(Pattern::Star),
        "pipeline" => Ok(Pattern::Pipeline),
        "client-server" | "cs" => Ok(Pattern::ClientServer {
            servers: numeric(param, "2")?,
        }),
        "bursty" => Ok(Pattern::Bursty {
            burst: numeric(param, "8")?,
        }),
        other => Err(format!(
            "unknown pattern '{other}' (try uniform, ring, token-ring, star, pipeline, \
             client-server:<k>, bursty:<k>)"
        )),
    }
}

/// Parses a `--protocol` value (the [`ProtocolKind`] display names).
///
/// # Errors
///
/// A message listing the valid names.
pub fn parse_protocol(s: &str) -> Result<ProtocolKind, String> {
    ProtocolKind::ALL
        .into_iter()
        .find(|k| k.to_string() == s)
        .ok_or_else(|| {
            let names: Vec<String> = ProtocolKind::ALL.iter().map(|k| k.to_string()).collect();
            format!("unknown protocol '{s}' (one of: {})", names.join(", "))
        })
}

/// Parses a `--gc` value: `rdt-lgc`, `none`, `simple`, `wang`,
/// `time:<horizon>`, or any [`GcKind`]'s display name (`time-based(<h>)`
/// among them, which is how `rdt serve` hands the collector to its
/// workers).
///
/// # Errors
///
/// A message listing the valid names.
pub fn parse_gc(s: &str) -> Result<GcKind, String> {
    match s {
        "rdt-lgc" | "lgc" => Ok(GcKind::RdtLgc),
        "none" | "no-gc" => Ok(GcKind::None),
        "simple" | "simple-coordinated" => Ok(GcKind::SimpleCoordinated),
        "wang" | "wang-global" => Ok(GcKind::WangGlobal),
        other => {
            let horizon = other.strip_prefix("time:").or_else(|| {
                other
                    .strip_prefix("time-based(")
                    .and_then(|h| h.strip_suffix(')'))
            });
            if let Some(h) = horizon {
                let horizon = h
                    .parse::<u64>()
                    .map_err(|e| format!("bad time horizon: {e}"))?;
                return Ok(GcKind::TimeBased { horizon });
            }
            Err(format!(
                "unknown collector '{other}' (one of: rdt-lgc, none, simple, wang, time:<horizon>)"
            ))
        }
    }
}

/// Parses a `--recovery` value: `coordinated` or `uncoordinated`.
///
/// # Errors
///
/// A message naming the two modes.
pub fn parse_recovery(s: &str) -> Result<RecoveryMode, String> {
    match s {
        "coordinated" => Ok(RecoveryMode::Coordinated),
        "uncoordinated" => Ok(RecoveryMode::Uncoordinated),
        other => Err(format!(
            "unknown recovery mode '{other}' (coordinated or uncoordinated)"
        )),
    }
}

/// Attaches the shared workload/simulation arguments to a subcommand.
pub fn with_common_args(cmd: Command) -> Command {
    cmd.arg(arg_with_default(
        "processes",
        'n',
        "number of processes",
        "4",
    ))
    .arg(arg_with_default(
        "steps",
        's',
        "application operations",
        "500",
    ))
    .arg(arg_with_default("seed", 'S', "workload seed", "0"))
    .arg(arg_with_default(
        "pattern",
        'p',
        "traffic pattern (uniform, ring, token-ring, client-server:<k>, bursty:<k>)",
        "uniform",
    ))
    .arg(arg_with_default(
        "protocol",
        'P',
        "checkpointing protocol",
        "fdas",
    ))
    .arg(arg_with_default(
        "gc",
        'g',
        "garbage collector (rdt-lgc, none, simple, wang, time:<horizon>)",
        "rdt-lgc",
    ))
    .arg(arg_with_default(
        "checkpoint-prob",
        'c',
        "per-op basic checkpoint probability",
        "0.2",
    ))
    .arg(arg_with_default(
        "crash-prob",
        'x',
        "per-op crash probability",
        "0.0",
    ))
    .arg(arg_with_default(
        "loss",
        'l',
        "message loss probability",
        "0.0",
    ))
    .arg(
        Arg::new("correlated")
            .long("correlated")
            .help("probability that each other process crashes along with a crashing one")
            .default_value("0.0")
            .value_name("p"),
    )
    .arg(
        Arg::new("recovery")
            .long("recovery")
            .help("recovery sessions: coordinated (LI distributed) or uncoordinated (DV in its place)")
            .default_value("coordinated")
            .value_name("mode"),
    )
    .arg(arg_with_default(
        "min-delay",
        'd',
        "minimum message delay (ticks)",
        "1",
    ))
    .arg(arg_with_default(
        "max-delay",
        'D',
        "maximum message delay (ticks)",
        "20",
    ))
    .arg(
        Arg::new("control-every")
            .long("control-every")
            .help("coordinator control round period, in ticks (coordinated collectors)")
            .value_name("TICKS"),
    )
    .arg(arg_with_default(
        "shards",
        'j',
        "worker shards for the parallel engine (1 = sequential)",
        "1",
    ))
    .arg(
        Arg::new("profile")
            .long("profile")
            .help("record phase timings (drain, control rounds, per-shard barriers); simulation output stays byte-identical")
            .action(clap::ArgAction::SetTrue),
    )
    .arg(
        Arg::new("metrics-out")
            .long("metrics-out")
            .help("write the full metrics (and the phase profile, with --profile) as JSON to this file")
            .value_name("path"),
    )
    .arg(
        Arg::new("json")
            .long("json")
            .help("emit machine-readable JSON instead of tables")
            .action(clap::ArgAction::SetTrue),
    )
}

/// Adds `--runs`: K runs on seeds derived from `--seed`, fanned out across
/// cores.
pub fn with_runs_arg(cmd: Command) -> Command {
    cmd.arg(
        Arg::new("runs")
            .long("runs")
            .help("runs on seeds derived from --seed, in parallel (1 = the seed itself)")
            .default_value("1")
            .value_name("K"),
    )
}

fn arg_with_default(
    name: &'static str,
    short: char,
    help: &'static str,
    default: &'static str,
) -> Arg {
    Arg::new(name)
        .long(name)
        .short(short)
        .help(help)
        .default_value(default)
        .value_name(name)
}

/// Everything a subcommand needs to run the simulator.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload to generate.
    pub spec: WorkloadSpec,
    /// The protocol in force.
    pub protocol: ProtocolKind,
    /// The collector in force.
    pub gc: GcKind,
    /// Simulator settings.
    pub config: SimConfig,
    /// How recovery sessions pick their line.
    pub recovery: RecoveryMode,
    /// Runs on derived seeds (`--runs`; 1 where the subcommand has none).
    pub runs: u64,
    /// JSON output requested.
    pub json: bool,
    /// Where to write the full metrics + profile document, if anywhere.
    pub metrics_out: Option<std::path::PathBuf>,
}

/// Extracts [`RunOpts`] from parsed matches.
///
/// # Errors
///
/// Propagates the parse errors of the individual values.
pub fn run_opts(m: &ArgMatches) -> Result<RunOpts, String> {
    let get = |name: &str| m.get_one::<String>(name).expect("defaulted").clone();
    let n: usize = get("processes").parse().map_err(|e| format!("-n: {e}"))?;
    if n < 2 {
        return Err("-n: at least two processes required".into());
    }
    let steps: usize = get("steps").parse().map_err(|e| format!("-s: {e}"))?;
    let seed: u64 = get("seed").parse().map_err(|e| format!("-S: {e}"))?;
    let ckpt: f64 = get("checkpoint-prob")
        .parse()
        .map_err(|e| format!("-c: {e}"))?;
    let crash: f64 = get("crash-prob").parse().map_err(|e| format!("-x: {e}"))?;
    let loss: f64 = get("loss").parse().map_err(|e| format!("-l: {e}"))?;
    let min_delay: u64 = get("min-delay").parse().map_err(|e| format!("-d: {e}"))?;
    let max_delay: u64 = get("max-delay").parse().map_err(|e| format!("-D: {e}"))?;
    if max_delay < min_delay {
        return Err("-D: max delay below min delay".into());
    }
    if !(0.0..=1.0).contains(&ckpt) || !(0.0..=1.0).contains(&crash) || ckpt + crash > 1.0 {
        return Err("probabilities must be in [0,1] with checkpoint+crash ≤ 1".into());
    }
    if !(0.0..=1.0).contains(&loss) {
        return Err("-l: loss must be in [0,1]".into());
    }
    let correlated: f64 = get("correlated")
        .parse()
        .map_err(|e| format!("--correlated: {e}"))?;
    if !(0.0..=1.0).contains(&correlated) {
        return Err("--correlated: probability must be in [0,1]".into());
    }
    let shards: usize = get("shards").parse().map_err(|e| format!("-j: {e}"))?;
    if shards == 0 {
        return Err("-j: at least one shard required".into());
    }
    let runs: u64 = match m.get_one::<String>("runs") {
        Some(k) => k.parse().map_err(|e| format!("--runs: {e}"))?,
        None => 1,
    };
    if runs == 0 {
        return Err("--runs: at least one run required".into());
    }

    let spec = WorkloadSpec::uniform_random(n, steps)
        .with_pattern(parse_pattern(&get("pattern"))?)
        .with_seed(seed)
        .with_checkpoint_prob(ckpt)
        .with_crash_prob(crash);
    let config = SimConfig {
        channel: ChannelConfig {
            min_delay,
            max_delay,
            loss_rate: loss,
        },
        control_every: m
            .get_one::<String>("control-every")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|e| format!("--control-every: {e}"))
            })
            .transpose()?,
        correlated_crash_prob: correlated,
        shard: ShardConfig {
            shards,
            ..ShardConfig::default()
        },
        profile: m.get_flag("profile"),
        ..SimConfig::default()
    };
    Ok(RunOpts {
        spec,
        protocol: parse_protocol(&get("protocol"))?,
        gc: parse_gc(&get("gc"))?,
        config,
        recovery: parse_recovery(&get("recovery"))?,
        runs,
        json: m.get_flag("json"),
        metrics_out: m.get_one::<String>("metrics-out").map(Into::into),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_parse() {
        assert_eq!(parse_pattern("uniform").unwrap(), Pattern::UniformRandom);
        assert_eq!(parse_pattern("ring").unwrap(), Pattern::Ring);
        assert_eq!(parse_pattern("token-ring").unwrap(), Pattern::TokenRing);
        assert_eq!(parse_pattern("star").unwrap(), Pattern::Star);
        assert_eq!(parse_pattern("pipeline").unwrap(), Pattern::Pipeline);
        assert_eq!(
            parse_pattern("client-server:2").unwrap(),
            Pattern::ClientServer { servers: 2 }
        );
        assert_eq!(
            parse_pattern("bursty:8").unwrap(),
            Pattern::Bursty { burst: 8 }
        );
        assert!(parse_pattern("mesh").is_err());
        assert!(parse_pattern("bursty").is_err());
        assert!(parse_pattern("bursty:x").is_err());
    }

    #[test]
    fn protocols_parse_by_display_name() {
        for kind in ProtocolKind::ALL {
            assert_eq!(parse_protocol(&kind.to_string()).unwrap(), kind);
        }
        assert!(parse_protocol("nope").is_err());
    }

    #[test]
    fn collectors_parse() {
        assert_eq!(parse_gc("rdt-lgc").unwrap(), GcKind::RdtLgc);
        assert_eq!(parse_gc("none").unwrap(), GcKind::None);
        assert_eq!(parse_gc("simple").unwrap(), GcKind::SimpleCoordinated);
        assert_eq!(parse_gc("wang").unwrap(), GcKind::WangGlobal);
        assert_eq!(
            parse_gc("time:300").unwrap(),
            GcKind::TimeBased { horizon: 300 }
        );
        assert!(parse_gc("time:x").is_err());
        assert!(parse_gc("time-based(5").is_err());
        assert!(parse_gc("hourly").is_err());
    }

    #[test]
    fn collectors_parse_by_display_name() {
        let horizons = [0, 1, u64::MAX].map(|horizon| GcKind::TimeBased { horizon });
        for kind in GcKind::ALL.into_iter().chain(horizons) {
            assert_eq!(parse_gc(&kind.to_string()), Ok(kind));
        }
    }

    #[test]
    fn run_opts_apply_defaults_and_validate() {
        let cmd = with_common_args(Command::new("t"));
        let m = cmd.clone().get_matches_from(["t"]);
        let opts = run_opts(&m).unwrap();
        assert_eq!(opts.spec.n, 4);
        assert_eq!(opts.spec.steps, 500);
        assert_eq!(opts.protocol, ProtocolKind::Fdas);
        assert_eq!(opts.gc, GcKind::RdtLgc);
        assert!(!opts.json);

        let m = cmd
            .clone()
            .get_matches_from(["t", "-n", "8", "-g", "time:99", "--json"]);
        let opts = run_opts(&m).unwrap();
        assert_eq!(opts.spec.n, 8);
        assert_eq!(opts.gc, GcKind::TimeBased { horizon: 99 });
        assert!(opts.json);

        let m = cmd.clone().get_matches_from(["t", "-j", "4"]);
        let opts = run_opts(&m).unwrap();
        assert_eq!(opts.config.shard.shards, 4);
        assert!(!opts.config.profile);
        assert!(opts.metrics_out.is_none());

        let m = cmd
            .clone()
            .get_matches_from(["t", "--profile", "--metrics-out", "m.json"]);
        let opts = run_opts(&m).unwrap();
        assert!(opts.config.profile);
        assert_eq!(
            opts.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );

        assert_eq!(opts.config.correlated_crash_prob, 0.0);
        assert_eq!(opts.recovery, RecoveryMode::Coordinated);
        assert_eq!(opts.runs, 1);

        let runs = with_runs_arg(cmd.clone());
        let opts = run_opts(&runs.clone().get_matches_from(["t", "--runs", "8"])).unwrap();
        assert_eq!(opts.runs, 8);
        assert!(run_opts(&runs.get_matches_from(["t", "--runs", "0"])).is_err());

        let m = cmd.clone().get_matches_from(["t", "-n", "1"]);
        assert!(run_opts(&m).is_err());
        let m = cmd.clone().get_matches_from(["t", "-j", "0"]);
        assert!(run_opts(&m).is_err());
        let m = cmd.get_matches_from(["t", "-d", "9", "-D", "2"]);
        assert!(run_opts(&m).is_err());
    }
}
