//! `rdt` — command-line driver for the rdt-checkpointing workspace.
//!
//! ```sh
//! rdt simulate -n 8 -s 2000 --protocol fdas --gc rdt-lgc
//! rdt analyze  -n 4 --pattern ring
//! rdt audit    --gc time:60 -D 400
//! rdt line     -n 4 -s 300
//! ```

#![forbid(unsafe_code)]

// Every print of this binary goes through `print_out`: these two shadow
// std's macros for every module declared below, so that std's panic when
// stdout is gone (`rdt line | head -1`) becomes a quiet exit.
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::print_out(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

mod causal;
mod commands;
mod json;
mod opts;
mod serve;

use clap::Command;

use crate::opts::{run_opts, with_common_args};

fn cli() -> Command {
    Command::new("rdt")
        .about("Simulate, analyze and audit RDT checkpointing with asynchronous garbage collection (ICDCS 2005)")
        .subcommand_required(true)
        .arg_required_else_help(true)
        .subcommand(with_common_args(
            Command::new("simulate")
                .about("run a workload and report storage metrics")
                .arg(
                    clap::Arg::new("occupancy")
                        .long("occupancy")
                        .help("also report the storage-occupancy timeline (peak / averages)")
                        .action(clap::ArgAction::SetTrue),
                ),
        ))
        .subcommand(with_common_args(
            Command::new("analyze")
                .about("replay a crash-free run into a CCP: RDT, densities, propagation")
                .arg(
                    clap::Arg::new("dot")
                        .long("dot")
                        .help("emit a Graphviz digraph instead of statistics: 'ccp' or 'rgraph'")
                        .value_name("what"),
                ),
        ))
        .subcommand(with_common_args(
            Command::new("audit")
                .about("check every garbage-collection event against the Theorem-1 oracle"),
        ))
        .subcommand(with_common_args(
            Command::new("line").about("recovery lines for every single-process failure"),
        ))
        .subcommand(with_common_args(
            Command::new("explain")
                .about("recovery-line provenance: which DV entry pins each checkpoint, cross-checked against the Lemma-1 oracle")
                .arg(
                    clap::Arg::new("faulty")
                        .long("faulty")
                        .help("comma-separated failing processes (default: every single-process failure)")
                        .value_name("list"),
                ),
        ))
        .subcommand(
            Command::new("causal")
                .about("merge per-process event logs into one happened-before-ordered trace")
                .arg(
                    clap::Arg::new("inputs")
                        .help("per-process JSONL event logs (rdt serve's flight_p*.jsonl or RDT_LOG_JSONL output)")
                        .value_name("file")
                        .action(clap::ArgAction::Append),
                )
                .arg(
                    clap::Arg::new("dir")
                        .long("dir")
                        .help("harvest every flight_p*.jsonl under this directory")
                        .value_name("dir"),
                )
                .arg(
                    clap::Arg::new("out")
                        .long("out")
                        .short('o')
                        .help("write the merged causal JSONL to this file instead of stdout")
                        .value_name("path"),
                ),
        )
        .subcommand(with_common_args(
            Command::new("trace")
                .about("replay a run and emit its global event sequence as JSONL (spans with --profile)")
                .arg(
                    clap::Arg::new("out")
                        .long("out")
                        .short('o')
                        .help("write the JSONL stream to this file instead of stdout")
                        .value_name("path"),
                ),
        ))
        .subcommand(torture_args(Command::new("torture").about(
            "crash-point sweep + corruption fault plans over the durable storage layer",
        )))
        .subcommand(serve::serve_args(Command::new("serve").about(
            "run N real OS processes over loopback sockets with live checkpoint GC (--chaos for a kill-9 + restart cycle)",
        )))
        .subcommand(serve::worker_args(
            Command::new("__serve-worker")
                .about("internal: one process of an `rdt serve` run")
                .hide(true),
        ))
}

/// The torture subcommand has its own argument set: it drives the storage
/// harness, not the simulator, so channel/workload options do not apply.
fn torture_args(cmd: Command) -> Command {
    let arg =
        |name: &'static str, short: Option<char>, help: &'static str, default: &'static str| {
            let a = clap::Arg::new(name)
                .long(name)
                .help(help)
                .default_value(default)
                .value_name(name);
            match short {
                Some(s) => a.short(s),
                None => a,
            }
        };
    cmd.arg(arg("processes", Some('n'), "number of processes", "4"))
        .arg(arg("events", Some('e'), "scripted workload events", "60"))
        .arg(arg("seed", Some('S'), "script and fault-plan seed", "1"))
        .arg(arg("protocol", Some('P'), "checkpointing protocol", "fdas"))
        .arg(arg(
            "gc",
            Some('g'),
            "garbage collector (rdt-lgc, none, simple, wang, time:<horizon>)",
            "rdt-lgc",
        ))
        .arg(arg(
            "max-crash-points",
            None,
            "crash-point budget (0 disables the sweep; sampled evenly when below the op count)",
            "200",
        ))
        .arg(arg(
            "fault-plans",
            None,
            "seeded corruption plans to run (0 disables)",
            "16",
        ))
        .arg(
            clap::Arg::new("json")
                .long("json")
                .help("emit machine-readable JSON instead of tables")
                .action(clap::ArgAction::SetTrue),
        )
        .arg(
            clap::Arg::new("metrics-out")
                .long("metrics-out")
                .help("write sweep and restart counters as a Prometheus textfile")
                .value_name("path"),
        )
}

/// Writes to stdout. A reader that closed the pipe ends the process
/// without a message and with status 141, the status a shell reports for
/// a process killed by `SIGPIPE`: the command's verdict (an audit's
/// violations, a failed cross-check) went unread, so it is not reported
/// as success. Any other failure panics, as std's `print!` does.
fn print_out(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    /// 128 + `SIGPIPE` (13).
    const CLOSED_STDOUT: i32 = 141;
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(CLOSED_STDOUT),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

fn main() {
    let matches = cli().get_matches();
    let (name, sub) = matches.subcommand().expect("subcommand required");
    let result = if name == "torture" {
        commands::torture(sub)
    } else if name == "serve" {
        serve::serve(sub)
    } else if name == "__serve-worker" {
        serve::worker(sub)
    } else if name == "causal" {
        causal::causal(sub)
    } else {
        run_opts(sub).and_then(|opts| match name {
            "simulate" => commands::simulate(&opts, sub.get_flag("occupancy")),
            "analyze" => commands::analyze(&opts, sub.get_one::<String>("dot").map(String::as_str)),
            "audit" => commands::audit(&opts),
            "line" => commands::line(&opts),
            "explain" => {
                commands::explain(&opts, sub.get_one::<String>("faulty").map(String::as_str))
            }
            "trace" => commands::trace(&opts, sub.get_one::<String>("out").map(String::as_str)),
            _ => unreachable!("clap rejects unknown subcommands"),
        })
    };
    if let Err(msg) = result {
        eprintln!("rdt: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_definition_is_well_formed() {
        cli().debug_assert();
    }

    #[test]
    fn subcommands_share_common_args() {
        for sub in ["simulate", "analyze", "audit", "line", "explain", "trace"] {
            let m = cli()
                .try_get_matches_from(["rdt", sub, "-n", "3", "--json"])
                .expect("parses");
            let (_, subm) = m.subcommand().unwrap();
            assert!(run_opts(subm).is_ok());
        }
    }

    #[test]
    fn torture_subcommand_parses_its_own_args() {
        let m = cli()
            .try_get_matches_from([
                "rdt",
                "torture",
                "-n",
                "3",
                "--events",
                "20",
                "--max-crash-points",
                "10",
                "--fault-plans",
                "2",
                "--json",
            ])
            .expect("parses");
        let (name, subm) = m.subcommand().unwrap();
        assert_eq!(name, "torture");
        assert_eq!(subm.get_one::<String>("events").unwrap(), "20");
        assert!(subm.get_flag("json"));
    }
}
