//! `obs_check`: schema validator for the files this stack emits — trace
//! lines wherever they were written (`rdt trace` output, per-process event
//! logs, `rdt causal` output) and `.prom` metric textfiles.
//!
//! This binary only handles file I/O and exit codes. Files ending in
//! `.prom` are validated as Prometheus textfiles
//! ([`rdt_obs::check::check_prom_text`]); everything else line by line
//! ([`rdt_cli::check::check_line`]: event lines through
//! `rdt_sim::TraceLine::parse`, the rest through [`rdt_obs::check`]).
//!
//! Usage: `obs_check <file>...` — exits 0 iff every file validates,
//! printing a per-file summary; violations print as `file:line: message`
//! and flip the exit code to 1.

use std::process::ExitCode;

use rdt_cli::check::check_line;
use rdt_obs::check::check_prom_text;

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: obs_check <file.jsonl|file.prom>...");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for path in &files {
        let body = match std::fs::read_to_string(path) {
            Ok(body) => body,
            Err(err) => {
                eprintln!("{path}: {err}");
                ok = false;
                continue;
            }
        };
        if path.ends_with(".prom") {
            match check_prom_text(&body) {
                Ok((phases, counters)) => {
                    println!("{path}: {phases} phases, {counters} counters ok");
                }
                Err(msg) => {
                    eprintln!("{path}: {msg}");
                    ok = false;
                }
            }
            continue;
        }
        let mut lines = 0usize;
        let mut errors = 0usize;
        for (i, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            lines += 1;
            if let Err(msg) = check_line(line) {
                eprintln!("{path}:{}: {msg}", i + 1);
                errors += 1;
            }
        }
        if lines == 0 {
            eprintln!("{path}: no JSONL lines found");
            ok = false;
        } else if errors == 0 {
            println!("{path}: {lines} lines ok");
        } else {
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
