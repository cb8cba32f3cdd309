//! Where a result was measured: the facts every output record carries so a
//! number can be traced back to the host and commit that produced it.

use std::path::{Path, PathBuf};

use rdt_obs::json::JsonValue;

/// The directory every workload keeps its sockets and checkpoint files
/// under: `benchmark/.work/`, inside the checkout.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// `path` relative to the current directory when it lies below it. Unix
/// socket paths are limited to ~107 bytes, and the driver runs from the
/// checkout root, so the relative form keeps `live-uds` working in deeply
/// nested checkouts.
pub fn shorten(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> <src> <opts>"
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split_whitespace().nth(4)?;
            let fs = tail.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit of the checkout, when it is a git repository (the driver's
/// checkouts are not).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Host and invocation facts as JSON fields.
pub fn provenance() -> Vec<(&'static str, JsonValue)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let work = work_root();
    let fs = fs_type(if work.exists() {
        &work
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
    });
    vec![
        ("git_commit", JsonValue::Str(git_commit())),
        ("nproc", JsonValue::UInt(nproc as u64)),
        ("cpu", JsonValue::Str(cpu_model())),
        ("work_fs", JsonValue::Str(fs)),
        (
            "command",
            JsonValue::Str(std::env::args().collect::<Vec<_>>().join(" ")),
        ),
    ]
}
