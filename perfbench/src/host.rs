//! The host record and std-only process probes (Linux `/proc`).

use std::fs;

/// `USER_HZ`: the unit of `/proc/self/stat` CPU times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// One line describing where and how a run was made.
pub fn record(workers: &str) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: available_parallelism={parallelism} nproc={} workers={workers} commit={} profile={}",
        nproc().map_or_else(|| "unknown".into(), |n| n.to_string()),
        git_commit().unwrap_or_else(|| "unknown".into()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// CPUs this process may run on (what `nproc` prints), from the
/// affinity list in `/proc/self/status`.
fn nproc() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut count = 0;
    for part in list.trim().split(',') {
        count += match part.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(count)
}

/// The checked-out commit, read from `.git` in the working directory
/// (absent in an exported tree).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

/// User + system CPU seconds of this whole process (every thread).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime is field 14 and stime field 15.
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
