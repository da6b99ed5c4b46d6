//! The environment record printed with every run, and the process's
//! resident-set high-water mark.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's resident-set high-water mark (`VmHWM`) in bytes, or
/// `None` where `/proc` does not report it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The data caches of level 2 and above, as `L<level> <count> x <size>`
/// with one entry per distinct cache instance, read from `/sys`.
fn caches() -> Vec<String> {
    let mut seen: Vec<(String, String, String)> = Vec::new();
    let cpus = Path::new("/sys/devices/system/cpu");
    for cpu in 0..nproc() {
        let dir = cpus.join(format!("cpu{cpu}/cache"));
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let read = |f: &str| {
                fs::read_to_string(entry.path().join(f))
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default()
            };
            let (level, size, shared) = (read("level"), read("size"), read("shared_cpu_list"));
            if level.parse::<u32>().is_ok_and(|l| l >= 2)
                && !seen.iter().any(|s| s.0 == level && s.2 == shared)
            {
                seen.push((level, size, shared));
            }
        }
    }
    seen.sort();
    let mut out: Vec<String> = Vec::new();
    for (level, size, _) in &seen {
        let count = seen.iter().filter(|s| &s.0 == level).count();
        let entry = format!("L{level} {count} x {size}");
        if !out.contains(&entry) {
            out.push(entry);
        }
    }
    out
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.to_string()
    }
}

/// The environment record as one JSON object. Every field fits in the L3
/// cache listed here, so the benchmark reports no bandwidth figure.
pub fn record(threads: usize, field_bytes: usize) -> String {
    let caches: Vec<String> = caches().iter().map(|c| format!("\"{c}\"")).collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {}, \"threads\": {threads}, \"caches\": [{}], \"field_bytes\": {field_bytes}, \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"profile\": \"{profile}\"}}",
        nproc(),
        caches.join(", "),
        rustc_version(),
        commit(),
    )
}
