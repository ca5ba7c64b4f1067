//! Host stamp recorded with every result, so runs from different hosts
//! are never compared as if they were the same machine.

use std::path::Path;

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub kernel: String,
    /// Filesystem type under the directory the campaign journal lives in.
    pub journal_fs: String,
}

impl HostStamp {
    pub fn collect(journal_dir: &Path) -> HostStamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
            kernel,
            journal_fs: filesystem_of(journal_dir).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn to_json(&self) -> String {
        let esc = crate::json_string;
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"kernel\": {}, \"journal_fs\": {}}}",
            self.nproc,
            esc(&self.cpu_model),
            esc(&self.rustc),
            esc(&self.kernel),
            esc(&self.journal_fs)
        )
    }
}

/// Total and stolen CPU ticks so far, from the `cpu` line of `/proc/stat`.
/// Steal is time the hypervisor ran something else on this VM's CPUs; a
/// run with a large share of it measured a slower machine.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process, in
/// MiB; 0 when `/proc` does not say.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Filesystem type of the mount holding `dir`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes the canonical path.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mountinfo
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> <src> <opts>"
            let mount_point = line.split(' ').nth(4)?;
            let fstype = line.split(" - ").nth(1)?.split(' ').next()?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}
