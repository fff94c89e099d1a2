//! Process facts the benchmark reports: core count and peak memory.

/// `std::thread::available_parallelism`, the `nproc` every worker count
/// in the benchmark is set to and every result records.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process image so far, in MiB: `VmHWM`
/// of `/proc/self/status`. (`getrusage`'s `ru_maxrss` is not used: Linux
/// carries it across `execve`, so a process launched by a large parent,
/// such as `cargo run`, would report the parent's size.)
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
