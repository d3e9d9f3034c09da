//! Machine fingerprint printed with every result, and the process
//! high-water mark.

use std::fs;

/// Kernel-reported value of a `Key:   123 kB` line, in KiB.
fn kib_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Process peak resident set (`VmHWM`), in MiB; 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| kib_field(&s, "VmHWM:"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn total_mem_mib() -> u64 {
    fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| kib_field(&s, "MemTotal:"))
        .map_or(0, |kib| kib / 1024)
}

/// Size of the last-level cache of CPU 0 in KiB, with its level.
fn llc_kib() -> Option<(u32, u64)> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, u64)> = None;
    for entry in fs::read_dir(dir).ok()?.flatten() {
        let p = entry.path();
        let read = |f: &str| fs::read_to_string(p.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let kib = if let Some(k) = size.strip_suffix('K') {
            k.parse().ok()
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m * 1024)
        } else {
            size.parse::<u64>().ok().map(|b| b / 1024)
        };
        if let Some(kib) = kib {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, kib));
            }
        }
    }
    best
}

/// Commit of the checkout, read from `.git` in the working directory
/// (without walking up); `none` outside a git checkout.
fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One JSON line describing the machine and the run.
pub fn fingerprint(workload: &str, seed: u64, trace: bool, working_set_mib: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = scan_core::pool::global().threads();
    let isa = scan_core::simd::active_isa().name();
    let (llc_level, llc_mib) = llc_kib().map_or((0, 0.0), |(l, k)| (l, k as f64 / 1024.0));
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SCAN_CORE_"))
        .map(|(k, v)| json_str(&format!("{k}={v}")))
        .collect();
    format!(
        "{{\"fingerprint\":{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"nproc\":{nproc},\"pool_threads\":{pool},\"simd_isa\":{},\"llc_level\":{llc_level},\"llc_mib\":{llc_mib},\"working_set_mib\":{working_set_mib},\"mem_total_mib\":{},\"rustc\":{},\"commit\":{},\"scan_core_env\":[{}]}}}}",
        json_str(workload),
        json_str(isa),
        total_mem_mib(),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_commit()),
        env.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kernel_kib_fields() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(kib_field(s, "VmHWM:"), Some(2048));
        assert_eq!(kib_field(s, "VmPeak:"), None);
    }
}
