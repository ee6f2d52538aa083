//! Host and process facts stamped into every output file, and the
//! process's peak resident memory.

use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{obj, Json};

/// Cores the process may run on.
pub fn cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The CPU model named in `/proc/cpuinfo` (`"unknown"` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine the numbers were measured on, plus when.
pub fn facts() -> Json {
    let unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    obj([
        ("cores", Json::from(cores())),
        ("cpu_model", Json::from(cpu_model())),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
        ("unix_time_s", Json::from(unix_s)),
    ])
}
