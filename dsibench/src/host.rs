//! What the benchmark reads from the host: process CPU time and peak
//! resident memory from procfs, and the fingerprint (cores, compiler,
//! commit) that goes into every result.

use std::process::Command;

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// architecture this repository builds on (`sysconf(_SC_CLK_TCK)`).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of this process so far, threads that have
/// already exited included (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SEC
}

/// CPU seconds the calling thread has run, to the nanosecond
/// (`/proc/thread-self/schedstat`); the process's CPU time where the kernel
/// does not keep scheduler statistics.
pub fn thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or_else(process_cpu_seconds, |ns| ns / 1e9)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the peak reported at
/// exit is the peak of the measured region and not of input generation.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and with what the numbers were taken.
#[derive(Debug, Clone)]
pub struct HostFingerprint {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl HostFingerprint {
    pub fn capture() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]),
            // The driver's checkout is not a git repository: "unknown" there.
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_seconds();
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_seconds() >= before + 0.03);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
