//! What the harness learns about the host from `/proc` (no `libc`):
//! CPU time per thread, peak RSS, steal time, load average, and the
//! identity fields every report carries.

use std::fs;
use std::path::Path;

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// CPU time of this process's threads, from `/proc/self/task/*/schedstat`
/// (nanosecond resolution, unlike the tick-granular `stat`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// On-CPU nanoseconds summed over every live thread.
    pub all_ns: u64,
    /// On-CPU nanoseconds of the main thread (the closed-loop caller).
    pub main_ns: u64,
    /// Nanoseconds the main thread sat runnable but not running: the
    /// involuntary-preemption signal of the interference guard.
    pub main_wait_ns: u64,
}

impl CpuTimes {
    /// Read the current totals. Threads that have already exited are not
    /// listed, so take both ends of a delta while the same threads live.
    #[must_use]
    pub fn now() -> CpuTimes {
        // `schedstat` shows a running thread's time as of its last tick
        // or context switch; a yield brings the caller's own up to date.
        std::thread::yield_now();
        let main = std::process::id().to_string();
        let mut t = CpuTimes::default();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return t;
        };
        for entry in dir.flatten() {
            // A thread can exit between the listing and the read.
            let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) else {
                continue;
            };
            let mut fields = text.split_ascii_whitespace().map(|f| f.parse::<u64>().ok());
            let run = fields.next().flatten().unwrap_or(0);
            let wait = fields.next().flatten().unwrap_or(0);
            t.all_ns += run;
            if entry.file_name().to_str() == Some(main.as_str()) {
                t.main_ns = run;
                t.main_wait_ns = wait;
            }
        }
        t
    }

    /// Field-wise sum.
    #[must_use]
    pub fn plus(&self, other: &CpuTimes) -> CpuTimes {
        CpuTimes {
            all_ns: self.all_ns + other.all_ns,
            main_ns: self.main_ns + other.main_ns,
            main_wait_ns: self.main_wait_ns + other.main_wait_ns,
        }
    }

    /// Field-wise `self − earlier`.
    #[must_use]
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            all_ns: self.all_ns.saturating_sub(earlier.all_ns),
            main_ns: self.main_ns.saturating_sub(earlier.main_ns),
            main_wait_ns: self.main_wait_ns.saturating_sub(earlier.main_wait_ns),
        }
    }
}

/// Machine-wide `(steal, total)` jiffies from the first line of
/// `/proc/stat`.
#[must_use]
pub fn steal_jiffies() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already included in user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Steal share between two [`steal_jiffies`] readings (0 when the
/// interval is shorter than one tick).
#[must_use]
pub fn steal_share(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.1.saturating_sub(start.1);
    if total == 0 {
        0.0
    } else {
        end.0.saturating_sub(start.0) as f64 / total as f64
    }
}

/// Peak resident set (`VmHWM`) in MB (10^6 bytes).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb * 1024.0 / 1e6
}

/// One-minute load average.
#[must_use]
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// CPU model string of the first processor.
#[must_use]
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// Commit of the enclosing git checkout, read from `.git` without
/// running git; `"unknown"` outside a repository (the acceptance
/// driver's checkout is not one).
#[must_use]
pub fn git_commit() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    loop {
        if let Some(commit) = read_head(&dir.join(".git")) {
            return commit;
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn read_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => fs::read_to_string(git.join(reference))
            .ok()
            .map(|c| c.trim().to_string())
            .or_else(|| {
                // Packed refs: "<sha> <ref>" lines.
                fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            }),
    }
}

/// `rustc -V` of the toolchain on `PATH`, `"unknown"` if it cannot run.
#[must_use]
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        let before = CpuTimes::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let spent = CpuTimes::now().since(&before);
        assert!(spent.all_ns > 0, "schedstat must advance while spinning");
        assert!(peak_rss_mb() > 0.0);
        let (steal, total) = steal_jiffies();
        assert!(total > 0 && steal <= total);
        assert_eq!(steal_share((5, 100), (7, 200)), 0.02);
        assert_eq!(steal_share((5, 100), (5, 100)), 0.0);
    }
}
