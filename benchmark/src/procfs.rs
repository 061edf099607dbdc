//! What `/proc` says about a process, read from outside it: peak RSS,
//! CPU time and voluntary context switches summed over its threads.

use std::fs;

/// Peak resident set (`VmHWM`) of `pid` in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    status_field(
        &fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        "VmHWM:",
    )
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Cumulative scheduler counters of one process, all threads summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuSample {
    /// Nanoseconds spent on a CPU (`schedstat`, not the 10 ms ticks of
    /// `stat`: a probe window is a few hundred milliseconds).
    pub cpu_ns: u64,
    pub voluntary_switches: u64,
}

impl CpuSample {
    /// Counters of `pid` now; zeros for whatever cannot be read (the
    /// process is gone, or the kernel has no `schedstat`).
    pub fn of(pid: u32) -> CpuSample {
        let mut sample = CpuSample::default();
        let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
            return sample;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
                sample.cpu_ns += s
                    .split_whitespace()
                    .next()
                    .and_then(|f| f.parse::<u64>().ok())
                    .unwrap_or(0);
            }
            if let Ok(s) = fs::read_to_string(dir.join("status")) {
                sample.voluntary_switches +=
                    status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0);
            }
        }
        sample
    }

    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &CpuSample) -> CpuSample {
        CpuSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
        }
    }
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t   12345 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(12345));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(status, "VmRSS:"), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(vm_hwm_kib(pid).is_some_and(|kib| kib > 0));
        let a = CpuSample::of(pid);
        let b = CpuSample::of(pid);
        assert!(b.cpu_ns >= a.cpu_ns);
        assert_eq!(CpuSample::of(u32::MAX), CpuSample::default());
    }
}
