//! `/proc` readers (CPU time, context switches, peak RSS, thread count) and
//! the run's provenance: host fingerprint and git revision.

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every architecture this runs on).
const USER_HZ: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`
/// (fields 14 and 15). The command name in field 2 may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The leading integer of a `Key:   value [unit]` line of a
/// `/proc/<pid>/status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches from one task's status text.
pub fn parse_ctxsw(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// CPU seconds this process has used so far, all threads included.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / USER_HZ)
}

/// Context switches summed over this process's live threads.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| parse_ctxsw(&s))
        .sum()
}

fn self_status(key: &str) -> Option<u64> {
    parse_status_field(&std::fs::read_to_string("/proc/self/status").ok()?, key)
}

/// CPU time and context switches of this process, read together so a
/// workload can bracket a measured interval.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Usage {
    /// CPU seconds, all threads.
    pub cpu_s: f64,
    /// Context switches summed over live threads.
    pub ctxsw: u64,
}

impl Usage {
    /// The process's usage so far.
    pub fn now() -> Usage {
        Usage {
            cpu_s: cpu_seconds(),
            ctxsw: context_switches(),
        }
    }

    /// The usage accrued between `start` and `self`.
    pub fn since(&self, start: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - start.cpu_s,
            ctxsw: self.ctxsw.saturating_sub(start.ctxsw),
        }
    }

    /// Accumulate another interval's usage.
    pub fn add(&mut self, o: &Usage) {
        self.cpu_s += o.cpu_s;
        self.ctxsw += o.ctxsw;
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    self_status("VmHWM").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Threads this process runs right now.
pub fn threads() -> usize {
    self_status("Threads").unwrap_or(0) as usize
}

/// Usable cores, as the scheduler grants them to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `model name` of the first CPU in `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// Host fingerprint: `nproc`, CPU model and kernel release.
pub fn host_fingerprint() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown-cpu".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown-kernel".into(), |s| s.trim().to_string());
    format!("nproc={} cpu={model} kernel={kernel}", nproc())
}

/// The commit checked out under `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == refname).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_skip_a_tricky_comm() {
        // Field 2 holds a space and a parenthesis; utime=17, stime=4.
        let stat = "4242 (exa bench) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 17 4 0 0 20 0 5 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(21));
        assert_eq!(parse_stat_cpu_ticks("4242 (short"), None);
    }

    #[test]
    fn status_fields_and_context_switches() {
        let status = "Name:\texabench\nThreads:\t5\nVmHWM:\t   20480 kB\n\
                      voluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "Threads"), Some(5));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        // `voluntary_ctxt_switches` must not match inside `nonvoluntary_...`.
        assert_eq!(parse_ctxsw(status), Some(127));
    }

    #[test]
    fn cpu_model_line() {
        let info = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Xeon(R) 9000\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Xeon(R) 9000"));
        assert_eq!(parse_cpu_model("processor : 0\n"), None);
    }

    #[test]
    fn live_process_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
        assert!(context_switches() > 0);
        assert!(cpu_seconds() >= 0.0);
    }
}
