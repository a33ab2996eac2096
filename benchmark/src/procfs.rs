//! What the kernel says this process used: `/proc/self/{stat,status,task}`.

use std::fs;

/// Kernel clock ticks per second. `/proc` reports CPU time in ticks of
/// `USER_HZ`, which Linux fixes at 100 on every architecture it supports.
const TICKS_PER_S: u64 = 100;

/// User plus system CPU ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The number after `key:` in the text of a `/proc/<pid>/status` file
/// (`VmHWM` in kB, `Threads`, `voluntary_ctxt_switches`, ...).
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// CPU time this process has used so far, in microseconds.
pub fn cpu_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).unwrap_or(0) * (1_000_000 / TICKS_PER_S)
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Resident set of this process right now, in MB.
pub fn rss_mb() -> f64 {
    status_field("VmRSS") as f64 / 1024.0
}

/// Threads alive in this process.
pub fn threads() -> u64 {
    status_field("Threads")
}

fn status_field(key: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_field(&status, key).unwrap_or(0)
}

/// Voluntary plus involuntary context switches summed over the threads
/// alive now (`/proc/self/status` alone counts only the main thread).
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("status")).ok())
        .map(|s| {
            parse_status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + parse_status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c)) S 1 4242 4242 0 -1 4194560 \
                    900 0 0 0 123 45 0 0 20 0 7 0 100 1000 200";
        assert_eq!(parse_cpu_ticks(stat), Some(168));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tbenchmark\nVmHWM:\t  254321 kB\nThreads:\t9\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(254_321));
        assert_eq!(parse_status_field(status, "Threads"), Some(9));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(parse_status_field(status, "VmPeak"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(threads() >= 1);
        assert!(peak_rss_mb() > 0.0);
    }
}
