//! CPU time and peak memory of a process, read from `/proc`.

use std::time::Duration;

/// `/proc/<pid>/stat` reports times in clock ticks of `USER_HZ`, which the
/// Linux ABI fixes at 100 on every architecture this builds for.
const TICKS_PER_SEC: u64 = 100;

/// User + system CPU time from one `/proc/<pid>/stat` line. The command
/// name (field 2) may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis(
        (utime + stime) * 1000 / TICKS_PER_SEC,
    ))
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in MiB.
pub fn parse_status_mib(status: &str, field: &str) -> Option<f64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Steal time from the aggregate `cpu` line of `/proc/stat`: how long this
/// guest's virtual CPUs were runnable while the host ran something else.
pub fn parse_stat_steal(stat: &str) -> Option<Duration> {
    let mut fields = stat.lines().next()?.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal
    let steal: u64 = fields.nth(7)?.parse().ok()?;
    Some(Duration::from_millis(steal * 1000 / TICKS_PER_SEC))
}

/// Steal time of the whole machine so far (zero where `/proc/stat` has no
/// such column).
pub fn steal_time() -> Duration {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_steal(&s))
        .unwrap_or_default()
}

/// CPU time of every live thread of `pid` so far.
pub fn cpu_time(pid: u32) -> Duration {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .expect("readable /proc/<pid>/stat (pxmark needs Linux procfs)")
}

/// Peak (`VmHWM`) and current (`VmRSS`) resident set of `pid`, in MiB.
pub fn rss_mib(pid: u32) -> (f64, f64) {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            Some((
                parse_status_mib(&s, "VmHWM")?,
                parse_status_mib(&s, "VmRSS")?,
            ))
        })
        .expect("readable /proc/<pid>/status (pxmark needs Linux procfs)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let line = "4242 (px mark) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 66 0 0 20 0 5 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu(line), Some(Duration::from_millis(13_000)));
        assert_eq!(parse_stat_cpu("4242 (short) S 1 2"), None);
        assert_eq!(parse_stat_cpu("no paren at all"), None);
    }

    #[test]
    fn status_hwm_is_kib_to_mib() {
        let status = "Name:\tpxmark\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_mib(status, "VmHWM"), Some(20.0));
        assert_eq!(parse_status_mib(status, "VmRSS"), Some(1.0 / 1024.0));
        assert_eq!(parse_status_mib(status, "Vm"), None);
        assert_eq!(parse_status_mib("Name:\tpxmark\n", "VmHWM"), None);
    }

    #[test]
    fn steal_is_the_eighth_column_of_the_cpu_line() {
        let stat = "cpu  171488 0 64860 522642 1954 0 3329 28682 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_stat_steal(stat), Some(Duration::from_millis(286_820)));
        assert_eq!(parse_stat_steal("cpu 1 2 3"), None);
        assert_eq!(parse_stat_steal("intr 5"), None);
    }

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        let (peak, now) = rss_mib(pid);
        assert!(peak >= now && now > 0.0);
        let _ = cpu_time(pid);
    }
}
