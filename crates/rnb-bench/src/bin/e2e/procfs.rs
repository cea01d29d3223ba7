//! CPU time and memory of processes, read from `/proc` (Linux only).
//!
//! CPU is the sum of on-CPU nanoseconds over `/proc/<pid>/task/*/schedstat`
//! (first field), falling back to `utime + stime` of `/proc/<pid>/stat`
//! where schedstats are compiled out. The task sum only sees threads that
//! are alive at both samples, which holds for `rnb-stored`'s fixed thread
//! set; the benchmark's own client threads read `/proc/thread-self`
//! around their measured loop instead.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is 100
/// on every Linux ABI this repo targets; std cannot query `sysconf`.
const NS_PER_TICK: u64 = 10_000_000;

/// On-CPU nanoseconds from the text of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` in clock ticks from the text of a `stat` file. The
/// `comm` field may contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After `comm`: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The numeric value of `key` (e.g. `"VmRSS:"`, `"Threads:"`) from the
/// text of a `status` file; memory fields are in kB.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU nanoseconds of every live thread of `pid`.
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    let from_tasks = || -> Option<u64> {
        let mut total = 0;
        for task in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
            let text = fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            total += parse_schedstat(&text)?;
        }
        Some(total)
    };
    from_tasks().or_else(|| {
        let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        Some(parse_stat_ticks(&text)? * NS_PER_TICK)
    })
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> Option<u64> {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat(&t))
        .or_else(|| {
            let text = fs::read_to_string("/proc/thread-self/stat").ok()?;
            Some(parse_stat_ticks(&text)? * NS_PER_TICK)
        })
}

/// A numeric field of `/proc/<pid>/status`.
pub fn process_status(pid: u32, key: &str) -> Option<u64> {
    parse_status_field(
        &fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        key,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_takes_the_run_time_field() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn stat_survives_hostile_comm_fields() {
        let tail = "S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 9 0 100 1 2";
        for comm in ["(rnb-stored)", "(a b c)", "(evil) S 9 9 (x)", "(()"] {
            let line = format!("4242 {comm} {tail}");
            assert_eq!(parse_stat_ticks(&line), Some(300), "{comm}");
        }
        assert_eq!(parse_stat_ticks("1 (short) S 1 2"), None);
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_fields_by_key() {
        let text = "Name:\trnb-stored\nVmRSS:\t    7340 kB\nThreads:\t9\n";
        assert_eq!(parse_status_field(text, "VmRSS:"), Some(7340));
        assert_eq!(parse_status_field(text, "Threads:"), Some(9));
        assert_eq!(parse_status_field(text, "VmSwap:"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(thread_cpu_ns().is_some());
        assert!(process_cpu_ns(std::process::id()).is_some());
        assert!(process_status(std::process::id(), "VmRSS:").unwrap() > 0);
    }
}
