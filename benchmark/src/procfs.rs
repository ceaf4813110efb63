//! Process and thread accounting from `/proc/self`.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: u64 = 100;

/// User plus system CPU of the whole process, in ns (10 ms resolution).
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * (1_000_000_000 / USER_HZ)
}

/// CPU time in ns of every live thread whose name starts with `prefix`
/// and ends with `suffix`, from each thread's `schedstat`.
pub fn threads_cpu_ns(prefix: &str, suffix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let path = task.path();
        let Ok(comm) = fs::read_to_string(path.join("comm")) else {
            continue;
        };
        let comm = comm.trim_end();
        if !(comm.starts_with(prefix) && comm.ends_with(suffix)) {
            continue;
        }
        if let Ok(schedstat) = fs::read_to_string(path.join("schedstat")) {
            total += schedstat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    total
}

/// Peak resident set (`VmHWM`) of the process, in KiB.
pub fn vm_hwm_kb() -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was taken from, read from `.git` without
/// running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
