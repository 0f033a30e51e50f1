//! Process accounting read from `/proc/self`: CPU time, peak resident
//! memory and bytes written to storage, plus on-disk sizes.

use std::path::Path;

/// User + system CPU seconds of this process (`/proc/self/stat` fields
/// 14 and 15, in the kernel's fixed 100 Hz `USER_HZ` ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields restart after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After ')': state is field 3, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Bytes this process caused to be written to storage (`/proc/self/io`).
pub fn storage_write_bytes() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// The machine-wide CPU tick counters of `/proc/stat`: (steal, total).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time the hypervisor ran other guests between two
/// [`cpu_ticks`] readings: a measure of how noisy the machine was.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// Pins the calling thread, and so every thread it starts later, to the
/// last CPU it may run on; returns that CPU. On one CPU a request's
/// hand-offs between client, router and node threads never wait for an
/// idle virtual CPU to be woken, and such wake-ups are what hypervisor
/// steal inflates most.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write exactly `size` bytes of a local
    // array; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Writes the dirty data of the file system holding `dir` to disk
/// (`syncfs`), so it is not written back while a later phase is timed.
pub fn sync_fs(dir: &Path) {
    extern "C" {
        fn syncfs(fd: i32) -> i32;
    }
    if let Ok(d) = std::fs::File::open(dir) {
        // SAFETY: `d` keeps the descriptor open for the call.
        unsafe { syncfs(std::os::fd::AsRawFd::as_raw_fd(&d)) };
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_reads_nonzero_values() {
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
