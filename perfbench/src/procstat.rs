//! Process CPU time and peak memory, read from outside the program under
//! test: `getrusage(RUSAGE_SELF)` for user and system CPU (every thread,
//! live or exited, at microsecond resolution) and `VmHWM` from
//! `/proc/self/status` for peak resident memory.

use std::time::Duration;

/// User and system CPU consumed by the whole process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode CPU.
    pub user: Duration,
    /// Kernel-mode CPU.
    pub sys: Duration,
}

impl CpuTimes {
    /// CPU spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }

    /// User plus system CPU.
    pub fn total(self) -> Duration {
        self.user + self.sys
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn to_duration(tv: &Timeval) -> Duration {
    let secs = u64::try_from(tv.tv_sec).unwrap_or(0);
    let micros = u64::try_from(tv.tv_usec).unwrap_or(0);
    Duration::from_secs(secs) + Duration::from_micros(micros)
}

/// CPU consumed by this process (all threads) so far.
pub fn cpu_now() -> CpuTimes {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `Rusage` whose layout matches
    // the C `struct rusage` on 64-bit Linux (two `struct timeval` of two
    // `long`s each, then fourteen `long`s); getrusage writes only that
    // struct and reads nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    CpuTimes {
        user: to_duration(&usage.ru_utime),
        sys: to_duration(&usage.ru_stime),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_peak_rss_is_positive() {
        let before = cpu_now();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = cpu_now().since(before);
        assert!(spent.total() >= Duration::from_millis(10), "{spent:?}");
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
