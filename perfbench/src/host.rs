//! Process resource probes and the host provenance recorded with every
//! result row.

use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters, none of which is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // kernel's 64-bit Linux layout, and `RUSAGE_SELF` names a valid
    // target, so `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// Process CPU seconds so far, user plus system, summed over threads.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&u.ru_utime) + secs(&u.ru_stime)
}

/// Peak resident set size of this process so far, in MiB: `VmHWM`,
/// which exec resets (`ru_maxrss` would inherit the peak of a parent
/// such as `cargo run`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kib / 1024.0
}

/// Wall and CPU time of one operation.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

/// Runs `f`, returning its result with its wall and process CPU time.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (c0, t0) = (cpu_seconds(), Instant::now());
    let out = f();
    let cost = Cost {
        wall: t0.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - c0,
    };
    (out, cost)
}

/// Where and on what a result row was measured.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub commit: String,
}

impl Host {
    /// Probes the host. The commit comes from `.git` in the working
    /// directory when there is one, and is `"unknown"` otherwise.
    #[must_use]
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model,
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Resolves `HEAD` by reading `.git` directly, so no process is
/// started and a checkout without history simply has no commit.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find_map(|l| {
                    l.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let (sum, cost) = measure(|| (0..5_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sum > 0);
        assert!(cost.cpu > 0.0 && cost.wall > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
