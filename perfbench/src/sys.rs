//! Process clocks, memory and machine context (Linux).

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Timespec {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; both clock ids are
    // constants the kernel always supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts
}

/// User + system CPU time consumed by every thread of this process, in
/// seconds (nanosecond resolution).
pub fn process_cpu_s() -> f64 {
    let ts = cpu_clock(CLOCK_PROCESS_CPUTIME_ID);
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let ts = cpu_clock(CLOCK_THREAD_CPUTIME_ID);
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`), since start
/// or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts a new peak-RSS window at the end of set-up: hands the heap
/// memory freed by the repeated set-ups back to the system, then resets
/// `VmHWM` to the current resident set (`clear_refs` mode 5). Without it
/// the peak is the repeated set-ups' and how much of their freed memory
/// the allocator happened to keep.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` only releases free heap pages; it is safe to
    // call from any thread at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS: {e}"))
}

/// Wall and CPU seconds of one measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Times `f` on the wall clock and the process CPU clock.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Interval) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (out, Interval { wall_s, cpu_s })
}

/// One line describing the machine a result came from.
pub fn machine_context() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} threads={} cpu=\"{cpu}\"",
        voltsense::parallel::configured_threads()
    )
}
