//! Readings of the host process: CPU clocks, peak memory, and the
//! threads alive under `/proc/self/task`. Linux only.

use std::collections::BTreeMap;
use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the Linux CPU clocks of a 64-bit target");

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

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) and `clock` is one of the
    // two CPU-time clock ids every Linux kernel provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of the whole process so far, summed over all threads,
/// including threads that have already exited.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Online CPUs of the machine, as `nproc --all` counts them.
pub fn nproc() -> usize {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines().filter(|l| l.starts_with("processor")).count()
}

/// One live thread of this process.
pub struct TaskSample {
    /// Thread name (`comm`).
    pub name: String,
    /// On-CPU seconds so far (first field of `schedstat`).
    pub cpu_s: f64,
}

/// Every thread currently alive in this process.
pub fn tasks() -> Vec<TaskSample> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let path = entry.path();
        // A thread can exit between the directory listing and the reads.
        let (Ok(comm), Ok(sched)) =
            (fs::read_to_string(path.join("comm")), fs::read_to_string(path.join("schedstat")))
        else {
            continue;
        };
        let ns = sched.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        out.push(TaskSample { name: comm.trim().to_string(), cpu_s: ns as f64 * 1e-9 });
    }
    out
}

/// Thread names with how many threads carry each.
pub fn thread_census(tasks: &[TaskSample]) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for t in tasks {
        *m.entry(t.name.clone()).or_insert(0) += 1;
    }
    m
}
