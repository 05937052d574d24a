//! Process-level measurements the standard library does not offer: pinning
//! the process to one CPU, process CPU time, and peak resident set. All three
//! act on this process only.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark measures through 64-bit Linux getrusage and sched_setaffinity");

use std::time::Duration;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux (checked by the cfg above).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage
}

/// User plus system CPU time of the whole process so far.
pub fn cpu_time() -> Duration {
    let u = rusage();
    let micros = (u.utime.sec + u.stime.sec) * 1_000_000 + u.utime.usec + u.stime.usec;
    Duration::from_micros(u64::try_from(micros).unwrap_or(0))
}

/// Peak resident set of this process image so far, in MiB: `VmHWM` from
/// `/proc/self/status`. `getrusage`'s `ru_maxrss` would also count the image
/// the process replaced at exec, which under `cargo run` is cargo's.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Pins the calling thread, and so every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` when the
/// affinity calls fail (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}
