//! Pin the whole benchmark process to one CPU.
//!
//! Measured on the 2-vCPU reference host: unpinned, the queued path
//! went 141 K → 11.7 K ops/s across back-to-back identical repeats
//! (cross-vCPU futex wake, p50 5.8 µs ↔ 55 µs); pinned it stays at
//! 125–160 K. Threads spawned after the call inherit the mask, so the
//! program's workers and the load-generator threads share the one CPU.
//! Consequence: spin-wait hand-offs are not rewarded by this benchmark.

/// `cpu_set_t` is 1024 bits on Linux.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // std already links libc; these are its declarations in <sched.h>
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling process to the highest-numbered CPU it is
/// currently allowed on — CPU 0 takes most device interrupts on the
/// reference host (15.7 K virtio-rx against 2 on CPU 1) and measured
/// noisier (same-seed `embed_tree_e` ranged 11 % there, 5 % on CPU 1).
/// Returns that CPU, or `None` when the mask could not be read or set
/// (the caller falls back to `taskset`).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 means the calling thread. The kernel writes at most
    // `cpusetsize` bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is
    // only read by the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// No affinity call off Linux: the caller reports the run as unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Environment flag marking a process re-executed under `taskset`.
const REEXEC_FLAG: &str = "NVCACHE_BENCHMARK_PINNED";

/// Pin this process, falling back to re-executing it under
/// `taskset -c 0` when the affinity call is refused. Returns the pinned
/// CPU, or `None` when both routes failed (the run then proceeds
/// unpinned and says so in its output).
pub fn pin_or_reexec() -> Option<usize> {
    if let Some(cpu) = pin_to_one_cpu() {
        return Some(cpu);
    }
    if std::env::var_os(REEXEC_FLAG).is_some() {
        return Some(0); // this is the child below, under `taskset -c 0`
    }
    let taskset = |program: &std::ffi::OsStr| {
        let mut c = std::process::Command::new("taskset");
        c.args(["-c", "0"]).arg(program);
        c
    };
    // can `taskset` pin at all? Asked with a program that does nothing,
    // so that below a non-zero exit can only be the benchmark's own
    if !taskset("true".as_ref()).status().is_ok_and(|s| s.success()) {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = taskset(exe.as_os_str())
        .args(std::env::args_os().skip(1))
        .env(REEXEC_FLAG, "1")
        .status()
        .ok()?;
    // the child did the whole run and printed its result
    std::process::exit(status.code().unwrap_or(1));
}
