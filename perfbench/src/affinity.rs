//! Pinning replay threads to CPUs.
//!
//! A thread that the scheduler moves between CPUs mid-replay arrives at
//! cold caches, and on a small box the move shows up as run-to-run swings
//! in the latency tail. Each replay thread is therefore pinned to its own
//! CPU out of the set the process may use (thread `t` to the `t`th
//! allowed CPU, wrapping). Pinning is best effort: where it fails, or off
//! Linux, threads run unpinned.

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` as glibc and musl define it: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// The CPUs this process may run on, in ascending order (empty if
/// unknown).
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: sys::CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread; `set` is a writable buffer of
    // exactly the size passed.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// See the Linux version.
#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Pins the calling thread to the `index`th CPU of `cpus` (wrapping).
/// Returns whether the thread is now pinned.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpus: &[usize], index: usize) -> bool {
    let Some(&cpu) = cpus.get(index % cpus.len().max(1)) else {
        return false;
    };
    let mut set: sys::CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; `set` is a readable buffer of
    // exactly the size passed.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) == 0 }
}

/// See the Linux version.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpus: &[usize], _index: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_an_allowed_cpu() {
        let cpus = allowed_cpus();
        if cfg!(target_os = "linux") {
            assert!(!cpus.is_empty());
        }
        std::thread::spawn(move || {
            if pin_current_thread(&cpus, 1) {
                assert_eq!(allowed_cpus(), vec![cpus[1 % cpus.len()]]);
            }
        })
        .join()
        .unwrap();
    }
}
