//! The two raw Linux system calls the benchmark needs and the standard
//! library does not offer: CPU affinity and the thread CPU clock.
//!
//! The benchmark pins itself to one CPU. The closed loop never has two
//! threads with work at once: the client waits while the chain relays, and
//! the chain idles while the client verifies. Spread over two CPUs, every
//! hand-off is a cross-CPU wake-up of an idle CPU, whose cost swings with
//! the host (in a VM an idle vCPU halts and is woken through the
//! hypervisor). On one CPU a hand-off is a plain context switch. On a
//! 2-vCPU VM, `modbus-rr` ran ~40% faster pinned, and its `rtt_p50_us`
//! varied across runs by 2% instead of 17%.

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the highest-numbered CPU it may run on. Call it before starting any
/// thread. Returns the CPU, or `None` where pinning is unavailable (the
/// benchmark then runs unpinned and says so in its report).
pub fn pin_to_one_cpu() -> Option<u32> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: sched_getaffinity(0, size, mask) writes at most `size` bytes
    // into `mask`, which lives across the call.
    let got = unsafe { syscall3(nr::SCHED_GETAFFINITY, 0, size, mask.as_mut_ptr() as usize) };
    if got <= 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros();
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: sched_setaffinity(0, size, one) only reads `size` bytes from
    // `one`, which lives across the call.
    let set = unsafe { syscall3(nr::SCHED_SETAFFINITY, 0, size, one.as_ptr() as usize) };
    (set == 0).then(|| word as u32 * 64 + bit)
}

/// CPU time the calling thread has used, in nanoseconds (0 where the
/// clock is unavailable). On one CPU a thread's wall-clock interval also
/// holds the time other threads ran in it, so the traced run measures
/// self times on this clock.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: usize = 3;
    let mut ts = [0i64; 2];
    // SAFETY: clock_gettime(clock, ts) writes one `struct timespec` (two
    // 64-bit fields on the supported targets) into `ts`, which lives
    // across the call.
    let ret = unsafe {
        syscall3(nr::CLOCK_GETTIME, CLOCK_THREAD_CPUTIME_ID, ts.as_mut_ptr() as usize, 0)
    };
    if ret != 0 {
        return 0;
    }
    (ts[0] as u64).wrapping_mul(1_000_000_000).wrapping_add(ts[1] as u64)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const SCHED_SETAFFINITY: usize = 203;
    pub const SCHED_GETAFFINITY: usize = 204;
    pub const CLOCK_GETTIME: usize = 228;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const SCHED_SETAFFINITY: usize = 122;
    pub const SCHED_GETAFFINITY: usize = 123;
    pub const CLOCK_GETTIME: usize = 113;
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod nr {
    pub const SCHED_SETAFFINITY: usize = usize::MAX;
    pub const SCHED_GETAFFINITY: usize = usize::MAX;
    pub const CLOCK_GETTIME: usize = usize::MAX;
}

/// A raw three-argument Linux system call; returns the kernel's result
/// (a negative errno on failure).
///
/// # Safety
///
/// Any pointer among the arguments must be valid for what syscall `n`
/// does with it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(n: usize, a0: usize, a1: usize, a2: usize) -> isize {
    let ret: isize;
    // SAFETY: the x86-64 Linux syscall ABI: number in rax, arguments in
    // rdi/rsi/rdx, rcx and r11 clobbered by the instruction; the caller
    // vouches for the pointers.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// A raw three-argument Linux system call; returns the kernel's result
/// (a negative errno on failure).
///
/// # Safety
///
/// Any pointer among the arguments must be valid for what syscall `n`
/// does with it.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall3(n: usize, a0: usize, a1: usize, a2: usize) -> isize {
    let ret: isize;
    // SAFETY: the aarch64 Linux syscall ABI: number in x8, arguments in
    // x0..x2, result in x0; the caller vouches for the pointers.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a0 => ret,
            in("x1") a1,
            in("x2") a2,
            options(nostack),
        );
    }
    ret
}

/// Elsewhere there is no raw syscall path: every call fails with ENOSYS.
///
/// # Safety
///
/// Always safe; `unsafe` only to match the Linux signature.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn syscall3(_n: usize, _a0: usize, _a1: usize, _a2: usize) -> isize {
    -38
}
