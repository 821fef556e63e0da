//! Raw Linux syscalls for kernel readiness — **no libc dependency**.
//!
//! The repo is deliberately pure-std (see the vendored-crate offline note
//! in the ROADMAP): rather than pulling in `libc`/`mio`, the handful of
//! kernel entry points the event loop needs — `epoll_create1`,
//! `epoll_ctl`, `epoll_pwait`, and `prlimit64` for the stress tests —
//! are invoked directly with `core::arch::asm!` on the
//! architectures this project deploys to (x86-64 and aarch64 Linux).
//! Everything is wrapped in safe types here; nothing outside this module
//! touches a syscall number.
//!
//! On any other target the module still compiles but [`supported`] returns
//! `false` and [`Epoll::new`] fails with `Unsupported`; the event loop
//! then keeps its portable readiness-scan fallback (see
//! [`crate::evloop`]). That split is decided per call site at compile time
//! — the unsupported arms are `cfg`d to stubs, not runtime probes.
//!
//! The syscall ABI used here is the stable Linux one:
//!
//! * x86-64: number in `rax`, args in `rdi rsi rdx r10 r8 r9`, `syscall`
//!   clobbers `rcx`/`r11`, result in `rax` (negative errno on failure).
//! * aarch64: number in `x8`, args in `x0..x5`, `svc 0`, result in `x0`.
//!
//! `epoll_wait(2)` itself does not exist on aarch64; both targets use
//! `epoll_pwait` with a null signal mask, which is identical.

use std::io;
#[cfg(unix)]
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::time::Duration;

/// Whether this build carries the raw-syscall readiness backend (Linux on
/// x86-64/aarch64). `false` means [`Epoll::new`] always fails and the
/// event loop uses its portable scan fallback.
pub const fn supported() -> bool {
    cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))
}

/// Readiness flags of one [`EpollEvent`], mirroring the kernel's
/// `EPOLL*` bits. Only the bits the event loop consumes are named.
pub mod flags {
    /// The fd is readable (`EPOLLIN`).
    pub const IN: u32 = 0x001;
    /// The fd is writable (`EPOLLOUT`).
    pub const OUT: u32 = 0x004;
    /// Error condition (`EPOLLERR`). Always reported, never registered.
    pub const ERR: u32 = 0x008;
    /// Hang-up (`EPOLLHUP`). Always reported, never registered.
    pub const HUP: u32 = 0x010;
    /// Peer closed its write side (`EPOLLRDHUP`).
    pub const RDHUP: u32 = 0x2000;
    /// Edge-triggered delivery (`EPOLLET`).
    pub const ET: u32 = 1 << 31;
}

/// One readiness event, ABI-compatible with the kernel's `struct
/// epoll_event`. On x86-64 the kernel lays this struct out packed (12
/// bytes); everywhere else it is naturally aligned.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// `EPOLL*` readiness bits, see [`flags`].
    pub events: u32,
    /// The caller's token, echoed back verbatim.
    pub token: u64,
}

impl EpollEvent {
    /// A zeroed event, for pre-sizing wait buffers.
    pub const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, token: 0 }
    }

    /// The token this event is for (copies out of the possibly-packed
    /// struct, so callers never take a reference into it).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The readiness bits (copied out, as with [`EpollEvent::token`]).
    pub fn events(&self) -> u32 {
        self.events
    }
}

/// A kernel epoll instance: O(1) readiness discovery over any number of
/// registered fds, the engine behind the event loop's epoll path.
///
/// The wrapper owns the epoll fd (an [`OwnedFd`], closed on drop).
/// Registration uses raw fds (`std::os::fd::AsRawFd` on the stream); the
/// caller must keep the registered socket alive until it deregisters it
/// or drops the `Epoll` — the kernel removes closed fds from the interest
/// list on its own, so dropping a socket first is safe, merely untidy.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

/// Off unix there are no fds to own, and none is ever created:
/// [`Epoll::new`]'s syscall stub fails with `ENOSYS` first.
#[cfg(not(unix))]
#[derive(Debug)]
enum OwnedFd {}

#[cfg(not(unix))]
impl OwnedFd {
    unsafe fn from_raw_fd(_: i32) -> OwnedFd {
        unreachable!("the syscall stub never returns a descriptor")
    }

    fn as_raw_fd(&self) -> i32 {
        match *self {}
    }
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// `Unsupported` on targets without the raw-syscall backend;
    /// otherwise the kernel's errno (e.g. fd exhaustion).
    pub fn new() -> io::Result<Epoll> {
        const EPOLL_CLOEXEC: usize = 0o2000000;
        // SAFETY: epoll_create1 takes no pointers; a flags-only syscall.
        let fd = syscall_result(unsafe { syscall3(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0) })?;
        // SAFETY: epoll_create1 just returned this fd, open and owned by
        // nothing else, so the `OwnedFd` is its only owner.
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd as i32) } })
    }

    /// Registers `fd` with the given interest `events` (see [`flags`]) and
    /// `token`. The token comes back verbatim in every event for this fd.
    ///
    /// # Errors
    ///
    /// The kernel's errno (`EEXIST` for double registration, `EBADF` for
    /// a dead fd, ...).
    pub fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(op::ADD, fd, events, token)
    }

    /// Removes `fd` from the interest list. Harmless to call for an fd
    /// the kernel already dropped (the `ENOENT` is swallowed — the
    /// desired state is reached either way).
    pub fn del(&self, fd: i32) -> io::Result<()> {
        match self.ctl(op::DEL, fd, 0, 0) {
            Err(e) if e.raw_os_error() == Some(2 /* ENOENT */) => Ok(()),
            Err(e) if e.raw_os_error() == Some(9 /* EBADF */) => Ok(()),
            other => other,
        }
    }

    /// Blocks until at least one registered fd is ready, `timeout`
    /// elapses (`None` = forever, `Some(ZERO)` = poll), or a signal
    /// arrives. Fills `events` and returns how many are valid.
    ///
    /// # Errors
    ///
    /// The kernel's errno. `EINTR` is retried internally — the call only
    /// returns early with events or an elapsed timeout.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: isize = match timeout {
            None => -1,
            // Round sub-millisecond timeouts up so a nonzero timeout
            // never degenerates into a busy poll.
            Some(d) if d.as_millis() == 0 && !d.is_zero() => 1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as isize,
        };
        loop {
            // SAFETY: the event buffer outlives the call and its length
            // is passed alongside; the null sigmask (arg 5 = 0) makes
            // the kernel skip the sigset read entirely.
            let res = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.fd.as_raw_fd() as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0, // null sigmask: plain epoll_wait semantics
                    8, // sizeof(sigset_t) — ignored with a null mask
                )
            };
            match syscall_result(res) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.raw_os_error() == Some(4 /* EINTR */) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn ctl(&self, op: usize, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        // SAFETY: `ev` is a live, correctly laid out (#[repr] asserted
        // by the ABI test below) epoll_event the kernel reads before the
        // call returns; no pointer escapes it.
        syscall_result(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as usize,
                op,
                fd as usize,
                &mut ev as *mut EpollEvent as usize,
                0,
                0,
            )
        })
        .map(|_| ())
    }
}

mod op {
    pub const ADD: usize = 1;
    pub const DEL: usize = 2;
}

/// Raises this process's `RLIMIT_NOFILE` soft limit to at least `want`
/// fds (clamped to the hard limit), via `prlimit64` on self. Returns the
/// soft limit actually in effect afterwards. Used by the C10K stress
/// test, which needs tens of thousands of loopback sockets.
///
/// # Errors
///
/// `Unsupported` without the raw-syscall backend; otherwise the kernel's
/// errno (`EPERM` when `want` exceeds the hard limit and the process is
/// unprivileged — the soft limit is still raised as far as allowed).
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    const RLIMIT_NOFILE: usize = 7;
    #[repr(C)]
    struct Rlimit64 {
        cur: u64,
        max: u64,
    }
    let mut current = Rlimit64 { cur: 0, max: 0 };
    // SAFETY: `current` is a live #[repr(C)] rlimit64 the kernel fills
    // before returning; the new-limit pointer (arg 3) is null = read-only.
    syscall_result(unsafe {
        syscall6(nr::PRLIMIT64, 0, RLIMIT_NOFILE, 0, &mut current as *mut Rlimit64 as usize, 0, 0)
    })?;
    if current.cur >= want {
        return Ok(current.cur);
    }
    let new = Rlimit64 { cur: want.min(current.max), max: current.max };
    // SAFETY: `new` is a live #[repr(C)] rlimit64 the kernel only reads;
    // the old-limit pointer (arg 4) is null = nothing written back.
    syscall_result(unsafe {
        syscall6(nr::PRLIMIT64, 0, RLIMIT_NOFILE, &new as *const Rlimit64 as usize, 0, 0, 0)
    })?;
    Ok(new.cur)
}

/// Maps a raw syscall return to `io::Result`: values in `[-4095, -1]`
/// are negated errnos, everything else is success.
fn syscall_result(ret: isize) -> io::Result<isize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------
// Per-architecture syscall numbers and trampolines. Everything below is
// the only unsafe surface of the module; the numbers are part of the
// kernel's stable ABI and can never change.
// ---------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CREATE1: usize = 291;
    pub const PRLIMIT64: usize = 302;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const PRLIMIT64: usize = 261;
}

/// Stub numbers for unsupported targets — never executed (the
/// trampolines below return `ENOSYS` without issuing a syscall), present
/// only so the module typechecks everywhere.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod nr {
    pub const EPOLL_CTL: usize = usize::MAX;
    pub const EPOLL_PWAIT: usize = usize::MAX;
    pub const EPOLL_CREATE1: usize = usize::MAX;
    pub const PRLIMIT64: usize = usize::MAX;
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall6(
    n: usize,
    a0: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
) -> isize {
    let ret: isize;
    // SAFETY: the x86-64 Linux syscall ABI — args in rdi/rsi/rdx/r10/
    // r8/r9, number in rax, rcx/r11 clobbered by the instruction. The
    // caller guarantees any pointers among the args are valid for the
    // specific syscall `n`.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            in("r9") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall6(
    n: usize,
    a0: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
) -> isize {
    let ret: isize;
    // SAFETY: the aarch64 Linux syscall ABI — args in x0..x5, number in
    // x8, result in x0. The caller guarantees any pointers among the
    // args are valid for the specific syscall `n`.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a0 => ret,
            in("x1") a1,
            in("x2") a2,
            in("x3") a3,
            in("x4") a4,
            in("x5") a5,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn syscall6(
    _n: usize,
    _a0: usize,
    _a1: usize,
    _a2: usize,
    _a3: usize,
    _a4: usize,
    _a5: usize,
) -> isize {
    -38 // ENOSYS: the portable fallback path reports Unsupported
}

unsafe fn syscall3(n: usize, a0: usize, a1: usize, a2: usize) -> isize {
    // SAFETY: same contract as `syscall6`, forwarded with the unused
    // argument slots zeroed (every syscall ignores args past its arity).
    unsafe { syscall6(n, a0, a1, a2, 0, 0, 0) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// Every test below exercises the real kernel ABI; they are gated on
    /// the supported targets rather than compiled out so an unsupported
    /// port fails loudly if it ever claims support.
    fn ensure_supported() -> bool {
        if !supported() {
            eprintln!("sys: raw-syscall backend unsupported here; skipping");
            return false;
        }
        true
    }

    #[test]
    fn epoll_event_abi_layout() {
        // The kernel contract: 12 bytes packed on x86-64, 16 aligned
        // elsewhere. A wrong layout corrupts every event after the first.
        if cfg!(target_arch = "x86_64") {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        } else {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
        }
    }

    #[test]
    fn epoll_reports_readable_socket() {
        if !ensure_supported() {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(server.as_raw_fd(), flags::IN | flags::ET, 7).unwrap();

        // Nothing written yet: a zero-timeout wait reports no events.
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);

        client.write_all(b"ready?").unwrap();
        let n = epoll.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & flags::IN, 0);

        // Edge-triggered: the event is consumed; without new bytes the
        // next zero-timeout wait is silent even though data is unread.
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);

        let mut buf = [0u8; 16];
        assert_eq!(server.read(&mut buf).unwrap(), 6);
        drop(client);
        // Peer hang-up arrives as a fresh edge.
        let n = epoll.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn deregistered_fd_goes_silent() {
        if !ensure_supported() {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(server.as_raw_fd(), flags::IN, 1).unwrap();
        epoll.del(server.as_raw_fd()).unwrap();
        // Deleting twice (or after the kernel dropped it) stays Ok.
        epoll.del(server.as_raw_fd()).unwrap();

        client.write_all(b"x").unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, Some(Duration::from_millis(50))).unwrap(), 0);
    }

    #[test]
    fn raise_nofile_limit_is_monotone() {
        if !ensure_supported() {
            return;
        }
        let before = raise_nofile_limit(0).unwrap();
        let after = raise_nofile_limit(before).unwrap();
        assert!(after >= before, "raising to the current limit must not shrink it");
    }
}
