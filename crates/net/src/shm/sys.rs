//! Raw syscalls for the shared-memory transport: `mmap`/`munmap` for
//! mapping `/dev/shm` segments, and cross-process `futex` wait/wake
//! for ring synchronization — plus the one the socket transport needs,
//! `ppoll` for a timed wait on a blocking socket. Invoked directly
//! (inline asm) because the workspace links no libc-wrapping crates;
//! file creation and sizing go through `std::fs`, which covers
//! everything else this module would need.

use std::io;
use std::sync::atomic::AtomicU32;
use std::time::{Duration, Instant};

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const FUTEX: usize = 202;
    pub const PPOLL: usize = 271;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const MMAP: usize = 222;
    pub const MUNMAP: usize = 215;
    pub const FUTEX: usize = 98;
    pub const PPOLL: usize = 73;
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("sitra-net shm transport supports x86_64 and aarch64 Linux only");

#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") nr as isize => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
        "svc 0",
        in("x8") nr,
        inlateout("x0") a as isize => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack),
    );
    ret
}

fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

const PROT_READ: usize = 1;
const PROT_WRITE: usize = 2;
const MAP_SHARED: usize = 1;

/// Map `len` bytes of `fd` shared read-write.
pub(crate) fn mmap_shared(fd: i32, len: usize) -> io::Result<*mut u8> {
    let ret = unsafe {
        syscall6(
            nr::MMAP,
            0,
            len,
            PROT_READ | PROT_WRITE,
            MAP_SHARED,
            fd as usize,
            0,
        )
    };
    check(ret).map(|addr| addr as *mut u8)
}

/// Unmap a region mapped with [`mmap_shared`].
pub(crate) fn munmap(ptr: *mut u8, len: usize) {
    unsafe {
        let _ = syscall6(nr::MUNMAP, ptr as usize, len, 0, 0, 0, 0);
    }
}

// Deliberately NOT the `_PRIVATE` variants: these words live in
// MAP_SHARED memory and must wake waiters in other processes.
const FUTEX_WAIT: usize = 0;
const FUTEX_WAKE: usize = 1;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Outcome of a [`futex_wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitOutcome {
    /// Woken, value changed, or interrupted — re-check the condition.
    Check,
    /// The timeout elapsed.
    TimedOut,
}

/// Sleep while `*word == expected`, up to `timeout` (forever if
/// `None`). The caller must read `expected` *before* re-checking its
/// wakeup condition, in that order, or wakes can be lost.
pub(crate) fn futex_wait(
    word: &AtomicU32,
    expected: u32,
    timeout: Option<Duration>,
) -> WaitOutcome {
    let ts = timeout.map(|d| Timespec {
        tv_sec: d.as_secs() as i64,
        tv_nsec: d.subsec_nanos() as i64,
    });
    let ts_ptr = ts
        .as_ref()
        .map(|t| t as *const Timespec as usize)
        .unwrap_or(0);
    let ret = unsafe {
        syscall6(
            nr::FUTEX,
            word.as_ptr() as usize,
            FUTEX_WAIT,
            expected as usize,
            ts_ptr,
            0,
            0,
        )
    };
    // ETIMEDOUT = 110. EAGAIN (value already changed) and EINTR both
    // mean "go re-check".
    if ret == -110 {
        WaitOutcome::TimedOut
    } else {
        WaitOutcome::Check
    }
}

/// Wake up to `n` waiters on `word`.
pub(crate) fn futex_wake(word: &AtomicU32, n: i32) {
    unsafe {
        let _ = syscall6(
            nr::FUTEX,
            word.as_ptr() as usize,
            FUTEX_WAKE,
            n as usize,
            0,
            0,
            0,
        );
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

/// Wait until a read on `fd` would not block — bytes, a FIN or an
/// error are waiting — or `deadline` passes (one that already has
/// makes this a non-blocking look). `true` when readable.
pub(crate) fn poll_readable(fd: i32, deadline: Instant) -> io::Result<bool> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        // The kernel writes the time left back into `ts`.
        let mut ts = Timespec {
            tv_sec: left.as_secs() as i64,
            tv_nsec: left.subsec_nanos() as i64,
        };
        let mut pfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        // SAFETY: `pfd` and `ts` are live, exclusively borrowed locals
        // of the layouts ppoll(2) expects; one entry, no signal mask.
        let ret = unsafe {
            syscall6(
                nr::PPOLL,
                &mut pfd as *mut PollFd as usize,
                1,
                &mut ts as *mut Timespec as usize,
                0,
                0,
                0,
            )
        };
        match check(ret) {
            Ok(n) => return Ok(n > 0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn futex_wait_times_out_and_wakes() {
        let word = Arc::new(AtomicU32::new(0));
        // Timeout path.
        let t0 = std::time::Instant::now();
        assert_eq!(
            futex_wait(&word, 0, Some(Duration::from_millis(20))),
            WaitOutcome::TimedOut
        );
        assert!(t0.elapsed() >= Duration::from_millis(15));
        // Value-changed path returns immediately.
        assert_eq!(
            futex_wait(&word, 1, Some(Duration::from_secs(5))),
            WaitOutcome::Check
        );
        // Cross-thread wake path.
        let w2 = Arc::clone(&word);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            w2.store(1, Ordering::Release);
            futex_wake(&w2, 1);
        });
        while word.load(Ordering::Acquire) == 0 {
            futex_wait(&word, 0, Some(Duration::from_secs(5)));
        }
        h.join().unwrap();
    }

    #[test]
    fn mmap_roundtrip_through_dev_shm() {
        let path = format!("/dev/shm/sitra-net-sys-test-{}", std::process::id());
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap();
        file.set_len(8192).unwrap();
        let ptr = {
            use std::os::fd::AsRawFd;
            mmap_shared(file.as_raw_fd(), 8192).unwrap()
        };
        drop(file);
        std::fs::remove_file(&path).unwrap();
        // The mapping outlives both the fd and the directory entry.
        unsafe {
            ptr.write(0xAB);
            ptr.add(8191).write(0xCD);
            assert_eq!(ptr.read(), 0xAB);
            assert_eq!(ptr.add(8191).read(), 0xCD);
        }
        munmap(ptr, 8192);
    }
}
