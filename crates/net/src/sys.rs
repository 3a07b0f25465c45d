//! The one raw syscall the socket transport needs: `ppoll`, for a timed
//! wait on a blocking socket. `std` cannot express it — a read timeout
//! on the socket cannot be zero, and a zero timeout must be one
//! non-blocking look. Invoked directly (inline asm) because the
//! workspace links no libc-wrapping crates.

use std::io;
use std::time::Instant;

#[cfg(target_arch = "x86_64")]
const PPOLL: usize = 271;

#[cfg(target_arch = "aarch64")]
const PPOLL: usize = 73;

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("sitra-net's ppoll shim supports x86_64 and aarch64 Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

/// `ppoll(fds, nfds, ts, NULL)`: the raw return, a count or `-errno`.
///
/// SAFETY: the kernel reads `nfds` entries from `fds` and writes their
/// `revents`, and reads and writes `*ts`; both are live, exclusively
/// borrowed locals of the layouts ppoll(2) expects for as long as the
/// call runs. A null signal mask leaves the thread's own in place. The
/// asm clobbers only what the Linux syscall ABI does.
#[allow(unsafe_code)]
fn ppoll(fds: &mut [PollFd], ts: &mut Timespec) -> isize {
    let (fds, nfds, ts) = (fds.as_mut_ptr() as usize, fds.len(), ts as *mut _ as usize);
    let ret: isize;
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") PPOLL as isize => ret,
            in("rdi") fds,
            in("rsi") nfds,
            in("rdx") ts,
            in("r10") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") PPOLL,
            inlateout("x0") fds as isize => ret,
            in("x1") nfds,
            in("x2") ts,
            in("x3") 0usize,
            options(nostack),
        );
    }
    ret
}

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
        let mut pfd = [PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }];
        match ppoll(&mut pfd, &mut ts) {
            n if n >= 0 => return Ok(n > 0),
            n => {
                let e = io::Error::from_raw_os_error(-n as i32);
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
        }
    }
}
