//! Readiness notification: a thin std-only wrapper over the raw Linux
//! `epoll` interface.
//!
//! The workspace is hermetic — no `libc` crate — so the three epoll
//! entry points are declared as raw `extern "C"` symbols against the C
//! library `std` already links, the same technique `mcached` uses for
//! its signal calls. The module is Linux-only; elsewhere
//! `Server::start` reports `Unsupported`.
//!
//! Registration protocol (DESIGN §16):
//!
//! - every fd is registered **edge-triggered** (`EPOLLET`), so the
//!   kernel wakes a worker exactly once per readiness transition and
//!   the worker must drain until `WouldBlock` — which the connection
//!   state machine's pump already does;
//! - read interest (`EPOLLIN | EPOLLRDHUP`) is permanent for the life
//!   of the fd;
//! - write interest (`EPOLLOUT`) is armed only while a connection has
//!   pending response bytes and disarmed the moment the buffer drains,
//!   so an idle writable socket never wakes anybody (the arm/disarm
//!   signal is exactly the backpressure state from PR 7).

use std::io;
use std::os::unix::io::RawFd;

/// One readiness event: the registration token plus edge flags.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// The `u64` token passed at registration (a connection slot index
    /// or one of the listener/UDP sentinels).
    pub(crate) token: u64,
    /// Readable — includes `EPOLLERR`/`EPOLLHUP`/`EPOLLRDHUP`, which
    /// must drive a read so the pump observes the error or EOF.
    pub(crate) readable: bool,
    /// Writable (`EPOLLOUT`).
    pub(crate) writable: bool,
}

// <sys/epoll.h>, x86_64/aarch64 Linux ABI. The event struct is
// packed on x86_64 (the kernel ABI predates natural alignment).
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// One epoll instance. Each network worker owns exactly one, so its
/// ready set only ever names connections that worker owns.
pub(crate) struct Poller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP | EPOLLET | if writable { EPOLLOUT } else { 0 },
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` edge-triggered with permanent read interest;
    /// `writable` arms `EPOLLOUT` too.
    pub(crate) fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, writable)
    }

    /// Re-registers `fd` — the EPOLLOUT arm/disarm edge.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, writable)
    }

    /// Deregisters `fd`. Closing an fd removes it implicitly; this
    /// exists for the reaper, which deregisters before the stream
    /// drop so a same-batch stale event can never land on a reused
    /// slot.
    pub(crate) fn delete(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits up to `timeout_ms` (0 = poll, -1 = forever) and appends
    /// the ready set to `out`. EINTR reads as an empty set.
    pub(crate) fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in &self.buf[..n as usize] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                // Error/hangup edges count as readable so the next
                // read(2) surfaces the condition to the pump.
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}
