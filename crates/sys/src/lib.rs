#![deny(unsafe_code)]
//! A thin `poll(2)` shim, the only foreign call in the workspace.
//!
//! The event-driven `hl-net` server needs readiness notification over
//! many nonblocking sockets, and the workspace builds offline with zero
//! external crates — no `libc`, no `mio`. `poll(2)` is in POSIX, its ABI
//! is three machine words per descriptor, and every libc we link against
//! exports it, so this crate declares exactly that one symbol and wraps
//! it in a safe, `io::Result`-shaped API:
//!
//! - [`PollFd`] — `#[repr(C)]` mirror of `struct pollfd`.
//! - [`poll()`] — waits for readiness on a set of descriptors with a
//!   millisecond timeout, retrying `EINTR` internally.
//!
//! Everything else in the workspace stays `#![forbid(unsafe_code)]`; the
//! crate-root attribute here is `deny` (not `forbid`) solely so the
//! `ffi` module can opt back in for the single foreign call.

#![warn(missing_docs)]

use std::io;
use std::time::Duration;

/// There is data to read (or, for a listener, a connection to accept).
pub const POLLIN: i16 = 0x001;
/// Writing now will not block.
pub const POLLOUT: i16 = 0x004;
/// Error condition on the descriptor (always polled, even if unrequested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always polled, even if unrequested).
pub const POLLHUP: i16 = 0x010;
/// The descriptor was not open (always polled, even if unrequested).
pub const POLLNVAL: i16 = 0x020;

/// One descriptor's interest set and readiness result — the ABI mirror
/// of POSIX `struct pollfd` (three machine words: `int fd; short events;
/// short revents;`), which is what makes passing `&mut [PollFd]`
/// straight to the syscall sound.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollFd {
    /// The descriptor to watch (a negative fd is legally ignored by
    /// `poll`, which callers can use to keep slot indexes stable).
    pub fd: i32,
    /// Requested events: a bitwise OR of [`POLLIN`] / [`POLLOUT`].
    pub events: i16,
    /// Returned events, filled by [`poll()`]; includes [`POLLERR`],
    /// [`POLLHUP`] and [`POLLNVAL`] even when not requested.
    pub revents: i16,
}

impl PollFd {
    /// A watch on `fd` for `events`, with `revents` cleared.
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// `true` when a read (or accept) would make progress: data, hangup
    /// or error — all three need a read attempt to observe the cause.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// `true` when a write would make progress (or fail fast on error).
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }

    /// `true` when the descriptor itself is broken ([`POLLNVAL`]).
    pub fn invalid(&self) -> bool {
        self.revents & POLLNVAL != 0
    }
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod ffi {
    //! The one unsafe block in the workspace: `poll(2)` by its POSIX
    //! signature. Soundness rests on [`super::PollFd`] being
    //! `#[repr(C)]`-identical to `struct pollfd` and on the slice's
    //! length being passed as its element count.

    use super::PollFd;

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }

    /// Direct syscall wrapper; returns the raw `poll` result (`-1` means
    /// consult `errno` via [`std::io::Error::last_os_error`]).
    pub fn poll_raw(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        let nfds = std::ffi::c_ulong::try_from(fds.len()).unwrap_or(std::ffi::c_ulong::MAX);
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd mirrors; nfds is its exact length; the
        // kernel writes only within `fds[..nfds]`.
        unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) }
    }
}

/// Waits until at least one descriptor in `fds` is ready, the timeout
/// elapses (`Ok(0)`), or a signal interrupts — `EINTR` is retried
/// internally with the same timeout. `None` blocks indefinitely and
/// `Some(Duration::ZERO)` does not block; any other timeout under a
/// millisecond waits a whole millisecond, the coarsest unit `poll` takes.
///
/// Returns the number of descriptors with nonzero `revents`.
#[cfg(unix)]
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = match timeout {
        None => -1i32,
        Some(d) if d.is_zero() => 0,
        Some(d) => i32::try_from(d.as_millis()).unwrap_or(i32::MAX).max(1),
    };
    loop {
        let rc = ffi::poll_raw(fds, timeout_ms);
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        return Ok(usize::try_from(rc).unwrap_or(0));
    }
}

/// Non-unix stub so the crate still type-checks off-platform; the server
/// that calls it is itself unix-only.
#[cfg(not(unix))]
pub fn poll(_fds: &mut [PollFd], _timeout: Option<Duration>) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "poll(2) requires a unix platform",
    ))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn timeout_with_nothing_ready_returns_zero() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(10))).expect("poll");
        assert_eq!(n, 0);
        assert!(!fds[0].readable());
    }

    #[test]
    fn written_byte_makes_the_read_side_ready() {
        let (a, mut b) = UnixStream::pair().expect("socketpair");
        b.write_all(&[7]).expect("write");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(1))).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert!(!fds[0].invalid());
    }

    #[test]
    fn hangup_reports_readable_so_the_read_observes_eof() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(1))).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "POLLHUP must count as readable");
    }

    #[test]
    fn writable_socket_reports_pollout() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let n = poll(&mut fds, Some(Duration::from_secs(1))).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].writable());
    }

    #[test]
    fn negative_fd_is_ignored_not_an_error() {
        let mut fds = [PollFd::new(-1, POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(5))).expect("poll");
        assert_eq!(n, 0);
        assert_eq!(fds[0].revents, 0);
    }

    #[test]
    fn sub_millisecond_timeout_waits_instead_of_spinning() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let started = std::time::Instant::now();
        let n = poll(&mut fds, Some(Duration::from_micros(500))).expect("poll");
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn zero_timeout_returns_at_once() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let started = std::time::Instant::now();
        let n = poll(&mut fds, Some(Duration::ZERO)).expect("poll");
        assert_eq!(n, 0);
        assert!(started.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn never_opened_fd_is_reported_invalid_not_an_error() {
        let mut fds = [PollFd::new(i32::MAX, POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(5))).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].invalid());
    }

    #[test]
    fn empty_set_is_a_pure_sleep() {
        let started = std::time::Instant::now();
        let n = poll(&mut [], Some(Duration::from_millis(15))).expect("poll");
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_millis(10));
    }
}
