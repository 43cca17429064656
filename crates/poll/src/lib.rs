//! Minimal readiness polling for the event-loop TCP transport.
//!
//! The build environment is fully offline, so this crate vendors the
//! few kernel interfaces an event loop needs — `epoll`, `eventfd`, and
//! a nonblocking `connect(2)` — as direct `extern "C"` declarations
//! against the platform libc, the same way the other stand-ins under
//! `vendor/` replace their crates.io originals. It is deliberately not
//! a general mio: one [`Poller`] per event loop, level-triggered
//! readiness, `u64` tokens chosen by the caller, and a thread-safe
//! [`Poller::wake`] so other threads can interrupt a blocking
//! [`Poller::wait`].
//!
//! Only Linux has a real implementation (the `epoll` family is a Linux
//! ABI). On other platforms every constructor returns
//! `io::ErrorKind::Unsupported`, which the TCP transport surfaces as a
//! loud configuration error — the in-process transport remains fully
//! portable.
//!
//! ## Shape
//!
//! ```no_run
//! use px_poll::{Interest, Poller};
//! use std::time::Duration;
//!
//! let poller = Poller::new().unwrap();
//! # let socket_fd = 0;
//! poller.register(socket_fd, 7, Interest::READABLE).unwrap();
//! let mut events = Vec::new();
//! poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
//! for ev in &events {
//!     if ev.token == px_poll::WAKE_TOKEN { /* another thread called wake() */ }
//!     if ev.readable() { /* fd with token 7 has bytes (or EOF) */ }
//! }
//! ```

#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

/// The token [`Poller::wait`] reports when another thread called
/// [`Poller::wake`]. Reserved: user registrations must not use it.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// What readiness to watch a registration for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with ([`WAKE_TOKEN`] for wakes).
    pub token: u64,
    flags: u32,
}

impl Event {
    /// Bytes (or EOF) are readable without blocking.
    pub fn readable(&self) -> bool {
        self.flags & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0
    }

    /// A write can make progress without blocking (also set on error so
    /// a failed nonblocking connect is observed as writability).
    pub fn writable(&self) -> bool {
        self.flags & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0
    }

    /// The peer closed or the fd errored; readers should expect EOF.
    pub fn is_hangup(&self) -> bool {
        self.flags & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0
    }
}

pub use imp::{connect_nonblocking, take_socket_error, Poller};

#[cfg(target_os = "linux")]
mod sys {
    //! The raw Linux ABI: constants, structs, and libc declarations.
    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const AF_INET: c_int = 2;
    pub const AF_INET6: c_int = 10;
    pub const SOCK_STREAM: c_int = 1;
    pub const SOCK_NONBLOCK: c_int = 0o4000;
    pub const SOCK_CLOEXEC: c_int = 0o2000000;
    pub const SOL_SOCKET: c_int = 1;
    pub const SO_ERROR: c_int = 4;
    pub const IPPROTO_TCP: c_int = 6;
    pub const TCP_NODELAY: c_int = 1;

    /// `connect(2)` on a nonblocking socket reports "underway" with this
    /// errno (same value on every Linux arch this repo targets).
    pub const EINPROGRESS: i32 = 115;

    /// The kernel's `struct epoll_event`. x86-64 is the one odd ABI out:
    /// the struct is packed there (a u32 followed by an unaligned u64).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct SockaddrIn {
        pub sin_family: u16,
        pub sin_port: u16, // network byte order
        pub sin_addr: u32, // network byte order
        pub sin_zero: [u8; 8],
    }

    #[repr(C)]
    pub struct SockaddrIn6 {
        pub sin6_family: u16,
        pub sin6_port: u16, // network byte order
        pub sin6_flowinfo: u32,
        pub sin6_addr: [u8; 16],
        pub sin6_scope_id: u32,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub fn getsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *mut c_void,
            optlen: *mut u32,
        ) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Flag values for [`super::Event`] accessors (never produced here —
    //! the non-Linux build has no poller to produce events).
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{sys, Event, Interest, WAKE_TOKEN};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::{FromRawFd, RawFd};
    use std::time::Duration;

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An epoll instance plus an eventfd for cross-thread wakes.
    ///
    /// Level-triggered: an event repeats on every `wait` until its cause
    /// is consumed (bytes read, buffer drained), so a handler that does
    /// partial work is never starved — the natural fit for a transport
    /// with partial-write carry-over.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        wakefd: RawFd,
    }

    // SAFETY: Poller holds two raw fds (plain integers, no interior
    // state): moving it to another thread moves nothing thread-bound.
    unsafe impl Send for Poller {}
    // SAFETY: the epoll_ctl/epoll_wait/eventfd syscalls are documented
    // thread-safe, so a `&Poller` may be used from several threads.
    unsafe impl Sync for Poller {}

    impl Poller {
        /// Create the epoll instance and its wake eventfd.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes flag integers, no pointers; a
            // failed return is surfaced by `cvt`.
            let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
            // SAFETY: eventfd likewise: two integers in, an fd or -1 out.
            let wakefd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
            let wakefd = match cvt(wakefd) {
                Ok(fd) => fd,
                Err(e) => {
                    // SAFETY: epfd was created above, is not shared yet,
                    // and this error path is its only close.
                    unsafe { sys::close(epfd) };
                    return Err(e);
                }
            };
            let poller = Poller { epfd, wakefd };
            poller.ctl(sys::EPOLL_CTL_ADD, wakefd, WAKE_TOKEN, Interest::READABLE)?;
            Ok(poller)
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut flags = sys::EPOLLRDHUP;
            if interest.readable {
                flags |= sys::EPOLLIN;
            }
            if interest.writable {
                flags |= sys::EPOLLOUT;
            }
            let mut ev = sys::EpollEvent {
                events: flags,
                data: token,
            };
            // SAFETY: `ev` is a live stack value for the duration of the
            // call; the fds are integers the kernel validates.
            cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) })?;
            Ok(())
        }

        /// Start watching `fd` with `token` (must not be [`WAKE_TOKEN`]).
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            debug_assert_ne!(token, WAKE_TOKEN, "WAKE_TOKEN is reserved");
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Change an existing registration's interest (or token).
        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stop watching `fd`. (Closing an fd deregisters it implicitly;
        /// this is for keeping an fd open but quiet.)
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = sys::EpollEvent { events: 0, data: 0 };
            // SAFETY: `ev` is a live stack value (pre-2.6.9 kernels
            // require a non-null pointer even for DEL).
            cvt(unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) })?;
            Ok(())
        }

        /// Block until readiness or `timeout` (`None` = forever), filling
        /// `events`. Wakes from other threads surface as a single event
        /// with [`WAKE_TOKEN`], already drained. A timeout is not an
        /// error: `events` is simply left empty.
        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let timeout_ms: c_int = match timeout {
                // Round *up* so a 100 µs timer does not spin at 0 ms.
                Some(t) => t
                    .as_millis()
                    .max(u128::from(!t.is_zero()))
                    .min(i32::MAX as u128) as c_int,
                None => -1,
            };
            const MAX_EVENTS: usize = 64;
            let mut raw = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let n = loop {
                // SAFETY: `raw` holds MAX_EVENTS writable entries — the
                // same count passed as the buffer capacity.
                match cvt(unsafe {
                    sys::epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms)
                }) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                        // Retry with the full timeout: callers run their
                        // own timer arithmetic off a deadline anyway.
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            };
            let mut woken = false;
            for ev in &raw[..n] {
                let (flags, token) = (ev.events, ev.data);
                if token == WAKE_TOKEN {
                    self.drain_wake();
                    woken = true;
                    continue;
                }
                events.push(Event { token, flags });
            }
            if woken {
                events.push(Event {
                    token: WAKE_TOKEN,
                    flags: sys::EPOLLIN,
                });
            }
            Ok(())
        }

        /// Interrupt a concurrent [`Poller::wait`] from any thread.
        /// Wakes coalesce: many calls before the next `wait` produce one
        /// event.
        pub fn wake(&self) {
            let one: u64 = 1;
            // A full eventfd counter (EAGAIN) already guarantees a wake.
            // SAFETY: the buffer is the 8 live bytes of `one`, matching
            // the length passed.
            let _ = unsafe {
                sys::write(
                    self.wakefd,
                    &one as *const u64 as *const c_void,
                    std::mem::size_of::<u64>(),
                )
            };
        }

        fn drain_wake(&self) {
            let mut buf = 0u64;
            // SAFETY: the buffer is the 8 writable bytes of `buf`,
            // matching the length passed.
            let _ = unsafe {
                sys::read(
                    self.wakefd,
                    &mut buf as *mut u64 as *mut c_void,
                    std::mem::size_of::<u64>(),
                )
            };
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: both fds are owned by this Poller, never exposed,
            // and closed exactly once — here.
            unsafe {
                sys::close(self.wakefd);
                sys::close(self.epfd);
            }
        }
    }

    /// Begin a nonblocking `connect(2)` to `addr`. The returned stream is
    /// nonblocking and usually *not yet connected*: register it for
    /// [`Interest::WRITABLE`] and, on writability, call
    /// [`take_socket_error`] to learn whether the connect succeeded.
    pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
        let domain = match addr {
            SocketAddr::V4(_) => sys::AF_INET,
            SocketAddr::V6(_) => sys::AF_INET6,
        };
        // SAFETY: socket takes integer arguments only; failure is
        // surfaced by `cvt`.
        let fd = cvt(unsafe {
            sys::socket(
                domain,
                sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC,
                0,
            )
        })?;
        // From here the fd is owned by the stream: any error path drops it.
        // SAFETY: `fd` is a fresh, valid socket owned by no one else;
        // from_raw_fd transfers that ownership to the stream.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        let nodelay: c_int = 1;
        // SAFETY: `nodelay` is a live c_int and its exact size is passed.
        let _ = unsafe {
            sys::setsockopt(
                fd,
                sys::IPPROTO_TCP,
                sys::TCP_NODELAY,
                &nodelay as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as u32,
            )
        };
        let ret = match addr {
            SocketAddr::V4(a) => {
                let raw = sys::SockaddrIn {
                    sin_family: sys::AF_INET as u16,
                    sin_port: a.port().to_be(),
                    sin_addr: u32::from_ne_bytes(a.ip().octets()),
                    sin_zero: [0; 8],
                };
                // SAFETY: `raw` is a live, fully-initialized SockaddrIn
                // and its exact size is passed.
                unsafe {
                    sys::connect(
                        fd,
                        &raw as *const sys::SockaddrIn as *const c_void,
                        std::mem::size_of::<sys::SockaddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(a) => {
                let raw = sys::SockaddrIn6 {
                    sin6_family: sys::AF_INET6 as u16,
                    sin6_port: a.port().to_be(),
                    sin6_flowinfo: a.flowinfo(),
                    sin6_addr: a.ip().octets(),
                    sin6_scope_id: a.scope_id(),
                };
                // SAFETY: `raw` is a live, fully-initialized SockaddrIn6
                // and its exact size is passed.
                unsafe {
                    sys::connect(
                        fd,
                        &raw as *const sys::SockaddrIn6 as *const c_void,
                        std::mem::size_of::<sys::SockaddrIn6>() as u32,
                    )
                }
            }
        };
        if ret == 0 {
            return Ok(stream); // localhost can connect synchronously
        }
        let err = io::Error::last_os_error();
        match err.raw_os_error() {
            Some(sys::EINPROGRESS) => Ok(stream),
            _ => Err(err),
        }
    }

    /// Consume a socket's pending error (`SO_ERROR`): `Ok(())` means the
    /// async connect completed, `Err` carries why it failed.
    pub fn take_socket_error(stream: &TcpStream) -> io::Result<()> {
        use std::os::unix::io::AsRawFd;
        let mut err: c_int = 0;
        let mut len = std::mem::size_of::<c_int>() as u32;
        // SAFETY: `err` and `len` are live stack slots; `len` starts at
        // `err`'s exact size, as getsockopt requires.
        cvt(unsafe {
            sys::getsockopt(
                stream.as_raw_fd(),
                sys::SOL_SOCKET,
                sys::SO_ERROR,
                &mut err as *mut c_int as *mut c_void,
                &mut len,
            )
        })?;
        if err == 0 {
            Ok(())
        } else {
            Err(io::Error::from_raw_os_error(err))
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    //! Non-Linux stub: constructors fail loudly with `Unsupported`.
    use super::{Event, Interest};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "px-poll requires Linux (epoll); the in-process transport remains available",
        ))
    }

    /// Stub poller; see the crate docs.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        /// Always `Unsupported` off Linux.
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn register(&self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn reregister(&self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn deregister(&self, _fd: i32) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn wait(&self, _events: &mut Vec<Event>, _timeout: Option<Duration>) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no instance can exist).
        pub fn wake(&self) {}
    }

    /// Always `Unsupported` off Linux.
    pub fn connect_nonblocking(_addr: &SocketAddr) -> io::Result<TcpStream> {
        unsupported()
    }

    /// Always `Unsupported` off Linux.
    pub fn take_socket_error(_stream: &TcpStream) -> io::Result<()> {
        unsupported()
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn wait_times_out_empty() {
        let p = Poller::new().unwrap();
        let mut evs = Vec::new();
        let t0 = Instant::now();
        p.wait(&mut evs, Some(Duration::from_millis(20))).unwrap();
        assert!(evs.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn a_wake_interrupts_a_blocked_wait() {
        let p = std::sync::Arc::new(Poller::new().unwrap());
        let p2 = p.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            p2.wake();
        });
        let mut evs = Vec::new();
        p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        h.join().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].token, WAKE_TOKEN);
    }

    /// Wakes made before the wait coalesce: the wait sees one event, and
    /// drains them all. (Made from another thread, wakes could straddle
    /// the first wait's return and leave one for the second.)
    #[test]
    fn wakes_before_a_wait_coalesce_into_one_event() {
        let p = Poller::new().unwrap();
        for _ in 0..3 {
            p.wake();
        }
        let mut evs = Vec::new();
        p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].token, WAKE_TOKEN);
        // Drained: the next wait sees nothing.
        p.wait(&mut evs, Some(Duration::from_millis(5))).unwrap();
        assert!(evs.is_empty());
    }

    #[test]
    fn readiness_on_a_real_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let p = Poller::new().unwrap();
        p.register(served.as_raw_fd(), 42, Interest::READABLE)
            .unwrap();
        let mut evs = Vec::new();
        p.wait(&mut evs, Some(Duration::from_millis(50))).unwrap();
        assert!(evs.is_empty(), "no bytes yet");

        client.write_all(b"ping").unwrap();
        p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].token, 42);
        assert!(evs[0].readable());
        let mut buf = [0u8; 8];
        assert_eq!(served.read(&mut buf).unwrap(), 4);

        // Level-triggered EOF: hangup keeps reporting readable.
        drop(client);
        p.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
        assert!(evs.iter().any(|e| e.token == 42 && e.readable()));
        assert!(evs.iter().any(|e| e.is_hangup()));
    }

    #[test]
    fn nonblocking_connect_completes_via_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(&addr).unwrap();
        let p = Poller::new().unwrap();
        p.register(stream.as_raw_fd(), 1, Interest::WRITABLE)
            .unwrap();
        let mut evs = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            p.wait(&mut evs, Some(Duration::from_millis(100))).unwrap();
            if evs.iter().any(|e| e.token == 1 && e.writable()) {
                break;
            }
            assert!(Instant::now() < deadline, "connect never became writable");
        }
        take_socket_error(&stream).expect("loopback connect succeeds");
        let _ = listener.accept().unwrap();
    }

    #[test]
    fn nonblocking_connect_to_dead_port_reports_error() {
        // Bind-then-drop: the port is (briefly) free, so connect fails.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let Ok(stream) = connect_nonblocking(&addr) else {
            return; // synchronous refusal is also a valid outcome
        };
        let p = Poller::new().unwrap();
        p.register(stream.as_raw_fd(), 1, Interest::WRITABLE)
            .unwrap();
        let mut evs = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            p.wait(&mut evs, Some(Duration::from_millis(100))).unwrap();
            if evs.iter().any(|e| e.token == 1 && e.writable()) {
                break;
            }
            assert!(Instant::now() < deadline, "refusal never surfaced");
        }
        take_socket_error(&stream).expect_err("connect to a dead port must fail");
    }

    #[test]
    fn deregister_silences_an_fd() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (served, _) = listener.accept().unwrap();
        let p = Poller::new().unwrap();
        p.register(served.as_raw_fd(), 9, Interest::READABLE)
            .unwrap();
        p.deregister(served.as_raw_fd()).unwrap();
        client.write_all(b"x").unwrap();
        let mut evs = Vec::new();
        p.wait(&mut evs, Some(Duration::from_millis(50))).unwrap();
        assert!(evs.is_empty(), "deregistered fd must not report");
    }
}
