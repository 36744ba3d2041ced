//! The serving reactor: a nonblocking readiness loop that owns every
//! accepted socket and decouples connection count from pool-worker count.
//!
//! No connection pins a [`ThreadPool`] worker for its keep-alive
//! lifetime, so concurrency is not capped at `--threads`: all sockets
//! live here in nonblocking mode, and idle keep-alive connections are
//! *parked* (watched for readability, costing no worker). Once a request
//! is complete, the reactor looks it up in the response cache itself: a
//! hit shares the keep-alive bytes the cache holds, so the reactor writes
//! them straight to the socket without copying them, and the pool, the
//! completion queue and the wake pipe are never involved. Only a miss or
//! an uncached request (`/metrics`, `/statusz`, `POST /ingest`, any
//! non-`GET`) goes to a pool worker, which renders the response bytes (a
//! cacheable read once, into the bytes the cache keeps) and hands them
//! back to the reactor. Either way the reactor writes them out, owned or
//! shared, with `WOULDBLOCK` re-arming, and answers any requests a peer
//! pipelined behind them in a loop. Every socket read goes through one
//! buffer the reactor owns. Thousands of mostly-idle connections share a
//! two-thread pool.
//!
//! Readiness comes from one level-triggered `poll(2)` interest set (the
//! [`PollSet`], over the hand-declared FFI shim in [`sys`] — the
//! workspace is offline, so no `libc` crate). Read timeouts are not
//! `SO_RCVTIMEO` on the socket: every connection has at most one current
//! deadline, kept in an ordered set, and the loop sleeps until the
//! soonest one and fires idle, slowloris, write-stall and drain
//! deadlines itself, so a slow client is timed out without ever
//! occupying a worker.
//!
//! The user-visible contract: 503-at-the-door backpressure (inline on
//! the accept thread), slowloris 408s, 413/400 rejections from the
//! incremental [`RequestParser`], the generation-keyed response cache,
//! and response bytes identical to `Response::write_to` (a cached entry
//! holds exactly `Response::to_bytes(true)`, and its `Connection: close`
//! variant is rendered from the same head and body on demand). Pinned by
//! `tests/serve_load.rs` and `tests/serve_many_conns.rs`.

use std::collections::{BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::pool::ThreadPool;
use crate::serve::cache::ResponseCache;
use crate::serve::http::{BadRequest, Request, RequestParser, Response, WireResponse};
use crate::serve::obs::{DeadlineKind, ReactorInstruments, ServeTelemetry};
use crate::serve::router::{self, Reply};
use crate::serve::server::MAX_REQUESTS_PER_CONNECTION;
use crate::serve::view::StoreView;

/// Raw system-call surface. Hand-declared because the build is offline
/// (no `libc` crate); std already links the C library, so the symbols
/// resolve. Only what the reactor needs, nothing speculative.
mod sys {
    use std::os::raw::{c_int, c_short, c_void};

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 0x0004;

    #[cfg(target_os = "linux")]
    pub const SOL_SOCKET: c_int = 1;
    #[cfg(not(target_os = "linux"))]
    pub const SOL_SOCKET: c_int = 0xffff;
    #[cfg(target_os = "linux")]
    pub const SO_SNDBUF: c_int = 7;
    #[cfg(not(target_os = "linux"))]
    pub const SO_SNDBUF: c_int = 0x1001;

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;
    pub const POLLERR: c_short = 0x8;
    pub const POLLHUP: c_short = 0x10;
    pub const POLLNVAL: c_short = 0x20;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[cfg(target_os = "linux")]
    pub type NfdsT = usize;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = u32;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        // declared non-variadic with the one argument shape we use;
        // the C calling convention tolerates this for fcntl
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
    }
}

/// Reserved token for the self-pipe that wakes the reactor out of a
/// blocking wait (new registrations, completed responses, shutdown).
const WAKE_TOKEN: u64 = u64::MAX;

/// Bytes read per `read(2)` call while pulling request bytes.
const READ_CHUNK: usize = 16 * 1024;

/// Most reads served to one connection per readiness event, so a single
/// firehose peer cannot starve the rest of the loop. Readiness is level
/// triggered, so leftover data is re-reported on the next wait.
const READS_PER_EVENT: usize = 32;

/// What a connection is registered for.
const INTEREST_READ: u8 = 0b01;
const INTEREST_WRITE: u8 = 0b10;

/// One readiness report from the [`PollSet`].
#[derive(Clone, Copy, Debug)]
struct Event {
    token: u64,
    readable: bool,
    writable: bool,
}

/// The readiness source: one `poll(2)` interest set, driven
/// level-triggered so the reactor never needs to drain a socket
/// completely in one pass.
struct PollSet {
    /// fd → (token, interest); rebuilt into a `pollfd` array per wait.
    interest: HashMap<RawFd, (u64, u8)>,
}

impl PollSet {
    fn new() -> PollSet {
        PollSet {
            interest: HashMap::new(),
        }
    }

    /// Registers `fd` under `token`, or replaces its token and interest
    /// if it is already registered. Interest 0 suppresses plain
    /// readiness; errors and hangups still surface.
    fn set(&mut self, fd: RawFd, token: u64, interest: u8) {
        self.interest.insert(fd, (token, interest));
    }

    /// Stops watching `fd`; a no-op for an fd that is not registered.
    fn remove(&mut self, fd: RawFd) {
        self.interest.remove(&fd);
    }

    /// Blocks until readiness, a timeout, or a wake. `None` blocks
    /// indefinitely. `EINTR` returns an empty batch rather than an error.
    fn wait(&self, timeout: Option<Duration>, events: &mut Vec<Event>) -> io::Result<()> {
        events.clear();
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => {
                // ceil so a 0.4ms residue does not become a hot 0ms spin
                let ms = (d.as_micros() as u64).div_ceil(1000);
                ms.min(i32::MAX as u64) as i32
            }
        };
        let mut fds: Vec<sys::PollFd> = self
            .interest
            .iter()
            .map(|(&fd, &(_, want))| {
                let mut mask = 0;
                if want & INTEREST_READ != 0 {
                    mask |= sys::POLLIN;
                }
                if want & INTEREST_WRITE != 0 {
                    mask |= sys::POLLOUT;
                }
                sys::PollFd {
                    fd,
                    events: mask,
                    revents: 0,
                }
            })
            .collect();
        // SAFETY: `fds` is a live Vec of initialized PollFds and `nfds`
        // is exactly its length; the kernel only rewrites the `revents`
        // field of each entry in bounds.
        let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NfdsT, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for pfd in &fds {
            if pfd.revents == 0 {
                continue;
            }
            let Some(&(token, _)) = self.interest.get(&pfd.fd) else {
                continue;
            };
            // error states wake both directions so the state machine
            // observes the failure wherever it is
            let failed = pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
            events.push(Event {
                token,
                readable: failed || pfd.revents & sys::POLLIN != 0,
                writable: failed || pfd.revents & sys::POLLOUT != 0,
            });
        }
        Ok(())
    }
}

/// Marks an fd nonblocking via `fcntl`.
fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // SAFETY: F_GETFL takes no pointer argument; `fd` is a plain int
    // and an invalid one comes back as -1, checked below.
    let flags = unsafe { sys::fcntl(fd, sys::F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: F_SETFL takes an int argument, not a pointer; `flags` came
    // from F_GETFL on the same fd so only O_NONBLOCK is being added.
    if unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Shrinks (or grows) a socket's kernel send buffer. Test-facing: a
/// tiny `SO_SNDBUF` forces the partial-write path that production only
/// hits under genuine backpressure.
pub(crate) fn set_sndbuf(stream: &TcpStream, bytes: usize) -> io::Result<()> {
    let value = bytes as std::os::raw::c_int;
    // SAFETY: `value` is a live c_int on this stack frame and `optlen`
    // is exactly size_of::<c_int>(), so the kernel reads in bounds; the
    // fd is borrowed from a live TcpStream for the duration of the call.
    let rc = unsafe {
        sys::setsockopt(
            stream.as_raw_fd(),
            sys::SOL_SOCKET,
            sys::SO_SNDBUF,
            &value as *const _ as *const std::os::raw::c_void,
            std::mem::size_of::<std::os::raw::c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Response bytes on their way to a socket: rendered for this one
/// connection, or a cached keep-alive rendering shared with the cache.
enum Outgoing {
    Owned(Vec<u8>),
    Shared(Arc<WireResponse>),
}

impl Outgoing {
    fn as_slice(&self) -> &[u8] {
        match self {
            Outgoing::Owned(bytes) => bytes,
            Outgoing::Shared(wire) => wire.keep_alive_bytes(),
        }
    }
}

/// A response rendered by a pool worker, waiting for the reactor to
/// write it to the connection identified by `token`.
struct Completion {
    token: u64,
    bytes: Outgoing,
    keep_alive: bool,
}

/// Puts `reply` in its wire form and records it as one handled request,
/// timed from `handling`. A cached reply is written from the cache's own
/// keep-alive bytes; only a `Connection: close` answer renders its bytes
/// anew.
fn account(
    obs: &ServeTelemetry,
    request: &Request,
    reply: Reply,
    keep_alive: bool,
    handling: Instant,
) -> Outgoing {
    let status = reply.status();
    let bytes = match reply {
        Reply::Cached(wire) if keep_alive => Outgoing::Shared(wire),
        Reply::Cached(wire) => Outgoing::Owned(wire.close_bytes()),
        Reply::Fresh(response) => Outgoing::Owned(response.to_bytes(keep_alive)),
    };
    obs.record_request(
        &request.path,
        status,
        handling.elapsed(),
        request.body.len(),
        bytes.as_slice().len(),
    );
    bytes
}

/// State shared between the accept thread, pool workers, and the
/// reactor thread. Both queues are drained by the reactor after a wake.
pub(crate) struct ReactorShared {
    registrations: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    wake_writer: RawFd,
    shutdown: AtomicBool,
}

impl ReactorShared {
    /// Nudges the reactor out of its wait. A full pipe (`WOULDBLOCK`)
    /// already guarantees a pending wake, so errors are ignored.
    fn wake(&self) {
        let byte = 1u8;
        // SAFETY: `byte` is a live local and the count is 1, its exact
        // size; `wake_writer` stays open for the life of ReactorShared
        // (closed only in Drop). Short or failed writes are fine: a full
        // pipe already guarantees a pending wake.
        unsafe {
            sys::write(
                self.wake_writer,
                &byte as *const u8 as *const std::os::raw::c_void,
                1,
            )
        };
    }

    fn register(&self, stream: TcpStream) {
        super::unpoison(self.registrations.lock()).push(stream);
        self.wake();
    }

    fn complete(&self, completion: Completion) {
        super::unpoison(self.completions.lock()).push(completion);
        self.wake();
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake();
    }
}

impl Drop for ReactorShared {
    fn drop(&mut self) {
        // SAFETY: `wake_writer` came from pipe(2) and is owned solely by
        // this ReactorShared; Drop runs once, after every `wake()` call
        // is over (they all borrow `self`), so no use-after-close.
        unsafe { sys::close(self.wake_writer) };
    }
}

/// Reactor tuning, carried over from [`ServeOptions`](crate::serve::ServeOptions).
pub(crate) struct ReactorConfig {
    pub read_timeout: Duration,
    pub max_body_bytes: usize,
}

/// The accept thread's handle: register new connections, then shut the
/// loop down and reclaim the thread.
pub(crate) struct ReactorHandle {
    shared: Arc<ReactorShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// Hands an accepted (already nonblocking) connection to the loop.
    /// The reactor owns its in-flight slot from here: the slot is
    /// released when the reactor closes the connection.
    pub(crate) fn register(&self, stream: TcpStream) {
        self.shared.register(stream);
    }

    pub(crate) fn shutdown_and_join(&mut self) {
        self.shared.request_shutdown();
        if let Some(thread) = self.thread.take() {
            // A panicked reactor thread must not cascade: this runs from
            // Drop, where a second panic aborts the process. The daemon
            // is shutting down either way; surface the fact and move on.
            if thread.join().is_err() {
                eprintln!("fahana-serve: reactor thread panicked during shutdown");
            }
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Builds the poll set and self-pipe and starts the reactor thread.
pub(crate) fn spawn_reactor(
    config: ReactorConfig,
    pool: Arc<ThreadPool>,
    view: Arc<StoreView>,
    obs: Arc<ServeTelemetry>,
    cache: Arc<ResponseCache>,
    inflight: Arc<AtomicUsize>,
) -> io::Result<ReactorHandle> {
    let mut pipe_fds = [0; 2];
    // SAFETY: pipe(2) writes exactly two ints into `pipe_fds`, a live
    // stack array of two ints; the fds are only used when it returns 0.
    if unsafe { sys::pipe(pipe_fds.as_mut_ptr()) } < 0 {
        return Err(io::Error::last_os_error());
    }
    let (wake_reader, wake_writer) = (pipe_fds[0], pipe_fds[1]);
    let wired = set_nonblocking_fd(wake_reader).and_then(|()| set_nonblocking_fd(wake_writer));
    if let Err(err) = wired {
        // SAFETY: both fds were just created by pipe(2) above, nothing
        // else has taken ownership yet (ReactorShared is not built on
        // this error path), and we return immediately after — each fd is
        // closed exactly once.
        unsafe {
            sys::close(wake_reader);
            sys::close(wake_writer);
        }
        return Err(err);
    }
    let mut readiness = PollSet::new();
    readiness.set(wake_reader, WAKE_TOKEN, INTEREST_READ);
    let instruments = obs.reactor_instruments();
    let shared = Arc::new(ReactorShared {
        registrations: Mutex::new(Vec::new()),
        completions: Mutex::new(Vec::new()),
        wake_writer,
        shutdown: AtomicBool::new(false),
    });
    let mut reactor = Reactor {
        readiness,
        wake_reader,
        shared: Arc::clone(&shared),
        conns: HashMap::new(),
        deadlines: BTreeSet::new(),
        next_token: 0,
        parked: 0,
        pool,
        view,
        obs,
        cache,
        inflight,
        instruments,
        config,
        read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
    };
    let thread = std::thread::Builder::new()
        .name("fahana-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle {
        shared,
        thread: Some(thread),
    })
}

/// Where a connection is in its request/response cycle.
enum ConnState {
    /// Parked or mid-request: the reactor is accumulating bytes into the
    /// incremental parser.
    Reading,
    /// A complete request is on the pool; no readiness interest (errors
    /// and hangups still surface, and any of them means the peer left).
    Dispatched,
    /// Response bytes are being written; `WOULDBLOCK` re-arms for
    /// write readiness.
    Writing {
        bytes: Outgoing,
        written: usize,
        keep_alive: bool,
        /// True for error responses: after the write, half-close and
        /// drain the peer's unread bytes so the kernel cannot RST the
        /// response away.
        drain: bool,
    },
    /// FIN sent after an error response; discarding reads until the peer
    /// closes or the drain deadline fires.
    Draining,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    state: ConnState,
    served: usize,
    /// When this connection times out, if it can; mirrored by its one
    /// entry in `Reactor::deadlines`, and written only by `Reactor::arm`.
    deadline: Option<Instant>,
    /// The peer half-closed (EOF observed) — finish the in-flight
    /// response, then close instead of re-parking.
    read_closed: bool,
    /// Counted in `fahana_serve_parked_connections`: registered but not
    /// occupying a pool worker.
    parked: bool,
}

/// What a read pass concluded, decided under the connection borrow and
/// acted on after it ends.
enum ReadOutcome {
    NeedMore,
    Dispatch(Request),
    Bad(BadRequest),
    CleanEof,
    Gone,
}

enum WriteOutcome {
    Done { keep_alive: bool, drain: bool },
    Blocked,
    Gone,
}

struct Reactor {
    readiness: PollSet,
    wake_reader: RawFd,
    shared: Arc<ReactorShared>,
    conns: HashMap<u64, Conn>,
    /// `(deadline, token)` for every connection whose deadline is set,
    /// soonest first: exactly one entry per such connection.
    deadlines: BTreeSet<(Instant, u64)>,
    next_token: u64,
    parked: usize,
    pool: Arc<ThreadPool>,
    view: Arc<StoreView>,
    obs: Arc<ServeTelemetry>,
    cache: Arc<ResponseCache>,
    inflight: Arc<AtomicUsize>,
    instruments: ReactorInstruments,
    config: ReactorConfig,
    /// Every socket read lands here first: one buffer for the loop, not a
    /// zeroed array per readable event.
    read_buf: Box<[u8]>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Vec::new();
        loop {
            debug_assert!(
                self.deadlines.len() <= self.conns.len(),
                "{} deadlines for {} connections",
                self.deadlines.len(),
                self.conns.len()
            );
            let timeout = self
                .deadlines
                .first()
                .map(|&(deadline, _)| deadline.saturating_duration_since(Instant::now()));
            if let Err(err) = self.readiness.wait(timeout, &mut events) {
                // a broken readiness source is unrecoverable; closing
                // everything beats spinning on the same error forever
                eprintln!("fahana-serve: reactor wait failed: {err}");
                break;
            }
            self.instruments.wakeups.inc();
            for event in events.drain(..) {
                self.handle_event(event);
            }
            // checked after this batch drained the wake pipe: a shutdown
            // byte written while the batch was handled is consumed with
            // it, and checking first would then sleep through it
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            self.adopt_registrations();
            self.apply_completions();
            let now = Instant::now();
            while let Some(&(deadline, token)) = self.deadlines.first() {
                if deadline > now {
                    break;
                }
                self.arm(token, None);
                self.handle_deadline(token);
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token);
        }
        self.readiness.remove(self.wake_reader);
        // SAFETY: `wake_reader` came from pipe(2), is owned solely by
        // the reactor loop, and this shutdown path runs once right
        // before the loop returns — nothing reads the fd afterwards.
        unsafe { sys::close(self.wake_reader) };
    }

    fn handle_event(&mut self, event: Event) {
        if event.token == WAKE_TOKEN {
            self.drain_wake_pipe();
            return;
        }
        let Some(conn) = self.conns.get(&event.token) else {
            return;
        };
        match conn.state {
            ConnState::Reading if event.readable => self.handle_readable(event.token),
            // interest is zero while dispatched, so any report here is an
            // unsolicited error/hangup: the peer is gone
            ConnState::Dispatched => self.close(event.token),
            ConnState::Writing { .. } if event.writable => {
                if let Some(request) = self.progress_write(event.token) {
                    self.dispatch(event.token, request);
                }
            }
            ConnState::Draining if event.readable => self.progress_drain(event.token),
            _ => {}
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `buf` is a live 64-byte stack array and the count
            // is exactly its length, so the kernel writes in bounds; `n`
            // bytes are never read back (the pipe is drain-only) and the
            // nonblocking fd makes the loop terminate on WOULDBLOCK.
            let n = unsafe {
                sys::read(
                    self.wake_reader,
                    buf.as_mut_ptr() as *mut std::os::raw::c_void,
                    buf.len(),
                )
            };
            if n <= 0 {
                break;
            }
        }
    }

    fn handle_readable(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let chunk = &mut self.read_buf;
            let mut outcome = ReadOutcome::NeedMore;
            for _ in 0..READS_PER_EVENT {
                match conn.stream.read(chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        outcome = match conn.parser.on_eof() {
                            Ok(()) => ReadOutcome::CleanEof,
                            Err(bad) => ReadOutcome::Bad(bad),
                        };
                        break;
                    }
                    Ok(n) => match conn.parser.feed(&chunk[..n]) {
                        Ok(Some(request)) => {
                            outcome = ReadOutcome::Dispatch(request);
                            break;
                        }
                        Ok(None) => {}
                        Err(bad) => {
                            outcome = ReadOutcome::Bad(bad);
                            break;
                        }
                    },
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        outcome = ReadOutcome::Gone;
                        break;
                    }
                }
            }
            outcome
        };
        match outcome {
            ReadOutcome::NeedMore => {}
            ReadOutcome::Dispatch(request) => self.dispatch(token, request),
            ReadOutcome::Bad(bad) => self.answer_error(token, bad),
            ReadOutcome::CleanEof | ReadOutcome::Gone => self.close(token),
        }
    }

    /// Answers a complete request, then each request pipelined behind it
    /// that the cache answers too, in a loop rather than by recursion, so
    /// a peer pipelining hundreds of cached reads cannot deepen the stack.
    fn dispatch(&mut self, token: u64, mut request: Request) {
        while let Some(next) = self.dispatch_one(token, request) {
            request = next;
        }
    }

    /// A cache hit is written inline, and a pipelined request found
    /// behind it once it is fully written is returned. Anything else goes
    /// to the pool, and the connection drops all readiness interest until
    /// the worker's completion comes back.
    fn dispatch_one(&mut self, token: u64, request: Request) -> Option<Request> {
        let handling = Instant::now();
        let (fd, keep_alive, was_parked) = {
            let conn = self.conns.get_mut(&token)?;
            conn.served += 1;
            // honor the client's wish, but advertise close on the
            // connection's last allowed request
            let keep_alive = request.keep_alive && conn.served < MAX_REQUESTS_PER_CONNECTION;
            let was_parked = std::mem::replace(&mut conn.parked, false);
            (conn.stream.as_raw_fd(), keep_alive, was_parked)
        };
        if was_parked {
            self.parked -= 1;
            self.instruments.parked.set(self.parked as i64);
        }
        let miss = match router::lookup(&request, self.view.generation(), &self.cache) {
            Ok(hit) => {
                let bytes = account(
                    &self.obs,
                    &request,
                    Reply::Cached(hit),
                    keep_alive,
                    handling,
                );
                return self.start_write(token, bytes, keep_alive, false);
            }
            Err(miss) => miss,
        };
        self.conns.get_mut(&token)?.state = ConnState::Dispatched;
        self.arm(token, None);
        self.readiness.set(fd, token, 0);
        self.instruments.dispatches.inc();
        let view = Arc::clone(&self.view);
        let obs = Arc::clone(&self.obs);
        let cache = Arc::clone(&self.cache);
        let shared = Arc::clone(&self.shared);
        self.pool.spawn(move || {
            let handling = Instant::now();
            let reply = router::render(&request, miss, &view, &obs, &cache);
            let bytes = account(&obs, &request, reply, keep_alive, handling);
            shared.complete(Completion {
                token,
                bytes,
                keep_alive,
            });
        });
        None
    }

    /// Queues a 4xx/408 for writing. Error responses always close, and
    /// always drain afterwards: the peer may still be mid-upload, and
    /// closing with unread bytes would RST the response away.
    fn answer_error(&mut self, token: u64, bad: BadRequest) {
        let bytes = Outgoing::Owned(Response::error(bad.status, bad.message).to_bytes(false));
        // a draining write never continues into a pipelined request
        let next = self.start_write(token, bytes, false, true);
        debug_assert!(next.is_none());
    }

    /// Starts writing `bytes`; returns what [`Reactor::progress_write`]
    /// returns.
    fn start_write(
        &mut self,
        token: u64,
        bytes: Outgoing,
        keep_alive: bool,
        drain: bool,
    ) -> Option<Request> {
        let conn = self.conns.get_mut(&token)?;
        conn.state = ConnState::Writing {
            bytes,
            written: 0,
            keep_alive,
            drain,
        };
        self.arm(token, Some(Instant::now() + self.config.read_timeout));
        self.progress_write(token)
    }

    /// Writes as much of the response as the socket takes. Once it is all
    /// written, returns the next request if one was pipelined behind it,
    /// for the caller to [`Reactor::dispatch`].
    fn progress_write(&mut self, token: u64) -> Option<Request> {
        let (fd, outcome) = {
            let conn = self.conns.get_mut(&token)?;
            let fd = conn.stream.as_raw_fd();
            let ConnState::Writing {
                bytes,
                written,
                keep_alive,
                drain,
            } = &mut conn.state
            else {
                return None;
            };
            let bytes = bytes.as_slice();
            let outcome = loop {
                if *written >= bytes.len() {
                    break WriteOutcome::Done {
                        keep_alive: *keep_alive,
                        drain: *drain,
                    };
                }
                match conn.stream.write(&bytes[*written..]) {
                    Ok(0) => break WriteOutcome::Gone,
                    Ok(n) => *written += n,
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                        break WriteOutcome::Blocked
                    }
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break WriteOutcome::Gone,
                }
            };
            (fd, outcome)
        };
        match outcome {
            WriteOutcome::Done { keep_alive, drain } => {
                return self.finish_write(token, keep_alive, drain)
            }
            WriteOutcome::Blocked => {
                self.instruments.partial_writes.inc();
                self.readiness.set(fd, token, INTEREST_WRITE);
            }
            WriteOutcome::Gone => self.close(token),
        }
        None
    }

    /// Closes, drains or parks the connection after a complete write, or
    /// returns the request a pipelining peer already sent.
    fn finish_write(&mut self, token: u64, keep_alive: bool, drain: bool) -> Option<Request> {
        let deadline = Instant::now() + self.config.read_timeout;
        enum Next {
            Close,
            Drain(RawFd),
            Park(RawFd),
            Pipelined(Request),
            Malformed(BadRequest),
        }
        let next = {
            let conn = self.conns.get_mut(&token)?;
            if drain {
                if conn.read_closed {
                    Next::Close
                } else {
                    conn.state = ConnState::Draining;
                    conn.stream.shutdown(std::net::Shutdown::Write).ok();
                    Next::Drain(conn.stream.as_raw_fd())
                }
            } else if !keep_alive || conn.read_closed {
                Next::Close
            } else {
                conn.state = ConnState::Reading;
                // a pipelined peer may have sent the next request while
                // this response was in flight — already in the parser
                match conn.parser.advance() {
                    Ok(Some(request)) => Next::Pipelined(request),
                    Err(bad) => Next::Malformed(bad),
                    Ok(None) => {
                        conn.parked = true;
                        Next::Park(conn.stream.as_raw_fd())
                    }
                }
            }
        };
        match next {
            Next::Close => self.close(token),
            Next::Drain(fd) => {
                self.arm(token, Some(deadline));
                self.readiness.set(fd, token, INTEREST_READ);
                // the peer may already have buffered bytes to discard
                self.progress_drain(token);
            }
            Next::Park(fd) => {
                self.parked += 1;
                self.instruments.parked.set(self.parked as i64);
                self.arm(token, Some(deadline));
                self.readiness.set(fd, token, INTEREST_READ);
            }
            Next::Pipelined(request) => return Some(request),
            Next::Malformed(bad) => self.answer_error(token, bad),
        }
        None
    }

    /// Discards post-error upload bytes until EOF (or the deadline
    /// closes the connection from above).
    fn progress_drain(&mut self, token: u64) {
        let done = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut done = false;
            for _ in 0..READS_PER_EVENT {
                match conn.stream.read(&mut self.read_buf) {
                    Ok(0) => {
                        done = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        done = true;
                        break;
                    }
                }
            }
            done
        };
        if done {
            self.close(token);
        }
    }

    /// Acts on a connection whose deadline has passed; the loop has
    /// already cleared that deadline.
    fn handle_deadline(&mut self, token: u64) {
        enum Expiry {
            CloseQuiet(DeadlineKind),
            Slowloris(BadRequest),
        }
        let expiry = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            match &conn.state {
                ConnState::Reading if conn.parser.is_empty() => {
                    Expiry::CloseQuiet(DeadlineKind::Idle)
                }
                ConnState::Reading => Expiry::Slowloris(BadRequest::timeout(format!(
                    "{} still incomplete at the read deadline",
                    conn.parser.phase()
                ))),
                ConnState::Writing { .. } => Expiry::CloseQuiet(DeadlineKind::WriteStall),
                ConnState::Draining => Expiry::CloseQuiet(DeadlineKind::Drain),
                // dispatched connections carry no deadline
                ConnState::Dispatched => return,
            }
        };
        match expiry {
            Expiry::CloseQuiet(kind) => {
                self.obs.record_deadline_expiry(kind);
                self.close(token);
            }
            Expiry::Slowloris(bad) => {
                self.obs.record_deadline_expiry(DeadlineKind::Slowloris);
                self.answer_error(token, bad);
            }
        }
    }

    fn adopt_registrations(&mut self) {
        let streams: Vec<TcpStream> = {
            let mut queue = super::unpoison(self.shared.registrations.lock());
            queue.drain(..).collect()
        };
        let now = Instant::now();
        for stream in streams {
            let token = self.next_token;
            self.next_token += 1;
            self.readiness.set(stream.as_raw_fd(), token, INTEREST_READ);
            self.conns.insert(
                token,
                Conn {
                    stream,
                    parser: RequestParser::new(self.config.max_body_bytes),
                    state: ConnState::Reading,
                    served: 0,
                    deadline: None,
                    read_closed: false,
                    parked: true,
                },
            );
            self.parked += 1;
            self.instruments.parked.set(self.parked as i64);
            self.arm(token, Some(now + self.config.read_timeout));
            // any bytes that raced ahead of registration are reported by
            // the next level-triggered wait; no manual kick needed
        }
    }

    fn apply_completions(&mut self) {
        let completions: Vec<Completion> = {
            let mut queue = super::unpoison(self.shared.completions.lock());
            queue.drain(..).collect()
        };
        for completion in completions {
            // the connection may have hung up while the worker ran
            if !self.conns.contains_key(&completion.token) {
                continue;
            }
            let next = self.start_write(
                completion.token,
                completion.bytes,
                completion.keep_alive,
                false,
            );
            if let Some(request) = next {
                self.dispatch(completion.token, request);
            }
        }
    }

    /// Replaces `token`'s deadline with `deadline` (`None` clears it).
    /// The only writer of `Conn::deadline` and of `deadlines`, so the set
    /// holds exactly each connection's current deadline.
    fn arm(&mut self, token: u64, deadline: Option<Instant>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(old) = std::mem::replace(&mut conn.deadline, deadline) {
            self.deadlines.remove(&(old, token));
        }
        if let Some(new) = deadline {
            self.deadlines.insert((new, token));
        }
    }

    fn close(&mut self, token: u64) {
        self.arm(token, None);
        if let Some(conn) = self.conns.remove(&token) {
            if conn.parked {
                self.parked -= 1;
                self.instruments.parked.set(self.parked as i64);
            }
            self.readiness.remove(conn.stream.as_raw_fd());
            // release the in-flight slot BEFORE the socket drops: a
            // waiting client must never see its next connection 503'd by
            // a slot this already-answered connection still holds
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.obs.record_connection(conn.served);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn poll_backend_reports_readable_with_token() {
        let mut readiness = PollSet::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        readiness.set(server_side.as_raw_fd(), 42, INTEREST_READ);

        let mut events = Vec::new();
        readiness
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "readable before any bytes: {events:?}");

        client.write_all(b"ping").unwrap();
        readiness
            .wait(Some(Duration::from_secs(2)), &mut events)
            .unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // interest 0 suppresses plain readability (hangups still surface)
        readiness.set(server_side.as_raw_fd(), 42, 0);
        readiness
            .wait(Some(Duration::from_millis(20)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "interest 0 still readable: {events:?}");

        readiness.set(server_side.as_raw_fd(), 42, INTEREST_READ);
        readiness.remove(server_side.as_raw_fd());
        readiness
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "removed fd still reported: {events:?}");
    }
}
