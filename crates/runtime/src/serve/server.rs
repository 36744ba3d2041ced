//! The long-lived HTTP server: a `TcpListener` accept loop feeding the
//! event-driven `reactor` module.
//!
//! Connections honor HTTP/1.1 keep-alive, and connection count and
//! pool-worker count are independent axes: each accepted socket is
//! registered with the reactor's readiness loop, which parks it
//! nonblocking until a complete request is buffered and only then
//! dispatches one pool job for the routing work. Thousands of
//! mostly-idle keep-alive connections share a `--threads 2` pool. Reuse
//! is bounded: an idle connection is dropped after the read timeout, and
//! no connection serves more than `MAX_REQUESTS_PER_CONNECTION` (1000)
//! requests before the server closes it.
//!
//! The accept loop stays the backpressure point. At most
//! [`ServeOptions::max_inflight`] connections are in flight at once;
//! connection number `max_inflight + 1` is answered `503 Service
//! Unavailable` with a `Retry-After` header *inline on the accept thread*
//! (never queued behind the saturated pool) and closed. Read deadlines
//! ([`ServeOptions::read_timeout`]) come from the reactor's timer wheel,
//! not `SO_RCVTIMEO`, so a slowloris peer gets its `408` without ever
//! occupying a worker; oversized bodies still draw a `413` at
//! [`ServeOptions::max_body_bytes`].

use std::io::Read;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::pool::ThreadPool;
use crate::serve::cache::ResponseCache;
use crate::serve::http::{Response, DEFAULT_MAX_BODY_BYTES, DEFAULT_READ_TIMEOUT};
use crate::serve::obs::ServeTelemetry;
use crate::serve::reactor::{set_sndbuf, spawn_reactor, ReactorConfig};
use crate::serve::router::warm;
use crate::serve::view::StoreView;
use crate::telemetry::Telemetry;

/// Upper bound on requests served over one kept-alive connection, so a
/// single peer cannot pin a connection slot forever.
pub(crate) const MAX_REQUESTS_PER_CONNECTION: usize = 1000;

/// How long the accept loop sleeps after a transient `accept()` failure
/// (EMFILE, reset-before-accept, …) so a persistent local error cannot
/// spin it hot.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Server tuning knobs, all bounded with conservative defaults. Every
/// field has a matching `fahana-serve` CLI flag.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Pool worker threads handling dispatched requests (connections no
    /// longer occupy one for their lifetime).
    pub threads: usize,
    /// Most connections in flight at once; past this, new connections are
    /// answered 503 + `Retry-After` at the door.
    pub max_inflight: usize,
    /// Whole-request read deadline (slowloris cutoff) and keep-alive idle
    /// timeout, applied by the reactor's deadline wheel.
    pub read_timeout: Duration,
    /// Largest accepted request body; beyond it the request is answered
    /// 413 without buffering the body.
    pub max_body_bytes: usize,
    /// Response-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// The `Retry-After` value (seconds) sent with saturation 503s.
    pub retry_after_secs: u64,
    /// When set, shrink each accepted socket's kernel send buffer to
    /// this many bytes (test-facing: forces the partial-write path).
    pub sndbuf: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 4,
            max_inflight: 256,
            read_timeout: DEFAULT_READ_TIMEOUT,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            cache_capacity: 256,
            retry_after_secs: 1,
            sndbuf: None,
        }
    }
}

/// A bound, ready-to-run `fahana-serve` server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    view: Arc<StoreView>,
    pool: Arc<ThreadPool>,
    shutdown: Arc<AtomicBool>,
    obs: Arc<ServeTelemetry>,
    cache: Arc<ResponseCache>,
    options: ServeOptions,
    inflight: Arc<AtomicUsize>,
}

/// A remote control for a running [`Server`] — cloneable into other
/// threads to stop the accept loop.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Stops the server's accept loop. Idempotent; in-flight requests
    /// finish on the pool.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // unblock the accept() the server is parked in
        TcpStream::connect(self.addr).ok();
    }
}

impl Server {
    /// Binds to `addr` (use port 0 to let the OS pick) over an
    /// already-opened view, with `threads` pool workers handling
    /// connections and every other knob at its default.
    ///
    /// # Errors
    ///
    /// The bind error, if the address is taken or unroutable.
    pub fn bind(
        addr: impl ToSocketAddrs,
        view: StoreView,
        threads: usize,
    ) -> std::io::Result<Server> {
        Server::bind_with(
            addr,
            view,
            ServeOptions {
                threads,
                ..ServeOptions::default()
            },
        )
    }

    /// Binds to `addr` with explicit [`ServeOptions`]. The response
    /// cache's hot entries are prerendered before the first connection is
    /// accepted.
    ///
    /// # Errors
    ///
    /// As [`Server::bind`].
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        view: StoreView,
        options: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let pool = Arc::new(ThreadPool::new(options.threads));
        let cache = Arc::new(ResponseCache::new(options.cache_capacity));
        warm(&cache, &view);
        let obs = Arc::new(ServeTelemetry::new(
            Telemetry::disabled(),
            Some(pool.monitor()),
            Some(Arc::clone(&cache)),
        ));
        Ok(Server {
            listener,
            view: Arc::new(view),
            pool,
            shutdown: Arc::new(AtomicBool::new(false)),
            obs,
            cache,
            options,
            inflight: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// Replaces the server's telemetry bundle (e.g. to attach a
    /// `--trace-out` sink before [`Server::run`]). Request accounting
    /// accumulated so far is discarded with the old context.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.obs = Arc::new(ServeTelemetry::new(
            telemetry,
            Some(self.pool.monitor()),
            Some(Arc::clone(&self.cache)),
        ));
    }

    /// The server's observability context (`/metrics`, `/statusz`).
    pub fn obs(&self) -> &Arc<ServeTelemetry> {
        &self.obs
    }

    /// The server's response cache.
    pub fn cache(&self) -> &Arc<ResponseCache> {
        &self.cache
    }

    /// The address actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures (never seen in practice).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared store view the server answers from.
    pub fn view(&self) -> &Arc<StoreView> {
        &self.view
    }

    /// A handle that can stop the accept loop from another thread.
    ///
    /// # Errors
    ///
    /// As [`Server::local_addr`].
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
        })
    }

    /// Accepts a connection from the listener, applying the transient-
    /// failure backoff, TCP_NODELAY, the optional SO_SNDBUF override, and
    /// the inline 503 in-flight gate. `None` means "skip this one and
    /// keep accepting"; a returned stream holds an in-flight slot.
    fn accept_gated(&self, stream: std::io::Result<TcpStream>) -> Option<TcpStream> {
        let Ok(mut stream) = stream else {
            // transient accept failure (EMFILE, reset, …): count it
            // and back off briefly instead of spinning on the error
            self.obs.record_accept_error();
            std::thread::sleep(ACCEPT_BACKOFF);
            return None;
        };
        // answers are small and written head-then-body; without
        // this, Nagle + delayed-ACK adds ~40ms to every response
        stream.set_nodelay(true).ok();
        if let Some(bytes) = self.options.sndbuf {
            set_sndbuf(&stream, bytes).ok();
        }
        // the in-flight gate: claim a slot optimistically; if that
        // overshoots the limit, give the slot back and turn the
        // connection away at the door — inline, on the accept thread,
        // so a saturated pool cannot delay the 503 either
        if self.inflight.fetch_add(1, Ordering::AcqRel) >= self.options.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.obs.record_rejected();
            stream
                .set_write_timeout(Some(Duration::from_millis(250)))
                .ok();
            Response::error(503, "server saturated; retry shortly")
                .with_retry_after(self.options.retry_after_secs)
                .write_to(&mut stream, false)
                .ok();
            // the client's request was never read; closing with unread
            // bytes in the receive buffer makes the kernel RST the
            // connection, which can destroy the 503 before the client
            // reads it. Send our FIN, then drain briefly so the close
            // is orderly. Bounded, so a rejection flood cannot stall
            // the accept thread for long.
            stream.shutdown(std::net::Shutdown::Write).ok();
            stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .ok();
            let mut scratch = [0u8; 4096];
            for _ in 0..4 {
                match stream.read(&mut scratch) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            return None;
        }
        Some(stream)
    }

    /// Accepts connections until [`ServerHandle::shutdown`] is called.
    /// Every admitted connection is handed to the reactor nonblocking;
    /// pool workers only ever see complete, parsed requests. Blocks the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// Fatal listener or reactor-spawn errors only; per-connection errors
    /// are answered on the wire (4xx/5xx) or dropped, never propagated.
    pub fn run(&self) -> std::io::Result<()> {
        let mut reactor = spawn_reactor(
            ReactorConfig {
                read_timeout: self.options.read_timeout,
                max_body_bytes: self.options.max_body_bytes,
            },
            Arc::clone(&self.pool),
            Arc::clone(&self.view),
            Arc::clone(&self.obs),
            Arc::clone(&self.cache),
            Arc::clone(&self.inflight),
        )?;
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Some(stream) = self.accept_gated(stream) else {
                continue;
            };
            if stream.set_nonblocking(true).is_err() {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                self.obs.record_accept_error();
                continue;
            }
            // the reactor owns the in-flight slot from here
            reactor.register(stream);
        }
        reactor.shutdown_and_join();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ArtifactStore;
    use std::io::{Read, Write};

    #[test]
    fn server_binds_answers_and_shuts_down() {
        let root = std::env::temp_dir().join(format!("fahana-serve-unit-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let view = StoreView::open(ArtifactStore::open(&root).unwrap()).unwrap();
        let server = Server::bind("127.0.0.1:0", view, 2).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let runner = std::thread::spawn(move || server.run().unwrap());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(raw.contains("Connection: close"), "{raw}");
        assert!(raw.contains(r#""status":"ok""#), "{raw}");

        // a malformed request gets a 400, not a dead server
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

        handle.shutdown();
        runner.join().unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn oversized_header_blocks_are_rejected_not_buffered() {
        let root = std::env::temp_dir().join(format!("fahana-serve-flood-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let view = StoreView::open(ArtifactStore::open(&root).unwrap()).unwrap();
        let server = Server::bind("127.0.0.1:0", view, 2).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let runner = std::thread::spawn(move || server.run().unwrap());

        // a header block that never terminates: the server must cut it off
        // at the head cap and answer 400 instead of buffering forever
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        let junk = vec![b'a'; 8 * 1024];
        for _ in 0..12 {
            // the server may close mid-flood; that's the point
            if stream.write_all(&junk).is_err() {
                break;
            }
        }
        stream.shutdown(std::net::Shutdown::Write).ok();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).ok();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        assert!(raw.contains("truncated or larger"), "{raw}");

        handle.shutdown();
        runner.join().unwrap();
        std::fs::remove_dir_all(&root).ok();
    }
}
