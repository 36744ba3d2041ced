//! `fahana-serve` — a std-only, long-lived HTTP/1.1 daemon over the
//! campaign [`ArtifactStore`](crate::store::ArtifactStore).
//!
//! The paper's end goal is picking fair, small architectures for edge
//! devices *at query time*; the one-shot `fahana-query` CLI pays a full
//! process spawn and a whole-store re-parse per question. This module is
//! the serving front-end the ROADMAP calls for instead:
//!
//! * [`view`] — an update-on-ingest [`StoreView`]: campaigns parsed once,
//!   shared across handler threads as `Arc` snapshots, with the
//!   generation, campaign set and rendered catalog swapped under one
//!   lock; an ingest inserts the one new campaign and renders only its
//!   catalog entry instead of re-reading or re-rendering the store;
//! * [`http`] — hand-rolled HTTP/1.1 request parsing and JSON responses
//!   (no hyper in the offline build): an incremental request parser with
//!   head and body caps, and a minimal framed client
//!   ([`client_roundtrip`], [`client_exchange`]) used by the
//!   `fahana-shard` coordinator and the `fahana-loadgen` bench;
//! * [`cache`] — a generation-keyed [`ResponseCache`]: rendered read
//!   responses valid for exactly one store generation, flushed wholesale
//!   when `POST /ingest` bumps it, hot entries prerendered on every bump;
//! * [`router`] — the endpoint table (see below);
//! * `reactor` — the nonblocking readiness loop (one level-triggered
//!   `poll(2)` interest set, hand-declared FFI): every accepted socket
//!   lives here, idle keep-alive connections park off-worker, read
//!   deadlines fire from its timer wheel, and only complete buffered
//!   requests are dispatched to the pool, so connection count and
//!   `--threads` are independent axes;
//! * [`server`] — the [`Server`] accept loop, registering admitted
//!   connections with the reactor (an in-flight gate ([`ServeOptions`])
//!   still answers 503 + `Retry-After` at the door when saturated), over
//!   the same work-stealing [`ThreadPool`](crate::pool::ThreadPool)
//!   campaigns use;
//! * [`obs`] — the serve-side observability context: per-endpoint request
//!   counters and latency histograms (bounded label vocabulary), body
//!   byte totals and keep-alive reuse, rendered as Prometheus text
//!   (`GET /metrics`) and a JSON status document (`GET /statusz`).
//!
//! ## Endpoints
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /healthz` | liveness + campaign/scenario counts |
//! | `GET /query` | [`StoreQuery`](crate::store::StoreQuery) over URL params — byte-identical to `fahana-query --json` |
//! | `GET /campaigns` | id/size/wall-clock summary per ingested campaign |
//! | `GET /catalog` | the coverage catalog (same document as `catalog.json`) |
//! | `GET /leaderboard/{device_slug}` | per-device best-by-reward ranking (`?top=N`) |
//! | `GET /metrics` | the metrics registry, Prometheus text exposition format |
//! | `GET /statusz` | JSON status: uptime, store generation, per-endpoint latency percentiles |
//! | `POST /ingest?id=ID` | atomic artifact publish + catalog reassembly + view refresh |
//!
//! ## Platform
//!
//! The crate is unix-only: the reactor declares its `poll(2)`, `pipe(2)`
//! and socket-option calls against the C library and uses
//! `std::os::unix` raw fds. There is no blocking fallback.

pub mod cache;
pub mod http;
pub mod obs;

/// Recovers the guard from a poisoned lock instead of panicking.
///
/// Every mutex on the serve path protects a small invariant-complete
/// critical section (queue push/drain, map insert, counter bump) — a
/// panic elsewhere cannot leave the protected data half-updated, so the
/// right response to poison is to keep serving, not to cascade the
/// panic into the reactor or a pool worker and take the daemon down.
pub(crate) fn unpoison<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
pub(crate) mod reactor;
pub mod router;
pub mod server;
pub mod view;

pub use cache::{CacheLookup, CacheStatsSnapshot, ResponseCache};
pub use http::{client_exchange, client_roundtrip, ClientResponse, Request, Response};
pub use obs::ServeTelemetry;
pub use router::route;
pub use server::{ServeOptions, Server, ServerHandle};
pub use view::StoreView;
