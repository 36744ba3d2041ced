//! Minimal std-only HTTP/1.1 plumbing for `fahana-serve`.
//!
//! The offline build has no hyper/axum (see `vendor/README.md`), so this
//! module hand-rolls exactly the slice of RFC 9112 the daemon needs:
//! request-line + headers + `Content-Length` bodies, percent-decoded paths
//! and query strings, JSON responses, and HTTP/1.1 keep-alive. Bounds are
//! checked while *reading* (not after), so a hostile peer cannot balloon
//! memory with an oversized header block or body.
//!
//! Parsing is incremental: [`RequestParser`] is a push parser fed whatever
//! bytes happen to be readable, returning a [`Request`] only once the head
//! and declared body are fully buffered. The reactor
//! (`serve/reactor.rs`) drives it from readiness events. Bytes beyond
//! the first complete request stay buffered in the parser, so a
//! pipelining client's next request is parsed (sequentially) instead of
//! dropped.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Reject header blocks larger than this (64 KiB).
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Default body cap (16 MiB — campaign reports are ~100 KiB); configurable
/// per server via [`ServeOptions::max_body_bytes`](crate::serve::ServeOptions::max_body_bytes).
pub const DEFAULT_MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Default whole-request read deadline; configurable per server via
/// [`ServeOptions::read_timeout`](crate::serve::ServeOptions::read_timeout).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, query string stripped (`/leaderboard/pi4`).
    pub path: String,
    /// Percent-decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open for the next request:
    /// HTTP/1.1 defaults to `true`, HTTP/1.0 to `false`, and an explicit
    /// `Connection: keep-alive` / `Connection: close` header overrides
    /// either way.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; carries the 4xx status it maps onto
/// (400 malformed, 408 timed out mid-request, 413 body too large).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// The status the connection loop answers with.
    pub status: u16,
    /// Human-readable cause, served in the error body.
    pub message: String,
}

impl BadRequest {
    pub(crate) fn malformed(message: impl Into<String>) -> BadRequest {
        BadRequest {
            status: 400,
            message: message.into(),
        }
    }

    pub(crate) fn timeout(message: impl Into<String>) -> BadRequest {
        BadRequest {
            status: 408,
            message: message.into(),
        }
    }

    fn too_large(message: impl Into<String>) -> BadRequest {
        BadRequest {
            status: 413,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// A fully parsed head, waiting for its declared body bytes to arrive.
#[derive(Debug)]
struct PendingBody {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    keep_alive: bool,
    content_length: usize,
}

/// An incremental (push) HTTP/1.1 request parser: feed it whatever bytes
/// are readable, get a [`Request`] back once a whole one is buffered.
///
/// The parser owns one connection's receive buffer. Bytes past the first
/// complete request are retained, so a pipelining client's next request is
/// picked up by the next [`RequestParser::advance`] call. Bounds are
/// checked as bytes arrive: an unterminated head is rejected the moment
/// it crosses `MAX_HEAD_BYTES` (64 KiB), and an oversized declared body is
/// rejected from the headers alone (413), before any body byte is
/// buffered past the cap decision.
#[derive(Debug)]
pub struct RequestParser {
    max_body_bytes: usize,
    buffer: Vec<u8>,
    /// Resume point for the head-terminator scan, so repeated feeds of a
    /// large head stay O(n) overall instead of rescanning from zero.
    scan_from: usize,
    pending: Option<PendingBody>,
}

impl RequestParser {
    /// A parser for one connection, enforcing `max_body_bytes` (413).
    pub fn new(max_body_bytes: usize) -> RequestParser {
        RequestParser {
            max_body_bytes,
            buffer: Vec::new(),
            scan_from: 0,
            pending: None,
        }
    }

    /// Buffers `bytes` and attempts to complete a request (see
    /// [`RequestParser::advance`]).
    ///
    /// # Errors
    ///
    /// As [`RequestParser::advance`].
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, BadRequest> {
        self.buffer.extend_from_slice(bytes);
        self.advance()
    }

    /// Attempts to complete one request from the bytes already buffered.
    /// `Ok(None)` means more bytes are needed. Call again after a request
    /// is consumed to pick up a pipelined successor.
    ///
    /// # Errors
    ///
    /// [`BadRequest`] on malformed request lines (400), oversized heads
    /// (400), or oversized declared bodies (413). Errors are sticky in
    /// practice: the connection is answered and closed, never re-fed.
    pub fn advance(&mut self) -> Result<Option<Request>, BadRequest> {
        if self.pending.is_none() {
            let Some(head_end) = self.find_head_end() else {
                if self.buffer.len() >= MAX_HEAD_BYTES {
                    return Err(BadRequest::malformed(format!(
                        "header block truncated or larger than {MAX_HEAD_BYTES} bytes"
                    )));
                }
                return Ok(None);
            };
            if head_end > MAX_HEAD_BYTES {
                return Err(BadRequest::malformed(format!(
                    "header block truncated or larger than {MAX_HEAD_BYTES} bytes"
                )));
            }
            let head = parse_head(&self.buffer[..head_end], self.max_body_bytes)?;
            self.buffer.drain(..head_end);
            self.scan_from = 0;
            self.pending = Some(head);
        }
        let Some(head) = self.pending.take() else {
            return Ok(None);
        };
        if self.buffer.len() < head.content_length {
            self.pending = Some(head);
            return Ok(None);
        }
        let body: Vec<u8> = self.buffer.drain(..head.content_length).collect();
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            query: head.query,
            body,
            keep_alive: head.keep_alive,
        }))
    }

    /// Whether nothing of a next request has arrived — the state in which
    /// EOF or an expired idle deadline is a quiet close, not an error.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty() && self.pending.is_none()
    }

    /// Which part of the request the parser is waiting on — used to word
    /// the 408 a deadline expiry answers with.
    pub fn phase(&self) -> &'static str {
        if self.pending.is_some() {
            "body"
        } else if self.buffer.contains(&b'\n') {
            "header block"
        } else {
            "request line"
        }
    }

    /// The verdict on end-of-stream: clean between requests, or a 400 for
    /// a request truncated mid-head or mid-body.
    ///
    /// # Errors
    ///
    /// [`BadRequest`] when the peer hung up with a partial request
    /// buffered.
    pub fn on_eof(&self) -> Result<(), BadRequest> {
        if self.pending.is_some() {
            return Err(BadRequest::malformed(
                "body shorter than Content-Length: peer closed the connection early",
            ));
        }
        if !self.buffer.is_empty() {
            return Err(BadRequest::malformed(format!(
                "header block truncated or larger than {MAX_HEAD_BYTES} bytes"
            )));
        }
        Ok(())
    }

    /// Finds the end of the head (the byte after the blank line),
    /// accepting both `\r\n\r\n` and bare-LF `\n\n` terminators (and the
    /// mixed forms in between, matching what line-by-line parsing with
    /// trailing-`\r` trimming accepted).
    fn find_head_end(&mut self) -> Option<usize> {
        let buffer = &self.buffer;
        let mut index = self.scan_from;
        while index < buffer.len() {
            if buffer[index] == b'\n' {
                match buffer.get(index + 1) {
                    Some(b'\n') => return Some(index + 2),
                    Some(b'\r') => match buffer.get(index + 2) {
                        Some(b'\n') => return Some(index + 3),
                        Some(_) => {}
                        None => {
                            // "…\n\r" at the end: this '\n' may yet start
                            // the terminator — re-examine it next feed
                            self.scan_from = index;
                            return None;
                        }
                    },
                    Some(_) => {}
                    None => {
                        self.scan_from = index;
                        return None;
                    }
                }
            }
            index += 1;
        }
        self.scan_from = buffer.len();
        None
    }
}

/// Parses a complete head (request line + headers + blank line) into a
/// [`PendingBody`], enforcing the body cap from `Content-Length` alone.
fn parse_head(head: &[u8], max_body_bytes: usize) -> Result<PendingBody, BadRequest> {
    let text = std::str::from_utf8(head)
        .map_err(|_| BadRequest::malformed("request head is not valid UTF-8"))?;
    let mut lines = text.split('\n').map(|line| line.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or_default().to_string();

    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| BadRequest::malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| {
            BadRequest::malformed(format!("request line `{request_line}` has no target"))
        })?
        .to_string();
    let mut keep_alive = match parts.next() {
        // keep-alive is the HTTP/1.1 default; 1.0 defaults to close
        Some(version) if version.starts_with("HTTP/1.") => version != "HTTP/1.0",
        other => {
            return Err(BadRequest::malformed(format!(
                "unsupported protocol `{}`",
                other.unwrap_or("<missing>")
            )))
        }
    };

    // headers: only Content-Length and Connection matter to this server
    let mut content_length: Option<usize> = None;
    for header in lines {
        if header.is_empty() {
            break; // the blank line ending the head
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let parsed: usize = value.trim().parse().map_err(|_| {
                    BadRequest::malformed(format!("bad Content-Length `{}`", value.trim()))
                })?;
                // duplicate Content-Length headers that disagree are the
                // classic request-smuggling vector (two parsers, two body
                // framings): reject instead of letting the last one win;
                // identical duplicates are harmless and stay accepted
                if content_length.is_some_and(|existing| existing != parsed) {
                    return Err(BadRequest::malformed(format!(
                        "conflicting Content-Length headers ({} then {parsed})",
                        content_length.unwrap_or_default()
                    )));
                }
                content_length = Some(parsed);
            } else if name.eq_ignore_ascii_case("connection") {
                // token list, case-insensitive (`keep-alive`, `close`)
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(BadRequest::too_large(format!(
            "body of {content_length} bytes exceeds the {} byte limit",
            max_body_bytes
        )));
    }
    let (path, query) = split_target(&target)?;
    Ok(PendingBody {
        method,
        path,
        query,
        keep_alive,
        content_length,
    })
}

/// Splits a request target into its decoded path and query parameters.
fn split_target(target: &str) -> Result<(String, Vec<(String, String)>), BadRequest> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !raw_path.starts_with('/') {
        return Err(BadRequest::malformed(format!(
            "target `{target}` is not a path"
        )));
    }
    let path = percent_decode(raw_path)?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(key)?, percent_decode(value)?));
        }
    }
    Ok((path, query))
}

/// Decodes `%XX` escapes and `+`-as-space.
fn percent_decode(text: &str) -> Result<String, BadRequest> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut index = 0;
    while index < bytes.len() {
        match bytes[index] {
            b'+' => {
                out.push(b' ');
                index += 1;
            }
            b'%' => {
                let hex = bytes
                    .get(index + 1..index + 3)
                    .and_then(|pair| std::str::from_utf8(pair).ok())
                    .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                    .ok_or_else(|| {
                        BadRequest::malformed(format!("bad percent escape in `{text}`"))
                    })?;
                out.push(hex);
                index += 3;
            }
            byte => {
                out.push(byte);
                index += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| BadRequest::malformed(format!("`{text}` decodes to invalid UTF-8")))
}

/// A response ready to be serialized onto the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body.
    pub body: String,
    /// `Content-Type` the body is served as (JSON everywhere except the
    /// Prometheus `/metrics` rendering).
    pub content_type: &'static str,
    /// When set, emitted as an `X-Fahana-Generation` header: the store
    /// view generation this response's bytes were rendered from. Read
    /// endpoints set it so clients (and `tests/serve_load.rs`) can pin
    /// a body to the exact store state it reflects.
    pub generation: Option<u64>,
    /// When set, emitted as a `Retry-After` header (seconds) — attached to
    /// the 503 a saturated server answers at the accept gate.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A 200 with a JSON body.
    pub fn ok(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            body: body.into(),
            content_type: "application/json",
            generation: None,
            retry_after: None,
        }
    }

    /// A 200 with a plain-text body (the Prometheus exposition format is
    /// served as `text/plain; version=0.0.4`).
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            body: body.into(),
            content_type: "text/plain; version=0.0.4",
            generation: None,
            retry_after: None,
        }
    }

    /// An error response with an `{"error": ...}` JSON body.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        let body = crate::report::Json::Obj(vec![(
            "error".into(),
            crate::report::Json::str(message.into()),
        )])
        .render();
        Response {
            status,
            body,
            content_type: "application/json",
            generation: None,
            retry_after: None,
        }
    }

    /// Tags the response with the store generation its bytes were
    /// rendered from (`X-Fahana-Generation`).
    pub fn with_generation(mut self, generation: u64) -> Response {
        self.generation = Some(generation);
        self
    }

    /// Attaches a `Retry-After` header (seconds).
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Serializes the response (status line, headers, body) into the exact
    /// bytes [`Response::write_to`] puts on the wire — the reactor's write
    /// path buffers these and drains them as the socket accepts them.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        self.wire(keep_alive, self.body.as_bytes())
    }

    /// The keep-alive wire bytes, rendered once and owned by the result;
    /// the body moves into them.
    pub fn into_wire(self) -> WireResponse {
        let bytes = self.to_bytes(true);
        let body_at = bytes.len() - self.body.len();
        WireResponse {
            head: Response {
                body: String::new(),
                ..self
            },
            bytes,
            body_at,
        }
    }

    /// This response's head followed by `body`.
    fn wire(&self, keep_alive: bool, body: &[u8]) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if let Some(generation) = self.generation {
            head.push_str(&format!("X-Fahana-Generation: {generation}\r\n"));
        }
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        head.push_str("\r\n");
        let mut bytes = Vec::with_capacity(head.len() + body.len());
        bytes.extend_from_slice(head.as_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    /// Writes the response (status line, headers, body) to the stream,
    /// advertising whether the server will keep the connection open for
    /// another request. Returns the total bytes written (head + body).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (peer gone, etc.).
    pub fn write_to(&self, stream: &mut TcpStream, keep_alive: bool) -> std::io::Result<usize> {
        let bytes = self.to_bytes(keep_alive);
        stream.write_all(&bytes)?;
        stream.flush()?;
        Ok(bytes.len())
    }
}

/// A response serialized once, as its keep-alive wire bytes: the form the
/// response cache holds, so every hit writes the same bytes without
/// copying the body. The `Connection: close` rendering, rarely needed, is
/// made on demand from the same body.
#[derive(Debug, PartialEq, Eq)]
pub struct WireResponse {
    /// Status, content type and headers; the body lives in `bytes`.
    head: Response,
    /// Exactly what `Response::to_bytes(true)` renders.
    bytes: Vec<u8>,
    /// Where the body starts in `bytes`.
    body_at: usize,
}

impl WireResponse {
    /// HTTP status code.
    pub fn status(&self) -> u16 {
        self.head.status
    }

    /// The keep-alive rendering: status line, headers and body.
    pub fn keep_alive_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The `Connection: close` rendering, made now: what
    /// `Response::to_bytes(false)` renders.
    pub fn close_bytes(&self) -> Vec<u8> {
        self.head.wire(false, &self.bytes[self.body_at..])
    }

    /// The response these bytes render, body copied back out.
    pub fn to_response(&self) -> Response {
        Response {
            // the body came from a `String`, so this never substitutes
            // (and, on the request path, a lossy copy beats a panic)
            body: String::from_utf8_lossy(&self.bytes[self.body_at..]).into_owned(),
            ..self.head.clone()
        }
    }
}

/// A fully parsed client-side response: status, every header, the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// All response headers, in wire order (names as sent).
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body.
    pub body: String,
}

impl ClientResponse {
    /// First header value matching `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(header, _)| header.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
    }

    /// The `X-Fahana-Generation` header, parsed — the store generation the
    /// response bytes were rendered from.
    pub fn generation(&self) -> Option<u64> {
        self.header("x-fahana-generation")?.trim().parse().ok()
    }
}

/// One client-side HTTP exchange over an existing connection: sends the
/// request (with `Connection: keep-alive`, so the same stream can carry
/// the next exchange) and reads the `Content-Length`-framed response.
///
/// This is the minimal client behind the `fahana-shard` coordinator's
/// `--ingest-url` publishing, the load generator and the serve tests:
/// sequential request/response pairs on one connection, no pipelining.
/// The response is read in chunks; since nothing is pipelined, bytes
/// beyond the declared body are a protocol error, not the next response.
///
/// # Errors
///
/// The underlying I/O error (`UnexpectedEof` if the peer closes early),
/// or `InvalidData` when the peer's response is not parseable HTTP or
/// carries bytes past its `Content-Length`.
pub fn client_exchange(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: fahana\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let bad = |message: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let mut received = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        // resume the terminator scan where the previous chunk left off
        let scan_from = received.len().saturating_sub(3);
        let read = stream.read(&mut chunk)?;
        if read == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        received.extend_from_slice(&chunk[..read]);
        if let Some(at) = received[scan_from..]
            .windows(4)
            .position(|window| window == b"\r\n\r\n")
        {
            break scan_from + at + 4;
        }
        if received.len() >= MAX_HEAD_BYTES {
            return Err(bad("response head too large"));
        }
    };
    let mut body = received.split_off(head_end);
    let head = String::from_utf8(received).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| bad("malformed Content-Length"))?;
            }
            headers.push((name.to_string(), value.to_string()));
        }
    }
    if body.len() > content_length {
        return Err(bad("response carries bytes past its Content-Length"));
    }
    let arrived = body.len();
    body.resize(content_length, 0);
    stream.read_exact(&mut body[arrived..])?;
    let body = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_target_decodes_path_and_query() {
        let (path, query) =
            split_target("/leaderboard/raspberry_pi_4?top=3&reward=fair%20one").unwrap();
        assert_eq!(path, "/leaderboard/raspberry_pi_4");
        assert_eq!(
            query,
            vec![
                ("top".to_string(), "3".to_string()),
                ("reward".to_string(), "fair one".to_string()),
            ]
        );
        // '+' decodes to space, bare keys get empty values
        let (_, query) = split_target("/query?reward=a+b&flag").unwrap();
        assert_eq!(
            query,
            vec![
                ("reward".to_string(), "a b".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
    }

    #[test]
    fn split_target_rejects_garbage() {
        assert!(split_target("query").is_err());
        assert!(split_target("/q?x=%zz").is_err());
        assert!(split_target("/%ff%fe").is_err(), "invalid UTF-8 rejected");
    }

    #[test]
    fn responses_have_correct_framing() {
        let response = Response::error(404, "no such route");
        assert_eq!(response.status, 404);
        assert_eq!(response.body, r#"{"error":"no such route"}"#);
        assert_eq!(status_text(409), "Conflict");
    }

    #[test]
    fn wire_response_renders_what_to_bytes_renders() {
        for response in [
            Response::ok(r#"{"n":"é"}"#).with_generation(7),
            Response::text("fahana_up 1\n"),
            Response::error(503, "busy").with_retry_after(1),
            Response::ok(""),
        ] {
            let wire = response.clone().into_wire();
            assert_eq!(wire.status(), response.status);
            assert_eq!(wire.keep_alive_bytes(), response.to_bytes(true));
            assert_eq!(wire.close_bytes(), response.to_bytes(false));
            assert_eq!(wire.to_response(), response);
        }
    }

    /// Serves one connection: answers each request it parses with the
    /// matching canned response bytes, each sent in a single write.
    fn serve_canned(replies: Vec<Vec<u8>>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut parser = RequestParser::new(1024);
            let mut chunk = [0u8; 1024];
            for reply in replies {
                let mut request = parser.advance().unwrap();
                while request.is_none() {
                    let read = conn.read(&mut chunk).unwrap();
                    request = parser.feed(&chunk[..read]).unwrap();
                }
                conn.write_all(&reply).unwrap();
            }
        });
        (addr, server)
    }

    #[test]
    fn client_reads_a_head_and_body_that_arrive_in_one_write() {
        let first = Response::ok(r#"{"n":1}"#).to_bytes(true);
        let second = Response::error(404, "gone").to_bytes(true);
        let (addr, server) = serve_canned(vec![first, second]);
        let mut stream = TcpStream::connect(addr).unwrap();

        let response = client_exchange(&mut stream, "GET", "/a", b"").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, r#"{"n":1}"#);
        assert_eq!(response.header("content-length"), Some("7"));
        // the same connection carries the next exchange, framed afresh
        let response = client_exchange(&mut stream, "POST", "/b", b"xy").unwrap();
        assert_eq!(response.status, 404);
        assert_eq!(response.body, r#"{"error":"gone"}"#);
        server.join().unwrap();
    }

    #[test]
    fn client_rejects_bytes_past_content_length() {
        let mut reply = Response::ok("{}").to_bytes(true);
        reply.extend_from_slice(b"extra");
        let (addr, server) = serve_canned(vec![reply]);
        let mut stream = TcpStream::connect(addr).unwrap();
        let err = client_exchange(&mut stream, "GET", "/a", b"").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        server.join().unwrap();
    }

    #[test]
    fn parser_completes_a_request_fed_one_byte_at_a_time() {
        let raw = b"POST /ingest?id=x HTTP/1.1\r\nHost: f\r\nContent-Length: 4\r\n\r\nbody";
        let mut parser = RequestParser::new(1024);
        let mut request = None;
        for (index, byte) in raw.iter().enumerate() {
            assert!(parser.is_empty() == (index == 0));
            if let Some(done) = parser.feed(&[*byte]).unwrap() {
                assert_eq!(index, raw.len() - 1, "complete only at the last byte");
                request = Some(done);
            }
        }
        let request = request.expect("request completes");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/ingest");
        assert_eq!(request.param("id"), Some("x"));
        assert_eq!(request.body, b"body");
        assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(parser.is_empty(), "nothing retained past the request");
    }

    #[test]
    fn parser_retains_pipelined_bytes_for_the_next_advance() {
        let mut parser = RequestParser::new(1024);
        let two = b"GET /healthz HTTP/1.1\r\n\r\nGET /catalog HTTP/1.0\n\n";
        let first = parser.feed(two).unwrap().expect("first request parses");
        assert_eq!(first.path, "/healthz");
        assert!(!parser.is_empty(), "second request still buffered");
        let second = parser.advance().unwrap().expect("second request parses");
        assert_eq!(second.path, "/catalog");
        assert!(!second.keep_alive, "HTTP/1.0 defaults to close");
        assert!(parser.is_empty());
        assert!(parser.on_eof().is_ok(), "clean EOF between requests");
    }

    #[test]
    fn parser_rejects_what_the_blocking_reader_rejected() {
        // conflicting Content-Length duplicates: the smuggling vector
        let mut parser = RequestParser::new(1024);
        let err = parser
            .feed(b"POST /i HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n")
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("conflicting Content-Length"), "{err}");

        // an oversized declared body is rejected from the headers alone
        let mut parser = RequestParser::new(16);
        let err = parser
            .feed(b"POST /i HTTP/1.1\r\nContent-Length: 17\r\n\r\n")
            .unwrap_err();
        assert_eq!(err.status, 413);

        // a head that never terminates is cut off at the cap
        let mut parser = RequestParser::new(1024);
        let mut result = parser.feed(b"GET / HTTP/1.1\r\n");
        while let Ok(None) = result {
            result = parser.feed(&[b'a'; 4096]);
        }
        let err = result.unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("truncated or larger"), "{err}");

        // EOF mid-head and mid-body are 400s, not quiet closes
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /que").unwrap();
        assert_eq!(parser.phase(), "request line");
        assert_eq!(parser.on_eof().unwrap_err().status, 400);
        let mut parser = RequestParser::new(1024);
        parser
            .feed(b"POST /i HTTP/1.1\r\nContent-Length: 9\r\n\r\nhalf")
            .unwrap();
        assert_eq!(parser.phase(), "body");
        assert!(parser.on_eof().unwrap_err().message.contains("shorter"));
    }
}
