//! A buffered keep-alive HTTP/1.1 client for the closed-loop load.
//!
//! Responses are read in large chunks into one reusable buffer and
//! framed by `Content-Length`, so the generator spends a few syscalls per
//! request instead of one per header byte. When the daemon answers
//! `Connection: close` (its per-connection request cap), the client
//! reconnects before the next request; that is a rotation, not an error.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Largest response head the client accepts.
const MAX_HEAD: usize = 16 * 1024;

/// One framed response, borrowed from the client's buffer.
#[derive(Debug)]
pub struct Reply<'a> {
    pub status: u16,
    /// `X-Fahana-Generation`, when present.
    pub generation: Option<u64>,
    /// Whether the server closes the connection after this response.
    pub close: bool,
    /// The whole response as received: status line, headers, body.
    pub raw: &'a [u8],
}

#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let mut client = Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
        };
        client.open()?;
        Ok(client)
    }

    fn open(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.stream = Some(stream);
        Ok(())
    }

    /// Drops the connection (after an I/O error), so the next exchange
    /// starts on a fresh one.
    pub fn reset(&mut self) {
        self.stream = None;
    }

    /// Whether the next exchange has to open a new connection first.
    pub fn needs_reconnect(&self) -> bool {
        self.stream.is_none()
    }

    /// Sends one request and reads its response.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply<'_>> {
        if self.stream.is_none() {
            self.open()?;
        }
        let stream = self.stream.as_mut().expect("opened above");
        stream.write_all(request)?;
        let mut filled = 0;
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf[..filled]) {
                break end;
            }
            if filled >= MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            filled += read_more(stream, &mut self.buf, filled)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut content_length = None;
        let mut generation = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-fahana-generation") {
                generation = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length =
            head_end + content_length.ok_or_else(|| invalid("response without Content-Length"))?;
        while filled < length {
            filled += read_more(stream, &mut self.buf, filled)?;
        }
        if filled != length {
            return Err(invalid("unsolicited bytes after the response"));
        }
        if close {
            self.stream = None;
        }
        Ok(Reply {
            status,
            generation,
            close,
            raw: &self.buf[..length],
        })
    }
}

/// Reads whatever the socket has into `buf[filled..]`, growing the
/// buffer as needed; returns the byte count (an early EOF is an error).
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>, filled: usize) -> std::io::Result<usize> {
    if buf.len() < filled + 16 * 1024 {
        buf.resize(filled + 16 * 1024, 0);
    }
    let n = stream.read(&mut buf[filled..])?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-response",
        ));
    }
    Ok(n)
}

/// The wire bytes of a request, framed like `fahana-loadgen`'s.
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {target} HTTP/1.1\r\nHost: fahana\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}
