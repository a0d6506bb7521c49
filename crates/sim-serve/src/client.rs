//! A persistent-connection HTTP/1.1 client over `std::net`.
//!
//! The counterpart of [`crate::http`]: one [`HttpClient`] owns one
//! keep-alive connection to one server and issues `Content-Length`-framed
//! requests over it back-to-back, reconnecting transparently when the
//! server has closed the idle connection in the meantime. The dispatcher
//! ([`crate::dispatch`]) keeps a pool of them per worker across requests,
//! which takes connection setup out of the per-request path.
//!
//! Framing rules (mirror the server's): a response is delimited by
//! `Content-Length` when present, by chunked encoding when declared, and
//! by EOF otherwise. A `Connection: close` from the server retires the
//! connection after the current response; the next request redials.
//!
//! ## Stale-connection retry
//!
//! A keep-alive client inevitably races the server's idle timeout: the
//! server may close a connection the client still considers good. The one
//! safe recovery is built in: if a *reused* connection dies before any
//! response byte arrives, the request is retried once on a fresh
//! connection. Failures after the first response byte are surfaced, never
//! retried — the request may have executed.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    /// Header names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy — error bodies are always ASCII JSON).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Connection-reuse counters, readable after a run for reporting.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientStats {
    /// TCP connections dialed.
    pub connects: u64,
    /// Requests completed (a reuse ratio of `requests / connects`).
    pub requests: u64,
    /// Requests retried once on a fresh connection after a stale reuse.
    pub stale_retries: u64,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Whether any request already completed on this connection — the
    /// gate for the stale-reuse retry.
    used: bool,
}

/// One keep-alive connection to one server. Not thread-safe by design:
/// callers hold one client per thread/slot.
pub struct HttpClient {
    addr: SocketAddr,
    conn: Option<Conn>,
    read_timeout: Duration,
    stats: ClientStats,
}

impl HttpClient {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            read_timeout: Duration::from_secs(600),
            stats: ClientStats::default(),
        }
    }

    pub fn with_read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn dial(&mut self) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(10))?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        self.stats.connects += 1;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: stream,
            used: false,
        })
    }

    /// Issue one request and read its full response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => self.dial()?,
        };
        match send(&mut conn, method, path, body) {
            Ok(()) => {}
            // Stale reuse: the server closed an idle keep-alive connection
            // under us and no response byte arrived. Retry once, fresh. A
            // read timeout (`WouldBlock` on Unix, `TimedOut` on Windows)
            // means the server is alive but slow: the request may run, so
            // it is not sent again.
            Err(e)
                if conn.used
                    && !matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) =>
            {
                self.stats.stale_retries += 1;
                conn = self.dial()?;
                send(&mut conn, method, path, body)?;
            }
            Err(e) => return Err(e),
        }
        // Past the first response byte a failure is surfaced, never
        // retried: the request may have executed.
        let resp = read_response(&mut conn.reader)?;
        Ok(self.finish(conn, resp))
    }

    /// Book-keeping after a completed exchange: count it, keep or retire
    /// the connection per the negotiated disposition.
    fn finish(&mut self, mut conn: Conn, resp: ClientResponse) -> ClientResponse {
        self.stats.requests += 1;
        let server_closes = resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
            // EOF-delimited bodies consumed the stream to its end.
            || (resp.header("content-length").is_none()
                && resp.header("transfer-encoding").is_none());
        if !server_closes {
            conn.used = true;
            self.conn = Some(conn);
        }
        resp
    }
}

/// Send one request on `conn` and wait for the first response byte. An
/// error here means no byte of the response arrived.
fn send(conn: &mut Conn, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
    write!(
        conn.writer,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    conn.writer.write_all(body)?;
    conn.writer.flush()?;
    if conn.reader.fill_buf()?.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the response",
        ));
    }
    Ok(())
}

/// Parse one response: status line, headers, then the framed body.
fn read_response(r: &mut BufReader<TcpStream>) -> io::Result<ClientResponse> {
    let status_line = read_crlf_line(r)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    loop {
        let line = read_crlf_line(r)?;
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let body = if let Some(len) = header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        buf
    } else if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        read_chunked(r)?
    } else {
        // EOF-delimited (the connection is dead afterwards).
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        buf
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

fn read_crlf_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Decode a chunked body (hex sizes, CRLF framing, zero-chunk terminator).
fn read_chunked(r: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let size_line = read_crlf_line(r)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            let _ = read_crlf_line(r); // trailing CRLF after the 0-chunk
            return Ok(out);
        }
        let start = out.len();
        out.resize(start + size, 0);
        r.read_exact(&mut out[start..])?;
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Consume one request: headers, then a `Content-Length` body.
    fn read_request(reader: &mut BufReader<TcpStream>) {
        let mut len = 0usize;
        loop {
            let line = read_crlf_line(reader).unwrap();
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                len = v.parse().unwrap();
            }
            if line.is_empty() {
                break;
            }
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
    }

    /// A tiny echo server speaking enough HTTP to exercise framing: each
    /// accepted connection answers `count` requests keep-alive then closes.
    fn serve_n(count: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming().take(1) {
                let stream = conn.unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for i in 0..count {
                    read_request(&mut reader);
                    let reply = format!("hit {i}");
                    let last = i + 1 == count;
                    write!(
                        writer,
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{reply}",
                        reply.len(),
                        if last { "close" } else { "keep-alive" }
                    )
                    .unwrap();
                }
            }
        });
        addr
    }

    /// A server that follows a script: one entry per accepted connection,
    /// one reply per request read on it, written verbatim. A connection
    /// closes after its script, and the listener after the last one.
    fn scripted(conns: Vec<Vec<&'static str>>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for replies in conns {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for reply in replies {
                    read_request(&mut reader);
                    writer.write_all(reply.as_bytes()).unwrap();
                }
            }
        });
        addr
    }

    const OK: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    #[test]
    fn reuses_one_connection_across_requests() {
        let addr = serve_n(3);
        let mut client = HttpClient::new(addr);
        for i in 0..3 {
            let resp = client.request("GET", "/x", b"").unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.text(), format!("hit {i}"));
        }
        let stats = client.stats();
        assert_eq!(stats.connects, 1, "three requests, one dial");
        assert_eq!(stats.requests, 3);
    }

    #[test]
    fn redials_after_server_close_and_retries_stale_reuse() {
        // Server closes after one request; the second request on the
        // retired connection must redial (no stale retry needed — the
        // `Connection: close` retired it eagerly).
        let addr = serve_n(1);
        let mut client = HttpClient::new(addr);
        assert_eq!(client.request("GET", "/x", b"").unwrap().status, 200);
        assert!(client.conn.is_none(), "close retires the connection");
        // A second exchange needs a live listener again.
        let addr2 = serve_n(1);
        client.addr = addr2;
        assert_eq!(client.request("GET", "/x", b"").unwrap().status, 200);
        assert_eq!(client.stats().connects, 2);
    }

    #[test]
    fn chunked_bodies_decode() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            loop {
                if read_crlf_line(&mut reader).unwrap().is_empty() {
                    break;
                }
            }
            write!(
                writer,
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
                 3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n"
            )
            .unwrap();
        });
        let mut client = HttpClient::new(addr);
        let resp = client.request("GET", "/s", b"").unwrap();
        assert_eq!(resp.text(), "abcdefg");
    }

    #[test]
    fn idle_close_before_any_byte_is_retried_once() {
        // The server answers once, then closes the idle connection; the
        // second request finds it dead before any response byte.
        let addr = scripted(vec![vec![OK], vec![OK]]);
        let mut client = HttpClient::new(addr).with_read_timeout(Duration::from_secs(10));
        assert_eq!(client.request("GET", "/a", b"").unwrap().text(), "ok");
        assert_eq!(client.request("GET", "/b", b"").unwrap().text(), "ok");
        let stats = client.stats();
        assert_eq!((stats.stale_retries, stats.connects), (1, 2));
    }

    #[test]
    fn timed_out_request_on_a_reused_connection_is_not_sent_again() {
        // The server answers one request, then reads a second on the same
        // connection and never answers it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (gave_up, client_gave_up) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            read_request(&mut reader);
            writer.write_all(OK.as_bytes()).unwrap();
            read_request(&mut reader);
            let mut seen = 1;
            client_gave_up.recv().unwrap();
            // A re-sent request would wait on a fresh connection.
            listener.set_nonblocking(true).unwrap();
            while let Ok((stream, _)) = listener.accept() {
                stream.set_nonblocking(false).unwrap();
                read_request(&mut BufReader::new(stream));
                seen += 1;
            }
            seen
        });
        let mut client = HttpClient::new(addr).with_read_timeout(Duration::from_millis(50));
        assert_eq!(client.request("GET", "/a", b"").unwrap().text(), "ok");
        assert!(client.request("GET", "/b", b"").is_err());
        assert_eq!(client.stats().stale_retries, 0);
        gave_up.send(()).unwrap();
        assert_eq!(
            server.join().unwrap(),
            1,
            "the second request was sent once"
        );
    }

    #[test]
    fn truncated_body_on_a_reused_connection_is_an_error() {
        // Status line, headers and 7 of 100 body bytes, then close: the
        // request may have executed, so it must not be sent again.
        let truncated = "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial";
        let addr = scripted(vec![vec![OK, truncated]]);
        let mut client = HttpClient::new(addr).with_read_timeout(Duration::from_secs(10));
        assert_eq!(client.request("GET", "/a", b"").unwrap().status, 200);
        assert!(client.request("GET", "/b", b"").is_err());
        assert_eq!(client.stats().stale_retries, 0);
        assert!(
            client.conn.is_none(),
            "a failed exchange drops its connection"
        );
    }
}
