//! Minimal HTTP/1.1 over `std::net`: request parsing with hard limits,
//! fixed-length responses, and chunked transfer encoding for NDJSON
//! streams.
//!
//! The server speaks a deliberately small subset: HTTP/1.1 persistent
//! connections with `Content-Length`-framed responses (clients may
//! pipeline requests; each is answered in order), `Connection: close`
//! honored on request, no compression, no multipart. Limits are enforced
//! *while reading*, so an oversized or trickling client is rejected
//! without buffering its payload.

use std::io::{self, BufRead, Write};

/// Hard limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum request-line + single-header length, bytes.
    pub max_line_bytes: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum body length, bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_line_bytes: 8 * 1024,
            max_headers: 64,
            max_body_bytes: 64 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path without the query string, e.g. `/v1/runs`.
    pub path: String,
    /// Decoded `k=v` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the connection to close after this
    /// request (`Connection: close`). HTTP/1.1 defaults to persistent.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")))
    }
}

/// Why a request could not be read. Carries the status the connection
/// should answer with before closing.
#[derive(Debug)]
pub enum ReadError {
    /// Client closed before sending a full request (no response owed).
    Closed,
    /// I/O error or timeout mid-request.
    Io(io::Error),
    /// Malformed or over-limit request; respond with this status.
    Bad { status: u16, message: String },
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn bad(status: u16, message: impl Into<String>) -> ReadError {
    ReadError::Bad {
        status,
        message: message.into(),
    }
}

/// Read one CRLF-terminated line, enforcing the length limit.
fn read_line(r: &mut impl BufRead, limit: usize) -> Result<String, ReadError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = r.read(&mut byte).map_err(ReadError::Io)?;
        if n == 0 {
            if line.is_empty() {
                return Err(ReadError::Closed);
            }
            return Err(bad(400, "truncated request"));
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| bad(400, "non-UTF-8 header"));
        }
        line.push(byte[0]);
        if line.len() > limit {
            return Err(bad(431, "header line too long"));
        }
    }
}

/// Parse one request from the stream. The caller is responsible for socket
/// read timeouts (a timeout surfaces as `ReadError::Io`).
pub fn read_request(r: &mut impl BufRead, limits: &Limits) -> Result<Request, ReadError> {
    let request_line = read_line(r, limits.max_line_bytes)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().ok_or_else(|| bad(400, "missing target"))?;
    let version = parts.next().ok_or_else(|| bad(400, "missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(505, "unsupported HTTP version"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(bad(400, "malformed method"));
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query: Vec<(String, String)> = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    let mut headers = Vec::new();
    let mut content_length: usize = 0;
    loop {
        let line = read_line(r, limits.max_line_bytes)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(bad(431, "too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(400, "malformed header"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| bad(400, "invalid content-length"))?;
            if content_length > limits.max_body_bytes {
                return Err(bad(413, "request body too large"));
            }
        }
        if name == "transfer-encoding" {
            // Chunked *requests* are out of scope for this service.
            return Err(bad(411, "length required (chunked requests unsupported)"));
        }
        headers.push((name, value));
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        io::Read::read_exact(r, &mut body).map_err(ReadError::Io)?;
    }

    Ok(Request {
        method,
        path: path.to_string(),
        query,
        headers,
        body,
    })
}

pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// One fixed-length response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers, e.g. `Retry-After` on a 503.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }
}

/// Write a fixed-length response. `keep_alive` selects the connection
/// disposition header: persistent (`keep-alive`) or `close` — the caller
/// owns the decision (client preference, drain state, error paths).
pub fn write_response_conn(
    w: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    for (name, value) in &resp.extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(&resp.body)?;
    w.flush()
}

/// Write a fixed-length response and close the connection afterwards
/// (`Connection: close`) — the one-shot convenience over
/// [`write_response_conn`].
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_response_conn(w, resp, false)
}

/// A chunked (streaming) response in progress. Each [`chunk`] flushes one
/// HTTP/1.1 chunk to the client; [`finish`] writes the terminator.
///
/// [`chunk`]: ChunkedResponse::chunk
/// [`finish`]: ChunkedResponse::finish
pub struct ChunkedResponse<W: Write> {
    w: W,
}

impl<W: Write> ChunkedResponse<W> {
    /// Write the status line + headers and switch to chunked encoding.
    pub fn start(
        mut w: W,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
    ) -> io::Result<Self> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
            status,
            status_text(status),
            content_type
        )?;
        for (name, value) in extra_headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.flush()?;
        Ok(Self { w })
    }

    /// Send one chunk (empty input is skipped — a zero-length chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Terminate the stream.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), &Limits::default())
    }

    #[test]
    fn parses_request_with_query_headers_and_body() {
        let req = parse(
            "POST /v1/runs?stream=1&x=a%20b HTTP/1.1\r\n\
             Host: localhost\r\n\
             Content-Length: 4\r\n\
             \r\n\
             abcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/runs");
        assert_eq!(req.query_param("stream"), Some("1"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let limits = Limits {
            max_body_bytes: 8,
            ..Limits::default()
        };
        let raw = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        let err = read_request(&mut BufReader::new(raw.as_bytes()), &limits).unwrap_err();
        match err {
            ReadError::Bad { status: 413, .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for (raw, want) in [
            ("GARBAGE\r\n\r\n", 400),
            ("GET / HTTP/2.0\r\n\r\n", 505),
            ("get / HTTP/1.1\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nbroken header\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 411),
        ] {
            match parse(raw) {
                Err(ReadError::Bad { status, .. }) => assert_eq!(status, want, "{raw:?}"),
                other => panic!("{raw:?} -> {other:?}"),
            }
        }
        assert!(matches!(parse(""), Err(ReadError::Closed)));
    }

    #[test]
    fn fixed_response_has_length_and_close() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            &Response::json(503, "{}".into()).with_header("Retry-After", "1".into()),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn keep_alive_response_and_close_negotiation() {
        let mut out = Vec::new();
        write_response_conn(&mut out, &Response::json(200, "{}".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));

        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(close.wants_close());
        let keep = parse("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!keep.wants_close());
        let default = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(!default.wants_close());
        let listed = parse("GET / HTTP/1.1\r\nConnection: TE, Close\r\n\r\n").unwrap();
        assert!(listed.wants_close());
    }

    /// Two pipelined requests parse back-to-back from one stream: the body
    /// read of the first leaves the reader exactly at the second.
    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let raw = "POST /v1/runs HTTP/1.1\r\nContent-Length: 2\r\n\r\nab\
                   GET /healthz HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(raw.as_bytes());
        let first = read_request(&mut r, &Limits::default()).unwrap();
        assert_eq!(first.path, "/v1/runs");
        assert_eq!(first.body, b"ab");
        let second = read_request(&mut r, &Limits::default()).unwrap();
        assert_eq!(second.path, "/healthz");
        assert!(matches!(
            read_request(&mut r, &Limits::default()),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn chunked_stream_frames_and_terminates() {
        let mut out = Vec::new();
        {
            let mut c = ChunkedResponse::start(
                &mut out,
                200,
                "application/x-ndjson",
                &[("X-Request-Id", "req-000001".to_string())],
            )
            .unwrap();
            c.chunk(b"{\"a\":1}\n").unwrap();
            c.chunk(b"").unwrap(); // skipped, must not terminate
            c.chunk(b"{\"b\":2}\n").unwrap();
            c.finish().unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("X-Request-Id: req-000001\r\n"));
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }

    /// Read requests from `bytes` until the stream ends or one fails, as
    /// a keep-alive connection would.
    fn read_all(bytes: &[u8]) {
        let mut r = BufReader::new(bytes);
        while read_request(&mut r, &Limits::default()).is_ok() {}
    }

    /// A well-formed request on the wire, with the [`Request`] it must
    /// parse to: method, path, a query, headers and a
    /// `Content-Length`-framed body of arbitrary bytes.
    fn arb_request() -> impl Strategy<Value = (Request, Vec<u8>)> {
        (
            0usize..3,
            proptest::collection::vec(0u8..=255, 0..24),
            proptest::collection::vec(0u8..=255, 0..64),
            0usize..4,
        )
            .prop_map(|(m, path, body, extra)| {
                // Visible ASCII other than '?' (which starts the query).
                let path: String = path
                    .iter()
                    .map(|&b| match (b'!' + b % 94) as char {
                        '?' => '_',
                        c => c,
                    })
                    .collect();
                let mut headers = vec![("host".to_string(), "x".to_string())];
                for i in 0..extra {
                    headers.push((format!("x-extra-{i}"), format!("v{i}")));
                }
                headers.push(("content-length".to_string(), body.len().to_string()));
                let req = Request {
                    method: ["GET", "POST", "DELETE"][m].to_string(),
                    path: format!("/v1/{path}"),
                    query: vec![
                        ("reps".to_string(), "1".to_string()),
                        ("stream".to_string(), String::new()),
                    ],
                    headers,
                    body,
                };
                let mut raw = format!("{} {}?reps=1&stream HTTP/1.1\r\n", req.method, req.path);
                for (k, v) in &req.headers {
                    raw.push_str(&format!("{}:  {v} \r\n", k.to_ascii_uppercase()));
                }
                raw.push_str("\r\n");
                let mut bytes = raw.into_bytes();
                bytes.extend_from_slice(&req.body);
                (req, bytes)
            })
    }

    /// `Content-Length` values a client may send that do not frame the
    /// body that follows.
    const CLAIMED_LENGTHS: [&str; 7] = [
        "0",
        "65537",
        "99999999999999999999",
        "18446744073709551615",
        "-1",
        "+4",
        "4 4",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn read_request_survives_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
        ) {
            read_all(&bytes);
        }

        #[test]
        fn read_request_survives_damaged_requests(
            reqs in proptest::collection::vec(arb_request(), 1..4),
            claim in 0usize..CLAIMED_LENGTHS.len() + 1,
            cut in 0usize..1024,
            flips in proptest::collection::vec((0usize..1024, 0u8..=255), 0..4),
        ) {
            let mut bytes: Vec<u8> = reqs.into_iter().flat_map(|(_, raw)| raw).collect();
            // Overrule the first request's length with a false one.
            if let Some(len) = CLAIMED_LENGTHS.get(claim) {
                let head = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
                let header = format!("\r\ncontent-length: {len}");
                bytes.splice(head..head, header.into_bytes());
            }
            for (at, b) in flips {
                let at = at % bytes.len();
                bytes[at] = b;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            read_all(&bytes);
        }

        #[test]
        fn well_formed_requests_parse_back_in_sequence(
            reqs in proptest::collection::vec(arb_request(), 1..4),
        ) {
            let bytes: Vec<u8> = reqs.iter().flat_map(|(_, raw)| raw.clone()).collect();
            let mut r = BufReader::new(&bytes[..]);
            for (want, _) in &reqs {
                let got = read_request(&mut r, &Limits::default()).unwrap();
                prop_assert_eq!(&got.method, &want.method);
                prop_assert_eq!(&got.path, &want.path);
                prop_assert_eq!(&got.query, &want.query);
                prop_assert_eq!(&got.headers, &want.headers);
                prop_assert_eq!(&got.body, &want.body);
            }
            prop_assert!(matches!(
                read_request(&mut r, &Limits::default()),
                Err(ReadError::Closed)
            ));
        }
    }
}
