//! A minimal HTTP/1.1 implementation on blocking `std::io` streams.
//!
//! Only what the query service needs, hand-rolled so the workspace stays
//! dependency-free: request-line + header parsing, `Content-Length`
//! bodies, keep-alive connection reuse, and deterministic response
//! serialization. No chunked transfer, no TLS, no percent-decoding
//! beyond `%XX` in query values — the service speaks plain JSON over
//! loopback-style links.
//!
//! Input limits ([`MAX_HEADER_BYTES`], [`MAX_BODY_BYTES`]) bound memory
//! per connection so a misbehaving client cannot balloon a worker.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// Upper bound on the request line plus all headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Upper bound on a request body (a `/sweep` batch of ~10⁴ scenarios
/// fits comfortably).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// The path component, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Lower-cased header names mapped to their raw values.
    pub headers: HashMap<String, String>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first query value under `key`, if any.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the client asked to close the connection after this
    /// request (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection before sending a request line
    /// (normal at the end of a keep-alive session).
    ConnectionClosed,
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// A size limit was exceeded.
    TooLarge(&'static str),
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::ConnectionClosed => write!(f, "connection closed"),
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::TooLarge(what) => write!(f, "request {what} too large"),
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

fn malformed(m: impl Into<String>) -> RequestError {
    RequestError::Malformed(m.into())
}

/// Reads one request from a buffered stream.
///
/// # Errors
///
/// [`RequestError::ConnectionClosed`] on a clean EOF before any byte of
/// the request line; the other variants for protocol violations, limit
/// overruns and transport failures.
pub fn read_request<R: BufRead>(stream: &mut R) -> Result<Request, RequestError> {
    let mut header_bytes = 0usize;
    let request_line = match read_line(stream, &mut header_bytes)? {
        None => return Err(RequestError::ConnectionClosed),
        Some(line) if line.is_empty() => return Err(malformed("empty request line")),
        Some(line) => line,
    };

    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| malformed("missing method"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| malformed("missing path"))?;
    let version = parts.next().ok_or_else(|| malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("unsupported version `{version}`")));
    }

    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = parse_query(query_string);

    let mut headers = HashMap::new();
    loop {
        let line = read_line(stream, &mut header_bytes)?
            .ok_or_else(|| malformed("connection closed mid-headers"))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed(format!("header without colon: `{line}`")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let body = match headers.get("content-length") {
        None => Vec::new(),
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| malformed("invalid content-length"))?;
            if len > MAX_BODY_BYTES {
                return Err(RequestError::TooLarge("body"));
            }
            let mut body = vec![0u8; len];
            stream.read_exact(&mut body)?;
            body
        }
    };

    Ok(Request {
        method,
        path: path.to_string(),
        query,
        headers,
        body,
    })
}

/// Reads one CRLF- (or LF-) terminated line; `None` on clean EOF at a
/// line boundary.
fn read_line<R: BufRead>(
    stream: &mut R,
    header_bytes: &mut usize,
) -> Result<Option<String>, RequestError> {
    let mut line = Vec::new();
    loop {
        let available = stream.fill_buf()?;
        if available.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(malformed("connection closed mid-line"));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        line.extend_from_slice(&available[..take]);
        stream.consume(take);
        *header_bytes += take;
        if *header_bytes > MAX_HEADER_BYTES {
            return Err(RequestError::TooLarge("header"));
        }
        if newline.is_some() {
            while matches!(line.last(), Some(b'\n' | b'\r')) {
                line.pop();
            }
            return Ok(Some(
                String::from_utf8(line).map_err(|_| malformed("non-UTF-8 header bytes"))?,
            ));
        }
    }
}

/// Parses `a=1&b=2` with minimal `%XX` and `+` decoding.
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body (JSON everywhere except the `/metrics` exposition).
    pub body: String,
    /// The `Content-Type` value (JSON unless built via
    /// [`Response::ok_text`]).
    pub content_type: &'static str,
    /// Extra `name: value` headers (e.g. the cache marker).
    pub extra_headers: Vec<(String, String)>,
    /// Whether to advertise `Connection: close`.
    pub close: bool,
}

impl Response {
    /// A 200 response with a JSON body.
    pub fn ok(body: String) -> Response {
        Response {
            status: 200,
            body,
            content_type: "application/json",
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A 200 response with a plain-text body under an explicit content
    /// type (the Prometheus exposition on `/metrics`).
    pub fn ok_text(body: String, content_type: &'static str) -> Response {
        Response {
            content_type,
            ..Response::ok(body)
        }
    }

    /// An error response carrying `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = rvz_experiments::Json::obj(vec![(
            "error",
            rvz_experiments::Json::Str(message.to_string()),
        )])
        .render();
        Response {
            status,
            body,
            content_type: "application/json",
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes the response onto the stream (status line,
    /// `Content-Type`, `Content-Length`, extras, body) in a single
    /// `write_all`: on a `TCP_NODELAY` socket every `write` leaves as
    /// its own segment, so the message is assembled in memory first.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to<W: Write>(&self, stream: &mut W) -> io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        };
        // Formatting into a `String` cannot fail.
        let mut wire = String::with_capacity(256 + self.body.len());
        let _ = write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            let _ = write!(wire, "{name}: {value}\r\n");
        }
        let _ = write!(
            wire,
            "Connection: {}\r\n\r\n",
            if self.close { "close" } else { "keep-alive" }
        );
        wire.push_str(&self.body);
        stream.write_all(wire.as_bytes())?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query_string() {
        let r =
            parse("GET /feasibility?v=0.5&tau=1&label=a+b%21 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/feasibility");
        assert_eq!(r.query_value("v"), Some("0.5"));
        assert_eq!(r.query_value("tau"), Some("1"));
        assert_eq!(r.query_value("label"), Some("a b!"));
        assert_eq!(r.query_value("missing"), None);
        assert!(r.body.is_empty());
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_a_post_with_body() {
        let r = parse(
            "POST /sweep HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\n{\"a\":[1,2]}",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\":[1,2]}");
        assert!(r.wants_close());
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let r = parse("GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(r.path, "/healthz");
    }

    #[test]
    fn clean_eof_is_connection_closed() {
        assert!(matches!(parse(""), Err(RequestError::ConnectionClosed)));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1\r\nBadHeader\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(RequestError::Malformed(_))),
                "accepted {raw:?}"
            );
        }
    }

    #[test]
    fn oversized_inputs_are_bounded() {
        let huge_header = format!(
            "GET /x HTTP/1.1\r\nPad: {}\r\n\r\n",
            "y".repeat(MAX_HEADER_BYTES)
        );
        assert!(matches!(
            parse(&huge_header),
            Err(RequestError::TooLarge("header"))
        ));
        let huge_body = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(&huge_body),
            Err(RequestError::TooLarge("body"))
        ));
    }

    /// A `Write` that records every `write` call, standing in for a
    /// `TCP_NODELAY` socket where each call leaves as its own segment.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Writes `resp` and asserts it left in one `write` with exactly
    /// the `expected` bytes.
    fn assert_one_write(resp: &Response, expected: &str) {
        let mut w = CountingWriter::default();
        resp.write_to(&mut w).unwrap();
        assert_eq!(String::from_utf8(w.bytes).unwrap(), expected);
        assert_eq!(w.writes, 1, "one write per message");
    }

    #[test]
    fn responses_serialize_with_length_and_headers() {
        let hit = Response::ok("{\"ok\":true}".into())
            .header("X-Rvz-Cache", "hit")
            .header("X-Rvz-Trace", "00000000000000aa");
        assert_one_write(
            &hit,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             X-Rvz-Cache: hit\r\nX-Rvz-Trace: 00000000000000aa\r\n\
             Connection: keep-alive\r\n\r\n{\"ok\":true}",
        );

        let bad = Response::error(400, "invalid JSON").header("X-Rvz-Trace", "0000000000000001");
        assert_one_write(
            &bad,
            "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 24\r\n\
             X-Rvz-Trace: 0000000000000001\r\n\
             Connection: keep-alive\r\n\r\n{\"error\":\"invalid JSON\"}",
        );

        let mut too_large = Response::error(413, "request body too large");
        too_large.close = true;
        assert_one_write(
            &too_large,
            "HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\n\
             Content-Length: 34\r\nConnection: close\r\n\r\n\
             {\"error\":\"request body too large\"}",
        );

        let mut shed = Response::error(503, "server overloaded: connection queue full")
            .header("Retry-After", "1");
        shed.close = true;
        assert_one_write(
            &shed,
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 52\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
             {\"error\":\"server overloaded: connection queue full\"}",
        );

        let metrics = Response::ok_text(
            "# TYPE rvz_up gauge\nrvz_up 1\n".into(),
            "text/plain; version=0.0.4",
        )
        .header("X-Rvz-Trace", "0000000000000002");
        assert_one_write(
            &metrics,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: 29\r\n\
             X-Rvz-Trace: 0000000000000002\r\n\
             Connection: keep-alive\r\n\r\n# TYPE rvz_up gauge\nrvz_up 1\n",
        );
    }

    #[test]
    fn error_responses_carry_a_json_error() {
        let mut out = Vec::new();
        let mut resp = Response::error(404, "no such endpoint");
        resp.close = true;
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"no such endpoint\"}"));
    }
}
