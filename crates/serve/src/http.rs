//! A minimal, dependency-free HTTP/1.1 codec.
//!
//! The workspace is offline (no tokio/hyper), so the server hand-rolls
//! exactly the slice of HTTP it needs: request-line + headers parsing,
//! `Content-Length`-framed bodies, keep-alive, and fixed-status
//! responses. The codec is deliberately strict — malformed framing is an
//! error, never a guess — because the load generator drives it at tens of
//! thousands of requests per second and a desynchronized connection would
//! corrupt every later exchange on it.

use std::io::{self, BufRead, Write};

/// Largest accepted header section, bytes (request line + all headers).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Largest accepted request body, bytes. Snapshot uploads of big tenants
/// are a few MB; this leaves generous headroom without letting one
/// connection exhaust memory.
pub const MAX_BODY_BYTES: usize = 256 * 1024 * 1024;

/// Bodies up to this size are copied behind the head and leave in the
/// same write; larger ones (snapshots, restores) follow the head in a
/// second write, uncopied.
pub(crate) const INLINE_BODY_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Query parameters in document order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of query parameter `name`, if present.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one request off `reader`. Returns `Ok(None)` on a clean EOF
/// before any request bytes (the peer closed an idle keep-alive
/// connection), an error for malformed or oversized framing.
///
/// # Errors
///
/// Returns an [`io::Error`] for transport failures, torn requests, and
/// protocol violations (bad request line, oversized headers/body,
/// unparsable or conflicting `Content-Length`, any `Transfer-Encoding`).
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let Some(request_line) = read_header_line(reader, true)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(bad(format!("malformed request line '{request_line}'"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(bad(format!("unsupported protocol version '{version}'")));
    }

    let mut headers = Vec::new();
    let mut header_bytes = request_line.len();
    loop {
        let Some(line) = read_header_line(reader, false)? else {
            return Err(bad("connection closed mid-headers"));
        };
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(bad("header section too large"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header line '{line}'")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    // Only `Content-Length` frames a body here. A chunked body read as
    // empty would leave its chunks to be parsed as the next request.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(bad(
            "transfer-encoding is not supported; send a content-length",
        ));
    }
    let mut declared = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let length = v
            .parse::<usize>()
            .map_err(|_| bad(format!("unparsable content-length '{v}'")))?;
        if declared.is_some_and(|first| first != length) {
            return Err(bad("conflicting content-length headers"));
        }
        declared = Some(length);
    }
    let content_length = declared.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(bad(format!(
            "request body of {content_length} bytes exceeds the limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, parse_query(query)),
        None => (target, Vec::new()),
    };
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        query,
        headers,
        body,
    }))
}

/// Reads one CRLF- (or LF-) terminated header line. `Ok(None)` on EOF;
/// `at_start` makes EOF-before-bytes a clean `None` instead of an error.
fn read_header_line<R: BufRead>(reader: &mut R, at_start: bool) -> io::Result<Option<String>> {
    let mut line = Vec::with_capacity(64);
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if line.is_empty() && at_start {
                    return Ok(None);
                }
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(bad("connection closed mid-line"))
                };
            }
            _ => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| bad("non-UTF-8 header line"));
                }
                if line.len() >= MAX_HEADER_BYTES {
                    return Err(bad("header line too long"));
                }
                line.push(byte[0]);
            }
        }
    }
}

fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect()
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// One response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from already-serialized text.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A newline-delimited-JSON (JSONL) response.
    #[must_use]
    pub fn jsonl(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type: "application/x-ndjson",
            headers: Vec::new(),
            body,
        }
    }

    /// A binary response (snapshot downloads).
    #[must_use]
    pub fn octets(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type: "application/octet-stream",
            headers: Vec::new(),
            body,
        }
    }

    /// An error response: `{"error": "<message>"}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            format!("{{\"error\":\"{}\"}}", bz_obs::json_escape(message)),
        )
    }

    /// Adds a header and returns the response (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_owned(), value));
        self
    }

    /// Serializes the response onto `writer`, announcing keep-alive or
    /// close per `keep_alive`.
    ///
    /// # Errors
    ///
    /// Returns any transport error.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        send_message(writer, &self.body, |head| {
            write!(
                head,
                "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
                self.status,
                status_text(self.status),
                self.content_type,
                self.body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            )?;
            for (name, value) in &self.headers {
                write!(head, "{name}: {value}\r\n")?;
            }
            head.write_all(b"\r\n")
        })
    }
}

/// Frames one HTTP message and flushes it. `head` writes the start line
/// and headers into a buffer; a body up to [`INLINE_BODY_BYTES`] is copied
/// behind them and leaves in the same write, a larger one follows in a
/// second write, uncopied. On a `TCP_NODELAY` socket every write leaves
/// as its own segment, so formatting straight onto the socket would send
/// one segment per format fragment.
pub(crate) fn send_message<W: Write>(
    writer: &mut W,
    body: &[u8],
    head: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let (inline, rest) = if body.len() <= INLINE_BODY_BYTES {
        (body, &[][..])
    } else {
        (&[][..], body)
    };
    let mut message = Vec::with_capacity(256 + inline.len());
    head(&mut message)?;
    message.extend_from_slice(inline);
    writer.write_all(&message)?;
    if !rest.is_empty() {
        writer.write_all(rest)?;
    }
    writer.flush()
}

/// The reason phrase for the status codes this server emits.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> io::Result<Option<Request>> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_a_request_with_body_and_query() {
        let request = parse(
            "POST /tenants/t1/step?minutes=5&dry= HTTP/1.1\r\n\
             Host: x\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap()
        .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/tenants/t1/step");
        assert_eq!(request.query_param("minutes"), Some("5"));
        assert_eq!(request.query_param("dry"), Some(""));
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.body, b"body");
        assert!(!request.wants_close());
    }

    #[test]
    fn keep_alive_reads_back_to_back_requests() {
        let text = "GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(text.as_bytes());
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(second.path, "/stats");
        assert!(second.wants_close());
        assert!(read_request(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn malformed_framing_is_an_error_not_a_guess() {
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nbad header\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        // Torn body: declared 10, only 4 present.
        assert!(parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nbody").is_err());
        assert!(parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n").is_err());
        assert!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody!")
                .is_err()
        );
        let agreeing = "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        assert_eq!(parse(agreeing).unwrap().unwrap().body, b"body");
    }

    /// Pieces the token-soup property strings together, `|`-separated.
    const PIECES: &str = "GET|POST| |/tenants/t-1|?|&|=|HTTP/1.1|HTTP/1.0|\r\n|\n|\r|:|\
                          Content-Length|Connection: close|7|-1|18446744073709551616";

    /// A well-formed request with a body: every strict prefix of it is
    /// an incomplete request.
    const REQUEST: &[u8] =
        b"POST /tenants/t-1/restore?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nBZCK!";

    fn read(bytes: &[u8]) -> io::Result<Option<Request>> {
        read_request(&mut &bytes[..])
    }

    proptest::proptest! {
        #[test]
        fn token_soup_never_panics(picks in proptest::collection::vec(0usize..274, 0..40)) {
            // Indices past the pieces stand for one raw byte each.
            let pieces: Vec<&str> = PIECES.split('|').collect();
            let bytes: Vec<u8> = picks
                .iter()
                .flat_map(|&i| match pieces.get(i) {
                    Some(piece) => piece.as_bytes().to_vec(),
                    None => vec![(i - pieces.len()) as u8],
                })
                .collect();
            let mut reader = &bytes[..];
            // A keep-alive connection reads requests until an error or EOF.
            while let Ok(Some(_)) = read_request(&mut reader) {}
        }

        #[test]
        fn every_truncation_is_refused(cut in 0usize..REQUEST.len()) {
            proptest::prop_assert!(read(REQUEST).unwrap().is_some());
            match read(&REQUEST[..cut]) {
                Ok(None) => proptest::prop_assert_eq!(cut, 0),
                Ok(Some(request)) => proptest::prop_assert!(false, "accepted a cut request: {request:?}"),
                Err(_) => {}
            }
        }

        #[test]
        fn bit_flips_never_panic_or_misframe(at in 0usize..REQUEST.len(), bit in 0u8..8) {
            let mut bytes = REQUEST.to_vec();
            bytes[at] ^= 1 << bit;
            if let Ok(Some(request)) = read(&bytes) {
                let declared = request.header("content-length").map_or(Ok(0), str::parse);
                proptest::prop_assert_eq!(declared, Ok(request.body.len()));
            }
        }
    }

    #[test]
    fn response_round_trips_through_the_parser_shape() {
        let mut wire = Vec::new();
        Response::json(200, "{\"ok\":true}".to_owned())
            .with_header("x-bz-cursor", "17".to_owned())
            .write_to(&mut wire, true)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("x-bz-cursor: 17\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }

    /// Counts `write` calls, the unit a `TCP_NODELAY` socket turns into
    /// segments.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
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

    #[test]
    fn small_responses_leave_in_one_write_large_ones_in_two() {
        let tap = Response::jsonl(200, vec![b'x'; 4_000])
            .with_header("x-bz-next-cursor", "120".to_owned())
            .with_header("x-bz-events", "120".to_owned());
        let snapshot = Response::octets(200, vec![7; INLINE_BODY_BYTES + 1]);
        for (response, writes) in [
            (Response::json(200, "{\"now_ms\":60000}".to_owned()), 1),
            (Response::json(200, String::new()), 1),
            (tap, 1),
            (Response::octets(200, vec![7; INLINE_BODY_BYTES]), 1),
            (snapshot, 2),
        ] {
            let mut counted = CountingWriter::default();
            response.write_to(&mut counted, true).unwrap();
            assert_eq!(counted.writes, writes, "{} body bytes", response.body.len());
            assert!(counted.bytes.ends_with(&response.body));
            let head_len = counted.bytes.len() - response.body.len();
            let head = std::str::from_utf8(&counted.bytes[..head_len]).unwrap();
            assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
            assert!(head.ends_with("\r\n\r\n"), "{head}");
            assert!(head.contains(&format!("content-length: {}\r\n", response.body.len())));
        }
    }

    #[test]
    fn error_bodies_escape_the_message() {
        let response = Response::error(400, "bad \"name\"");
        assert_eq!(response.body, b"{\"error\":\"bad \\\"name\\\"\"}");
    }
}
