//! A small blocking HTTP/1.1 client over one keep-alive connection.
//!
//! Backs the load generator and the integration tests. One [`Client`]
//! is one TCP connection; requests on it are strictly sequential, which
//! is exactly the closed-loop shape the load generator wants (N
//! connections = N concurrent requests in flight).

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http;

/// One response as it came off the wire.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl WireResponse {
    /// First value of header `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A blocking keep-alive HTTP client on one connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Returns any socket error from connecting.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Returns transport errors and malformed-response errors.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<WireResponse> {
        write_request(&mut self.writer, method, path, body)?;
        self.read_response()
    }

    /// `GET path`, expecting a 2xx status.
    ///
    /// # Errors
    ///
    /// Transport errors, plus an [`ErrorKind::Other`] error carrying the
    /// response body on a non-2xx status.
    pub fn get_ok(&mut self, path: &str) -> io::Result<WireResponse> {
        expect_ok(self.request("GET", path, b"")?)
    }

    /// `POST path` with a JSON body, expecting a 2xx status.
    ///
    /// # Errors
    ///
    /// Transport errors, plus an [`ErrorKind::Other`] error carrying the
    /// response body on a non-2xx status.
    pub fn post_ok(&mut self, path: &str, body: &str) -> io::Result<WireResponse> {
        expect_ok(self.request("POST", path, body.as_bytes())?)
    }

    fn read_response(&mut self) -> io::Result<WireResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("malformed status line '{status_line}'")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad(format!("malformed header line '{line}'")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse::<usize>())
            .transpose()
            .map_err(|_| bad("unparsable content-length".to_owned()))?
            .unwrap_or(0);
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(WireResponse {
            status,
            headers,
            body,
        })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// Frames one request onto `writer` (see [`http::send_message`]).
fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<()> {
    http::send_message(writer, body, |head| {
        write!(
            head,
            "{method} {path} HTTP/1.1\r\nhost: bz-serve\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
    })
}

fn expect_ok(response: WireResponse) -> io::Result<WireResponse> {
    if (200..300).contains(&response.status) {
        Ok(response)
    } else {
        Err(io::Error::other(format!(
            "HTTP {}: {}",
            response.status,
            response.text()
        )))
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::CountingWriter;
    use crate::http::INLINE_BODY_BYTES;

    #[test]
    fn requests_leave_in_one_write_unless_the_body_is_large() {
        let mut step = CountingWriter::default();
        write_request(
            &mut step,
            "POST",
            "/tenants/t-0001/step",
            b"{\"minutes\":1}",
        )
        .unwrap();
        assert_eq!(step.writes, 1);
        assert_eq!(
            step.bytes,
            b"POST /tenants/t-0001/step HTTP/1.1\r\nhost: bz-serve\r\ncontent-length: 13\r\n\r\n{\"minutes\":1}"
        );

        let restore = vec![3; INLINE_BODY_BYTES + 1];
        let mut upload = CountingWriter::default();
        write_request(&mut upload, "POST", "/tenants/t/restore", &restore).unwrap();
        assert_eq!(upload.writes, 2);
        assert!(upload.bytes.ends_with(&restore));
    }
}
