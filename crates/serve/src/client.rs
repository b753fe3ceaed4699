//! A minimal blocking HTTP client for tests, the smoke binary and the
//! load generator: one request per connection, mirroring the server's
//! `Connection: close` contract.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded response: status code, headers and body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The response headers in wire order, names as received.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// The first header with this name (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the response to EOF.
///
/// # Errors
///
/// Returns connection, write, read or response-parse failures as
/// [`io::Error`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Response> {
    request_timeout(addr, method, path, body, Duration::from_secs(30))
}

/// [`request`] with an explicit per-socket timeout.
///
/// # Errors
///
/// Returns connection, write, read or response-parse failures as
/// [`io::Error`].
pub fn request_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: job-server\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    stream.write_all(&out)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Splits a raw response into status and body.
fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            l.split_once(':')
                .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    Ok(Response {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let r = parse_response(b"HTTP/1.1 429 Too Many Requests\r\nX: y\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.body, b"{\"a\":1}");
        assert_eq!(r.header("x"), Some("y"));
        assert_eq!(r.header("absent"), None);
        assert!(parse_response(b"garbage").is_err());
    }
}
