//! A minimal HTTP/1.1 server-side codec over blocking streams.
//!
//! Just enough of the grammar for the job API: one request per
//! connection (`Connection: close` on every response), request line +
//! headers + optional `Content-Length` body, hard limits on header and
//! body size so a hostile peer cannot balloon memory. No chunked
//! encoding, no keep-alive, no TLS — the server runs on loopback or
//! behind a real terminator.
//!
//! The head is read in 4 KiB reads, not byte by byte, so a small
//! request costs one `read` call; bytes that arrive past the
//! blank line are the start of the body. `Content-Length` must be
//! `1*DIGIT`, and repeated `Content-Length` headers must agree (RFC 9112
//! §6.3). A response goes out as one buffer: head and body in a single
//! `write_all`.

use std::io::{self, Read, Write};

/// Maximum accepted size of the request line + headers.
pub const MAX_HEAD: usize = 16 * 1024;

/// Maximum accepted request body (inline Verilog netlists fit well
/// under this).
pub const MAX_BODY: usize = 256 * 1024;

/// Bytes asked for per `read` while looking for the end of the head.
const READ_CHUNK: usize = 4 * 1024;

/// A parsed request: method, path and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request target path (query strings are not split off; the
    /// job API does not use them).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be read; maps onto a 4xx response.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes were not a parseable HTTP/1.1 request (400).
    BadRequest(&'static str),
    /// Head or body exceeded the hard limits (413).
    TooLarge,
    /// The underlying socket failed or timed out mid-request.
    Io(io::Error),
}

impl HttpError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::TooLarge => 413,
            HttpError::Io(_) => 400,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge => write!(f, "request too large"),
            HttpError::Io(e) => write!(f, "request i/o: {e}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads one request from the stream: head until the blank line, then
/// exactly `Content-Length` body bytes. A head longer than [`MAX_HEAD`]
/// bytes (blank line included) is rejected as too large, however the
/// stream splits it into reads.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let mut buf = Vec::with_capacity(READ_CHUNK);
    let head_end = loop {
        let filled = buf.len();
        buf.resize(filled + READ_CHUNK, 0);
        let n = stream.read(&mut buf[filled..])?;
        buf.truncate(filled + n);
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-head"));
        }
        // The terminator may straddle the previous read's end.
        let from = filled.saturating_sub(3);
        if let Some(at) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
        if buf.len() > MAX_HEAD {
            return Err(HttpError::TooLarge);
        }
    };
    if head_end > MAX_HEAD {
        return Err(HttpError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::BadRequest("missing method"))?;
    let path = parts.next().ok_or(HttpError::BadRequest("missing path"))?;
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing version"))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(HttpError::BadRequest("malformed request line"));
    }
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("malformed header"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            // `1*DIGIT` only: `usize::from_str` would also take `+5`.
            let n = value
                .parse::<usize>()
                .ok()
                .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                .ok_or(HttpError::BadRequest("bad content-length"))?;
            if content_length.is_some_and(|prior| prior != n) {
                return Err(HttpError::BadRequest("conflicting content-length"));
            }
            content_length = Some(n);
        }
    }
    let content_length = content_length.unwrap_or(0);
    // Body bytes that arrived with the head.
    let early = &buf[head_end..];
    if content_length > MAX_BODY {
        // Consume (and discard) the declared body before reporting the
        // error: closing the socket with unread bytes in the receive
        // buffer sends a TCP reset, which can destroy the 413 response
        // before the client reads it. Bounded so a hostile peer cannot
        // pin the connection; past the cap the reset is acceptable.
        drain(
            stream,
            content_length.min(DRAIN_CAP).saturating_sub(early.len()),
        );
        return Err(HttpError::TooLarge);
    }
    let mut body = early[..early.len().min(content_length)].to_vec();
    let have = body.len();
    body.resize(content_length, 0);
    stream.read_exact(&mut body[have..])?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body,
    })
}

/// How much of an oversized body is drained before the 413 goes out.
const DRAIN_CAP: usize = 4 * 1024 * 1024;

/// Best-effort bounded discard of request bytes still in flight.
fn drain(stream: &mut impl Read, mut remaining: usize) {
    let mut scratch = [0u8; 8192];
    while remaining > 0 {
        let want = remaining.min(scratch.len());
        match stream.read(&mut scratch[..want]) {
            Ok(0) | Err(_) => return,
            Ok(n) => remaining -= n,
        }
    }
}

/// The canonical reason phrase for the statuses the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one complete response and flushes; every response closes the
/// connection.
///
/// # Errors
///
/// Returns any I/O error from the write (a vanished client is normal
/// and the caller just drops the stream).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(stream, status, content_type, &[], body)
}

/// [`write_response`] with extra response headers (e.g. the `Allow`
/// line a 405 must carry). Header names and values are written as
/// given; callers pass only static, known-safe strings.
///
/// # Errors
///
/// Returns any I/O error from the write.
pub fn write_response_with(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut io::Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /jobs HTTP/1.1\r\nHost: x\r\ncontent-length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = parse(b"get /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, b"");
    }

    #[test]
    fn garbage_and_oversize_are_typed_errors() {
        assert_eq!(parse(b"NOT HTTP\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(parse(b"\r\n\r\n").unwrap_err().status(), 400);
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(parse(huge.as_bytes()).unwrap_err().status(), 413);
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD));
        assert_eq!(parse(long_head.as_bytes()).unwrap_err().status(), 413);
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
    }

    /// A reader that hands out at most `step` bytes per `read` call and
    /// counts the calls.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        step: usize,
        reads: usize,
    }

    impl Chunked {
        fn new(data: &[u8], step: usize) -> Chunked {
            Chunked {
                data: data.to_vec(),
                pos: 0,
                step,
                reads: 0,
            }
        }

        fn rest(&self) -> &[u8] {
            &self.data[self.pos..]
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.step).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Read sizes covering a terminator split across reads, body bytes
    /// arriving in the head's read, and one read for everything.
    const STEPS: [usize; 4] = [1, 2, 7, usize::MAX];

    fn parse_in(bytes: &[u8], step: usize) -> Result<Request, HttpError> {
        read_request(&mut Chunked::new(bytes, step))
    }

    #[test]
    fn framing_is_independent_of_read_boundaries() {
        let head = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n";
        let wire = [&head[..], b"{\"seed\":41}"].concat();
        let whole = parse(&wire).unwrap();
        assert_eq!(whole.body, b"{\"seed\":41}");
        // Every step size, plus cuts one to three bytes before the end
        // of the terminator, so the first read ends inside it.
        let cuts = (1..=3).map(|k| head.len() - k);
        for step in STEPS.into_iter().chain(cuts) {
            let mut r = Chunked::new(&wire, step);
            assert_eq!(read_request(&mut r).unwrap(), whole, "step {step}");
            assert!(r.rest().is_empty(), "step {step} left body bytes unread");
        }
    }

    #[test]
    fn head_limit_holds_at_any_read_size() {
        let head = |len: usize| {
            let fixed = "GET / HTTP/1.1\r\nX: \r\n\r\n".len();
            format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(len - fixed))
        };
        let exact = head(MAX_HEAD);
        let over = head(MAX_HEAD + 1);
        assert_eq!((exact.len(), over.len()), (MAX_HEAD, MAX_HEAD + 1));
        for step in STEPS {
            assert_eq!(parse_in(exact.as_bytes(), step).unwrap().path, "/");
            let err = parse_in(over.as_bytes(), step).unwrap_err();
            assert_eq!(err.status(), 413, "step {step}");
        }
    }

    #[test]
    fn oversize_bodies_are_drained_exactly() {
        let len = MAX_BODY + 1;
        let wire = [
            format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\n").as_bytes(),
            &vec![b'x'; len],
            b"NEXT",
        ]
        .concat();
        for step in STEPS {
            let mut r = Chunked::new(&wire, step);
            assert_eq!(read_request(&mut r).unwrap_err().status(), 413);
            assert_eq!(r.rest(), b"NEXT", "step {step} drained the wrong amount");
        }
    }

    #[test]
    fn a_small_request_takes_at_most_two_reads() {
        let body = "x".repeat(3 * 1024);
        let wire = format!(
            "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert!(wire.len() <= 4 * 1024);
        let mut r = Chunked::new(wire.as_bytes(), usize::MAX);
        assert_eq!(read_request(&mut r).unwrap().body, body.as_bytes());
        assert!(r.reads <= 2, "{} read calls for one request", r.reads);
    }

    #[test]
    fn content_length_must_be_digits_and_agree() {
        for bad in [
            "Content-Length: +5\r\n",
            "Content-Length: -5\r\n",
            "Content-Length: 0x5\r\n",
            "Content-Length: 5 5\r\n",
            "Content-Length: \r\n",
            "Content-Length: 99999999999999999999999\r\n",
            "Content-Length: 5\r\nContent-Length: 4\r\n",
            "Content-Length: 4\r\ncontent-length: 5\r\n",
        ] {
            let wire = format!("POST / HTTP/1.1\r\n{bad}\r\nhello");
            let err = parse(wire.as_bytes()).unwrap_err();
            assert_eq!(err.status(), 400, "accepted {bad:?}");
        }
        // Agreeing duplicates and surrounding whitespace are fine.
        let req =
            parse(b"POST / HTTP/1.1\r\nContent-Length:  5 \r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "application/json", b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_land_before_the_blank_line() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            405,
            "application/json",
            &[("Allow", "POST")],
            b"{}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert!(text.contains("Allow: POST\r\n"));
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("Allow:").unwrap() < head_end);
    }
}
