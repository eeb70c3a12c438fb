//! A deliberately small HTTP/1.1 implementation: enough protocol for the
//! four endpoints the daemon exposes, with hard size limits so a
//! malformed or hostile client cannot balloon memory. Every connection
//! carries exactly one request and is answered `Connection: close`.

use std::io::{self, Write};
use std::io::{BufRead, BufReader, Read};
use std::time::Instant;

/// Longest accepted request line (method + target + version).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Total header bytes accepted before the request is rejected.
const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Largest accepted body (a guide list; 16 MiB is ~400k guides).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed request: method, decoded path, decoded query pairs,
/// headers (names lowercased), body, and how many wire bytes it cost.
#[derive(Debug)]
pub(crate) struct Request {
    pub method: String,
    pub path: String,
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Wire bytes consumed by this request: request line, headers,
    /// separators, and body — the access log's `bytes_in`.
    pub bytes_in: u64,
}

impl Request {
    /// The first value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The value of header `name` (ASCII case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed: `Bad` becomes a 400 response,
/// `Io` means the connection is dead and is simply dropped.
#[derive(Debug)]
pub(crate) enum ParseError {
    Bad(String),
    // The error value is carried for Debug output only; handlers just
    // drop the connection.
    Io(#[allow(dead_code)] io::Error),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> ParseError {
        ParseError::Io(e)
    }
}

/// Fails with a timed-out I/O error once `deadline` has passed.
///
/// This is the slow-loris bound: the socket's `read_timeout` only
/// restarts per successful `read`, so a client trickling one byte per
/// timeout window could otherwise hold a worker indefinitely. Checking
/// an *absolute* deadline between buffer refills caps the whole
/// request-read phase at `deadline + one socket timeout`.
fn check_deadline(deadline: Option<Instant>) -> Result<(), ParseError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(ParseError::Io(io::Error::new(
            io::ErrorKind::TimedOut,
            "request read deadline exceeded",
        ))),
        _ => Ok(()),
    }
}

/// Reads one `\r\n`- (or `\n`-) terminated line of at most `limit`
/// bytes, polling `deadline` between buffer refills. `consumed` is
/// advanced by the raw wire bytes taken, terminator included.
fn read_line<R: BufRead>(
    reader: &mut R,
    limit: usize,
    deadline: Option<Instant>,
    consumed: &mut u64,
) -> Result<String, ParseError> {
    let mut raw = Vec::new();
    loop {
        check_deadline(deadline)?;
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            break; // EOF before a newline; an empty/short line is rejected below.
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                raw.extend_from_slice(&buf[..=pos]);
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = buf.len();
                raw.extend_from_slice(buf);
                reader.consume(len);
            }
        }
        if raw.len() > limit {
            return Err(ParseError::Bad(format!("line exceeds {limit} bytes")));
        }
    }
    if raw.len() > limit {
        return Err(ParseError::Bad(format!("line exceeds {limit} bytes")));
    }
    *consumed += raw.len() as u64;
    while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| ParseError::Bad("non-UTF-8 header line".to_string()))
}

/// Decodes `%XX` escapes (exactly two ASCII hex digits) and
/// `+`-as-space in a query component; any other `%` stays literal.
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if bytes
                .get(i + 1..i + 3)
                .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) =>
            {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).expect("ASCII hex digits");
                out.push(u8::from_str_radix(hex, 16).expect("two hex digits fit a byte"));
                i += 2;
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a query string into decoded `(key, value)` pairs. The value is
/// everything after the *first* `=`, so failpoint specs like
/// `inject=parallel.chunk=error:1.0` survive without escaping.
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

/// Parses one request off `stream`. `deadline`, when set, bounds the
/// whole read — request line, headers, and body — against slow-loris
/// clients (see [`check_deadline`]).
pub(crate) fn parse_request<R: Read>(
    stream: R,
    deadline: Option<Instant>,
) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(stream);
    let mut bytes_in = 0u64;
    let request_line = read_line(&mut reader, MAX_REQUEST_LINE, deadline, &mut bytes_in)?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
        _ => return Err(ParseError::Bad(format!("malformed request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported protocol {version:?}")));
    }

    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader, MAX_REQUEST_LINE, deadline, &mut bytes_in)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ParseError::Bad(format!("headers exceed {MAX_HEADER_BYTES} bytes")));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Bad(format!("malformed header {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Bad(format!("bad content-length {value:?}")))?;
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::Bad(format!("body exceeds {MAX_BODY_BYTES} bytes")));
    }

    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        check_deadline(deadline)?;
        let n = reader.read(&mut body[filled..])?;
        if n == 0 {
            return Err(ParseError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "body shorter than content-length",
            )));
        }
        filled += n;
    }

    bytes_in += content_length as u64;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target.as_str(), Vec::new()),
    };
    Ok(Request { method, path: percent_decode(path), query, headers, body, bytes_in })
}

/// One response, written with `Content-Length` and `Connection: close`.
#[derive(Debug)]
pub(crate) struct Response {
    pub status: u16,
    content_type: &'static str,
    headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response { status, content_type, headers: Vec::new(), body }
    }

    pub fn text(status: u16, message: impl Into<String>) -> Response {
        let mut body = message.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response::new(status, "text/plain; charset=utf-8", body.into_bytes())
    }

    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Writes the response and returns the total wire bytes sent — the
    /// access log's `bytes_out`.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> io::Result<u64> {
        let mut head = String::with_capacity(128);
        use std::fmt::Write as _;
        let _ = write!(head, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        let _ = write!(head, "Content-Type: {}\r\n", self.content_type);
        let _ = write!(head, "Content-Length: {}\r\n", self.body.len());
        head.push_str("Connection: close\r\n");
        for (name, value) in &self.headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()?;
        Ok(head.len() as u64 + self.body.len() as u64)
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        206 => "Partial Content",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        parse_request(Cursor::new(raw.as_bytes().to_vec()), None)
    }

    #[test]
    fn parses_a_post_with_query_and_body() {
        let req = parse(
            "POST /search?k=3&engine=cpu-hyperscan&inject=parallel.chunk=error:1.0,7,1 HTTP/1.1\r\n\
             Host: localhost\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/search");
        assert_eq!(req.query_param("k"), Some("3"));
        assert_eq!(req.query_param("engine"), Some("cpu-hyperscan"));
        // The value keeps everything after the first `=`.
        assert_eq!(req.query_param("inject"), Some("parallel.chunk=error:1.0,7,1"));
        assert_eq!(req.body, b"hello");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("Content-Length"), Some("5"));
        assert_eq!(req.header("x-missing"), None);
    }

    #[test]
    fn bytes_in_counts_the_whole_wire_request() {
        let raw = "POST /search HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse(raw).unwrap();
        assert_eq!(req.bytes_in, raw.len() as u64);
    }

    #[test]
    fn parses_a_bare_get() {
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty() && req.body.is_empty());
    }

    #[test]
    fn decodes_percent_escapes() {
        let req = parse("GET /x?a=one%20two&b=1%2C2 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("a"), Some("one two"));
        assert_eq!(req.query_param("b"), Some("1,2"));
    }

    #[test]
    fn percent_escapes_need_two_hex_digits() {
        // A signed radix parse alone would read `%+1` as byte 0x01.
        assert_eq!(percent_decode("%+1"), "% 1"); // `%` kept, `+` is a space
        assert_eq!(percent_decode("%-1"), "%-1");
        assert_eq!(percent_decode("% 1"), "% 1");
        assert_eq!(percent_decode("%4"), "%4");
        assert_eq!(percent_decode("%41"), "A");
        assert_eq!(percent_decode("%4a"), "J");
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(parse("NOT-HTTP\r\n\r\n"), Err(ParseError::Bad(_))));
        assert!(matches!(parse("GET / SPDY/99\r\n\r\n"), Err(ParseError::Bad(_))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert!(matches!(parse(&huge), Err(ParseError::Bad(_))));
        assert!(matches!(
            parse(&format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1)),
            Err(ParseError::Bad(_))
        ));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        assert!(matches!(
            parse("POST /search HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ParseError::Io(_))
        ));
    }

    #[test]
    fn expired_deadline_rejects_the_read() {
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = parse_request(Cursor::new(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec()), Some(past));
        assert!(matches!(err, Err(ParseError::Io(_))));
        let future = Instant::now() + std::time::Duration::from_secs(60);
        assert!(parse_request(
            Cursor::new(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec()),
            Some(future)
        )
        .is_ok());
    }

    #[test]
    fn responses_carry_length_close_and_custom_headers() {
        let mut out = Vec::new();
        let sent = Response::new(206, "text/plain; charset=utf-8", b"body".to_vec())
            .header("X-Offtarget-Partial", "1/8")
            .write_to(&mut out)
            .unwrap();
        assert_eq!(sent, out.len() as u64);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 206 Partial Content\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Offtarget-Partial: 1/8\r\n"));
        assert!(text.ends_with("\r\n\r\nbody"));
    }
}
