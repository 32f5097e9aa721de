//! Minimal HTTP/1.1 framing over blocking sockets — hand-rolled like the
//! vendored shims, because the workspace takes no external dependencies.
//!
//! Only what `pt-serve` and the load generator need: request parsing with
//! `Content-Length` bodies, plain responses and chunked response heads
//! (the chunks themselves are framed by [`crate::sink`]), and a
//! client-side response reader. No TLS, no compression, no trailers, no
//! HTTP/2. Keep-alive is supported (HTTP/1.1 default) so one connection
//! can carry a whole load-generation session.

use std::io::{self, BufRead, Read, Write};

/// Largest request body accepted, a backstop against hostile
/// `Content-Length` headers (view specs and deltas are small).
pub const MAX_BODY: usize = 8 << 20;

/// Largest header section accepted.
const MAX_HEADER_LINE: usize = 64 << 10;

/// One parsed request: the line, the headers, and the body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// The path with the query string split off, e.g. `/views/tau1`.
    pub path: String,
    /// Decoded `?key=value` pairs, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of a query parameter.
    pub fn query(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The path split on `/`, empty segments dropped: `/tenants/a/delta`
    /// becomes `["tenants", "a", "delta"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be parsed (the server answers 400 and drops the
/// connection — framing is gone at that point).
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed before a request line arrived — a clean end of a
    /// keep-alive connection, not an error.
    Eof,
    /// An I/O error mid-request.
    Io(io::Error),
    /// The bytes were not an HTTP/1.x request we understand.
    Malformed(String),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

fn read_line(reader: &mut impl BufRead) -> Result<String, RequestError> {
    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(MAX_HEADER_LINE as u64)
        .read_line(&mut line)?;
    if n == 0 {
        return Err(RequestError::Eof);
    }
    if !line.ends_with('\n') {
        return Err(RequestError::Malformed("header line too long".to_string()));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Parse one request off the stream. `Err(RequestError::Eof)` is the clean
/// end of a keep-alive connection. A `100-continue` expectation is honored
/// here (the interim response goes out on `write`) so curl uploads work.
pub fn read_request<S: BufRead + Write>(stream: &mut S) -> Result<Request, RequestError> {
    let line = read_line(stream)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::Malformed(format!("bad request line: {line}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!("bad version: {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    let mut headers = Vec::new();
    loop {
        let line = match read_line(stream) {
            Ok(l) => l,
            Err(RequestError::Eof) => {
                return Err(RequestError::Malformed("truncated headers".to_string()))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("bad header: {line}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| RequestError::Malformed(format!("bad content-length: {v}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(RequestError::Malformed(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY}-byte cap"
        )));
    }
    if headers
        .iter()
        .any(|(n, v)| n == "expect" && v.eq_ignore_ascii_case("100-continue"))
    {
        stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        stream.flush()?;
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// Split `a=1&b=2` into pairs; `%xx` escapes and `+` decode in values.
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = [bytes[i + 1], bytes[i + 2]];
                match std::str::from_utf8(&hex)
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The header section of a response, as bytes: `Content-Length: n` when
/// `length` is `Some(n)`, `Transfer-Encoding: chunked` when it is `None`.
/// Extra headers are emitted verbatim.
fn head(
    status: u16,
    content_type: &str,
    length: Option<usize>,
    extra_headers: &[(String, String)],
) -> Vec<u8> {
    let mut head = Vec::with_capacity(128);
    let _ = write!(
        head,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n",
        reason(status)
    );
    match length {
        Some(n) => {
            let _ = write!(head, "Content-Length: {n}\r\n");
        }
        None => head.extend_from_slice(b"Transfer-Encoding: chunked\r\n"),
    }
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.extend_from_slice(b"\r\n");
    head
}

/// Write a complete plain (`Content-Length`-framed) response, head and
/// body in one write. Extra headers are emitted verbatim.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut out = head(status, content_type, Some(body.len()), extra_headers);
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// The header section of a chunked response, as bytes. The body follows
/// as chunks: hand the head to [`crate::sink::ChunkedXmlSink::with_head`],
/// which sends it in the same write as the first chunk.
pub fn chunked_head(
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
) -> Vec<u8> {
    head(status, content_type, None, extra_headers)
}

/// A client-side response: status, headers, de-chunked body. Used by the
/// load generator and the integration tests.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// The first value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one response off the stream (skipping interim `1xx` responses),
/// de-chunking a chunked body.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, RequestError> {
    loop {
        let line = read_line(reader)?;
        let mut parts = line.split_whitespace();
        let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
            return Err(RequestError::Malformed(format!("bad status line: {line}")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(RequestError::Malformed(format!("bad version: {version}")));
        }
        let status: u16 = code
            .parse()
            .map_err(|_| RequestError::Malformed(format!("bad status: {code}")))?;
        let mut headers = Vec::new();
        loop {
            let line = read_line(reader)?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        if (100..200).contains(&status) {
            continue; // interim; the real response follows
        }
        let chunked = headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        let body = if chunked {
            let mut body = Vec::new();
            loop {
                let size_line = read_line(reader)?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| RequestError::Malformed(format!("bad chunk size: {size_line}")))?;
                if size == 0 {
                    // consume the trailing CRLF after the last chunk
                    let _ = read_line(reader);
                    break;
                }
                let mut chunk = vec![0u8; size];
                reader.read_exact(&mut chunk)?;
                body.extend_from_slice(&chunk);
                let mut crlf = [0u8; 2];
                reader.read_exact(&mut crlf)?;
            }
            body
        } else {
            let len = headers
                .iter()
                .find(|(n, _)| n == "content-length")
                .and_then(|(_, v)| v.parse::<usize>().ok())
                .unwrap_or(0);
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        };
        return Ok(Response {
            status,
            headers,
            body,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::ChunkedXmlSink;
    use pt_xmltree::{Tree, XmlWriter};
    use std::io::Cursor;

    /// A loopback stream: reads from a canned buffer, writes to a sink.
    struct Loopback {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl BufRead for Loopback {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.input.fill_buf()
        }
        fn consume(&mut self, amt: usize) {
            self.input.consume(amt)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn canned(bytes: &[u8]) -> Loopback {
        Loopback {
            input: Cursor::new(bytes.to_vec()),
            output: Vec::new(),
        }
    }

    #[test]
    fn parses_request_with_query_and_body() {
        let mut s = canned(
            b"POST /tenants/acme/delta?threads=4&max_nodes=100 HTTP/1.1\r\n\
              Host: x\r\nContent-Length: 5\r\n\r\nhello",
        );
        let req = read_request(&mut s).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/tenants/acme/delta");
        assert_eq!(req.segments(), vec!["tenants", "acme", "delta"]);
        assert_eq!(req.query("threads"), Some("4"));
        assert_eq!(req.query("max_nodes"), Some("100"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_not_an_error_shape() {
        let mut s = canned(b"");
        assert!(matches!(read_request(&mut s), Err(RequestError::Eof)));
    }

    #[test]
    fn expect_continue_gets_the_interim_response() {
        let mut s =
            canned(b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok");
        let req = read_request(&mut s).unwrap();
        assert_eq!(req.body, b"ok");
        assert!(s.output.starts_with(b"HTTP/1.1 100 Continue"));
    }

    #[test]
    fn response_round_trips_plain_and_chunked() {
        // plain
        let mut out = Vec::new();
        write_response(&mut out, 404, "text/plain", &[], b"missing").unwrap();
        let resp = read_response(&mut Cursor::new(out)).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.header("content-length"), Some("7"));
        assert_eq!(resp.body, b"missing");
        // chunked, through the sink that frames the server's documents
        let doc = Tree::node("db", vec![Tree::leaf("course")]);
        let mut xml = XmlWriter::new();
        assert!(doc.stream_to(&mut xml));
        let head = chunked_head(
            200,
            "application/xml",
            &[("X-Db-Version".to_string(), "3".to_string())],
        );
        let mut out = Vec::new();
        let mut sink = ChunkedXmlSink::with_head(&mut out, head);
        assert!(doc.stream_to(&mut sink));
        sink.finish().unwrap();
        let resp = read_response(&mut Cursor::new(out)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
        assert_eq!(resp.header("x-db-version"), Some("3"));
        assert_eq!(resp.body, xml.into_string().into_bytes());
    }

    #[test]
    fn percent_decoding_covers_query_values() {
        let mut s = canned(b"GET /v?name=a%20b+c&flag HTTP/1.1\r\n\r\n");
        let req = read_request(&mut s).unwrap();
        assert_eq!(req.query("name"), Some("a b c"));
        assert_eq!(req.query("flag"), Some(""));
    }
}
