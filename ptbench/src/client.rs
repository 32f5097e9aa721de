//! A keep-alive HTTP/1.1 client over `pt_server::http`'s response reader,
//! and the request bytes it sends.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use pt_server::http::{self, RequestError, Response};

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: ptbench\r\n\r\n").into_bytes()
}

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: ptbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn { addr, w, r })
    }

    /// Send one request and read its whole response (the body de-chunked).
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        self.w.write_all(request)?;
        http::read_response(&mut self.r).map_err(|e| match e {
            RequestError::Io(e) => e,
            other => io::Error::other(format!("{other:?}")),
        })
    }

    /// Replace a connection the server dropped.
    pub fn reopen(&mut self) -> io::Result<()> {
        *self = Conn::open(self.addr)?;
        Ok(())
    }
}

/// [`http::read_request`] over recorded request bytes: the server's
/// request-parsing layer, run in-process.
pub fn parse_request(bytes: &[u8]) -> http::Request {
    struct Replay<'a>(&'a [u8]);
    impl Read for Replay<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }
    impl BufRead for Replay<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(self.0)
        }
        fn consume(&mut self, n: usize) {
            self.0 = &self.0[n..];
        }
    }
    impl Write for Replay<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    http::read_request(&mut Replay(bytes)).expect("recorded requests are well formed")
}

/// A nonnegative integer field of a flat JSON object such as the delta ack.
pub fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_requests_parse_back() {
        let req = parse_request(&post("/tenants/a/delta", "insert r 1\n"));
        assert_eq!(req.method, "POST");
        assert_eq!(req.segments(), ["tenants", "a", "delta"]);
        assert_eq!(req.body, b"insert r 1\n");
        assert_eq!(parse_request(&get("/x?y=1")).query("y"), Some("1"));
    }

    #[test]
    fn ack_fields_are_read() {
        let ack = br#"{"version":3,"tuples_inserted":1,"memo_entries_evicted":767}"#;
        assert_eq!(json_u64(ack, "tuples_inserted"), Some(1));
        assert_eq!(json_u64(ack, "memo_entries_evicted"), Some(767));
        assert_eq!(json_u64(ack, "missing"), None);
    }
}
