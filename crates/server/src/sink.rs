//! The socket sink: an [`XmlEventSink`] adapter that renders events with
//! [`XmlWriter`] and forwards the text over a socket as HTTP/1.1 chunks —
//! no tree, no intermediate document string. Memory is the writer's tag
//! arena (one string holding the open-element path) plus its text buffer
//! and one frame buffer, each at most about one chunk — never the
//! (possibly exponential) unfolding.
//!
//! Every chunk leaves in a single `write`: the writer renders into its own
//! buffer, and once that holds [`CHUNK_SIZE`] bytes the sink frames it as
//! `<hex>\r\n data \r\n` into the reused frame buffer and sends it. The
//! response head (see [`crate::http::chunked_head`]) rides in the same
//! write as the first chunk, and the terminating `0\r\n\r\n` in the same
//! write as the last, so a document under one chunk leaves as one write.
//!
//! A write failure means the client went away mid-stream: the sink
//! refuses the event, which truncates the producer's walk immediately
//! (the run's shared memo is untouched — only this response stops), and
//! [`ChunkedXmlSink::stop`] reports the structured
//! [`StreamStop::ClientDisconnect`] reason. Composed under
//! [`pt_xmltree::Guarded`], the guard's own budget trips surface as
//! [`StreamStop::Events`] / [`StreamStop::Depth`] instead.

use std::io::Write;

use pt_xmltree::{TruncationReason, XmlEvent, XmlEventSink, XmlWriter};

/// Bytes buffered before a chunk goes out. Small enough to start the
/// response promptly, large enough to keep syscalls off the hot path.
pub const CHUNK_SIZE: usize = 8 * 1024;

/// Why a streamed response stopped before the document completed — the
/// server-side refinement of [`TruncationReason`] that distinguishes the
/// client hanging up from a budget trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamStop {
    /// The event-count budget tripped.
    Events,
    /// The depth budget tripped.
    Depth,
    /// The peer closed (or broke) the connection mid-stream.
    ClientDisconnect,
    /// The writer saw a malformed event stream (a producer bug).
    Malformed,
}

impl std::fmt::Display for StreamStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamStop::Events => write!(f, "event limit"),
            StreamStop::Depth => write!(f, "depth limit"),
            StreamStop::ClientDisconnect => write!(f, "client disconnect"),
            StreamStop::Malformed => write!(f, "malformed event stream"),
        }
    }
}

/// The adapter: events in, HTTP chunks out.
pub struct ChunkedXmlSink<W: Write> {
    writer: XmlWriter,
    out: W,
    /// The bytes of the next write: the response head until the first
    /// chunk goes out, then one framed chunk at a time.
    frame: Vec<u8>,
    stop: Option<StreamStop>,
}

impl<W: Write> ChunkedXmlSink<W> {
    /// Stream chunks to `out` (the response head must already be written,
    /// with `Transfer-Encoding: chunked`).
    pub fn new(out: W) -> Self {
        ChunkedXmlSink::with_head(out, Vec::new())
    }

    /// Stream chunks to `out`, sending `head` — a response head announcing
    /// `Transfer-Encoding: chunked`, as built by
    /// [`crate::http::chunked_head`] — in the same write as the first
    /// chunk.
    pub fn with_head(out: W, head: Vec<u8>) -> Self {
        let mut frame = head;
        // hex length, two CRLFs and the terminator around one chunk
        frame.reserve(CHUNK_SIZE + 32);
        ChunkedXmlSink {
            writer: XmlWriter::new(),
            out,
            frame,
            stop: None,
        }
    }

    /// Why the stream stopped early, if it did.
    pub fn stop(&self) -> Option<StreamStop> {
        self.stop
    }

    /// Lift a [`Guarded`] wrapper's verdict over this sink into the
    /// server-side reason: the guard's own trips win, an inner refusal is
    /// whatever this sink recorded.
    ///
    /// [`Guarded`]: pt_xmltree::Guarded
    pub fn stop_reason(&self, guard: Option<TruncationReason>) -> Option<StreamStop> {
        match guard {
            Some(TruncationReason::Events) => Some(StreamStop::Events),
            Some(TruncationReason::Depth) => Some(StreamStop::Depth),
            Some(TruncationReason::Inner) | None => self.stop,
        }
    }

    /// Move the writer's text into the frame as one chunk, keeping the
    /// writer's buffer for the next one.
    fn frame_chunk(&mut self) {
        let data = self.writer.as_str().as_bytes();
        if data.is_empty() {
            return;
        }
        let _ = write!(self.frame, "{:x}\r\n", data.len());
        self.frame.extend_from_slice(data);
        self.frame.extend_from_slice(b"\r\n");
        self.writer.clear();
    }

    /// Flush the remaining text and terminate the chunked body, in one
    /// write. Call once the producer is done (not after a disconnect —
    /// framing is gone).
    pub fn finish(mut self) -> std::io::Result<()> {
        self.frame_chunk();
        self.frame.extend_from_slice(b"0\r\n\r\n");
        self.out.write_all(&self.frame)?;
        self.out.flush()
    }
}

impl<W: Write> XmlEventSink for ChunkedXmlSink<W> {
    fn event(&mut self, ev: XmlEvent<'_>) -> bool {
        if self.stop.is_some() {
            return false;
        }
        if !self.writer.event(ev) {
            self.stop = Some(StreamStop::Malformed);
            return false;
        }
        if self.writer.as_str().len() < CHUNK_SIZE {
            return true;
        }
        self.frame_chunk();
        let sent = self.out.write_all(&self.frame).is_ok();
        self.frame.clear();
        if !sent {
            self.stop = Some(StreamStop::ClientDisconnect);
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_xmltree::{Guarded, Tree};

    fn sample() -> Tree {
        Tree::node(
            "db",
            vec![Tree::node(
                "course",
                vec![Tree::node("cno", vec![Tree::text_node("c1")])],
            )],
        )
    }

    fn dechunk(raw: &[u8]) -> Vec<u8> {
        let mut cursor = std::io::Cursor::new(raw);
        let mut body = Vec::new();
        use std::io::{BufRead, Read};
        loop {
            let mut line = String::new();
            cursor.read_line(&mut line).unwrap();
            let size = usize::from_str_radix(line.trim(), 16).unwrap();
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size];
            cursor.read_exact(&mut chunk).unwrap();
            body.extend_from_slice(&chunk);
            let mut crlf = [0u8; 2];
            cursor.read_exact(&mut crlf).unwrap();
        }
        body
    }

    fn xml(t: &Tree) -> Vec<u8> {
        let mut w = XmlWriter::new();
        assert!(t.stream_to(&mut w));
        w.into_string().into_bytes()
    }

    /// A document of about 80 KiB: ten chunks.
    fn wide() -> Tree {
        Tree::node(
            "db",
            (0..4000)
                .map(|i| Tree::node("item", vec![Tree::text_node(format!("value-{i}"))]))
                .collect(),
        )
    }

    /// Records every `write` call separately.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The framing as it was when each event's text was drained with
    /// `take()` into a separate buffer, and each chunk and the terminator
    /// were separate writes: the byte-level reference for `new`.
    struct TakeAndCopy {
        writer: XmlWriter,
        buf: Vec<u8>,
        out: Vec<u8>,
    }

    impl TakeAndCopy {
        fn flush(&mut self) {
            if !self.buf.is_empty() {
                self.out
                    .extend_from_slice(format!("{:x}\r\n", self.buf.len()).as_bytes());
                self.out.extend_from_slice(&self.buf);
                self.out.extend_from_slice(b"\r\n");
                self.buf.clear();
            }
        }
    }

    impl XmlEventSink for TakeAndCopy {
        fn event(&mut self, ev: XmlEvent<'_>) -> bool {
            assert!(self.writer.event(ev));
            self.buf.extend_from_slice(self.writer.take().as_bytes());
            if self.buf.len() >= CHUNK_SIZE {
                self.flush();
            }
            true
        }
    }

    fn take_and_copy(t: &Tree) -> Vec<u8> {
        let mut r = TakeAndCopy {
            writer: XmlWriter::new(),
            buf: Vec::new(),
            out: Vec::new(),
        };
        assert!(t.stream_to(&mut r));
        r.flush();
        r.out.extend_from_slice(b"0\r\n\r\n");
        r.out
    }

    #[test]
    fn chunked_body_is_byte_identical_to_xml_writer() {
        for t in [sample(), wide()] {
            let mut raw = Vec::new();
            let mut sink = ChunkedXmlSink::new(&mut raw);
            assert!(t.stream_to(&mut sink));
            assert_eq!(sink.stop(), None);
            sink.finish().unwrap();
            assert_eq!(dechunk(&raw), xml(&t));
            // without a head the bytes are those of the take-and-copy sink
            assert_eq!(raw, take_and_copy(&t));
        }
    }

    const HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";

    #[test]
    fn a_small_document_with_its_head_is_one_write() {
        let t = sample();
        let mut rec = Recorder::default();
        let mut sink = ChunkedXmlSink::with_head(&mut rec, HEAD.to_vec());
        assert!(t.stream_to(&mut sink));
        sink.finish().unwrap();
        assert_eq!(rec.writes.len(), 1, "head, chunk and terminator together");
        let only = &rec.writes[0];
        assert!(only.starts_with(HEAD));
        assert!(only.ends_with(b"\r\n0\r\n\r\n"));
        assert_eq!(dechunk(&only[HEAD.len()..]), xml(&t));
        // a client already gone fails that one write
        let sink = ChunkedXmlSink::with_head(FlakyWriter { remaining: 0 }, HEAD.to_vec());
        assert!(sink.finish().is_err());
    }

    #[test]
    fn a_large_document_takes_one_write_per_chunk() {
        let t = wide();
        let mut rec = Recorder::default();
        let mut sink = ChunkedXmlSink::with_head(&mut rec, HEAD.to_vec());
        assert!(t.stream_to(&mut sink));
        sink.finish().unwrap();
        let (last, chunks) = rec.writes.split_last().unwrap();
        assert!(chunks.len() >= 9, "{} writes", rec.writes.len());
        // the head rides with the first chunk
        assert!(chunks[0].starts_with(HEAD));
        let mut body = Vec::new();
        for (i, w) in chunks.iter().enumerate() {
            let w = if i == 0 { &w[HEAD.len()..] } else { &w[..] };
            // exactly one full chunk per write: size line, data, CRLF
            let line = w.iter().position(|&b| b == b'\n').unwrap() + 1;
            let size = usize::from_str_radix(std::str::from_utf8(&w[..line - 2]).unwrap(), 16);
            let size = size.unwrap();
            assert!(size >= CHUNK_SIZE, "write {i}: a short chunk of {size}");
            assert_eq!(w.len(), line + size + 2, "write {i}: one chunk");
            body.extend_from_slice(&w[line..line + size]);
        }
        // the final write carries the rest and the terminator
        assert!(last.ends_with(b"0\r\n\r\n"));
        body.extend_from_slice(&dechunk(last));
        assert_eq!(body, xml(&t));
    }

    /// A writer that fails after `n` bytes — a client that hung up.
    struct FlakyWriter {
        remaining: usize,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.remaining {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "peer gone",
                ));
            }
            self.remaining -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disconnect_truncates_with_the_structured_reason() {
        // a document large enough to cross the chunk threshold mid-stream
        let wide = wide();
        let mut sink = ChunkedXmlSink::new(FlakyWriter { remaining: 64 });
        let mut guarded = Guarded::new(sink, usize::MAX, usize::MAX);
        assert!(!wide.stream_to(&mut guarded));
        assert_eq!(guarded.truncation_reason(), Some(TruncationReason::Inner));
        sink = guarded.into_inner();
        assert_eq!(
            sink.stop_reason(Some(TruncationReason::Inner)),
            Some(StreamStop::ClientDisconnect)
        );
        // the guard's own budget reads as an event trip instead
        let mut g = Guarded::new(ChunkedXmlSink::new(Vec::new()), 3, usize::MAX);
        assert!(!wide.stream_to(&mut g));
        let reason = g.truncation_reason();
        let inner = g.into_inner();
        assert_eq!(inner.stop_reason(reason), Some(StreamStop::Events));
    }
}
