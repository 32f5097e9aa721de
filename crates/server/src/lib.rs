//! `pt-serve`: a production serving layer over the publishing-transducer
//! engine — a hand-rolled HTTP/1.1 server (no dependencies beyond the
//! workspace) with multi-tenant engines, a bounded prepared-plan cache,
//! and streamed chunked-XML responses that never materialize the output
//! document.
//!
//! The pieces:
//!
//! - [`http`] — minimal HTTP/1.1 framing: request parsing (keep-alive,
//!   `Expect: 100-continue`, bounded bodies), `Content-Length` responses
//!   and chunked response heads, each sent in one write, and a
//!   client-side response reader for the harness and tests.
//! - [`spec`] — the line-oriented wire formats: view specs (schema +
//!   rules + optional DTD) and deltas (insert/retract rows).
//! - [`sink`] — [`sink::ChunkedXmlSink`], the [`pt_xmltree::XmlEventSink`]
//!   that renders events straight into HTTP chunks on the socket (one
//!   write per chunk, the head riding with the first), and the
//!   structured [`sink::StreamStop`] reason (budget trip vs client
//!   disconnect).
//! - [`server`] — [`server::Server`]: tenants, the LRU plan cache,
//!   routing with structured error → status mapping, bounded-queue
//!   backpressure, and graceful shutdown.
//! - [`load`] — the throughput harness: concurrent keep-alive clients,
//!   mixed read/write workloads, p50/p99/req-per-s reporting.
//!
//! The `pt-serve` binary wires [`server::Server`] to flags and SIGTERM;
//! the `load-gen` binary self-hosts a server over the registrar example
//! and measures it. See the workspace README's Serving section for the
//! curl walkthrough.

pub mod http;
pub mod load;
pub mod server;
pub mod sink;
pub mod spec;

pub use load::{call_once, run_load, LoadOptions, LoadReport};
pub use server::{Server, ServerConfig};
pub use sink::{ChunkedXmlSink, StreamStop};
pub use spec::{parse_delta, parse_view_spec, ViewSpec};
