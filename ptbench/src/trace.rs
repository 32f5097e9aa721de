//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into a layer (spans inside the program are out of scope here). Every
//! span carries its operation id and its parent; all of them stay in memory
//! and are written out as JSON lines when the run ends.
//!
//! One operation is one root span plus child spans of two kinds:
//!
//! - a *stage* is a call that does, in-process, the work the measured
//!   operation paid for (the server's parse, run and chunked streaming,
//!   replayed on the oracle mirror; or the cold publish's own steps);
//! - a *probe* is an extra call that isolates one layer, such as streaming
//!   the same result into a `CountingSink`.
//!
//! A layer's self time is its span minus the spans it contains:
//! `stream.serialize` is the `XmlWriter` pass minus the replay pass,
//! `sink.chunked` the chunked pass minus the `XmlWriter` pass, and
//! `http.socket` the operation's latency minus all its stages — the socket
//! and framing on HTTP workloads, the unattributed rest in-process.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    op: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans and per-layer self-time samples (milliseconds), those of
/// set-up calls apart from those of the measured loop.
pub struct Tracer {
    t0: Instant,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<BTreeMap<(Phase, &'static str), Vec<f64>>>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Loop,
    SetUp,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(BTreeMap::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Start an operation of the measured loop; its root span opens now.
    pub fn op(&self, name: &'static str) -> Op<'_> {
        self.op_in(Phase::Loop, name)
    }

    fn op_in(&self, phase: Phase, name: &'static str) -> Op<'_> {
        Op {
            tracer: self,
            phase,
            id: self.next_op.fetch_add(1, Ordering::Relaxed),
            name,
            start: Instant::now(),
            latency_ms: None,
            children: Vec::new(),
        }
    }

    /// One self-contained call of the measured loop (an `eval` probe),
    /// traced as its own operation: the layer's sample is its duration.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let mut op = self.op(name);
        let out = op.probe(name, f);
        op.finish();
        out
    }

    /// [`Tracer::call`] for a set-up call.
    pub fn setup_call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let mut op = self.op_in(Phase::SetUp, name);
        let out = op.probe(name, f);
        op.finish();
        out
    }

    /// A sample computed outside a span (a ratio, a count).
    pub fn sample(&self, layer: &'static str, value: f64) {
        let mut s = self.samples.lock().expect("trace samples lock");
        s.entry((Phase::Loop, layer)).or_default().push(value);
    }

    /// A layer's samples from the measured loop or, for a layer the loop
    /// never entered, from the set-up calls.
    pub fn samples(&self, layer: &str) -> Vec<f64> {
        let s = self.samples.lock().expect("trace samples lock");
        [Phase::Loop, Phase::SetUp]
            .iter()
            .find_map(|&phase| s.get(&(phase, layer)))
            .cloned()
            .unwrap_or_default()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("trace spans lock");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

struct Child {
    name: &'static str,
    stage: bool,
    start: Instant,
    end: Instant,
}

impl Child {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// An operation being traced.
pub struct Op<'t> {
    tracer: &'t Tracer,
    phase: Phase,
    id: u64,
    name: &'static str,
    start: Instant,
    latency_ms: Option<f64>,
    children: Vec<Child>,
}

impl Op<'_> {
    fn child<T>(&mut self, name: &'static str, stage: bool, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.children.push(Child {
            name,
            stage,
            start,
            end,
        });
        out
    }

    /// A call that does part of the operation's measured work.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.child(name, true, f)
    }

    /// An extra call that isolates one layer.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.child(name, false, f)
    }

    /// The latency the client observed for this operation.
    pub fn latency(&mut self, ms: f64) {
        self.latency_ms = Some(ms);
    }

    /// Total duration of the child spans named `name`, milliseconds.
    pub fn ms(&self, name: &str) -> Option<f64> {
        let mut spans = self.children.iter().filter(|c| c.name == name).peekable();
        spans.peek()?;
        Some(spans.map(Child::ms).sum())
    }

    /// Close the root span, store the spans, and add each layer's self
    /// time to the samples.
    pub fn finish(self) {
        let end = Instant::now();
        let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for c in &self.children {
            *layer.entry(c.name).or_default() += c.ms();
        }
        // a pass that contains another loses that pass's whole duration
        for (outer, inner) in [
            ("sink.chunked", "stream.serialize"),
            ("stream.serialize", "stream.replay"),
        ] {
            if let (Some(o), Some(i)) = (layer.get(outer).copied(), self.ms(inner)) {
                layer.insert(outer, o - i);
            }
        }
        if let Some(lat) = self.latency_ms {
            let staged: f64 = self
                .children
                .iter()
                .filter(|c| c.stage)
                .map(Child::ms)
                .sum();
            layer.insert("http.socket", lat - staged);
        }
        {
            let mut samples = self.tracer.samples.lock().expect("trace samples lock");
            for (name, ms) in layer {
                samples.entry((self.phase, name)).or_default().push(ms);
            }
        }
        let mut spans = self.tracer.spans.lock().expect("trace spans lock");
        let root = spans.len();
        spans.push(Span {
            op: self.id,
            parent: None,
            name: self.name,
            start_ns: self.tracer.ns(self.start),
            end_ns: self.tracer.ns(end),
        });
        for c in &self.children {
            spans.push(Span {
                op: self.id,
                parent: Some(root),
                name: c.name,
                start_ns: self.tracer.ns(c.start),
                end_ns: self.tracer.ns(c.end),
            });
        }
    }
}

/// [`Op::stage`] when the operation is traced, the bare call otherwise.
pub fn stage<T>(op: &mut Option<Op<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match op {
        Some(o) => o.stage(name, f),
        None => f(),
    }
}
