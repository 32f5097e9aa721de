//! `ptbench`: the end-to-end and per-layer benchmark of `pt-serve` and the
//! publishing engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path ptbench/Cargo.toml -- \
//!     --workload read_hot|write_refresh|cold_publish --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run builds its inputs from the seed, computes the expected output
//! of every operation on an in-process oracle mirror before timing starts,
//! sets up the system several times (the median is `setup_s`), then runs a
//! closed loop for `--seconds` and checks every response. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). The lines before it are a readable report. The
//! exit code is 0 only when every output matched its oracle and every
//! deterministic counter repeated. See `README.md` for the workloads and
//! the metric definitions.

mod client;
mod cold;
mod gen;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pt_core::RunResult;
use pt_logic::{Formula, Var};
use pt_relational::Instance;
use pt_xmltree::XmlWriter;

use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Alternating untraced/traced slices of a `--trace 1` run, in seconds:
/// interleaving the two keeps host drift out of `trace.overhead_frac`.
const TRACE_SLICE_S: f64 = 2.0;

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Deterministic counters of one operation kind. Every occurrence of a
/// kind must repeat them exactly, and so must a second run with the same
/// seed and the same program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Memo misses (configuration expansions) of the read.
    pub expansions: u64,
    /// Memo entries the write evicted.
    pub evicted: u64,
    /// Relations the write re-sorted.
    pub resorted: u64,
    /// Registers the write and its read interned.
    pub registers: u64,
    /// SAX events of the document.
    pub events: u64,
    /// Bytes of the serialized document.
    pub bytes: u64,
    /// Nodes of the unfolded result tree ξ.
    pub xi_nodes: u64,
    /// Distinct nodes of the result DAG.
    pub distinct: u64,
}

impl Counts {
    /// The document counters of a finished run.
    pub fn of_document(result: &RunResult, events: usize, bytes: usize) -> Counts {
        let mut distinct = 0u64;
        result.result_tree().visit_distinct(&mut |_| distinct += 1);
        Counts {
            events: events as u64,
            bytes: bytes as u64,
            xi_nodes: result.size() as u64,
            distinct,
            ..Counts::default()
        }
    }

    fn line(&self) -> String {
        format!(
            "expansions={} evicted={} resorted={} registers={} events={} bytes={} xi_nodes={} distinct={}",
            self.expansions,
            self.evicted,
            self.resorted,
            self.registers,
            self.events,
            self.bytes,
            self.xi_nodes,
            self.distinct
        )
    }
}

/// A rendered document and its counters.
pub struct Doc {
    pub xml: Vec<u8>,
    pub counts: Counts,
}

impl Doc {
    pub fn render(result: &RunResult) -> Doc {
        let mut w = XmlWriter::new();
        let summary = result.stream_output(&mut w);
        let xml = w.into_string().into_bytes();
        let counts = Counts::of_document(result, summary.events, xml.len());
        Doc { xml, counts }
    }
}

/// Shared state of one run: the checks, the counters, the host
/// calibration samples and, in a traced run, the tracer.
pub struct Run {
    pub p: Params,
    pub tracer: Option<Tracer>,
    start: Mutex<Option<Instant>>,
    attempted: AtomicU64,
    failed: AtomicU64,
    errors: Mutex<Vec<String>>,
    counts: Mutex<BTreeMap<String, Counts>>,
    calib: Mutex<Vec<f64>>,
    /// Operations finished, and their total nanoseconds, in untraced and
    /// traced slices.
    slice_ops: [AtomicU64; 2],
    slice_ns: [AtomicU64; 2],
}

impl Run {
    fn new(p: Params) -> Run {
        Run {
            tracer: p.trace.then(Tracer::new),
            p,
            start: Mutex::new(None),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
            calib: Mutex::new(Vec::new()),
            slice_ops: [AtomicU64::new(0), AtomicU64::new(0)],
            slice_ns: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Count one checked operation; `false` counts it as failed.
    pub fn check(&self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut errors = self.errors.lock().expect("errors lock");
            if errors.len() < 8 {
                errors.push(why());
            }
        }
        ok
    }

    /// Record the counters of one operation of `kind`; a kind whose
    /// counters differ from its first occurrence is a failure.
    pub fn counts(&self, kind: &str, c: Counts) -> bool {
        let mut map = self.counts.lock().expect("counts lock");
        match map.get(kind) {
            None => {
                map.insert(kind.to_string(), c);
                true
            }
            Some(first) if *first == c => true,
            Some(first) => {
                let msg = format!(
                    "{kind}: counters changed: {} then {}",
                    first.line(),
                    c.line()
                );
                drop(map);
                self.check(false, || msg)
            }
        }
    }

    /// One sample of the fixed host-speed loop.
    pub fn calibrate(&self) {
        let t = Instant::now();
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for i in 0..400_000u64 {
            x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        }
        black_box(x);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.calib.lock().expect("calib lock").push(ms);
    }

    /// Mark the start of the measured loop; returns its deadline.
    pub fn begin(&self) -> Instant {
        let now = Instant::now();
        *self.start.lock().expect("start lock") = Some(now);
        now + std::time::Duration::from_secs_f64(self.p.seconds)
    }

    /// Whether an operation starting now falls in a traced slice.
    pub fn traced_now(&self) -> bool {
        let Some(start) = *self.start.lock().expect("start lock") else {
            return false;
        };
        self.tracer.is_some() && (start.elapsed().as_secs_f64() / TRACE_SLICE_S) as u64 % 2 == 1
    }

    /// Count an operation that started at `t` toward its slice.
    pub fn slice_done(&self, traced: bool, t: Instant) {
        self.slice_ops[traced as usize].fetch_add(1, Ordering::Relaxed);
        self.slice_ns[traced as usize].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// How much longer an operation took in traced slices than in
    /// untraced ones.
    fn overhead_frac(&self) -> f64 {
        let mean = |i: usize| {
            self.slice_ns[i].load(Ordering::Relaxed) as f64
                / self.slice_ops[i].load(Ordering::Relaxed).max(1) as f64
        };
        mean(1) / mean(0) - 1.0
    }

    /// Time `f` as a set-up call of `layer` when tracing.
    pub fn call<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => t.setup_call(layer, f),
            None => f(),
        }
    }
}

/// `eval_to_relation` probes: the closure formula and the register-free
/// root queries of a workload's views, on one of its databases.
pub struct EvalProbe {
    instance: Arc<Instance>,
    fixpoint: Vec<(Formula, Vec<Var>)>,
    roots: Vec<(Formula, Vec<Var>)>,
}

impl EvalProbe {
    pub fn new(instance: Arc<Instance>, views: &[gen::View]) -> EvalProbe {
        let (mut fixpoint, mut roots) = (Vec::new(), Vec::new());
        for v in views {
            let q = pt_logic::parse_query(v.root_query()).expect("root query parses");
            let entry = (q.body().clone(), q.head_vars());
            if v.has_fixpoint() {
                fixpoint.push(entry);
            } else {
                roots.push(entry);
            }
        }
        EvalProbe {
            instance,
            fixpoint,
            roots,
        }
    }

    pub fn run(&self, tracer: &Tracer) {
        let eval = |qs: &[(Formula, Vec<Var>)]| {
            for (f, vars) in qs {
                let rel = pt_logic::eval::eval_to_relation(&self.instance, None, f, vars)
                    .expect("probe query evaluates");
                black_box(rel.len());
            }
        };
        if !self.fixpoint.is_empty() {
            tracer.call("eval.fixpoint", || eval(&self.fixpoint));
        }
        if !self.roots.is_empty() {
            tracer.call("eval.root_query", || eval(&self.roots));
        }
    }
}

/// What a workload measured, besides what [`Run`] collected.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub reads_per_s: f64,
    /// Further figures for the readable report: name, value, unit.
    pub report: Vec<(String, f64, &'static str)>,
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated quantile; 0 for no samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// FNV-1a over the running executable: counts recorded by one build are
/// only ever compared with counts of the same build.
fn build_id() -> String {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for chunk in exe.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Compare this run's counters with those an earlier run of the same build
/// and seed wrote, or write them for the next one.
fn check_counts_repeat(run: &Run, workload: &str) {
    let text: String = run
        .counts
        .lock()
        .expect("counts lock")
        .iter()
        .map(|(k, c)| format!("{k} {}\n", c.line()))
        .collect();
    let path = out_dir().join(format!(
        "counts-{workload}-seed{}-{}.txt",
        run.p.seed,
        build_id()
    ));
    match std::fs::read_to_string(&path) {
        Ok(before) => {
            run.check(before == text, || {
                format!(
                    "counters differ from the earlier run recorded in {}",
                    path.display()
                )
            });
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(out_dir());
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("ptbench: cannot record counters in {}: {e}", path.display());
            }
        }
    }
}

/// Per-layer times: metric, unit, traced layer, scale from milliseconds,
/// and the end-to-end metric and workload it should move.
#[rustfmt::skip]
const LAYERS: &[(&str, &str, &str, f64, &str)] = &[
    ("http.parse_us", "us", "http.parse", 1e3, "read_p50_ms on read_hot"),
    ("http.socket_ms", "ms", "http.socket", 1.0, "read_p50_ms and reads_per_s on read_hot"),
    ("spec.parse_delta_us", "us", "spec.parse_delta", 1e3, "read_p50_ms on write_refresh"),
    ("spec.parse_view_ms", "ms", "spec.parse_view", 1.0, "setup_s"),
    ("sink.chunked_ms", "ms", "sink.chunked", 1.0, "read_p50_ms on read_hot"),
    ("stream.replay_ms", "ms", "stream.replay", 1.0, "read_p50_ms on read_hot"),
    ("stream.serialize_ms", "ms", "stream.serialize", 1.0, "read_p50_ms on cold_publish (tau1) and read_hot"),
    ("engine.new_ms", "ms", "engine.new", 1.0, "read_p50_ms on cold_publish"),
    ("engine.prepare_ms", "ms", "engine.prepare", 1.0, "read_p50_ms on cold_publish"),
    ("engine.apply_ms", "ms", "engine.apply", 1.0, "read_p50_ms and read_p99_ms on write_refresh"),
    ("semantics.run_ms", "ms", "semantics.run", 1.0, "read_p50_ms on cold_publish (tau2), read_p99_ms on write_refresh"),
    ("semantics.ns_per_node", "ns", "semantics.ns_per_node", 1.0, "read_p50_ms on cold_publish (tau1 vs tau2 gap)"),
    ("eval.fixpoint_ms", "ms", "eval.fixpoint", 1.0, "read_p50_ms on cold_publish (tc)"),
    ("eval.root_query_ms", "ms", "eval.root_query", 1.0, "read_p50_ms on cold_publish"),
];

/// Reads one counter of an operation kind.
type Counter = fn(&Counts) -> f64;

/// Deterministic counters, averaged over operation kinds: metric, unit,
/// the counter, and what it should move.
#[rustfmt::skip]
const COUNTERS: &[(&str, &str, Counter, &str)] = &[
    ("semantics.expansions", "count", |c| c.expansions as f64, "read_p50_ms on write_refresh; 0 on read_hot"),
    ("semantics.memo_hit_ratio", "ratio", |c| 1.0 - c.expansions as f64 / c.distinct.max(1) as f64, "read_p50_ms on write_refresh"),
    ("semantics.xi_nodes", "count", |c| c.xi_nodes as f64, "read_p50_ms on every workload"),
    ("stream.events", "count", |c| c.events as f64, "read_p50_ms on read_hot and cold_publish"),
    ("stream.bytes", "bytes", |c| c.bytes as f64, "read_p50_ms and reads_per_s on read_hot"),
    ("engine.memo_evicted", "count", |c| c.evicted as f64, "read_p50_ms and read_p99_ms on write_refresh"),
    ("engine.relations_resorted", "count", |c| c.resorted as f64, "read_p50_ms on write_refresh"),
    ("engine.registers_per_write", "count", |c| c.registers as f64, "read_p50_ms on write_refresh"),
];

fn parse_args() -> Result<(String, Params), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Params {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() {
    let (workload, params) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ptbench: {e}\nusage: ptbench --workload read_hot|write_refresh|cold_publish --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let run = Run::new(params);
    let measured = match workload.as_str() {
        "read_hot" => serve::read_hot(&run),
        "write_refresh" => serve::write_refresh(&run),
        "cold_publish" => cold::cold_publish(&run),
        other => {
            eprintln!("ptbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    check_counts_repeat(&run, &workload);

    let attempted = run.attempted.load(Ordering::Relaxed);
    let failed = run.failed.load(Ordering::Relaxed);
    let calib = run.calib.lock().expect("calib lock").clone();
    let setup_s = median(&measured.setup_s);
    println!(
        "ptbench {workload} seed={} seconds={} trace={}",
        run.p.seed, run.p.seconds, run.p.trace as u8
    );
    if run.p.trace {
        println!("  (the end-to-end figures below include the traced slices)");
    }
    let line = |name: &str, value: f64, unit: &str| println!("  {name:<28} {value:>14.4} {unit}");
    line("setup_s", setup_s, "s");
    line("read_p50_ms", measured.read_p50_ms, "ms");
    line("read_p99_ms", measured.read_p99_ms, "ms");
    line("reads_per_s", measured.reads_per_s, "1/s");
    for (name, value, unit) in &measured.report {
        line(name, *value, unit);
    }
    line(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    line("host.calib_ms", median(&calib), "ms");
    line("host.calib_p90_ms", percentile(&calib, 0.9), "ms");
    for e in run.errors.lock().expect("errors lock").iter() {
        println!("  error: {e}");
    }

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if let Some(tracer) = &run.tracer {
        println!("  per-layer (traced slices; mean per operation) -> metric it should move:");
        for (name, unit, layer, scale, moves) in LAYERS {
            let v = mean(&tracer.samples(layer)) * scale;
            println!("  {name:<28} {v:>14.4} {unit:<6} -> {moves}");
            metrics.push((name.to_string(), v, unit.to_string()));
        }
        let counts = run.counts.lock().expect("counts lock");
        for (name, unit, counter, moves) in COUNTERS {
            let v = mean(&counts.values().map(counter).collect::<Vec<f64>>());
            println!("  {name:<28} {v:>14.4} {unit:<6} -> {moves}");
            metrics.push((name.to_string(), v, unit.to_string()));
        }
        drop(counts);
        let host = median(&calib);
        let overhead = run.overhead_frac();
        println!(
            "  {:<28} {host:>14.4} {:<6} -> nothing (host drift)",
            "host.calib_ms", "ms"
        );
        println!(
            "  {:<28} {overhead:>14.4} {:<6} -> nothing (diagnostic)",
            "trace.overhead_frac", "ratio"
        );
        metrics.push(("host.calib_ms".into(), host, "ms".into()));
        metrics.push(("trace.overhead_frac".into(), overhead, "ratio".into()));
        let path = out_dir().join(format!("trace-{workload}-seed{}.jsonl", run.p.seed));
        match tracer.write(&path) {
            Ok(n) => println!("  {n} spans written to {}", path.display()),
            Err(e) => eprintln!("ptbench: cannot write spans to {}: {e}", path.display()),
        }
    } else {
        metrics.push(("setup_s".into(), setup_s, "s".into()));
        metrics.push(("read_p50_ms".into(), measured.read_p50_ms, "ms".into()));
        metrics.push(("read_p99_ms".into(), measured.read_p99_ms, "ms".into()));
        metrics.push(("reads_per_s".into(), measured.reads_per_s, "1/s".into()));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
