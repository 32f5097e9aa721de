//! `cold_publish`: the library driven in-process on one thread. Each
//! operation publishes one document from nothing warm —
//! `Engine::new → prepare_plan → run → stream_output(XmlWriter)` — taken
//! round-robin over four documents. The first pass over the four is the
//! oracle: every later document must repeat its bytes, events, ξ-nodes and
//! memo misses exactly.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pt_core::{Engine, MemoPolicy, RunResult, Transducer};
use pt_relational::Instance;
use pt_server::{spec, ChunkedXmlSink};
use pt_xmltree::{CountingSink, XmlWriter};

use crate::client;
use crate::gen::{self, DbShape, Rng, View};
use crate::trace::{self, Op};
use crate::{geomean, median, percentile, Counts, EvalProbe, Measured, Run, SETUPS};

/// One document: its view, the database, and the request that names it.
struct Document {
    view: View,
    tau: Arc<Transducer>,
    instance: Arc<Instance>,
    request: Vec<u8>,
}

/// The four documents and their database shapes.
fn shapes() -> [(View, DbShape); 4] {
    let registrar = |courses, students| DbShape {
        courses,
        segment: usize::MAX,
        students,
        chain: 0,
    };
    [
        (gen::TAU1, registrar(200, 0)),
        (gen::TAU2, registrar(80, 0)),
        (gen::ROSTER, registrar(60, 2000)),
        (
            gen::CLOSURE,
            DbShape {
                chain: 256,
                ..registrar(0, 0)
            },
        ),
    ]
}

/// The set-up calls: compile each spec, parse each database delta and
/// load it into an engine whose snapshot every publish starts from.
fn set_up(run: &Run, deltas: &[String]) -> Vec<Document> {
    shapes()
        .iter()
        .zip(deltas)
        .map(|((view, _), delta)| {
            let spec = run
                .call("spec.parse_view", || spec::parse_view_spec(view.spec))
                .expect("spec compiles");
            let parsed = run
                .call("spec.parse_delta", || spec::parse_delta(delta))
                .expect("delta parses");
            let loader = Engine::new(Instance::new());
            run.call("engine.apply", || loader.apply(&parsed))
                .expect("delta applies");
            Document {
                view: *view,
                tau: Arc::new(spec.transducer),
                instance: loader.instance(),
                request: client::get(&format!("/publish/{}", view.name)),
            }
        })
        .collect()
}

/// One cold publish; the stages are traced when `op` is. Returns the
/// result, the document text, its event count, the memo misses and the
/// latency.
fn publish(
    docs: &[Document],
    k: usize,
    op: &mut Option<Op>,
) -> (RunResult, String, usize, u64, f64) {
    let t0 = Instant::now();
    let request = trace::stage(op, "http.parse", || client::parse_request(&docs[k].request));
    let doc = &docs[k];
    assert!(
        request.path.ends_with(doc.view.name),
        "request names its document"
    );
    let engine = trace::stage(op, "engine.new", || Arc::new(Engine::new(&*doc.instance)));
    let plan = trace::stage(op, "engine.prepare", || {
        engine.prepare_plan(Arc::clone(&doc.tau), MemoPolicy::default())
    })
    .expect("view prepares");
    let result = trace::stage(op, "semantics.run", || plan.session().run()).expect("cold run");
    let (xml, events) = trace::stage(op, "stream.serialize", || {
        let mut w = XmlWriter::new();
        let summary = result.stream_output(&mut w);
        (w.into_string(), summary.events)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (
        result,
        xml,
        events,
        plan.session().memo_expansions() as u64,
        ms,
    )
}

pub fn cold_publish(run: &Run) -> Measured {
    let mut rng = Rng::new(run.p.seed);
    let deltas: Vec<String> = shapes()
        .iter()
        .map(|(_, shape)| {
            let base = gen::chain_base(&mut rng);
            gen::db_delta(*shape, base, &mut rng)
        })
        .collect();
    // set-up takes milliseconds, short enough for one slow host moment to
    // cover every repetition; so it is repeated before the loop and again
    // once per round inside it, and `setup_s` is the median of them all
    let mut setup_s = Vec::new();
    let timed_set_up = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let docs = set_up(run, &deltas);
        setup_s.push(t0.elapsed().as_secs_f64());
        docs
    };
    for _ in 1..SETUPS {
        timed_set_up(&mut setup_s);
    }
    let docs = timed_set_up(&mut setup_s);
    let probes: Vec<EvalProbe> = docs
        .iter()
        .map(|d| EvalProbe::new(d.instance.clone(), &[d.view]))
        .collect();

    // the oracle: the first publish of each document
    let oracle: Vec<(String, Counts)> = (0..docs.len())
        .map(|k| {
            let (result, xml, events, expansions, _) = publish(&docs, k, &mut None);
            let counts = Counts {
                expansions,
                ..Counts::of_document(&result, events, xml.len())
            };
            (xml, counts)
        })
        .collect();

    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); docs.len()];
    let mut k = rng.below(docs.len());
    let deadline = run.begin();
    while Instant::now() < deadline {
        let traced = run.traced_now();
        let started = Instant::now();
        let mut op = traced.then(|| run.tracer.as_ref().expect("traced run").op("publish"));
        let (result, xml, events, expansions, ms) = publish(&docs, k, &mut op);
        let name = format!("publish {}", docs[k].view.name);
        let counts = Counts {
            expansions,
            ..Counts::of_document(&result, events, xml.len())
        };
        let ok = run.check(xml == oracle[k].0, || {
            format!("{name}: document differs from the first pass")
        }) & run.counts(&name, counts)
            & run.check(counts == oracle[k].1, || {
                format!("{name}: counters {counts:?}, first pass {:?}", oracle[k].1)
            });
        if ok {
            lat[k].push(ms);
        }
        if let Some(mut op) = op {
            op.latency(ms);
            if let (Some(t), Some(run_ms)) = (&run.tracer, op.ms("semantics.run")) {
                t.sample(
                    "semantics.ns_per_node",
                    run_ms * 1e6 / counts.xi_nodes.max(1) as f64,
                );
            }
            op.probe("stream.replay", || {
                black_box(result.stream_output(&mut CountingSink::new()))
            });
            op.probe("sink.chunked", || {
                let mut out = Vec::new();
                let mut sink = ChunkedXmlSink::new(&mut out);
                result.stream_output(&mut sink);
                sink.finish().expect("in-memory chunks");
                black_box(out.len())
            });
            op.finish();
            probes[k].run(run.tracer.as_ref().expect("traced run"));
        }
        drop((result, xml));
        run.slice_done(traced, started);
        run.calibrate();
        k = (k + 1) % docs.len();
        if k == 0 {
            timed_set_up(&mut setup_s);
        }
    }
    let medians: Vec<f64> = lat.iter().map(|l| median(l)).collect();
    let tails: Vec<f64> = lat.iter().map(|l| percentile(l, 0.9)).collect();
    let total: f64 = lat.iter().flatten().sum::<f64>() / 1e3;
    let count: usize = lat.iter().map(Vec::len).sum();
    let mut report: Vec<(String, f64, &'static str)> =
        vec![("documents".into(), count as f64, "count")];
    for (d, m) in docs.iter().zip(&medians) {
        report.push((format!("publish.{}_ms", d.view.name), *m, "ms"));
    }
    Measured {
        setup_s,
        read_p50_ms: geomean(&medians),
        read_p99_ms: geomean(&tails),
        reads_per_s: count as f64 / total,
        report,
    }
}
