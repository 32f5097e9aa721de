//! The two HTTP workloads: a self-hosted `pt-serve` with two workers,
//! driven by two closed-loop clients on keep-alive connections.
//!
//! Before timing, every tenant is mirrored in-process: the same spec text
//! through `spec::parse_view_spec`, the same delta text through
//! `spec::parse_delta`, into a mirror [`Engine`]. The mirror's documents
//! are the oracle every response body is compared with byte for byte, and
//! in a traced slice the mirror replays each operation layer by layer.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pt_core::{ApplyReport, Engine, MemoPolicy, PreparedPlan, RunOptions};
use pt_relational::Instance;
use pt_server::{spec, ChunkedXmlSink, Server, ServerConfig};
use pt_xmltree::{CountingSink, XmlWriter};

use crate::client::{self, Conn};
use crate::gen::{self, DbShape, Rng, View};
use crate::trace::Op;
use crate::{median, ms_since, percentile, Counts, Doc, EvalProbe, Measured, Run, SETUPS};

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

/// The memo bound the server gives each plan; the mirror uses the same.
fn memo() -> MemoPolicy {
    MemoPolicy::Bounded {
        max_entries: config().memo_entries_per_plan,
    }
}

/// One tenant: its views, its seed delta, and its in-process mirror.
struct Tenant {
    name: String,
    views: Vec<View>,
    delta: String,
    engine: Arc<Engine>,
    plans: Vec<PreparedPlan>,
}

impl Tenant {
    fn new(run: &Run, name: String, views: Vec<View>, delta: String) -> Tenant {
        let parsed = run
            .call("spec.parse_delta", || spec::parse_delta(&delta))
            .expect("seed delta parses");
        let engine = Arc::new(run.call("engine.new", || Engine::new(Instance::new())));
        run.call("engine.apply", || engine.apply(&parsed))
            .expect("seed delta applies");
        let plans = views
            .iter()
            .map(|v| {
                let tau = run
                    .call("spec.parse_view", || spec::parse_view_spec(v.spec))
                    .expect("spec compiles");
                run.call("engine.prepare", || {
                    engine.prepare_plan(Arc::new(tau.transducer), memo())
                })
                .expect("view prepares")
            })
            .collect();
        Tenant {
            name,
            views,
            delta,
            engine,
            plans,
        }
    }

    fn view_path(&self, v: usize) -> String {
        format!("/tenants/{}/views/{}", self.name, self.views[v].name)
    }

    /// Run view `v` on the mirror: its document and memo misses.
    fn read(&self, v: usize) -> Doc {
        let session = self.plans[v].session();
        let before = session.memo_expansions();
        let result = session.run_opts(RunOptions::default()).expect("mirror run");
        let mut doc = Doc::render(&result);
        doc.counts.expansions = (session.memo_expansions() - before) as u64;
        doc
    }

    /// Parse and apply a delta on the mirror.
    fn write(&self, delta: &str) -> ApplyReport {
        let delta = spec::parse_delta(delta).expect("churn parses");
        self.engine.apply(&delta).expect("churn applies")
    }

    /// One refresh on the mirror: the write, then a read of its view, with
    /// the write's counters in the document's.
    fn refresh(&self, churn: &gen::Churn, view: usize) -> Doc {
        let registers = self.engine.registers_interned();
        let report = self.write(&churn.delta);
        let mut doc = self.read(view);
        doc.counts.evicted = report.memo_entries_evicted as u64;
        doc.counts.resorted = report.relations_resorted as u64;
        doc.counts.registers = (self.engine.registers_interned() - registers) as u64;
        doc
    }

    fn probe(&self) -> EvalProbe {
        EvalProbe::new(self.engine.instance(), &self.views)
    }
}

/// Replay one read on the mirror, layer by layer, into `op`: the stages
/// the server ran (request parse, run, chunked streaming) and the probes
/// that split streaming into replay and serialization.
fn replay_read(run: &Run, op: &mut Op, plan: &PreparedPlan, request: &[u8], xi_nodes: u64) {
    op.stage("http.parse", || black_box(client::parse_request(request)));
    let result = op
        .stage("semantics.run", || {
            plan.session().run_opts(RunOptions::default())
        })
        .expect("mirror run");
    if let (Some(t), Some(run_ms)) = (&run.tracer, op.ms("semantics.run")) {
        t.sample(
            "semantics.ns_per_node",
            run_ms * 1e6 / xi_nodes.max(1) as f64,
        );
    }
    op.stage("sink.chunked", || {
        let mut out = Vec::new();
        let mut sink = ChunkedXmlSink::new(&mut out);
        result.stream_output(&mut sink);
        sink.finish().expect("in-memory chunks");
        black_box(out.len())
    });
    op.probe("stream.replay", || {
        black_box(result.stream_output(&mut CountingSink::new()))
    });
    op.probe("stream.serialize", || {
        let mut w = XmlWriter::new();
        result.stream_output(&mut w);
        black_box(w.into_string().len())
    });
}

/// Start a server and load every tenant: the seed delta first, then the
/// view registrations (which prepare each plan against the loaded data).
fn start(tenants: &[Tenant]) -> (Server, Conn) {
    let server = Server::bind("127.0.0.1:0", config()).expect("bind a local port");
    let mut conn = Conn::open(server.local_addr()).expect("connect to the server");
    for t in tenants {
        let ack = conn
            .exchange(&client::post(
                &format!("/tenants/{}/delta", t.name),
                &t.delta,
            ))
            .expect("seed delta");
        assert_eq!(
            ack.status,
            200,
            "seed delta refused: {:?}",
            String::from_utf8_lossy(&ack.body)
        );
        for v in 0..t.views.len() {
            let path = t.view_path(v);
            let resp = conn
                .exchange(&client::post(&path, t.views[v].spec))
                .expect("register view");
            assert_eq!(
                resp.status,
                201,
                "view {path} refused: {:?}",
                String::from_utf8_lossy(&resp.body)
            );
        }
    }
    (server, conn)
}

fn expansions_header(resp: &pt_server::http::Response) -> Option<u64> {
    resp.header("x-memo-expansions")?.parse().ok()
}

/// Median and 99th percentile of the latencies, and their throughput.
fn latency_summary(lat: &[f64], elapsed: f64) -> (f64, f64, f64) {
    (
        median(lat),
        percentile(lat, 0.99),
        lat.len() as f64 / elapsed,
    )
}

/// Everything a `read_hot` client needs, one entry per (tenant, view)
/// kind: the counter name, the request, the oracle document and the memo
/// misses the server had reported after warm-up.
struct Catalog {
    tenants: Vec<Tenant>,
    kinds: Vec<(usize, usize)>,
    names: Vec<String>,
    requests: Vec<Vec<u8>>,
    docs: Vec<Doc>,
    probes: Vec<EvalProbe>,
    baseline: Vec<u64>,
}

impl Catalog {
    /// One checked read of kind `k`; its latency when it succeeded. In a
    /// traced slice the read is replayed on the mirror, and client 0 also
    /// runs the `eval` probes now and then.
    fn read(
        &self,
        run: &Run,
        conn: &mut Conn,
        k: usize,
        traced: bool,
        client: usize,
    ) -> Option<f64> {
        let (t, v) = self.kinds[k];
        let tracer = run.tracer.as_ref().filter(|_| traced);
        let mut op = tracer.map(|tr| tr.op("read"));
        let t0 = Instant::now();
        let resp = conn.exchange(&self.requests[k]);
        let ms = ms_since(t0);
        let ok = match &resp {
            Ok(r) => {
                let ok = run.check(r.status == 200 && r.body == self.docs[k].xml, || {
                    format!(
                        "{}: status {} or body differs from the oracle",
                        self.names[k], r.status
                    )
                });
                let counts = Counts {
                    expansions: expansions_header(r)
                        .unwrap_or(u64::MAX)
                        .wrapping_sub(self.baseline[k]),
                    ..self.docs[k].counts
                };
                ok && run.counts(&self.names[k], counts)
            }
            Err(e) => run.check(false, || format!("{}: {e}", self.names[k])),
        };
        if let Some(mut op) = op.take() {
            op.latency(ms);
            let plan = &self.tenants[t].plans[v];
            replay_read(
                run,
                &mut op,
                plan,
                &self.requests[k],
                self.docs[k].counts.xi_nodes,
            );
            op.finish();
        }
        if let Some(tr) = tracer.filter(|_| client == 0 && k.is_multiple_of(8)) {
            self.probes[t].run(tr);
        }
        (ok && resp.is_ok()).then_some(ms)
    }
}

/// `read_hot`: 16 tenants × {τ1, τ2, closure}, documents of 1–100 KB,
/// every read a plan-cache and memo hit after warm-up.
pub fn read_hot(run: &Run) -> Measured {
    const TENANTS: usize = 16;
    let mut rng = Rng::new(run.p.seed);
    let mut ladder: Vec<usize> = (0..TENANTS).collect();
    rng.shuffle(&mut ladder);
    // sizes on a geometric ladder; the seed only decides which tenant
    // gets which size
    let tenants: Vec<Tenant> = ladder
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let f = size as f64 / (TENANTS - 1) as f64;
            let shape = DbShape {
                courses: (4.0 * 64f64.powf(f)).round() as usize,
                segment: 6,
                students: 0,
                chain: (8.0 * 6f64.powf(f)).round() as usize,
            };
            let base = gen::chain_base(&mut rng);
            let delta = gen::db_delta(shape, base, &mut rng);
            let views = vec![gen::TAU1, gen::TAU2, gen::CLOSURE];
            Tenant::new(run, format!("t{i:02}"), views, delta)
        })
        .collect();
    let kinds: Vec<(usize, usize)> = (0..TENANTS)
        .flat_map(|t| (0..3).map(move |v| (t, v)))
        .collect();
    let mut cat = Catalog {
        names: kinds
            .iter()
            .map(|&(t, v)| format!("read {}/{}", tenants[t].name, tenants[t].views[v].name))
            .collect(),
        requests: kinds
            .iter()
            .map(|&(t, v)| client::get(&tenants[t].view_path(v)))
            .collect(),
        docs: kinds.iter().map(|&(t, v)| tenants[t].read(v)).collect(),
        probes: tenants.iter().map(Tenant::probe).collect(),
        baseline: Vec::new(),
        kinds,
        tenants,
    };

    // set up: load, register, and read every document once (verified)
    let mut setup_s = Vec::new();
    let mut live: Option<Server> = None;
    for _ in 0..SETUPS {
        // stop the previous server first, so each set-up starts from the same heap
        if let Some(old) = live.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let (server, mut conn) = start(&cat.tenants);
        cat.baseline.clear();
        for (k, req) in cat.requests.iter().enumerate() {
            let resp = conn.exchange(req).expect("warm-up read");
            run.check(resp.status == 200 && resp.body == cat.docs[k].xml, || {
                format!("{}: warm-up body differs from the oracle", cat.names[k])
            });
            cat.baseline.push(expansions_header(&resp).unwrap_or(0));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(conn);
        live = Some(server);
    }
    let server = live.expect("set up at least once");
    let addr = server.local_addr();

    let deadline = run.begin();
    let start = Instant::now();
    let orders: Vec<Vec<usize>> = (0..2)
        .map(|_| {
            let mut order: Vec<usize> = (0..cat.kinds.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let per_client: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(client, order)| {
                let cat = &cat;
                s.spawn(move || {
                    let mut conn = Conn::open(addr).expect("client connects");
                    let mut lat = Vec::new();
                    let mut i = client * order.len() / 2;
                    while Instant::now() < deadline {
                        let traced = run.traced_now();
                        let started = Instant::now();
                        let k = order[i % order.len()];
                        i += 1;
                        match cat.read(run, &mut conn, k, traced, client) {
                            Some(ms) => lat.push(ms),
                            None => conn.reopen().expect("client reconnects"),
                        }
                        run.slice_done(traced, started);
                        if client == 0 && i.is_multiple_of(32) {
                            run.calibrate();
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    let lat: Vec<f64> = per_client.concat();
    let (p50, p99, rps) = latency_summary(&lat, elapsed);
    Measured {
        setup_s,
        read_p50_ms: p50,
        read_p99_ms: p99,
        reads_per_s: rps,
        report: vec![("reads".into(), lat.len() as f64, "count")],
    }
}

/// One step of a `write_refresh` cycle, with everything the oracle knows
/// about it in the steady state.
struct Step {
    churn: gen::Churn,
    view: usize,
    write: Vec<u8>,
    read: Vec<u8>,
    doc: Doc,
}

/// What a write ack must say: exactly one tuple, inserted or retracted.
fn ack_ok(body: &[u8], insert: bool) -> bool {
    let ins = client::json_u64(body, "tuples_inserted");
    let ret = client::json_u64(body, "tuples_retracted");
    (ins, ret)
        == if insert {
            (Some(1), Some(0))
        } else {
            (Some(0), Some(1))
        }
}

/// `write_refresh`: two clients, each owning a tenant, alternate a
/// one-tuple delta with a read of the view over the touched relation.
pub fn write_refresh(run: &Run) -> Measured {
    const CLIENTS: usize = 2;
    const WARM_CYCLES: usize = 2;
    let shape = DbShape {
        courses: 40,
        segment: usize::MAX,
        students: 1500,
        chain: 64,
    };
    let views = vec![gen::TAU2, gen::CLOSURE, gen::ROSTER];
    let mut rng = Rng::new(run.p.seed);
    let mut tenants = Vec::new();
    let mut cycles: Vec<Vec<Step>> = Vec::new();
    let mut initial: Vec<Vec<Doc>> = Vec::new();
    for c in 0..CLIENTS {
        let base = gen::chain_base(&mut rng);
        let delta = gen::db_delta(shape, base, &mut rng);
        let tenant = Tenant::new(run, format!("w{c}"), views.clone(), delta);
        let churn = gen::churn_cycle(shape, base, &mut rng);
        // the oracle: initial reads, then warm cycles on the mirror; the
        // last cycle is the steady state every later cycle repeats
        initial.push((0..views.len()).map(|v| tenant.read(v)).collect());
        let mut steps = Vec::new();
        for cycle in 0..WARM_CYCLES {
            for ch in &churn {
                let view = views
                    .iter()
                    .position(|v| v.name == ch.view.name)
                    .expect("churned view is registered");
                let doc = tenant.refresh(ch, view);
                if cycle + 1 == WARM_CYCLES {
                    steps.push(Step {
                        churn: ch.clone(),
                        view,
                        write: client::post(&format!("/tenants/{}/delta", tenant.name), &ch.delta),
                        read: client::get(&tenant.view_path(view)),
                        doc,
                    });
                }
            }
        }
        tenants.push(tenant);
        cycles.push(steps);
    }
    let names: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| {
            cycles[c]
                .iter()
                .enumerate()
                .map(|(pos, s)| {
                    format!("refresh {}/{pos} {}", tenants[c].name, s.churn.delta.trim())
                })
                .collect()
        })
        .collect();

    // set up: load, register, first reads, warm cycles (all verified)
    let mut setup_s = Vec::new();
    let mut live: Option<(Server, _)> = None;
    for _ in 0..SETUPS {
        if let Some((old, _)) = live.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let (server, mut conn) = start(&tenants);
        let mut last_exp: Vec<Vec<u64>> = Vec::new();
        for c in 0..CLIENTS {
            let mut exp = Vec::new();
            for v in 0..views.len() {
                let resp = conn
                    .exchange(&client::get(&tenants[c].view_path(v)))
                    .expect("first read");
                run.check(resp.status == 200 && resp.body == initial[c][v].xml, || {
                    format!(
                        "{}/{}: first body differs from the oracle",
                        tenants[c].name, views[v].name
                    )
                });
                exp.push(expansions_header(&resp).unwrap_or(0));
            }
            for _ in 0..WARM_CYCLES {
                for step in &cycles[c] {
                    refresh(run, &mut conn, step, &mut exp[step.view], None);
                }
            }
            last_exp.push(exp);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(conn);
        live = Some((server, last_exp));
    }
    let (server, last_exp) = live.expect("set up at least once");
    let addr = server.local_addr();

    let deadline = run.begin();
    let start = Instant::now();
    let per_client: Vec<Latencies> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = RefreshClient {
                    client: c,
                    tenant: &tenants[c],
                    steps: &cycles[c],
                    names: &names[c],
                    probe: tenants[c].probe(),
                };
                let exp = last_exp[c].clone();
                s.spawn(move || client.run(run, addr, deadline, exp))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    let cat = |f: fn(&Latencies) -> &Vec<f64>| {
        per_client
            .iter()
            .flat_map(|l| f(l).iter().copied())
            .collect::<Vec<f64>>()
    };
    let (writes, reads, refreshes) = (cat(|l| &l.0), cat(|l| &l.1), cat(|l| &l.2));
    let (p50, p99, rps) = latency_summary(&refreshes, elapsed);
    Measured {
        setup_s,
        read_p50_ms: p50,
        read_p99_ms: p99,
        reads_per_s: rps,
        report: vec![
            ("refreshes".into(), refreshes.len() as f64, "count"),
            ("write_p50_ms".into(), median(&writes), "ms"),
            ("write_p99_ms".into(), percentile(&writes, 0.99), "ms"),
            ("get_p50_ms".into(), median(&reads), "ms"),
            ("get_p99_ms".into(), percentile(&reads, 0.99), "ms"),
        ],
    }
}

/// Write, read and refresh latencies of one client, milliseconds.
type Latencies = (Vec<f64>, Vec<f64>, Vec<f64>);

/// One closed-loop `write_refresh` client and the tenant it owns.
struct RefreshClient<'a> {
    client: usize,
    tenant: &'a Tenant,
    steps: &'a [Step],
    names: &'a [String],
    probe: EvalProbe,
}

impl RefreshClient<'_> {
    /// Refresh until the deadline, continuing the cycle at step 0;
    /// `exp` holds each view's memo misses the server last reported.
    fn run(
        &self,
        run: &Run,
        addr: std::net::SocketAddr,
        deadline: Instant,
        mut exp: Vec<u64>,
    ) -> Latencies {
        let mut conn = Conn::open(addr).expect("client connects");
        let (mut writes, mut reads, mut refreshes) = (Vec::new(), Vec::new(), Vec::new());
        let n = self.steps.len();
        // the mirror's next step: it falls behind in untraced slices and
        // replays the missed steps before the next traced one
        let mut mirror_pos = 0;
        let mut i = 0;
        while Instant::now() < deadline {
            let pos = i % n;
            let step = &self.steps[pos];
            let traced = run.traced_now();
            let started = Instant::now();
            let mut op = None;
            if let Some(tracer) = run.tracer.as_ref().filter(|_| traced) {
                while mirror_pos != pos {
                    let missed = &self.steps[mirror_pos];
                    self.tenant.refresh(&missed.churn, missed.view);
                    mirror_pos = (mirror_pos + 1) % n;
                }
                op = Some(tracer.op("refresh"));
            }
            let res = refresh(
                run,
                &mut conn,
                step,
                &mut exp[step.view],
                Some(&self.names[pos]),
            );
            if let Some(op) = op {
                self.replay(run, op, step, &self.names[pos], res);
                mirror_pos = (pos + 1) % n;
                if self.client == 0 && i.is_multiple_of(6) {
                    self.probe.run(run.tracer.as_ref().expect("traced run"));
                }
            }
            match res {
                Some((w, r)) => {
                    writes.push(w);
                    reads.push(r);
                    refreshes.push(w + r);
                }
                None => conn.reopen().expect("client reconnects"),
            }
            run.slice_done(traced, started);
            i += 1;
            if self.client == 0 && i.is_multiple_of(4) {
                run.calibrate();
            }
        }
        (writes, reads, refreshes)
    }

    /// Replay a refresh on the mirror, which is at its step, layer by
    /// layer: the server's request parses, delta parse, apply, run and
    /// chunked streaming.
    fn replay(&self, run: &Run, mut op: Op, step: &Step, name: &str, latency: Option<(f64, f64)>) {
        if let Some((w, r)) = latency {
            op.latency(w + r);
        }
        op.stage("http.parse", || {
            black_box(client::parse_request(&step.write))
        });
        let delta = op
            .stage("spec.parse_delta", || spec::parse_delta(&step.churn.delta))
            .expect("churn parses");
        let report = op
            .stage("engine.apply", || self.tenant.engine.apply(&delta))
            .expect("churn applies");
        let evicted = report.memo_entries_evicted as u64;
        run.check(evicted == step.doc.counts.evicted, || {
            format!(
                "{name}: mirror evicted {evicted}, oracle {}",
                step.doc.counts.evicted
            )
        });
        let plan = &self.tenant.plans[step.view];
        replay_read(run, &mut op, plan, &step.read, step.doc.counts.xi_nodes);
        op.finish();
    }
}

/// One refresh over HTTP: the write, its ack check, the read, and its
/// body and counter checks. `name` is the counter kind (none in set-up,
/// whose first cycle is not yet steady). Returns the write and read
/// latencies when both succeeded.
fn refresh(
    run: &Run,
    conn: &mut Conn,
    step: &Step,
    last_exp: &mut u64,
    name: Option<&str>,
) -> Option<(f64, f64)> {
    let insert = step.churn.delta.starts_with("insert");
    let t0 = Instant::now();
    let ack = conn.exchange(&step.write);
    let w = ms_since(t0);
    let t1 = Instant::now();
    let resp = ack.as_ref().ok().map(|_| conn.exchange(&step.read));
    let r = ms_since(t1);
    let label = name.unwrap_or("warm-up refresh");
    let (Ok(ack), Some(Ok(resp))) = (ack, resp) else {
        run.check(false, || format!("{label}: connection failed"));
        return None;
    };
    let ok = run.check(ack.status == 200 && ack_ok(&ack.body, insert), || {
        format!(
            "{label}: ack {} {}",
            ack.status,
            String::from_utf8_lossy(&ack.body)
        )
    }) & run.check(resp.status == 200 && resp.body == step.doc.xml, || {
        format!(
            "{label}: status {} or body differs from the oracle",
            resp.status
        )
    });
    let exp = expansions_header(&resp).unwrap_or(0);
    let counts = Counts {
        expansions: exp.wrapping_sub(*last_exp),
        evicted: client::json_u64(&ack.body, "memo_entries_evicted").unwrap_or(u64::MAX),
        resorted: client::json_u64(&ack.body, "relations_resorted").unwrap_or(u64::MAX),
        ..step.doc.counts
    };
    *last_exp = exp;
    let steady = match name {
        Some(name) => {
            run.counts(name, counts)
                & run.check(counts == step.doc.counts, || {
                    format!(
                        "{name}: server counters {counts:?}, oracle {:?}",
                        step.doc.counts
                    )
                })
        }
        None => true,
    };
    (ok && steady).then_some((w, r))
}
