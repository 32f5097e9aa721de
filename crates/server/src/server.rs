//! The serving core behind `pt-serve`: tenants, the cross-tenant prepared
//! plan cache, request routing, and the threaded connection loop.
//!
//! One [`Server`] owns a listener, an accept thread, and a fixed pool of
//! request workers fed through a bounded connection queue — the queue *is*
//! the backpressure: when it is full, new connections are answered `503`
//! immediately instead of piling up. Every tenant owns one
//! [`Engine`] (its private database) and any number of registered views;
//! prepared sessions are shared across requests through an LRU plan
//! cache bounded globally, each plan memo-bounded individually
//! ([`MemoPolicy::Bounded`]).
//!
//! [`Server::shutdown`] is the graceful drain: the flag flips, the accept
//! loop exits (new connections are refused), queued connections are
//! answered `503`, and in-flight responses — streamed ones included — run
//! to completion before the workers are joined.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use pt_core::{Engine, MemoPolicy, PreparedPlan, RunError, RunOptions, Transducer};
use pt_relational::Instance;
use pt_xmltree::{Dtd, Guarded};

use crate::http::{self, Request, RequestError};
use crate::sink::{ChunkedXmlSink, StreamStop};
use crate::spec;

/// Serving knobs. The defaults suit the integration tests and small
/// deployments; `pt-serve` exposes each as a flag.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Request worker threads (each runs one connection at a time).
    pub workers: usize,
    /// Accepted connections waiting for a worker before new ones get 503.
    pub queue_depth: usize,
    /// Prepared plans cached across all tenants; least recently used
    /// plans are dropped beyond this.
    pub plan_cache_cap: usize,
    /// Per-plan memo bound ([`MemoPolicy::Bounded`]).
    pub memo_entries_per_plan: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 128,
            plan_cache_cap: 64,
            memo_entries_per_plan: 1 << 16,
        }
    }
}

/// One tenant: a private [`Engine`] (created empty on first touch, fed
/// through `POST /tenants/{id}/delta`) plus its registered views.
struct Tenant {
    engine: Arc<Engine>,
    views: RwLock<HashMap<String, Arc<ViewDef>>>,
}

/// A registered view: the transducer and, when the registration carried a
/// `dtd` section, the output schema every serve re-certifies against.
struct ViewDef {
    tau: Arc<Transducer>,
    dtd: Option<Dtd>,
}

/// The LRU over prepared plans: a stamp per entry, evict the smallest
/// beyond the cap. N is small (tens), so the linear evict scan is noise
/// next to preparing a plan.
struct PlanCache {
    cap: usize,
    clock: u64,
    entries: HashMap<(String, String), (Arc<PreparedPlan>, u64)>,
}

impl PlanCache {
    fn new(cap: usize) -> Self {
        PlanCache {
            cap: cap.max(1),
            clock: 0,
            entries: HashMap::new(),
        }
    }

    fn touch(&mut self, key: &(String, String)) -> Option<Arc<PreparedPlan>> {
        self.clock += 1;
        let stamp = self.clock;
        self.entries.get_mut(key).map(|e| {
            e.1 = stamp;
            Arc::clone(&e.0)
        })
    }

    fn insert(&mut self, key: (String, String), plan: Arc<PreparedPlan>) {
        self.clock += 1;
        self.entries.insert(key, (plan, self.clock));
        while self.entries.len() > self.cap {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("nonempty cache over cap");
            self.entries.remove(&oldest);
        }
    }

    fn invalidate(&mut self, key: &(String, String)) {
        self.entries.remove(key);
    }
}

struct Inner {
    cfg: ServerConfig,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    plans: Mutex<PlanCache>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    requests: AtomicUsize,
    disconnects: AtomicUsize,
}

/// A running server: accept thread + worker pool. Dropping it shuts it
/// down gracefully (see [`Server::shutdown`]).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Bind and start serving. `addr` may be `"127.0.0.1:0"` for an
    /// ephemeral port — read it back with [`Server::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // nonblocking so the accept loop can poll the shutdown flag
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            plans: Mutex::new(PlanCache::new(cfg.plan_cache_cap)),
            cfg,
            tenants: RwLock::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            requests: AtomicUsize::new(0),
            disconnects: AtomicUsize::new(0),
        });
        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("pt-serve-accept".to_string())
                    .spawn(move || accept_loop(listener, &inner))
                    .expect("spawn accept thread"),
            );
        }
        for i in 0..inner.cfg.workers.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pt-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread"),
            );
        }
        Ok(Server {
            inner,
            addr,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> usize {
        self.inner.requests.load(Ordering::Relaxed)
    }

    /// Responses lost to the client hanging up: streams cut short by a
    /// failed write, and responses the peer reset after they left.
    pub fn client_disconnects(&self) -> usize {
        self.inner.disconnects.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, answer queued connections `503`,
    /// let in-flight responses (streamed ones included) finish, then join
    /// every thread. Idempotent; also what `pt-serve` runs on SIGTERM.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        let threads: Vec<_> = self.threads.lock().unwrap().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, inner: &Inner) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let mut q = inner.queue.lock().unwrap();
                if q.len() >= inner.cfg.queue_depth {
                    drop(q);
                    refuse(stream, "server overloaded");
                } else {
                    q.push_back(stream);
                    drop(q);
                    inner.queue_cv.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Answer a connection we will not serve with `503` and close it.
fn refuse(mut stream: TcpStream, msg: &str) {
    let _ = stream.set_nodelay(true);
    let _ = http::write_response(
        &mut stream,
        503,
        "application/json",
        &[("Connection".to_string(), "close".to_string())],
        err_body(msg).as_bytes(),
    );
}

fn worker_loop(inner: &Inner) {
    loop {
        let conn = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = inner
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap();
                q = guard;
            }
        };
        match conn {
            // a connection that was queued when shutdown hit is refused,
            // not served — draining means finishing started work only
            Some(stream) if inner.shutdown.load(Ordering::SeqCst) => {
                refuse(stream, "shutting down");
            }
            Some(stream) => {
                let _ = handle_connection(inner, stream);
            }
            None => break,
        }
    }
}

/// [`BufRead`] for request parsing and [`Write`] for interim responses,
/// over the two halves of one connection.
struct Rw<'a> {
    r: &'a mut BufReader<TcpStream>,
    w: &'a mut TcpStream,
}

impl Read for Rw<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.r.read(buf)
    }
}

impl BufRead for Rw<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.r.fill_buf()
    }
    fn consume(&mut self, amt: usize) {
        self.r.consume(amt)
    }
}

impl Write for Rw<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.w.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// What the keep-alive loop does after a response.
enum ConnAction {
    KeepAlive,
    Close,
}

fn handle_connection(inner: &Inner, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // short read timeout: an idle keep-alive connection re-polls the
    // shutdown flag once a second instead of pinning a worker forever
    stream.set_read_timeout(Some(Duration::from_secs(1))).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let req = {
            let mut rw = Rw {
                r: &mut reader,
                w: &mut writer,
            };
            match http::read_request(&mut rw) {
                Ok(req) => req,
                Err(RequestError::Eof) => {
                    count_reset(inner, &writer, None);
                    return Ok(());
                }
                Err(RequestError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    continue;
                }
                Err(RequestError::Io(e)) => {
                    count_reset(inner, &writer, Some(e));
                    return Ok(());
                }
                Err(RequestError::Malformed(msg)) => {
                    // framing is gone; answer and drop
                    let _ = respond(&mut writer, 400, &err_body(&msg), true);
                    return Ok(());
                }
            }
        };
        inner.requests.fetch_add(1, Ordering::Relaxed);
        let closing = req.wants_close() || inner.shutdown.load(Ordering::SeqCst);
        match route(inner, &req, &mut writer, closing) {
            ConnAction::KeepAlive => continue,
            ConnAction::Close => return Ok(()),
        }
    }
}

/// Count a response the peer discarded. A response that leaves in one
/// write usually lands in the kernel before the client's reset does, so
/// the loss shows up only afterwards: as a reset on the next read, or as
/// the socket's pending error behind an end of stream.
fn count_reset(inner: &Inner, stream: &TcpStream, read_error: Option<io::Error>) {
    let reset = match read_error {
        Some(e) => e.kind() == io::ErrorKind::ConnectionReset,
        None => matches!(stream.take_error(), Ok(Some(_))),
    };
    if reset {
        inner.disconnects.fetch_add(1, Ordering::Relaxed);
    }
}

fn route(inner: &Inner, req: &Request, w: &mut TcpStream, closing: bool) -> ConnAction {
    let segs = req.segments();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => respond(w, 200, "{\"ok\":true}", closing),
        ("GET", ["stats"]) => stats(inner, w, closing),
        ("POST", ["tenants", t, "views", v]) => register_view(inner, t, v, req, w, closing),
        ("GET", ["tenants", t, "views", v]) => stream_view(inner, t, v, req, w, closing),
        ("GET", ["views", v]) => match req.query("tenant") {
            Some(t) => {
                let t = t.to_string();
                stream_view(inner, &t, v, req, w, closing)
            }
            None => respond(
                w,
                400,
                &err_body("GET /views/{name} needs a ?tenant= parameter"),
                closing,
            ),
        },
        ("POST", ["tenants", t, "delta"]) => apply_delta(inner, t, req, w, closing),
        (_, ["healthz" | "stats"])
        | (_, ["views", _])
        | (_, ["tenants", _, "delta"])
        | (_, ["tenants", _, "views", _]) => {
            respond(w, 405, &err_body("method not allowed here"), closing)
        }
        _ => respond(w, 404, &err_body("no such route"), closing),
    }
}

fn tenant_or_create(inner: &Inner, id: &str) -> Arc<Tenant> {
    if let Some(t) = inner.tenants.read().unwrap().get(id) {
        return Arc::clone(t);
    }
    let mut tenants = inner.tenants.write().unwrap();
    Arc::clone(tenants.entry(id.to_string()).or_insert_with(|| {
        Arc::new(Tenant {
            engine: Arc::new(Engine::new(Instance::new())),
            views: RwLock::new(HashMap::new()),
        })
    }))
}

fn tenant_of(inner: &Inner, id: &str) -> Option<Arc<Tenant>> {
    inner.tenants.read().unwrap().get(id).cloned()
}

fn memo_policy(inner: &Inner) -> MemoPolicy {
    MemoPolicy::Bounded {
        max_entries: inner.cfg.memo_entries_per_plan,
    }
}

/// `POST /tenants/{t}/views/{v}`: parse the wire-format spec, build the
/// plan eagerly (so compile/prepare/typecheck errors surface *now*, with
/// their structured status), install the view, and seed the plan cache.
fn register_view(
    inner: &Inner,
    tenant_id: &str,
    view: &str,
    req: &Request,
    w: &mut TcpStream,
    closing: bool,
) -> ConnAction {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return respond(w, 400, &err_body("view spec is not UTF-8"), closing),
    };
    let spec = match spec::parse_view_spec(text) {
        Ok(s) => s,
        Err(e) => return respond(w, 400, &err_body(&e.to_string()), closing),
    };
    let tenant = tenant_or_create(inner, tenant_id);
    let tau = Arc::new(spec.transducer);
    let typed = spec.dtd.is_some();
    let plan = match &spec.dtd {
        Some(dtd) => tenant
            .engine
            .prepare_plan_typed(Arc::clone(&tau), dtd, memo_policy(inner))
            .map_err(|e| e.to_string()),
        None => tenant
            .engine
            .prepare_plan(Arc::clone(&tau), memo_policy(inner))
            .map_err(|e| e.to_string()),
    };
    let plan = match plan {
        Ok(p) => Arc::new(p),
        Err(msg) => return respond(w, 422, &err_body(&msg), closing),
    };
    let pairs = plan.session().pairs();
    let def = Arc::new(ViewDef { tau, dtd: spec.dtd });
    tenant.views.write().unwrap().insert(view.to_string(), def);
    let key = (tenant_id.to_string(), view.to_string());
    let mut plans = inner.plans.lock().unwrap();
    // re-registration replaces any older plan for this name
    plans.invalidate(&key);
    plans.insert(key, plan);
    drop(plans);
    let body = format!(
        "{{\"tenant\":\"{}\",\"view\":\"{}\",\"pairs\":{},\"typed\":{}}}",
        json_escape(tenant_id),
        json_escape(view),
        pairs,
        typed
    );
    respond(w, 201, &body, closing)
}

/// The cached plan for a view, preparing (and caching) one if needed.
fn plan_for(
    inner: &Inner,
    tenant_id: &str,
    view: &str,
    tenant: &Tenant,
    def: &ViewDef,
) -> Result<Arc<PreparedPlan>, String> {
    let key = (tenant_id.to_string(), view.to_string());
    if let Some(p) = inner.plans.lock().unwrap().touch(&key) {
        return Ok(p);
    }
    // evicted (or raced out): prepare again; a concurrent build of the
    // same key just overwrites — both plans are valid, one gets dropped
    let plan = match &def.dtd {
        Some(dtd) => tenant
            .engine
            .prepare_plan_typed(Arc::clone(&def.tau), dtd, memo_policy(inner))
            .map_err(|e| e.to_string())?,
        None => tenant
            .engine
            .prepare_plan(Arc::clone(&def.tau), memo_policy(inner))
            .map_err(|e| e.to_string())?,
    };
    let plan = Arc::new(plan);
    inner.plans.lock().unwrap().insert(key, Arc::clone(&plan));
    Ok(plan)
}

/// Parse one optional nonnegative-integer query parameter.
fn q_usize(req: &Request, name: &str) -> Result<Option<usize>, String> {
    match req.query(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("query parameter {name} must be a nonnegative integer")),
    }
}

/// `GET /tenants/{t}/views/{v}` (or `GET /views/{v}?tenant={t}`): run the
/// prepared plan with the request's [`RunOptions`] and stream the output
/// document as chunked XML, straight from the result DAG to the socket.
fn stream_view(
    inner: &Inner,
    tenant_id: &str,
    view: &str,
    req: &Request,
    w: &mut TcpStream,
    closing: bool,
) -> ConnAction {
    let Some(tenant) = tenant_of(inner, tenant_id) else {
        return respond(w, 404, &err_body("unknown tenant"), closing);
    };
    let def = tenant.views.read().unwrap().get(view).cloned();
    let Some(def) = def else {
        return respond(w, 404, &err_body("unknown view"), closing);
    };
    let mut opts = RunOptions::default();
    let mut max_events = usize::MAX;
    let mut max_depth = usize::MAX;
    let parsed = (|| {
        if let Some(n) = q_usize(req, "max_nodes")? {
            opts.max_nodes = n;
        }
        if let Some(n) = q_usize(req, "threads")? {
            opts.threads = n.clamp(1, 64);
        }
        if let Some(ms) = q_usize(req, "claim_wait_ms")? {
            opts.claim_wait = Duration::from_millis(ms as u64);
        }
        if let Some(n) = q_usize(req, "max_events")? {
            max_events = n;
        }
        if let Some(n) = q_usize(req, "max_depth")? {
            max_depth = n;
        }
        Ok::<(), String>(())
    })();
    if let Err(msg) = parsed {
        return respond(w, 400, &err_body(&msg), closing);
    }
    let plan = match plan_for(inner, tenant_id, view, &tenant, &def) {
        Ok(p) => p,
        Err(msg) => return respond(w, 422, &err_body(&msg), closing),
    };
    let session = plan.session();
    // expand first: a run error maps to a clean status instead of a
    // half-written stream (events then replay from the finished DAG)
    let run = match session.run_opts(opts) {
        Ok(r) => r,
        Err(RunError::NodeLimit(n)) => {
            return respond(
                w,
                413,
                &err_body(&format!("node budget of {n} exhausted")),
                closing,
            )
        }
        Err(e @ RunError::Eval(_)) => return respond(w, 500, &err_body(&e.to_string()), closing),
    };
    let mut headers = vec![
        (
            "X-Db-Version".to_string(),
            plan.engine().version().to_string(),
        ),
        (
            "X-Memo-Expansions".to_string(),
            session.memo_expansions().to_string(),
        ),
        (
            "X-Memo-Timeout-Expansions".to_string(),
            session.memo_timeout_expansions().to_string(),
        ),
    ];
    if closing {
        headers.push(("Connection".to_string(), "close".to_string()));
    }
    // the head leaves with the first chunk: a failed write of it is a
    // client disconnect like any other
    let head = http::chunked_head(200, "application/xml", &headers);
    let sink = ChunkedXmlSink::with_head(&mut *w, head);
    let mut guarded = Guarded::new(sink, max_events, max_depth);
    run.stream_output(&mut guarded);
    let reason = guarded.truncation_reason();
    let sink = guarded.into_inner();
    match sink.stop_reason(reason) {
        Some(StreamStop::ClientDisconnect) => {
            // the shared session memo is intact — only this response died
            inner.disconnects.fetch_add(1, Ordering::Relaxed);
            ConnAction::Close
        }
        _ => match sink.finish() {
            // a budget trip still terminates the chunked framing cleanly;
            // the client sees a well-framed prefix of the document
            Ok(()) if !closing => ConnAction::KeepAlive,
            Ok(()) => ConnAction::Close,
            Err(_) => {
                inner.disconnects.fetch_add(1, Ordering::Relaxed);
                ConnAction::Close
            }
        },
    }
}

/// `POST /tenants/{t}/delta`: parse the wire-format delta and apply it to
/// the tenant's engine, echoing the [`pt_core::ApplyReport`].
fn apply_delta(
    inner: &Inner,
    tenant_id: &str,
    req: &Request,
    w: &mut TcpStream,
    closing: bool,
) -> ConnAction {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return respond(w, 400, &err_body("delta is not UTF-8"), closing),
    };
    let delta = match spec::parse_delta(text) {
        Ok(d) => d,
        Err(e) => return respond(w, 400, &err_body(&e.to_string()), closing),
    };
    let tenant = tenant_or_create(inner, tenant_id);
    match tenant.engine.apply(&delta) {
        Ok(report) => {
            let body = format!(
                "{{\"version\":{},\"tuples_inserted\":{},\"tuples_retracted\":{},\
                 \"memo_entries_evicted\":{},\"relations_resorted\":{}}}",
                report.version,
                report.tuples_inserted,
                report.tuples_retracted,
                report.memo_entries_evicted,
                report.relations_resorted
            );
            respond(w, 200, &body, closing)
        }
        Err(e) => respond(w, 422, &err_body(&e.to_string()), closing),
    }
}

fn stats(inner: &Inner, w: &mut TcpStream, closing: bool) -> ConnAction {
    let tenants = inner.tenants.read().unwrap();
    let views: usize = tenants
        .values()
        .map(|t| t.views.read().unwrap().len())
        .sum();
    let body = format!(
        "{{\"tenants\":{},\"views\":{},\"plans_cached\":{},\"requests\":{},\"disconnects\":{}}}",
        tenants.len(),
        views,
        inner.plans.lock().unwrap().entries.len(),
        inner.requests.load(Ordering::Relaxed),
        inner.disconnects.load(Ordering::Relaxed)
    );
    drop(tenants);
    respond(w, 200, &body, closing)
}

fn respond(w: &mut TcpStream, status: u16, body: &str, closing: bool) -> ConnAction {
    let headers: Vec<(String, String)> = if closing {
        vec![("Connection".to_string(), "close".to_string())]
    } else {
        Vec::new()
    };
    match http::write_response(w, status, "application/json", &headers, body.as_bytes()) {
        Ok(()) if !closing => ConnAction::KeepAlive,
        _ => ConnAction::Close,
    }
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json_escape(msg))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
