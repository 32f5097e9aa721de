//! End-to-end serving tests: a real server on an ephemeral port, real TCP
//! clients, and the in-process engine as the byte-level oracle — the
//! streamed chunked-XML body must equal the serialization of
//! `output_tree()` for the same transducer over the same data.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pt_core::examples::registrar;
use pt_core::Engine;
use pt_server::spec::{parse_delta, parse_view_spec, samples};
use pt_server::{call_once, Server, ServerConfig};
use pt_xmltree::XmlWriter;

/// Serialize the view's output exactly as the server's socket sink does.
fn oracle_bytes(engine: &Engine, tau: &pt_core::Transducer) -> Vec<u8> {
    let prepared = engine.prepare(tau).expect("oracle prepare");
    let tree = prepared.run().expect("oracle run").output_tree();
    let mut w = XmlWriter::new();
    assert!(tree.stream_to(&mut w));
    w.into_string().into_bytes()
}

fn boot() -> Server {
    Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral port")
}

fn register(addr: SocketAddr, tenant: &str, view: &str, spec: &str) {
    let r = call_once(
        addr,
        "POST",
        &format!("/tenants/{tenant}/views/{view}"),
        spec,
    )
    .expect("register call");
    assert_eq!(r.status, 201, "{}", String::from_utf8_lossy(&r.body));
}

fn post_delta(addr: SocketAddr, tenant: &str, delta: &str) -> pt_server::http::Response {
    call_once(addr, "POST", &format!("/tenants/{tenant}/delta"), delta).expect("delta call")
}

#[test]
fn two_tenants_stream_isolated_byte_identical_views() {
    let server = boot();
    let addr = server.local_addr();

    // tenant a: the full registrar instance; tenant b: a subset
    register(addr, "a", "tau1", samples::tau1_spec());
    register(addr, "b", "tau1", samples::tau1_spec());
    assert_eq!(
        post_delta(addr, "a", samples::registrar_delta()).status,
        200
    );
    let b_delta = "insert course CS100 Programming CS\n\
                   insert course CS140 'Data Structures' CS\n\
                   insert prereq CS140 CS100\n";
    assert_eq!(post_delta(addr, "b", b_delta).status, 200);

    // oracles: in-process engines over the same data
    let oracle_a = {
        let e = Engine::new(registrar::registrar_instance());
        oracle_bytes(&e, &registrar::tau1())
    };
    let oracle_b = {
        let e = Engine::new(pt_relational::Instance::new());
        e.apply(&parse_delta(b_delta).unwrap()).unwrap();
        oracle_bytes(&e, &registrar::tau1())
    };
    assert_ne!(oracle_a, oracle_b, "tenants must have distinct views");

    // concurrent clients across both tenants, both route shapes
    let mut handles = Vec::new();
    for i in 0..8 {
        let (tenant, expect) = if i % 2 == 0 {
            ("a", oracle_a.clone())
        } else {
            ("b", oracle_b.clone())
        };
        let path = if i % 4 < 2 {
            format!("/tenants/{tenant}/views/tau1")
        } else {
            format!("/views/tau1?tenant={tenant}")
        };
        handles.push(std::thread::spawn(move || {
            let r = call_once(addr, "GET", &path, "").expect("stream call");
            assert_eq!(r.status, 200);
            assert_eq!(r.header("content-type"), Some("application/xml"));
            assert!(r.header("x-db-version").is_some());
            assert!(r.header("x-memo-expansions").is_some());
            assert!(r.header("x-memo-timeout-expansions").is_some());
            assert_eq!(r.body, expect);
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn delta_then_restream_reflects_the_new_version() {
    let server = boot();
    let addr = server.local_addr();
    register(addr, "t", "tau1", samples::tau1_spec());
    assert_eq!(
        post_delta(addr, "t", samples::registrar_delta()).status,
        200
    );

    let before = call_once(addr, "GET", "/tenants/t/views/tau1", "").unwrap();
    assert_eq!(before.status, 200);
    let v1 = before.header("x-db-version").unwrap().to_string();

    // the update: a new CS course requiring CS340
    let update = "insert course CS440 'Query Processing' CS\ninsert prereq CS440 CS340\n";
    let applied = post_delta(addr, "t", update);
    assert_eq!(applied.status, 200);
    let body = String::from_utf8_lossy(&applied.body).to_string();
    assert!(body.contains("\"tuples_inserted\":2"), "{body}");

    let after = call_once(addr, "GET", "/tenants/t/views/tau1", "").unwrap();
    assert_eq!(after.status, 200);
    assert_ne!(after.header("x-db-version").unwrap(), v1);

    let oracle = {
        let e = Engine::new(registrar::registrar_instance());
        e.apply(&parse_delta(update).unwrap()).unwrap();
        oracle_bytes(&e, &registrar::tau1())
    };
    assert_ne!(before.body, after.body);
    assert_eq!(after.body, oracle);
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_does_not_poison_the_session() {
    let server = boot();
    let addr = server.local_addr();
    register(addr, "t", "tau1", samples::tau1_spec());
    // a deep prerequisite chain so the response is far larger than one
    // chunk buffer — the disconnect lands mid-stream, not post-write
    let mut big = String::from(samples::registrar_delta());
    for i in 0..200 {
        big.push_str(&format!("insert course X{i} 'Topic {i}' CS\n"));
        if i > 0 {
            big.push_str(&format!("insert prereq X{i} X{}\n", i - 1));
        }
    }
    assert_eq!(post_delta(addr, "t", &big).status, 200);

    let oracle = {
        let e = Engine::new(pt_relational::Instance::new());
        e.apply(&parse_delta(&big).unwrap()).unwrap();
        oracle_bytes(&e, &registrar::tau1())
    };
    assert!(oracle.len() > 64 * 1024, "document too small to test with");

    // hang up after ~1 KiB of body, repeatedly
    for _ in 0..3 {
        let seen = pt_server::load::disconnect_mid_stream(addr, "/tenants/t/views/tau1", 1024)
            .expect("partial read");
        assert!(seen >= 1024);
    }
    // the shared session still serves complete, correct documents
    let r = call_once(addr, "GET", "/tenants/t/views/tau1", "").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, oracle);
    server.shutdown();
}

/// The `disconnects` counter off `/stats`.
fn stats_disconnects(addr: SocketAddr) -> usize {
    let r = call_once(addr, "GET", "/stats", "").expect("stats call");
    let body = String::from_utf8(r.body).unwrap();
    let tail = &body[body.find("\"disconnects\":").expect("disconnects field") + 14..];
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

#[test]
fn client_gone_before_a_small_view_counts_as_a_disconnect() {
    let server = boot();
    let addr = server.local_addr();
    register(addr, "t", "tau1", samples::tau1_spec());
    assert_eq!(
        post_delta(addr, "t", samples::registrar_delta()).status,
        200
    );
    let oracle = oracle_bytes(
        &Engine::new(registrar::registrar_instance()),
        &registrar::tau1(),
    );
    // the whole response (head, one chunk, terminator) leaves in one write
    assert!(
        oracle.len() < pt_server::sink::CHUNK_SIZE,
        "{}",
        oracle.len()
    );
    assert_eq!(stats_disconnects(addr), 0);

    // ask for the view and hang up without reading a byte
    {
        use std::io::Write;
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /tenants/t/views/tau1 HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats_disconnects(addr) == 0 {
        assert!(
            Instant::now() < deadline,
            "the lost response was never counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(stats_disconnects(addr), 1);
    assert_eq!(server.client_disconnects(), 1);

    // a fresh connection is served the complete document
    let r = call_once(addr, "GET", "/tenants/t/views/tau1", "").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, oracle);
    assert_eq!(server.client_disconnects(), 1);
    server.shutdown();
}

#[test]
fn structured_errors_map_to_statuses() {
    let server = boot();
    let addr = server.local_addr();
    register(addr, "t", "tau1", samples::tau1_spec());
    assert_eq!(
        post_delta(addr, "t", samples::registrar_delta()).status,
        200
    );

    // 404: unknown tenant and unknown view
    assert_eq!(
        call_once(addr, "GET", "/tenants/nobody/views/tau1", "")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        call_once(addr, "GET", "/tenants/t/views/nope", "")
            .unwrap()
            .status,
        404
    );
    // 400: spec that does not parse (line number in the body)
    let bad = call_once(addr, "POST", "/tenants/t/views/bad", "start q0\n").unwrap();
    assert_eq!(bad.status, 400);
    assert!(String::from_utf8_lossy(&bad.body).contains("line 1"));
    // 400: delta that does not parse
    assert_eq!(
        post_delta(addr, "t", "upsert course CS1 T CS\n").status,
        400
    );
    // 422: delta with the wrong arity (parsed fine, engine refused)
    let arity = post_delta(addr, "t", "insert course CS1 OnlyTwo\n");
    assert_eq!(arity.status, 422);
    assert!(String::from_utf8_lossy(&arity.body).contains("width"));
    // 422: registration whose typecheck fails (root mismatch)
    let untypable = format!(
        "{}dtd wrongroot\nelem wrongroot text\n",
        samples::tau1_spec()
    );
    let r = call_once(addr, "POST", "/tenants/t/views/typed", &untypable).unwrap();
    assert_eq!(r.status, 422);
    // 413: node budget exhausted
    assert_eq!(
        call_once(addr, "GET", "/tenants/t/views/tau1?max_nodes=1", "")
            .unwrap()
            .status,
        413
    );
    // 400: malformed query parameter
    assert_eq!(
        call_once(addr, "GET", "/tenants/t/views/tau1?threads=lots", "")
            .unwrap()
            .status,
        400
    );
    // 405: wrong method on a known route
    assert_eq!(
        call_once(addr, "DELETE", "/tenants/t/delta", "")
            .unwrap()
            .status,
        405
    );
    // 404: unknown route
    assert_eq!(call_once(addr, "GET", "/teapot", "").unwrap().status, 404);
    server.shutdown();
}

#[test]
fn run_options_flow_through_query_parameters() {
    let server = boot();
    let addr = server.local_addr();
    register(addr, "t", "tau1", samples::tau1_spec());
    assert_eq!(
        post_delta(addr, "t", samples::registrar_delta()).status,
        200
    );
    let oracle = {
        let e = Engine::new(registrar::registrar_instance());
        oracle_bytes(&e, &registrar::tau1())
    };
    // a parallel run with a long claim wait streams the same bytes
    let r = call_once(
        addr,
        "GET",
        "/tenants/t/views/tau1?threads=4&claim_wait_ms=100",
        "",
    )
    .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, oracle);
    // the guard budgets truncate: a well-framed strict prefix comes back
    let truncated = call_once(addr, "GET", "/tenants/t/views/tau1?max_events=5", "").unwrap();
    assert_eq!(truncated.status, 200);
    assert!(truncated.body.len() < oracle.len());
    assert!(oracle.starts_with(&truncated.body));
    server.shutdown();
}

#[test]
fn typed_registration_gates_and_serves() {
    let server = boot();
    let addr = server.local_addr();
    // a flat, typable view with its DTD
    let spec = "schema r/1\nstart q0 db\n\
                rule q0 db -> q item : (x) <- r(x)\n\
                rule q item -> q text : (x) <- Reg(x)\n\
                dtd db\nelem db item*\nelem item text\n";
    register(addr, "t", "flat", spec);
    assert_eq!(
        post_delta(addr, "t", "insert r one\ninsert r two\n").status,
        200
    );
    let r = call_once(addr, "GET", "/tenants/t/views/flat", "").unwrap();
    assert_eq!(r.status, 200);
    let oracle = {
        let e = Engine::new(pt_relational::Instance::new());
        e.apply(&parse_delta("insert r one\ninsert r two\n").unwrap())
            .unwrap();
        oracle_bytes(&e, &parse_view_spec(spec).unwrap().transducer)
    };
    assert_eq!(r.body, oracle);
    server.shutdown();
}

#[test]
fn shutdown_drains_and_refuses() {
    let server = Arc::new(boot());
    let addr = server.local_addr();
    register(addr, "t", "tau1", samples::tau1_spec());
    assert_eq!(
        post_delta(addr, "t", samples::registrar_delta()).status,
        200
    );

    // requests racing the shutdown either complete correctly or fail
    // cleanly (refused/cut) — never hang, never garble
    let oracle = {
        let e = Engine::new(registrar::registrar_instance());
        oracle_bytes(&e, &registrar::tau1())
    };
    let mut clients = Vec::new();
    for _ in 0..4 {
        let oracle = oracle.clone();
        clients.push(std::thread::spawn(move || {
            if let Ok(r) = call_once(addr, "GET", "/tenants/t/views/tau1", "") {
                if r.status == 200 {
                    assert_eq!(r.body, oracle);
                } else {
                    assert_eq!(r.status, 503);
                }
            }
        }));
    }
    server.shutdown();
    for c in clients {
        c.join().expect("client thread");
    }
    // after the drain, new connections are refused outright
    match call_once(addr, "GET", "/healthz", "") {
        Err(_) => {}
        Ok(r) => assert_eq!(r.status, 503),
    }
}
