//! Pinned memo-reuse counters of the configuration-DAG engine.
//!
//! A memo entry is reused only when the current ancestor path meets its
//! footprint exactly as the path it was computed under did. The footprint
//! keeps only the configurations whose own subtree holds a stopped leaf,
//! and a stop-free entry matches under any path; both are exact, so every
//! reuse decision — and with it the number of cold expansions, memo
//! entries and distinct result nodes — is fixed by the view and the data.
//! These tests pin those numbers: a change to the footprint that makes one
//! reuse decision differently moves at least one of them.

use pt_bench::{chain_edges, dense_digraph, scaled_registrar};
use publishing_transducers::core::examples::registrar;
use publishing_transducers::core::{Engine, EvalOptions, ExpansionMode, RunResult, Transducer};
use publishing_transducers::relational::{rel, Instance, Schema};

/// What one cold prepared run did.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    expansions: usize,
    xi_nodes: usize,
    distinct_nodes: usize,
    memo_entries: usize,
}

fn distinct_nodes(run: &RunResult) -> usize {
    let mut n = 0usize;
    run.result_tree().visit_distinct(&mut |_| n += 1);
    n
}

/// Run `tau` cold on `db`, check it against the tree-mode oracle when
/// `oracle` is set, and report the counters.
fn cold_counters(tau: &Transducer, db: &Instance, oracle: bool) -> Counters {
    let engine = Engine::new(db);
    let prepared = engine.prepare(tau).unwrap();
    let run = prepared.run().unwrap();
    if oracle {
        let tree = tau.run_with(db, EvalOptions::forced_tree()).unwrap();
        assert_eq!(run.output_tree(), tree.output_tree());
        assert_eq!(run.size(), tree.size());
    }
    Counters {
        expansions: prepared.memo_expansions(),
        xi_nodes: run.size(),
        distinct_nodes: distinct_nodes(&run),
        memo_entries: prepared.memo_entries(),
    }
}

/// The closure view: every pair of the transitive closure of `edge`, with
/// its two endpoints as text children.
fn closure_view() -> Transducer {
    Transducer::builder(Schema::with(&[("edge", 2)]), "q0", "tc")
        .rule(
            "q0",
            "tc",
            &[(
                "q",
                "pair",
                "(v, w) <- fix T(x, y) { edge(x, y) or exists z (T(x, z) and edge(z, y)) }(v, w)",
            )],
        )
        .rule(
            "q",
            "pair",
            &[
                ("q", "from", "(v) <- exists w (Reg(v, w))"),
                ("q", "to", "(w) <- exists v (Reg(v, w))"),
            ],
        )
        .rule("q", "from", &[("q", "text", "(v) <- Reg(v)")])
        .rule("q", "to", &[("q", "text", "(w) <- Reg(w)")])
        .build()
        .unwrap()
}

#[test]
fn tau1_on_a_200_course_chain_keeps_its_reuse_counts() {
    let got = cold_counters(&registrar::tau1(), &scaled_registrar(200), false);
    assert_eq!(
        got,
        Counters {
            expansions: 1_201,
            xi_nodes: 120_601,
            distinct_nodes: 1_201,
            memo_entries: 1_201,
        }
    );
}

#[test]
fn tau2_on_an_80_course_chain_keeps_its_reuse_counts() {
    let got = cold_counters(&registrar::tau2(), &scaled_registrar(80), true);
    assert_eq!(
        got,
        Counters {
            expansions: 3_641,
            xi_nodes: 10_040,
            distinct_nodes: 3_720,
            memo_entries: 3_720,
        }
    );
}

#[test]
fn closure_view_on_a_256_edge_chain_keeps_its_reuse_counts() {
    let got = cold_counters(&closure_view(), &chain_edges(256), false);
    assert_eq!(
        got,
        Counters {
            expansions: 33_666,
            xi_nodes: 164_481,
            distinct_nodes: 33_666,
            memo_entries: 33_666,
        }
    );
}

/// Unfold a graph from its start nodes.
fn unfold() -> Transducer {
    Transducer::builder(Schema::with(&[("edge", 2), ("start", 1)]), "q0", "root")
        .rule("q0", "root", &[("q", "a", "(x) <- start(x)")])
        .rule(
            "q",
            "a",
            &[("q", "a", "(y) <- exists x (Reg(x) and edge(x, y))")],
        )
        .build()
        .unwrap()
}

#[test]
fn a_configuration_inside_a_stop_cycle_and_under_the_root_agrees_with_the_tree_oracle() {
    // 0 → 1 → 0 is a stop cycle; 2 hangs off it and is also a start node,
    // so (q, a, {2}) is expanded first below the cycle, then reached
    // directly from the root. Its tail 2 → 3 → 4 is stop-free, and 1 is a
    // start node too: (q, a, {1})'s entry, built under 0, blocks 0 and
    // must not be replayed directly under the root.
    let db = Instance::new()
        .with("start", rel![[0], [1], [2]])
        .with("edge", rel![[0, 1], [1, 0], [1, 2], [2, 3], [3, 4]]);
    let tau = unfold();
    let got = cold_counters(&tau, &db, true);
    for mode in [ExpansionMode::Dag, ExpansionMode::DagValue] {
        let run = tau
            .run_with(
                &db,
                EvalOptions {
                    mode,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.size(), got.xi_nodes, "{mode:?}");
        assert_eq!(distinct_nodes(&run), got.distinct_nodes, "{mode:?}");
    }
    assert_eq!(
        got,
        Counters {
            expansions: 8,
            xi_nodes: 16,
            distinct_nodes: 10,
            memo_entries: 10,
        }
    );
}

#[test]
fn unfolding_a_cyclic_digraph_keeps_its_reuse_counts() {
    // every node starts an unfolding of a 9-node digraph of out-degree 2:
    // many stop cycles, each configuration reached under many different
    // ancestor paths, so most reuse decisions turn on the footprint
    let mut db = dense_digraph(9, 2);
    db.set("start", rel![[0], [1], [2], [3], [4], [5], [6], [7], [8]]);
    let got = cold_counters(&unfold(), &db, true);
    assert_eq!(
        got,
        Counters {
            expansions: 160,
            xi_nodes: 592,
            distinct_nodes: 169,
            memo_entries: 169,
        }
    );
}
