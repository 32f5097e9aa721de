//! The register-projection kernel against the general evaluator.
//!
//! `Query::groups_sym` and `Query::project_register` answer bodies of the
//! shape `Reg(v̄)` / `∃w̄ Reg(v̄)` over pairwise-distinct variables by
//! projecting the register's rows directly. `Query::groups_indexed` always
//! runs the general evaluator, so it is the reference: on random registers
//! — some holding symbols outside the base domain, interned by a successor
//! context the way `Engine::apply` extends one — every projection query
//! must group exactly as the evaluator does, and every shape the kernel
//! refuses must keep the evaluator's result or error.

use std::collections::BTreeSet;
use std::sync::Arc;

use pt_logic::{parse_query, EvalContext, Formula, Query, Term, Var};
use pt_relational::{Instance, Relation, SymRegister, Value};
use rand::prelude::*;

/// Values of the base instance (dense symbols, in the domain order).
fn base_values() -> Vec<Value> {
    let mut vs: Vec<Value> = (0..6).map(Value::int).collect();
    vs.extend(["a", "c", "e"].map(Value::str));
    vs
}

/// Values only the successor's instance holds: they intern above the base
/// symbols, and several sort *between* base values.
fn fresh_values() -> Vec<Value> {
    let mut vs: Vec<Value> = [-4, 3_000, 17].map(Value::int).to_vec();
    vs.extend(["b", "d", "zz"].map(Value::str));
    vs
}

fn unary(values: &[Value]) -> Relation {
    let mut rel = Relation::with_arity(1);
    for v in values {
        rel.insert(vec![v.clone()]);
    }
    rel
}

/// A context whose interner holds every base value densely and every fresh
/// value past the base — the state after an apply added them.
fn successor_context() -> EvalContext {
    let base = Instance::new().with("dom", unary(&base_values()));
    let ctx = EvalContext::new(&base);
    let mut all = base_values();
    all.extend(fresh_values());
    let next = Instance::new().with("dom", unary(&all));
    let touched: BTreeSet<String> = ["dom".to_string()].into();
    let (next_ctx, _) = ctx.successor(Arc::new(next), &touched);
    assert!(fresh_values().iter().all(|v| next_ctx
        .intern_register(&unary(std::slice::from_ref(v)))
        .data()[0]
        >= next_ctx.base_len()));
    next_ctx
}

fn random_register(rng: &mut StdRng, arity: usize) -> Relation {
    let mut pool = base_values();
    pool.extend(fresh_values());
    let mut rel = Relation::with_arity(arity);
    for _ in 0..rng.gen_range(0..21usize) {
        rel.insert(
            (0..arity)
                .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                .collect(),
        );
    }
    rel
}

/// The evaluator's groups, interned back into canonical symbolic form.
fn reference(
    q: &Query,
    ctx: &EvalContext,
    rel: &Relation,
) -> Result<Vec<(Vec<Value>, SymRegister)>, String> {
    let ireg = ctx.index_register(rel);
    q.groups_indexed(ctx, Some(&ireg))
        .map(|gs| {
            gs.into_iter()
                .map(|(key, group)| (key, ctx.intern_register(&group)))
                .collect()
        })
        .map_err(|e| e.to_string())
}

/// `groups_sym` on the symbolic register, keys resolved to values.
fn kernel(
    q: &Query,
    ctx: &EvalContext,
    reg: &SymRegister,
) -> Result<Vec<(Vec<Value>, SymRegister)>, String> {
    let syms = ctx.shared_interner();
    let ireg = ctx.index_sym_register(reg);
    q.groups_sym(ctx, Some(&ireg))
        .map(|gs| {
            gs.into_iter()
                .map(|(key, group)| (key.iter().map(|&s| syms.resolve(s)).collect(), group))
                .collect()
        })
        .map_err(|e| e.to_string())
}

fn var_term(name: &str) -> Term {
    Term::Var(Var::new(name))
}

/// Every subset of `0..n`, as bit masks.
fn subsets(n: usize) -> impl Iterator<Item = u32> {
    0..(1u32 << n)
}

/// Every permutation of `items`.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let first = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first.clone());
            out.push(tail);
        }
    }
    out
}

/// Every projection query over an `arity`-ary register: each ∃-subset of
/// the atom's variables, each order of the remaining head variables, each
/// group/rest split, with the binders written as one `∃` or nested.
fn projection_queries(arity: usize) -> Vec<Query> {
    let names: Vec<String> = (0..arity).map(|i| format!("v{i}")).collect();
    let atom = Formula::Reg(names.iter().map(|n| var_term(n)).collect());
    let mut out = Vec::new();
    for bound_mask in subsets(arity) {
        let bound: Vec<Var> = (0..arity)
            .filter(|i| bound_mask & (1 << i) != 0)
            .map(|i| Var::new(&names[i]))
            .collect();
        let head: Vec<Var> = (0..arity)
            .filter(|i| bound_mask & (1 << i) == 0)
            .map(|i| Var::new(&names[i]))
            .collect();
        let bodies = [
            Formula::exists(bound.clone(), atom.clone()),
            bound
                .iter()
                .rev()
                .fold(atom.clone(), |f, v| Formula::exists([v.clone()], f)),
        ];
        for order in permutations(&head) {
            for k in 0..=order.len() {
                for body in &bodies {
                    let q = Query::new(order[..k].to_vec(), order[k..].to_vec(), body.clone())
                        .expect("projection query is valid");
                    out.push(q);
                }
            }
        }
    }
    out
}

#[test]
fn projection_kernel_matches_the_evaluator_on_random_registers() {
    let ctx = successor_context();
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    let mut checked = 0usize;
    for arity in 1..=3usize {
        let queries = projection_queries(arity);
        for _ in 0..40 {
            let rel = random_register(&mut rng, arity);
            let reg = ctx.intern_register(&rel);
            for q in &queries {
                let want = reference(q, &ctx, &rel).expect("the evaluator answers");
                let got = kernel(q, &ctx, &reg).expect("the kernel answers");
                assert_eq!(got, want, "groups_sym of {q} on {rel:?}");
                let projected = q
                    .project_register(&ctx, &reg)
                    .unwrap_or_else(|| panic!("{q} is a register projection"));
                let groups: Vec<SymRegister> = want.into_iter().map(|(_, g)| g).collect();
                assert_eq!(projected, groups, "project_register of {q} on {rel:?}");
                checked += 1;
            }
        }
    }
    assert!(checked > 1_000, "only {checked} cases ran");
}

#[test]
fn refused_shapes_keep_the_evaluators_result_or_error() {
    let ctx = successor_context();
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    // (query, whether it is a register projection at all)
    let shapes = [
        // repeated variables
        ("(x) <- Reg(x, x)", false),
        ("(x; y) <- exists z (Reg(x, y, x) and Reg(z, y, z))", false),
        ("(x) <- exists y (Reg(x, y, y))", false),
        ("(x) <- exists y (exists y (Reg(x, x, y)))", false),
        // constants, inside and outside the base domain
        ("(x) <- Reg(x, 'c')", false),
        ("(x) <- exists y (Reg(x, y, 3))", false),
        ("(x) <- Reg(x, 'b')", false),
        // a binder the atom never mentions
        ("(x) <- exists y z (Reg(x, y))", false),
        // a binder that repeats
        ("(x) <- exists y (exists y (Reg(x, y)))", false),
        // not a bare atom
        ("(x) <- Reg(x) or Reg(x)", false),
        ("(x) <- exists y (Reg(x, y) and dom(y))", false),
        // projections of arity 1, 2 and 3, run against registers of every
        // arity: a mismatch must reach the evaluator and its error
        ("(x) <- Reg(x)", true),
        ("(y; x) <- Reg(x, y)", true),
        ("(z, x) <- exists y (Reg(x, y, z))", true),
    ];
    let mut mismatches = 0usize;
    for (src, projection) in shapes {
        let q = parse_query(src).unwrap();
        for arity in 1..=3usize {
            for _ in 0..10 {
                let rel = random_register(&mut rng, arity);
                let reg = ctx.intern_register(&rel);
                let want = reference(&q, &ctx, &rel);
                let got = kernel(&q, &ctx, &reg);
                assert_eq!(got, want, "groups_sym of {src} on {rel:?}");
                let projected = q.project_register(&ctx, &reg);
                match &want {
                    Err(_) => {
                        mismatches += 1;
                        assert!(
                            projected.is_none(),
                            "{src} read a register of arity {arity}"
                        );
                    }
                    Ok(groups) if projection => {
                        let groups: Vec<SymRegister> =
                            groups.iter().map(|(_, g)| g.clone()).collect();
                        assert_eq!(projected, Some(groups), "{src} on {rel:?}");
                    }
                    Ok(_) => assert!(projected.is_none(), "{src} is not a projection"),
                }
            }
        }
    }
    assert!(mismatches > 0, "no arity mismatch was exercised");
    // and without a register, both report the missing register
    let q = parse_query("(x) <- Reg(x)").unwrap();
    let err = q.groups_sym(&ctx, None).unwrap_err();
    let want = q.groups_indexed(&ctx, None).unwrap_err();
    assert_eq!(err, want);
}
