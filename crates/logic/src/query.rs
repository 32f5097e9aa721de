use std::collections::BTreeSet;
use std::fmt;

use pt_relational::intern::Sym;
use pt_relational::{Instance, Relation, SymRegister, SymTuple, Tuple};

use crate::eval::{EvalContext, EvalError, Evaluator, IndexedRegister};
use crate::formula::{Formula, Fragment};
use crate::term::{Term, Var};

/// A head-split query `φ(x̄; ȳ)` from Definition 3.1.
///
/// * `x̄` (the *group variables*) drive child creation: the query result is
///   grouped by distinct `x̄`-values and one child is spawned per nonempty
///   group, ordered by the domain order on the `x̄`-tuples.
/// * `ȳ` (the *rest variables*) fill the child's register: the child for
///   group `d̄` carries `{d̄} × {ē | φ(d̄; ē)}`.
///
/// `|ȳ| = 0` makes every register a single tuple (a *tuple register*);
/// `|x̄| = 0` produces at most one child carrying the entire query result
/// (Section 3).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Query {
    group_vars: Vec<Var>,
    rest_vars: Vec<Var>,
    body: Formula,
    /// [`Formula::pushed`] form of `body`, computed once at construction:
    /// evaluation never rebuilds formulas (no per-eval De Morgan pushes).
    /// Derived from `body`, so the derived `Eq`/`Hash` stay consistent.
    eval_body: Formula,
    /// The column plan when the body is a plain register projection (see
    /// [`RegisterProjection`]); derived from the head and `body`, like
    /// `eval_body`.
    projection: Option<RegisterProjection>,
}

/// The column plan of a *register projection*: a body `Reg(v̄)` or
/// `∃w̄ Reg(v̄)` whose atom holds pairwise-distinct variables only, every
/// one of them either a head variable or bound by the `∃`. Such a query
/// just projects the register's rows — `cols[i]` is the register column
/// read into head position `i` — so [`Query::groups_sym`] answers it
/// without the general evaluator: no bindings, no hash sets, no domain
/// closure. Repeated variables, constants and vacuous or repeated binders
/// are not projections and keep the evaluator.
#[derive(Clone, PartialEq, Eq, Hash)]
struct RegisterProjection {
    /// The atom's arity; a register of another arity goes to the evaluator
    /// (which reports the mismatch).
    arity: usize,
    cols: Vec<usize>,
}

impl RegisterProjection {
    fn recognise(head: &[Var], body: &Formula) -> Option<Self> {
        let mut bound: Vec<&Var> = Vec::new();
        let mut f = body;
        while let Formula::Exists(vs, g) = f {
            bound.extend(vs);
            f = g;
        }
        let Formula::Reg(args) = f else {
            return None;
        };
        let vars: Vec<&Var> = args.iter().map(Term::as_var).collect::<Option<_>>()?;
        // the head and the binders must partition the atom's variables.
        // The body's free variables are exactly the head, so once the atom's
        // variables are pairwise distinct the count alone rules out binders
        // that repeat or bind nothing (an empty domain falsifies a vacuous ∃)
        let distinct = (1..vars.len()).all(|i| !vars[..i].contains(&vars[i]));
        if !distinct || head.len() + bound.len() != vars.len() {
            return None;
        }
        let cols = head
            .iter()
            .map(|h| vars.iter().position(|v| *v == h))
            .collect::<Option<_>>()?;
        Some(RegisterProjection {
            arity: args.len(),
            cols,
        })
    }
}

impl Query {
    /// Build and validate a query.
    ///
    /// Rules enforced:
    /// * head variables are pairwise distinct,
    /// * every head variable occurs free in the body (safety),
    /// * body free variables not in the head are implicitly
    ///   existentially quantified (the paper always writes them under `∃`;
    ///   auto-closing keeps call sites readable).
    pub fn new(group_vars: Vec<Var>, rest_vars: Vec<Var>, body: Formula) -> Result<Self, String> {
        let mut seen = BTreeSet::new();
        for v in group_vars.iter().chain(rest_vars.iter()) {
            if !seen.insert(v.clone()) {
                return Err(format!("duplicate head variable {v}"));
            }
        }
        let free = body.free_vars();
        for v in &seen {
            if !free.contains(v) {
                return Err(format!("head variable {v} is not free in the body"));
            }
        }
        let extra: Vec<Var> = free.into_iter().filter(|v| !seen.contains(v)).collect();
        let body = Formula::exists(extra, body);
        let eval_body = body.pushed();
        let head: Vec<Var> = group_vars.iter().chain(&rest_vars).cloned().collect();
        let projection = RegisterProjection::recognise(&head, &body);
        Ok(Query {
            group_vars,
            rest_vars,
            body,
            eval_body,
            projection,
        })
    }

    /// The group variables `x̄`.
    pub fn group_vars(&self) -> &[Var] {
        &self.group_vars
    }

    /// The rest variables `ȳ`.
    pub fn rest_vars(&self) -> &[Var] {
        &self.rest_vars
    }

    /// The body formula.
    pub fn body(&self) -> &Formula {
        &self.body
    }

    /// All head variables, `x̄` then `ȳ`.
    pub fn head_vars(&self) -> Vec<Var> {
        self.group_vars
            .iter()
            .chain(self.rest_vars.iter())
            .cloned()
            .collect()
    }

    /// Output arity `|x̄| + |ȳ|` — must equal `Θ(a)` of the produced tag.
    pub fn arity(&self) -> usize {
        self.group_vars.len() + self.rest_vars.len()
    }

    /// Whether this query produces tuple registers (`|ȳ| = 0`).
    pub fn is_tuple_register(&self) -> bool {
        self.rest_vars.is_empty()
    }

    /// The smallest logic containing the body.
    pub fn fragment(&self) -> Fragment {
        self.body.fragment()
    }

    /// Replace the body (head unchanged). The new body must have the same
    /// free variables.
    pub fn with_body(&self, body: Formula) -> Result<Query, String> {
        Query::new(self.group_vars.clone(), self.rest_vars.clone(), body)
    }

    /// Evaluate to the full result relation of arity [`Query::arity`],
    /// columns ordered `x̄ · ȳ`.
    pub fn eval(
        &self,
        instance: &Instance,
        register: Option<&Relation>,
    ) -> Result<Relation, EvalError> {
        self.finish_eval(Evaluator::for_formula(instance, register, &self.eval_body))
    }

    /// [`Query::eval`] through a shared [`EvalContext`], reusing its
    /// active-domain scan and column indexes.
    pub fn eval_with(
        &self,
        ctx: &EvalContext,
        register: Option<&Relation>,
    ) -> Result<Relation, EvalError> {
        self.finish_eval(Evaluator::with_context(ctx, register, &self.eval_body))
    }

    /// [`Query::eval_with`] with a register already interned and indexed via
    /// [`EvalContext::index_register`] — the per-configuration hot path.
    pub fn eval_indexed(
        &self,
        ctx: &EvalContext,
        register: Option<&IndexedRegister>,
    ) -> Result<Relation, EvalError> {
        self.finish_eval(Evaluator::with_register(ctx, register, &self.eval_body))
    }

    fn finish_eval(&self, ev: Evaluator<'_>) -> Result<Relation, EvalError> {
        let head = self.head_vars();
        let b = ev.eval(&self.eval_body)?;
        Ok(ev.close(b, &head).to_relation(&head))
    }

    /// Evaluate and group by `x̄` per the child-spawning semantics: returns
    /// `(d̄, {d̄} × {ē})` pairs sorted by `d̄` in the domain order.
    ///
    /// An empty overall result yields no groups (no children). With
    /// `|x̄| = 0` a nonempty result yields exactly one group keyed by the
    /// empty tuple.
    pub fn groups(
        &self,
        instance: &Instance,
        register: Option<&Relation>,
    ) -> Result<Vec<(Tuple, Relation)>, EvalError> {
        Ok(self.group_rows(self.eval(instance, register)?))
    }

    /// [`Query::groups`] through a shared [`EvalContext`].
    pub fn groups_with(
        &self,
        ctx: &EvalContext,
        register: Option<&Relation>,
    ) -> Result<Vec<(Tuple, Relation)>, EvalError> {
        Ok(self.group_rows(self.eval_with(ctx, register)?))
    }

    /// [`Query::groups_with`] with a register already interned and indexed
    /// via [`EvalContext::index_register`] — the per-configuration hot path
    /// of the transducer semantics.
    pub fn groups_indexed(
        &self,
        ctx: &EvalContext,
        register: Option<&IndexedRegister>,
    ) -> Result<Vec<(Tuple, Relation)>, EvalError> {
        Ok(self.group_rows(self.eval_indexed(ctx, register)?))
    }

    /// The fully symbolic counterpart of [`Query::groups_indexed`]: evaluate
    /// against a register indexed via [`EvalContext::index_sym_register`]
    /// and return the groups as canonical [`SymRegister`]s over the
    /// context's interner, sorted by the group key `d̄` in the domain order.
    /// No `Value` is resolved, hashed, or cloned anywhere on this path —
    /// the transducer's configuration-expansion hot loop. A register
    /// projection (`(x) <- ∃y Reg(x, y)` and the like) skips the evaluator
    /// and projects the register's rows directly, like
    /// [`Query::project_register`].
    pub fn groups_sym(
        &self,
        ctx: &EvalContext,
        register: Option<&IndexedRegister>,
    ) -> Result<Vec<(SymTuple, SymRegister)>, EvalError> {
        if let (Some(plan), Some(ireg)) = (&self.projection, register) {
            let srel = ireg.relation_in(ctx);
            if srel.arity() == Some(plan.arity) {
                let k = self.group_vars.len();
                let rows = srel.rows().iter().map(|row| &row[..]);
                return Ok(self
                    .project_rows(plan, ctx, rows)
                    .into_iter()
                    .map(|reg| (SymTuple::from(&reg.data()[..k]), reg))
                    .collect());
            }
        }
        let ev = Evaluator::with_register(ctx, register, &self.eval_body);
        let head = self.head_vars();
        let b = ev.eval(&self.eval_body)?;
        let closed = ev.close(b, &head);
        // the body's free variables are exactly the head (auto-closure), so
        // the closed bindings are a permutation of the head: project without
        // re-deduplicating
        let mut rows: Vec<SymTuple> = if closed.vars().len() == head.len() {
            closed.rows_in_order_vec(&head)
        } else {
            closed.rows_in_order(&head).into_iter().collect()
        };
        ctx.sort_rows_in_domain_order(&mut rows);
        let k = self.group_vars.len();
        let arity = head.len();
        let mut out: Vec<(SymTuple, SymRegister)> = Vec::new();
        for row in rows {
            match out.last_mut() {
                Some((key, reg)) if key[..] == row[..k] => reg.push_row(&row),
                _ => {
                    let mut reg = SymRegister::with_capacity(arity, 1);
                    reg.push_row(&row);
                    out.push((SymTuple::from(&row[..k]), reg));
                }
            }
        }
        Ok(out)
    }

    /// The child registers of a register-projection query, computed from
    /// `register`'s rows alone — what [`Query::groups_sym`] returns for it,
    /// keys dropped, without indexing the register or running the
    /// evaluator. `None` when the body is not a plain projection of `Reg`
    /// or the register's arity differs from the atom's: such queries need
    /// [`Query::groups_sym`].
    pub fn project_register(
        &self,
        ctx: &EvalContext,
        register: &SymRegister,
    ) -> Option<Vec<SymRegister>> {
        let plan = self.projection.as_ref()?;
        if register.arity() != plan.arity {
            return None;
        }
        Some(self.project_rows(plan, ctx, register.rows()))
    }

    /// Project `rows` through `plan`, sort the result in the domain order,
    /// drop duplicates, and cut it into one register per group key.
    fn project_rows<'r>(
        &self,
        plan: &RegisterProjection,
        ctx: &EvalContext,
        rows: impl Iterator<Item = &'r [Sym]>,
    ) -> Vec<SymRegister> {
        let mut rows: Vec<SymTuple> = rows
            .map(|row| plan.cols.iter().map(|&c| row[c]).collect())
            .collect();
        ctx.sort_rows_in_domain_order(&mut rows);
        rows.dedup();
        let k = self.group_vars.len();
        let mut out: Vec<SymRegister> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            match out.last_mut() {
                Some(reg) if rows[i - 1][..k] == row[..k] => reg.push_row(row),
                _ => {
                    let mut reg = SymRegister::with_capacity(plan.cols.len(), 1);
                    reg.push_row(row);
                    out.push(reg);
                }
            }
        }
        out
    }

    fn group_rows(&self, rows: Relation) -> Vec<(Tuple, Relation)> {
        let k = self.group_vars.len();
        let mut out: Vec<(Tuple, Relation)> = Vec::new();
        for row in rows.iter() {
            let key: Tuple = row[..k].to_vec();
            match out.last_mut() {
                Some((last_key, rel)) if *last_key == key => {
                    rel.insert(row.clone());
                }
                _ => {
                    out.push((key, Relation::singleton(row.clone())));
                }
            }
        }
        out
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gs: Vec<String> = self.group_vars.iter().map(|v| v.to_string()).collect();
        let rs: Vec<String> = self.rest_vars.iter().map(|v| v.to_string()).collect();
        if rs.is_empty() {
            write!(f, "({}) <- {}", gs.join(", "), self.body)
        } else {
            write!(f, "({}; {}) <- {}", gs.join(", "), rs.join(", "), self.body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_query, term::var};
    use pt_relational::{rel, Value};

    fn db() -> Instance {
        Instance::new()
            .with(
                "course",
                rel![
                    ["c1", "Databases", "CS"],
                    ["c2", "Logic", "CS"],
                    ["c3", "Ethics", "PHIL"]
                ],
            )
            .with("prereq", rel![["c1", "c2"], ["c1", "c3"]])
    }

    #[test]
    fn validation_rejects_duplicates_and_unsafe_heads() {
        let body = crate::parse_formula("r(x, y)").unwrap();
        assert!(Query::new(vec![Var::new("x"), Var::new("x")], vec![], body.clone()).is_err());
        assert!(Query::new(vec![Var::new("z")], vec![], body).is_err());
    }

    #[test]
    fn auto_existential_closure() {
        let q = Query::new(
            vec![Var::new("x")],
            vec![],
            crate::parse_formula("r(x, y)").unwrap(),
        )
        .unwrap();
        assert_eq!(q.body().free_vars().len(), 1);
        assert_eq!(q.to_string().matches("exists").count(), 1);
    }

    #[test]
    fn eval_projects_head_order() {
        let q = parse_query("(t, c) <- course(c, t, 'CS')").unwrap();
        let r = q.eval(&db(), None).unwrap();
        assert!(r.contains(&[Value::str("Databases"), Value::str("c1")]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn grouping_tuple_register() {
        // |ȳ|=0: one group per tuple
        let q = parse_query("(c, t) <- exists d (course(c, t, d) and d = 'CS')").unwrap();
        let gs = q.groups(&db(), None).unwrap();
        assert_eq!(gs.len(), 2);
        assert!(gs.iter().all(|(_, rel)| rel.len() == 1));
        // sorted by group key
        assert!(gs[0].0 < gs[1].0);
    }

    #[test]
    fn grouping_relation_register() {
        // |x̄|=0: single child holding the whole result
        let q = parse_query("(; p) <- prereq('c1', p)").unwrap();
        let gs = q.groups(&db(), None).unwrap();
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].0, Vec::<Value>::new());
        assert_eq!(gs[0].1.len(), 2);
    }

    #[test]
    fn grouping_mixed() {
        let inst = Instance::new().with("r", rel![[1, 10], [1, 11], [2, 20]]);
        let q = parse_query("(x; y) <- r(x, y)").unwrap();
        let gs = q.groups(&inst, None).unwrap();
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0].0, vec![Value::int(1)]);
        assert_eq!(gs[0].1.len(), 2);
        // register holds full (x̄,ȳ) tuples
        assert!(gs[0].1.contains(&[Value::int(1), Value::int(10)]));
        assert_eq!(gs[1].1.len(), 1);
    }

    #[test]
    fn empty_result_spawns_no_groups() {
        let q = parse_query("(; p) <- prereq('c9', p)").unwrap();
        assert!(q.groups(&db(), None).unwrap().is_empty());
        let q0 = parse_query("(x) <- course(x, 'Nothing', 'CS')").unwrap();
        assert!(q0.groups(&db(), None).unwrap().is_empty());
    }

    #[test]
    fn zero_arity_query() {
        let q = parse_query("() <- exists c t d (course(c, t, d))").unwrap();
        let gs = q.groups(&db(), None).unwrap();
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].1.len(), 1);
        assert!(gs[0].1.contains(&[]));
    }

    #[test]
    fn display_round_trip() {
        let q = parse_query("(x; y) <- r(x, y)").unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
        assert_eq!(q.head_vars(), vec![Var::new("x"), Var::new("y")]);
        assert!(!q.is_tuple_register());
        let _ = var("x");
    }
}
