//! Seeded inputs: the four view specs in `pt-serve`'s wire format, tenant
//! databases as wire-format deltas, and the one-tuple churn deltas of
//! `write_refresh`. The seed permutes insertion order, picks which tuples
//! churn and which view each client reads next; it never changes a
//! document's size class, so runs with different seeds do the same work.

use std::fmt::Write;

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One registered view: its name and its wire-format spec.
#[derive(Clone, Copy)]
pub struct View {
    pub name: &'static str,
    pub spec: &'static str,
}

/// τ1 of the paper (Example 3.1): CS courses with their recursive
/// prerequisite hierarchies.
pub const TAU1: View = View {
    name: "tau1",
    spec: "schema course/3 prereq/2
start q0 db
rule q0 db -> q course : (cno, title) <- exists dept (course(cno, title, dept) and dept = 'CS')
rule q course -> q cno : (c) <- exists t (Reg(c, t))
rule q course -> q title : (t) <- exists c (Reg(c, t))
rule q course -> q prereq : (c) <- exists t (Reg(c, t))
rule q prereq -> q course : (c, t) <- exists c0 d (Reg(c0) and prereq(c0, c) and course(c, t, d))
rule q cno -> q text : (c) <- Reg(c)
rule q title -> q text : (t) <- Reg(t)
",
};

/// τ2 of the paper (Example 3.2): each course's prerequisite set,
/// accumulated through the virtual tag `l` and closed with a ∀ over the
/// active domain.
pub const TAU2: View = View {
    name: "tau2",
    spec: "schema course/3 prereq/2
start q0 db
virtual l
rule q0 db -> q course : (cno, title) <- exists dept (course(cno, title, dept) and dept = 'CS')
rule q course -> q cno : (c) <- exists t (Reg(c, t))
rule q course -> q title : (t) <- exists c (Reg(c, t))
rule q course -> q prereq : (c) <- exists t (Reg(c, t))
rule q prereq -> q l : (; c) <- exists c0 (Reg(c0) and prereq(c0, c))
rule q l -> q l : (; c) <- (Reg(c) or exists c0 (Reg(c0) and prereq(c0, c)))
rule q l -> q cno : (c) <- Reg(c) and forall c2 ((not (Reg(c2) or exists c0 (Reg(c0) and prereq(c0, c2)))) or Reg(c2))
rule q cno -> q text : (c) <- Reg(c)
rule q title -> q text : (t) <- Reg(t)
",
};

/// Per CS course, a relation register of every enrolled student: wide
/// registers unfolded into per-student children.
pub const ROSTER: View = View {
    name: "roster",
    spec: "schema course/3 prereq/2 enrolled/2
start q0 db
rule q0 db -> q course : (cno, title) <- exists d (course(cno, title, d) and d = 'CS')
rule q course -> q cno : (c) <- exists t (Reg(c, t))
rule q course -> q roster : (; s) <- exists c t (Reg(c, t) and enrolled(s, c))
rule q roster -> q student : (s) <- Reg(s)
rule q student -> q text : (s) <- Reg(s)
rule q cno -> q text : (c) <- Reg(c)
",
};

/// The transitive closure of `edge` as one `pair` per reachable pair.
pub const CLOSURE: View = View {
    name: "tc",
    spec: "schema edge/2
start q0 tc
rule q0 tc -> q pair : (v, w) <- fix T(x, y) { edge(x, y) or exists z (T(x, z) and edge(z, y)) }(v, w)
rule q pair -> q from : (v) <- exists w (Reg(v, w))
rule q pair -> q to : (w) <- exists v (Reg(v, w))
rule q from -> q text : (v) <- Reg(v)
rule q to -> q text : (w) <- Reg(w)
",
};

impl View {
    /// The query of the root rule: it reads no register, so
    /// `eval_to_relation` can run it on its own.
    pub fn root_query(&self) -> &'static str {
        let line = self
            .spec
            .lines()
            .find(|l| l.starts_with("rule q0 "))
            .expect("every spec has a root rule");
        line.split_once(':').expect("rule has a query").1.trim()
    }

    pub fn has_fixpoint(&self) -> bool {
        self.root_query().contains("fix ")
    }
}

/// The shape of one generated database.
#[derive(Clone, Copy, Debug)]
pub struct DbShape {
    /// CS courses `CS0000..`, plus as many `MA` courses.
    pub courses: usize,
    /// `prereq(CSi, CSi-1)` unless `i` is a multiple of `segment`:
    /// `usize::MAX` gives one chain, small values many short ones.
    pub segment: usize,
    /// Rows of `enrolled(student, cno)`.
    pub students: usize,
    /// Edges of the chain `edge(b, b+1), …` for the closure view.
    pub chain: usize,
}

/// The first value of the `edge` chain: four digits for every seed, so
/// document sizes do not depend on the seed.
pub fn chain_base(rng: &mut Rng) -> i64 {
    1000 + rng.below(4000) as i64
}

/// The database as one insert-only delta, rows in seeded order.
pub fn db_delta(shape: DbShape, base: i64, rng: &mut Rng) -> String {
    let mut rows = Vec::new();
    for i in 0..shape.courses {
        rows.push(format!("insert course CS{i:04} 'Topic {i:04}' CS"));
        rows.push(format!("insert course MA{i:04} 'Math {i:04}' MATH"));
        if i > 0 && i % shape.segment != 0 {
            rows.push(format!("insert prereq CS{i:04} CS{:04}", i - 1));
        }
    }
    for s in 0..shape.students {
        let c = (s * 7) % shape.courses.max(1);
        rows.push(format!("insert enrolled S{s:05} CS{c:04}"));
    }
    for k in 0..shape.chain as i64 {
        rows.push(format!("insert edge {} {}", base + k, base + k + 1));
    }
    rng.shuffle(&mut rows);
    let mut out = String::new();
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    out
}

/// One position of a `write_refresh` cycle: a one-tuple delta and the view
/// that reads the relation it touches.
#[derive(Clone)]
pub struct Churn {
    pub delta: String,
    pub view: View,
}

/// The six-step cycle of one `write_refresh` tenant: inserts and retracts
/// alternate, and after the sixth step the database is back where it
/// started.
///
/// - `prereq(CSa, MAj)` under τ2: the MATH course joins the prerequisite
///   set of every CS course at or above `a`;
/// - `edge(k, k+1)` under the closure view: retracting it runs
///   delete-and-rederive, re-inserting it the semi-naive continuation;
/// - `enrolled(Z…, CSc)` under the roster: a fresh student value grows and
///   shrinks the active domain, which invalidates every view's memo.
pub fn churn_cycle(shape: DbShape, base: i64, rng: &mut Rng) -> Vec<Churn> {
    let mid = shape.courses / 2;
    let a = mid - 2 + rng.below(5);
    let j = rng.below(shape.courses);
    let prereq = format!("prereq CS{a:04} MA{j:04}");
    let k = base + (shape.chain / 2) as i64 - 2 + rng.below(5) as i64;
    let edge = format!("edge {k} {}", k + 1);
    let c = rng.below(shape.courses);
    let enrolled = format!("enrolled Z{:05} CS{c:04}", rng.below(100_000));
    let step = |op: &str, tuple: &str, view: View| Churn {
        delta: format!("{op} {tuple}\n"),
        view,
    };
    vec![
        step("insert", &prereq, TAU2),
        step("retract", &edge, CLOSURE),
        step("insert", &enrolled, ROSTER),
        step("retract", &prereq, TAU2),
        step("insert", &edge, CLOSURE),
        step("retract", &enrolled, ROSTER),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_compiles_and_exposes_its_root_query() {
        for v in [TAU1, TAU2, ROSTER, CLOSURE] {
            pt_server::spec::parse_view_spec(v.spec).expect("spec compiles");
            pt_logic::parse_query(v.root_query()).expect("root query parses");
        }
        assert!(CLOSURE.has_fixpoint() && !TAU2.has_fixpoint());
    }

    #[test]
    fn churn_cycle_returns_to_the_start() {
        let shape = DbShape {
            courses: 40,
            segment: usize::MAX,
            students: 10,
            chain: 32,
        };
        let mut rng = Rng::new(7);
        let cycle = churn_cycle(shape, 1000, &mut rng);
        assert_eq!(cycle.len(), 6);
        for i in 0..3 {
            let (ins, ret) = (&cycle[i].delta, &cycle[i + 3].delta);
            assert_eq!(
                ins.split_once(' ').unwrap().1,
                ret.split_once(' ').unwrap().1
            );
        }
    }
}
