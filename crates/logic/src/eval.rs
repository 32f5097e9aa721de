//! Active-domain evaluation of CQ / FO / IFP formulas.
//!
//! A formula is evaluated over a database [`Instance`] plus an optional
//! register relation (the local store `Reg_a(u)` of the node being expanded,
//! Definition 3.1). Quantifiers range over the *active domain*: every value
//! occurring in the instance, in the register, or as a constant of the
//! formula. All queries in the paper are domain-independent, so this matches
//! their semantics; it also keeps evaluation effective.
//!
//! # Hot-path architecture
//!
//! The evaluator runs entirely on an interned representation. When an
//! [`EvalContext`] (or a stand-alone [`Evaluator`]) is built, the active
//! domain is mapped to dense `u32` symbols ([`pt_relational::Interner`]);
//! base relations are interned lazily into [`SymRelation`]s shared across
//! the whole run; the register is interned once per configuration
//! ([`EvalContext::index_register`] → [`IndexedRegister`]); and fixpoint
//! stages stay symbolic from round to round. Every intermediate result
//! ([`Bindings`]) holds rows of symbols, so joins, projections, semi-joins
//! and complements hash and compare machine integers — after setup, no
//! `Value` is hashed or cloned until results are materialized.
//!
//! Atoms with constant or bound arguments probe composite per-column-set
//! hash indexes ([`SymRelation::composite`]) instead of scanning, probing
//! *all* constant/bound columns at once; when both join sides are large the
//! planner switches to a sort-merge join over the relation's sorted
//! columnar view ([`SymRelation::sorted`]) instead. Negation is pushed
//! inward (De Morgan, [`Formula::negated`]) so guarded negations become
//! anti-joins rather than `adom^k` complements, and the residual unguarded
//! complements walk the sorted universe with an odometer instead of
//! materializing it. The active domain itself is copy-on-extend: a query
//! that adds no values (the common case — registers range over the
//! instance's domain) borrows the context's sorted domain and its symbols
//! at zero cost and only pays for what it adds. Inflationary fixpoints
//! iterate semi-naively (delta-driven) whenever the body is positive in the
//! fixpoint predicate, using the multi-linear expansion (delta in one
//! occurrence at a time) for non-linear bodies — except that
//! transitive-closure-shaped bodies (the `closure` module) run on a dedicated
//! closure operator: deltas extend through the sorted step relation by
//! prefix ranges, and the accumulated set lives in geometrically merged
//! sorted runs ([`SortedRowSet`]), so no round regenerates join pairs.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

use pt_relational::index::{SortedRowSet, SymRegister, SymRelation};
use pt_relational::intern::{FxHashMap, FxHashSet, Interner, Sym, SymTuple};
use pt_relational::{Instance, Relation, Tuple, Value};

use crate::closure::{closure_shape, ClosureShape};
use crate::formula::Formula;
use crate::par;
use crate::term::{Term, Var};

/// Minimum row count (on both sides) before the conjunction planner
/// prefers a sort-merge join over the probed / hash paths: below this,
/// sorting costs more than it saves.
const MERGE_JOIN_MIN: usize = 64;

/// An evaluation failure (malformed query, missing register, arity clash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

fn err<T>(msg: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError(msg.into()))
}

/// The interner shared between an [`Evaluator`] and every [`Bindings`] it
/// produces; symbols are only meaningful relative to it.
///
/// Two layers make it `Send + Sync` without a lock on the hot path:
///
/// * **Frozen snapshot** — an immutable [`Arc<Interner>`] holding everything
///   known up front: the sorted base active domain (symbols `0..base_len`,
///   in domain order) and, for engine sessions, every constant the prepared
///   rule plan can touch ([`EvalContext::freeze_values`]). Lookups and
///   resolves of frozen symbols are lock-free reads of immutable data.
/// * **Overlay** — a small `Mutex`-guarded append-only extension for values
///   the snapshot does not know (register values or constants outside the
///   base domain on the legacy per-call paths; never touched by a prepared
///   engine run, whose constants were all frozen at prepare time). Overlay
///   symbols are allocated *downward from `u32::MAX`*, so extending the
///   frozen snapshot later (an append-only swap at prepare time) can never
///   collide with an overlay symbol already issued.
///
/// Cloning is cheap (two `Arc`s); clones share both layers, preserving the
/// append-only interner-relativity invariant: a symbol, once issued, stays
/// bound to its value for the lifetime of the context that issued it.
#[derive(Clone, Debug)]
pub struct SharedInterner {
    frozen: Arc<Interner>,
    overlay: Arc<Mutex<Overlay>>,
}

/// The mutable overlay layer: values outside the frozen snapshot, with
/// symbols `u32::MAX - index`, plus a pointer to the *newest* frozen
/// snapshot of the owning context. The pointer is consulted (under this
/// lock) before an overlay symbol is allocated and updated by
/// [`EvalContext::freeze_values`] under the same lock, so a value can
/// never become reachable under two symbols of one context: whichever of
/// "freeze `v`" and "intern `v`" wins the lock determines `v`'s one
/// symbol, and the loser observes it.
#[derive(Debug)]
struct Overlay {
    vals: Vec<Value>,
    map: FxHashMap<Value, Sym>,
    latest: Arc<Interner>,
}

impl SharedInterner {
    /// An empty interner (fresh frozen layer, fresh overlay) — the
    /// placeholder carried by [`Bindings::unit`] / [`Bindings::empty`].
    fn fresh() -> Self {
        SharedInterner::from_frozen(Arc::new(Interner::new()))
    }

    fn from_frozen(frozen: Arc<Interner>) -> Self {
        let overlay = Overlay {
            vals: Vec::new(),
            map: FxHashMap::default(),
            latest: Arc::clone(&frozen),
        };
        SharedInterner {
            frozen,
            overlay: Arc::new(Mutex::new(overlay)),
        }
    }

    /// Whether two handles denote the same interner (same snapshot and
    /// overlay). Handles differing only in snapshot generation compare
    /// unequal and fall back to value-level alignment, which stays correct.
    fn same_as(&self, other: &SharedInterner) -> bool {
        Arc::ptr_eq(&self.frozen, &other.frozen) && Arc::ptr_eq(&self.overlay, &other.overlay)
    }

    /// Whether anything has been interned. Lock-free whenever the frozen
    /// layer is nonempty (every real evaluation context).
    fn has_syms(&self) -> bool {
        if !self.frozen.is_empty() {
            return true;
        }
        let overlay = self.overlay.lock().unwrap();
        !overlay.vals.is_empty() || !overlay.latest.is_empty()
    }

    /// The symbol of `v`, allocating an overlay symbol on first sight of a
    /// value outside the frozen snapshot. Under the overlay lock, the
    /// newest snapshot is consulted first: a value frozen by a `prepare`
    /// *after* this handle was taken keeps its frozen symbol.
    pub fn intern(&self, v: &Value) -> Sym {
        if let Some(s) = self.frozen.get(v) {
            return s;
        }
        let mut overlay = self.overlay.lock().unwrap();
        if let Some(s) = overlay.latest.get(v) {
            return s;
        }
        if let Some(&s) = overlay.map.get(v) {
            return s;
        }
        let s = Sym::MAX - overlay.vals.len() as Sym;
        overlay.vals.push(v.clone());
        overlay.map.insert(v.clone(), s);
        s
    }

    /// The symbol of `v`, if already interned (frozen snapshot first — the
    /// lock-free hot path — then the newest snapshot and the overlay).
    pub fn get(&self, v: &Value) -> Option<Sym> {
        if let Some(s) = self.frozen.get(v) {
            return Some(s);
        }
        let overlay = self.overlay.lock().unwrap();
        if let Some(s) = overlay.latest.get(v) {
            return Some(s);
        }
        overlay.map.get(v).copied()
    }

    /// The value behind a symbol, cloned ([`Value`] clones are cheap:
    /// integers copy, strings bump an `Arc`).
    ///
    /// # Panics
    /// Panics if `s` was not produced by this interner.
    pub fn resolve(&self, s: Sym) -> Value {
        if (s as usize) < self.frozen.len() {
            return self.frozen.resolve(s).clone();
        }
        let overlay = self.overlay.lock().unwrap();
        let from_top = (Sym::MAX - s) as usize;
        if from_top < overlay.vals.len() {
            overlay.vals[from_top].clone()
        } else {
            // a symbol frozen after this handle was taken (snapshot chain)
            overlay.latest.resolve(s).clone()
        }
    }
}

/// A slice that is either shared (zero-copy) or owned — the copy-on-extend
/// representation of the active domain: queries that add no values borrow
/// the run-wide base, queries that do pay one merge.
enum CowSlice<T> {
    Shared(Arc<Vec<T>>),
    Owned(Vec<T>),
}

impl<T> CowSlice<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            CowSlice::Shared(v) => v,
            CowSlice::Owned(v) => v,
        }
    }
}

/// Lazily interned base relations, shared across every query of a run —
/// and across every thread of a served engine. A racing first interning is
/// benign: interning is deterministic against the shared interner (base
/// relation values all live in the frozen base domain), so both racers
/// build the same relation and the loser adopts the winner's entry.
#[derive(Default)]
struct SymRelCache {
    rels: RwLock<FxHashMap<String, Arc<SymRelation>>>,
}

impl SymRelCache {
    /// The interned form of base relation `name`, interning it on first
    /// use. `None` when the instance has no such relation.
    fn get(
        &self,
        name: &str,
        instance: &Instance,
        syms: &SharedInterner,
    ) -> Option<Arc<SymRelation>> {
        if let Some(srel) = self.rels.read().unwrap().get(name) {
            return Some(Arc::clone(srel));
        }
        let rel = instance.get_ref(name)?;
        let srel = Arc::new(intern_relation(rel, syms));
        let mut cache = self.rels.write().unwrap();
        let slot = cache
            .entry(name.to_string())
            .or_insert_with(|| Arc::clone(&srel));
        Some(Arc::clone(slot))
    }

    /// Total composite indexes built across all interned relations.
    fn indexes_built(&self) -> usize {
        self.rels.read().unwrap().values().map(|r| r.built()).sum()
    }
}

/// Intern every tuple of `rel` against the two-layer interner, in the
/// relation's canonical order — the [`SymRelation::intern`] counterpart for
/// [`SharedInterner`].
fn intern_relation(rel: &Relation, syms: &SharedInterner) -> SymRelation {
    SymRelation::intern_with(rel, |v| syms.intern(v))
}

/// Shared per-run evaluation state: the instance, its active domain (sorted
/// and pre-interned), and the interned-relation/index cache. Build one per
/// transducer run (or any batch of queries over the same instance) and
/// evaluate every query through it via [`Evaluator::with_context`] /
/// [`Evaluator::with_register`] so the active-domain scan, relation
/// interning, and index builds are paid once instead of per query.
///
/// A context *owns* its instance (behind an `Arc` — relations themselves
/// are `Arc`-shared, so the snapshot is cheap). Database versions form a
/// lineage: [`EvalContext::successor`] derives the context of the next
/// version from the current one, extending the same append-only interner,
/// carrying interned relations untouched by the delta, and migrating
/// cached fixpoints incrementally instead of recomputing them.
pub struct EvalContext {
    instance: Arc<Instance>,
    /// The instance's active domain, sorted in the domain order.
    adom: Arc<Vec<Value>>,
    /// Symbols of `adom`, in the same order.
    adom_syms: Arc<Vec<Sym>>,
    /// Number of *dense* symbols: the root context of this lineage interned
    /// its sorted active domain first, so symbol order below `dense_len` is
    /// the domain order. Constant down the whole successor lineage (values
    /// added later get symbols at or above it, in freeze order).
    dense_len: Sym,
    /// Dense symbols whose values have left the current active domain
    /// (retracted by some delta along the lineage). Empty for a root
    /// context.
    stale_dense: Arc<FxHashSet<Sym>>,
    /// Non-dense symbols that *are* in the current active domain (values
    /// first seen by a delta along the lineage). Empty for a root context.
    fresh_adom: Arc<FxHashSet<Sym>>,
    /// The current interner handle: swapped (with an extended frozen
    /// snapshot, same overlay) by [`EvalContext::freeze_values`]. Runs
    /// clone the handle once and read the snapshot lock-free.
    syms: RwLock<SharedInterner>,
    /// The context's overlay identity — the one `Arc` every handle of this
    /// context shares, never replaced (and shared by every successor, so a
    /// register indexed against any version of a lineage stays usable) —
    /// for lock-free handle-provenance checks on the per-query hot path.
    overlay: Arc<Mutex<Overlay>>,
    rels: SymRelCache,
    /// Cached closure-shaped fixpoints, keyed by their defining formula;
    /// migrated incrementally across versions by
    /// [`EvalContext::successor`].
    fix: FixCache,
}

impl EvalContext {
    /// Scan `instance` once for its active domain, intern it into the
    /// frozen snapshot, and set up the (lazy) interned-relation cache.
    /// The instance is snapshotted (cheap: its relations are `Arc`-shared).
    pub fn new(instance: &Instance) -> Self {
        EvalContext::from_arc(Arc::new(instance.clone()))
    }

    /// Like [`EvalContext::new`], adopting an existing shared snapshot.
    pub fn from_arc(instance: Arc<Instance>) -> Self {
        let adom: Vec<Value> = instance.active_domain().into_iter().collect();
        let interner = Interner::from_values(adom.iter());
        let adom_syms: Vec<Sym> = (0..adom.len() as Sym).collect();
        let syms = SharedInterner::from_frozen(Arc::new(interner));
        EvalContext {
            instance,
            dense_len: adom.len() as Sym,
            adom: Arc::new(adom),
            adom_syms: Arc::new(adom_syms),
            stale_dense: Arc::new(FxHashSet::default()),
            fresh_adom: Arc::new(FxHashSet::default()),
            overlay: Arc::clone(&syms.overlay),
            syms: RwLock::new(syms),
            rels: SymRelCache::default(),
            fix: FixCache::default(),
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The shared handle of the underlying instance snapshot.
    pub fn instance_arc(&self) -> Arc<Instance> {
        Arc::clone(&self.instance)
    }

    /// The current interner handle (frozen snapshot + shared overlay) —
    /// cheap to clone. A caller grabs one handle and keeps it, so later
    /// snapshot extensions (concurrent `prepare` calls on the owning
    /// engine) never change symbols out from under it.
    pub fn shared_interner(&self) -> SharedInterner {
        self.syms.read().unwrap().clone()
    }

    /// Extend the frozen snapshot with `values` (a no-op for values it
    /// already knows). `pt_core::Engine::prepare` freezes every constant a
    /// transducer's reachable queries mention, so a prepared run's whole
    /// working set — base domain, base relations, constants, and every
    /// register derivable from them — lives in the lock-free frozen layer
    /// and the overlay mutex is never contended on the serving hot path.
    ///
    /// The extension is append-only (old symbols keep their ids) and swaps
    /// atomically under the write lock: evaluations holding the previous
    /// handle stay consistent, overlay symbols cannot collide with the
    /// extension (they grow downward from `u32::MAX`), and a value that
    /// already holds an overlay symbol keeps it instead of being re-frozen,
    /// so no value is ever reachable under two symbols of one context.
    pub fn freeze_values(&self, values: impl IntoIterator<Item = Value>) {
        let mut guard = self.syms.write().unwrap();
        let overlay_arc = Arc::clone(&guard.overlay);
        // hold the overlay lock across the whole extend-and-swap: a racing
        // intern() of one of the values either ran before (the value has an
        // overlay symbol and is filtered out here) or blocks until the new
        // snapshot is published in `latest` (and then adopts its symbol) —
        // no value can end up with two symbols. Lock order syms → overlay
        // is the only nesting anywhere, so this cannot deadlock.
        let mut overlay = overlay_arc.lock().unwrap();
        let missing: Vec<Value> = values
            .into_iter()
            .filter(|v| overlay.latest.get(v).is_none() && !overlay.map.contains_key(v))
            .collect();
        if missing.is_empty() {
            return;
        }
        // `latest` ⊇ every handed-out frozen snapshot of this context, so
        // extending it is an append-only extension of all of them
        let mut extended = (*overlay.latest).clone();
        for v in &missing {
            extended.intern(v);
        }
        let extended = Arc::new(extended);
        overlay.latest = Arc::clone(&extended);
        drop(overlay);
        *guard = SharedInterner {
            frozen: extended,
            overlay: overlay_arc,
        };
    }

    /// Intern and index `register` once, for use by every query of one
    /// configuration ([`Evaluator::with_register`]). The handle carries the
    /// context's interner; it is only valid with evaluators built from the
    /// same context.
    pub fn index_register(&self, register: &Relation) -> IndexedRegister {
        let syms = self.shared_interner();
        let sym = intern_relation(register, &syms);
        let mut seen: FxHashSet<Sym> = FxHashSet::default();
        let mut extras: Vec<Value> = Vec::new();
        for row in sym.rows() {
            for &s in row.iter() {
                if !self.sym_in_adom(s) && seen.insert(s) {
                    extras.push(syms.resolve(s));
                }
            }
        }
        IndexedRegister { sym, syms, extras }
    }

    /// Whether symbol `s` denotes a value of the *current* active domain.
    /// Dense symbols are in unless their value was retracted along the
    /// lineage; non-dense symbols are in only if a delta added their value.
    fn sym_in_adom(&self, s: Sym) -> bool {
        if s < self.dense_len {
            self.stale_dense.is_empty() || !self.stale_dense.contains(&s)
        } else {
            !self.fresh_adom.is_empty() && self.fresh_adom.contains(&s)
        }
    }

    /// Number of composite indexes built so far over base relations.
    pub fn indexes_built(&self) -> usize {
        self.rels.indexes_built()
    }

    /// Intern (and cache) the named base relation now instead of on first
    /// atom evaluation — `pt_core`'s `Engine::prepare` warms every relation
    /// a transducer's queries mention, so the first `run()` pays no lazy
    /// interning. A no-op for names absent from the instance.
    pub fn warm_relation(&self, name: &str) {
        let syms = self.shared_interner();
        let _ = self.rels.get(name, &self.instance, &syms);
    }

    /// Number of *dense* symbols. The root context of this lineage interned
    /// its sorted active domain first, so for symbols `s < base_len()`
    /// symbol order *is* the domain order; any symbol at or above it was
    /// interned later (by a delta or an overlay) and carries no order.
    pub fn base_len(&self) -> Sym {
        self.dense_len
    }

    /// Intern a value-level register into its canonical symbolic form.
    /// [`Relation`] iterates in the domain order, and interning is
    /// injective, so the rows arrive in the canonical `SymRegister` order
    /// without sorting.
    pub fn intern_register(&self, rel: &Relation) -> SymRegister {
        let syms = self.shared_interner();
        let arity = rel.arity().unwrap_or(0);
        let mut reg = SymRegister::with_capacity(arity, rel.len());
        let mut row = SymTuple::with_capacity(arity);
        for t in rel.iter() {
            row.clear();
            row.extend(t.iter().map(|v| syms.intern(v)));
            reg.push_row(&row);
        }
        reg
    }

    /// Resolve a symbolic register back to its value-level [`Relation`] —
    /// the inverse of [`EvalContext::intern_register`]. Only the output
    /// side of a run (result-tree nodes) pays this.
    pub fn materialize_register(&self, reg: &SymRegister) -> Relation {
        let syms = self.shared_interner();
        let mut rel = Relation::with_arity(reg.arity());
        for row in reg.rows() {
            rel.insert(row.iter().map(|&s| syms.resolve(s)).collect());
        }
        rel
    }

    /// Index an already-symbolic register for use by every query of one
    /// configuration — the symbolic counterpart of
    /// [`EvalContext::index_register`]. No value is interned or hashed: the
    /// rows are wrapped as-is, and only symbols outside the base domain
    /// (rare — registers usually range over query results) are resolved to
    /// extend the active domain.
    pub fn index_sym_register(&self, reg: &SymRegister) -> IndexedRegister {
        let syms = self.shared_interner();
        let sym = SymRelation::from_register(reg);
        let mut seen: FxHashSet<Sym> = FxHashSet::default();
        let mut extras: Vec<Value> = Vec::new();
        for &s in reg.data() {
            if !self.sym_in_adom(s) && seen.insert(s) {
                extras.push(syms.resolve(s));
            }
        }
        IndexedRegister { sym, syms, extras }
    }

    /// Sort symbol rows into the domain order of their resolved values —
    /// the sibling order of the transducer semantics and the canonical
    /// [`SymRegister`] row order. Fast path: base-domain symbols compare as
    /// raw `u32`s (their ids follow the domain order); only rows holding
    /// out-of-base symbols fall back to resolved-value comparison.
    pub fn sort_rows_in_domain_order(&self, rows: &mut [SymTuple]) {
        let base_len = self.base_len();
        if rows.iter().flatten().all(|&s| s < base_len) {
            rows.sort_unstable();
            return;
        }
        let syms = self.shared_interner();
        let cmp_syms = |a: Sym, b: Sym| {
            if a == b {
                std::cmp::Ordering::Equal
            } else if a < base_len && b < base_len {
                a.cmp(&b)
            } else {
                // out-of-base symbols are rare; the cloning resolve is fine
                syms.resolve(a).cmp(&syms.resolve(b))
            }
        };
        rows.sort_unstable_by(|x, y| {
            x.iter()
                .zip(y.iter())
                .map(|(&a, &b)| cmp_syms(a, b))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    /// Number of cached fixpoints currently held.
    pub fn fixpoints_cached(&self) -> usize {
        self.fix.len()
    }

    /// Derive the evaluation context of the *next* database version from
    /// this one. `touched` must name every base relation whose contents
    /// differ between this context's instance and `instance` (the contract
    /// `Engine::apply` upholds: it clones the instance and mutates exactly
    /// the delta's relations). Returns the successor and a
    /// [`SuccessorReport`] describing what the transition cost.
    ///
    /// * The interner lineage is shared: values new to `instance` extend
    ///   the frozen snapshot (append-only, same overlay), so every symbol
    ///   issued by this context keeps its meaning in the successor, and
    ///   registers or memo entries interned under either version stay
    ///   mutually consistent.
    /// * Interned relations untouched by the delta carry over; touched ones
    ///   that were already cached are re-interned (and thus re-sorted /
    ///   re-indexed) eagerly, so the first run on the new version pays no
    ///   lazy interning; the rest stay lazy.
    /// * Cached closure fixpoints migrate incrementally: entries whose base
    ///   relations are untouched (under an unchanged active domain) carry
    ///   over as-is; the rest are updated by semi-naive continuation for
    ///   pure inserts and delete-and-rederive for retractions.
    pub fn successor(
        &self,
        instance: Arc<Instance>,
        touched: &BTreeSet<String>,
    ) -> (EvalContext, SuccessorReport) {
        let adom: Vec<Value> = instance.active_domain().into_iter().collect();
        // freeze_values extends `latest` under the overlay lock, so the
        // handle taken right after it contains every current-domain value
        self.freeze_values(adom.iter().cloned());
        let syms = self.shared_interner();
        let adom_syms: Vec<Sym> = adom
            .iter()
            .map(|v| syms.get(v).expect("active-domain value was just frozen"))
            .collect();
        let dense_len = self.dense_len;
        let mut stale_dense: FxHashSet<Sym> = FxHashSet::default();
        for s in 0..dense_len {
            if adom.binary_search(&syms.resolve(s)).is_err() {
                stale_dense.insert(s);
            }
        }
        let fresh_adom: FxHashSet<Sym> = adom_syms
            .iter()
            .copied()
            .filter(|&s| s >= dense_len)
            .collect();
        let adom_unchanged = *self.adom == adom;

        let mut resorted = 0usize;
        let rels = SymRelCache::default();
        {
            let old = self.rels.rels.read().unwrap();
            let mut new = rels.rels.write().unwrap();
            for (name, srel) in old.iter() {
                if !touched.contains(name) {
                    if instance.get_ref(name).is_some() {
                        new.insert(name.clone(), Arc::clone(srel));
                    }
                } else if let Some(rel) = instance.get_ref(name) {
                    new.insert(name.clone(), Arc::new(intern_relation(rel, &syms)));
                    resorted += 1;
                }
            }
        }

        let next = EvalContext {
            instance,
            adom: Arc::new(adom),
            adom_syms: Arc::new(adom_syms),
            dense_len,
            stale_dense: Arc::new(stale_dense),
            fresh_adom: Arc::new(fresh_adom),
            overlay: Arc::clone(&self.overlay),
            syms: RwLock::new(syms),
            rels,
            fix: FixCache::default(),
        };
        self.fix.migrate(&next, touched, adom_unchanged);
        (
            next,
            SuccessorReport {
                resorted,
                adom_changed: !adom_unchanged,
            },
        )
    }
}

/// What an [`EvalContext::successor`] transition cost: how many cached
/// base relations had to be re-interned (and thus re-sorted), and whether
/// the active domain itself changed (which invalidates any result that
/// enumerated the domain).
#[derive(Clone, Copy, Debug)]
pub struct SuccessorReport {
    /// Cached base relations re-interned because the delta touched them.
    pub resorted: usize,
    /// Whether the active domain differs from the predecessor's.
    pub adom_changed: bool,
}

/// How a recognized closure shape drives the generic extension loop: which
/// step column the sorted view orders on, which delta column supplies the
/// probe key, and how a (delta row, step row) match emits.
#[derive(Clone, Copy)]
struct ClosureDims {
    sort_col: usize,
    probe_col: usize,
    emit: Emit,
}

/// How a closure extension emits its derived row.
#[derive(Clone, Copy)]
enum Emit {
    /// `(Δ[0], step[1])` — left-linear and doubling extension
    Left,
    /// `(step[0], Δ[1])` — right-linear extension
    Right,
    /// `(step[1],)` — unary reachability
    Member,
}

impl ClosureDims {
    fn new(sort_col: usize, probe_col: usize, emit: Emit) -> Self {
        ClosureDims {
            sort_col,
            probe_col,
            emit,
        }
    }

    /// Which column of the sorted step view supplies the emitted symbol.
    fn out_col(&self) -> usize {
        match self.emit {
            Emit::Right => 0,
            Emit::Left | Emit::Member => 1,
        }
    }

    fn emit_row(&self, d: &[Sym], o: Sym) -> SymTuple {
        match self.emit {
            Emit::Left => SymTuple::from([d[0], o]),
            Emit::Right => SymTuple::from([o, d[1]]),
            Emit::Member => SymTuple::from([o]),
        }
    }
}

/// A closure shape's base and step stages, evaluated to sorted rows.
struct ClosurePlan {
    base_rows: Vec<SymTuple>,
    step_rows: Vec<SymTuple>,
    dims: ClosureDims,
    arity: usize,
}

/// Run the closure delta loop to exhaustion: extend the frontier through
/// the sorted step view until nothing new is derived. `total` must already
/// contain the frontier rows; the frontier need not be disjoint from it.
///
/// When an ambient [`crate::par`] pool is installed (intra-run parallel
/// runs), each round's delta is partitioned across the pool: the probe
/// rows are independent, so chunked probing followed by a sorted merge
/// derives exactly the rows the sequential loop does, round for round.
fn closure_continue(
    mut total: SortedRowSet,
    mut delta: Vec<SymTuple>,
    step_rows: Vec<SymTuple>,
    dims: ClosureDims,
) -> SortedRowSet {
    if step_rows.is_empty() {
        return total;
    }
    let step_rel = SymRelation::from_rows(step_rows, Some(2));
    let view = step_rel
        .sorted(&[dims.sort_col])
        .expect("step relation is binary");
    let out = view.column(dims.out_col());
    /// Probe rows below this per-round count are extended sequentially —
    /// the chunk merge must not cost more than it saves.
    const PAR_MIN_DELTA: usize = 1024;
    while !delta.is_empty() {
        let mut parts = par::map_chunks(&delta, PAR_MIN_DELTA, |chunk| {
            let mut next: Vec<SymTuple> = Vec::new();
            for d in chunk {
                for i in view.prefix_range(&[d[dims.probe_col]]) {
                    next.push(dims.emit_row(d, out[i]));
                }
            }
            next.sort_unstable();
            next.dedup();
            next
        });
        let mut next = if parts.len() == 1 {
            parts.pop().expect("map_chunks yields at least one part")
        } else {
            let mut merged: Vec<SymTuple> = parts.concat();
            merged.sort_unstable();
            merged.dedup();
            merged
        };
        next.retain(|r| !total.contains(r));
        total.insert_sorted_batch(next.clone());
        delta = next;
    }
    total
}

/// One extension of every row of `rows` through `step_rows`; sorted and
/// deduped, *not* filtered against any accumulated set.
fn closure_extend_once(
    rows: &[SymTuple],
    step_rows: &[SymTuple],
    dims: ClosureDims,
) -> Vec<SymTuple> {
    if rows.is_empty() || step_rows.is_empty() {
        return Vec::new();
    }
    let step_rel = SymRelation::from_rows(step_rows.to_vec(), Some(2));
    let view = step_rel
        .sorted(&[dims.sort_col])
        .expect("step relation is binary");
    let out = view.column(dims.out_col());
    let mut next: Vec<SymTuple> = Vec::new();
    for d in rows {
        for i in view.prefix_range(&[d[dims.probe_col]]) {
            next.push(dims.emit_row(d, out[i]));
        }
    }
    next.sort_unstable();
    next.dedup();
    next
}

/// `(added, removed)` between two sorted, deduped row vectors.
fn diff_sorted(old: &[SymTuple], new: &[SymTuple]) -> (Vec<SymTuple>, Vec<SymTuple>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removed.push(old[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j].clone());
                j += 1;
            }
        }
    }
    removed.extend(old[i..].iter().cloned());
    added.extend(new[j..].iter().cloned());
    (added, removed)
}

/// `a \ b` for sorted, deduped row vectors.
fn sorted_difference(a: &[SymTuple], b: &[SymTuple]) -> Vec<SymTuple> {
    let mut out = Vec::with_capacity(a.len().saturating_sub(b.len()));
    let mut j = 0;
    for r in a {
        while j < b.len() && b[j] < *r {
            j += 1;
        }
        if j >= b.len() || b[j] != *r {
            out.push(r.clone());
        }
    }
    out
}

/// The DRed over-deletion pass: every cached row with *some* derivation
/// through a removed base fact or removed step edge, closed under one-step
/// extension through the old step relation. This is a superset of the rows
/// that actually lost every derivation; the rederivation pass puts the
/// survivors with alternative derivations back.
fn dred_overdelete(
    s: &[SymTuple],
    removed_base: &[SymTuple],
    removed_step: &[SymTuple],
    step_old: &[SymTuple],
    dims: ClosureDims,
) -> Vec<SymTuple> {
    let in_s = |r: &SymTuple| s.binary_search(r).is_ok();
    let mut frontier: Vec<SymTuple> = removed_base.iter().filter(|r| in_s(r)).cloned().collect();
    frontier.extend(
        closure_extend_once(s, removed_step, dims)
            .into_iter()
            .filter(|r| in_s(r)),
    );
    frontier.sort_unstable();
    frontier.dedup();
    if frontier.is_empty() || step_old.is_empty() {
        return frontier;
    }
    let mut deleted: BTreeSet<SymTuple> = frontier.iter().cloned().collect();
    let step_rel = SymRelation::from_rows(step_old.to_vec(), Some(2));
    let view = step_rel
        .sorted(&[dims.sort_col])
        .expect("step relation is binary");
    let out = view.column(dims.out_col());
    while !frontier.is_empty() {
        let mut next: Vec<SymTuple> = Vec::new();
        for d in &frontier {
            for i in view.prefix_range(&[d[dims.probe_col]]) {
                let r = dims.emit_row(d, out[i]);
                if in_s(&r) && !deleted.contains(&r) {
                    next.push(r);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        for r in &next {
            deleted.insert(r.clone());
        }
        frontier = next;
    }
    deleted.into_iter().collect()
}

/// Key of a cached fixpoint: the defining formula itself. Entries are only
/// stored for closure-shaped, register-free bodies evaluated under no
/// surrounding fixpoint bindings and no extra active-domain values, so the
/// result is a function of (database version, key) alone.
#[derive(Clone, PartialEq, Eq, Hash)]
struct FixKey {
    pred: String,
    vars: Vec<Var>,
    body: Formula,
}

/// A cached closure fixpoint plus the evaluated base/step rows it was
/// computed from — kept so a successor version can diff the new base and
/// step against them and *continue* the closure instead of recomputing it.
struct FixEntry {
    result: Arc<SymRelation>,
    base_rows: Vec<SymTuple>,
    step_rows: Vec<SymTuple>,
}

/// Closure fixpoints cached per database version, shared by every
/// evaluator of an [`EvalContext`] and migrated across versions by
/// [`EvalContext::successor`]. The lock is only held for lookups and
/// stores, never across an evaluation; a racing double-compute is benign
/// (both racers derive the same rows, first store wins).
#[derive(Default)]
struct FixCache {
    entries: Mutex<FxHashMap<FixKey, Arc<FixEntry>>>,
}

impl FixCache {
    fn lookup(&self, key: &FixKey) -> Option<Arc<SymRelation>> {
        self.entries
            .lock()
            .unwrap()
            .get(key)
            .map(|e| Arc::clone(&e.result))
    }

    fn store(&self, key: FixKey, entry: FixEntry) {
        self.entries
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::new(entry));
    }

    fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Seed `next`'s cache from this version's entries: carry entries the
    /// delta cannot have affected, incrementally update the rest, drop
    /// entries the gate no longer admits.
    fn migrate(&self, next: &EvalContext, touched: &BTreeSet<String>, adom_unchanged: bool) {
        let snapshot: Vec<(FixKey, Arc<FixEntry>)> = self
            .entries
            .lock()
            .unwrap()
            .iter()
            .map(|(k, e)| (k.clone(), Arc::clone(e)))
            .collect();
        for (key, entry) in snapshot {
            if adom_unchanged
                && key
                    .body
                    .base_relations()
                    .iter()
                    .all(|r| !touched.contains(r))
            {
                next.fix.entries.lock().unwrap().insert(key.clone(), entry);
                continue;
            }
            if let Some(migrated) = migrate_fix_entry(next, &key, &entry) {
                next.fix
                    .entries
                    .lock()
                    .unwrap()
                    .insert(key.clone(), Arc::new(migrated));
            }
        }
    }
}

/// Re-evaluate `key`'s base and step stages under `next` and continue the
/// cached closure into the new version: pure inserts seed a semi-naive
/// continuation from the old fixpoint; retractions first run DRed
/// over-deletion against the old step relation and then rederive from the
/// survivors. `None` drops the entry (the cache gate no longer admits it,
/// or a stage failed to evaluate).
fn migrate_fix_entry(next: &EvalContext, key: &FixKey, old: &FixEntry) -> Option<FixEntry> {
    let shape = closure_shape(&key.pred, &key.vars, &key.body)?;
    let ev = Evaluator::with_context(next, None, &key.body);
    // the gate re-checked under the new domain: a body constant whose value
    // was retracted from the database now *extends* the active domain, and
    // the cached-result invariant no longer holds
    if ev.extended_domain {
        return None;
    }
    let plan = ev.closure_plan(&key.vars, &shape, &FixEnv::new()).ok()?;
    let dims = plan.dims;
    let (added_base, removed_base) = diff_sorted(&old.base_rows, &plan.base_rows);
    let (added_step, removed_step) = diff_sorted(&old.step_rows, &plan.step_rows);
    if added_base.is_empty()
        && removed_base.is_empty()
        && added_step.is_empty()
        && removed_step.is_empty()
    {
        // the delta touched a feeding relation without changing this
        // fixpoint's evaluated stages
        return Some(FixEntry {
            result: Arc::clone(&old.result),
            base_rows: plan.base_rows,
            step_rows: plan.step_rows,
        });
    }
    let mut survivors: Vec<SymTuple> = old.result.rows().to_vec();
    survivors.sort_unstable();
    let retracting = !removed_base.is_empty() || !removed_step.is_empty();
    if retracting {
        let deleted = dred_overdelete(
            &survivors,
            &removed_base,
            &removed_step,
            &old.step_rows,
            dims,
        );
        survivors = sorted_difference(&survivors, &deleted);
    }
    // the continuation frontier: new base facts not already derived, plus
    // one-step extensions of the survivors not already derived. Pure
    // inserts only need extensions through the *added* step edges (the old
    // fixpoint is closed under the old ones); after deletions the
    // survivor set is not closed, so extensions go through the full step.
    let step_ext: &[SymTuple] = if retracting {
        &plan.step_rows
    } else {
        &added_step
    };
    let mut seed = sorted_difference(&plan.base_rows, &survivors);
    seed.extend(sorted_difference(
        &closure_extend_once(&survivors, step_ext, dims),
        &survivors,
    ));
    seed.sort_unstable();
    seed.dedup();
    let mut total = SortedRowSet::new();
    total.insert_sorted_batch(survivors);
    total.insert_sorted_batch(seed.clone());
    let total = closure_continue(total, seed, plan.step_rows.clone(), dims);
    Some(FixEntry {
        result: Arc::new(SymRelation::from_rows(total.into_rows(), Some(plan.arity))),
        base_rows: plan.base_rows,
        step_rows: plan.step_rows,
    })
}

/// A register relation interned and indexed once per configuration: the
/// tuples as symbol rows (relative to the owning context's interner) with
/// lazily built composite indexes. Register atoms evaluate on this
/// representation without touching `Value`s, however many queries the
/// configuration runs (the τ2 hot path).
pub struct IndexedRegister {
    sym: SymRelation,
    syms: SharedInterner,
    /// Register values outside the context's base active domain (usually
    /// none — registers range over query results), computed once here so
    /// per-query setup never re-scans the register.
    extras: Vec<Value>,
}

impl IndexedRegister {
    /// The interned rows, for evaluation through `ctx`. Panics when the
    /// register was indexed against another context: its symbols would
    /// mean other values there.
    pub(crate) fn relation_in(&self, ctx: &EvalContext) -> &SymRelation {
        // lock-free provenance check: a context's overlay Arc is never
        // replaced, so pointer identity pins the register to this context
        // without touching the snapshot RwLock
        assert!(
            Arc::ptr_eq(&self.syms.overlay, &ctx.overlay),
            "IndexedRegister used with a context other than its own"
        );
        &self.sym
    }
}

/// A finite set of variable assignments: the result of evaluating a formula.
///
/// Invariant: `vars` lists the formula's free variables (each exactly once);
/// every row has `vars.len()` symbols, all relative to the carried interner.
#[derive(Clone, Debug)]
pub struct Bindings {
    vars: Vec<Var>,
    rows: FxHashSet<SymTuple>,
    syms: SharedInterner,
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Self) -> bool {
        // symbol rows are only comparable under a shared interner; fall back
        // to resolved values otherwise
        if self.syms.same_as(&other.syms) {
            self.vars == other.vars && self.rows == other.rows
        } else {
            self.vars == other.vars
                && self.len() == other.len()
                && self.value_rows().into_iter().collect::<HashSet<_>>()
                    == other.value_rows().into_iter().collect::<HashSet<_>>()
        }
    }
}

impl Eq for Bindings {}

/// Join keys: the common cases (zero, one, two shared columns) avoid a heap
/// allocation per probed row.
#[derive(PartialEq, Eq, Hash)]
enum JoinKey {
    Zero,
    One(Sym),
    Two(Sym, Sym),
    Many(SymTuple),
}

fn join_key(row: &[Sym], positions: &[usize]) -> JoinKey {
    match positions {
        [] => JoinKey::Zero,
        [i] => JoinKey::One(row[*i]),
        [i, j] => JoinKey::Two(row[*i], row[*j]),
        _ => JoinKey::Many(positions.iter().map(|&i| row[i]).collect()),
    }
}

impl Bindings {
    fn fresh_syms() -> SharedInterner {
        SharedInterner::fresh()
    }

    /// Adopt the interner the result of a binary operation should carry:
    /// `self`'s, unless it is empty and the other side's is not (as happens
    /// when folding from [`Bindings::unit`] / [`Bindings::empty`]).
    fn adopt_syms(&self, other: &Bindings) -> SharedInterner {
        if !self.syms.has_syms() && other.syms.has_syms() {
            other.syms.clone()
        } else {
            self.syms.clone()
        }
    }

    /// `other`, with rows expressed relative to `syms`. Bindings produced by
    /// one evaluator share an interner and borrow through unchanged; mixing
    /// results of independent evaluators translates symbols through their
    /// values so binary operations stay correct rather than comparing
    /// incompatible ids.
    fn aligned_to<'o>(
        other: &'o Bindings,
        syms: &SharedInterner,
        storage: &'o mut Option<Bindings>,
    ) -> &'o Bindings {
        if other.syms.same_as(syms) || !other.syms.has_syms() {
            return other;
        }
        let translated: FxHashSet<SymTuple> = other
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&s| syms.intern(&other.syms.resolve(s)))
                    .collect()
            })
            .collect();
        storage.insert(Bindings::with_syms(
            other.vars.clone(),
            translated,
            syms.clone(),
        ))
    }

    fn with_syms(vars: Vec<Var>, rows: FxHashSet<SymTuple>, syms: SharedInterner) -> Self {
        Bindings { vars, rows, syms }
    }

    /// The unit: no columns, one (empty) row. Identity for joins.
    pub fn unit() -> Self {
        let mut rows = FxHashSet::default();
        rows.insert(SymTuple::new());
        Bindings::with_syms(Vec::new(), rows, Bindings::fresh_syms())
    }

    /// No rows over the given columns.
    pub fn empty(vars: Vec<Var>) -> Self {
        Bindings::with_syms(vars, FxHashSet::default(), Bindings::fresh_syms())
    }

    /// The columns.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, resolved back to values (column order = [`Bindings::vars`]).
    pub fn value_rows(&self) -> Vec<Vec<Value>> {
        self.rows
            .iter()
            .map(|row| row.iter().map(|&s| self.syms.resolve(s)).collect())
            .collect()
    }

    /// Whether the assignment `vals` (in [`Bindings::vars`] order) is
    /// present.
    pub fn contains_row(&self, vals: &[Value]) -> bool {
        if vals.len() != self.vars.len() {
            return false;
        }
        let Some(row) = vals
            .iter()
            .map(|v| self.syms.get(v))
            .collect::<Option<SymTuple>>()
        else {
            return false; // a value never interned occurs in no row
        };
        self.rows.contains(&row)
    }

    fn col(&self, v: &Var) -> Option<usize> {
        self.vars.iter().position(|u| u == v)
    }

    /// Natural join with `other` on shared columns: build a hash table over
    /// `other` keyed by the shared columns, probe it with `self`'s rows.
    pub fn join(&self, other: &Bindings) -> Bindings {
        let syms = self.adopt_syms(other);
        let mut aligned = None;
        let other = Bindings::aligned_to(other, &syms, &mut aligned);
        let shared: Vec<(usize, usize)> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.col(v).map(|j| (i, j)))
            .collect();
        let extra: Vec<usize> = (0..other.vars.len())
            .filter(|j| !shared.iter().any(|(_, sj)| sj == j))
            .collect();
        let mut vars = self.vars.clone();
        vars.extend(extra.iter().map(|&j| other.vars[j].clone()));

        let probe_cols: Vec<usize> = shared.iter().map(|&(i, _)| i).collect();
        let build_cols: Vec<usize> = shared.iter().map(|&(_, j)| j).collect();

        // build over the smaller operand's role: `other` is the build side.
        // Most keys match a single row; storing that row inline avoids one
        // heap list per distinct key.
        enum Matches<'a> {
            One(&'a SymTuple),
            Many(Vec<&'a SymTuple>),
        }
        let mut table: FxHashMap<JoinKey, Matches<'_>> = FxHashMap::default();
        for row in &other.rows {
            table
                .entry(join_key(row, &build_cols))
                .and_modify(|m| match m {
                    Matches::One(first) => *m = Matches::Many(vec![first, row]),
                    Matches::Many(v) => v.push(row),
                })
                .or_insert(Matches::One(row));
        }

        let mut rows = FxHashSet::default();
        let mut emit = |row: &SymTuple, m: &SymTuple| {
            let mut out = row.clone();
            out.extend(extra.iter().map(|&j| m[j]));
            rows.insert(out);
        };
        for row in &self.rows {
            match table.get(&join_key(row, &probe_cols)) {
                Some(Matches::One(m)) => emit(row, m),
                Some(Matches::Many(ms)) => {
                    for m in ms {
                        emit(row, m);
                    }
                }
                None => {}
            }
        }
        Bindings::with_syms(vars, rows, syms)
    }

    /// Keep rows whose projection onto `other.vars ∩ self.vars` appears in
    /// `other` (semi-join). `other`'s columns must all occur in `self`.
    pub fn semi_join(&self, other: &Bindings, negated: bool) -> Bindings {
        let syms = self.adopt_syms(other);
        let mut aligned = None;
        let other = Bindings::aligned_to(other, &syms, &mut aligned);
        let positions: Vec<usize> = other
            .vars
            .iter()
            .map(|v| self.col(v).expect("semi_join: column missing"))
            .collect();
        let identity: Vec<usize> = (0..other.vars.len()).collect();
        let keys: FxHashSet<JoinKey> = other.rows.iter().map(|r| join_key(r, &identity)).collect();
        let rows = self
            .rows
            .iter()
            .filter(|row| keys.contains(&join_key(row, &positions)) != negated)
            .cloned()
            .collect();
        Bindings::with_syms(self.vars.clone(), rows, syms)
    }

    /// Project onto the given columns (deduplicating rows).
    pub fn project(&self, keep: &[Var]) -> Bindings {
        let positions: Vec<usize> = keep
            .iter()
            .map(|v| self.col(v).expect("project: column missing"))
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|row| positions.iter().map(|&i| row[i]).collect())
            .collect();
        Bindings::with_syms(keep.to_vec(), rows, self.syms.clone())
    }

    /// Extend with every column of `target` not yet present, ranging over
    /// the pre-interned domain symbols `adom_syms` (cylindrification),
    /// consuming `self`: when no column is missing (the common case for
    /// closed conjunction results) the bindings pass through without
    /// cloning a single row.
    fn cylindrify_syms(self, target: &[Var], adom_syms: &[Sym]) -> Bindings {
        let missing: Vec<Var> = target
            .iter()
            .filter(|v| self.col(v).is_none())
            .cloned()
            .collect();
        if missing.is_empty() {
            return self;
        }
        let mut vars = self.vars;
        vars.extend(missing.iter().cloned());
        let mut rows: FxHashSet<SymTuple> = self.rows;
        for _ in &missing {
            let mut next = FxHashSet::default();
            for row in &rows {
                for &s in adom_syms {
                    let mut out = row.clone();
                    out.push(s);
                    next.insert(out);
                }
            }
            rows = next;
        }
        Bindings::with_syms(vars, rows, self.syms)
    }

    /// The complement: all assignments over the pre-interned domain symbols
    /// `adom_syms` for the same columns that are not present, computed
    /// without materializing the `adom^k` universe: the present rows are
    /// sorted once, and a mixed-radix odometer walks the universe in the
    /// same ascending order, emitting exactly the tuples the present-row
    /// cursor skips. Symbol order over the sorted domain is total, so one linear
    /// merge replaces the set-difference against a cylindrified universe
    /// (which cost `k` intermediate hash sets of size up to `adom^k`).
    fn complement_syms(&self, adom_syms: &[Sym]) -> Bindings {
        let k = self.vars.len();
        // a closed formula complements to the unit iff it has no rows
        if k == 0 {
            let mut rows = FxHashSet::default();
            if self.rows.is_empty() {
                rows.insert(SymTuple::new());
            }
            return Bindings::with_syms(Vec::new(), rows, self.syms.clone());
        }
        let mut dom: Vec<Sym> = adom_syms.to_vec();
        dom.sort_unstable();
        dom.dedup();
        let mut rows = FxHashSet::default();
        if !dom.is_empty() {
            // present rows ascending; rows outside dom^k sort in as strays
            // the cursor steps past without a universe match
            let mut present: Vec<&SymTuple> = self.rows.iter().collect();
            present.sort_unstable();
            let mut cursor = present.into_iter().peekable();
            let mut digits = vec![0usize; k];
            let mut cur: Vec<Sym> = vec![dom[0]; k];
            'universe: loop {
                while cursor
                    .peek()
                    .is_some_and(|row| row.as_slice() < cur.as_slice())
                {
                    cursor.next();
                }
                if cursor
                    .peek()
                    .is_some_and(|row| row.as_slice() == cur.as_slice())
                {
                    cursor.next();
                } else {
                    rows.insert(SymTuple::from(cur.as_slice()));
                }
                // increment the odometer, last digit fastest, so `cur`
                // enumerates dom^k in ascending lexicographic order
                for i in (0..k).rev() {
                    digits[i] += 1;
                    if digits[i] < dom.len() {
                        cur[i] = dom[digits[i]];
                        continue 'universe;
                    }
                    digits[i] = 0;
                    cur[i] = dom[0];
                }
                break;
            }
        }
        Bindings::with_syms(self.vars.clone(), rows, self.syms.clone())
    }

    /// Union of two binding sets over the same column set (columns may be
    /// ordered differently).
    pub fn union(&self, other: &Bindings) -> Bindings {
        let syms = self.adopt_syms(other);
        let mut aligned = None;
        let other = Bindings::aligned_to(other, &syms, &mut aligned);
        let mut rows = self.rows.clone();
        if other.vars == self.vars {
            rows.extend(other.rows.iter().cloned());
        } else {
            let aligned = other.project(&self.vars);
            rows.extend(aligned.rows);
        }
        Bindings::with_syms(self.vars.clone(), rows, syms)
    }

    /// Move `other`'s rows into `self` (same column set, possibly ordered
    /// differently). Both sides must carry the same interner — the in-place
    /// union used when folding disjuncts of one evaluator.
    fn absorb(&mut self, other: Bindings) {
        debug_assert!(
            self.syms.same_as(&other.syms) || !self.syms.has_syms() || !other.syms.has_syms(),
            "absorb requires a shared interner"
        );
        if other.vars == self.vars {
            if self.rows.is_empty() {
                // folding into a fresh accumulator: take the set wholesale
                self.rows = other.rows;
            } else {
                self.rows.extend(other.rows);
            }
        } else {
            let aligned = other.project(&self.vars);
            self.rows.extend(aligned.rows);
        }
    }

    /// The rows projected onto `order`, as raw symbol tuples *without*
    /// deduplication — sound only when `order` is a permutation of the
    /// columns (the projection is then injective). The grouping hot path
    /// uses this to skip one hash-set round-trip per query.
    pub(crate) fn rows_in_order_vec(&self, order: &[Var]) -> Vec<SymTuple> {
        debug_assert_eq!(order.len(), self.vars.len());
        let positions: Vec<usize> = order
            .iter()
            .map(|v| self.col(v).expect("rows_in_order_vec: column missing"))
            .collect();
        if positions.iter().enumerate().all(|(i, &p)| i == p) {
            return self.rows.iter().cloned().collect();
        }
        self.rows
            .iter()
            .map(|row| positions.iter().map(|&i| row[i]).collect())
            .collect()
    }

    /// The rows projected onto `order`, as raw symbol tuples.
    pub(crate) fn rows_in_order(&self, order: &[Var]) -> FxHashSet<SymTuple> {
        let positions: Vec<usize> = order
            .iter()
            .map(|v| self.col(v).expect("rows_in_order: column missing"))
            .collect();
        self.rows
            .iter()
            .map(|row| positions.iter().map(|&i| row[i]).collect())
            .collect()
    }

    /// Extract the rows as a [`Relation`] with columns in `order`.
    pub fn to_relation(&self, order: &[Var]) -> Relation {
        let positions: Vec<usize> = order
            .iter()
            .map(|v| self.col(v).expect("to_relation: column missing"))
            .collect();
        let mut rel = Relation::with_arity(order.len());
        for row in &self.rows {
            rel.insert(
                positions
                    .iter()
                    .map(|&i| self.syms.resolve(row[i]))
                    .collect(),
            );
        }
        rel
    }
}

/// How the evaluator sees the register: absent, interned privately (raw
/// `&Relation` constructors), or shared per-configuration
/// ([`Evaluator::with_register`]).
enum RegisterHandle<'a> {
    None,
    Owned(IndexedRegister),
    Shared(&'a IndexedRegister),
}

impl<'a> RegisterHandle<'a> {
    fn get(&self) -> Option<&IndexedRegister> {
        match self {
            RegisterHandle::None => None,
            RegisterHandle::Owned(r) => Some(r),
            RegisterHandle::Shared(r) => Some(r),
        }
    }
}

/// The register as supplied to a constructor, before interning.
enum RegisterSource<'a> {
    Raw(Option<&'a Relation>),
    Indexed(Option<&'a IndexedRegister>),
}

/// Which interned-relation cache an evaluator consults: its own
/// (stand-alone [`Evaluator::for_formula`]) or a run-wide shared one
/// ([`Evaluator::with_context`]).
enum CacheHandle<'a> {
    Owned(SymRelCache),
    Shared(&'a SymRelCache),
}

impl<'a> CacheHandle<'a> {
    fn get(&self) -> &SymRelCache {
        match self {
            CacheHandle::Owned(c) => c,
            CacheHandle::Shared(c) => c,
        }
    }
}

/// Evaluator for formulas over a fixed instance, register, and active domain.
pub struct Evaluator<'a> {
    instance: &'a Instance,
    register: RegisterHandle<'a>,
    /// The active domain, sorted: shared with the context when this query
    /// adds no values (the common case), merged copy otherwise.
    adom: CowSlice<Value>,
    /// Symbols of the active domain (order unspecified): shared with the
    /// context when this query adds no values.
    adom_syms: CowSlice<Sym>,
    /// Whether this query extends the context's active domain (register
    /// values or constants outside it) — when it does, cached fixpoints do
    /// not apply.
    extended_domain: bool,
    syms: SharedInterner,
    rels: CacheHandle<'a>,
    /// The context's fixpoint cache, when evaluating through one.
    fix: Option<&'a FixCache>,
}

/// Fixpoint-bound predicates, kept symbolic between rounds.
type FixEnv = BTreeMap<String, Arc<SymRelation>>;

impl<'a> Evaluator<'a> {
    /// Create an evaluator whose active domain is the instance's values, the
    /// register's values, and `formula`'s constants.
    pub fn for_formula(
        instance: &'a Instance,
        register: Option<&'a Relation>,
        formula: &Formula,
    ) -> Self {
        let base: Vec<Value> = instance.active_domain().into_iter().collect();
        let interner = Interner::from_values(base.iter());
        let base_syms: Vec<Sym> = (0..base.len() as Sym).collect();
        Evaluator::build(
            instance,
            CacheHandle::Owned(SymRelCache::default()),
            Arc::new(base),
            Arc::new(base_syms),
            SharedInterner::from_frozen(Arc::new(interner)),
            RegisterSource::Raw(register),
            formula,
            None,
        )
    }

    /// Like [`Evaluator::for_formula`], but sharing `ctx`'s pre-interned
    /// active domain, relations, and index caches across evaluations.
    pub fn with_context(
        ctx: &'a EvalContext,
        register: Option<&'a Relation>,
        formula: &Formula,
    ) -> Self {
        Evaluator::build(
            &ctx.instance,
            CacheHandle::Shared(&ctx.rels),
            Arc::clone(&ctx.adom),
            Arc::clone(&ctx.adom_syms),
            ctx.shared_interner(),
            RegisterSource::Raw(register),
            formula,
            Some(&ctx.fix),
        )
    }

    /// Like [`Evaluator::with_context`], but with a register already
    /// interned and indexed once via [`EvalContext::index_register`] — the
    /// per-configuration hot path of the transducer semantics.
    pub fn with_register(
        ctx: &'a EvalContext,
        register: Option<&'a IndexedRegister>,
        formula: &Formula,
    ) -> Self {
        // adopt the register's interner handle: the register was indexed
        // against a snapshot of this context, and using exactly that
        // snapshot keeps one configuration's queries mutually consistent
        // even if a concurrent `prepare` extends the context mid-run
        let syms = match register {
            Some(ireg) => {
                ireg.relation_in(ctx);
                ireg.syms.clone()
            }
            None => ctx.shared_interner(),
        };
        Evaluator::build(
            &ctx.instance,
            CacheHandle::Shared(&ctx.rels),
            Arc::clone(&ctx.adom),
            Arc::clone(&ctx.adom_syms),
            syms,
            RegisterSource::Indexed(register),
            formula,
            Some(&ctx.fix),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        instance: &'a Instance,
        rels: CacheHandle<'a>,
        base: Arc<Vec<Value>>,
        base_syms: Arc<Vec<Sym>>,
        syms: SharedInterner,
        register: RegisterSource<'a>,
        formula: &Formula,
        fix: Option<&'a FixCache>,
    ) -> Self {
        // copy-on-extend: collect only the values this query *adds* to the
        // base active domain (register values and formula constants), so the
        // per-query cost is O(|register| + |constants|), not O(|adom|)
        let mut extra: BTreeSet<Value> = BTreeSet::new();
        {
            let in_base = |v: &Value| base.binary_search(v).is_ok();
            match &register {
                // indexed registers computed their out-of-base values once
                // at EvalContext::index_register time
                RegisterSource::Indexed(Some(ireg)) => {
                    extra.extend(ireg.extras.iter().cloned());
                }
                RegisterSource::Raw(Some(reg)) => {
                    for t in reg.iter() {
                        for v in t {
                            if !in_base(v) {
                                extra.insert(v.clone());
                            }
                        }
                    }
                }
                RegisterSource::Raw(None) | RegisterSource::Indexed(None) => {}
            }
            for c in formula.constants() {
                if !in_base(&c) {
                    extra.insert(c);
                }
            }
        }
        let extended_domain = !extra.is_empty();
        let (adom, adom_syms) = if extra.is_empty() {
            (CowSlice::Shared(base), CowSlice::Shared(base_syms))
        } else {
            let extra_syms: Vec<Sym> = extra.iter().map(|v| syms.intern(v)).collect();
            // merge the two sorted, disjoint sequences
            let mut merged: Vec<Value> = Vec::with_capacity(base.len() + extra.len());
            let mut extras = extra.into_iter().peekable();
            for v in base.iter() {
                while extras.peek().is_some_and(|e| e < v) {
                    merged.push(extras.next().unwrap());
                }
                merged.push(v.clone());
            }
            merged.extend(extras);
            let mut all_syms: Vec<Sym> = (*base_syms).clone();
            all_syms.extend(extra_syms);
            (CowSlice::Owned(merged), CowSlice::Owned(all_syms))
        };
        let register = match register {
            RegisterSource::Raw(Some(rel)) => RegisterHandle::Owned(IndexedRegister {
                sym: intern_relation(rel, &syms),
                syms: syms.clone(),
                // owned handles are private to this evaluator; the extras
                // were already folded into `adom` above
                extras: Vec::new(),
            }),
            RegisterSource::Indexed(Some(ireg)) => RegisterHandle::Shared(ireg),
            RegisterSource::Raw(None) | RegisterSource::Indexed(None) => RegisterHandle::None,
        };
        Evaluator {
            instance,
            register,
            adom,
            adom_syms,
            extended_domain,
            syms,
            rels,
            fix,
        }
    }

    /// The active domain in sorted order.
    pub fn adom(&self) -> &[Value] {
        self.adom.as_slice()
    }

    fn sym(&self, v: &Value) -> Sym {
        self.syms.intern(v)
    }

    /// Symbols of the whole active domain (order unspecified).
    fn adom_syms(&self) -> &[Sym] {
        self.adom_syms.as_slice()
    }

    /// Close `b` over the active domain: extend it with every missing
    /// column of `target` (cylindrification over pre-interned symbols).
    pub fn close(&self, b: Bindings, target: &[Var]) -> Bindings {
        b.cylindrify_syms(target, self.adom_syms())
    }

    /// Unit bindings carrying this evaluator's interner.
    fn unit_b(&self) -> Bindings {
        let mut rows = FxHashSet::default();
        rows.insert(SymTuple::new());
        Bindings::with_syms(Vec::new(), rows, self.syms.clone())
    }

    /// Empty bindings carrying this evaluator's interner.
    fn empty_b(&self, vars: Vec<Var>) -> Bindings {
        Bindings::with_syms(vars, FxHashSet::default(), self.syms.clone())
    }

    /// Evaluate the formula to its satisfying assignments.
    pub fn eval(&self, f: &Formula) -> Result<Bindings, EvalError> {
        self.eval_env(f, &FixEnv::new())
    }

    /// The interned relation an atom refers to: a fixpoint binding from
    /// `env`, or a base relation of the instance (interned and cached on
    /// first use). `None` when the name is unknown (empty result).
    fn sym_relation_for(&self, name: &str, env: &FixEnv) -> Option<Arc<SymRelation>> {
        if let Some(srel) = env.get(name) {
            return Some(Arc::clone(srel));
        }
        self.rels.get().get(name, self.instance, &self.syms)
    }

    fn eval_env(&self, f: &Formula, env: &FixEnv) -> Result<Bindings, EvalError> {
        match f {
            Formula::True => Ok(self.unit_b()),
            Formula::False => Ok(self.empty_b(Vec::new())),
            Formula::Rel(name, args) => match self.sym_relation_for(name, env) {
                Some(srel) => self.atom_bindings(&srel, args, name),
                None => Ok(Bindings::with_syms(
                    atom_vars(args),
                    FxHashSet::default(),
                    self.syms.clone(),
                )),
            },
            Formula::Reg(args) => match self.register.get() {
                Some(ireg) => self.atom_bindings(&ireg.sym, args, "Reg"),
                None => err("register atom used but no register supplied"),
            },
            Formula::Eq(a, b) => Ok(self.eval_eq(a, b)),
            Formula::Neq(a, b) => Ok(self.eval_neq(a, b)),
            Formula::And(fs) => self.eval_and(fs, env),
            Formula::Or(fs) => {
                let target: Vec<Var> = f.free_vars().into_iter().collect();
                let mut acc = self.empty_b(target.clone());
                for g in fs {
                    let b = self.eval_env(g, env)?;
                    acc.absorb(self.close(b, &target));
                }
                Ok(acc)
            }
            Formula::Not(g) => match &**g {
                // atom-level negation complements the (usually narrow)
                // atom; ¬∃ complements over the existential's free
                // variables — usually none or few (this is also how ∀
                // evaluates, and what [`Formula::pushed`] normalizes ∀
                // into, so the hot path never rebuilds a formula here)
                Formula::Rel(..) | Formula::Reg(..) | Formula::Fix { .. } | Formula::Exists(..) => {
                    let b = self.eval_env(g, env)?;
                    Ok(b.complement_syms(self.adom_syms()))
                }
                // structured negation: push the ¬ inward (De Morgan) so
                // guarded negations become anti-joins instead of adom^k
                // complements
                _ => self.eval_env(&g.negated(), env),
            },
            Formula::Exists(vs, g) => {
                let b = self.eval_env(g, env)?;
                let keep: Vec<Var> = b
                    .vars()
                    .iter()
                    .filter(|v| !vs.contains(v))
                    .cloned()
                    .collect();
                let mut out = b.project(&keep);
                // a quantified variable absent from the body still ranges
                // over the active domain; an empty domain falsifies ∃ (the
                // domain-emptiness check comes first — it is a load, while
                // the vacuousness check walks the body).
                if self.adom_syms().is_empty() {
                    let free = g.free_vars();
                    if vs.iter().any(|v| !free.contains(v)) {
                        out = self.empty_b(keep);
                    }
                }
                Ok(out)
            }
            Formula::Forall(vs, g) => {
                // ∀x̄ g ≡ ¬∃x̄ ¬g: evaluate the existential over the pushed
                // negation, then complement over the ∀'s free variables —
                // usually none or few, so the complement stays tiny
                let inner = Formula::exists(vs.iter().cloned(), g.negated());
                let b = self.eval_env(&inner, env)?;
                Ok(b.complement_syms(self.adom_syms()))
            }
            Formula::Fix {
                pred,
                vars,
                body,
                args,
            } => {
                let free = body.free_vars();
                if !free.iter().all(|v| vars.contains(v)) {
                    return err(format!(
                        "fixpoint body of {pred} has free variables outside its tuple: {free:?}"
                    ));
                }
                let fixed = self.eval_fix(pred, vars, body, env)?;
                self.atom_bindings(&fixed, args, pred)
            }
        }
    }

    /// Evaluate a fixpoint body stage to its rows over `vars`.
    fn eval_stage(
        &self,
        body: &Formula,
        vars: &[Var],
        env: &FixEnv,
    ) -> Result<FxHashSet<SymTuple>, EvalError> {
        let b = self.eval_env(body, env)?;
        Ok(self.close(b, vars).rows_in_order(vars))
    }

    /// Inflationary fixpoint: J⁰ = ∅, Jⁱ⁺¹ = Jⁱ ∪ Fφ(Jⁱ) (Section 2),
    /// iterated semi-naively whenever the body is strictly positive in
    /// `pred` ([`Formula::positive_occurrences`]), with the multi-linear
    /// delta expansion for bodies mentioning `pred` more than once. The
    /// result stays symbolic: rounds never materialize values.
    fn eval_fix(
        &self,
        pred: &str,
        vars: &[Var],
        body: &Formula,
        env: &FixEnv,
    ) -> Result<Arc<SymRelation>, EvalError> {
        match body.positive_occurrences(pred) {
            // a strictly positive body is monotone, so the inflationary
            // fixpoint is the least fixpoint; closure-shaped bodies then
            // run on the dedicated closure operator over sorted storage
            // (with cross-run and cross-version caching), everything else
            // on the semi-naive delta loop
            Some(k) if k >= 1 => match closure_shape(pred, vars, body) {
                Some(shape) => self.eval_fix_closure(pred, vars, body, &shape, env),
                None => Ok(Arc::new(
                    self.eval_fix_semi_naive(pred, vars, body, env, k)?,
                )),
            },
            // non-positive bodies iterate naively (the inflationary
            // semantics itself never requires monotonicity); zero
            // occurrences converge in two naive rounds anyway
            _ => Ok(Arc::new(self.eval_fix_naive(pred, vars, body, env)?)),
        }
    }

    fn eval_fix_naive(
        &self,
        pred: &str,
        vars: &[Var],
        body: &Formula,
        env: &FixEnv,
    ) -> Result<SymRelation, EvalError> {
        let arity = vars.len();
        let mut inner = env.clone();
        let mut current: FxHashSet<SymTuple> = FxHashSet::default();
        // round 0: pred ↦ ∅
        inner.insert(
            pred.to_string(),
            Arc::new(SymRelation::from_rows(Vec::new(), Some(arity))),
        );
        loop {
            let stage = self.eval_stage(body, vars, &inner)?;
            let before = current.len();
            current.extend(stage);
            if current.len() == before {
                return Ok(SymRelation::from_rows(
                    current.into_iter().collect(),
                    Some(arity),
                ));
            }
            inner.insert(
                pred.to_string(),
                Arc::new(SymRelation::from_rows(
                    current.iter().cloned().collect(),
                    Some(arity),
                )),
            );
        }
    }

    /// Semi-naive delta iteration, multi-linear expansion: with `k` positive
    /// occurrences of `pred`, each round evaluates `k` body variants — the
    /// `i`-th has occurrence `i` bound to the last round's *delta*,
    /// occurrences before `i` bound to the full current set, and occurrences
    /// after `i` bound to the set as of *before* the delta. Every derivation
    /// whose last delta-aged fact sits at occurrence `i` is found by variant
    /// `i` (each occurrence is positive, hence additive in its relation),
    /// and derivations using no delta-aged fact were found in an earlier
    /// round, so the union of the variants equals the naive stage.
    fn eval_fix_semi_naive(
        &self,
        pred: &str,
        vars: &[Var],
        body: &Formula,
        env: &FixEnv,
        k: usize,
    ) -> Result<SymRelation, EvalError> {
        let arity = vars.len();
        // `~` never parses, so generated names cannot clash with user ones
        let new_name = format!("~new#{pred}");
        let delta_name = format!("~delta#{pred}");
        let old_name = format!("~old#{pred}");
        let variants: Vec<Formula> = (0..k)
            .map(|i| {
                body.rename_positive_occurrences(pred, &mut |j| {
                    if j < i {
                        new_name.clone()
                    } else if j == i {
                        delta_name.clone()
                    } else {
                        old_name.clone()
                    }
                })
            })
            .collect();
        let wrap = |rows: &FxHashSet<SymTuple>| {
            Arc::new(SymRelation::from_rows(
                rows.iter().cloned().collect(),
                Some(arity),
            ))
        };

        // round 0: pred ↦ ∅ everywhere, evaluated on the original body
        let mut inner = env.clone();
        inner.insert(
            pred.to_string(),
            Arc::new(SymRelation::from_rows(Vec::new(), Some(arity))),
        );
        let mut delta = self.eval_stage(body, vars, &inner)?;
        let mut current = delta.clone();
        let mut prev: FxHashSet<SymTuple> = FxHashSet::default();
        // a linear body (k = 1) references only the delta: skip the
        // per-round O(|J|) re-wrapping of the full and previous sets
        let multi = k >= 2;
        // delta rows below this count evaluate in one piece: per-chunk
        // plan setup must not cost more than the partitioning saves
        const PAR_MIN_DELTA: usize = 512;
        while !delta.is_empty() {
            if multi {
                inner.insert(new_name.clone(), wrap(&current));
                inner.insert(old_name.clone(), wrap(&prev));
            }
            // partition the round's delta across the ambient pool (if one
            // is installed — intra-run parallel runs): each variant has
            // exactly one strictly positive occurrence of the delta
            // relation (never under ¬/∀, see
            // [`Formula::positive_occurrences`]), hence is additive in it,
            // so the union over delta chunks equals the whole-delta stage
            let delta_rows: Vec<SymTuple> = delta.iter().cloned().collect();
            let parts = par::map_chunks(&delta_rows, PAR_MIN_DELTA, |chunk| {
                let mut local = inner.clone();
                local.insert(
                    delta_name.clone(),
                    Arc::new(SymRelation::from_rows(chunk.to_vec(), Some(arity))),
                );
                let mut found: FxHashSet<SymTuple> = FxHashSet::default();
                for variant in &variants {
                    for t in self.eval_stage(variant, vars, &local)? {
                        if !current.contains(&t) {
                            found.insert(t);
                        }
                    }
                }
                Ok::<_, EvalError>(found)
            });
            let mut next: FxHashSet<SymTuple> = FxHashSet::default();
            for part in parts {
                next.extend(part?);
            }
            if next.is_empty() {
                break;
            }
            if multi {
                prev = current.clone();
            }
            current.extend(next.iter().cloned());
            delta = next;
        }
        Ok(SymRelation::from_rows(
            current.into_iter().collect(),
            Some(arity),
        ))
    }

    /// The dedicated closure operator for transitive-closure-shaped bodies
    /// (`closure::closure_shape`): evaluate the base and the step
    /// once, put the step behind a sorted columnar view, and then extend
    /// each round's *delta* through binary-searched prefix ranges —
    /// `O(|Δ| log |step| + |matches|)` per round, with the accumulated set
    /// held as geometrically merged sorted runs ([`SortedRowSet`]) instead
    /// of a per-round re-wrapped hash relation. No round re-plans a join or
    /// regenerates already-derived pairs, which is what made the generic
    /// multi-linear loop `O(n³)`-ish per round on closure workloads.
    ///
    /// Soundness: the body is strictly positive (checked by the caller),
    /// hence monotone, so IFP = LFP; for each recognized shape the LFP is
    /// exactly the closure this iteration computes. In particular the LFP
    /// of the doubling body `base ∨ T∘T` is `base⁺`, which linear
    /// `Δ ∘ base` extension reaches — the intermediate rounds differ from
    /// the inflationary stages, but only the final fixpoint is observable.
    fn eval_fix_closure(
        &self,
        pred: &str,
        vars: &[Var],
        body: &Formula,
        shape: &ClosureShape,
        env: &FixEnv,
    ) -> Result<Arc<SymRelation>, EvalError> {
        // the cache gate: with no surrounding fixpoint bindings, no extra
        // active-domain values (every body constant is a base-domain
        // value), and no register atoms, the result is a function of the
        // database version and the defining formula alone — safe to share
        // across configurations, runs, and (via migration) versions
        let cacheable = env.is_empty() && !self.extended_domain && !body.uses_register();
        let cache = if cacheable { self.fix } else { None };
        let key = cache.map(|_| FixKey {
            pred: pred.to_string(),
            vars: vars.to_vec(),
            body: body.clone(),
        });
        if let (Some(cache), Some(key)) = (cache, &key) {
            if let Some(result) = cache.lookup(key) {
                return Ok(result);
            }
        }
        let plan = self.closure_plan(vars, shape, env)?;
        let mut total = SortedRowSet::new();
        total.insert_sorted_batch(plan.base_rows.clone());
        let total = closure_continue(
            total,
            plan.base_rows.clone(),
            plan.step_rows.clone(),
            plan.dims,
        );
        let result = Arc::new(SymRelation::from_rows(total.into_rows(), Some(plan.arity)));
        if let (Some(cache), Some(key)) = (cache, key) {
            cache.store(
                key,
                FixEntry {
                    result: Arc::clone(&result),
                    base_rows: plan.base_rows,
                    step_rows: plan.step_rows,
                },
            );
        }
        Ok(result)
    }

    /// Evaluate a closure shape's base and step stages to sorted row
    /// vectors plus the dimensions driving the generic extension loop.
    fn closure_plan(
        &self,
        vars: &[Var],
        shape: &ClosureShape,
        env: &FixEnv,
    ) -> Result<ClosurePlan, EvalError> {
        let sorted_vec = |set: FxHashSet<SymTuple>| -> Vec<SymTuple> {
            let mut v: Vec<SymTuple> = set.into_iter().collect();
            v.sort_unstable();
            v
        };
        let (base_rows, step_rows, dims) = match shape {
            ClosureShape::Doubling { base } => {
                let b = sorted_vec(self.eval_stage(base, vars, env)?);
                let s = b.clone();
                (b, s, ClosureDims::new(0, 1, Emit::Left))
            }
            ClosureShape::LeftLinear { base, step, mid } => {
                let b = sorted_vec(self.eval_stage(base, vars, env)?);
                let s = sorted_vec(self.eval_stage(step, &[mid.clone(), vars[1].clone()], env)?);
                (b, s, ClosureDims::new(0, 1, Emit::Left))
            }
            ClosureShape::RightLinear { base, step, mid } => {
                let b = sorted_vec(self.eval_stage(base, vars, env)?);
                let s = sorted_vec(self.eval_stage(step, &[vars[0].clone(), mid.clone()], env)?);
                (b, s, ClosureDims::new(1, 0, Emit::Right))
            }
            ClosureShape::Reach { base, step, mid } => {
                let b = sorted_vec(self.eval_stage(base, vars, env)?);
                let s = sorted_vec(self.eval_stage(step, &[mid.clone(), vars[0].clone()], env)?);
                (b, s, ClosureDims::new(0, 0, Emit::Member))
            }
        };
        Ok(ClosurePlan {
            base_rows,
            step_rows,
            dims,
            arity: vars.len(),
        })
    }

    fn eval_eq(&self, a: &Term, b: &Term) -> Bindings {
        let syms = self.syms.clone();
        match (a, b) {
            (Term::Const(x), Term::Const(y)) => {
                if x == y {
                    self.unit_b()
                } else {
                    self.empty_b(Vec::new())
                }
            }
            (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                let mut rows = FxHashSet::default();
                rows.insert(SymTuple::from([self.sym(c)]));
                Bindings::with_syms(vec![x.clone()], rows, syms)
            }
            (Term::Var(x), Term::Var(y)) if x == y => Bindings::with_syms(
                vec![x.clone()],
                self.adom_syms()
                    .iter()
                    .map(|&s| SymTuple::from([s]))
                    .collect(),
                syms,
            ),
            (Term::Var(x), Term::Var(y)) => Bindings::with_syms(
                vec![x.clone(), y.clone()],
                self.adom_syms()
                    .iter()
                    .map(|&s| SymTuple::from([s, s]))
                    .collect(),
                syms,
            ),
        }
    }

    fn eval_neq(&self, a: &Term, b: &Term) -> Bindings {
        let syms = self.syms.clone();
        match (a, b) {
            (Term::Const(x), Term::Const(y)) => {
                if x != y {
                    self.unit_b()
                } else {
                    self.empty_b(Vec::new())
                }
            }
            (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                let cs = self.sym(c);
                Bindings::with_syms(
                    vec![x.clone()],
                    self.adom_syms()
                        .iter()
                        .filter(|&&s| s != cs)
                        .map(|&s| SymTuple::from([s]))
                        .collect(),
                    syms,
                )
            }
            (Term::Var(x), Term::Var(y)) if x == y => self.empty_b(vec![x.clone()]),
            (Term::Var(x), Term::Var(y)) => {
                let all = self.adom_syms();
                Bindings::with_syms(
                    vec![x.clone(), y.clone()],
                    all.iter()
                        .flat_map(|&u| {
                            all.iter()
                                .filter(move |&&v| v != u)
                                .map(move |&v| SymTuple::from([u, v]))
                        })
                        .collect(),
                    syms,
                )
            }
        }
    }

    /// Evaluate an atom over an interned relation, entirely at the symbol
    /// level: resolve constants to symbols once, probe the composite index
    /// over all constant columns when profitable, and keep candidate rows
    /// consistent with constants and repeated variables.
    fn atom_bindings(
        &self,
        srel: &SymRelation,
        args: &[Term],
        name: &str,
    ) -> Result<Bindings, EvalError> {
        if let Some(arity) = srel.arity() {
            if arity != args.len() {
                return err(format!(
                    "atom {name}/{} applied to relation of arity {arity}",
                    args.len()
                ));
            }
        }
        let vars = atom_vars(args);
        // a value never interned cannot occur in any relation
        let mut const_cols: Vec<(usize, Sym)> = Vec::new();
        for (col, t) in args.iter().enumerate() {
            if let Some(c) = t.as_const() {
                match self.syms.get(c) {
                    Some(s) => const_cols.push((col, s)),
                    None => return Ok(self.empty_b(vars)),
                }
            }
        }
        let rows = if !const_cols.is_empty() && srel.len() >= 8 {
            let cols: Vec<usize> = const_cols.iter().map(|&(c, _)| c).collect();
            let key: SymTuple = const_cols.iter().map(|&(_, s)| s).collect();
            // hold the index Arc locally so the matched ids borrow it
            // directly — no per-probe copy of the id list
            match srel.composite(&cols) {
                Some(index) => match index.get(&key) {
                    Some(ids) => self.match_sym_rows(
                        args,
                        &vars,
                        &const_cols,
                        ids.iter().map(|&i| &srel.rows()[i as usize]),
                    ),
                    None => FxHashSet::default(),
                },
                None => self.match_sym_rows(args, &vars, &const_cols, srel.rows().iter()),
            }
        } else {
            self.match_sym_rows(args, &vars, &const_cols, srel.rows().iter())
        };
        Ok(Bindings::with_syms(vars, rows, self.syms.clone()))
    }

    /// The atom-matching loop shared by the scan and probe paths: keep
    /// candidate symbol rows consistent with the (pre-resolved) constants
    /// and repeated variables of `args`, never touching values.
    fn match_sym_rows<'b>(
        &self,
        args: &[Term],
        vars: &[Var],
        const_cols: &[(usize, Sym)],
        candidates: impl Iterator<Item = &'b SymTuple>,
    ) -> FxHashSet<SymTuple> {
        // the arg → output-column mapping is fixed for the atom; resolve it
        // once instead of per row
        let arg_cols: Vec<Option<usize>> = args
            .iter()
            .map(|t| match t {
                Term::Var(v) => Some(vars.iter().position(|u| u == v).unwrap()),
                Term::Const(_) => None,
            })
            .collect();
        // all-distinct variables and no constants (the common atom shape):
        // rows pass through as-is, no per-row matching state
        if const_cols.is_empty() && vars.len() == args.len() {
            return candidates.cloned().collect();
        }
        let mut rows = FxHashSet::default();
        'rows: for row in candidates {
            for &(col, s) in const_cols {
                if row[col] != s {
                    continue 'rows;
                }
            }
            let mut asg: Vec<Option<Sym>> = vec![None; vars.len()];
            for (col, out) in arg_cols.iter().enumerate() {
                let Some(i) = out else { continue };
                let s = row[col];
                match asg[*i] {
                    None => asg[*i] = Some(s),
                    Some(prev) => {
                        if prev != s {
                            continue 'rows;
                        }
                    }
                }
            }
            rows.insert(asg.into_iter().map(|s| s.unwrap()).collect());
        }
        rows
    }

    /// Index-nested-loop evaluation of an atom against the bound rows of
    /// `acc`: when the atom shares variables with `acc` and `acc` binds few
    /// distinct symbol combinations for them, probe the composite index
    /// over *all* shared columns (plus any constant columns) once per
    /// combination instead of materializing the whole atom. Returns `None`
    /// when the probe does not apply (no shared column, or scanning is
    /// estimated cheaper).
    fn eval_atom_probed(
        &self,
        srel: &SymRelation,
        args: &[Term],
        acc: &Bindings,
    ) -> Option<Bindings> {
        if srel.arity() != Some(args.len()) {
            return None;
        }
        // first atom column of each distinct acc-bound variable
        let mut var_cols: Vec<(usize, usize)> = Vec::new(); // (atom col, acc col)
        let mut const_cols: Vec<(usize, Sym)> = Vec::new();
        for (col, t) in args.iter().enumerate() {
            match t {
                Term::Var(v) => {
                    if let Some(i) = acc.col(v) {
                        if !var_cols.iter().any(|&(_, ai)| ai == i) {
                            var_cols.push((col, i));
                        }
                    }
                }
                Term::Const(c) => {
                    // an uninterned constant occurs in no row
                    const_cols.push((col, self.syms.get(c)?));
                }
            }
        }
        if var_cols.is_empty() {
            return None;
        }
        let acc_cols: Vec<usize> = var_cols.iter().map(|&(_, i)| i).collect();
        let bound_keys: FxHashSet<SymTuple> = acc
            .rows
            .iter()
            .map(|row| acc_cols.iter().map(|&i| row[i]).collect())
            .collect();
        // scanning touches |srel| rows; probing touches the matches of
        // |bound_keys| keys (the index itself amortizes across the run)
        if bound_keys.len() >= srel.len() {
            return None;
        }
        let cols: Vec<usize> = var_cols
            .iter()
            .map(|&(c, _)| c)
            .chain(const_cols.iter().map(|&(c, _)| c))
            .collect();
        let index = srel.composite(&cols)?;
        let vars = atom_vars(args);
        let candidates = bound_keys
            .iter()
            .filter_map(|key| {
                let mut full: SymTuple = key.clone();
                full.extend(const_cols.iter().map(|&(_, s)| s));
                index.get(&full)
            })
            .flatten()
            .map(|&i| &srel.rows()[i as usize]);
        let rows = self.match_sym_rows(args, &vars, &const_cols, candidates);
        Some(Bindings::with_syms(vars, rows, self.syms.clone()))
    }

    /// Sort-merge evaluation of an atom against `acc`: when both sides are
    /// large and share variables, sort `acc`'s rows by the shared columns
    /// and walk them in equal-key groups against the relation's sorted
    /// columnar view ([`SymRelation::sorted`], ordered constants-first so
    /// the whole probe is one prefix range) — per group one
    /// `O(log |srel|)` range lookup replaces per-row hash probes, and each
    /// matched relation row is validated once per group rather than once
    /// per pairing. Returns the complete join `acc ⋈ atom` (the atom's new
    /// variables appended in first-occurrence order, exactly like
    /// [`Bindings::join`]); `None` when the merge path does not apply and
    /// the caller should fall back.
    fn eval_atom_merged(
        &self,
        srel: &SymRelation,
        args: &[Term],
        acc: &Bindings,
    ) -> Option<Bindings> {
        if srel.arity() != Some(args.len()) {
            return None;
        }
        if acc.len() < MERGE_JOIN_MIN || srel.len() < MERGE_JOIN_MIN {
            return None;
        }
        // classify atom columns: constants, first column of each distinct
        // acc-bound variable (the merge key), everything else re-checked
        // per matched row
        let mut const_cols: Vec<(usize, Sym)> = Vec::new();
        let mut var_cols: Vec<(usize, usize)> = Vec::new(); // (atom col, acc col)
        for (col, t) in args.iter().enumerate() {
            match t {
                Term::Var(v) => {
                    if let Some(i) = acc.col(v) {
                        if !var_cols.iter().any(|&(_, ai)| ai == i) {
                            var_cols.push((col, i));
                        }
                    }
                }
                // an uninterned constant occurs in no row: fall back (the
                // generic atom path returns the empty result)
                Term::Const(c) => const_cols.push((col, self.syms.get(c)?)),
            }
        }
        if var_cols.is_empty() {
            return None;
        }
        let order: Vec<usize> = const_cols
            .iter()
            .map(|&(c, _)| c)
            .chain(var_cols.iter().map(|&(c, _)| c))
            .collect();
        let view = srel.sorted(&order)?;
        // output columns: acc's, then the atom's new variables in
        // first-occurrence order (the Bindings::join contract)
        let mut out_vars = acc.vars.clone();
        let mut new_cols: Vec<usize> = Vec::new();
        for v in atom_vars(args) {
            if acc.col(&v).is_none() {
                let f = args
                    .iter()
                    .position(|t| t.as_var() == Some(&v))
                    .expect("atom var has a column");
                new_cols.push(f);
                out_vars.push(v);
            }
        }
        // residual per-row checks for repeated variables: a repeated bound
        // occurrence must equal its probe-key column, a repeated new
        // variable its first column. Both depend only on (group key, atom
        // row), so they run once per group per matched row.
        enum Check {
            Key(usize),
            Col(usize),
        }
        let mut checks: Vec<(usize, Check)> = Vec::new();
        for (col, t) in args.iter().enumerate() {
            let Term::Var(v) = t else { continue };
            if let Some(ai) = acc.col(v) {
                if !var_cols.iter().any(|&(c, _)| c == col) {
                    let p = var_cols
                        .iter()
                        .position(|&(_, a)| a == ai)
                        .expect("bound var has a key column");
                    checks.push((col, Check::Key(const_cols.len() + p)));
                }
            } else {
                let f = args
                    .iter()
                    .position(|t2| t2.as_var() == Some(v))
                    .expect("atom var has a column");
                if f != col {
                    checks.push((col, Check::Col(f)));
                }
            }
        }
        // sort acc's rows by the merge key so equal keys group together
        let acc_cols: Vec<usize> = var_cols.iter().map(|&(_, i)| i).collect();
        let mut acc_rows: Vec<&SymTuple> = acc.rows.iter().collect();
        acc_rows.sort_unstable_by(|a, b| {
            acc_cols
                .iter()
                .map(|&i| a[i].cmp(&b[i]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let const_syms: Vec<Sym> = const_cols.iter().map(|&(_, s)| s).collect();
        let mut rows = FxHashSet::default();
        let mut key: Vec<Sym> = Vec::with_capacity(order.len());
        let mut g = 0;
        while g < acc_rows.len() {
            let head = acc_rows[g];
            let mut h = g + 1;
            while h < acc_rows.len() && acc_cols.iter().all(|&i| acc_rows[h][i] == head[i]) {
                h += 1;
            }
            key.clear();
            key.extend_from_slice(&const_syms);
            key.extend(acc_cols.iter().map(|&i| head[i]));
            for i in view.prefix_range(&key) {
                let ok = checks.iter().all(|&(col, ref c)| match c {
                    Check::Key(p) => view.column(col)[i] == key[*p],
                    Check::Col(f) => view.column(col)[i] == view.column(*f)[i],
                });
                if !ok {
                    continue;
                }
                for arow in &acc_rows[g..h] {
                    let mut out = (*arow).clone();
                    out.extend(new_cols.iter().map(|&f| view.column(f)[i]));
                    rows.insert(out);
                }
            }
            g = h;
        }
        Some(Bindings::with_syms(out_vars, rows, self.syms.clone()))
    }

    /// One conjunction-planner step for a positive atom against the bound
    /// accumulator: index-nested-loop probe when the accumulator binds few
    /// distinct keys ([`Evaluator::eval_atom_probed`]), sort-merge join
    /// when both sides are large ([`Evaluator::eval_atom_merged`]), and
    /// otherwise materialize the atom and hash join.
    fn eval_atom_step(
        &self,
        srel: &SymRelation,
        args: &[Term],
        acc: Bindings,
        g: &Formula,
        env: &FixEnv,
    ) -> Result<Bindings, EvalError> {
        if let Some(b) = self.eval_atom_probed(srel, args, &acc) {
            return Ok(Self::join_onto(acc, b));
        }
        if let Some(joined) = self.eval_atom_merged(srel, args, &acc) {
            return Ok(joined);
        }
        let b = self.eval_env(g, env)?;
        Ok(Self::join_onto(acc, b))
    }

    /// Greedy conjunction evaluation. Applies cheap filters first (bound
    /// comparisons, semi/anti-joins of bound subformulas), then joins atoms,
    /// and only materializes expensive subformulas when unavoidable — this
    /// keeps guarded negation from ever computing a complement.
    fn eval_and(&self, fs: &[Formula], env: &FixEnv) -> Result<Bindings, EvalError> {
        let mut pending: Vec<&Formula> = fs.iter().collect();
        // each conjunct's free variables, computed once (the planning loop
        // below consults them every round) and kept in step with `pending`
        let mut free: Vec<BTreeSet<Var>> = pending.iter().map(|g| g.free_vars()).collect();
        let target: Vec<Var> = {
            let mut all: BTreeSet<Var> = BTreeSet::new();
            for vs in &free {
                all.extend(vs.iter().cloned());
            }
            all.into_iter().collect()
        };
        let mut acc = self.unit_b();

        while !pending.is_empty() {
            // the accumulator rarely holds more than a handful of columns:
            // a linear scan beats building a set every round
            let bound = acc.vars();
            let is_bound = |i: usize| free[i].iter().all(|v| bound.contains(v));

            // 1. bound comparison → direct filter
            if let Some(i) = (0..pending.len())
                .find(|&i| matches!(pending[i], Formula::Eq(..) | Formula::Neq(..)) && is_bound(i))
            {
                let g = pending.remove(i);
                free.remove(i);
                acc = self.filter_cmp(acc, g);
                continue;
            }
            // 2. bound positive subformula → semi-join; bound negation → anti-join
            if let Some(i) = (0..pending.len()).find(|&i| is_bound(i)) {
                let g = pending.remove(i);
                free.remove(i);
                acc = match g {
                    Formula::Not(inner) => {
                        let b = self.eval_env(inner, env)?;
                        // inner's free vars equal g's, all bound
                        Self::semi_join_onto(acc, &b, true)
                    }
                    _ => {
                        let b = self.eval_env(g, env)?;
                        Self::semi_join_onto(acc, &b, false)
                    }
                };
                continue;
            }
            // 3. positive atom → join: prefer the atom sharing the most
            // bound columns, breaking ties toward the smallest relation so
            // that e.g. a one-row fixpoint delta seeds the join before the
            // base relation it probes into
            let atom_size = |g: &Formula| -> usize {
                match g {
                    Formula::Rel(name, _) => {
                        self.sym_relation_for(name, env).map_or(0, |r| r.len())
                    }
                    Formula::Reg(_) => self.register.get().map_or(0, |r| r.sym.len()),
                    _ => usize::MAX,
                }
            };
            let atom_idx = pending
                .iter()
                .enumerate()
                .filter(|(_, g)| matches!(g, Formula::Rel(..) | Formula::Reg(..)))
                .min_by_key(|&(i, g)| {
                    let shared = free[i].iter().filter(|v| bound.contains(v)).count();
                    (std::cmp::Reverse(shared), atom_size(g))
                })
                .map(|(i, _)| i);
            if let Some(i) = atom_idx {
                let g = pending.remove(i);
                free.remove(i);
                acc = match g {
                    Formula::Rel(name, args) => match self.sym_relation_for(name, env) {
                        Some(srel) => self.eval_atom_step(&srel, args, acc, g, env)?,
                        None => Self::join_onto(acc, self.eval_env(g, env)?),
                    },
                    Formula::Reg(args) => match self.register.get() {
                        Some(ireg) => self.eval_atom_step(&ireg.sym, args, acc, g, env)?,
                        None => Self::join_onto(acc, self.eval_env(g, env)?),
                    },
                    _ => Self::join_onto(acc, self.eval_env(g, env)?),
                };
                continue;
            }
            // 4. unbound comparison → materialize over adom and join
            if let Some(i) = pending
                .iter()
                .position(|g| matches!(g, Formula::Eq(..) | Formula::Neq(..)))
            {
                let g = pending.remove(i);
                free.remove(i);
                let b = self.eval_env(g, env)?;
                acc = Self::join_onto(acc, b);
                continue;
            }
            // 5. anything else → full evaluation and join
            let g = pending.remove(0);
            free.remove(0);
            let b = self.eval_env(g, env)?;
            acc = Self::join_onto(acc, b);
        }
        Ok(self.close(acc, &target))
    }

    /// `acc ⋈ b`, skipping the join entirely when `acc` is still the unit
    /// seed (the first conjunct passes through by move).
    fn join_onto(acc: Bindings, b: Bindings) -> Bindings {
        if acc.vars.is_empty() && acc.len() == 1 {
            b
        } else {
            acc.join(&b)
        }
    }

    /// `acc ⋉ other` / `acc ▷ other`, with the nullary condition handled by
    /// move: a closed subformula keeps all rows or none, so no row is
    /// cloned either way.
    fn semi_join_onto(acc: Bindings, other: &Bindings, negated: bool) -> Bindings {
        if other.vars.is_empty() {
            return if other.is_empty() == negated {
                acc
            } else {
                let syms = acc.syms.clone();
                Bindings::with_syms(acc.vars, FxHashSet::default(), syms)
            };
        }
        acc.semi_join(other, negated)
    }

    fn filter_cmp(&self, acc: Bindings, g: &Formula) -> Bindings {
        let sym_at = |row: &[Sym], t: &Term| -> Sym {
            match t {
                Term::Const(c) => self.sym(c),
                Term::Var(v) => {
                    let i = acc.vars().iter().position(|u| u == v).unwrap();
                    row[i]
                }
            }
        };
        let rows = acc
            .rows
            .iter()
            .filter(|row| match g {
                Formula::Eq(a, b) => sym_at(row, a) == sym_at(row, b),
                Formula::Neq(a, b) => sym_at(row, a) != sym_at(row, b),
                _ => unreachable!("filter_cmp only handles comparisons"),
            })
            .cloned()
            .collect();
        Bindings::with_syms(acc.vars.clone(), rows, acc.syms.clone())
    }
}

/// The column variables of an atom: first occurrence of each variable.
fn atom_vars(args: &[Term]) -> Vec<Var> {
    let mut vars: Vec<Var> = Vec::new();
    for t in args {
        if let Term::Var(v) = t {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
    }
    vars
}

/// Convenience: evaluate a closed (Boolean) formula.
pub fn holds(
    instance: &Instance,
    register: Option<&Relation>,
    f: &Formula,
) -> Result<bool, EvalError> {
    let ev = Evaluator::for_formula(instance, register, f);
    Ok(!ev.eval(f)?.is_empty())
}

/// Convenience: evaluate a formula and return its rows over `order`.
pub fn eval_to_relation(
    instance: &Instance,
    register: Option<&Relation>,
    f: &Formula,
    order: &[Var],
) -> Result<Relation, EvalError> {
    let ev = Evaluator::for_formula(instance, register, f);
    let b = ev.eval(f)?;
    Ok(ev.close(b, order).to_relation(order))
}

/// Brute-force satisfaction check of a formula under an explicit assignment,
/// quantifying over an explicit domain. Used as a test oracle against the
/// relational evaluator.
pub fn satisfied_under(
    instance: &Instance,
    register: Option<&Relation>,
    domain: &[Value],
    f: &Formula,
    asg: &BTreeMap<Var, Value>,
) -> Result<bool, EvalError> {
    type OracleEnv = BTreeMap<String, Relation>;
    fn term_value(t: &Term, asg: &BTreeMap<Var, Value>) -> Result<Value, EvalError> {
        match t {
            Term::Const(c) => Ok(c.clone()),
            Term::Var(v) => asg
                .get(v)
                .cloned()
                .ok_or_else(|| EvalError(format!("unassigned variable {v}"))),
        }
    }
    fn go(
        instance: &Instance,
        register: Option<&Relation>,
        domain: &[Value],
        f: &Formula,
        asg: &BTreeMap<Var, Value>,
        env: &OracleEnv,
    ) -> Result<bool, EvalError> {
        match f {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Rel(name, args) => {
                let vals: Result<Tuple, _> = args.iter().map(|t| term_value(t, asg)).collect();
                let rel = env.get(name).cloned().unwrap_or_else(|| instance.get(name));
                Ok(rel.contains(&vals?))
            }
            Formula::Reg(args) => {
                let vals: Result<Tuple, _> = args.iter().map(|t| term_value(t, asg)).collect();
                match register {
                    Some(reg) => Ok(reg.contains(&vals?)),
                    None => err("register atom used but no register supplied"),
                }
            }
            Formula::Eq(a, b) => Ok(term_value(a, asg)? == term_value(b, asg)?),
            Formula::Neq(a, b) => Ok(term_value(a, asg)? != term_value(b, asg)?),
            Formula::And(fs) => {
                for g in fs {
                    if !go(instance, register, domain, g, asg, env)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(fs) => {
                for g in fs {
                    if go(instance, register, domain, g, asg, env)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Not(g) => Ok(!go(instance, register, domain, g, asg, env)?),
            Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                let want_all = matches!(f, Formula::Forall(..));
                let mut stack = vec![asg.clone()];
                for v in vs {
                    let mut next = Vec::new();
                    for a in &stack {
                        for val in domain {
                            let mut b = a.clone();
                            b.insert(v.clone(), val.clone());
                            next.push(b);
                        }
                    }
                    stack = next;
                }
                for a in &stack {
                    let sat = go(instance, register, domain, g, a, env)?;
                    if want_all && !sat {
                        return Ok(false);
                    }
                    if !want_all && sat {
                        return Ok(true);
                    }
                }
                Ok(want_all)
            }
            Formula::Fix {
                pred,
                vars,
                body,
                args,
            } => {
                // naive inflationary iteration over the explicit domain
                let mut current = Relation::new();
                loop {
                    let mut inner = env.clone();
                    inner.insert(pred.clone(), current.clone());
                    let mut next = current.clone();
                    let mut tuples = vec![Vec::new()];
                    for _ in vars {
                        let mut grown = Vec::new();
                        for t in &tuples {
                            for val in domain {
                                let mut u: Tuple = t.clone();
                                u.push(val.clone());
                                grown.push(u);
                            }
                        }
                        tuples = grown;
                    }
                    for t in tuples {
                        let mut a = asg.clone();
                        for (v, val) in vars.iter().zip(t.iter()) {
                            a.insert(v.clone(), val.clone());
                        }
                        if go(instance, register, domain, body, &a, &inner)? {
                            next.insert(t);
                        }
                    }
                    if next == current {
                        break;
                    }
                    current = next;
                }
                let vals: Result<Tuple, _> = args.iter().map(|t| term_value(t, asg)).collect();
                Ok(current.contains(&vals?))
            }
        }
    }
    go(instance, register, domain, f, asg, &OracleEnv::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_formula;
    use pt_relational::rel;

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
            .with("prereq", rel![["c1", "c2"]])
    }

    fn eval_str(f: &str, inst: &Instance, reg: Option<&Relation>) -> Bindings {
        let formula = parse_formula(f).unwrap();
        let ev = Evaluator::for_formula(inst, reg, &formula);
        ev.eval(&formula).unwrap()
    }

    #[test]
    fn atom_evaluation() {
        let b = eval_str("course(c, t, 'CS')", &db(), None);
        assert_eq!(b.len(), 2);
        assert_eq!(b.vars().len(), 2);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let inst = Instance::new().with("r", rel![[1, 1], [1, 2]]);
        let b = eval_str("r(x, x)", &inst, None);
        assert_eq!(b.len(), 1);
        assert!(b.contains_row(&[Value::int(1)]));
    }

    #[test]
    fn multi_constant_atom_probes_composite_index() {
        let inst = Instance::new().with(
            "r",
            rel![
                [1, "a", 10],
                [1, "b", 20],
                [2, "a", 30],
                [1, "a", 40],
                [3, "c", 50],
                [4, "d", 60],
                [5, "e", 70],
                [6, "f", 80]
            ],
        );
        let f = parse_formula("r(1, 'a', z)").unwrap();
        let ctx = EvalContext::new(&inst);
        let ev = Evaluator::with_context(&ctx, None, &f);
        let b = ev.eval(&f).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b.contains_row(&[Value::int(10)]));
        assert!(b.contains_row(&[Value::int(40)]));
        assert!(
            ctx.indexes_built() > 0,
            "composite probe must build an index"
        );
    }

    #[test]
    fn conjunction_with_join() {
        let b = eval_str(
            "exists d (course(c, t, d) and d = 'CS') and prereq(c, p)",
            &db(),
            None,
        );
        // only c1 has a prerequisite
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn negation_guarded() {
        // courses with no prerequisite listed
        let b = eval_str(
            "exists t d (course(c, t, d)) and not (exists p (prereq(c, p)))",
            &db(),
            None,
        );
        assert_eq!(b.len(), 2); // c2, c3
    }

    #[test]
    fn negation_pushes_through_connectives() {
        let inst = Instance::new()
            .with("r", rel![[1], [2]])
            .with("s", rel![[2]]);
        // ¬(r(x) ∧ ¬s(x)) ≡ ¬r(x) ∨ s(x): holds for x = 2 only... plus any
        // adom value not in r — here {1,2} are both in r, so exactly {2}
        let b = eval_str("not (r(x) and not (s(x)))", &inst, None);
        assert_eq!(b.len(), 1);
        assert!(b.contains_row(&[Value::int(2)]));
        // double negation
        let c = eval_str("not (not (r(x)))", &inst, None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn disjunction_cylindrifies() {
        let inst = Instance::new().with("r", rel![[1]]).with("s", rel![[2]]);
        let b = eval_str("r(x) or s(y)", &inst, None);
        // free vars {x,y}, adom {1,2}: r(x) gives x=1 × y∈{1,2}; s(y) gives y=2 × x∈{1,2}
        assert_eq!(b.vars().len(), 2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn universal_quantifier() {
        let inst = Instance::new().with("r", rel![[1], [2]]);
        assert!(holds(
            &inst,
            None,
            &parse_formula("forall x (r(x) or x = 3)").unwrap()
        )
        .unwrap());
        // the active domain contains 3 (a constant of the formula), and r(3)
        // fails, so the universal is falsified
        assert!(!holds(
            &inst,
            None,
            &parse_formula("forall x (x != 3 and r(x))").unwrap()
        )
        .unwrap());
        // without the constant, the active domain is exactly r's values and
        // the universal holds — active-domain semantics
        assert!(holds(&inst, None, &parse_formula("forall x (r(x))").unwrap()).unwrap());
    }

    #[test]
    fn forall_with_free_variables() {
        let inst = Instance::new()
            .with("r", rel![[1, 1], [1, 2], [2, 1]])
            .with("s", rel![[1], [2]]);
        // values x such that every s-value y has r(x, y): only x = 1
        let b = eval_str("s(x) and forall y ((not s(y)) or r(x, y))", &inst, None);
        assert_eq!(b.len(), 1);
        assert!(b.contains_row(&[Value::int(1)]));
    }

    #[test]
    fn register_atoms() {
        let reg = rel![["c1", "Databases"]];
        let b = eval_str("Reg(c, t)", &db(), Some(&reg));
        assert_eq!(b.len(), 1);
        let missing = parse_formula("Reg(x)").unwrap();
        let inst = db();
        let ev = Evaluator::for_formula(&inst, None, &missing);
        assert!(ev.eval(&missing).is_err());
    }

    #[test]
    fn register_atoms_with_constants_and_repeats() {
        let inst = Instance::new().with("r", rel![[1]]);
        let reg = rel![[1, 1], [1, 2], [2, 2], [3, 1]];
        let b = eval_str("Reg(x, x)", &inst, Some(&reg));
        assert_eq!(b.len(), 2); // (1,1) and (2,2)
        let c = eval_str("Reg(1, y)", &inst, Some(&reg));
        assert_eq!(c.len(), 2); // y ∈ {1, 2}
        assert!(c.contains_row(&[Value::int(2)]));
        // a constant the register cannot contain
        let d = eval_str("Reg(9, y)", &inst, Some(&reg));
        assert!(d.is_empty());
    }

    #[test]
    fn indexed_register_matches_raw_register() {
        let inst = db();
        let ctx = EvalContext::new(&inst);
        let reg = rel![["c1", "Databases"], ["c2", "Logic"]];
        let ireg = ctx.index_register(&reg);
        for src in [
            "Reg(c, t)",
            "exists t (Reg(c, t)) and prereq(c, p)",
            "Reg(c, 'Databases')",
            "exists c (Reg(c, t)) and not (Reg('c9', t))",
        ] {
            let f = parse_formula(src).unwrap();
            let raw = Evaluator::for_formula(&inst, Some(&reg), &f);
            let indexed = Evaluator::with_register(&ctx, Some(&ireg), &f);
            let a = raw.eval(&f).unwrap();
            let b = indexed.eval(&f).unwrap();
            let order: Vec<Var> = a.vars().to_vec();
            assert_eq!(a.to_relation(&order), b.to_relation(&order), "on {src}");
        }
    }

    #[test]
    fn adom_extends_with_register_and_constants() {
        // register and formula values outside the instance must still enter
        // the active domain (copy-on-extend path)
        let inst = Instance::new().with("r", rel![[1], [2]]);
        let reg = rel![[7]];
        let f = parse_formula("x = x").unwrap();
        let ev = Evaluator::for_formula(&inst, Some(&reg), &f);
        assert_eq!(ev.adom(), &[Value::int(1), Value::int(2), Value::int(7)]);
        let b = ev.eval(&f).unwrap();
        assert_eq!(b.len(), 3);
        // constants join too, merged in sorted position
        let g = parse_formula("x = 0 or x = 9").unwrap();
        let ev2 = Evaluator::for_formula(&inst, None, &g);
        assert_eq!(
            ev2.adom(),
            &[Value::int(0), Value::int(1), Value::int(2), Value::int(9)]
        );
    }

    #[test]
    fn shared_adom_is_zero_copy_when_nothing_is_added() {
        let inst = Instance::new().with("r", rel![[1], [2]]);
        let ctx = EvalContext::new(&inst);
        let f = parse_formula("r(x)").unwrap();
        let ev = Evaluator::with_context(&ctx, None, &f);
        match &ev.adom {
            CowSlice::Shared(v) => assert!(Arc::ptr_eq(v, &ctx.adom)),
            CowSlice::Owned(_) => panic!("expected the shared base adom"),
        }
        // a register inside the base adom stays zero-copy
        let reg = rel![[2]];
        let ev2 = Evaluator::with_context(&ctx, Some(&reg), &f);
        assert!(matches!(&ev2.adom, CowSlice::Shared(_)));
        // a register outside it pays the merge
        let reg2 = rel![[5]];
        let ev3 = Evaluator::with_context(&ctx, Some(&reg2), &f);
        assert!(matches!(&ev3.adom, CowSlice::Owned(_)));
        assert_eq!(ev3.adom(), &[Value::int(1), Value::int(2), Value::int(5)]);
    }

    #[test]
    fn fixpoint_reachability() {
        let inst = Instance::new().with("edge", rel![[0, 1], [1, 2], [2, 3], [5, 6]]);
        let f =
            parse_formula("fix S(x) { edge(0, x) or exists y (S(y) and edge(y, x)) }(w)").unwrap();
        let rel = eval_to_relation(&inst, None, &f, &[Var::new("w")]).unwrap();
        // reachable from 0: 1, 2, 3
        assert_eq!(rel.len(), 3);
        assert!(rel.contains(&[Value::int(3)]));
        assert!(!rel.contains(&[Value::int(6)]));
    }

    #[test]
    fn nonlinear_fixpoint_iterates_multilinearly() {
        // two positive occurrences of T: transitive closure via doubling,
        // handled by the multi-linear semi-naive expansion
        let inst = Instance::new().with("edge", rel![[0, 1], [1, 2], [2, 3]]);
        let f = parse_formula("fix T(x, y) { edge(x, y) or exists z (T(x, z) and T(z, y)) }(u, w)")
            .unwrap();
        assert_eq!(
            parse_formula("edge(x, y) or exists z (T(x, z) and T(z, y))")
                .unwrap()
                .positive_occurrences("T"),
            Some(2)
        );
        let rel = eval_to_relation(&inst, None, &f, &[Var::new("u"), Var::new("w")]).unwrap();
        assert_eq!(rel.len(), 6); // closure of a 4-chain
        assert!(rel.contains(&[Value::int(0), Value::int(3)]));
    }

    #[test]
    fn multilinear_matches_naive_on_longer_chains() {
        // doubling reaches length-2^k paths in k rounds; the result must
        // still equal the full closure
        let mut edge = Relation::new();
        for i in 0..20i64 {
            edge.insert(vec![Value::int(i), Value::int(i + 1)]);
        }
        // plus a cycle edge to exercise re-derivation filtering
        edge.insert(vec![Value::int(20), Value::int(0)]);
        let inst = Instance::new().with("edge", edge);
        let f = parse_formula("fix T(x, y) { edge(x, y) or exists z (T(x, z) and T(z, y)) }(u, w)")
            .unwrap();
        let rel = eval_to_relation(&inst, None, &f, &[Var::new("u"), Var::new("w")]).unwrap();
        // a 21-node cycle: the closure is complete, 21 × 21 pairs
        assert_eq!(rel.len(), 21 * 21);
    }

    #[test]
    fn closure_operator_matches_semi_naive_on_all_shapes() {
        // each closure-operator shape paired with a semantics-preserving
        // variant the detector rejects (a duplicated recursive atom or an
        // extra conjunct — conjunction is idempotent, `x = x` is true), so
        // the same fixpoint runs once on the closure fast path and once on
        // the general (multi-linear) semi-naive loop
        let mut edge = Relation::new();
        for i in 0..12i64 {
            edge.insert(vec![Value::int(i), Value::int(i + 1)]);
        }
        edge.insert(vec![Value::int(3), Value::int(9)]); // shortcut
        edge.insert(vec![Value::int(12), Value::int(4)]); // back edge
        let inst = Instance::new()
            .with("edge", edge)
            .with("start", rel![[0], [7]]);
        let binary = [Var::new("u"), Var::new("w")];
        let cases = [
            // left-linear
            (
                "fix T(x, y) { edge(x, y) or exists z (T(x, z) and edge(z, y)) }(u, w)",
                "fix T(x, y) { edge(x, y) or exists z (T(x, z) and T(x, z) and edge(z, y)) }(u, w)",
            ),
            // right-linear
            (
                "fix T(x, y) { edge(x, y) or exists z (edge(x, z) and T(z, y)) }(u, w)",
                "fix T(x, y) { edge(x, y) or exists z (edge(x, z) and T(z, y) and T(z, y)) }(u, w)",
            ),
            // doubling
            (
                "fix T(x, y) { edge(x, y) or exists z (T(x, z) and T(z, y)) }(u, w)",
                "fix T(x, y) { edge(x, y) or exists z (T(x, z) and T(z, y) and x = x) }(u, w)",
            ),
        ];
        for (fast, slow) in cases {
            let f = parse_formula(fast).unwrap();
            let g = parse_formula(slow).unwrap();
            let a = eval_to_relation(&inst, None, &f, &binary).unwrap();
            let b = eval_to_relation(&inst, None, &g, &binary).unwrap();
            assert_eq!(a, b, "closure vs semi-naive on {fast}");
            assert!(!a.is_empty());
        }
        // unary reachability
        let unary = [Var::new("v")];
        let f =
            parse_formula("fix T(a) { start(a) or exists p (T(p) and edge(p, a)) }(v)").unwrap();
        let g =
            parse_formula("fix T(a) { start(a) or exists p (T(p) and T(p) and edge(p, a)) }(v)")
                .unwrap();
        let a = eval_to_relation(&inst, None, &f, &unary).unwrap();
        let b = eval_to_relation(&inst, None, &g, &unary).unwrap();
        assert_eq!(a, b, "closure vs semi-naive on unary reachability");
        assert!(!a.is_empty());
    }

    #[test]
    fn merge_join_matches_hash_join() {
        // both relations hold MERGE_JOIN_MIN+ rows binding all-distinct
        // join values, so the probed path declines (as many bound keys as
        // rows) and the planner takes the sort-merge path; the small copy
        // of the same data goes through the hash paths — results must agree
        let n = 96i64;
        let small_n = 8i64;
        let join = |n: i64| -> Relation {
            let mut r = Relation::new();
            let mut s = Relation::new();
            for i in 0..n {
                r.insert(vec![Value::int(i), Value::int(1000 + i)]);
                s.insert(vec![Value::int(1000 + i), Value::int(2000 + (i * 7) % n)]);
            }
            let inst = Instance::new().with("r", r).with("s", s);
            let f = parse_formula("exists y (r(x, y) and s(y, z))").unwrap();
            eval_to_relation(&inst, None, &f, &[Var::new("x"), Var::new("z")]).unwrap()
        };
        let merged = join(n);
        assert_eq!(merged.len(), n as usize);
        for i in 0..n {
            assert!(merged.contains(&[Value::int(i), Value::int(2000 + (i * 7) % n)]));
        }
        assert_eq!(join(small_n).len(), small_n as usize);
    }

    #[test]
    fn merge_join_handles_constants_and_repeated_vars() {
        // r(x, 7, x, y): one constant column, a repeated bound variable and
        // a fresh variable — the merge path must re-check the repeats
        let mut seed = Relation::new();
        let mut r = Relation::new();
        for i in 0..80i64 {
            seed.insert(vec![Value::int(i)]);
            r.insert(vec![
                Value::int(i),
                Value::int(7),
                Value::int(i),
                Value::int(i + 1),
            ]);
            // rows that match the probe key but fail the repeat check
            r.insert(vec![
                Value::int(i),
                Value::int(7),
                Value::int(i + 1),
                Value::int(0),
            ]);
        }
        let inst = Instance::new().with("seed", seed).with("r", r);
        let f = parse_formula("seed(x) and r(x, 7, x, y)").unwrap();
        let rel = eval_to_relation(&inst, None, &f, &[Var::new("x"), Var::new("y")]).unwrap();
        assert_eq!(rel.len(), 80);
        for i in 0..80i64 {
            assert!(rel.contains(&[Value::int(i), Value::int(i + 1)]));
        }
    }

    #[test]
    fn unguarded_complement_walks_sorted_universe() {
        let inst = Instance::new().with("r", rel![[1, 2], [2, 3]]);
        let b = eval_str("not (r(x, y))", &inst, None);
        // adom = {1, 2, 3}: 9 pairs minus the 2 present
        assert_eq!(b.len(), 7);
        assert!(b.contains_row(&[Value::int(2), Value::int(1)]));
        assert!(b.contains_row(&[Value::int(3), Value::int(3)]));
        assert!(!b.contains_row(&[Value::int(1), Value::int(2)]));
        assert!(!b.contains_row(&[Value::int(2), Value::int(3)]));
    }

    #[test]
    fn negated_fixpoint_occurrence_disables_semi_naive() {
        // S occurs under a negation: positive_occurrences must refuse, and
        // the inflationary semantics must still be the naive one
        let inst = Instance::new().with("s", rel![[1], [2]]);
        let body = parse_formula("s(x) and not (S(x))").unwrap();
        assert_eq!(body.positive_occurrences("S"), None);
        let f = parse_formula("fix S(x) { s(x) and not (S(x)) }(w)").unwrap();
        let rel = eval_to_relation(&inst, None, &f, &[Var::new("w")]).unwrap();
        // round 1 adds both tuples (S empty), round 2 adds nothing new;
        // inflationary semantics keeps them
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn eq_neq_cases() {
        let inst = Instance::new().with("r", rel![[1], [2]]);
        assert!(holds(&inst, None, &parse_formula("1 = 1").unwrap()).unwrap());
        assert!(!holds(&inst, None, &parse_formula("1 = 2").unwrap()).unwrap());
        assert!(holds(&inst, None, &parse_formula("1 != 2").unwrap()).unwrap());
        let b = eval_str("x != 1 and r(x)", &inst, None);
        assert_eq!(b.len(), 1);
        let diag = eval_str("x = y and r(x)", &inst, None);
        assert_eq!(diag.len(), 2);
    }

    #[test]
    fn unsafe_head_ranges_over_adom() {
        let inst = Instance::new().with("r", rel![[1], [2]]);
        // x = x is satisfied by every active-domain value
        let b = eval_str("x = x", &inst, None);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn empty_instance_quantification() {
        let inst = Instance::new();
        // no constants anywhere: adom is empty, ∃x(x = x) is false
        assert!(!holds(&inst, None, &parse_formula("exists x (x = x)").unwrap()).unwrap());
        // a constant enlarges the domain
        assert!(holds(&inst, None, &parse_formula("exists x (x = 7)").unwrap()).unwrap());
        // ∀ over the empty domain is vacuously true
        assert!(holds(&inst, None, &parse_formula("forall x (r(x))").unwrap()).unwrap());
    }

    #[test]
    fn shared_context_matches_standalone() {
        let inst = db();
        let ctx = EvalContext::new(&inst);
        let reg = rel![["c1", "Databases"]];
        for src in [
            "course(c, t, 'CS')",
            "exists d (course(c, t, d) and d = 'CS') and prereq(c, p)",
            "Reg(c, t)",
            "not (exists p (prereq(c, p))) and exists t d (course(c, t, d))",
        ] {
            let f = parse_formula(src).unwrap();
            let standalone = Evaluator::for_formula(&inst, Some(&reg), &f);
            let shared = Evaluator::with_context(&ctx, Some(&reg), &f);
            let a = standalone.eval(&f).unwrap();
            let b = shared.eval(&f).unwrap();
            let order: Vec<Var> = a.vars().to_vec();
            assert_eq!(a.to_relation(&order), b.to_relation(&order), "on {src}");
        }
    }

    #[test]
    fn value_rows_round_trip() {
        let b = eval_str("prereq(c, p)", &db(), None);
        let rows = b.value_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], vec![Value::str("c1"), Value::str("c2")]);
        assert!(b.contains_row(&[Value::str("c1"), Value::str("c2")]));
        assert!(!b.contains_row(&[Value::str("c2"), Value::str("c1")]));
        assert!(!b.contains_row(&[Value::str("zzz"), Value::str("c2")]));
        assert!(!b.contains_row(&[Value::str("c1")]));
    }

    #[test]
    fn relational_eval_matches_bruteforce_oracle() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let schema = pt_relational::Schema::with(&[("r", 2), ("s", 1)]);
        let formulas = [
            "exists y (r(x, y) and not (s(y)))",
            "forall y (r(x, y) or x = y)",
            "s(x) and x != 0",
            "exists y (r(x, y)) or s(x)",
            "not (s(x) and not (exists y (r(x, y))))",
            "forall y (not (r(x, y)) or s(y))",
            "fix T(a) { s(a) or exists b (T(b) and r(b, a)) }(x)",
            "fix T(a, c) { r(a, c) or exists b (T(a, b) and T(b, c)) }(x, x)",
        ];
        for trial in 0..30 {
            let inst = pt_relational::generate::random_instance(&schema, 4, 5, &mut rng);
            for ftext in &formulas {
                let f = parse_formula(ftext).unwrap();
                let ev = Evaluator::for_formula(&inst, None, &f);
                let fast = ev.eval(&f).unwrap();
                let domain: Vec<Value> = ev.adom().to_vec();
                let x = Var::new("x");
                for val in &domain {
                    let mut asg = BTreeMap::new();
                    asg.insert(x.clone(), val.clone());
                    let slow = satisfied_under(&inst, None, &domain, &f, &asg).unwrap();
                    let row: Vec<Value> = fast.vars().iter().map(|_| val.clone()).collect();
                    let fast_has = fast.contains_row(&row);
                    assert_eq!(
                        fast_has, slow,
                        "mismatch on trial {trial} formula {ftext} value {val}"
                    );
                }
            }
        }
    }

    /// Evaluate a formula through a long-lived context (so its [`FixCache`]
    /// participates) and project to a relation.
    fn eval_ctx_rel(ctx: &EvalContext, src: &str, vars: &[&str]) -> Relation {
        let f = parse_formula(src).unwrap();
        let order: Vec<Var> = vars.iter().map(Var::new).collect();
        let ev = Evaluator::with_context(ctx, None, &f);
        let b = ev.eval(&f).unwrap();
        ev.close(b, &order).to_relation(&order)
    }

    fn fresh_rel(inst: &Instance, src: &str, vars: &[&str]) -> Relation {
        let order: Vec<Var> = vars.iter().map(Var::new).collect();
        eval_to_relation(inst, None, &parse_formula(src).unwrap(), &order).unwrap()
    }

    const TC: &str = "fix T(x, y) { edge(x, y) or exists z (T(x, z) and edge(z, y)) }(u, w)";

    #[test]
    fn successor_carries_untouched_closure_fixpoints() {
        let inst = Instance::new()
            .with("edge", rel![[0, 1], [1, 2], [2, 3]])
            .with("other", rel![[0]]);
        let ctx = EvalContext::new(&inst);
        let v0 = eval_ctx_rel(&ctx, TC, &["u", "w"]);
        assert_eq!(ctx.fixpoints_cached(), 1);
        // a delta touching only `other`, with in-domain values: the cached
        // entry carries over as the same allocation, untouched
        let mut next_inst = inst.clone();
        next_inst.insert("other", vec![Value::int(3)]);
        let touched: BTreeSet<String> = [String::from("other")].into();
        let (next, report) = ctx.successor(Arc::new(next_inst), &touched);
        assert!(!report.adom_changed);
        assert_eq!(next.fixpoints_cached(), 1);
        let before: Vec<_> = ctx.fix.entries.lock().unwrap().values().cloned().collect();
        let after: Vec<_> = next.fix.entries.lock().unwrap().values().cloned().collect();
        assert!(
            Arc::ptr_eq(&before[0], &after[0]),
            "untouched entry must carry over without rebuilding"
        );
        assert_eq!(eval_ctx_rel(&next, TC, &["u", "w"]), v0);
    }

    #[test]
    fn successor_continues_closure_fixpoints_across_inserts_and_retractions() {
        let inst = Instance::new().with("edge", rel![[0, 1], [1, 2], [2, 3]]);
        let ctx = EvalContext::new(&inst);
        let v0 = eval_ctx_rel(&ctx, TC, &["u", "w"]);
        assert_eq!(v0.len(), 6);
        let touched: BTreeSet<String> = [String::from("edge")].into();

        // pure insert: the migrated entry must already hold the continued
        // fixpoint (semi-naive continuation), equal to a cold evaluation
        let mut grown = inst.clone();
        grown.insert("edge", vec![Value::int(3), Value::int(4)]);
        let (next, report) = ctx.successor(Arc::new(grown.clone()), &touched);
        assert!(report.adom_changed, "4 is a new active-domain value");
        assert_eq!(next.fixpoints_cached(), 1, "entry migrated, not dropped");
        let expected = fresh_rel(&grown, TC, &["u", "w"]);
        assert_eq!(expected.len(), 10);
        assert_eq!(eval_ctx_rel(&next, TC, &["u", "w"]), expected);

        // retraction: cutting the chain middle must delete-and-rederive —
        // derived pairs crossing (1, 2) disappear, the rest survive
        let mut cut = grown.clone();
        cut.remove("edge", &vec![Value::int(1), Value::int(2)]);
        let (next2, report2) = next.successor(Arc::new(cut.clone()), &touched);
        assert!(!report2.adom_changed, "1 and 2 remain in other edges");
        assert_eq!(next2.fixpoints_cached(), 1);
        let expected2 = fresh_rel(&cut, TC, &["u", "w"]);
        assert!(!expected2.contains(&[Value::int(0), Value::int(3)]));
        assert_eq!(eval_ctx_rel(&next2, TC, &["u", "w"]), expected2);

        // mixed in one transition: re-adding the cut edge elsewhere and
        // retracting the head simultaneously
        let mut mixed = cut.clone();
        mixed.insert("edge", vec![Value::int(4), Value::int(1)]);
        mixed.remove("edge", &vec![Value::int(0), Value::int(1)]);
        let (next3, _) = next2.successor(Arc::new(mixed.clone()), &touched);
        assert_eq!(
            eval_ctx_rel(&next3, TC, &["u", "w"]),
            fresh_rel(&mixed, TC, &["u", "w"])
        );
    }

    #[test]
    fn successor_drops_fixpoints_whose_constants_leave_the_domain() {
        // the body constant 0 anchors the reachability source; retracting
        // every row holding 0 shrinks the active domain past it, so the
        // cached entry no longer satisfies the cache gate and must drop
        let src = "fix S(a) { edge(0, a) or exists p (S(p) and edge(p, a)) }(w)";
        let inst = Instance::new().with("edge", rel![[0, 1], [1, 2]]);
        let ctx = EvalContext::new(&inst);
        let v0 = eval_ctx_rel(&ctx, src, &["w"]);
        assert_eq!(v0.len(), 2);
        assert_eq!(ctx.fixpoints_cached(), 1);
        let mut shrunk = inst.clone();
        shrunk.remove("edge", &vec![Value::int(0), Value::int(1)]);
        let touched: BTreeSet<String> = [String::from("edge")].into();
        let (next, report) = ctx.successor(Arc::new(shrunk.clone()), &touched);
        assert!(report.adom_changed, "0 left the active domain");
        assert_eq!(next.fixpoints_cached(), 0, "gated entry must be dropped");
        // correctness is preserved by recomputation
        assert_eq!(
            eval_ctx_rel(&next, src, &["w"]),
            fresh_rel(&shrunk, src, &["w"])
        );
    }
}
