//! The transformation semantics: running a transducer on an instance.
//!
//! The step relation of Section 3 expands leaves independently of one
//! another, so the implementation expands depth-first; the resulting tree is
//! identical to the fixpoint of `⇒τ,I`. Termination is guaranteed by the
//! stop condition: register contents range over the active domain of the
//! instance plus the transducer's constants, so no path can grow forever
//! (Proposition 1(1)). A configurable node budget guards against
//! accidentally huge outputs — the paper's own Proposition 1(3,4) shows
//! outputs can be exponential (tuple stores) or doubly exponential
//! (relation stores) in the input.
//!
//! # Configuration-DAG memoization
//!
//! A *configuration* is a `(state, tag, register)` triple. Registers range
//! over the active domain (Proposition 1), so the configuration space of a
//! run is finite, and the exponential outputs of Proposition 1(3,4) arise
//! precisely from the same configuration being expanded over and over along
//! different branches. The default [`ExpansionMode::Dag`] therefore interns
//! configurations and memoizes their expansion: identical subtrees are
//! computed once and shared via [`Arc`], turning the result tree into a
//! DAG whose *unfolding* is exactly the tree semantics. Configurations key
//! on a dense `(state, tag)` pair id from the prepared rule plan and a
//! dense hash-consed register id, so a memo probe hashes two `u32`s
//! regardless of register width; the session state lives in a
//! [`PreparedTransducer`](crate::PreparedTransducer) and persists across
//! its runs.
//!
//! Memoization must respect the stop condition, the only place where an
//! expansion looks at its *ancestor path*: the expansion of configuration
//! `c` under ancestors `S` is a deterministic function of `c` and of
//! `S ∩ F`, where the *footprint* `F` holds every configuration of the
//! expansion whose own subtree contains a stopped leaf (a stopped leaf
//! counts itself). Each memo entry records its footprint and `S ∩ F` at
//! expansion time, and is reused only under a path with the same
//! intersection. Two cases make this cheap:
//!
//! * A *stop-free* entry — no stopped leaf anywhere below — has an empty
//!   footprint, stores none, and matches under any ancestor path.
//! * A *cyclic* entry keeps only the configurations whose subtree holds a
//!   stopped leaf, not every configuration it met, and memo hits share the
//!   footprint by [`Arc`] instead of copying it into the parent's.
//!
//! This is exact, not an approximation. Suppose an ancestor `x` of `c`
//! occurs in `c`'s subtree. The route `x → … → c` that put `c` under `x`
//! consists of rule steps, which do not depend on the path, so inside the
//! subtree the occurrence of `x` unfolds the same route down to `c` — where
//! `c` is stopped, being the subtree's own root — unless a stop cuts the
//! route earlier. Either way a stopped leaf sits below that occurrence of
//! `x`, so `x ∈ F`: the ancestors that meet the full set of configurations
//! of the subtree are exactly those that meet `F`, and every reuse
//! decision is the one the full set would make. The stop check runs
//! *before* the memo lookup, on the path set: a configuration on the path
//! is sealed without scanning its expanded entries (by the same argument
//! each holds the configuration in its footprint but not in its recorded
//! intersection, so none could match), and its stopped leaf is built once
//! and then shared.
//!
//! # Publish-or-wait: one owner per cold slot
//!
//! Concurrent runs (and the worker threads of one parallel run) share the
//! memo, so two threads can miss the same cold `(PairId, RegId)` slot at
//! once. Instead of both expanding — duplicate work, duplicate entries,
//! and (for a shared parallel budget) duplicate charges — a thread that
//! misses first *claims* the slot in the session's claim table: the winner
//! expands exactly once, publishes the entry, and wakes the waiters
//! (parked on a condvar, never holding a shard lock); losers re-check the
//! memo on wake and replay the published entry. Self-referential stop
//! conditions can produce genuine cross-thread wait cycles (thread A's
//! expansion needs a configuration B owns while B's needs one A owns);
//! the claim table keeps a wait-for edge per thread and a claimer that
//! would close a cycle expands inline instead of waiting — a bounded,
//! deduplicated fallback duplicate, never a deadlock. A conservative
//! timeout backstops wait-for edges the table cannot see (a worker parked
//! on a pool scope). The budget stays exact in every schedule: each
//! occurrence of the unfolded tree is charged exactly once — node by node
//! by its (unique) expander, or as the published entry's recorded size on
//! a memo hit — so totals, and hence `NodeLimit` behavior, are
//! schedule-independent.
//!
//! # Symbolic registers end-to-end
//!
//! In the default [`ExpansionMode::Dag`], registers never leave the
//! interned representation between configuration expansion and query
//! evaluation: configurations hash-cons on canonical
//! [`pt_relational::SymRegister`]s (flat `u32` symbol rows), child
//! registers are produced directly from [`pt_logic::Query::groups_sym`] as
//! symbol rows, and the register is indexed for its rule-item queries
//! without re-interning a single value — and only when one of them needs
//! the general evaluator: register projections such as
//! `(c) <- ∃t Reg(c, t)` read the rows as they are
//! ([`pt_logic::Query::project_register`]). The memo and footprint keys, the
//! stop condition, and the configuration intern table all operate on
//! symbols.
//!
//! **Interner-relativity invariant.** Symbols are only meaningful against
//! the run-wide [`EvalContext`] interner. That interner is append-only and
//! shared by every query of the run, which is exactly what makes symbolic
//! hash-consing sound: equal value-level registers intern to identical
//! symbol rows, so symbol equality *is* register equality — within one run.
//! Symbolic registers must never be compared across runs, and every
//! [`ResultNode`] materializes its value-level [`Relation`] when it is
//! built (once per *distinct* configuration), so the public result tree is
//! self-contained and interner-free.
//!
//! Two oracle engines are kept alongside: [`ExpansionMode::DagValue`]
//! memoizes on value-level [`Relation`] keys (the previous-generation
//! engine — same DAG shape, no symbolic keys), and [`ExpansionMode::Tree`]
//! forces the pre-memoization behavior — every node expanded
//! independently, one query evaluation per node, everything value-level.
//! `Tree` is the ground-truth oracle of the differential and fuzz suites
//! (`tests/differential.rs`, `tests/fuzz_differential.rs`).

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

use pt_logic::eval::EvalError;
use pt_logic::par::PoolHandle;
use pt_logic::{EvalContext, IndexedRegister, Query};
use pt_relational::intern::{FxHashMap, FxHashSet, FxHasher};
use pt_relational::{Instance, Relation, SymRegister};
use pt_xmltree::{Tree, XmlEvent, XmlEventSink};

use crate::engine::Engine;
use crate::transducer::Transducer;

/// How [`Transducer::run_with`] expands the result tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExpansionMode {
    /// Intern configurations on symbolic register keys and share identical
    /// subtrees (the default). Registers stay symbolic through expansion,
    /// memoization, and query evaluation; values materialize only when a
    /// result node is built.
    #[default]
    Dag,
    /// The previous-generation DAG engine: identical memoization, but
    /// configurations key on value-level [`Relation`] registers that are
    /// re-interned per configuration. Kept as a secondary differential
    /// oracle for the symbolic path.
    DagValue,
    /// Expand every node independently, re-evaluating queries per node —
    /// the pre-memoization engine, kept as the ground-truth differential
    /// oracle and performance baseline.
    Tree,
}

/// Evaluation limits and strategy.
#[derive(Clone, Copy, Debug)]
pub struct EvalOptions {
    /// Maximum number of nodes of the result tree ξ (virtual nodes
    /// included, counted over the *unfolded* tree in both modes).
    pub max_nodes: usize,
    /// Expansion strategy.
    pub mode: ExpansionMode,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_nodes: 1_000_000,
            mode: ExpansionMode::Dag,
        }
    }
}

impl EvalOptions {
    /// Default limits with the given node budget.
    pub fn with_max_nodes(max_nodes: usize) -> Self {
        EvalOptions {
            max_nodes,
            ..EvalOptions::default()
        }
    }

    /// Default limits with [`ExpansionMode::Tree`] forced.
    pub fn forced_tree() -> Self {
        EvalOptions {
            mode: ExpansionMode::Tree,
            ..EvalOptions::default()
        }
    }
}

/// A failed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A query failed to evaluate (malformed transducer).
    Eval(EvalError),
    /// The node budget was exhausted.
    NodeLimit(usize),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Eval(e) => write!(f, "{e}"),
            RunError::NodeLimit(n) => write!(f, "node budget of {n} exhausted"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<EvalError> for RunError {
    fn from(e: EvalError) -> Self {
        RunError::Eval(e)
    }
}

/// A node of the result tree ξ ∈ Tree_{Q×Σ}: tag, creating state, register
/// content, and ordered children.
///
/// Children are held behind [`Arc`] so that the DAG expansion can share
/// identical subtrees; all tree-shaped observers ([`ResultNode::size`],
/// [`ResultNode::depth`], [`ResultNode::visit`]) report on the *unfolded*
/// tree, so sharing is semantically invisible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultNode {
    pub state: String,
    pub tag: String,
    pub register: Relation,
    pub children: Vec<Arc<ResultNode>>,
    /// Whether the stop condition sealed this node (an ancestor repeated
    /// its state, tag, and register).
    pub stopped: bool,
}

impl ResultNode {
    /// Number of nodes in the unfolded subtree. Computed with per-subtree
    /// memoization, so it is linear in the number of *distinct* nodes even
    /// when the unfolding is exponential.
    pub fn size(&self) -> usize {
        fn go(node: &ResultNode, cache: &mut HashMap<*const ResultNode, usize>) -> usize {
            let key = node as *const ResultNode;
            if let Some(&n) = cache.get(&key) {
                return n;
            }
            let n = 1 + node.children.iter().map(|c| go(c, cache)).sum::<usize>();
            cache.insert(key, n);
            n
        }
        go(self, &mut HashMap::new())
    }

    /// Depth of the unfolded subtree (a single node has depth 1), memoized
    /// like [`ResultNode::size`].
    pub fn depth(&self) -> usize {
        fn go(node: &ResultNode, cache: &mut HashMap<*const ResultNode, usize>) -> usize {
            let key = node as *const ResultNode;
            if let Some(&d) = cache.get(&key) {
                return d;
            }
            let d = 1 + node
                .children
                .iter()
                .map(|c| go(c, cache))
                .max()
                .unwrap_or(0);
            cache.insert(key, d);
            d
        }
        go(self, &mut HashMap::new())
    }

    /// Visit every node of the *unfolded* tree, preorder. A shared subtree
    /// is visited once per occurrence; cost is proportional to the
    /// unfolding.
    pub fn visit(&self, f: &mut impl FnMut(&ResultNode)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    /// Visit every *distinct* node once (preorder on the DAG). Equivalent
    /// to [`ResultNode::visit`] for observations that are insensitive to
    /// multiplicity, at cost proportional to the DAG.
    pub fn visit_distinct(&self, f: &mut impl FnMut(&ResultNode)) {
        fn go(
            node: &ResultNode,
            seen: &mut FxHashSet<*const ResultNode>,
            f: &mut impl FnMut(&ResultNode),
        ) {
            if !seen.insert(node as *const ResultNode) {
                return;
            }
            f(node);
            for c in &node.children {
                go(c, seen, f);
            }
        }
        go(self, &mut FxHashSet::default(), f);
    }
}

/// The outcome of a τ-transformation: the full result tree ξ (with states
/// and registers) plus everything derived from it.
#[derive(Clone, Debug)]
pub struct RunResult {
    root: Arc<ResultNode>,
    virtual_tags: BTreeSet<String>,
}

/// What one [`RunResult::stream_output`] walk did: how many events were
/// delivered and whether the sink truncated the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSummary {
    /// Events delivered to the sink (including the one it rejected, if
    /// truncated).
    pub events: usize,
    /// Whether the sink cut the stream short by returning `false`.
    pub truncated: bool,
}

impl RunResult {
    pub(crate) fn new(root: Arc<ResultNode>, virtual_tags: BTreeSet<String>) -> Self {
        RunResult { root, virtual_tags }
    }

    /// The result tree ξ before stripping states/registers.
    pub fn result_tree(&self) -> &ResultNode {
        &self.root
    }

    /// Number of nodes of ξ (virtual nodes included).
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Depth of ξ.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// The output Σ-tree `τ(I)`: states and registers stripped, text nodes
    /// rendered, virtual nodes spliced out (Section 3). Materializes the
    /// full unfolding.
    pub fn output_tree(&self) -> Tree {
        strip(&self.root, &self.virtual_tags)
    }

    /// Stream the output Σ-tree as SAX-style open/text/close events of the
    /// *unfolding* — states and registers stripped, text nodes rendered,
    /// virtual nodes spliced, exactly like [`RunResult::output_tree`] —
    /// without ever materializing the tree: shared subtrees of the result
    /// DAG are replayed once per occurrence, so memory stays proportional
    /// to the DAG (plus the open-element depth) even when the unfolding is
    /// exponential (Proposition 1(3,4)).
    ///
    /// The sink controls truncation: returning `false` from
    /// [`XmlEventSink::event`] stops the walk immediately (see
    /// [`pt_xmltree::Guarded`] for ready-made depth/size guards). Feeding
    /// the events to a [`pt_xmltree::TreeBuilder`] rebuilds exactly
    /// [`RunResult::output_tree`] — the round-trip oracle of the
    /// differential suites.
    pub fn stream_output(&self, sink: &mut impl XmlEventSink) -> StreamSummary {
        enum Frame<'n> {
            Visit(&'n ResultNode),
            Close(&'n str),
        }
        let mut stack: Vec<Frame<'_>> = vec![Frame::Visit(&self.root)];
        let mut events = 0usize;
        while let Some(frame) = stack.pop() {
            match frame {
                // virtual check first, mirroring `collect_children`; the
                // root is never virtual (builder invariant), so the root
                // frame behaves like `strip`
                Frame::Visit(node) if self.virtual_tags.contains(&node.tag) => {
                    for c in node.children.iter().rev() {
                        stack.push(Frame::Visit(c));
                    }
                }
                Frame::Visit(node) if node.tag == "text" => {
                    events += 1;
                    if !sink.event(XmlEvent::Text(&node.register.render())) {
                        return StreamSummary {
                            events,
                            truncated: true,
                        };
                    }
                }
                Frame::Visit(node) => {
                    events += 1;
                    if !sink.event(XmlEvent::Open(&node.tag)) {
                        return StreamSummary {
                            events,
                            truncated: true,
                        };
                    }
                    stack.push(Frame::Close(&node.tag));
                    for c in node.children.iter().rev() {
                        stack.push(Frame::Visit(c));
                    }
                }
                Frame::Close(tag) => {
                    events += 1;
                    if !sink.event(XmlEvent::Close(tag)) {
                        return StreamSummary {
                            events,
                            truncated: true,
                        };
                    }
                }
            }
        }
        StreamSummary {
            events,
            truncated: false,
        }
    }

    /// The relational query view `R_τ(I)` of Section 6.1: the union of the
    /// registers of every node of ξ labeled with the designated output tag.
    pub fn relational_output(&self, output_tag: &str) -> Relation {
        let mut out = Relation::new();
        // the union is multiplicity-insensitive: distinct nodes suffice
        self.root.visit_distinct(&mut |node| {
            if node.tag == output_tag {
                for t in node.register.iter() {
                    out.insert(t.clone());
                }
            }
        });
        out
    }
}

fn strip(node: &ResultNode, virtual_tags: &BTreeSet<String>) -> Tree {
    if node.tag == "text" {
        return Tree::text_node(node.register.render());
    }
    let mut children = Vec::new();
    for c in &node.children {
        collect_children(c, virtual_tags, &mut children);
    }
    Tree::node(&node.tag, children)
}

/// Virtual-node elimination: a virtual child is replaced by its own
/// (recursively processed) children.
fn collect_children(node: &ResultNode, virtual_tags: &BTreeSet<String>, out: &mut Vec<Tree>) {
    if virtual_tags.contains(&node.tag) {
        for c in &node.children {
            collect_children(c, virtual_tags, out);
        }
    } else {
        out.push(strip(node, virtual_tags));
    }
}

/// A hash-consed configuration id.
type ConfigId = u32;

/// A dense id for a `(state, tag)` pair, interned once at prepare time so
/// the hot loop never hashes a string.
pub(crate) type PairId = u32;

/// A dense id for a hash-consed register (ROADMAP: register-id interning).
/// Register ids live as long as their [`RegisterIds`] table — per
/// [`Engine`] for the symbolic path — so configuration memo keys are
/// `(PairId, RegId)` pairs and memo lookup is O(1) in the register width.
pub(crate) type RegId = u32;

/// The part of a subtree's configurations its expansion can depend on:
/// those whose own subtree holds a stopped leaf (see the module docs).
/// `None` for a stop-free subtree, which depends on no ancestor at all.
/// Shared by `Arc` between a memo entry and every hit that replays it.
type Footprint = Option<Arc<FxHashSet<ConfigId>>>;

/// One expanded (or replayed) subtree, as [`DagExpansion::expand`] hands it
/// to the parent.
struct Subtree {
    node: Arc<ResultNode>,
    footprint: Footprint,
    /// Unfolded ξ-node count (for budget accounting).
    size: usize,
    /// [`MemoValidity`] read mask of every relation the subtree's queries
    /// consulted.
    rel_mask: u64,
}

/// One memoized expansion of a configuration.
struct MemoEntry {
    footprint: Footprint,
    /// `ancestors ∩ footprint` at expansion time, sorted.
    blocked: Vec<ConfigId>,
    node: Arc<ResultNode>,
    /// Unfolded ξ-node count of the subtree (for budget accounting).
    size: usize,
    /// Eviction generation ([`MemoPolicy::Bounded`]); stamped by
    /// [`DagState::insert`].
    generation: u32,
    /// Database version the entry was computed against (the run's pinned
    /// engine version; 0 for single-shot sessions).
    version: u64,
    /// [`MemoValidity`] bucket mask of every base relation this subtree's
    /// queries read, plus the active-domain bit — the entry's read set.
    rel_mask: u64,
}

impl MemoEntry {
    /// The entry's subtree, shared (node and footprint are `Arc` clones).
    fn subtree(&self) -> Subtree {
        Subtree {
            node: Arc::clone(&self.node),
            footprint: self.footprint.clone(),
            size: self.size,
            rel_mask: self.rel_mask,
        }
    }
}

/// Which database version last changed each relation *bucket* — the
/// engine-wide invalidation clock that keeps prepared sessions' memos
/// alive across [`Delta`](pt_relational::Delta) applications.
///
/// Relation names hash into the low 63 buckets; bit [`MemoValidity::ADOM`]
/// is reserved for the active domain. Each bucket holds the newest database
/// version whose delta touched a relation hashing into it (the domain bit
/// advances only when the active domain actually changed). A memo entry
/// records the version it was computed under and the bucket mask of every
/// relation its subtree read; it is reusable by a run pinned at version `v`
/// iff no masked bucket advanced past `min(v, entry.version)` — a bucket
/// beyond that horizon means some relation the entry depends on changed
/// between the entry's database and the reader's. Hash collisions and the
/// conservative always-set domain bit on query-bearing pairs only ever
/// *over*-invalidate, never under-invalidate.
pub(crate) struct MemoValidity {
    buckets: [AtomicU64; 64],
}

impl MemoValidity {
    /// The reserved active-domain bit.
    const ADOM: u32 = 63;

    pub(crate) fn new() -> Self {
        MemoValidity {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket bit of a base-relation name.
    fn bucket_of(name: &str) -> u32 {
        let mut h = FxHasher::default();
        name.hash(&mut h);
        (h.finish() % u64::from(Self::ADOM)) as u32
    }

    /// The invalidation mask of one applied delta: the buckets of every
    /// touched relation, plus the domain bit if the active domain changed.
    pub(crate) fn mask_of<'a>(
        touched: impl IntoIterator<Item = &'a str>,
        adom_changed: bool,
    ) -> u64 {
        let mut mask = if adom_changed { 1u64 << Self::ADOM } else { 0 };
        for name in touched {
            mask |= 1u64 << Self::bucket_of(name);
        }
        mask
    }

    /// Advance every bucket in `mask` to at least `version` (called by
    /// `Engine::apply` *before* the new database version is published, so
    /// no reader can pin the new version without seeing the bumps).
    pub(crate) fn bump(&self, mask: u64, version: u64) {
        let mut m = mask;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            self.buckets[b].fetch_max(version, Ordering::Release);
            m &= m - 1;
        }
    }

    /// Whether no bucket in `mask` has advanced past `horizon`.
    fn valid(&self, mask: u64, horizon: u64) -> bool {
        let mut m = mask;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            if self.buckets[b].load(Ordering::Acquire) > horizon {
                return false;
            }
            m &= m - 1;
        }
        true
    }
}

/// How a DAG-mode run represents registers between configuration expansion
/// and query evaluation. Two implementations exist: [`SymRegister`] (the
/// default symbolic path — flat `u32` memo keys, zero value round-trips)
/// and [`Relation`] (the previous-generation value-level path, kept as a
/// differential oracle). The memoization logic is shared; only the register
/// plumbing differs.
pub(crate) trait RegisterRepr: Clone + Eq + Hash + Send + Sync {
    /// The root configuration's (empty, nullary) register.
    fn root() -> Self;
    /// The child registers one rule-item query spawns from `reg`, in
    /// sibling (domain) order. `ireg` is the register indexed for the
    /// general evaluator: built on first need and then shared by the
    /// configuration's remaining rule items.
    fn groups(
        query: &Query,
        ctx: &EvalContext,
        reg: &Self,
        ireg: &mut Option<IndexedRegister>,
    ) -> Result<Vec<Self>, EvalError>;
    /// The value-level relation stored on the result node.
    fn materialize(ctx: &EvalContext, reg: &Self) -> Relation;
}

impl RegisterRepr for SymRegister {
    fn root() -> Self {
        SymRegister::empty(0)
    }

    fn groups(
        query: &Query,
        ctx: &EvalContext,
        reg: &Self,
        ireg: &mut Option<IndexedRegister>,
    ) -> Result<Vec<Self>, EvalError> {
        // register projections read the rows as they are: no index
        if let Some(groups) = query.project_register(ctx, reg) {
            return Ok(groups);
        }
        let ireg = ireg.get_or_insert_with(|| ctx.index_sym_register(reg));
        Ok(query
            .groups_sym(ctx, Some(ireg))?
            .into_iter()
            .map(|(_, reg)| reg)
            .collect())
    }

    fn materialize(ctx: &EvalContext, reg: &Self) -> Relation {
        ctx.materialize_register(reg)
    }
}

impl RegisterRepr for Relation {
    fn root() -> Self {
        Relation::new()
    }

    fn groups(
        query: &Query,
        ctx: &EvalContext,
        reg: &Self,
        ireg: &mut Option<IndexedRegister>,
    ) -> Result<Vec<Self>, EvalError> {
        let ireg = ireg.get_or_insert_with(|| ctx.index_register(reg));
        Ok(query
            .groups_indexed(ctx, Some(ireg))?
            .into_iter()
            .map(|(_, reg)| reg)
            .collect())
    }

    fn materialize(_ctx: &EvalContext, reg: &Self) -> Relation {
        reg.clone()
    }
}

/// Dense hash-consing of registers: each distinct register is interned
/// once and addressed by its [`RegId`] thereafter, so configuration keys
/// carry two `u32`s instead of the register's flat row data. For the
/// symbolic path the table lives on the [`Engine`] (the engine's interner
/// is append-only, so symbolic register equality — and hence the ids — is
/// stable across every run and prepared transducer of that engine).
pub(crate) struct RegisterIds<R> {
    ids: FxHashMap<Arc<R>, RegId>,
    regs: Vec<Arc<R>>,
}

impl<R> Default for RegisterIds<R> {
    fn default() -> Self {
        RegisterIds {
            ids: FxHashMap::default(),
            regs: Vec::new(),
        }
    }
}

impl<R: RegisterRepr> RegisterIds<R> {
    /// The id of `reg`, if it was interned before — the lock-friendly fast
    /// path of [`RegisterIds::intern`] (warm runs only ever hit this).
    fn get(&self, reg: &R) -> Option<RegId> {
        self.ids.get(reg).copied()
    }

    /// The dense id of `reg`, interning it on first sight. This is the only
    /// place the full register data is hashed; every later lookup of the
    /// same register by id is O(1) in its width.
    fn intern(&mut self, reg: R) -> RegId {
        if let Some(&id) = self.ids.get(&reg) {
            return id;
        }
        let id = self.regs.len() as RegId;
        let reg = Arc::new(reg);
        self.regs.push(Arc::clone(&reg));
        self.ids.insert(reg, id);
        id
    }

    /// The interned register behind `id` (shared, no data clone).
    fn arc(&self, id: RegId) -> Arc<R> {
        Arc::clone(&self.regs[id as usize])
    }

    /// Number of distinct registers interned so far.
    pub(crate) fn len(&self) -> usize {
        self.regs.len()
    }
}

/// The per-transducer rule plan computed by `Engine::prepare`: every
/// `(state, tag)` pair reachable from `(q0, r)` gets a dense [`PairId`],
/// and each pair's rule items are resolved to `(child pair id, query)` up
/// front — the expansion hot loop never touches a string or a rule map.
pub(crate) struct PairTable<'t> {
    /// Pair names, for building [`ResultNode`]s; index 0 is `(q0, r)`.
    names: Vec<(String, String)>,
    /// Each pair's resolved rule items.
    items: Vec<Vec<(PairId, &'t Query)>>,
    /// Each pair's own [`MemoValidity`] read mask: the buckets of every
    /// base relation its rule-item queries mention, plus the active-domain
    /// bit whenever the pair has any query at all (queries are
    /// conservatively treated as domain-sensitive — quantifiers and
    /// equalities can enumerate the domain without naming a relation).
    /// Leaf pairs read nothing: mask 0.
    masks: Vec<u64>,
}

impl<'t> PairTable<'t> {
    pub(crate) fn new(tau: &'t Transducer) -> Self {
        let root = (tau.start_state().to_string(), tau.root_tag().to_string());
        let mut index: FxHashMap<(String, String), PairId> = FxHashMap::default();
        index.insert(root.clone(), 0);
        let mut names = vec![root];
        let mut items: Vec<Vec<(PairId, &'t Query)>> = Vec::new();
        let mut next = 0usize;
        while next < names.len() {
            let (state, tag) = names[next].clone();
            let rule = tau.rule(&state, &tag);
            let mut row = Vec::with_capacity(rule.len());
            for item in rule {
                let key = (item.state.clone(), item.tag.clone());
                let id = match index.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = names.len() as PairId;
                        index.insert(key.clone(), id);
                        names.push(key);
                        id
                    }
                };
                row.push((id, &item.query));
            }
            items.push(row);
            next += 1;
        }
        let masks = items
            .iter()
            .map(|row| {
                if row.is_empty() {
                    return 0u64;
                }
                let rels = row.iter().flat_map(|&(_, q)| q.body().base_relations());
                MemoValidity::mask_of(
                    rels.collect::<BTreeSet<_>>().iter().map(String::as_str),
                    true,
                )
            })
            .collect();
        PairTable {
            names,
            items,
            masks,
        }
    }

    /// Number of reachable `(state, tag)` pairs.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Every query reachable from the root pair — the queries a run can
    /// actually evaluate (rules on unreachable pairs are excluded).
    pub(crate) fn queries(&self) -> impl Iterator<Item = &'t Query> + '_ {
        self.items.iter().flatten().map(|&(_, q)| q)
    }
}

/// How a prepared transducer's configuration memo is bounded.
///
/// The memo persists for the session's lifetime and is shared by every
/// concurrent run of the prepared transducer. Long-lived engines serving
/// many transducers can cap it with *generation-counted* eviction: a new
/// generation opens every ⌈cap/2⌉ insertions, and when the entry count
/// exceeds the cap, entries older than the two newest generations are
/// dropped — each generation holds at most ⌈cap/2⌉ entries, so the
/// newest ~half-to-full cap survives and older entries age out first
/// (everything is dropped only in the degenerate racing case where the
/// survivors alone still exceed the cap). Configuration ids and
/// the register hash-consing table are never evicted — they are small,
/// and in-flight expansions hold on to their ids; a concurrent run simply
/// recomputes any entry evicted under it, so output is identical under
/// every policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MemoPolicy {
    /// Keep every memo entry for the session's lifetime (the default).
    #[default]
    Unbounded,
    /// Evict once the total entry count exceeds `max_entries`.
    Bounded {
        /// Maximum memo entries held across all configurations.
        max_entries: usize,
    },
}

/// Number of memo shards; a power of two so the shard of a configuration id
/// is a mask. 16 keeps write contention negligible at the 8–16 serving
/// threads the engine targets without bloating the per-session footprint.
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// The expansion session: the configuration intern table and memo, sharded
/// for concurrent runs. Owned by a `PreparedTransducer`, it persists across
/// `run()` calls — a repeated run replays memo entries instead of
/// re-expanding, and N concurrent runs share every entry any of them
/// produced (register ids are engine-relative and pair ids
/// prepared-transducer-relative, so the keys stay valid for the session's
/// whole lifetime).
///
/// A configuration id packs its shard into the low [`SHARD_BITS`] bits and
/// the index within the shard above them; footprint sets and ancestor paths
/// treat the id as opaque.
pub(crate) struct DagState {
    shards: Vec<RwLock<MemoShard>>,
    policy: MemoPolicy,
    /// Total memo entries across all shards (maintained outside the shard
    /// locks; transiently approximate under concurrency, which is fine —
    /// the cap is a resource bound, not a semantic one).
    entry_count: AtomicUsize,
    /// Current eviction generation ([`MemoPolicy::Bounded`]).
    generation: AtomicU32,
    /// Entries inserted in the current generation; a new generation opens
    /// every ⌈cap/2⌉ insertions so eviction always has an older
    /// generation to drop (approximate under concurrency, like
    /// `entry_count`).
    generation_fill: AtomicUsize,
    /// The publish-or-wait claim table: which expansion token owns each
    /// in-flight cold configuration, and which configuration each token is
    /// blocked on (the wait-for edges the cycle walk follows). Never held
    /// while a shard lock is held.
    claims: Mutex<Claims>,
    /// Wakes claim waiters on publish/release.
    claims_cv: Condvar,
    /// Cold expansions actually performed (stop-condition leaves excluded).
    /// Under publish-or-wait this stays equal to the number of distinct
    /// expansions the run set needed — racing threads no longer inflate it.
    expansions: AtomicUsize,
    /// Claim waits that hit the timeout and fell back to an inline
    /// expansion — the timeout-induced *potential duplicates* among
    /// `expansions`. A nonzero count under a generous `claim_wait` means
    /// owners were genuinely parked on pool batches, not merely slow.
    timeout_fallbacks: AtomicUsize,
}

#[derive(Default)]
struct MemoShard {
    ids: FxHashMap<(PairId, RegId), ConfigId>,
    configs: Vec<(PairId, RegId)>,
    entries: Vec<Vec<MemoEntry>>,
}

/// The claim table of the publish-or-wait protocol (see the module docs).
#[derive(Default)]
struct Claims {
    /// In-flight cold expansions: configuration → owning expansion token.
    owners: FxHashMap<ConfigId, u64>,
    /// Wait-for edges: token → the claimed configuration it is parked on.
    /// A token waits on at most one configuration at a time, and only ever
    /// on one present in `owners`.
    waiting: FxHashMap<u64, ConfigId>,
}

/// What [`DagState::claim`] decided for a thread that missed a cold slot.
enum Claim {
    /// The slot is ours: expand once, publish, release.
    Won,
    /// The owner released (published or failed); re-check the memo and, if
    /// it is still cold, claim again.
    Retry,
    /// Waiting would (or did) risk a deadlock — a wait-for cycle through
    /// our own claims, or a timeout on an edge the table cannot see.
    /// Expand inline without claiming; the publish deduplicates.
    Fallback,
}

/// How long a claim waiter parks before falling back to an inline
/// expansion, by default — configurable per run via
/// `RunOptions::claim_wait`. Wait-for cycles *through the claim table* are
/// detected immediately; the timeout only backstops cycles routed through
/// a pool scope wait (parent parked on its children's batch), which the
/// table cannot see. Expansions are typically far faster than this.
pub(crate) const CLAIM_WAIT: Duration = Duration::from_millis(10);

/// Expansion tokens: one per logical expansion thread (the root of a run,
/// and each fanned-out child job). Claims and wait-for edges key on the
/// token, so a token never waits on itself and cycle detection works
/// across pool workers.
fn next_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for DagState {
    fn default() -> Self {
        DagState::new(MemoPolicy::Unbounded)
    }
}

impl DagState {
    pub(crate) fn new(policy: MemoPolicy) -> Self {
        DagState {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(MemoShard::default()))
                .collect(),
            policy,
            entry_count: AtomicUsize::new(0),
            generation: AtomicU32::new(0),
            generation_fill: AtomicUsize::new(0),
            claims: Mutex::new(Claims::default()),
            claims_cv: Condvar::new(),
            expansions: AtomicUsize::new(0),
            timeout_fallbacks: AtomicUsize::new(0),
        }
    }

    fn shard_of(key: (PairId, RegId)) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }

    /// The configuration id of `key`, interning it on first sight. A hit
    /// takes only the shard's read lock.
    fn config_id(&self, key: (PairId, RegId)) -> ConfigId {
        let shard_idx = Self::shard_of(key);
        let shard = &self.shards[shard_idx];
        if let Some(&id) = shard.read().unwrap().ids.get(&key) {
            return id;
        }
        let mut guard = shard.write().unwrap();
        if let Some(&id) = guard.ids.get(&key) {
            return id;
        }
        let id = ((guard.configs.len() as ConfigId) << SHARD_BITS) | shard_idx as ConfigId;
        guard.configs.push(key);
        guard.entries.push(Vec::new());
        guard.ids.insert(key, id);
        id
    }

    /// The `(pair, register)` key behind a configuration id.
    fn config(&self, cid: ConfigId) -> (PairId, RegId) {
        let shard = &self.shards[(cid as usize) & (SHARDS - 1)];
        shard.read().unwrap().configs[(cid >> SHARD_BITS) as usize]
    }

    /// Memo lookup for a configuration *off* the ancestor path: an entry is
    /// reusable iff it is still valid for a run pinned at `version` (no
    /// relation bucket in its read mask advanced past
    /// `min(version, entry.version)` — see [`MemoValidity`]) *and* the
    /// ancestors intersect its footprint exactly as the recorded ancestors
    /// did. A stop-free entry matches under any path. `path` and `on_path`
    /// hold the same ancestors, as a sequence and as a set.
    fn lookup(
        &self,
        cid: ConfigId,
        path: &[ConfigId],
        on_path: &FxHashSet<ConfigId>,
        version: u64,
        validity: &MemoValidity,
    ) -> Option<Subtree> {
        let shard = self.shards[(cid as usize) & (SHARDS - 1)].read().unwrap();
        let entry = shard.entries[(cid >> SHARD_BITS) as usize]
            .iter()
            .find(|entry| {
                validity.valid(entry.rel_mask, version.min(entry.version))
                    && entry.footprint.as_ref().is_none_or(|fp| {
                        // `blocked ⊆ footprint`, so the intersection equals
                        // `blocked` iff all of it is on the path and the
                        // intersection is no larger; count it from the
                        // smaller side
                        let meets = if path.len() <= fp.len() {
                            path.iter().filter(|c| fp.contains(c)).count()
                        } else {
                            fp.iter().filter(|c| on_path.contains(c)).count()
                        };
                        meets == entry.blocked.len()
                            && entry.blocked.iter().all(|c| on_path.contains(c))
                    })
            })?;
        Some(entry.subtree())
    }

    /// The stopped leaf already built for `cid`, if any: the configuration
    /// is on the ancestor path, and only its stopped-leaf entry answers
    /// that (a stopped leaf reads no relation, so it never goes stale).
    fn stopped_leaf(&self, cid: ConfigId) -> Option<Subtree> {
        let shard = self.shards[(cid as usize) & (SHARDS - 1)].read().unwrap();
        shard.entries[(cid >> SHARD_BITS) as usize]
            .iter()
            .find(|entry| entry.node.stopped)
            .map(MemoEntry::subtree)
    }

    /// Publish one expansion (the entry's generation stamp is set here);
    /// under [`MemoPolicy::Bounded`], trips the generation-counted
    /// eviction when the cap is exceeded. Inserts are *deduplicated*: a
    /// slot that already holds an entry answering the same lookups (same
    /// ancestor-intersection key, same version) keeps the existing one, so
    /// the rare racing duplicates the publish-or-wait protocol still
    /// permits — stop-condition leaves and cycle/timeout fallbacks — never
    /// inflate `entry_count` and never make a bounded memo evict early.
    fn insert(&self, cid: ConfigId, mut entry: MemoEntry) {
        entry.generation = self.generation.load(Ordering::Relaxed);
        {
            let mut shard = self.shards[(cid as usize) & (SHARDS - 1)].write().unwrap();
            let entries = &mut shard.entries[(cid >> SHARD_BITS) as usize];
            if entries
                .iter()
                .any(|e| e.blocked == entry.blocked && e.version == entry.version)
            {
                return;
            }
            entries.push(entry);
        }
        let count = self.entry_count.fetch_add(1, Ordering::Relaxed) + 1;
        if let MemoPolicy::Bounded { max_entries } = self.policy {
            let fill = self.generation_fill.fetch_add(1, Ordering::Relaxed) + 1;
            if fill >= max_entries.div_ceil(2) {
                // open a new generation so the entries inserted so far age:
                // the next eviction keeps only the newer generation(s)
                self.generation_fill.store(0, Ordering::Relaxed);
                self.generation.fetch_add(1, Ordering::Relaxed);
            }
            if count > max_entries {
                self.evict(max_entries);
            }
        }
    }

    /// Generation-counted eviction: keep the two newest generations (each
    /// at most ⌈cap/2⌉ entries, so together they fit the cap) and drop
    /// everything older; if the survivors alone still exceed the cap
    /// (tiny caps or racing insertions), drop everything *except* claimed
    /// slots. A configuration currently claimed by an in-flight expansion
    /// is never evicted: its freshly published entry must survive until
    /// the claim is released and the parked waiters have replayed it —
    /// under tiny caps this is what keeps racing threads from evicting the
    /// very entry they are about to wake on. See [`MemoPolicy::Bounded`].
    fn evict(&self, max_entries: usize) {
        // snapshot the claimed slots first; the claims lock is never held
        // while a shard lock is (lock-order discipline, see `claims`)
        let protected: FxHashSet<ConfigId> = {
            let claims = self.claims.lock().unwrap();
            claims.owners.keys().copied().collect()
        };
        let current = self.generation.load(Ordering::Relaxed);
        let mut remaining = 0usize;
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let mut guard = shard.write().unwrap();
            for (slot, entries) in guard.entries.iter_mut().enumerate() {
                let cid = ((slot as ConfigId) << SHARD_BITS) | shard_idx as ConfigId;
                if !protected.contains(&cid) {
                    entries.retain(|e| current.wrapping_sub(e.generation) <= 1);
                }
                remaining += entries.len();
            }
        }
        if remaining > max_entries {
            remaining = 0;
            for (shard_idx, shard) in self.shards.iter().enumerate() {
                let mut guard = shard.write().unwrap();
                for (slot, entries) in guard.entries.iter_mut().enumerate() {
                    let cid = ((slot as ConfigId) << SHARD_BITS) | shard_idx as ConfigId;
                    if !protected.contains(&cid) {
                        entries.clear();
                    }
                    remaining += entries.len();
                }
            }
        }
        self.entry_count.store(remaining, Ordering::Relaxed);
    }

    /// Try to take ownership of cold configuration `cid` for `token`,
    /// parking while another token owns it. Returns [`Claim::Won`] with
    /// the claim held (release via [`DagState::release`], including on
    /// error paths), [`Claim::Retry`] after the owner released (the caller
    /// re-checks the memo), or [`Claim::Fallback`] when waiting would risk
    /// deadlock — the caller then expands inline without claiming. `wait`
    /// bounds the park (`RunOptions::claim_wait`); hitting it counts as a
    /// timeout fallback in the session stats.
    fn claim(&self, cid: ConfigId, token: u64, wait: Duration) -> Claim {
        let mut claims = self.claims.lock().unwrap();
        if let std::collections::hash_map::Entry::Vacant(slot) = claims.owners.entry(cid) {
            slot.insert(token);
            return Claim::Won;
        }
        // the wait-for edge we are about to add closes a cycle iff the
        // owner's wait chain already leads back to one of our own claims;
        // edges are only ever added under this lock, so the closer of a
        // cycle always sees it here — waiting threads never have to re-check
        if Self::would_cycle(&claims, cid, token) {
            return Claim::Fallback;
        }
        claims.waiting.insert(token, cid);
        let deadline = std::time::Instant::now() + wait;
        loop {
            if !claims.owners.contains_key(&cid) {
                claims.waiting.remove(&token);
                return Claim::Retry;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                claims.waiting.remove(&token);
                self.timeout_fallbacks.fetch_add(1, Ordering::Relaxed);
                return Claim::Fallback;
            }
            let (guard, _timeout) = self.claims_cv.wait_timeout(claims, deadline - now).unwrap();
            claims = guard;
        }
    }

    /// Whether `token` waiting on `cid` would close a wait-for cycle:
    /// follow owner → waited-on configuration → owner … from `cid`; a hop
    /// back to `token` itself is a cycle.
    fn would_cycle(claims: &Claims, cid: ConfigId, token: u64) -> bool {
        let mut hops = 0usize;
        let mut current = cid;
        loop {
            let Some(&owner) = claims.owners.get(&current) else {
                return false;
            };
            if owner == token {
                return true;
            }
            let Some(&next) = claims.waiting.get(&owner) else {
                return false;
            };
            current = next;
            hops += 1;
            if hops > claims.owners.len() {
                // defensive: the walk is bounded by the claim count
                return true;
            }
        }
    }

    /// Release `token`'s claim on `cid` and wake every parked waiter (they
    /// re-check the memo and re-claim if it is still cold). Called after
    /// publish — and, via [`ClaimGuard`], on every error path, so a failed
    /// expansion never strands its waiters.
    fn release(&self, cid: ConfigId, token: u64) {
        {
            let mut claims = self.claims.lock().unwrap();
            let removed = claims.owners.remove(&cid);
            debug_assert_eq!(removed, Some(token), "released a claim we did not hold");
        }
        self.claims_cv.notify_all();
        // claim protection can hold a bounded memo above its cap while the
        // expansion is in flight; releasing the claim is the drain point,
        // so re-enforce the cap here — once every claim is gone the memo
        // is back under it
        if let MemoPolicy::Bounded { max_entries } = self.policy {
            if self.entry_count.load(Ordering::Relaxed) > max_entries {
                self.evict(max_entries);
            }
        }
    }

    /// Drop every memo entry whose read mask has a bucket that advanced
    /// past the entry's own version — the post-`apply` sweep that keeps
    /// prepared sessions alive across database versions, evicting only
    /// what the delta could have changed. Returns the number of entries
    /// evicted. Configuration ids and register ids are never evicted (they
    /// stay meaningful: the interner lineage is append-only across
    /// versions).
    pub(crate) fn evict_invalid(&self, validity: &MemoValidity) -> usize {
        let mut evicted = 0usize;
        let mut remaining = 0usize;
        for shard in &self.shards {
            let mut guard = shard.write().unwrap();
            for entries in &mut guard.entries {
                let before = entries.len();
                entries.retain(|e| validity.valid(e.rel_mask, e.version));
                evicted += before - entries.len();
                remaining += entries.len();
            }
        }
        self.entry_count.store(remaining, Ordering::Relaxed);
        evicted
    }

    /// Number of distinct configurations interned so far.
    pub(crate) fn configs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap().configs.len())
            .sum()
    }

    /// Number of memo entries currently held.
    pub(crate) fn entries(&self) -> usize {
        self.entry_count.load(Ordering::Relaxed)
    }

    /// Number of cold expansions performed over this session's lifetime
    /// (stop-condition leaves excluded). With publish-or-wait this equals
    /// the number of distinct configurations expanded — racing threads
    /// wait instead of re-expanding — except for the deliberate cycle /
    /// timeout fallbacks, which expand inline rather than deadlock.
    pub(crate) fn expansions(&self) -> usize {
        self.expansions.load(Ordering::Relaxed)
    }

    /// Number of claim waits that hit their timeout and expanded inline —
    /// the timeout-induced potential duplicates among
    /// [`DagState::expansions`].
    pub(crate) fn timeout_fallbacks(&self) -> usize {
        self.timeout_fallbacks.load(Ordering::Relaxed)
    }

    /// The memo policy this session was prepared with.
    pub(crate) fn policy(&self) -> MemoPolicy {
        self.policy
    }
}

/// Run one DAG-mode expansion over a shared session: the single entry
/// point shared by `PreparedTransducer::run_with` (symbolic registers,
/// engine-owned caches) and the `ExpansionMode::DagValue` oracle arm
/// (value-level registers, throwaway session) — one wiring, two register
/// representations. Takes the session state by shared reference: N threads
/// may expand over one session concurrently, sharing the memo.
///
/// With `pool` set, independent child configurations of a node fan out
/// over the pool's threads (they share this run's node budget, which is
/// schedule-invariant: every occurrence of the unfolded tree is charged
/// exactly once, by its expander or by the memo hit that replays it).
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_session<R: RegisterRepr>(
    ctx: &EvalContext,
    regs: &RwLock<RegisterIds<R>>,
    pairs: &PairTable<'_>,
    state: &DagState,
    version: u64,
    validity: &MemoValidity,
    max_nodes: usize,
    claim_wait: Duration,
    pool: Option<&PoolHandle>,
) -> Result<Arc<ResultNode>, RunError> {
    let count = AtomicUsize::new(0);
    DagExpansion {
        ctx,
        regs,
        pairs,
        state,
        version,
        validity,
        max_nodes,
        claim_wait,
        count: &count,
        pool,
    }
    .run_root()
}

/// One DAG-mode expansion over a shared session, generic over the
/// register representation configurations key on. The engine-owned parts
/// (`ctx`, `regs`) and the session memo (`state`) are shared across
/// concurrent runs; only `count` — this run's unfolded-node budget — is
/// run-local (shared by the run's fanned-out jobs, atomic for that
/// reason). No lock is ever held across recursion or query evaluation.
struct DagExpansion<'x, 't, R: RegisterRepr> {
    ctx: &'x EvalContext,
    regs: &'x RwLock<RegisterIds<R>>,
    pairs: &'x PairTable<'t>,
    state: &'x DagState,
    /// Database version this run is pinned to (stamped on every entry it
    /// inserts, and the reuse horizon for entries it looks up).
    version: u64,
    validity: &'x MemoValidity,
    max_nodes: usize,
    /// How long a claim wait parks before the inline-expansion fallback
    /// (`RunOptions::claim_wait`).
    claim_wait: Duration,
    count: &'x AtomicUsize,
    /// Worker pool for intra-run fan-out; `None` runs single-threaded.
    pool: Option<&'x PoolHandle>,
}

/// Releases a won claim when the expansion frame unwinds — publish happens
/// first (inside `expand_cold`), so waiters woken by the release find the
/// entry; on an error path the release simply sends them back to claim.
struct ClaimGuard<'a> {
    state: &'a DagState,
    cid: ConfigId,
    token: u64,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        self.state.release(self.cid, self.token);
    }
}

impl<'x, 't, R: RegisterRepr> DagExpansion<'x, 't, R> {
    fn config_id(&self, pair: PairId, register: R) -> ConfigId {
        // warm runs resolve every register through the read lock; only a
        // genuinely new register takes the write lock to intern (the read
        // guard must be dropped first — std RwLock is not re-entrant)
        let cached = self.regs.read().unwrap().get(&register);
        let reg = match cached {
            Some(id) => id,
            None => self.regs.write().unwrap().intern(register),
        };
        self.state.config_id((pair, reg))
    }

    fn charge(&self, nodes: usize) -> Result<(), RunError> {
        let total = self.count.fetch_add(nodes, Ordering::Relaxed) + nodes;
        if total > self.max_nodes {
            return Err(RunError::NodeLimit(self.max_nodes));
        }
        Ok(())
    }

    /// Expand the root configuration `(q0, r, ∅)` — interning it on the
    /// session's first run, replaying its memo entry afterwards.
    fn run_root(&self) -> Result<Arc<ResultNode>, RunError> {
        let root_cid = self.config_id(0, R::root());
        let root = self.expand(
            root_cid,
            &mut Vec::new(),
            &mut FxHashSet::default(),
            next_token(),
        )?;
        Ok(root.node)
    }

    /// Expand configuration `cid` under the ancestor path `path` /
    /// `on_path` (the same ancestors as a sequence and as a set), returning
    /// the (possibly shared) subtree. `token` identifies the logical
    /// expansion thread for the publish-or-wait protocol (one per run root
    /// and per fanned-out job).
    fn expand(
        &self,
        cid: ConfigId,
        path: &mut Vec<ConfigId>,
        on_path: &mut FxHashSet<ConfigId>,
        token: u64,
    ) -> Result<Subtree, RunError> {
        // stop condition (Section 3, condition (1)): an ancestor with the
        // same state, tag and register seals this leaf. Checked before the
        // lookup — on the path, only the stopped-leaf entry can answer (an
        // expanded entry holds `cid` in its footprint but not in `blocked`)
        // — and *before* claiming: the ancestor expansion of `cid` holds
        // the claim, so claiming here would self-deadlock; the leaf
        // publishes unclaimed (insert deduplicates the racing copies)
        if on_path.contains(&cid) {
            self.charge(1)?;
            if let Some(leaf) = self.state.stopped_leaf(cid) {
                return Ok(leaf);
            }
            let (pair, reg_id) = self.state.config(cid);
            // Arc clone only: the interned register is never copied
            let register = self.regs.read().unwrap().arc(reg_id);
            let (state, tag) = self.pairs.names[pair as usize].clone();
            let node = Arc::new(ResultNode {
                state,
                tag,
                register: R::materialize(self.ctx, &register),
                children: Vec::new(),
                stopped: true,
            });
            let footprint: Footprint = Some(Arc::new([cid].into_iter().collect()));
            // a stopped leaf evaluates no query — its value depends only on
            // the path intersection, so its read mask is empty
            self.state.insert(
                cid,
                MemoEntry {
                    footprint: footprint.clone(),
                    blocked: vec![cid],
                    node: Arc::clone(&node),
                    size: 1,
                    generation: 0,
                    version: self.version,
                    rel_mask: 0,
                },
            );
            return Ok(Subtree {
                node,
                footprint,
                size: 1,
                rel_mask: 0,
            });
        }

        // memo lookup: an entry is reusable iff it is still valid at this
        // run's pinned version and the current ancestors intersect its
        // footprint exactly as the recorded ancestors did
        if let Some(hit) = self
            .state
            .lookup(cid, path, on_path, self.version, self.validity)
        {
            self.charge(hit.size)?;
            return Ok(hit);
        }

        // publish-or-wait: claim the cold slot or park until its owner
        // publishes, then replay the published entry
        loop {
            match self.state.claim(cid, token, self.claim_wait) {
                Claim::Won => {
                    let _guard = ClaimGuard {
                        state: self.state,
                        cid,
                        token,
                    };
                    // expand_cold publishes before the guard releases, so
                    // woken waiters find the entry
                    return self.expand_cold(cid, path, on_path, token);
                }
                Claim::Retry => {
                    // the owner released; its entry usually answers us —
                    // unless our ancestor path intersects the footprint
                    // differently (or a bounded memo evicted it), in which
                    // case we go around and claim the slot ourselves
                    if let Some(hit) =
                        self.state
                            .lookup(cid, path, on_path, self.version, self.validity)
                    {
                        self.charge(hit.size)?;
                        return Ok(hit);
                    }
                }
                Claim::Fallback => {
                    // waiting would risk deadlock (wait-for cycle, or an
                    // owner stalled past the timeout): expand inline
                    // without claiming — insert deduplicates the copies
                    return self.expand_cold(cid, path, on_path, token);
                }
            }
        }
    }

    /// Expand a cold configuration: evaluate its rule-item queries, expand
    /// every child (fanning independent children out over the pool when
    /// one is attached and hungry), and publish the memo entry.
    fn expand_cold(
        &self,
        cid: ConfigId,
        path: &mut Vec<ConfigId>,
        on_path: &mut FxHashSet<ConfigId>,
        token: u64,
    ) -> Result<Subtree, RunError> {
        self.charge(1)?;
        self.state.expansions.fetch_add(1, Ordering::Relaxed);
        let (pair, reg_id) = self.state.config(cid);
        // Arc clone only: the interned register is never copied
        let register = self.regs.read().unwrap().arc(reg_id);
        let (state, tag) = self.pairs.names[pair as usize].clone();
        // copy the table reference out so the item slice does not hold a
        // borrow of `self` across the recursion
        let pairs: &'x PairTable<'t> = self.pairs;
        let items = &pairs.items[pair as usize];
        let mut children = Vec::new();
        // the union of the children's footprints; stays `None` while every
        // child subtree is stop-free
        let mut footprint: Option<FxHashSet<ConfigId>> = None;
        let mut size = 1usize;
        let mut rel_mask = pairs.masks[pair as usize];
        let mut add_child = |sub: Subtree| {
            children.push(sub.node);
            if let Some(fp) = sub.footprint {
                footprint
                    .get_or_insert_with(FxHashSet::default)
                    .extend(fp.iter().copied());
            }
            size += sub.size;
            rel_mask |= sub.rel_mask;
        };
        if !items.is_empty() {
            path.push(cid);
            on_path.insert(cid);
            // resolve every child configuration first (queries evaluate on
            // this thread; `groups` fixes the sibling/domain order); the
            // register is indexed at most once per configuration, by the
            // first rule item that needs the general evaluator
            let mut ireg = None;
            let mut child_cids: Vec<ConfigId> = Vec::new();
            for &(child_pair, query) in items {
                // children grouped by x̄, ordered by the domain order
                for group in R::groups(query, self.ctx, &register, &mut ireg)? {
                    child_cids.push(self.config_id(child_pair, group));
                }
            }
            let fan_out = self
                .pool
                .is_some_and(|p| p.threads() > 1 && child_cids.len() >= 2 && p.starving());
            if fan_out {
                let pool = self.pool.unwrap();
                // each job gets its own copy of the ancestor path and a
                // fresh token (it is its own logical expansion thread for
                // the wait-for graph)
                let job_path: &Vec<ConfigId> = path;
                let job_on_path: &FxHashSet<ConfigId> = on_path;
                let results = pool.map(child_cids, |child| {
                    let mut p = job_path.clone();
                    let mut op = job_on_path.clone();
                    self.expand(child, &mut p, &mut op, next_token())
                });
                // sibling order is preserved; on multiple failures the
                // first error in sibling order surfaces (the caller's
                // sequential-rerun fallback restores the exact oracle
                // error when schedules could still disagree)
                for result in results {
                    add_child(result?);
                }
            } else {
                for child in child_cids {
                    add_child(self.expand(child, path, on_path, token)?);
                }
            }
            path.pop();
            on_path.remove(&cid);
        }
        let node = Arc::new(ResultNode {
            state,
            tag,
            register: R::materialize(self.ctx, &register),
            children,
            stopped: false,
        });
        // a stopped leaf below makes this configuration part of its own
        // footprint; a stop-free subtree blocks no ancestor
        let (footprint, blocked): (Footprint, Vec<ConfigId>) = match footprint {
            None => (None, Vec::new()),
            Some(mut fp) => {
                fp.insert(cid);
                let mut blocked: Vec<ConfigId> =
                    path.iter().copied().filter(|c| fp.contains(c)).collect();
                blocked.sort_unstable();
                (Some(Arc::new(fp)), blocked)
            }
        };
        self.state.insert(
            cid,
            MemoEntry {
                footprint: footprint.clone(),
                blocked,
                node: Arc::clone(&node),
                size,
                generation: 0,
                version: self.version,
                rel_mask,
            },
        );
        Ok(Subtree {
            node,
            footprint,
            size,
            rel_mask,
        })
    }
}

impl Transducer {
    /// Run the τ-transformation on `instance` with default limits.
    ///
    /// This is a convenience wrapper that builds a one-shot [`Engine`]
    /// session per call. Callers publishing many documents from one
    /// database should hold an [`Engine`] and [`Engine::prepare`] the
    /// transducer instead, amortizing the active-domain scan, base-relation
    /// interning/indexing, the rule plan, and the configuration memo across
    /// runs.
    pub fn run(&self, instance: &Instance) -> Result<RunResult, RunError> {
        self.run_with(instance, EvalOptions::default())
    }

    /// Run with explicit limits.
    pub fn run_with(&self, instance: &Instance, opts: EvalOptions) -> Result<RunResult, RunError> {
        match opts.mode {
            // the default engine: a cold single-run session
            ExpansionMode::Dag => {
                let engine = Engine::new(instance);
                engine
                    .prepare_unvalidated(self, MemoPolicy::default())
                    .run_with(opts.max_nodes)
            }
            // the value-level-key oracle engine: same memo logic, register
            // ids interned over value-level relations, all session state
            // local to this call
            ExpansionMode::DagValue => {
                let ctx = EvalContext::new(instance);
                let regs = RwLock::new(RegisterIds::<Relation>::default());
                let pairs = PairTable::new(self);
                let state = DagState::default();
                // single-shot session: version 0 against a zeroed clock,
                // so every entry trivially stays valid
                let validity = MemoValidity::new();
                let root = expand_session(
                    &ctx,
                    &regs,
                    &pairs,
                    &state,
                    0,
                    &validity,
                    opts.max_nodes,
                    CLAIM_WAIT,
                    None,
                )?;
                Ok(RunResult::new(root, self.virtual_tags().clone()))
            }
            ExpansionMode::Tree => {
                let mut count = 0usize;
                let mut path: Vec<(String, String, Relation)> = Vec::new();
                let root = Arc::new(self.expand_tree(
                    instance,
                    self.start_state(),
                    self.root_tag(),
                    Relation::new(),
                    &mut path,
                    &mut count,
                    &opts,
                )?);
                Ok(RunResult::new(root, self.virtual_tags().clone()))
            }
        }
    }

    /// Run on a dedicated thread with a large stack — for workloads whose
    /// output trees are very deep (Proposition 1(4) reaches depth `2^(2^n)`).
    pub fn run_with_stack(
        &self,
        instance: &Instance,
        opts: EvalOptions,
        stack_bytes: usize,
    ) -> Result<RunResult, RunError> {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(stack_bytes)
                .spawn_scoped(scope, || self.run_with(instance, opts))
                .expect("spawning the evaluation thread")
                .join()
                .expect("the evaluation thread panicked")
        })
    }

    /// Convenience: run and return the output Σ-tree.
    pub fn output(&self, instance: &Instance) -> Result<Tree, RunError> {
        Ok(self.run(instance)?.output_tree())
    }

    /// Convenience: run and return the relational query view `R_τ(I)`.
    pub fn run_relational(
        &self,
        instance: &Instance,
        output_tag: &str,
    ) -> Result<Relation, RunError> {
        Ok(self.run(instance)?.relational_output(output_tag))
    }

    /// The pre-memoization expansion: every node expanded independently
    /// ([`ExpansionMode::Tree`]).
    #[allow(clippy::too_many_arguments)]
    fn expand_tree(
        &self,
        instance: &Instance,
        state: &str,
        tag: &str,
        register: Relation,
        path: &mut Vec<(String, String, Relation)>,
        count: &mut usize,
        opts: &EvalOptions,
    ) -> Result<ResultNode, RunError> {
        *count += 1;
        if *count > opts.max_nodes {
            return Err(RunError::NodeLimit(opts.max_nodes));
        }
        // stop condition (Section 3, condition (1)): an ancestor with the
        // same state, tag and register seals this leaf
        if path
            .iter()
            .any(|(s, t, r)| s == state && t == tag && *r == register)
        {
            return Ok(ResultNode {
                state: state.to_string(),
                tag: tag.to_string(),
                register,
                children: Vec::new(),
                stopped: true,
            });
        }
        let items = self.rule(state, tag);
        let mut children = Vec::new();
        if !items.is_empty() {
            path.push((state.to_string(), tag.to_string(), register.clone()));
            for item in items {
                // children grouped by x̄, ordered by the domain order
                for (_, group) in item.query.groups(instance, Some(&register))? {
                    children.push(Arc::new(self.expand_tree(
                        instance,
                        &item.state,
                        &item.tag,
                        group,
                        path,
                        count,
                        opts,
                    )?));
                }
            }
            path.pop();
        }
        Ok(ResultNode {
            state: state.to_string(),
            tag: tag.to_string(),
            register,
            children,
            stopped: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transducer::Transducer;
    use pt_relational::{rel, Schema, Value};

    fn graph_schema() -> Schema {
        Schema::with(&[("edge", 2), ("start", 1)])
    }

    /// Unfold a graph from its start nodes (the τ1 of Proposition 1(3)).
    fn unfold() -> Transducer {
        Transducer::builder(graph_schema(), "q0", "root")
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
    fn basic_run_shape() {
        let inst = Instance::new()
            .with("start", rel![[0]])
            .with("edge", rel![[0, 1], [0, 2], [1, 3]]);
        let result = unfold().run(&inst).unwrap();
        let tree = result.output_tree();
        // root(a(a(a), a))
        assert_eq!(format!("{tree:?}"), "root(a(a(a), a))");
        assert_eq!(result.size(), 5);
        assert_eq!(result.depth(), 4);
    }

    #[test]
    fn children_ordered_by_domain_order() {
        let inst = Instance::new().with("start", rel![[3], [1], [2]]);
        let tree = unfold().output(&inst).unwrap();
        // three a-children; registers were 1, 2, 3 in order — verify via ξ
        let run = unfold().run(&inst).unwrap();
        let regs: Vec<i64> = run.result_tree().children[..]
            .iter()
            .map(|c| c.register.the_tuple()[0].as_int().unwrap())
            .collect();
        assert_eq!(regs, vec![1, 2, 3]);
        assert_eq!(tree.children().len(), 3);
    }

    #[test]
    fn stop_condition_on_cycles() {
        let inst = Instance::new()
            .with("start", rel![[0]])
            .with("edge", rel![[0, 1], [1, 0]]);
        let result = unfold().run(&inst).unwrap();
        // path 0 → 1 → 0(stop): the repeated (q, a, {0}) leaf is sealed
        let tree = result.output_tree();
        assert_eq!(format!("{tree:?}"), "root(a(a(a)))");
        let mut sealed = 0;
        result.result_tree().visit(&mut |n| {
            if n.stopped {
                sealed += 1;
            }
        });
        assert_eq!(sealed, 1);
    }

    #[test]
    fn determinism() {
        let inst = Instance::new()
            .with("start", rel![[0], [5]])
            .with("edge", rel![[0, 1], [5, 1], [1, 5]]);
        let t = unfold();
        let a = t.run(&inst).unwrap().output_tree();
        let b = t.run(&inst).unwrap().output_tree();
        assert_eq!(a, b);
    }

    #[test]
    fn node_limit_enforced() {
        let inst = Instance::new()
            .with("start", rel![[0]])
            .with("edge", rel![[0, 1], [1, 0]]);
        for mode in [
            ExpansionMode::Dag,
            ExpansionMode::DagValue,
            ExpansionMode::Tree,
        ] {
            let err = unfold()
                .run_with(&inst, EvalOptions { max_nodes: 2, mode })
                .unwrap_err();
            assert_eq!(err, RunError::NodeLimit(2));
        }
    }

    #[test]
    fn node_budget_counts_the_unfolding() {
        // a diamond: both middles lead to the same tail configuration, so
        // the DAG shares it — but the budget must still count the unfolded
        // tree, exactly like tree mode
        let inst = Instance::new()
            .with("start", rel![[0]])
            .with("edge", rel![[0, 1], [0, 2], [1, 3], [2, 3]]);
        let tau = unfold();
        let size = tau.run(&inst).unwrap().size(); // root, 0, 1, 2, 3, 3
        assert_eq!(size, 6);
        for mode in [
            ExpansionMode::Dag,
            ExpansionMode::DagValue,
            ExpansionMode::Tree,
        ] {
            assert!(tau
                .run_with(
                    &inst,
                    EvalOptions {
                        max_nodes: size,
                        mode
                    }
                )
                .is_ok());
            assert_eq!(
                tau.run_with(
                    &inst,
                    EvalOptions {
                        max_nodes: size - 1,
                        mode
                    }
                )
                .unwrap_err(),
                RunError::NodeLimit(size - 1),
                "budget must trip on the unfolded count in {mode:?} mode"
            );
        }
    }

    #[test]
    fn dag_and_tree_modes_agree() {
        let t = unfold();
        // a shape with sharing, a cycle, and a self-loop
        let inst = Instance::new()
            .with("start", rel![[0], [5]])
            .with("edge", rel![[0, 1], [0, 2], [1, 3], [2, 3], [3, 0], [5, 5]]);
        let dag = t.run_with(&inst, EvalOptions::default()).unwrap();
        let tree = t.run_with(&inst, EvalOptions::forced_tree()).unwrap();
        assert_eq!(dag.output_tree(), tree.output_tree());
        assert_eq!(dag.size(), tree.size());
        assert_eq!(dag.depth(), tree.depth());
        assert_eq!(dag.relational_output("a"), tree.relational_output("a"));
    }

    #[test]
    fn virtual_nodes_spliced() {
        let t = Transducer::builder(graph_schema(), "q0", "root")
            .virtual_tag("v")
            .rule("q0", "root", &[("q", "v", "(x) <- start(x)")])
            .rule(
                "q",
                "v",
                &[("q", "b", "(y) <- exists x (Reg(x) and edge(x, y))")],
            )
            .build()
            .unwrap();
        let inst = Instance::new()
            .with("start", rel![[0]])
            .with("edge", rel![[0, 7], [0, 8]]);
        let tree = t.output(&inst).unwrap();
        // v disappears; its b-children attach to root
        assert_eq!(format!("{tree:?}"), "root(b, b)");
        // but ξ still contains the v node
        let run = t.run(&inst).unwrap();
        assert_eq!(run.size(), 4);
        assert_eq!(run.result_tree().children[0].tag, "v");
    }

    #[test]
    fn nested_virtual_nodes_spliced_recursively() {
        let t = Transducer::builder(graph_schema(), "q0", "root")
            .virtual_tag("v")
            .virtual_tag("w")
            .rule("q0", "root", &[("q", "v", "(x) <- start(x)")])
            .rule("q", "v", &[("q", "w", "(x) <- Reg(x)")])
            .rule("q", "w", &[("q", "b", "(x) <- Reg(x)")])
            .build()
            .unwrap();
        let inst = Instance::new().with("start", rel![[0]]);
        let tree = t.output(&inst).unwrap();
        assert_eq!(format!("{tree:?}"), "root(b)");
    }

    #[test]
    fn text_nodes_render_registers() {
        let t = Transducer::builder(graph_schema(), "q0", "root")
            .rule("q0", "root", &[("q", "a", "(x) <- start(x)")])
            .rule("q", "a", &[("q", "text", "(x) <- Reg(x)")])
            .build()
            .unwrap();
        let inst = Instance::new().with("start", rel![[42]]);
        let tree = t.output(&inst).unwrap();
        assert_eq!(tree.children()[0].children()[0].pcdata(), Some("42"));
    }

    #[test]
    fn relational_output_unions_registers() {
        let inst = Instance::new()
            .with("start", rel![[0]])
            .with("edge", rel![[0, 1], [1, 2]]);
        let run = unfold().run(&inst).unwrap();
        let out = run.relational_output("a");
        // registers seen at a-nodes: {0}, {1}, {2}
        assert_eq!(out.len(), 3);
        assert!(out.contains(&[Value::int(2)]));
    }

    #[test]
    fn empty_rule_means_leaf() {
        let t = Transducer::builder(graph_schema(), "q0", "root")
            .rule("q0", "root", &[("q", "a", "(x) <- start(x)")])
            // no rule for (q, a): empty rhs
            .build()
            .unwrap();
        let inst = Instance::new()
            .with("start", rel![[1]])
            .with("edge", rel![[1, 2]]);
        let tree = t.output(&inst).unwrap();
        assert_eq!(format!("{tree:?}"), "root(a)");
    }

    #[test]
    fn trivial_transducer_outputs_root_only() {
        let t = Transducer::builder(graph_schema(), "q0", "root")
            .build()
            .unwrap();
        let inst = Instance::new().with("start", rel![[1]]);
        let tree = t.output(&inst).unwrap();
        assert!(tree.is_trivial());
        assert_eq!(tree.label(), "root");
    }

    #[test]
    fn stop_condition_distinguishes_registers() {
        // same (state, tag) but growing registers must NOT be sealed
        let inst = Instance::new()
            .with("start", rel![[0]])
            .with("edge", rel![[0, 1], [1, 2], [2, 3]]);
        let run = unfold().run(&inst).unwrap();
        assert_eq!(run.depth(), 5); // root, 0, 1, 2, 3
        let mut sealed = 0;
        run.result_tree().visit(&mut |n| {
            if n.stopped {
                sealed += 1;
            }
        });
        assert_eq!(sealed, 0);
    }

    #[test]
    fn run_with_stack_agrees_with_run() {
        let inst = Instance::new()
            .with("start", rel![[0]])
            .with("edge", rel![[0, 1], [1, 2]]);
        let t = unfold();
        let a = t.run(&inst).unwrap().output_tree();
        let b = t
            .run_with_stack(&inst, EvalOptions::default(), 8 << 20)
            .unwrap()
            .output_tree();
        assert_eq!(a, b);
    }

    #[test]
    fn dag_mode_shares_repeated_subtrees() {
        // chain-of-diamonds: 2^n leaves in the unfolding, but only O(n)
        // distinct configurations — DAG mode must materialize O(n) nodes
        let mut edges = Relation::new();
        let n = 12i64;
        for i in 0..n {
            for j in 0..2 {
                edges.insert(vec![
                    Value::str(format!("a{i}")),
                    Value::str(format!("b{i}_{j}")),
                ]);
                edges.insert(vec![
                    Value::str(format!("b{i}_{j}")),
                    Value::str(format!("a{}", i + 1)),
                ]);
            }
        }
        let inst = Instance::new()
            .with("start", rel![["a0"]])
            .with("edge", edges);
        let run = unfold().run(&inst).unwrap();
        // unfolded size is exponential…
        assert!(run.size() > 1 << n);
        // …but the DAG holds one node per distinct configuration
        let mut distinct = 0usize;
        run.result_tree().visit_distinct(&mut |_| distinct += 1);
        assert!(
            distinct <= 4 * (n as usize) + 3,
            "expected O(n) distinct nodes, got {distinct}"
        );
    }
}
