//! A one-time compiler from [`ModelIr`] to flat bitset kernels.
//!
//! The tree-walking evaluator in [`ir`](crate::ir) is the *reference*
//! semantics of a model: lazy, memoized, and easy to audit — but it
//! pays interpretation overhead on every candidate execution (name
//! probes, allocation per operator node, re-walking shared subtrees).
//! [`CompiledModel`] removes that overhead by lowering models **once**
//! into an SSA-style program of bitset operations over `u64` words:
//!
//! - **Interning** — every base-relation, base-set, and definition name
//!   is resolved to a dense index at compile time. Judging a candidate
//!   performs exactly one `binding.rel`/`binding.set` query per distinct
//!   base the model actually reaches, and zero string probes elsewhere.
//! - **Common-subexpression elimination** — lowering hash-conses every
//!   operation, so a subterm shared between definitions (or repeated in
//!   axioms) is computed exactly once per evaluation. `a*` lowers to
//!   `(a⁺)?`, so a model using both closures shares the expensive one.
//! - **Fusion** — associative chains `a ∪ b ∪ c …`, `a ∩ b ∩ c …` and
//!   difference chains `a \ b \ c …` are flattened into single n-ary
//!   kernels that make one pass over the relation words (`|=`, `&=`,
//!   `&= !` per row) instead of allocating one intermediate relation
//!   per binary node. Restriction and cross products are single masked
//!   passes as well.
//! - **Hoisting** — the caller names which bases are *space-invariant*
//!   (derived from the program, not from the candidate `rf`/`co`: `po`,
//!   dependency edges, fence edge sets, annotation/AMO event sets, …).
//!   Every operation whose inputs are transitively invariant moves into
//!   a **prelude** that is evaluated once per program — a judging
//!   stream evaluates the [`Prelude`] once and replays it for every
//!   candidate, so per-candidate work touches only the truly
//!   candidate-dependent suffix of the dataflow graph.
//!
//! # Multi-output kernels
//!
//! [`CompiledModel::compile`] lowers a slice of 1–64 models into **one**
//! hash-consed arena, so CSE runs across models as well as within
//! them: models that share base relations, `com`, or whole axioms (the
//! seven Table 7 machines of one ISA version share their
//! sc-per-location and atomicity axioms outright) compute each shared
//! value once per candidate instead of once per model. Definition
//! names are scoped per model — two models may both define `ppo`
//! differently — and only structurally equal operations merge. The
//! prelude is the union of every model's invariant operations.
//!
//! Each (model, axiom) pair carries a **need list**: the body
//! operations its relation depends on that the same model's earlier
//! axioms did not already need, in schedule (topological) order.
//! Evaluation takes a `wanted` bitmask of models and returns a `u64`
//! verdict mask (bit `k` set iff model `k` accepts the candidate). It
//! walks each wanted model's axioms in order, evaluating a need-list
//! operation only if no earlier model already computed it for this
//! candidate, and stops a model at its first violated axiom — so
//! operations needed only by models that already failed (or that are
//! not wanted) are never evaluated. Structurally equal axiom tests
//! (same relation, same kind) are decided once per candidate too.
//!
//! A single model is simply `N = 1` of the same evaluator:
//! [`CompiledModel::check`] is verdict-identical to [`ModelIr::check`]
//! by construction, including the name of the first violated axiom,
//! and the interpreter survives as the differential oracle for exactly
//! that property. On a multi-output kernel the `check` family judges
//! every model and reports the first violated axiom of the first model
//! that fails.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ir::{AxiomKind, BaseRelations, ModelIr, RelExpr, SetExpr};
use crate::{mask, EventSet, Relation};

/// Monotone source of process-unique kernel identities (see
/// [`CompiledModel::kernel_id`]).
static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(1);

/// Where an operation's result lives at evaluation time: in the
/// per-program [`Prelude`] (space-invariant, computed once) or in the
/// per-candidate body value vector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Loc {
    Prelude(u32),
    Body(u32),
}

/// One SSA operation over bitset values. `T` is the operand reference
/// type: an arena node id during lowering (hash-consed for CSE), a
/// [`Loc`] in the final scheduled program.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Op<T> {
    /// Fetch an interned base relation from the binding.
    BaseRel(u16),
    /// Fetch an interned base set from the binding.
    BaseSet(u16),
    EmptyRel,
    IdRel,
    UniverseSet,
    EmptySet,
    /// `dom × rng` over two set operands.
    CrossRel(T, T),
    /// Fused n-ary union: one `|=` pass over all operand rows.
    UnionRel(Vec<T>),
    /// Fused n-ary intersection: one `&=` pass.
    InterRel(Vec<T>),
    /// Fused difference chain `a \ (b ∪ c ∪ …)`: one `&= !` pass.
    MinusRel(T, Vec<T>),
    SeqRel(T, T),
    InverseRel(T),
    PlusRel(T),
    /// Reflexive closure; `a*` lowers to `OptRel(PlusRel(a))`.
    OptRel(T),
    /// `[dom] rel [rng]` as a single masked pass.
    RestrictRel(T, T, T),
    UnionSet(Vec<T>),
    InterSet(Vec<T>),
    MinusSet(T, Vec<T>),
}

impl<T: Copy> Op<T> {
    fn map<U>(&self, mut f: impl FnMut(T) -> U) -> Op<U> {
        match self {
            Op::BaseRel(i) => Op::BaseRel(*i),
            Op::BaseSet(i) => Op::BaseSet(*i),
            Op::EmptyRel => Op::EmptyRel,
            Op::IdRel => Op::IdRel,
            Op::UniverseSet => Op::UniverseSet,
            Op::EmptySet => Op::EmptySet,
            Op::CrossRel(a, b) => Op::CrossRel(f(*a), f(*b)),
            Op::UnionRel(v) => Op::UnionRel(v.iter().map(|&x| f(x)).collect()),
            Op::InterRel(v) => Op::InterRel(v.iter().map(|&x| f(x)).collect()),
            Op::MinusRel(a, v) => Op::MinusRel(f(*a), v.iter().map(|&x| f(x)).collect()),
            Op::SeqRel(a, b) => Op::SeqRel(f(*a), f(*b)),
            Op::InverseRel(a) => Op::InverseRel(f(*a)),
            Op::PlusRel(a) => Op::PlusRel(f(*a)),
            Op::OptRel(a) => Op::OptRel(f(*a)),
            Op::RestrictRel(a, d, r) => Op::RestrictRel(f(*a), f(*d), f(*r)),
            Op::UnionSet(v) => Op::UnionSet(v.iter().map(|&x| f(x)).collect()),
            Op::InterSet(v) => Op::InterSet(v.iter().map(|&x| f(x)).collect()),
            Op::MinusSet(a, v) => Op::MinusSet(f(*a), v.iter().map(|&x| f(x)).collect()),
        }
    }

    fn for_each_operand(&self, mut f: impl FnMut(T)) {
        match self {
            Op::BaseRel(_)
            | Op::BaseSet(_)
            | Op::EmptyRel
            | Op::IdRel
            | Op::UniverseSet
            | Op::EmptySet => {}
            Op::CrossRel(a, b) | Op::SeqRel(a, b) => {
                f(*a);
                f(*b);
            }
            Op::UnionRel(v) | Op::InterRel(v) | Op::UnionSet(v) | Op::InterSet(v) => {
                for &x in v {
                    f(x);
                }
            }
            Op::MinusRel(a, v) | Op::MinusSet(a, v) => {
                f(*a);
                for &x in v {
                    f(x);
                }
            }
            Op::InverseRel(a) | Op::PlusRel(a) | Op::OptRel(a) => f(*a),
            Op::RestrictRel(a, d, r) => {
                f(*a);
                f(*d);
                f(*r);
            }
        }
    }
}

/// A computed bitset value: a relation or an event set. Which one an
/// operation produces is fixed at compile time, so evaluation never
/// checks the tag on a hot path that matters.
#[derive(Clone, Debug)]
enum Value {
    Rel(Relation),
    Set(EventSet),
}

impl Value {
    fn as_rel(&self) -> &Relation {
        match self {
            Value::Rel(r) => r,
            Value::Set(_) => unreachable!("compiler scheduled a set where a relation is needed"),
        }
    }

    fn as_set(&self) -> EventSet {
        match self {
            Value::Set(s) => *s,
            Value::Rel(_) => unreachable!("compiler scheduled a relation where a set is needed"),
        }
    }
}

/// The space-invariant values of one compiled kernel over one program:
/// every operation reachable only from invariant bases, evaluated once.
/// Obtained from [`CompiledModel::prelude`] and replayed across every
/// candidate judgement of a stream over that program.
#[derive(Clone, Debug)]
pub struct Prelude {
    n: usize,
    values: Vec<Value>,
}

impl Prelude {
    /// The event-universe size this prelude was evaluated over.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }
}

/// Reusable per-candidate evaluation buffers.
///
/// Judging a candidate fills one value slot per body operation; with a
/// scratch those slots (and every intermediate relation's row storage)
/// are reused across candidates instead of being reallocated per
/// judgement — the difference between the compiled path beating the
/// hand-written checkers and merely matching them. A scratch is bound
/// to whichever kernel and universe size last used it and resets itself
/// transparently when either changes, so one long-lived scratch per
/// query loop is always correct.
#[derive(Default, Debug)]
pub struct EvalScratch {
    kernel: u64,
    n: usize,
    body: Vec<Value>,
    /// `op_epoch[i] == epoch` iff body slot `i` holds the current
    /// candidate's value (shared by every model that needs it).
    op_epoch: Vec<u32>,
    /// `test_epoch[t] == epoch` iff `test_holds[t]` is the current
    /// candidate's result of axiom test `t`.
    test_epoch: Vec<u32>,
    test_holds: Vec<bool>,
    epoch: u32,
}

impl EvalScratch {
    /// Binds the scratch to `kernel` over an `n`-event universe and
    /// starts a new candidate: every memoized value becomes stale.
    fn begin(&mut self, kernel: &CompiledModel, n: usize) {
        if self.kernel != kernel.kernel_id || self.n != n {
            self.kernel = kernel.kernel_id;
            self.n = n;
            self.body.clear();
            self.body
                .resize_with(kernel.body_ops.len(), || Value::Set(EventSet::empty(0)));
            self.op_epoch = vec![0; kernel.body_ops.len()];
            self.test_epoch = vec![0; kernel.tests.len()];
            self.test_holds = vec![false; kernel.tests.len()];
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            self.op_epoch.fill(0);
            self.test_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

/// A source of candidate bindings addressed by dense `u32` index — the
/// batched-checking counterpart of [`BaseRelations`].
///
/// An implementation typically wraps a columnar candidate arena plus a
/// reusable cursor: `bind(i)` positions the cursor on candidate `i`
/// (copying that candidate's relation rows out of flat columns into
/// preallocated storage) and returns a [`BaseRelations`] view of it.
/// The returned binding borrows the pool, so exactly one candidate is
/// bound at a time — which is precisely the access pattern
/// [`CompiledModel::check_batch`] and [`CompiledModel::witness_batch`]
/// stream.
pub trait BindingPool {
    /// The per-candidate binding type `bind` lends out.
    type Binding<'a>: BaseRelations
    where
        Self: 'a;

    /// The event-universe size shared by every candidate in the pool.
    fn universe(&self) -> usize;

    /// Binds candidate `index`, reusing the pool's internal buffers.
    ///
    /// # Panics
    ///
    /// Implementations panic if `index` is out of range.
    fn bind(&mut self, index: u32) -> Self::Binding<'_>;
}

/// One distinct axiom test of the compiled program: `kind` applied to
/// the value at `rel`. Models whose axioms lower to the same relation
/// node with the same kind share one test, decided once per candidate.
#[derive(Clone, Debug)]
struct AxiomTest {
    kind: AxiomKind,
    rel: Loc,
}

/// One axiom of one model: its name, its (shared) test, and the body
/// operations it needs beyond those its model's earlier axioms need.
#[derive(Clone, Debug)]
struct CompiledAxiom {
    name: &'static str,
    test: u32,
    /// Body slots in schedule (topological) order.
    needs: Vec<u32>,
}

/// A model's output of a (possibly multi-output) kernel: its axioms in
/// declaration order.
#[derive(Clone, Debug)]
struct ModelOutput {
    name: String,
    axioms: Vec<CompiledAxiom>,
}

/// One or more [`ModelIr`]s lowered to a flat program of fused bitset
/// kernels — see the [module docs](self) for the compile pipeline and
/// the multi-output evaluator.
///
/// Compile once, then judge many candidates:
///
/// - [`CompiledModel::prelude`] evaluates the space-invariant prefix
///   for one program;
/// - [`CompiledModel::verdicts_with_scratch`] judges one candidate for
///   a `wanted` set of models, returning a verdict bitmask, and
///   [`CompiledModel::witness_batch`] streams candidates until every
///   wanted model has accepted one;
/// - [`CompiledModel::check_with`] / [`consistent_with`](Self::consistent_with)
///   judge one candidate against every model, reusing a prelude;
/// - [`CompiledModel::check`] / [`consistent`](Self::consistent) are
///   the standalone forms (prelude recomputed per call) for one-shot
///   callers.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    name: String,
    kernel_id: u64,
    base_rels: Vec<&'static str>,
    base_sets: Vec<&'static str>,
    prelude_ops: Vec<Op<Loc>>,
    body_ops: Vec<Op<Loc>>,
    tests: Vec<AxiomTest>,
    models: Vec<ModelOutput>,
}

impl CompiledModel {
    /// The most models one kernel lowers: verdicts are `u64` bitmasks.
    pub const MAX_MODELS: usize = 64;

    /// Lowers `models` into one compiled kernel program with one
    /// verdict bit per model (bit `k` for `models[k]`).
    ///
    /// `space_invariant_bases` names the base relations and sets whose
    /// value depends only on the *program* (not on the candidate
    /// `rf`/`co` assignment); everything derivable from them alone is
    /// hoisted into the prelude. Passing an empty list is always sound
    /// — the whole model is then evaluated per candidate.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or longer than
    /// [`CompiledModel::MAX_MODELS`], or if a model references an
    /// undefined definition name or contains a definition cycle (the
    /// same model bugs [`ModelIr::check`] reports, surfaced at compile
    /// time instead of per evaluation). Unknown *base* names still
    /// panic at evaluation time, because which bases exist is the
    /// binding's contract.
    #[must_use]
    pub fn compile(models: &[&ModelIr], space_invariant_bases: &[&str]) -> CompiledModel {
        assert!(
            (1..=Self::MAX_MODELS).contains(&models.len()),
            "a kernel lowers 1 to {} models, got {}",
            Self::MAX_MODELS,
            models.len()
        );
        let _t = tricheck_trace::span(tricheck_trace::Phase::KernelCompile);
        let mut lowerer = Lowerer {
            defs: &[],
            invariant: space_invariant_bases,
            nodes: Vec::new(),
            node_invariant: Vec::new(),
            cse: HashMap::new(),
            base_rels: Vec::new(),
            base_sets: Vec::new(),
            def_nodes: Vec::new(),
            resolving: Vec::new(),
        };
        // Lower every model into the shared arena; definition names
        // resolve within their own model only.
        let roots: Vec<Vec<(usize, &'static str, AxiomKind)>> = models
            .iter()
            .map(|ir| {
                lowerer.defs = ir.defs();
                lowerer.def_nodes.clear();
                ir.axioms()
                    .iter()
                    .map(|axiom| (lowerer.lower_rel(&axiom.rel), axiom.name, axiom.kind))
                    .collect()
            })
            .collect();
        let nodes = &lowerer.nodes;
        let invariant = &lowerer.node_invariant;

        // Every arena node was lowered on behalf of some axiom, so all
        // are scheduled. Arena order is topological (operands are pushed
        // before their users), and both the prelude and the body keep it.
        let (mut n_prelude, mut n_body) = (0u32, 0u32);
        let locs: Vec<Loc> = invariant
            .iter()
            .map(|&inv| {
                let (count, loc): (_, fn(u32) -> Loc) = if inv {
                    (&mut n_prelude, Loc::Prelude)
                } else {
                    (&mut n_body, Loc::Body)
                };
                *count += 1;
                loc(*count - 1)
            })
            .collect();
        let schedule = |prelude: bool| -> Vec<Op<Loc>> {
            nodes
                .iter()
                .zip(invariant)
                .filter(|&(_, &inv)| inv == prelude)
                .map(|(op, _)| op.map(|id| locs[id]))
                .collect()
        };

        let mut tests: Vec<AxiomTest> = Vec::new();
        let mut test_roots: Vec<(usize, AxiomKind)> = Vec::new();
        let outputs = models
            .iter()
            .zip(&roots)
            .map(|(ir, axioms)| {
                // Body nodes an earlier axiom of this model already needs.
                let mut needed = vec![false; nodes.len()];
                let axioms = axioms
                    .iter()
                    .map(|&(root, name, kind)| {
                        let test = test_roots
                            .iter()
                            .position(|&t| t == (root, kind))
                            .unwrap_or_else(|| {
                                test_roots.push((root, kind));
                                tests.push(AxiomTest {
                                    kind,
                                    rel: locs[root],
                                });
                                tests.len() - 1
                            });
                        let mut needs = Vec::new();
                        let mut stack = vec![root];
                        while let Some(node) = stack.pop() {
                            // Invariant nodes have only invariant operands.
                            if invariant[node] || std::mem::replace(&mut needed[node], true) {
                                continue;
                            }
                            if let Loc::Body(slot) = locs[node] {
                                needs.push(slot);
                            }
                            nodes[node].for_each_operand(|child| stack.push(child));
                        }
                        needs.sort_unstable();
                        CompiledAxiom {
                            name,
                            test: u32::try_from(test).expect("tests fit u32"),
                            needs,
                        }
                    })
                    .collect();
                ModelOutput {
                    name: ir.name().to_string(),
                    axioms,
                }
            })
            .collect::<Vec<_>>();

        CompiledModel {
            name: outputs
                .iter()
                .map(|m| m.name.as_str())
                .collect::<Vec<_>>()
                .join(" + "),
            kernel_id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
            prelude_ops: schedule(true),
            body_ops: schedule(false),
            base_rels: lowerer.base_rels,
            base_sets: lowerer.base_sets,
            tests,
            models: outputs,
        }
    }

    /// The source models' display names, joined by `" + "` (just the
    /// model's name for a single-model kernel).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many models (verdict bits) the kernel judges.
    #[must_use]
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The verdict mask with every model's bit set.
    #[must_use]
    pub fn all_models(&self) -> u64 {
        u64::MAX >> (64 - self.models.len())
    }

    /// A process-unique identity for this compiled kernel program.
    ///
    /// Evaluation scratches key on it: two `CompiledModel`s never
    /// share an id, so an [`EvalScratch`] laid out for one kernel is
    /// never misread by another.
    #[must_use]
    pub fn kernel_id(&self) -> u64 {
        self.kernel_id
    }

    /// Number of operations hoisted into the space-invariant prelude.
    #[must_use]
    pub fn prelude_op_count(&self) -> usize {
        self.prelude_ops.len()
    }

    /// Number of per-candidate body operations.
    #[must_use]
    pub fn body_op_count(&self) -> usize {
        self.body_ops.len()
    }

    /// Evaluates the space-invariant prelude against one program (as
    /// presented by any candidate's binding — invariant bases agree
    /// across all candidates of a program by definition).
    ///
    /// # Panics
    ///
    /// Panics if the model references a base the binding does not
    /// provide (a model-definition bug, as in [`ModelIr::check`]).
    #[must_use]
    pub fn prelude<B: BaseRelations>(&self, binding: &B) -> Prelude {
        let _t = tricheck_trace::span(tricheck_trace::Phase::PreludeEval);
        let n = binding.universe();
        let mut values: Vec<Value> = Vec::with_capacity(self.prelude_ops.len());
        for op in &self.prelude_ops {
            let mut value = Value::Set(EventSet::empty(0));
            self.eval_into(op, n, binding, &values, &[], &mut value);
            values.push(value);
        }
        Prelude { n, values }
    }

    /// Checks every axiom of every model against one candidate
    /// execution, reusing a prelude computed by
    /// [`CompiledModel::prelude`] over the same program. For a
    /// single-model kernel this is verdict-identical to
    /// [`ModelIr::check`] on the same binding, including stopping at the
    /// first violated axiom without evaluating operations only later
    /// axioms need.
    ///
    /// # Errors
    ///
    /// The name of the first violated axiom of the first model that
    /// rejects the candidate.
    ///
    /// # Panics
    ///
    /// Panics if the prelude was evaluated over a different universe
    /// size, or if the model references a base the binding does not
    /// provide.
    pub fn check_with<B: BaseRelations>(
        &self,
        prelude: &Prelude,
        binding: &B,
    ) -> Result<(), &'static str> {
        self.check_with_scratch(prelude, binding, &mut EvalScratch::default())
    }

    /// [`CompiledModel::check_with`] with caller-owned evaluation
    /// buffers: when judging many candidates of one program, pass the
    /// same [`EvalScratch`] each time and every intermediate value's
    /// allocation is reused instead of recreated per candidate.
    ///
    /// # Errors
    ///
    /// The name of the first violated axiom of the first model that
    /// rejects the candidate.
    ///
    /// # Panics
    ///
    /// As [`CompiledModel::check_with`].
    pub fn check_with_scratch<B: BaseRelations>(
        &self,
        prelude: &Prelude,
        binding: &B,
        scratch: &mut EvalScratch,
    ) -> Result<(), &'static str> {
        let _t = tricheck_trace::span(tricheck_trace::Phase::CandidateCheck);
        self.begin(prelude, binding, scratch);
        (0..self.models.len()).try_for_each(|k| self.judge_model(k, prelude, binding, scratch))
    }

    /// Judges one candidate for the models whose bits are set in
    /// `wanted`, reusing a prelude and caller-owned buffers. Returns the
    /// verdict mask: bit `k` is set iff model `k` is wanted and accepts
    /// the candidate. Operations are shared across the wanted models
    /// and skipped when only unwanted or already-failed models need
    /// them.
    ///
    /// # Panics
    ///
    /// As [`CompiledModel::check_with`].
    pub fn verdicts_with_scratch<B: BaseRelations>(
        &self,
        prelude: &Prelude,
        binding: &B,
        wanted: u64,
        scratch: &mut EvalScratch,
    ) -> u64 {
        let _t = tricheck_trace::span(tricheck_trace::Phase::CandidateCheck);
        self.begin(prelude, binding, scratch);
        let mut accepted = 0;
        let mut pending = wanted & self.all_models();
        while pending != 0 {
            let k = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if self.judge_model(k, prelude, binding, scratch).is_ok() {
                accepted |= 1 << k;
            }
        }
        accepted
    }

    /// `true` if every axiom holds, reusing a cached prelude.
    #[must_use]
    pub fn consistent_with<B: BaseRelations>(&self, prelude: &Prelude, binding: &B) -> bool {
        self.check_with(prelude, binding).is_ok()
    }

    /// `true` if every axiom holds, reusing a cached prelude and
    /// caller-owned evaluation buffers.
    #[must_use]
    pub fn consistent_with_scratch<B: BaseRelations>(
        &self,
        prelude: &Prelude,
        binding: &B,
        scratch: &mut EvalScratch,
    ) -> bool {
        self.check_with_scratch(prelude, binding, scratch).is_ok()
    }

    /// Judges a batch of candidates drawn from a columnar pool,
    /// streaming them through one shared [`Prelude`] and one
    /// [`EvalScratch`].
    ///
    /// For each index in `indices` (in order) the pool is asked to
    /// bind that candidate — for an arena-backed execution space this
    /// is a row-copy from contiguous columns, not an allocation — and
    /// the candidate is checked exactly as
    /// [`check_with_scratch`](Self::check_with_scratch) would. The
    /// prelude is evaluated **zero** times here: the caller computes it
    /// once per (kernel, program) and replays it across the batch.
    ///
    /// `verdict(index, consistent)` is invoked per candidate; returning
    /// `false` stops the stream early (the witness-search use: stop at
    /// the first consistent candidate). Returns how many candidates
    /// were judged.
    ///
    /// # Panics
    ///
    /// As [`CompiledModel::check_with_scratch`], per candidate.
    pub fn check_batch<P: BindingPool>(
        &self,
        prelude: &Prelude,
        pool: &mut P,
        indices: &[u32],
        scratch: &mut EvalScratch,
        mut verdict: impl FnMut(u32, bool) -> bool,
    ) -> usize {
        let mut judged = 0;
        for &index in indices {
            let binding = pool.bind(index);
            let consistent = self.check_with_scratch(prelude, &binding, scratch).is_ok();
            drop(binding);
            judged += 1;
            if !verdict(index, consistent) {
                break;
            }
        }
        judged
    }

    /// The multi-output witness search: streams `indices` through one
    /// prelude and scratch, judging each candidate only for the wanted
    /// models that have not accepted an earlier one, and stops as soon
    /// as every wanted model has a witness. Returns the mask of models
    /// that accepted some candidate and how many candidates were
    /// judged.
    ///
    /// # Panics
    ///
    /// As [`CompiledModel::check_with_scratch`], per candidate.
    pub fn witness_batch<P: BindingPool>(
        &self,
        prelude: &Prelude,
        pool: &mut P,
        indices: &[u32],
        wanted: u64,
        scratch: &mut EvalScratch,
    ) -> (u64, usize) {
        let wanted = wanted & self.all_models();
        let mut witnessed = 0;
        let mut judged = 0;
        for &index in indices {
            if witnessed == wanted {
                break;
            }
            let binding = pool.bind(index);
            witnessed |=
                self.verdicts_with_scratch(prelude, &binding, wanted & !witnessed, scratch);
            judged += 1;
        }
        (witnessed, judged)
    }

    /// One-shot check: evaluates the prelude and the body for a single
    /// candidate. Prefer [`CompiledModel::check_with`] with a shared
    /// prelude when judging many candidates of one program.
    ///
    /// # Errors
    ///
    /// The name of the first violated axiom of the first model that
    /// rejects the candidate.
    pub fn check<B: BaseRelations>(&self, binding: &B) -> Result<(), &'static str> {
        self.check_with(&self.prelude(binding), binding)
    }

    /// `true` if every axiom holds (one-shot form).
    #[must_use]
    pub fn consistent<B: BaseRelations>(&self, binding: &B) -> bool {
        self.check(binding).is_ok()
    }

    /// Starts one candidate's judgement on `scratch`.
    fn begin<B: BaseRelations>(&self, prelude: &Prelude, binding: &B, scratch: &mut EvalScratch) {
        assert_eq!(
            prelude.n,
            binding.universe(),
            "prelude evaluated over a different event universe"
        );
        scratch.begin(self, prelude.n);
    }

    /// Model `k`'s verdict on the candidate `scratch` was begun for:
    /// its axioms in order, each evaluating only the need-list
    /// operations no earlier judgement of this candidate computed, up
    /// to the first violated axiom.
    fn judge_model<B: BaseRelations>(
        &self,
        k: usize,
        prelude: &Prelude,
        binding: &B,
        scratch: &mut EvalScratch,
    ) -> Result<(), &'static str> {
        let epoch = scratch.epoch;
        for axiom in &self.models[k].axioms {
            let t = axiom.test as usize;
            if scratch.test_epoch[t] != epoch {
                for &slot in &axiom.needs {
                    let slot = slot as usize;
                    if scratch.op_epoch[slot] == epoch {
                        continue;
                    }
                    let (done, rest) = scratch.body.split_at_mut(slot);
                    self.eval_into(
                        &self.body_ops[slot],
                        prelude.n,
                        binding,
                        &prelude.values,
                        done,
                        &mut rest[0],
                    );
                    scratch.op_epoch[slot] = epoch;
                }
                let test = &self.tests[t];
                let rel = fetch(test.rel, &prelude.values, &scratch.body).as_rel();
                scratch.test_holds[t] = match test.kind {
                    AxiomKind::Acyclic => rel.is_acyclic(),
                    AxiomKind::Irreflexive => rel.is_irreflexive(),
                    AxiomKind::Empty => rel.is_empty(),
                };
                scratch.test_epoch[t] = epoch;
            }
            if !scratch.test_holds[t] {
                return Err(axiom.name);
            }
        }
        Ok(())
    }

    /// Executes one operation into a caller-owned slot. Fused n-ary
    /// kernels make a single pass over the operand rows; everything
    /// else maps 1:1 onto the [`Relation`] algebra — but written
    /// in place, so a slot that already holds a right-sized relation
    /// (a reused [`EvalScratch`]) costs zero allocations. Every row of
    /// the output is overwritten unconditionally; stale slot contents
    /// never leak through.
    fn eval_into<B: BaseRelations>(
        &self,
        op: &Op<Loc>,
        n: usize,
        binding: &B,
        prelude: &[Value],
        body: &[Value],
        slot: &mut Value,
    ) {
        let rel = |loc: Loc| fetch(loc, prelude, body).as_rel();
        let set = |loc: Loc| fetch(loc, prelude, body).as_set();
        match op {
            Op::BaseRel(i) => {
                let name = self.base_rels[*i as usize];
                let value = binding
                    .rel(name)
                    .unwrap_or_else(|| panic!("model references unknown base relation '{name}'"));
                assert_eq!(
                    value.universe(),
                    n,
                    "base relation '{name}' has the wrong universe"
                );
                *slot = Value::Rel(value);
            }
            Op::BaseSet(i) => {
                let name = self.base_sets[*i as usize];
                let value = binding
                    .set(name)
                    .unwrap_or_else(|| panic!("model references unknown base set '{name}'"));
                assert_eq!(
                    value.universe(),
                    n,
                    "base set '{name}' has the wrong universe"
                );
                *slot = Value::Set(value);
            }
            Op::EmptyRel => rel_rows(slot, n).fill(0),
            Op::IdRel => {
                for (i, row) in rel_rows(slot, n).iter_mut().enumerate() {
                    *row = 1 << i;
                }
            }
            Op::UniverseSet => *slot = Value::Set(EventSet::full(n)),
            Op::EmptySet => *slot = Value::Set(EventSet::empty(n)),
            Op::CrossRel(dom, rng) => {
                let (dom_bits, rng_bits) = (set(*dom).bits(), set(*rng).bits());
                for (i, row) in rel_rows(slot, n).iter_mut().enumerate() {
                    *row = if dom_bits & (1 << i) != 0 {
                        rng_bits
                    } else {
                        0
                    };
                }
            }
            Op::UnionRel(operands) => {
                let rows = rel_rows(slot, n);
                rows.copy_from_slice(&rel(operands[0]).rows);
                for &operand in &operands[1..] {
                    for (out, row) in rows.iter_mut().zip(&rel(operand).rows) {
                        *out |= row;
                    }
                }
            }
            Op::InterRel(operands) => {
                let rows = rel_rows(slot, n);
                rows.copy_from_slice(&rel(operands[0]).rows);
                for &operand in &operands[1..] {
                    for (out, row) in rows.iter_mut().zip(&rel(operand).rows) {
                        *out &= row;
                    }
                }
            }
            Op::MinusRel(base, subtrahends) => {
                let rows = rel_rows(slot, n);
                rows.copy_from_slice(&rel(*base).rows);
                for &operand in subtrahends {
                    for (out, row) in rows.iter_mut().zip(&rel(operand).rows) {
                        *out &= !row;
                    }
                }
            }
            Op::SeqRel(a, b) => {
                let (a, b) = (rel(*a), rel(*b));
                for (out, &mids) in rel_rows(slot, n).iter_mut().zip(&a.rows) {
                    let mut row = 0u64;
                    let mut mids = mids;
                    while mids != 0 {
                        let m = mids.trailing_zeros() as usize;
                        mids &= mids - 1;
                        row |= b.rows[m];
                    }
                    *out = row;
                }
            }
            Op::InverseRel(a) => {
                let source = rel(*a);
                let rows = rel_rows(slot, n);
                rows.fill(0);
                for (i, &row) in source.rows.iter().enumerate() {
                    let mut bits = row;
                    while bits != 0 {
                        let j = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        rows[j] |= 1 << i;
                    }
                }
            }
            Op::PlusRel(a) => {
                // Word-parallel repeated squaring in place (see
                // [`Relation::transitive_closure`]).
                let rows = {
                    let source = rel(*a);
                    let rows = rel_rows(slot, n);
                    rows.copy_from_slice(&source.rows);
                    rows
                };
                loop {
                    let mut changed = false;
                    for a in 0..n {
                        let mut row = rows[a];
                        let mut mids = row;
                        while mids != 0 {
                            let b = mids.trailing_zeros() as usize;
                            mids &= mids - 1;
                            row |= rows[b];
                        }
                        changed |= row != rows[a];
                        rows[a] = row;
                    }
                    if !changed {
                        break;
                    }
                }
            }
            Op::OptRel(a) => {
                let source = rel(*a);
                for (i, (out, &row)) in rel_rows(slot, n).iter_mut().zip(&source.rows).enumerate() {
                    *out = row | (1 << i);
                }
            }
            Op::RestrictRel(a, dom, rng) => {
                let (dom_bits, rng_bits) = (set(*dom).bits(), set(*rng).bits());
                let source = rel(*a);
                for (i, (out, &row)) in rel_rows(slot, n).iter_mut().zip(&source.rows).enumerate() {
                    *out = if dom_bits & (1 << i) != 0 {
                        row & rng_bits
                    } else {
                        0
                    };
                }
            }
            Op::UnionSet(operands) => {
                let mut bits = 0u64;
                for &operand in operands {
                    bits |= set(operand).bits();
                }
                *slot = Value::Set(EventSet { n, bits });
            }
            Op::InterSet(operands) => {
                let mut bits = mask(n);
                for &operand in operands {
                    bits &= set(operand).bits();
                }
                *slot = Value::Set(EventSet { n, bits });
            }
            Op::MinusSet(base, subtrahends) => {
                let mut bits = set(*base).bits();
                for &operand in subtrahends {
                    bits &= !set(operand).bits();
                }
                *slot = Value::Set(EventSet { n, bits });
            }
        }
    }
}

/// The slot's relation rows, reusing its storage when the slot already
/// holds a relation over the same universe (the steady state of a
/// reused [`EvalScratch`]) and reallocating otherwise.
fn rel_rows(slot: &mut Value, n: usize) -> &mut Vec<u64> {
    if !matches!(slot, Value::Rel(r) if r.n == n && r.rows.len() == n) {
        *slot = Value::Rel(Relation::empty(n));
    }
    match slot {
        Value::Rel(r) => &mut r.rows,
        Value::Set(_) => unreachable!("slot was just made a relation"),
    }
}

fn fetch<'v>(loc: Loc, prelude: &'v [Value], body: &'v [Value]) -> &'v Value {
    match loc {
        Loc::Prelude(i) => &prelude[i as usize],
        Loc::Body(i) => &body[i as usize],
    }
}

/// Lowering state: a hash-consed arena of operations plus name
/// interning tables.
struct Lowerer<'m> {
    defs: &'m [(&'static str, RelExpr)],
    invariant: &'m [&'m str],
    nodes: Vec<Op<usize>>,
    /// Whether each node depends only on space-invariant bases.
    node_invariant: Vec<bool>,
    cse: HashMap<Op<usize>, usize>,
    base_rels: Vec<&'static str>,
    base_sets: Vec<&'static str>,
    /// Definition name → lowered node, resolved on demand.
    def_nodes: Vec<(&'static str, usize)>,
    /// Definitions currently being lowered (cycle detection).
    resolving: Vec<&'static str>,
}

impl Lowerer<'_> {
    /// Hash-consing node constructor: an operation structurally equal to
    /// an existing one returns the existing node.
    fn push(&mut self, op: Op<usize>) -> usize {
        if let Some(&id) = self.cse.get(&op) {
            return id;
        }
        let invariant = self.op_invariant(&op);
        let id = self.nodes.len();
        self.nodes.push(op.clone());
        self.node_invariant.push(invariant);
        self.cse.insert(op, id);
        id
    }

    fn op_invariant(&self, op: &Op<usize>) -> bool {
        match op {
            Op::BaseRel(i) => {
                let name = self.base_rels[*i as usize];
                self.invariant.contains(&name)
            }
            Op::BaseSet(i) => {
                let name = self.base_sets[*i as usize];
                self.invariant.contains(&name)
            }
            // Constants depend only on the universe size, which every
            // candidate of a program shares.
            Op::EmptyRel | Op::IdRel | Op::UniverseSet | Op::EmptySet => true,
            _ => {
                let mut invariant = true;
                op.for_each_operand(|child| invariant &= self.node_invariant[child]);
                invariant
            }
        }
    }

    fn intern(names: &mut Vec<&'static str>, name: &'static str) -> u16 {
        let index = names.iter().position(|&n| n == name).unwrap_or_else(|| {
            names.push(name);
            names.len() - 1
        });
        u16::try_from(index).expect("base name table fits u16")
    }

    fn def_node(&mut self, name: &'static str) -> usize {
        if let Some(&(_, node)) = self.def_nodes.iter().find(|(n, _)| *n == name) {
            return node;
        }
        assert!(
            !self.resolving.contains(&name),
            "model definition '{name}' references itself (cycle: {:?})",
            self.resolving
        );
        let expr = self.defs.iter().find(|(n, _)| *n == name).map_or_else(
            || panic!("model references undefined relation '{name}'"),
            |(_, e)| e,
        );
        self.resolving.push(name);
        let node = self.lower_rel(expr);
        self.resolving.pop();
        self.def_nodes.push((name, node));
        node
    }

    /// Flattens nested unions into one operand list (fusion); operand
    /// node ids are sorted and deduplicated, which both canonicalizes
    /// the operation for CSE and keeps evaluation deterministic.
    fn union_operands(&mut self, expr: &RelExpr, operands: &mut Vec<usize>) {
        if let RelExpr::Union(a, b) = expr {
            self.union_operands(a, operands);
            self.union_operands(b, operands);
        } else {
            let node = self.lower_rel(expr);
            operands.push(node);
        }
    }

    fn inter_operands(&mut self, expr: &RelExpr, operands: &mut Vec<usize>) {
        if let RelExpr::Inter(a, b) = expr {
            self.inter_operands(a, operands);
            self.inter_operands(b, operands);
        } else {
            let node = self.lower_rel(expr);
            operands.push(node);
        }
    }

    fn lower_rel(&mut self, expr: &RelExpr) -> usize {
        match expr {
            RelExpr::Base(name) => {
                let index = Self::intern(&mut self.base_rels, name);
                self.push(Op::BaseRel(index))
            }
            RelExpr::Ref(name) => self.def_node(name),
            RelExpr::Empty => self.push(Op::EmptyRel),
            RelExpr::Id => self.push(Op::IdRel),
            RelExpr::Cross(dom, rng) => {
                let dom = self.lower_set(dom);
                let rng = self.lower_set(rng);
                self.push(Op::CrossRel(dom, rng))
            }
            RelExpr::Union(_, _) => {
                let mut operands = Vec::new();
                self.union_operands(expr, &mut operands);
                operands.sort_unstable();
                operands.dedup();
                if operands.len() == 1 {
                    operands[0]
                } else {
                    self.push(Op::UnionRel(operands))
                }
            }
            RelExpr::Inter(_, _) => {
                let mut operands = Vec::new();
                self.inter_operands(expr, &mut operands);
                operands.sort_unstable();
                operands.dedup();
                if operands.len() == 1 {
                    operands[0]
                } else {
                    self.push(Op::InterRel(operands))
                }
            }
            RelExpr::Minus(_, _) => {
                // (a \ b) \ c ≡ a \ (b ∪ c): peel the left spine into
                // one fused difference chain.
                let mut subtrahends = Vec::new();
                let mut head = expr;
                while let RelExpr::Minus(a, b) = head {
                    subtrahends.push(self.lower_rel(b));
                    head = a;
                }
                let base = self.lower_rel(head);
                subtrahends.sort_unstable();
                subtrahends.dedup();
                self.push(Op::MinusRel(base, subtrahends))
            }
            RelExpr::Seq(a, b) => {
                let a = self.lower_rel(a);
                let b = self.lower_rel(b);
                self.push(Op::SeqRel(a, b))
            }
            RelExpr::Inverse(a) => {
                let a = self.lower_rel(a);
                self.push(Op::InverseRel(a))
            }
            RelExpr::Plus(a) => {
                let a = self.lower_rel(a);
                self.push(Op::PlusRel(a))
            }
            RelExpr::Star(a) => {
                // a* ≡ (a⁺)? — shares the transitive closure with any
                // other use of a⁺.
                let a = self.lower_rel(a);
                let plus = self.push(Op::PlusRel(a));
                self.push(Op::OptRel(plus))
            }
            RelExpr::Opt(a) => {
                let a = self.lower_rel(a);
                self.push(Op::OptRel(a))
            }
            RelExpr::Restrict(a, dom, rng) => {
                let a = self.lower_rel(a);
                let dom = self.lower_set(dom);
                let rng = self.lower_set(rng);
                self.push(Op::RestrictRel(a, dom, rng))
            }
        }
    }

    fn set_union_operands(&mut self, expr: &SetExpr, operands: &mut Vec<usize>) {
        if let SetExpr::Union(a, b) = expr {
            self.set_union_operands(a, operands);
            self.set_union_operands(b, operands);
        } else {
            let node = self.lower_set(expr);
            operands.push(node);
        }
    }

    fn set_inter_operands(&mut self, expr: &SetExpr, operands: &mut Vec<usize>) {
        if let SetExpr::Inter(a, b) = expr {
            self.set_inter_operands(a, operands);
            self.set_inter_operands(b, operands);
        } else {
            let node = self.lower_set(expr);
            operands.push(node);
        }
    }

    fn lower_set(&mut self, expr: &SetExpr) -> usize {
        match expr {
            SetExpr::Base(name) => {
                let index = Self::intern(&mut self.base_sets, name);
                self.push(Op::BaseSet(index))
            }
            SetExpr::Universe => self.push(Op::UniverseSet),
            SetExpr::Empty => self.push(Op::EmptySet),
            SetExpr::Union(_, _) => {
                let mut operands = Vec::new();
                self.set_union_operands(expr, &mut operands);
                operands.sort_unstable();
                operands.dedup();
                if operands.len() == 1 {
                    operands[0]
                } else {
                    self.push(Op::UnionSet(operands))
                }
            }
            SetExpr::Inter(_, _) => {
                let mut operands = Vec::new();
                self.set_inter_operands(expr, &mut operands);
                operands.sort_unstable();
                operands.dedup();
                if operands.len() == 1 {
                    operands[0]
                } else {
                    self.push(Op::InterSet(operands))
                }
            }
            SetExpr::Minus(_, _) => {
                let mut subtrahends = Vec::new();
                let mut head = expr;
                while let SetExpr::Minus(a, b) = head {
                    subtrahends.push(self.lower_set(b));
                    head = a;
                }
                let base = self.lower_set(head);
                subtrahends.sort_unstable();
                subtrahends.dedup();
                self.push(Op::MinusSet(base, subtrahends))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AxiomKind, ModelIr, RelExpr, SetExpr};

    /// The toy binding from the interpreter tests: 0,1 writes; 2,3
    /// reads; po 0→2, 1→3; optional fr back-edges closing an SB cycle.
    struct Toy {
        fr_back: bool,
    }

    impl BaseRelations for Toy {
        fn universe(&self) -> usize {
            4
        }

        fn rel(&self, name: &str) -> Option<Relation> {
            Some(match name {
                "po" => Relation::from_pairs(4, [(0, 2), (1, 3)]),
                "rf" => Relation::empty(4),
                "fr" => {
                    if self.fr_back {
                        Relation::from_pairs(4, [(2, 1), (3, 0)])
                    } else {
                        Relation::empty(4)
                    }
                }
                _ => return None,
            })
        }

        fn set(&self, name: &str) -> Option<EventSet> {
            Some(match name {
                "R" => EventSet::from_ids(4, [2, 3]),
                "W" => EventSet::from_ids(4, [0, 1]),
                _ => return None,
            })
        }
    }

    fn sc_like() -> ModelIr {
        ModelIr::new("toy-sc")
            .define(
                "ghb",
                RelExpr::base("po")
                    .union(RelExpr::base("rf"))
                    .union(RelExpr::base("fr")),
            )
            .axiom("Sc", AxiomKind::Acyclic, RelExpr::reference("ghb"))
    }

    #[test]
    fn compiled_matches_the_interpreter_on_the_toy_models() {
        let model = sc_like();
        let compiled = CompiledModel::compile(&[&model], &["po"]);
        for fr_back in [false, true] {
            let binding = Toy { fr_back };
            assert_eq!(compiled.check(&binding), model.check(&binding));
        }
    }

    #[test]
    fn exercises_every_operator_against_the_interpreter() {
        // One model touching every RelExpr/SetExpr constructor.
        let kitchen_sink = ModelIr::new("kitchen-sink")
            .define(
                "d1",
                RelExpr::base("po")
                    .union(RelExpr::base("rf"))
                    .union(RelExpr::base("fr"))
                    .inter(RelExpr::base("po").union(RelExpr::base("fr"))),
            )
            .define(
                "d2",
                RelExpr::reference("d1")
                    .seq(RelExpr::base("po").inverse())
                    .minus(RelExpr::Id)
                    .minus(RelExpr::Empty),
            )
            .define(
                "d3",
                RelExpr::cross(
                    SetExpr::base("W").union(SetExpr::base("R")),
                    SetExpr::Universe.minus(SetExpr::base("W").inter(SetExpr::Universe)),
                )
                .restrict(SetExpr::base("W"), SetExpr::Universe.minus(SetExpr::Empty)),
            )
            .define("d4", RelExpr::reference("d2").star())
            .define("d5", RelExpr::reference("d2").plus())
            .define("d6", RelExpr::reference("d3").opt())
            .axiom(
                "A1",
                AxiomKind::Acyclic,
                RelExpr::reference("d4").seq(RelExpr::reference("d6")),
            )
            .axiom("A2", AxiomKind::Irreflexive, RelExpr::reference("d5"))
            .axiom(
                "A3",
                AxiomKind::Empty,
                RelExpr::reference("d1").minus(RelExpr::reference("d1")),
            );
        for invariant in [&[] as &[&str], &["po", "W", "R"]] {
            let compiled = CompiledModel::compile(&[&kitchen_sink], invariant);
            for fr_back in [false, true] {
                let binding = Toy { fr_back };
                assert_eq!(
                    compiled.check(&binding),
                    kitchen_sink.check(&binding),
                    "invariant={invariant:?} fr_back={fr_back}"
                );
            }
        }
    }

    #[test]
    fn first_violated_axiom_matches_the_interpreter() {
        let model = ModelIr::new("two-axioms")
            .axiom("NoPo", AxiomKind::Empty, RelExpr::base("po"))
            .axiom("NoFr", AxiomKind::Empty, RelExpr::base("fr"));
        let compiled = CompiledModel::compile(&[&model], &[]);
        let binding = Toy { fr_back: true };
        assert_eq!(compiled.check(&binding), Err("NoPo"));
        assert_eq!(compiled.check(&binding), model.check(&binding));
    }

    #[test]
    fn hoisting_moves_invariant_work_into_the_prelude() {
        // ghb = po ∪ rf ∪ fr: with only po invariant nothing composite
        // hoists; making all three bases invariant hoists everything.
        let model = sc_like();
        let none = CompiledModel::compile(&[&model], &[]);
        assert_eq!(none.prelude_op_count(), 0);
        let po_only = CompiledModel::compile(&[&model], &["po"]);
        assert_eq!(po_only.prelude_op_count(), 1, "just the po fetch");
        let all = CompiledModel::compile(&[&model], &["po", "rf", "fr"]);
        assert!(all.body_op_count() == 0, "whole body hoisted");
        // All three compile to the same verdicts.
        for compiled in [&none, &po_only, &all] {
            for fr_back in [false, true] {
                let binding = Toy { fr_back };
                assert_eq!(compiled.check(&binding), model.check(&binding));
            }
        }
    }

    #[test]
    fn preludes_replay_across_candidates() {
        // po is invariant across the two Toy "candidates"; fr differs.
        let model = sc_like();
        let compiled = CompiledModel::compile(&[&model], &["po"]);
        let prelude = compiled.prelude(&Toy { fr_back: false });
        assert!(compiled.consistent_with(&prelude, &Toy { fr_back: false }));
        assert!(!compiled.consistent_with(&prelude, &Toy { fr_back: true }));
    }

    #[test]
    fn cse_shares_repeated_subexpressions() {
        // The same union appears in both axioms; hash-consing must
        // lower it once (2 base fetches + 1 fused union + 1 closure +
        // 1 reflexive closure = 5 ops, not 8).
        let model = ModelIr::new("shared")
            .axiom(
                "A",
                AxiomKind::Acyclic,
                RelExpr::base("po").union(RelExpr::base("fr")).plus(),
            )
            .axiom(
                "B",
                AxiomKind::Irreflexive,
                RelExpr::base("po").union(RelExpr::base("fr")).star(),
            );
        let compiled = CompiledModel::compile(&[&model], &[]);
        assert_eq!(compiled.body_op_count(), 5);
    }

    /// A model that forbids any `fr` edge — rejects the SB cycle's
    /// candidate but not the acyclic one, unlike [`sc_like`] only in
    /// its axiom, so fusing the two shares the `fr` fetch.
    fn no_fr() -> ModelIr {
        ModelIr::new("toy-no-fr")
            .define("ghb", RelExpr::base("fr"))
            .axiom("NoFr", AxiomKind::Empty, RelExpr::reference("ghb"))
    }

    #[test]
    fn fused_bits_are_the_single_model_verdicts_in_model_order() {
        let permissive = ModelIr::new("toy-any").axiom("Never", AxiomKind::Empty, RelExpr::Empty);
        let (a, b) = (sc_like(), permissive);
        let ab = CompiledModel::compile(&[&a, &b], &["po"]);
        let ba = CompiledModel::compile(&[&b, &a], &["po"]);
        assert_eq!((ab.model_count(), ab.all_models()), (2, 0b11));
        let mut scratch = EvalScratch::default();
        for fr_back in [false, true] {
            let binding = Toy { fr_back };
            let bit = |model: &ModelIr| u64::from(model.check(&binding).is_ok());
            let (pa, pb) = (ab.prelude(&binding), ba.prelude(&binding));
            let mask_ab = ab.verdicts_with_scratch(&pa, &binding, 0b11, &mut scratch);
            let mask_ba = ba.verdicts_with_scratch(&pb, &binding, 0b11, &mut scratch);
            assert_eq!(mask_ab, bit(&a) | bit(&b) << 1, "fr_back={fr_back}");
            assert_eq!(mask_ba, bit(&b) | bit(&a) << 1, "fr_back={fr_back}");
            // Unwanted models never get a bit.
            assert_eq!(
                ab.verdicts_with_scratch(&pa, &binding, 0b10, &mut scratch),
                mask_ab & 0b10
            );
        }
        // SB closes the cycle: only the permissive model accepts.
        let sb = Toy { fr_back: true };
        assert_eq!(
            ab.check(&sb),
            Err("Sc"),
            "the first failing model names its axiom"
        );
        assert_eq!(ba.check(&sb), Err("Sc"));
    }

    #[test]
    fn fusion_shares_operations_and_scopes_definitions_per_model() {
        // Both models define `ghb`, differently: names must not leak
        // across models, but the shared `fr` fetch is lowered once.
        let (sc, nofr) = (sc_like(), no_fr());
        let fused = CompiledModel::compile(&[&sc, &nofr], &["po"]);
        let singles = [
            CompiledModel::compile(&[&sc], &["po"]),
            CompiledModel::compile(&[&nofr], &["po"]),
        ];
        let body: usize = singles.iter().map(CompiledModel::body_op_count).sum();
        assert!(fused.body_op_count() < body);
        let mut scratch = EvalScratch::default();
        for fr_back in [false, true] {
            let binding = Toy { fr_back };
            let prelude = fused.prelude(&binding);
            let mask = fused.verdicts_with_scratch(&prelude, &binding, 0b11, &mut scratch);
            for (k, single) in singles.iter().enumerate() {
                assert_eq!(mask >> k & 1 == 1, single.consistent(&binding), "model {k}");
            }
        }
    }

    #[test]
    fn witness_batches_stop_once_every_wanted_model_has_a_witness() {
        struct Pool;
        impl BindingPool for Pool {
            type Binding<'a> = Toy;
            fn universe(&self) -> usize {
                4
            }
            fn bind(&mut self, index: u32) -> Toy {
                Toy {
                    fr_back: index == 0,
                }
            }
        }
        let (sc, nofr) = (sc_like(), no_fr());
        let fused = CompiledModel::compile(&[&sc, &nofr], &["po"]);
        let prelude = fused.prelude(&Toy { fr_back: false });
        let mut scratch = EvalScratch::default();
        // Candidate 0 (the SB cycle) satisfies neither model; candidate
        // 1 satisfies both, so candidate 2 is never judged.
        let got = fused.witness_batch(&prelude, &mut Pool, &[0, 1, 2], 0b11, &mut scratch);
        assert_eq!(got, (0b11, 2));
        let none = fused.witness_batch(&prelude, &mut Pool, &[0], 0b11, &mut scratch);
        assert_eq!(none, (0, 1));
        assert_eq!(
            fused.witness_batch(&prelude, &mut Pool, &[0, 1], 0, &mut scratch),
            (0, 0)
        );
    }

    #[test]
    #[should_panic(expected = "a kernel lowers 1 to 64 models")]
    fn a_kernel_needs_at_least_one_model() {
        let _ = CompiledModel::compile(&[], &[]);
    }

    #[test]
    fn kernel_ids_are_unique() {
        let a = CompiledModel::compile(&[&sc_like()], &[]);
        let b = CompiledModel::compile(&[&sc_like()], &[]);
        assert_ne!(a.kernel_id(), b.kernel_id());
    }

    #[test]
    #[should_panic(expected = "unknown base relation")]
    fn unknown_base_is_still_a_model_bug() {
        let model = ModelIr::new("bad").axiom("a", AxiomKind::Empty, RelExpr::base("nope"));
        let _ = CompiledModel::compile(&[&model], &[]).check(&Toy { fr_back: false });
    }

    #[test]
    #[should_panic(expected = "undefined relation")]
    fn undefined_reference_panics_at_compile_time() {
        let model = ModelIr::new("bad").axiom("a", AxiomKind::Empty, RelExpr::reference("later"));
        let _ = CompiledModel::compile(&[&model], &[]);
    }

    #[test]
    #[should_panic(expected = "references itself")]
    fn definition_cycles_panic_at_compile_time() {
        let model = ModelIr::new("bad")
            .define("a", RelExpr::reference("b"))
            .define("b", RelExpr::reference("a"))
            .axiom("x", AxiomKind::Empty, RelExpr::reference("a"));
        let _ = CompiledModel::compile(&[&model], &[]);
    }
}
