//! The axiomatic evaluation of candidate executions against a
//! microarchitecture configuration.
//!
//! # The `prop` construction for non-MCA models
//!
//! Multi-copy-atomic models get the strong propagation relation
//! `ppo ∪ fences ∪ rf(e) ∪ fr` (every ordering a store-atomic machine
//! enforces is globally agreed). Non-MCA models build `prop` from four
//! ingredients, mirroring how real weakly-ordered machines (and the
//! paper's shared-buffer/non-stalling-coherence µspec models) create
//! global ordering:
//!
//! 1. **Non-cumulative fences** split by the kind of ordering they give:
//!    *drain* edges (ending at a read of the fencing thread) force the
//!    predecessors globally and accept an `fre` prefix (a remote read
//!    missing a drained write precedes its drain point) — this forbids
//!    SB through `fence rw,rw` without smuggling in any cumulativity;
//!    *per-observer* edges (ending at a write) relay through exactly one
//!    reads-from hop and then only the observer's local order (WRC/IRIW
//!    stay observable — the 2016 RISC-V bugs).
//! 2. **Cumulative fences** follow the Herding-Cats Power construction:
//!    `prop_base = (Fc ∪ rfe;Fc) ; hb*`,
//!    `prop_cum = (prop_base ∩ WW) ∪ (com* ; prop_base* ; Fheavy ; hb*)`.
//! 3. **Release synchronization** (AMO `rl`): when an eligible load reads
//!    a release write, the release's predecessor set becomes visible to
//!    the loading core: edges `pred(w_rel) × {r}`. The ISA version picks
//!    the predecessor set (program order vs happens-before, §5.2.1) and
//!    the eligible readers (any load vs acquires only, §5.2.3).
//! 4. **SC-AMO visibility**: on A9like, `rfe` edges out of SC-AMO writes
//!    are globally agreed (the coherence protocol completed the AMO).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

use tricheck_isa::{HwAnnot, SpecVersion};
use tricheck_litmus::{
    enumerate_executions, enumerate_matching, outcome_set, ConsistencyModel, ExecArena, ExecCursor,
    Execution, ExecutionSpace, Outcome, Program, Reg,
};
use tricheck_rel::{BindingPool, CompiledModel, EvalScratch, EventSet, ModelIr, Prelude, Relation};

use crate::config::{ReleasePredecessors, StoreAtomicity, UarchConfig};
use crate::ir::{build_uarch_ir, fence_edges, HwBinding};

/// Why an execution is rejected by a microarchitecture model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum UarchViolation {
    /// Per-location coherence (`acyclic(po_loc′ ∪ com)`) fails.
    ScPerLocation,
    /// An RMW was not atomic (`rmw ∩ (fr ; co) ≠ ∅`).
    Atomicity,
    /// Local happens-before has a cycle.
    Causality,
    /// A read observed a write "from the past" of a propagated write
    /// (`fre ; prop ; hb*` hits identity).
    Observation,
    /// Write propagation contradicts coherence (`co ∪ prop` cyclic).
    Propagation,
    /// The global SC-AMO order cannot exist (§4.2.2).
    ScAmoOrder,
}

impl fmt::Display for UarchViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UarchViolation::ScPerLocation => "SC-per-location violation",
            UarchViolation::Atomicity => "RMW atomicity violation",
            UarchViolation::Causality => "causality (hb) cycle",
            UarchViolation::Observation => "observation violation",
            UarchViolation::Propagation => "propagation violation",
            UarchViolation::ScAmoOrder => "no global SC-AMO order",
        };
        f.write_str(s)
    }
}

impl UarchViolation {
    /// Maps a violated IR axiom name back onto the typed violation. The
    /// microarchitecture models all share one axiom vocabulary (the
    /// crate-docs axioms), so an unknown name is a model-definition bug.
    #[must_use]
    pub fn from_axiom_name(name: &str) -> Self {
        match name {
            "ScPerLocation" => UarchViolation::ScPerLocation,
            "Atomicity" => UarchViolation::Atomicity,
            "Causality" => UarchViolation::Causality,
            "Observation" => UarchViolation::Observation,
            "Propagation" => UarchViolation::Propagation,
            "ScAmoOrder" => UarchViolation::ScAmoOrder,
            other => panic!("IR model uses an unknown axiom name '{other}'"),
        }
    }
}

impl std::error::Error for UarchViolation {}

/// A microarchitecture memory model: a declarative [`ModelIr`] judged
/// over hardware-level candidate executions.
///
/// Models come in two flavours. Knob-driven models wrap a
/// [`UarchConfig`] (the paper's Table 7 machines); their IR is compiled
/// from the knobs by [`build_uarch_ir`] on first use, and the original
/// imperative checker survives as [`UarchModel::check`] — the
/// differential oracle the property tests pin the compilation against.
/// Data-defined models ([`UarchModel::from_ir`], e.g. the x86-TSO
/// model of `models/x86-tso.cat`) *are* their IR: no config, no
/// imperative twin.
#[derive(Clone, Debug)]
pub struct UarchModel {
    name: String,
    kind: ModelKind,
    compiled: OnceLock<CompiledModel>,
}

/// The [`HwBinding`] bases that depend only on the program, not on the
/// candidate `rf`/`co` — hoisted into the compiled kernel's prelude.
/// `po-loc`/`same-loc` stay candidate-dependent: locations resolve per
/// candidate for dynamic-address programs.
const HW_INVARIANT_BASES: &[&str] = &[
    "po",
    "addr",
    "data",
    "rmw",
    "fence-noncum",
    "fence-cum",
    "fence-heavy",
    "R",
    "W",
    "F",
    "M",
    "init",
    "amo-aq",
    "amo-rl",
    "amo-sc",
];

#[derive(Clone, Debug)]
enum ModelKind {
    /// Knob-driven: IR compiled from the config lazily; imperative
    /// checker kept as the oracle.
    Config {
        config: UarchConfig,
        ir: OnceLock<ModelIr>,
    },
    /// Data-defined: the IR is the whole model.
    Ir(ModelIr),
}

impl UarchModel {
    /// Wraps an explicit configuration.
    #[must_use]
    pub fn from_config(config: UarchConfig) -> Self {
        UarchModel {
            name: config.name.clone(),
            kind: ModelKind::Config {
                config,
                ir: OnceLock::new(),
            },
            compiled: OnceLock::new(),
        }
    }

    /// Wraps a data-defined model: the IR is evaluated directly, with
    /// no configuration (and no imperative oracle) behind it.
    #[must_use]
    pub fn from_ir(ir: ModelIr) -> Self {
        UarchModel {
            name: ir.name().to_string(),
            kind: ModelKind::Ir(ir),
            compiled: OnceLock::new(),
        }
    }

    /// Table 7 `WR` under the given spec version.
    #[must_use]
    pub fn wr(version: SpecVersion) -> Self {
        Self::from_config(UarchConfig::wr(version))
    }

    /// Table 7 `rWR`.
    #[must_use]
    pub fn rwr(version: SpecVersion) -> Self {
        Self::from_config(UarchConfig::rwr(version))
    }

    /// Table 7 `rWM`.
    #[must_use]
    pub fn rwm(version: SpecVersion) -> Self {
        Self::from_config(UarchConfig::rwm(version))
    }

    /// Table 7 `rMM`.
    #[must_use]
    pub fn rmm(version: SpecVersion) -> Self {
        Self::from_config(UarchConfig::rmm(version))
    }

    /// Table 7 `nWR`.
    #[must_use]
    pub fn nwr(version: SpecVersion) -> Self {
        Self::from_config(UarchConfig::nwr(version))
    }

    /// Table 7 `nMM`.
    #[must_use]
    pub fn nmm(version: SpecVersion) -> Self {
        Self::from_config(UarchConfig::nmm(version))
    }

    /// Table 7 `A9like`.
    #[must_use]
    pub fn a9like(version: SpecVersion) -> Self {
        Self::from_config(UarchConfig::a9like(version))
    }

    /// The ARMv7 model for the §7 compiler study.
    #[must_use]
    pub fn armv7_a9like() -> Self {
        Self::from_config(UarchConfig::armv7_a9like())
    }

    /// The ARMv7-A9 with the §1/§2 read-after-read hazard.
    #[must_use]
    pub fn armv7_a9_ldld_hazard() -> Self {
        Self::from_config(UarchConfig::armv7_a9_ldld_hazard())
    }

    /// All seven Table 7 models for one spec version.
    #[must_use]
    pub fn all_riscv(version: SpecVersion) -> Vec<Self> {
        UarchConfig::all_riscv(version)
            .into_iter()
            .map(Self::from_config)
            .collect()
    }

    /// The ARMv7 models of the §7 compiler study: the compliant
    /// Cortex-A9-like machine and its read-after-read-hazard variant
    /// (the §1–§2 erratum).
    #[must_use]
    pub fn all_armv7() -> Vec<Self> {
        UarchConfig::all_armv7()
            .into_iter()
            .map(Self::from_config)
            .collect()
    }

    /// The model's relaxation configuration, or `None` for a
    /// data-defined (IR-only) model.
    #[must_use]
    pub fn config(&self) -> Option<&UarchConfig> {
        match &self.kind {
            ModelKind::Config { config, .. } => Some(config),
            ModelKind::Ir(_) => None,
        }
    }

    /// The model's declarative IR — compiled from the config on first
    /// use for knob-driven models, the model itself for data-defined
    /// ones.
    #[must_use]
    pub fn ir(&self) -> &ModelIr {
        match &self.kind {
            ModelKind::Config { config, ir } => ir.get_or_init(|| build_uarch_ir(config)),
            ModelKind::Ir(ir) => ir,
        }
    }

    /// The model's IR lowered to a single-model bitset kernel —
    /// compiled once per model instance on first use. Program-only
    /// bases ([`HW_INVARIANT_BASES`]) are hoisted into the kernel's
    /// prelude, evaluated once per judging stream instead of once per
    /// candidate. Sweeps judging several models over one program use a
    /// [`FusedJudge`] instead.
    #[must_use]
    pub fn compiled(&self) -> &CompiledModel {
        self.compiled
            .get_or_init(|| CompiledModel::compile(&[self.ir()], HW_INVARIANT_BASES))
    }

    /// The model's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Checks one candidate execution, reporting the first violated
    /// axiom. For knob-driven models this is the *imperative* checker —
    /// kept as the differential oracle for the IR compilation (the
    /// production predicate, [`UarchModel::consistent`], evaluates the
    /// IR). Data-defined models are checked through their IR, with
    /// axiom names mapped onto [`UarchViolation`].
    ///
    /// # Errors
    ///
    /// Returns the violated axiom as a [`UarchViolation`].
    pub fn check(&self, exec: &Execution<HwAnnot>) -> Result<(), UarchViolation> {
        match &self.kind {
            ModelKind::Config { config, .. } => self.check_imperative(exec, config),
            ModelKind::Ir(ir) => ir
                .check(&HwBinding::new(exec))
                .map_err(UarchViolation::from_axiom_name),
        }
    }

    /// The imperative oracle for knob-driven models: the original
    /// hand-written evaluation of the crate-docs axioms.
    fn check_imperative(
        &self,
        exec: &Execution<HwAnnot>,
        config: &UarchConfig,
    ) -> Result<(), UarchViolation> {
        let rels = HwRelations::new(exec, config);

        if !rels.po_loc.union(&rels.com).is_acyclic() {
            return Err(UarchViolation::ScPerLocation);
        }
        if !exec.rmw().intersect(&rels.fr.compose(exec.co())).is_empty() {
            return Err(UarchViolation::Atomicity);
        }
        if !rels.hb.is_acyclic() {
            return Err(UarchViolation::Causality);
        }
        // `prop` carries its own (soundness-scoped) extensions, so no
        // further hb* suffix is applied here.
        if !rels.fre.compose(&rels.prop).is_irreflexive() {
            return Err(UarchViolation::Observation);
        }
        if !exec.co().union(&rels.prop).is_acyclic() {
            return Err(UarchViolation::Propagation);
        }
        if !rels.sc_amo.is_empty() {
            // The global SC-AMO order must be consistent with program
            // order, (transitive) happens-before, and *direct*
            // communication edges between SC AMOs (§4.2.2). Communication
            // chains through non-SC accesses are deliberately excluded:
            // on a non-MCA machine an `fr;rf` chain through a plain store
            // carries no global-time meaning (the store may have been
            // forwarded early to one observer only).
            let order = rels
                .hb
                .transitive_closure()
                .union(exec.po())
                .union(&rels.com)
                .restrict(rels.sc_amo, rels.sc_amo);
            if !order.is_acyclic() {
                return Err(UarchViolation::ScAmoOrder);
            }
        }
        Ok(())
    }

    /// `true` if the execution is realizable on this microarchitecture.
    ///
    /// This is the production predicate and evaluates the *compiled*
    /// kernel ([`UarchModel::compiled`]); the tree-walking IR
    /// interpreter and the imperative [`UarchModel::check`] survive as
    /// differential oracles, pinned against this path on every candidate
    /// execution of random suite subsets by `tests/model_properties.rs`.
    #[must_use]
    pub fn consistent(&self, exec: &Execution<HwAnnot>) -> bool {
        self.compiled().consistent(&HwBinding::new(exec))
    }

    /// Whether the target outcome is observable for the compiled program
    /// on this microarchitecture (Step 3 verdict).
    ///
    /// One-shot adapter over the execution-space engine: short-circuits
    /// the enumeration at the first realizable witness. When many models
    /// judge the same compiled program, prefer [`Self::observes_in`]
    /// over a shared space.
    #[must_use]
    pub fn observes(&self, prog: &Program<HwAnnot>, target: &Outcome) -> bool {
        ExecutionSpace::witness_search(prog, target, |e| self.consistent(e))
    }

    /// Whether `target` is observable, judged over a shared
    /// [`ExecutionSpace`] (the enumerate-once path used by sweeps).
    #[must_use]
    pub fn observes_in(&self, space: &ExecutionSpace<HwAnnot>, target: &Outcome) -> bool {
        self.permits(space, target)
    }

    /// The full set of outcomes observable on this microarchitecture.
    ///
    /// One-shot: streams the enumeration with O(1) execution storage.
    /// When many models judge one program, use
    /// [`ConsistencyModel::allowed_outcomes`] over a shared space.
    #[must_use]
    pub fn observable_outcomes(
        &self,
        prog: &Program<HwAnnot>,
        observed: &[(usize, Reg)],
    ) -> BTreeSet<Outcome> {
        outcome_set(prog, observed, |e| self.consistent(e))
    }

    /// The full observable-outcome set, judged over a shared
    /// [`ExecutionSpace`] (the enumerate-once path used by full-outcome
    /// sweeps: the space's cached outcome partition is shared by every
    /// model judging the program).
    #[must_use]
    pub fn observable_outcomes_in(
        &self,
        space: &ExecutionSpace<HwAnnot>,
        observed: &[(usize, Reg)],
    ) -> BTreeSet<Outcome> {
        self.allowed_outcomes(space, observed)
    }
}

impl ConsistencyModel for UarchModel {
    type Ann = HwAnnot;

    fn model_name(&self) -> &str {
        self.name()
    }

    fn consistent(&self, exec: &Execution<HwAnnot>) -> bool {
        UarchModel::consistent(self, exec)
    }

    // The space-judged paths are the single-model case of the fused
    // judge below: the space's columnar views stream through the
    // compiled kernel, one cursor rebind per candidate (no per-candidate
    // `Execution` clone, `fr` served from the arena's derived column)
    // and one prelude evaluation per stream.

    fn permits(&self, space: &ExecutionSpace<HwAnnot>, target: &Outcome) -> bool {
        witness_mask(self.compiled(), space, target, 1, &mut JudgeWork::default()) != 0
    }

    fn allowed_outcomes(
        &self,
        space: &ExecutionSpace<HwAnnot>,
        observed: &[(usize, Reg)],
    ) -> BTreeSet<Outcome> {
        observable_sets(self.compiled(), space, observed, &mut JudgeWork::default()).swap_remove(0)
    }
}

/// The work one shared-space judgement did, for sweep counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct JudgeWork {
    /// Judging streams opened — one kernel prelude evaluated each.
    pub streams: usize,
    /// Candidate judgements made (each one replays its stream's
    /// prelude).
    pub judged: usize,
}

/// Several µarch models judging one compiled program together.
///
/// The models are lowered into one multi-output [`CompiledModel`]
/// (bit `k` of every verdict mask is `models[k]`), so the base
/// relations, definitions and axiom tests they share are evaluated once
/// per candidate instead of once per model — the seven Table 7 models
/// of one ISA version share their communication relations and their
/// sc-per-location and atomicity axioms outright.
///
/// A judgement reads its candidates from one of two sources, with the
/// same evaluation either way: one prelude per judgement, one
/// [`EvalScratch`], each candidate bound once and judged only for the
/// models still missing an answer.
///
/// - **A shared space** ([`FusedJudge::observes_in`],
///   [`FusedJudge::observable_outcomes_in`]): the space's materialized
///   matching view or outcome partition, which every other visitor of
///   the program reuses.
/// - **A stream** ([`FusedJudge::observes`],
///   [`FusedJudge::observable_outcomes`]): one unpruned enumeration of
///   the program, materializing nothing, stopped as soon as every
///   model has a target witness.
///
/// Verdicts are bit-identical to asking each model's
/// [`UarchModel::observes_in`] / [`UarchModel::observable_outcomes_in`]
/// or one-shot [`UarchModel::observes`] /
/// [`UarchModel::observable_outcomes`] separately.
#[derive(Clone, Debug)]
pub struct FusedJudge {
    kernel: CompiledModel,
}

impl FusedJudge {
    /// Compiles the fused kernel of `models`.
    ///
    /// # Panics
    ///
    /// Panics unless `models` holds 1 to [`CompiledModel::MAX_MODELS`]
    /// models.
    #[must_use]
    pub fn new(models: &[&UarchModel]) -> Self {
        let irs: Vec<&ModelIr> = models.iter().map(|m| m.ir()).collect();
        FusedJudge {
            kernel: CompiledModel::compile(&irs, HW_INVARIANT_BASES),
        }
    }

    /// The fused kernel.
    #[must_use]
    pub fn kernel(&self) -> &CompiledModel {
        &self.kernel
    }

    /// Target mode: bit `k` is set iff model `k` can observe `target`
    /// on the space's program. One stream over the matching view, ended
    /// as soon as every model has a witness.
    #[must_use]
    pub fn observes_in(
        &self,
        space: &ExecutionSpace<HwAnnot>,
        target: &Outcome,
        work: &mut JudgeWork,
    ) -> u64 {
        witness_mask(&self.kernel, space, target, self.kernel.all_models(), work)
    }

    /// Full-outcome mode: entry `k` is model `k`'s observable-outcome
    /// set. One stream over the space's outcome partition; within each
    /// outcome group a candidate is judged only for the models that
    /// have not yet witnessed that outcome.
    #[must_use]
    pub fn observable_outcomes_in(
        &self,
        space: &ExecutionSpace<HwAnnot>,
        observed: &[(usize, Reg)],
        work: &mut JudgeWork,
    ) -> Vec<BTreeSet<Outcome>> {
        observable_sets(&self.kernel, space, observed, work)
    }

    /// Target mode over a stream: bit `k` is set iff model `k` can
    /// observe `target` on `program`. One enumeration of the candidates
    /// producing `target`, ended as soon as every model has a witness.
    #[must_use]
    pub fn observes(
        &self,
        program: &Program<HwAnnot>,
        target: &Outcome,
        work: &mut JudgeWork,
    ) -> u64 {
        let all = self.kernel.all_models();
        let mut stream = Stream::new(&self.kernel, work);
        let mut witnessed = 0;
        enumerate_matching(program, target, &mut |exec| {
            witnessed |= stream.verdicts(exec, all & !witnessed);
            witnessed != all
        });
        witnessed
    }

    /// Full-outcome mode over a stream: entry `k` is model `k`'s
    /// observable-outcome set. One enumeration of every candidate; each
    /// is judged only for the models that have not yet witnessed its
    /// outcome.
    #[must_use]
    pub fn observable_outcomes(
        &self,
        program: &Program<HwAnnot>,
        observed: &[(usize, Reg)],
        work: &mut JudgeWork,
    ) -> Vec<BTreeSet<Outcome>> {
        let all = self.kernel.all_models();
        let mut stream = Stream::new(&self.kernel, work);
        // Per outcome, the models that have witnessed it.
        let mut witnessed: BTreeMap<Outcome, u64> = BTreeMap::new();
        enumerate_executions(program, &mut |exec| {
            let outcome = exec.outcome(observed);
            let seen = witnessed.get(&outcome).copied().unwrap_or(0);
            if seen != all {
                let accepted = stream.verdicts(exec, all & !seen);
                if accepted != 0 {
                    *witnessed.entry(outcome).or_default() |= accepted;
                }
            }
            true
        });
        let mut sets = vec![BTreeSet::new(); self.kernel.model_count()];
        for (outcome, mut mask) in witnessed {
            while mask != 0 {
                sets[mask.trailing_zeros() as usize].insert(outcome.clone());
                mask &= mask - 1;
            }
        }
        sets
    }
}

/// One streamed judgement: the kernel's prelude, evaluated on the first
/// candidate's binding, and one scratch, both reused by every later
/// candidate of the enumeration.
struct Stream<'k, 'w> {
    kernel: &'k CompiledModel,
    prelude: Option<Prelude>,
    scratch: EvalScratch,
    work: &'w mut JudgeWork,
}

impl<'k, 'w> Stream<'k, 'w> {
    fn new(kernel: &'k CompiledModel, work: &'w mut JudgeWork) -> Self {
        Stream {
            kernel,
            prelude: None,
            scratch: EvalScratch::default(),
            work,
        }
    }

    /// Judges one candidate for the models of `wanted`, returning the
    /// mask of those that accept it.
    fn verdicts(&mut self, exec: &Execution<HwAnnot>, wanted: u64) -> u64 {
        let binding = HwBinding::new(exec);
        let prelude = self.prelude.get_or_insert_with(|| {
            self.work.streams += 1;
            self.kernel.prelude(&binding)
        });
        self.work.judged += 1;
        self.kernel
            .verdicts_with_scratch(prelude, &binding, wanted, &mut self.scratch)
    }
}

/// The models of `wanted` (bits of `kernel`) that accept some candidate
/// of the space producing `target`.
fn witness_mask(
    kernel: &CompiledModel,
    space: &ExecutionSpace<HwAnnot>,
    target: &Outcome,
    wanted: u64,
    work: &mut JudgeWork,
) -> u64 {
    let view = space.matching(target);
    if view.is_empty() {
        return 0;
    }
    let indices = view.indices();
    let mut pool = HwPool::over(view.arena()).expect("non-empty view has candidates");
    // The prelude lives for exactly this stream: it already serves
    // every candidate and every model of the (space, kernel) pair.
    let prelude = kernel.prelude(&pool.bind(indices[0]));
    let (witnessed, judged) = kernel.witness_batch(
        &prelude,
        &mut pool,
        &indices,
        wanted,
        &mut EvalScratch::default(),
    );
    work.streams += 1;
    work.judged += judged;
    witnessed
}

/// Every model's observable-outcome set over the space's outcome
/// partition, one entry per model of `kernel`.
fn observable_sets(
    kernel: &CompiledModel,
    space: &ExecutionSpace<HwAnnot>,
    observed: &[(usize, Reg)],
    work: &mut JudgeWork,
) -> Vec<BTreeSet<Outcome>> {
    let mut sets = vec![BTreeSet::new(); kernel.model_count()];
    let view = space.executions();
    let groups = space.outcome_groups(observed);
    let Some(mut pool) = HwPool::over(view.arena()) else {
        return sets;
    };
    let prelude = kernel.prelude(&pool.bind(0));
    let mut scratch = EvalScratch::default();
    work.streams += 1;
    for (outcome, members) in groups.iter() {
        let (mut witnessed, judged) = kernel.witness_batch(
            &prelude,
            &mut pool,
            members,
            kernel.all_models(),
            &mut scratch,
        );
        work.judged += judged;
        while witnessed != 0 {
            sets[witnessed.trailing_zeros() as usize].insert(outcome.clone());
            witnessed &= witnessed - 1;
        }
    }
    sets
}

/// A [`BindingPool`] over a columnar space arena: one reusable
/// [`ExecCursor`] rebinds the same skeleton execution per candidate and
/// hands [`HwBinding`]s the arena's precomputed `fr` column.
struct HwPool<'a> {
    cursor: ExecCursor<'a, HwAnnot>,
}

impl<'a> HwPool<'a> {
    fn over(arena: &'a ExecArena<HwAnnot>) -> Option<Self> {
        Some(HwPool {
            cursor: arena.cursor()?,
        })
    }
}

impl BindingPool for HwPool<'_> {
    type Binding<'b>
        = HwBinding<'b>
    where
        Self: 'b;

    fn universe(&self) -> usize {
        self.cursor.universe()
    }

    fn bind(&mut self, index: u32) -> HwBinding<'_> {
        self.cursor.at(index);
        HwBinding::with_fr(self.cursor.exec(), self.cursor.fr().clone())
    }
}

/// All derived relations for one (execution, config) pair.
struct HwRelations {
    po_loc: Relation,
    com: Relation,
    fr: Relation,
    fre: Relation,
    hb: Relation,
    prop: Relation,
    sc_amo: EventSet,
}

impl HwRelations {
    #[allow(clippy::too_many_lines)]
    fn new(exec: &Execution<HwAnnot>, cfg: &UarchConfig) -> Self {
        let n = exec.len();
        let reads = exec.reads();
        let writes = exec.writes();
        let accesses = reads.union(writes);
        let amo = |e: usize| exec.ann(e).and_then(HwAnnot::amo_bits);

        // --- Fence-induced edges, split by cumulativity class (shared
        // annotation bookkeeping with the IR binding) ---
        let (f_noncum, f_cum, f_heavy) = fence_edges(exec);
        let fences = f_noncum.union(&f_cum);

        // --- AMO aq/rl local ordering (one-way barriers, §4.2.1) ---
        let mut aq_edges = Relation::empty(n);
        let mut rl_edges = Relation::empty(n);
        for e in accesses.iter() {
            let Some(bits) = amo(e) else { continue };
            if bits.aq {
                for y in exec.po().successors(e).intersect(accesses).iter() {
                    aq_edges.insert(e, y);
                }
            }
            if bits.rl {
                for x in exec.po().inverse().successors(e).intersect(accesses).iter() {
                    rl_edges.insert(x, e);
                }
            }
        }

        // --- Preserved program order ---
        let same_loc = exec.same_loc();
        let po_acc = exec.po().restrict(accesses, accesses);
        let rr = Relation::cross(reads, reads);
        let rw = Relation::cross(reads, writes);
        let wr = Relation::cross(writes, reads);
        let ww = Relation::cross(writes, writes);

        let mut ppo = exec
            .addr()
            .union(exec.data())
            .union(exec.rmw())
            .union(&po_acc.intersect(&same_loc).intersect(&rw));
        if cfg.same_addr_rr_ordered {
            ppo = ppo.union(&po_acc.intersect(&same_loc).intersect(&rr));
        }
        if cfg.atomicity == StoreAtomicity::Mca {
            // No forwarding: a load waits for the pending same-address store.
            ppo = ppo.union(&po_acc.intersect(&same_loc).intersect(&wr));
        }
        if !cfg.relax_ww {
            ppo = ppo.union(&po_acc.intersect(&ww));
        }
        if !cfg.relax_rm {
            ppo = ppo.union(&po_acc.intersect(&rr.union(&rw)));
        }
        // Pipeline-enforced order, before AMO ordering bits: used for the
        // per-observer propagation relay, where release (`rl`) edges must
        // NOT participate — whether a release relays to a plain load is
        // exactly the §5.2.3 lazy-cumulativity knob, handled by `sync`.
        let pipeline_ppo = ppo.clone();
        ppo = ppo.union(&aq_edges).union(&rl_edges);

        // --- Happens-before ---
        let rfe = exec.rfe();
        let mut hb = ppo.union(&fences).union(&rfe);
        if cfg.atomicity == StoreAtomicity::Mca {
            hb = hb.union(&exec.rfi());
        }
        let hb_star = hb.reflexive_transitive_closure();

        // --- Communication relations ---
        let fr = exec.fr();
        let fre = exec.fre();
        let com = exec.rf().union(exec.co()).union(&fr);

        // --- Propagation ---
        let prop = match cfg.atomicity {
            StoreAtomicity::Mca => ppo
                .union(&fences)
                .union(exec.rf())
                .union(&fr)
                .transitive_closure(),
            StoreAtomicity::RMca => ppo
                .union(&fences)
                .union(&rfe)
                .union(&fr)
                .transitive_closure(),
            StoreAtomicity::NMca => {
                // Propagation-grade local order: pipeline edges, fences
                // and acquire edges (all anchored at globally-performed
                // reads or forced execution order). Release (`rl`) edges
                // are deliberately absent — a release's visibility
                // ordering reaches other threads only through the `sync`
                // term, which is where the §5.2.1/§5.2.3 release
                // semantics (cumulative? acquire-only?) are enforced.
                let local = pipeline_ppo.union(&fences).union(&aq_edges);
                // 1. Cumulative fences (Herding-Cats Power construction):
                //    recursive group-A/group-B membership justifies the
                //    full hb* extensions (§2.3.2).
                let prop_base = f_cum.union(&rfe.compose(&f_cum)).compose(&hb_star);
                let heavy = com
                    .reflexive_transitive_closure()
                    .compose(&prop_base.reflexive_transitive_closure())
                    .compose(&f_heavy)
                    .compose(&hb_star);
                // Cumulativity is recursive (§2.3.2), so cumulative
                // orderings extend through arbitrary hb chains.
                let cum = prop_base.intersect(&ww).union(&heavy).compose(&hb_star);
                // 2. Release synchronization (AMO rl bit): the release's
                //    predecessor set becomes visible to eligible readers.
                let sync = release_sync(exec, cfg, &hb, accesses);
                // 3. SC-AMO global visibility (A9like): reading a
                //    completed AMO's write is a globally-agreed fact.
                let mut scvis = Relation::empty(n);
                if cfg.sc_amo_writes_globally_visible {
                    for (w, r) in rfe.pairs() {
                        if amo(w).is_some_and(|b| b.sc) {
                            scvis.insert(w, r);
                        }
                    }
                }
                // Non-cumulative ordering splits by the kind of its
                // target:
                //  - *drain* edges (fence edges ending at a read of the
                //    fencing thread) force the predecessors globally: a
                //    thread cannot execute a read past a fence until the
                //    fenced writes have performed everywhere. These are
                //    global facts and compose freely.
                //  - *per-observer* edges (fence or pipeline edges ending
                //    at a write) only promise that each observer of the
                //    write sees the predecessors first: they may relay
                //    through exactly ONE reads-from hop, followed by the
                //    observing thread's local ordering — never further.
                let drain = f_noncum.restrict(accesses, reads);
                let per_observer = f_noncum.union(&pipeline_ppo).restrict(accesses, writes);

                // Edges with global meaning compose freely.
                let strong = cum
                    .union(&sync)
                    .union(&scvis)
                    .union(&local)
                    .union(&drain)
                    .transitive_closure();
                // One-hop observer relays.
                let relayed = strong
                    .maybe()
                    .compose(&per_observer)
                    .compose(&rfe)
                    .compose(&local.reflexive_transitive_closure());
                // A remote read missing a fence-drained write happened
                // before the write's (global) drain point.
                let fre_drain = fre.compose(&drain).compose(&strong.maybe());
                strong.union(&relayed).union(&fre_drain)
            }
        };

        // --- SC-AMO participants ---
        let sc_amo =
            EventSet::from_ids(n, accesses.iter().filter(|&e| amo(e).is_some_and(|b| b.sc)));

        // --- Per-location coherence order basis ---
        // Same-address reads leave program order only when the pipeline
        // actually reorders reads (relax R→M) *and* the ISA does not
        // require same-address load→load ordering (§5.1.3). Pairs the
        // thread orders by local means (fences, AMO bits, dependencies)
        // stay in the per-location check regardless: an in-order pair of
        // same-address reads can never observe coherence backwards.
        let mut po_loc = exec.po_loc();
        if cfg.relax_rm && !cfg.same_addr_rr_ordered {
            po_loc = po_loc.minus(&rr);
        }
        let local_order = ppo.union(&fences).transitive_closure();
        po_loc = po_loc.union(&local_order.intersect(&same_loc));

        HwRelations {
            po_loc,
            com,
            fr,
            fre,
            hb,
            prop,
            sc_amo,
        }
    }
}

/// Release-synchronization propagation edges: when an eligible load reads
/// a release write, the release's predecessors become visible to the
/// loading core before that load.
fn release_sync(
    exec: &Execution<HwAnnot>,
    cfg: &UarchConfig,
    hb: &Relation,
    accesses: EventSet,
) -> Relation {
    let n = exec.len();
    let mut sync = Relation::empty(n);
    let amo = |e: usize| exec.ann(e).and_then(HwAnnot::amo_bits);
    for w in exec.writes().iter() {
        let Some(bits) = amo(w) else { continue };
        if !bits.rl {
            continue;
        }
        let preds: Vec<usize> = match cfg.release_predecessors {
            ReleasePredecessors::ProgramOrder => exec
                .po()
                .inverse()
                .successors(w)
                .intersect(accesses)
                .iter()
                .collect(),
            ReleasePredecessors::HappensBefore => {
                let hb_plus = hb.transitive_closure();
                hb_plus
                    .inverse()
                    .successors(w)
                    .intersect(accesses)
                    .iter()
                    .collect()
            }
        };
        for r in exec.rfe().successors(w).iter() {
            let eligible = cfg.release_sync_any_load || amo(r).is_some_and(|b| b.aq);
            if !eligible {
                continue;
            }
            // Only the release's *predecessors* gain propagation edges.
            // The release itself may still be read early (e.g. from a
            // shared store buffer) without being globally performed.
            for &p in &preds {
                sync.insert(p, r);
            }
        }
    }
    sync
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_compiler::{compile, power_mapping, riscv_mapping, Mapping, PowerSyncStyle};
    use tricheck_isa::RiscvIsa::{Base, BaseA};
    use tricheck_isa::SpecVersion::{Curr, Ours};
    use tricheck_litmus::{suite, LitmusTest, MemOrder};

    fn observes(test: &LitmusTest, mapping: &dyn Mapping, model: &UarchModel) -> bool {
        let compiled = compile(test, mapping).expect("compiles");
        model.observes(compiled.program(), compiled.target())
    }

    fn base_curr(test: &LitmusTest, model: &UarchModel) -> bool {
        observes(test, riscv_mapping(Base, Curr), model)
    }

    fn base_ours(test: &LitmusTest, model: &UarchModel) -> bool {
        observes(test, riscv_mapping(Base, Ours), model)
    }

    fn basea_curr(test: &LitmusTest, model: &UarchModel) -> bool {
        observes(test, riscv_mapping(BaseA, Curr), model)
    }

    fn basea_ours(test: &LitmusTest, model: &UarchModel) -> bool {
        observes(test, riscv_mapping(BaseA, Ours), model)
    }

    #[test]
    fn fused_table7_kernels_share_prelude_and_body_operations() {
        for version in [Curr, Ours] {
            let models = UarchModel::all_riscv(version);
            let refs: Vec<&UarchModel> = models.iter().collect();
            let fused = FusedJudge::new(&refs);
            let kernel = fused.kernel();
            assert_eq!(kernel.model_count(), 7);
            let prelude: usize = models.iter().map(|m| m.compiled().prelude_op_count()).sum();
            let body: usize = models.iter().map(|m| m.compiled().body_op_count()).sum();
            assert!(
                kernel.prelude_op_count() < prelude,
                "{version:?}: fused prelude {} vs {prelude} separately",
                kernel.prelude_op_count()
            );
            assert!(
                kernel.body_op_count() < body,
                "{version:?}: fused body {} vs {body} separately",
                kernel.body_op_count()
            );
        }
    }

    #[test]
    fn fused_judge_matches_each_model_on_a_shared_space() {
        let models = UarchModel::all_riscv(Curr);
        let refs: Vec<&UarchModel> = models.iter().collect();
        let fused = FusedJudge::new(&refs);
        let mapping = riscv_mapping(BaseA, Curr);
        for test in [suite::fig3_wrc(), suite::sb([MemOrder::Rlx; 4])] {
            let compiled = compile(&test, mapping).expect("compiles");
            let space = ExecutionSpace::pruned(compiled.program().clone());
            let mut work = JudgeWork::default();
            let mask = fused.observes_in(&space, compiled.target(), &mut work);
            let sets = fused.observable_outcomes_in(&space, compiled.observed(), &mut work);
            assert_eq!(work.streams, 2, "one stream per judgement");
            // Streaming the program instead of reading the space: the
            // same verdicts, still one prelude per judgement.
            let mut streamed = JudgeWork::default();
            assert_eq!(
                fused.observes(compiled.program(), compiled.target(), &mut streamed),
                mask
            );
            assert_eq!(
                fused.observable_outcomes(compiled.program(), compiled.observed(), &mut streamed),
                sets
            );
            assert_eq!(streamed.streams, 2, "one stream per judgement");
            for (k, model) in models.iter().enumerate() {
                assert_eq!(
                    mask >> k & 1 == 1,
                    model.observes_in(&space, compiled.target()),
                    "{} on {}",
                    model.name(),
                    test.name()
                );
                assert_eq!(
                    sets[k],
                    model.observable_outcomes_in(&space, compiled.observed()),
                    "{} on {}",
                    model.name(),
                    test.name()
                );
            }
        }
    }

    // ---- §5.1.1: lack of cumulative lightweight fences (WRC) ----

    #[test]
    fn wrc_fig3_observable_on_nmca_models_under_current_base_isa() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::nwr(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(
                base_curr(&t, &model),
                "{} must exhibit the WRC bug",
                model.name()
            );
        }
    }

    #[test]
    fn wrc_fig3_unobservable_on_store_atomic_models() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::wr(Curr),
            UarchModel::rwr(Curr),
            UarchModel::rwm(Curr),
            UarchModel::rmm(Curr),
        ] {
            assert!(!base_curr(&t, &model), "{} must forbid WRC", model.name());
        }
    }

    #[test]
    fn wrc_fig3_fixed_by_cumulative_lightweight_fences() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::nwr(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                !base_ours(&t, &model),
                "{} must forbid WRC after the fix",
                model.name()
            );
        }
    }

    // ---- §5.1.2: lack of cumulative heavyweight fences (IRIW) ----

    #[test]
    fn iriw_sc_observable_on_nmca_models_under_current_base_isa() {
        let t = suite::fig4_iriw_sc();
        for model in [
            UarchModel::nwr(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(
                base_curr(&t, &model),
                "{} must exhibit the IRIW bug",
                model.name()
            );
        }
    }

    #[test]
    fn iriw_sc_fixed_by_cumulative_heavyweight_fences() {
        let t = suite::fig4_iriw_sc();
        for model in [
            UarchModel::nwr(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                !base_ours(&t, &model),
                "{} must forbid IRIW after the fix",
                model.name()
            );
        }
    }

    #[test]
    fn iriw_lightweight_fences_insufficient() {
        // §5.1.2: cumulative *lightweight* fences between the load pairs do
        // not forbid IRIW — heavyweight cumulativity is required.
        use tricheck_isa::build::{lw, lwf, sw};
        use tricheck_litmus::{Loc, Program, Reg};
        let x = Loc(1);
        let y = Loc(2);
        let prog = Program::new(
            vec![
                vec![sw(x, 1)],
                vec![sw(y, 1)],
                vec![lw(Reg(0), x), lwf(), lw(Reg(1), y)],
                vec![lw(Reg(2), y), lwf(), lw(Reg(3), x)],
            ],
            [],
        )
        .unwrap();
        let target = suite::fig4_iriw_sc().target().clone();
        assert!(UarchModel::nmm(Ours).observes(&prog, &target));
    }

    // ---- §5.1.3: same-address load→load reordering (CoRR) ----

    #[test]
    fn corr_observable_on_read_reordering_models_under_curr() {
        let t = suite::corr([MemOrder::Rlx; 4]);
        for model in [
            UarchModel::rmm(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(base_curr(&t, &model), "{} must exhibit CoRR", model.name());
        }
    }

    #[test]
    fn corr_unobservable_on_models_preserving_read_order() {
        let t = suite::corr([MemOrder::Rlx; 4]);
        for model in [
            UarchModel::wr(Curr),
            UarchModel::rwr(Curr),
            UarchModel::rwm(Curr),
            UarchModel::nwr(Curr),
        ] {
            assert!(!base_curr(&t, &model), "{} must forbid CoRR", model.name());
        }
    }

    #[test]
    fn corr_fixed_by_same_address_ordering_requirement() {
        let t = suite::corr([MemOrder::Rlx; 4]);
        for model in [
            UarchModel::rmm(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                !base_ours(&t, &model),
                "{} must forbid CoRR after the fix",
                model.name()
            );
        }
    }

    // ---- §5.2.1: non-cumulative releases (Base+A WRC) ----

    #[test]
    fn wrc_base_a_observable_under_current_amo_releases() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::nwr(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(
                basea_curr(&t, &model),
                "{} must exhibit the Base+A WRC bug",
                model.name()
            );
        }
    }

    #[test]
    fn wrc_base_a_aq_rl_release_does_not_help() {
        // §5.2.1: mapping the release to AMO.aq.rl (store atomic, acquire
        // AND release) still fails on shared-buffer models, because the
        // release is not cumulative.
        use tricheck_isa::build::{amo_load, amo_store, lw, sw};
        use tricheck_isa::AmoBits;
        use tricheck_litmus::{Loc, Program, Reg};
        let (x, y) = (Loc(1), Loc(2));
        let prog = Program::new(
            vec![
                vec![sw(x, 1)],
                vec![lw(Reg(0), x), amo_store(Reg(10), y, 1, AmoBits::AQ_RL)],
                vec![amo_load(Reg(1), y, AmoBits::AQ), lw(Reg(2), x)],
            ],
            [],
        )
        .unwrap();
        let target = suite::fig3_wrc().target().clone();
        assert!(UarchModel::nmm(Curr).observes(&prog, &target));
        // With cumulative releases (riscv-ours semantics) it is forbidden.
        assert!(!UarchModel::nmm(Ours).observes(&prog, &target));
    }

    #[test]
    fn wrc_base_a_fixed_by_cumulative_releases() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::nwr(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                !basea_ours(&t, &model),
                "{} must forbid WRC after the fix",
                model.name()
            );
        }
    }

    // ---- §5.2.2: roach-motel movement for SC atomics ----

    #[test]
    fn roach_motel_forbidden_by_current_aq_rl_mapping() {
        // C11 allows the Figure 11 outcome, but AMO.aq.rl SC stores
        // over-order: Overly Strict on every model.
        let t = suite::fig11_mp_roach_motel();
        for model in UarchModel::all_riscv(Curr) {
            assert!(
                !basea_curr(&t, &model),
                "{} must (over-)forbid Figure 11",
                model.name()
            );
        }
    }

    #[test]
    fn roach_motel_allowed_after_sc_bit_decoupling() {
        // The refined AMO.rl.sc mapping lets the relaxed store sink below
        // the SC store on models that relax W→W.
        let t = suite::fig11_mp_roach_motel();
        for model in [
            UarchModel::rwm(Ours),
            UarchModel::rmm(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                basea_ours(&t, &model),
                "{} must allow Figure 11",
                model.name()
            );
        }
        // Models that keep W→W order still cannot exhibit it (§6.1:
        // Overly Strict bars that "stay the same"). This includes the
        // shared store buffer: its FIFO drains the SC store first, and a
        // buffer-sharing reader would see both writes.
        for model in [
            UarchModel::wr(Ours),
            UarchModel::rwr(Ours),
            UarchModel::nwr(Ours),
        ] {
            assert!(
                !basea_ours(&t, &model),
                "{} cannot exploit roach-motel",
                model.name()
            );
        }
    }

    // ---- §5.2.3: lazy cumulativity ----

    #[test]
    fn lazy_cumulativity_fig13_forbidden_under_current_any_load_sync() {
        let t = suite::fig13_mp_lazy();
        for model in [
            UarchModel::nwr(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(
                !basea_curr(&t, &model),
                "{} must (over-)forbid Figure 13",
                model.name()
            );
        }
    }

    #[test]
    fn lazy_cumulativity_fig13_allowed_under_acquire_only_sync() {
        let t = suite::fig13_mp_lazy();
        for model in [UarchModel::nmm(Ours), UarchModel::a9like(Ours)] {
            assert!(
                basea_ours(&t, &model),
                "{} must allow Figure 13",
                model.name()
            );
        }
    }

    #[test]
    fn lazy_cumulativity_is_invisible_on_stronger_models() {
        // On (r)MCA machines the Figure 13 outcome stays forbidden either
        // way: the dependency-ordered load chain is globally ordered. The
        // shared FIFO buffer (nWR) likewise drains the two releases in
        // order, so its readers cannot miss the first one.
        let t = suite::fig13_mp_lazy();
        for model in [
            UarchModel::wr(Ours),
            UarchModel::rwr(Ours),
            UarchModel::nwr(Ours),
        ] {
            assert!(
                !basea_ours(&t, &model),
                "{} must forbid Figure 13",
                model.name()
            );
        }
    }

    // ---- Base sanity: SB and MP behave like the paper's models ----

    #[test]
    fn sb_all_sc_forbidden_even_without_cumulativity() {
        // fence rw,rw gives W→R ordering without cumulativity.
        let t = suite::sb([MemOrder::Sc; 4]);
        for model in UarchModel::all_riscv(Curr) {
            assert!(
                !base_curr(&t, &model),
                "{} must forbid SB+fences",
                model.name()
            );
        }
    }

    #[test]
    fn sb_relaxed_observable_everywhere() {
        let t = suite::sb([MemOrder::Rlx; 4]);
        for version in [Curr, Ours] {
            for model in UarchModel::all_riscv(version) {
                assert!(
                    base_curr(&t, &model),
                    "{} must allow relaxed SB",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn mp_release_acquire_never_buggy_on_riscv_models() {
        let t = suite::mp([MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Rlx]);
        for model in UarchModel::all_riscv(Curr) {
            assert!(
                !base_curr(&t, &model),
                "{} must forbid MP rel/acq (Base)",
                model.name()
            );
            assert!(
                !basea_curr(&t, &model),
                "{} must forbid MP rel/acq (Base+A)",
                model.name()
            );
        }
    }

    #[test]
    fn mp_relaxed_observable_on_weak_models_only() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        assert!(!base_curr(&t, &UarchModel::wr(Curr)));
        assert!(!base_curr(&t, &UarchModel::rwr(Curr)));
        assert!(base_curr(&t, &UarchModel::rwm(Curr)));
        assert!(base_curr(&t, &UarchModel::nmm(Curr)));
    }

    // ---- §4.3 point 7 / §6.1: A9like vs nMM on Base+A WRC ----

    #[test]
    fn a9like_amo_visibility_prevents_sc_publisher_wrc() {
        // WRC variant: SC store on T0, rel/acq chain. On A9like the SC
        // AMO's write is globally visible when T1 reads it, so the chain
        // is forbidden; the shared-buffer nMM still exhibits it.
        use MemOrder::{Acq, Rel, Rlx, Sc};
        let t = suite::wrc([Sc, Rlx, Rel, Acq, Rlx]);
        assert!(!basea_curr(&t, &UarchModel::a9like(Curr)));
        assert!(basea_curr(&t, &UarchModel::nmm(Curr)));
    }

    // ---- ARMv7: §1–§2 load→load hazard ----

    #[test]
    fn arm_ldld_hazard_reproduces_figure_1() {
        // Relaxed atomics compile to plain loads; the A9 hazard lets two
        // same-address loads reorder, exposing a C11-forbidden outcome.
        let t = suite::corr([MemOrder::Rlx; 4]);
        assert!(observes(
            &t,
            power_mapping(PowerSyncStyle::Leading),
            &UarchModel::armv7_a9_ldld_hazard()
        ));
        assert!(!observes(
            &t,
            power_mapping(PowerSyncStyle::Leading),
            &UarchModel::armv7_a9like()
        ));
    }

    #[test]
    fn arm_iriw_sc_forbidden_with_cumulative_fences() {
        let t = suite::fig4_iriw_sc();
        assert!(!observes(
            &t,
            power_mapping(PowerSyncStyle::Leading),
            &UarchModel::armv7_a9like()
        ));
    }

    #[test]
    fn base_a_intuitive_and_model_versions_are_exercised() {
        // Guard: the Base+A intuitive mapping really produces AMOs (the
        // model distinctions above depend on it).
        let compiled = compile(&suite::fig3_wrc(), riscv_mapping(BaseA, Curr)).unwrap();
        let has_amo = compiled
            .program()
            .threads()
            .iter()
            .flatten()
            .any(|i| matches!(i, tricheck_litmus::Instr::Rmw { .. }));
        assert!(has_amo);
    }
}
